//! Timing benches for the Section 3 compaction machinery: the greedy
//! clique cover, the full two-dimensional pipeline, the front half of
//! a request (pattern generation plus compaction, and generation
//! alone), a table sweep's compactions and the cover on buses wider
//! than the paper's.
//!
//! Pass `--json <path>` to additionally write the results as a JSON
//! report (used by the CI perf-smoke job).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use soctam::compaction::{
    compact_greedy, compact_packed_with, compact_two_dimensional, compact_two_dimensional_with,
    CompactionConfig, PreparedSet,
};
use soctam::model::synth::{synth_soc, SynthConfig};
use soctam::patterns::generate_random_packed;
use soctam::patterns::packed::{first_fit_cover, words_for_terminals};
use soctam::{Benchmark, Pool, RandomPatternConfig, SiPatternSet};
use soctam_bench::harness::{samples, Session};
use soctam_bench::{bench_patterns, TABLE_SEED};

fn main() {
    let mut session = Session::from_args();
    let soc = Benchmark::P93791.soc();
    let samples = samples(10);
    // The kernel acceptance benchmark: single-threaded greedy clique
    // cover on p34392 at N_r = 10 000 (see BENCH_2.json). Runs first so
    // its timings are not skewed by the larger benches' allocator state.
    let p34392 = Benchmark::P34392.soc();
    let raw = bench_patterns(&p34392, 10_000);
    session.bench("vertical_compaction/p34392/10000", samples, || {
        compact_greedy(&p34392, raw.as_slice())
    });
    for n in [1_000usize, 5_000, 20_000] {
        let raw = bench_patterns(&soc, n);
        session.bench(&format!("compact_greedy/{n}"), samples, || {
            compact_greedy(&soc, raw.as_slice())
        });
    }
    let raw = bench_patterns(&soc, 5_000);
    for parts in [1u32, 2, 4, 8] {
        session.bench(&format!("compact_two_dimensional/{parts}"), samples, || {
            compact_two_dimensional(&soc, &raw, &CompactionConfig::new(parts))
                .expect("compaction succeeds")
        });
    }
    // The whole pipeline at the size an `optimize --patterns 100000`
    // request compacts, on the serial pool: validation, packing,
    // grouping, duplicate removal and the per-bucket covers.
    let raw = bench_patterns(&soc, 100_000);
    for parts in [1u32, 4] {
        session.bench(
            &format!("compact_two_dimensional/p93791/100000/{parts}"),
            samples,
            || {
                compact_two_dimensional(&soc, &raw, &CompactionConfig::new(parts))
                    .expect("compaction succeeds")
            },
        );
    }
    // The front half of an `optimize --patterns 100000 --partitions 4
    // --jobs 2` request: generation straight into the packed arena plus
    // the packed compaction, next to the sparse set plus the sparse
    // entry it replaced, and the generation alone. All include dropping
    // what they built. A loop in one process reuses the memory it
    // freed, so these rows show copies but not the page faults a fresh
    // CLI process pays for touching new memory.
    drop(raw);
    let pool = Pool::new(2);
    let patterns = RandomPatternConfig::new(100_000).with_seed(TABLE_SEED);
    let config = CompactionConfig::new(4);
    session.bench("generate_random_packed/p93791/100000", samples, || {
        generate_random_packed(&soc, &patterns, &pool).expect("generation succeeds")
    });
    session.bench("front_half/p93791/100000/4", samples, || {
        let set = generate_random_packed(&soc, &patterns, &pool).expect("generation succeeds");
        compact_packed_with(&soc, &set, &config, &pool).expect("compaction succeeds")
    });
    session.bench("front_half_sparse/p93791/100000/4", samples, || {
        let raw = SiPatternSet::random_with(&soc, &patterns, &pool).expect("generation succeeds");
        compact_two_dimensional_with(&soc, &raw, &config, &pool).expect("compaction succeeds")
    });
    // The compactions of a `table p93791 --patterns 100000 --jobs 2`
    // sweep, as `run_table_in` runs them: one arena prepared once, then
    // the step of each partition count, the counts fanned over the pool.
    let set = generate_random_packed(&soc, &patterns, &pool).expect("generation succeeds");
    let counts = [1u32, 2, 4, 8];
    session.bench("table_compaction/p93791/100000", samples, || {
        let prepared = PreparedSet::new(&soc, &set, &counts, &pool).expect("valid set");
        pool.par_map(&counts, |&parts| {
            let config = CompactionConfig::new(parts).with_seed(TABLE_SEED);
            prepared
                .compact(&config, &pool)
                .expect("compaction succeeds")
        })
    });
    // The single-threaded cover on synthesized SOCs past the embedded
    // benchmarks: 20 000 patterns over more than 64 distinct bus lines
    // (300 cores, 128 lines), and with about 600 drivers on each line
    // (600 cores, 2 lines), visited in input order.
    drop(set);
    for (label, cores, bus_lines) in [("wide_bus", 300, 128), ("many_drivers", 600, 2)] {
        let soc = synth_soc(&SynthConfig::new(cores).with_seed(TABLE_SEED)).expect("valid soc");
        let config = RandomPatternConfig {
            bus_lines,
            ..RandomPatternConfig::new(20_000).with_seed(TABLE_SEED)
        };
        let set = generate_random_packed(&soc, &config, &Pool::serial()).expect("valid set");
        let visit: Vec<u32> = (0..set.len() as u32).collect();
        let words = words_for_terminals(soc.total_wocs() as usize);
        session.bench(&format!("first_fit_cover/{label}"), samples, || {
            first_fit_cover(&set, &visit, words)
        });
    }
    session.finish();
}
