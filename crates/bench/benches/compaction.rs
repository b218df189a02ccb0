//! Timing benches for the Section 3 compaction machinery: the greedy
//! clique cover, the full two-dimensional pipeline, the front half of
//! a request (pattern generation plus compaction, and generation
//! alone), a table sweep's compactions (full and counts-only steps)
//! and the cover on buses wider than the paper's.
//!
//! Pass `--json <path>` to additionally write the results as a JSON
//! report (used by the CI perf-smoke job), and row-name substrings to
//! set up and time only the rows whose labels contain one:
//! `cargo bench -p soctam-bench --bench compaction -- front_half`.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use soctam::compaction::{
    compact_greedy, compact_two_dimensional, compact_two_dimensional_with, count_packed_with,
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
    let wants_any = |session: &Session, labels: &[String]| labels.iter().any(|l| session.wants(l));
    let soc = Benchmark::P93791.soc();
    let samples = samples(10);
    // The kernel acceptance benchmark: single-threaded greedy clique
    // cover on p34392 at N_r = 10 000 (see BENCH_2.json). Runs first so
    // its timings are not skewed by the larger benches' allocator state.
    let label = "vertical_compaction/p34392/10000";
    if session.wants(label) {
        let p34392 = Benchmark::P34392.soc();
        let raw = bench_patterns(&p34392, 10_000);
        session.bench(label, samples, || compact_greedy(&p34392, raw.as_slice()));
    }
    for n in [1_000usize, 5_000, 20_000] {
        let label = format!("compact_greedy/{n}");
        if session.wants(&label) {
            let raw = bench_patterns(&soc, n);
            session.bench(&label, samples, || compact_greedy(&soc, raw.as_slice()));
        }
    }
    let labels: Vec<String> = [1u32, 2, 4, 8]
        .iter()
        .map(|parts| format!("compact_two_dimensional/{parts}"))
        .collect();
    if wants_any(&session, &labels) {
        let raw = bench_patterns(&soc, 5_000);
        for (parts, label) in [1u32, 2, 4, 8].into_iter().zip(&labels) {
            session.bench(label, samples, || {
                compact_two_dimensional(&soc, &raw, &CompactionConfig::new(parts))
                    .expect("compaction succeeds")
            });
        }
    }
    // The whole pipeline at the size an `optimize --patterns 100000`
    // request compacts, on the serial pool: validation, packing,
    // grouping, duplicate removal and the per-bucket covers.
    let labels: Vec<String> = [1u32, 4]
        .iter()
        .map(|parts| format!("compact_two_dimensional/p93791/100000/{parts}"))
        .collect();
    if wants_any(&session, &labels) {
        let raw = bench_patterns(&soc, 100_000);
        for (parts, label) in [1u32, 4].into_iter().zip(&labels) {
            session.bench(label, samples, || {
                compact_two_dimensional(&soc, &raw, &CompactionConfig::new(parts))
                    .expect("compaction succeeds")
            });
        }
    }
    // The front half of an `optimize --patterns 100000 --partitions 4
    // --jobs 2` request: generation straight into the packed arena plus
    // the counts step `SiOptimizer::group_specs` runs on it, next to the
    // sparse set plus the sparse compaction it replaced, and the
    // generation alone. All include dropping what they built. A loop in
    // one process reuses the memory it freed, so these rows show copies
    // but not the page faults a fresh CLI process pays for touching new
    // memory.
    let pool = Pool::new(2);
    let patterns = RandomPatternConfig::new(100_000).with_seed(TABLE_SEED);
    let config = CompactionConfig::new(4);
    session.bench("generate_random_packed/p93791/100000", samples, || {
        generate_random_packed(&soc, &patterns, &pool).expect("generation succeeds")
    });
    session.bench("front_half/p93791/100000/4", samples, || {
        let set = generate_random_packed(&soc, &patterns, &pool).expect("generation succeeds");
        count_packed_with(&soc, &set, &config, &pool).expect("compaction succeeds")
    });
    session.bench("front_half_sparse/p93791/100000/4", samples, || {
        let raw = SiPatternSet::random_with(&soc, &patterns, &pool).expect("generation succeeds");
        compact_two_dimensional_with(&soc, &raw, &config, &pool).expect("compaction succeeds")
    });
    // The compactions of a `table p93791 --patterns 100000 --jobs 2`
    // sweep: one arena prepared once, then the step of each partition
    // count, the counts fanned over the pool. `table_counts` runs them
    // as `run_table_in` does, through the counts step, which emits no
    // compacted pattern; `table_compaction` through the full step.
    let labels = [
        "table_compaction/p93791/100000".to_string(),
        "table_counts/p93791/100000".to_string(),
    ];
    if wants_any(&session, &labels) {
        let set = generate_random_packed(&soc, &patterns, &pool).expect("generation succeeds");
        let counts = [1u32, 2, 4, 8];
        let step_config = |parts: u32| CompactionConfig::new(parts).with_seed(TABLE_SEED);
        session.bench(&labels[0], samples, || {
            let prepared = PreparedSet::new(&soc, &set, &counts, &pool).expect("valid set");
            pool.par_map(&counts, |&parts| {
                prepared
                    .compact(&step_config(parts), &pool)
                    .expect("compaction succeeds")
            })
        });
        session.bench(&labels[1], samples, || {
            let prepared = PreparedSet::new(&soc, &set, &counts, &pool).expect("valid set");
            pool.par_map(&counts, |&parts| {
                prepared
                    .counts(&step_config(parts), &pool)
                    .expect("compaction succeeds")
            })
        });
    }
    // The single-threaded cover on synthesized SOCs past the embedded
    // benchmarks: 20 000 patterns over more than 64 distinct bus lines
    // (300 cores, 128 lines), and with about 600 drivers on each line
    // (600 cores, 2 lines), visited in input order. Each sample emits
    // the cliques, as the full compaction step does.
    for (label, cores, bus_lines) in [("wide_bus", 300, 128), ("many_drivers", 600, 2)] {
        let label = format!("first_fit_cover/{label}");
        if !session.wants(&label) {
            continue;
        }
        let soc = synth_soc(&SynthConfig::new(cores).with_seed(TABLE_SEED)).expect("valid soc");
        let config = RandomPatternConfig {
            bus_lines,
            ..RandomPatternConfig::new(20_000).with_seed(TABLE_SEED)
        };
        let set = generate_random_packed(&soc, &config, &Pool::serial()).expect("valid set");
        let visit: Vec<u32> = (0..set.len() as u32).collect();
        let words = words_for_terminals(soc.total_wocs() as usize);
        session.bench(&label, samples, || {
            first_fit_cover(&set, &visit, words).patterns()
        });
    }
    session.finish();
}
