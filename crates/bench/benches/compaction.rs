//! Timing benches for the Section 3 compaction machinery: the greedy
//! clique cover and the full two-dimensional pipeline.
//!
//! Pass `--json <path>` to additionally write the results as a JSON
//! report (used by the CI perf-smoke job).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use soctam::compaction::{compact_greedy, compact_two_dimensional, CompactionConfig};
use soctam::Benchmark;
use soctam_bench::bench_patterns;
use soctam_bench::harness::{samples, Session};

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
    session.finish();
}
