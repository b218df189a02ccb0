//! Timing benches for Algorithm 2 (`TAM_Optimization`) and the
//! TR-Architect baseline at the paper's width range.
//!
//! Pass `--json <path>` to additionally write the results as a JSON
//! report.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use soctam::{
    Benchmark, EvalCache, Objective, RandomPatternConfig, RunCtx, SiOptimizer, TamOptimizer,
};
use soctam_bench::harness::{samples, Session};
use soctam_bench::{bench_groups, TABLE_SEED};

fn main() {
    let mut session = Session::from_args();
    let p34392 = Benchmark::P34392.soc();
    let p34392_groups = bench_groups(&p34392);
    let soc = Benchmark::P93791.soc();
    let groups = bench_groups(&soc);
    let samples = samples(10);
    // Acceptance entry tracked in BENCH_4.json: the incremental per-rail
    // evaluation refactor is measured against this label.
    session.bench("tam_optimization_p34392/si_aware/16", samples, || {
        TamOptimizer::new(&p34392, 16, p34392_groups.clone())
            .expect("valid")
            .optimize()
            .expect("optimizes")
    });
    for width in [8u32, 32, 64] {
        session.bench(
            &format!("tam_optimization_p93791/si_aware/{width}"),
            samples,
            || {
                TamOptimizer::new(&soc, width, groups.clone())
                    .expect("valid")
                    .optimize()
                    .expect("optimizes")
            },
        );
        session.bench(
            &format!("tam_optimization_p93791/baseline/{width}"),
            samples,
            || {
                TamOptimizer::new(&soc, width, groups.clone())
                    .expect("valid")
                    .objective(Objective::InTestOnly)
                    .optimize()
                    .expect("optimizes")
            },
        );
    }
    // The `serve-optimizer` request shape: the groups a p93791 request
    // at N_r = 2 000 and i = 1 compacts to (the hypergraph is bypassed),
    // optimized at W = 64 for each objective.
    let request_groups = SiOptimizer::new(&soc)
        .partitions(1)
        .seed(TABLE_SEED)
        .group_specs(&RandomPatternConfig::new(2_000).with_seed(TABLE_SEED))
        .expect("generates and compacts")
        .to_vec();
    for (label, objective) in [
        ("si_aware", Objective::Total),
        ("baseline", Objective::InTestOnly),
    ] {
        session.bench(
            &format!("tam_optimization_p93791_nr2000_i1/{label}/64"),
            samples,
            || {
                TamOptimizer::new(&soc, 64, request_groups.clone())
                    .expect("valid")
                    .objective(objective)
                    .optimize()
                    .expect("optimizes")
            },
        );
    }
    // The same SI-aware request repeated through one shared store, as
    // the daemon serves a repeat: both legs come from the search memo.
    let shared = RunCtx {
        eval_cache: Some(EvalCache::new()),
        ..RunCtx::default()
    };
    session.bench(
        "tam_optimization_p93791_nr2000_i1/si_aware_repeat/64",
        samples,
        || {
            TamOptimizer::new(&soc, 64, request_groups.clone())
                .expect("valid")
                .run(shared.clone())
                .optimize()
                .expect("optimizes")
        },
    );
    // The Algorithm 1-heaviest shape Table 3 sweeps: N_r = 10 000 at
    // i = 8 compacts to nine groups (eight partitions plus the
    // remainder), so every SI-aware probe that moves a group's
    // bottleneck re-runs the list scheduler over nine tests.
    let table3_groups = SiOptimizer::new(&soc)
        .partitions(8)
        .seed(TABLE_SEED)
        .group_specs(&RandomPatternConfig::new(10_000).with_seed(TABLE_SEED))
        .expect("generates and compacts")
        .to_vec();
    session.bench(
        "tam_optimization_p93791_nr10000_i8/si_aware/48",
        samples,
        || {
            TamOptimizer::new(&soc, 48, table3_groups.clone())
                .expect("valid")
                .optimize()
                .expect("optimizes")
        },
    );
    session.finish();
}
