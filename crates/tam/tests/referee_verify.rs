//! The Evaluator-as-referee harness.
//!
//! For every SOC × `W_max` × partition grid point, the optimizer's
//! architecture must:
//!
//! 1. **validate** — construct cleanly via `TestRailArchitecture::new`
//!    (every core hosted exactly once);
//! 2. **respect `W_max`** — `check_width` holds;
//! 3. **re-evaluate bit-identically** under a *fresh* [`Evaluator`] —
//!    the Evaluator-as-referee invariant: the evaluation the optimizer
//!    reports is exactly what the referee assigns to its architecture,
//!    with no search-private cost model leaking into the reported
//!    `T_soc`.
//!
//! The same grid run twice must also be bit-identical (the optimizer is
//! a deterministic function of the problem). On d695 the grid runs
//! every entry point the front ends use: the default run, the
//! [`Objective::InTestOnly`] baseline (the table's `T_[8]` column and
//! `--baseline`) and a three-start portfolio.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use soctam_compaction::{compact_two_dimensional, CompactionConfig};
use soctam_exec::CancelToken;
use soctam_model::{Benchmark, Soc};
use soctam_patterns::{RandomPatternConfig, SiPatternSet};
use soctam_tam::{
    Evaluator, Objective, OptimizedArchitecture, OptimizerBudget, RunCtx, SiGroupSpec,
    TamOptimizer, TestRailArchitecture,
};

/// How a grid point is optimized: the objective and the number of
/// starts (1 runs [`TamOptimizer::optimize`]).
type Mode = (Objective, u32);

const DEFAULT: Mode = (Objective::Total, 1);
const EVERY_MODE: [Mode; 3] = [DEFAULT, (Objective::InTestOnly, 1), (Objective::Total, 3)];

/// Compacts `patterns` random patterns into `parts` partitions.
fn groups_for(soc: &Soc, patterns: usize, parts: u32) -> Vec<SiGroupSpec> {
    let raw = SiPatternSet::random(soc, &RandomPatternConfig::new(patterns).with_seed(7))
        .expect("pattern generation");
    let compacted = compact_two_dimensional(soc, &raw, &CompactionConfig::new(parts).with_seed(7))
        .expect("compaction");
    SiGroupSpec::from_compacted(&compacted)
}

/// Runs one grid point in one mode and checks all three invariants.
fn verify_point(
    soc: &Soc,
    w_max: u32,
    groups: &[SiGroupSpec],
    (objective, starts): Mode,
) -> OptimizedArchitecture {
    let optimizer = TamOptimizer::new(soc, w_max, groups.to_vec())
        .expect("optimizer")
        .objective(objective);
    let result = match starts {
        1 => optimizer.optimize(),
        n => optimizer.optimize_multi(n),
    };
    let label = format!("{} W_max={w_max} {objective:?}×{starts}", soc.name());
    let result = result.unwrap_or_else(|e| panic!("{label}: {e}"));

    // 1. The architecture validates: every core hosted exactly once.
    let rails = result.architecture().rails().to_vec();
    TestRailArchitecture::new(soc, rails)
        .unwrap_or_else(|e| panic!("{label}: invalid architecture: {e}"));

    // 2. The width budget is respected.
    result
        .architecture()
        .check_width(w_max)
        .unwrap_or_else(|e| panic!("{label}: exceeds W_max: {e}"));

    // 3. Evaluator-as-referee: a fresh, cache-free evaluator assigns
    // exactly the evaluation the optimizer reported.
    let referee = Evaluator::new(soc, w_max, groups.to_vec()).expect("referee evaluator");
    assert_eq!(
        &referee.evaluate(result.architecture()),
        result.evaluation(),
        "{label}: the referee disagrees with the reported evaluation"
    );
    result
}

fn verify_grid(
    bench: Benchmark,
    patterns: usize,
    widths: &[u32],
    partitions: &[u32],
    modes: &[Mode],
) {
    let soc = bench.soc();
    for &parts in partitions {
        let groups = groups_for(&soc, patterns, parts);
        for &w_max in widths {
            for &mode in modes {
                let first = verify_point(&soc, w_max, &groups, mode);
                // Determinism: the identical grid point reproduces the
                // identical result, bit for bit.
                let second = verify_point(&soc, w_max, &groups, mode);
                assert_eq!(
                    first, second,
                    "{bench} W_max={w_max} parts={parts} {mode:?} is not deterministic"
                );
            }
        }
    }
}

#[test]
fn d695_grid_satisfies_the_referee_in_every_mode() {
    verify_grid(Benchmark::D695, 300, &[8, 16, 32], &[1, 2, 4], &EVERY_MODE);
}

#[test]
fn p34392_grid_satisfies_the_referee() {
    verify_grid(Benchmark::P34392, 200, &[16, 32], &[1, 2], &[DEFAULT]);
}

#[test]
fn p93791_grid_satisfies_the_referee() {
    verify_grid(Benchmark::P93791, 150, &[16, 32], &[2], &[DEFAULT]);
}

/// `optimize_multi(1)` is `optimize()`: the pipeline calls the former
/// for every restart count and the table grid the latter, so the two
/// must agree bit for bit, budget and cancellation included.
#[test]
fn a_single_start_portfolio_is_the_plain_run() {
    let cancelled = CancelToken::new();
    cancelled.cancel();
    let runs = [
        ("unbudgeted", RunCtx::default()),
        (
            "max_iterations=1",
            RunCtx {
                budget: OptimizerBudget::unlimited().with_max_iterations(1),
                ..RunCtx::default()
            },
        ),
        (
            "max_iterations=50",
            RunCtx {
                budget: OptimizerBudget::unlimited().with_max_iterations(50),
                ..RunCtx::default()
            },
        ),
        (
            "cancelled",
            RunCtx {
                cancel: Some(cancelled),
                ..RunCtx::default()
            },
        ),
    ];
    for (bench, patterns) in [(Benchmark::D695, 300), (Benchmark::P34392, 200)] {
        let soc = bench.soc();
        let groups = groups_for(&soc, patterns, 2);
        for (label, run) in &runs {
            let optimizer = || {
                TamOptimizer::new(&soc, 16, groups.clone())
                    .expect("optimizer")
                    .run(run.clone())
            };
            let plain = optimizer().optimize().expect("optimize");
            let single = optimizer().optimize_multi(1).expect("optimize_multi");
            assert_eq!(
                single.architecture(),
                plain.architecture(),
                "{bench} {label}"
            );
            assert_eq!(single.evaluation(), plain.evaluation(), "{bench} {label}");
            assert_eq!(single.degraded(), plain.degraded(), "{bench} {label}");
            if ["max_iterations=1", "cancelled"].contains(label) {
                assert!(plain.degraded(), "{bench} {label} must degrade");
            }
        }
    }
}
