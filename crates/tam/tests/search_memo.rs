//! The search memo: every finished Algorithm-2 leg is stored in the
//! evaluation store under the evaluator's context fingerprint (SOC,
//! `W_max`, SI groups) plus the objective and the start perturbation,
//! so a leg repeated through a shared [`EvalCache`] is one lookup. A
//! warm answer must equal a cold one field for field, and budgeted,
//! cancelled and fault-injected runs must neither read nor write the
//! memo. The counters of the run's pool tell which legs were recalled.
//!
//! The failpoint registry is process-global, so every test here
//! serializes on one lock.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use soctam_exec::check::{cases, forall, Gen};
use soctam_exec::fault::{self, FaultAction};
use soctam_exec::{CancelToken, MetricsSnapshot, Pool};
use soctam_model::synth::{synth_soc, SynthConfig};
use soctam_model::{Benchmark, CoreId, Soc};
use soctam_tam::{
    EvalCache, Objective, OptimizedArchitecture, OptimizerBudget, RunCtx, SiGroupSpec, TamOptimizer,
};

static LOCK: Mutex<()> = Mutex::new(());

/// Serializes a test and leaves the failpoint registry clean.
fn guard() -> MutexGuard<'static, ()> {
    let guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    fault::reset();
    guard
}

/// A random SOC of `3..=8` cores.
fn random_soc(g: &mut Gen) -> Soc {
    let cores = g.usize_in(3, 9);
    synth_soc(
        &SynthConfig {
            inputs: (1, 16),
            outputs: (1, 16),
            scan_chain_count: (1, 4),
            scan_chain_len: (2, 40),
            patterns: (3, 50),
            ..SynthConfig::new(cores)
        }
        .with_seed(g.u64_in(0, u64::MAX)),
    )
    .expect("valid soc")
}

/// `1..=3` SI groups over random core subsets.
fn random_groups(g: &mut Gen, soc: &Soc) -> Vec<SiGroupSpec> {
    (0..g.usize_in(1, 4))
        .map(|_| {
            let cores: Vec<CoreId> = soc.core_ids().filter(|_| g.bool_with(0.6)).collect();
            let cores = if cores.is_empty() {
                soc.core_ids().collect()
            } else {
                cores
            };
            SiGroupSpec::new(cores, g.u64_in(1, 80))
        })
        .collect()
}

/// `optimize_multi(restarts)` on `run`, with the counters of its pool.
fn optimize(
    soc: &Soc,
    groups: &[SiGroupSpec],
    max_width: u32,
    objective: Objective,
    restarts: u32,
    run: RunCtx,
) -> (OptimizedArchitecture, MetricsSnapshot) {
    let metrics = run.pool.metrics();
    let result = TamOptimizer::new(soc, max_width, groups.to_vec())
        .expect("valid")
        .objective(objective)
        .run(run)
        .optimize_multi(restarts)
        .expect("optimizes");
    (result, metrics.snapshot())
}

/// A serial run through the shared store `cache`.
fn through(cache: &EvalCache) -> RunCtx {
    RunCtx {
        eval_cache: Some(cache.clone()),
        ..RunCtx::new(Pool::serial())
    }
}

/// The legs one run makes: one per start, plus the `Total`
/// portfolio's InTest-only second leg.
fn legs(objective: Objective, restarts: u32) -> u64 {
    u64::from(restarts.max(1)) + u64::from(objective == Objective::Total)
}

fn search(snap: &MetricsSnapshot) -> (u64, u64) {
    (snap.search_hits, snap.search_misses)
}

/// Random SOCs, groups, width budgets (below and above the core
/// count), objectives and restart counts: a run through a store that
/// already holds its legs recalls every one of them and equals a run
/// with no shared store field for field, `degraded` included.
#[test]
fn warm_store_answers_equal_cold_ones() {
    let _guard = guard();
    forall("search_memo_warm_equals_cold", cases(24), |g| {
        let soc = random_soc(g);
        let groups = random_groups(g, &soc);
        let max_width = g.u32_in(2, 40);
        let objective = if g.bool_with(0.5) {
            Objective::Total
        } else {
            Objective::InTestOnly
        };
        let restarts = g.u32_in(1, 4);
        let legs = legs(objective, restarts);
        let run = |ctx| optimize(&soc, &groups, max_width, objective, restarts, ctx);
        let (cold, _) = run(RunCtx::default());
        let cache = EvalCache::new();
        let (first, snap) = run(through(&cache));
        assert_eq!(search(&snap), (0, legs));
        let (warm, snap) = run(through(&cache));
        assert_eq!(search(&snap), (legs, 0));
        assert_eq!(snap.speculative_probes, 0, "a recalled leg probes nothing");
        assert_eq!(first, cold);
        assert_eq!(warm, cold);
        assert!(!warm.degraded());
    });
}

/// The InTest-only baseline on the groups of an earlier `Total` run is
/// that run's portfolio second leg: recalled, not searched again.
#[test]
fn a_baseline_after_a_total_run_recalls_its_intest_only_leg() {
    let _guard = guard();
    let soc = Benchmark::P34392.soc();
    let c = |range: std::ops::Range<u32>| -> Vec<CoreId> { range.map(CoreId::new).collect() };
    let groups = vec![
        SiGroupSpec::new(c(0..19), 400),
        SiGroupSpec::new(c(0..8), 900),
        SiGroupSpec::new(c(6..14), 700),
    ];
    let cache = EvalCache::new();
    let (_, snap) = optimize(&soc, &groups, 32, Objective::Total, 1, through(&cache));
    assert_eq!(search(&snap), (0, 2));
    let (baseline, snap) = optimize(&soc, &groups, 32, Objective::InTestOnly, 1, through(&cache));
    assert_eq!(search(&snap), (1, 0));
    assert_eq!(snap.speculative_probes, 0);
    let (cold, _) = optimize(
        &soc,
        &groups,
        32,
        Objective::InTestOnly,
        1,
        RunCtx::default(),
    );
    assert_eq!(baseline, cold);
}

/// An iteration budget and a deadline (both too large to trip), a
/// pre-cancelled token and an armed `tam.probe` failpoint each make a
/// run that neither reads a warm store's legs nor leaves a leg in a
/// fresh one.
#[test]
fn budgets_cancellation_and_failpoints_bypass_the_memo() {
    let _guard = guard();
    let soc = Benchmark::D695.soc();
    let groups = vec![
        SiGroupSpec::new(soc.core_ids().collect(), 60),
        SiGroupSpec::new((0..5).map(CoreId::new).collect(), 90),
    ];
    let unlimited = OptimizerBudget::unlimited();
    let cancelled = CancelToken::new();
    cancelled.cancel();
    let cases = [
        (
            "max_iterations",
            unlimited.with_max_iterations(1 << 40),
            None,
            false,
        ),
        (
            "deadline",
            unlimited.with_deadline(Duration::from_secs(3600)),
            None,
            false,
        ),
        ("pre-cancelled token", unlimited, Some(cancelled), false),
        ("armed failpoint", unlimited, None, true),
    ];
    for (label, budget, cancel, armed) in cases {
        let run = |ctx| optimize(&soc, &groups, 16, Objective::Total, 2, ctx);
        let warm = EvalCache::new();
        run(through(&warm));
        let fresh = EvalCache::new();
        for cache in [&warm, &fresh] {
            if armed {
                fault::set_after("tam.probe", FaultAction::Error, 3);
            }
            let (_, snap) = run(RunCtx {
                budget,
                cancel: cancel.clone(),
                ..through(cache)
            });
            fault::reset();
            assert_eq!(search(&snap), (0, 0), "{label}: the run read the memo");
        }
        let (_, snap) = run(through(&fresh));
        assert_eq!(search(&snap), (0, 3), "{label}: the run wrote the memo");
    }
}
