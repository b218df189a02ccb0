//! Property: a faulted speculative probe selects deterministically.
//!
//! The optimizer's move loops price each candidate batch in candidate
//! order on the calling thread and reduce it with a deterministic
//! ordered rule (lowest cost, ties broken by candidate index). An armed
//! `tam.probe` failpoint poisons single probes: the poisoned candidate
//! drops out of that reduction, and the chosen architecture must stay
//! bit-identical at every worker-pool size.
//!
//! The failpoint registry is process-global, so every test here
//! serializes on one lock (the rest of the suite runs in other
//! processes and is unaffected).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::{Mutex, MutexGuard, PoisonError};

use soctam_exec::fault::{self, FaultAction};
use soctam_exec::Pool;
use soctam_model::{Benchmark, Soc};
use soctam_tam::{RunCtx, SiGroupSpec, TamOptimizer};

static LOCK: Mutex<()> = Mutex::new(());

/// Serializes a test and leaves the failpoint registry clean on both
/// entry and exit (even when a previous test failed holding the lock).
fn guard() -> MutexGuard<'static, ()> {
    let guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    fault::reset();
    guard
}

/// Runs a full optimization on a `jobs`-worker pool and returns the
/// result triple the tests compare.
fn optimize_with(
    soc: &Soc,
    groups: &[SiGroupSpec],
    max_width: u32,
    jobs: usize,
) -> (Vec<soctam_tam::TestRail>, u64, u64) {
    let result = TamOptimizer::new(soc, max_width, groups.to_vec())
        .expect("valid")
        .run(RunCtx::new(Pool::new(jobs)))
        .optimize()
        .expect("optimizes");
    let eval = result.evaluation();
    (result.architecture().rails().to_vec(), eval.t_in, eval.t_si)
}

#[test]
fn panicked_speculative_probe_still_selects_deterministically() {
    let _guard = guard();
    let soc = Benchmark::D695.soc();
    let groups = vec![
        SiGroupSpec::new(soc.core_ids().collect::<Vec<_>>(), 30),
        SiGroupSpec::new(soc.core_ids().take(5).collect::<Vec<_>>(), 55),
    ];
    // Panic one speculative probe partway through the run: the poisoned
    // candidate drops out of the ordered reduction, and every pool size
    // must degrade to the same selection.
    for skip in [0_u64, 7, 100] {
        fault::set_after("tam.probe", FaultAction::Panic, skip);
        let serial = optimize_with(&soc, &groups, 16, 1);
        fault::reset();

        fault::set_after("tam.probe", FaultAction::Panic, skip);
        let parallel = optimize_with(&soc, &groups, 16, 4);
        fault::reset();
        assert_eq!(
            serial, parallel,
            "faulted probe selection diverged at jobs 4 (skip {skip})"
        );
    }

    // Arming the failpoint beyond the run's probe count must leave the
    // result bit-identical to the never-armed run.
    let clean = optimize_with(&soc, &groups, 16, 4);
    fault::set_after("tam.probe", FaultAction::Panic, u64::MAX - 1);
    let unreached = optimize_with(&soc, &groups, 16, 4);
    fault::reset();
    assert_eq!(clean, unreached, "unreached failpoint perturbed the run");
}

#[test]
fn errored_probe_counts_as_wasted_and_run_still_succeeds() {
    let _guard = guard();
    let soc = Benchmark::D695.soc();
    let groups = vec![SiGroupSpec::new(soc.core_ids().collect::<Vec<_>>(), 40)];
    let pool = Pool::new(4);

    fault::set_after("tam.probe", FaultAction::Error, 5);
    let result = TamOptimizer::new(&soc, 16, groups)
        .expect("valid")
        .run(RunCtx::new(pool.clone()))
        .optimize();
    fault::reset();

    let arch = result.expect("faulted probes degrade, not fail");
    assert!(!arch.architecture().rails().is_empty());
    let snap = pool.metrics().snapshot();
    assert!(
        snap.probe_wasted > 0,
        "errored probes must be counted as wasted (got {})",
        snap.probe_wasted
    );
    assert!(
        snap.speculative_probes >= snap.probe_wasted,
        "wasted probes exceed total probes"
    );
    assert!(snap.probe_batches > 0, "no probe batches recorded");
}
