//! Property: speculative parallel probing equals serial probing.
//!
//! The optimizer's move loops evaluate candidate batches on a probe
//! pool and reduce them with a deterministic ordered rule (lowest cost,
//! ties broken by candidate index). That reduction must make the probe
//! pool's job count invisible: any probe-jobs value, and any armed
//! `tam.probe` failpoint, must leave the chosen architecture
//! bit-identical to the serial run under the same conditions.
//!
//! The failpoint registry is process-global, so every test here
//! serializes on one lock (the rest of the suite runs in other
//! processes and is unaffected).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::{Mutex, MutexGuard, PoisonError};

use soctam_exec::check::{cases, forall, Gen};
use soctam_exec::fault::{self, FaultAction};
use soctam_exec::Pool;
use soctam_model::synth::{synth_soc, SynthConfig};
use soctam_model::{Benchmark, Soc};
use soctam_tam::{OptimizerBudget, RunCtx, SiGroupSpec, TamOptimizer};

static LOCK: Mutex<()> = Mutex::new(());

/// Serializes a test and leaves the failpoint registry clean on both
/// entry and exit (even when a previous test failed holding the lock).
fn guard() -> MutexGuard<'static, ()> {
    let guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    fault::reset();
    guard
}

/// A random SOC of `3..=8` cores with modest wrapper geometry.
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

/// `1..=3` random SI test groups over random core subsets.
fn random_groups(g: &mut Gen, soc: &Soc) -> Vec<SiGroupSpec> {
    let n = g.usize_in(1, 4);
    (0..n)
        .map(|_| {
            let cores: Vec<_> = soc.core_ids().filter(|_| g.bool_with(0.6)).collect();
            let cores = if cores.is_empty() {
                soc.core_ids().collect()
            } else {
                cores
            };
            SiGroupSpec::new(cores, g.u64_in(1, 80))
        })
        .collect()
}

/// Runs a full optimization with the given probe pool (`None` = serial
/// in-loop probing) and returns the result pair the tests compare.
fn optimize_with(
    soc: &Soc,
    groups: &[SiGroupSpec],
    max_width: u32,
    budget: Option<OptimizerBudget>,
    probe_pool: Option<Pool>,
) -> (Vec<soctam_tam::TestRail>, u64, u64) {
    let run = RunCtx {
        probe_pool,
        budget: budget.unwrap_or_default(),
        ..RunCtx::default()
    };
    let result = TamOptimizer::new(soc, max_width, groups.to_vec())
        .expect("valid")
        .run(run)
        .optimize()
        .expect("optimizes");
    let eval = result.evaluation();
    (result.architecture().rails().to_vec(), eval.t_in, eval.t_si)
}

#[test]
fn parallel_probes_match_serial_probes() {
    let _guard = guard();
    forall("probe_parallel_vs_serial", cases(20), |g| {
        let soc = random_soc(g);
        let max_width = 8;
        let groups = random_groups(g, &soc);
        let serial = optimize_with(&soc, &groups, max_width, None, None);
        for jobs in [4, 8] {
            let parallel = optimize_with(&soc, &groups, max_width, None, Some(Pool::new(jobs)));
            assert_eq!(
                serial, parallel,
                "probe-jobs {jobs} diverged from serial probing"
            );
        }
    });
}

#[test]
fn budgeted_parallel_probes_match_serial_probes() {
    let _guard = guard();
    forall("budgeted_probe_parallel_vs_serial", cases(15), |g| {
        let soc = random_soc(g);
        let max_width = 8;
        let groups = random_groups(g, &soc);
        // Budget ticks are charged per accepted step, never per probe,
        // so a tight iteration cap must trip at the same step at every
        // probe-jobs value.
        let iters = g.u64_in(1, 12);
        let budget = OptimizerBudget::unlimited().with_max_iterations(iters);
        let serial = optimize_with(&soc, &groups, max_width, Some(budget), None);
        for jobs in [4, 8] {
            let parallel = optimize_with(
                &soc,
                &groups,
                max_width,
                Some(budget),
                Some(Pool::new(jobs)),
            );
            assert_eq!(
                serial, parallel,
                "budgeted probe-jobs {jobs} diverged from serial (max_iters {iters})"
            );
        }
    });
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
    // candidate drops out of the ordered reduction, and every probe-jobs
    // value must degrade to the same selection.
    for skip in [0_u64, 7, 100] {
        fault::set_after("tam.probe", FaultAction::Panic, skip);
        let serial = optimize_with(&soc, &groups, 16, None, None);
        fault::reset();

        for jobs in [4, 8] {
            fault::set_after("tam.probe", FaultAction::Panic, skip);
            let parallel = optimize_with(&soc, &groups, 16, None, Some(Pool::new(jobs)));
            fault::reset();
            assert_eq!(
                serial, parallel,
                "faulted probe selection diverged at probe-jobs {jobs} (skip {skip})"
            );
        }
    }

    // Arming the failpoint beyond the run's probe count must leave the
    // result bit-identical to the never-armed run.
    let clean = optimize_with(&soc, &groups, 16, None, Some(Pool::new(4)));
    fault::set_after("tam.probe", FaultAction::Panic, u64::MAX - 1);
    let unreached = optimize_with(&soc, &groups, 16, None, Some(Pool::new(4)));
    fault::reset();
    assert_eq!(clean, unreached, "unreached failpoint perturbed the run");
}

#[test]
fn errored_probe_counts_as_wasted_and_run_still_succeeds() {
    let _guard = guard();
    let soc = Benchmark::D695.soc();
    let groups = vec![SiGroupSpec::new(soc.core_ids().collect::<Vec<_>>(), 40)];
    let pool = Pool::serial();

    fault::set_after("tam.probe", FaultAction::Error, 5);
    let result = TamOptimizer::new(&soc, 16, groups)
        .expect("valid")
        .run(RunCtx {
            probe_pool: Some(Pool::new(4)),
            ..RunCtx::new(pool.clone())
        })
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
