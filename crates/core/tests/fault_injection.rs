//! End-to-end fault-injection matrix: every failpoint site, when armed,
//! must surface as a *structured* error from the pipeline — never as an
//! uncontained panic.
//!
//! The failpoint registry is process-global, so every test here
//! serializes on one lock (this binary holds only fault tests; the rest
//! of the suite runs in other processes and is unaffected).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::{Mutex, MutexGuard, PoisonError};

use soctam::exec::fault;
use soctam::experiment::{run_table_in, ExperimentConfig};
use soctam::model::parser;
use soctam::{
    Benchmark, EvalCache, FaultAction, Pool, RandomPatternConfig, RunCtx, SiOptimizer,
    SiPatternSet, SoctamError,
};

static LOCK: Mutex<()> = Mutex::new(());

/// Serializes a test and leaves the registry clean on both entry and
/// exit (even when a previous test failed while holding the lock).
fn guard() -> MutexGuard<'static, ()> {
    let guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    fault::reset();
    guard
}

fn run_pipeline(soc: &soctam::Soc, patterns: &SiPatternSet) -> Result<(), SoctamError> {
    SiOptimizer::new(soc)
        .max_tam_width(8)
        .partitions(2)
        .optimize(patterns)
        .map(|_| ())
}

#[test]
fn every_pipeline_failpoint_yields_a_structured_error() {
    let _guard = guard();
    let soc = Benchmark::D695.soc();
    let patterns =
        SiPatternSet::random(&soc, &RandomPatternConfig::new(200).with_seed(1)).expect("valid");

    // hit()-based sites panic inside a stage; the pipeline boundary must
    // convert each into SoctamError::Internal naming the site.
    for site in [
        "exec.pool.task",
        "exec.cache.lookup",
        "compaction.bucket",
        "tam.merge",
        "tam.schedule",
    ] {
        fault::set(site, FaultAction::Panic);
        let err = run_pipeline(&soc, &patterns).expect_err(site);
        fault::reset();
        match err {
            SoctamError::Internal { site: got, .. } => assert_eq!(got, site),
            other => panic!("site {site}: expected Internal, got {other:?}"),
        }
    }

    // check()-based sites return a typed error that forwards through the
    // stage's own error enum.
    fault::set("compaction.partition", FaultAction::Error);
    let err = run_pipeline(&soc, &patterns).expect_err("compaction.partition");
    fault::reset();
    assert!(
        matches!(err, SoctamError::Compaction(_)),
        "expected Compaction, got {err:?}"
    );
    assert!(err.to_string().contains("compaction.partition"), "{err}");
}

/// Arms each front-half site (generation, the pool's per-item site,
/// partitioning, the per-bucket covers) against `run` and checks the
/// structured error: a panicking site surfaces as
/// [`SoctamError::Internal`] naming it, an erroring one as the error of
/// its stage naming it. Then checks that the disarmed `run` succeeds.
fn assert_front_half_faults_are_structured(what: &str, run: impl Fn() -> Result<(), SoctamError>) {
    for (site, action) in [
        ("patterns.generate.random", FaultAction::Error),
        ("exec.pool.task", FaultAction::Panic),
        ("compaction.partition", FaultAction::Error),
        ("compaction.bucket", FaultAction::Panic),
    ] {
        fault::set(site, action);
        let err = run().expect_err(site);
        fault::reset();
        match (&err, action) {
            (SoctamError::Internal { site: got, .. }, FaultAction::Panic) => {
                assert_eq!(got, site, "{what}");
            }
            (SoctamError::Pattern(_) | SoctamError::Compaction(_), FaultAction::Error) => {
                assert!(err.to_string().contains(site), "{what}: {err}");
            }
            _ => panic!("{what}, site {site}: unexpected {err:?}"),
        }
    }
    run().unwrap_or_else(|err| panic!("{what} without faults: {err}"));
}

#[test]
fn group_specs_front_half_faults_are_structured() {
    let _guard = guard();
    let soc = Benchmark::D695.soc();
    let config = RandomPatternConfig::new(300).with_seed(3);
    for jobs in [1, 2] {
        // A fresh cache per run: every call is a miss that generates and
        // compacts.
        assert_front_half_faults_are_structured(&format!("group_specs jobs={jobs}"), || {
            SiOptimizer::new(&soc)
                .partitions(2)
                .run(RunCtx {
                    eval_cache: Some(EvalCache::new()),
                    ..RunCtx::new(Pool::new(jobs))
                })
                .group_specs(&config)
                .map(|_| ())
        });
    }
}

#[test]
fn run_table_in_front_half_faults_are_structured() {
    let _guard = guard();
    let soc = Benchmark::D695.soc();
    let config = ExperimentConfig {
        pattern_count: 300,
        widths: vec![8],
        partitions: vec![1, 2],
        seed: 3,
    };
    for jobs in [1, 2] {
        let run = RunCtx::new(Pool::new(jobs));
        assert_front_half_faults_are_structured(&format!("run_table_in jobs={jobs}"), || {
            run_table_in(&soc, &config, &run).map(|_| ())
        });
    }
}

#[test]
fn generator_failpoint_fails_pattern_construction() {
    let _guard = guard();
    let soc = Benchmark::D695.soc();
    fault::set("patterns.generate.random", FaultAction::Error);
    let err = SiPatternSet::random(&soc, &RandomPatternConfig::new(10))
        .expect_err("generator fault fires");
    fault::reset();
    assert!(
        err.to_string().contains("patterns.generate.random"),
        "{err}"
    );
}

#[test]
fn parser_failpoint_fails_soc_parsing() {
    let _guard = guard();
    let text = parser::write_soc(&Benchmark::D695.soc());
    fault::set("model.parse", FaultAction::Error);
    let err = parser::parse_soc(&text).expect_err("parser fault fires");
    fault::reset();
    assert!(err.to_string().contains("model.parse"), "{err}");
}

#[test]
fn counted_failpoint_fires_on_the_nth_hit_only() {
    let _guard = guard();
    let soc = Benchmark::D695.soc();
    let patterns =
        SiPatternSet::random(&soc, &RandomPatternConfig::new(100).with_seed(2)).expect("valid");
    // The schedule site is hit many times per run; arming it from a very
    // large hit count must leave the run untouched.
    fault::set_after("tam.schedule", FaultAction::Panic, u64::MAX - 1);
    run_pipeline(&soc, &patterns).expect("fault never reached");
    fault::reset();
}

#[test]
fn bucket_failpoint_is_hit_once_per_work_item() {
    let _guard = guard();
    let soc = Benchmark::P93791.soc();
    let patterns =
        SiPatternSet::random(&soc, &RandomPatternConfig::new(3_000).with_seed(5)).expect("valid");
    for jobs in [1, 2] {
        let optimizer = SiOptimizer::new(&soc)
            .max_tam_width(16)
            .partitions(4)
            .run(RunCtx::new(Pool::new(jobs)));
        let stats = optimizer
            .optimize(&patterns)
            .expect("optimizes")
            .compacted()
            .stats()
            .clone();
        // One cover per part bucket, plus the cut remainder.
        assert!(stats.raw_remainder_patterns > 0, "jobs {jobs}");
        let items = stats.group_patterns.len() as u64 + 1;
        fault::set_after("compaction.bucket", FaultAction::Panic, items - 1);
        let err = optimizer
            .optimize(&patterns)
            .expect_err("the last item fires");
        fault::reset();
        match err {
            SoctamError::Internal { site, .. } => assert_eq!(site, "compaction.bucket"),
            other => panic!("jobs {jobs}: expected Internal, got {other:?}"),
        }
        fault::set_after("compaction.bucket", FaultAction::Panic, items);
        optimizer
            .optimize(&patterns)
            .unwrap_or_else(|err| panic!("jobs {jobs}: armed past the last item: {err}"));
        fault::reset();

        // The counts step behind `group_specs` covers the same items,
        // generated from the same recipe, once each.
        let recipe = RandomPatternConfig::new(3_000).with_seed(5);
        fault::set_after("compaction.bucket", FaultAction::Panic, items - 1);
        let err = optimizer
            .group_specs(&recipe)
            .expect_err("the last item fires");
        fault::reset();
        match err {
            SoctamError::Internal { site, .. } => assert_eq!(site, "compaction.bucket"),
            other => panic!("jobs {jobs}: expected Internal, got {other:?}"),
        }
        fault::set_after("compaction.bucket", FaultAction::Panic, items);
        optimizer
            .group_specs(&recipe)
            .unwrap_or_else(|err| panic!("jobs {jobs}: armed past the last item: {err}"));
        fault::reset();
    }
}

#[test]
fn env_spec_round_trips_through_the_parser() {
    let _guard = guard();
    let parsed = fault::parse_spec("tam.merge=panic;model.parse=error@3,exec.pool.task=delay:5")
        .expect("valid spec");
    assert_eq!(parsed.len(), 3);
    assert!(fault::parse_spec("nonsense").is_err());
    assert!(fault::parse_spec("site=explode").is_err());
}

#[test]
fn inactive_registry_is_inert_and_deterministic() {
    let _guard = guard();
    let soc = Benchmark::D695.soc();
    let patterns =
        SiPatternSet::random(&soc, &RandomPatternConfig::new(300).with_seed(4)).expect("valid");
    let run = || {
        SiOptimizer::new(&soc)
            .max_tam_width(16)
            .partitions(2)
            .optimize(&patterns)
            .expect("optimizes")
            .total_time()
    };
    let baseline = run();
    // Arm and disarm a failpoint; the disarmed pipeline must be
    // bit-identical to the never-armed one.
    fault::set("tam.merge", FaultAction::Panic);
    fault::reset();
    assert_eq!(run(), baseline);
}
