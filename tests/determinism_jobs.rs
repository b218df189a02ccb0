//! Thread-count independence of the parallel runtime.
//!
//! Every parallel stage in the pipeline (pattern generation, vertical
//! compaction per bucket, the optimizer's candidate sweep, speculative
//! candidate probing, the experiment grid) reduces its results in serial
//! order with the serial tie-break, so the outcome must be
//! **bit-identical** for every `--jobs` and `--probe-jobs` value. These
//! tests pin that contract on two benchmarks across the full cross
//! product of worker pools (1, 4, 8) and probe pools (1, 4, 8); only
//! wall-clock time may differ.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use soctam::experiment::{run_table_in, run_table_with, ExperimentConfig};
use soctam::{
    Benchmark, OptimizerBudget, Pool, RandomPatternConfig, RunCtx, SiOptimizationResult,
    SiOptimizer, SiPatternSet,
};

const JOBS: [usize; 3] = [1, 4, 8];
const PROBE_JOBS: [usize; 3] = [1, 4, 8];

/// The full `--jobs` x `--probe-jobs` grid, baseline (1, 1) first.
fn job_grid() -> impl Iterator<Item = (usize, usize)> {
    JOBS.into_iter()
        .flat_map(|jobs| PROBE_JOBS.into_iter().map(move |probe| (jobs, probe)))
}

/// The run context of one grid point: a `jobs`-worker pool, plus a
/// dedicated probe pool unless `probe_jobs` is 1 (the CLI's mapping).
fn run_ctx(jobs: usize, probe_jobs: usize) -> RunCtx {
    RunCtx {
        probe_pool: (probe_jobs != 1).then(|| Pool::new(probe_jobs)),
        ..RunCtx::new(Pool::new(jobs))
    }
}

fn optimize(
    bench: Benchmark,
    patterns: usize,
    jobs: usize,
    probe_jobs: usize,
) -> SiOptimizationResult {
    let soc = bench.soc();
    let set = SiPatternSet::random_with(
        &soc,
        &RandomPatternConfig::new(patterns).with_seed(11),
        &Pool::new(jobs),
    )
    .expect("valid patterns");
    SiOptimizer::new(&soc)
        .max_tam_width(16)
        .partitions(2)
        .seed(3)
        .run(run_ctx(jobs, probe_jobs))
        .optimize(&set)
        .expect("optimizes")
}

fn assert_identical_runs(bench: Benchmark, patterns: usize) {
    let baseline = optimize(bench, patterns, 1, 1);
    for (jobs, probe_jobs) in job_grid().skip(1) {
        let run = optimize(bench, patterns, jobs, probe_jobs);
        assert_eq!(
            run.compacted().groups(),
            baseline.compacted().groups(),
            "{bench}: compacted groups diverge at jobs={jobs} probe-jobs={probe_jobs}"
        );
        assert_eq!(
            run.architecture(),
            baseline.architecture(),
            "{bench}: architecture diverges at jobs={jobs} probe-jobs={probe_jobs}"
        );
        assert_eq!(
            run.evaluation(),
            baseline.evaluation(),
            "{bench}: schedule diverges at jobs={jobs} probe-jobs={probe_jobs}"
        );
    }
}

#[test]
fn d695_is_bit_identical_across_jobs() {
    assert_identical_runs(Benchmark::D695, 600);
}

#[test]
fn p34392_is_bit_identical_across_jobs() {
    assert_identical_runs(Benchmark::P34392, 400);
}

/// Like [`optimize`], but with an active iteration-bounded
/// [`OptimizerBudget`] (deadline unset, so the bound is deterministic).
fn optimize_budgeted(
    bench: Benchmark,
    patterns: usize,
    jobs: usize,
    probe_jobs: usize,
) -> SiOptimizationResult {
    let soc = bench.soc();
    let set = SiPatternSet::random_with(
        &soc,
        &RandomPatternConfig::new(patterns).with_seed(11),
        &Pool::new(jobs),
    )
    .expect("valid patterns");
    SiOptimizer::new(&soc)
        .max_tam_width(16)
        .partitions(2)
        .seed(3)
        .run(RunCtx {
            budget: OptimizerBudget::unlimited().with_max_iterations(6),
            ..run_ctx(jobs, probe_jobs)
        })
        .optimize(&set)
        .expect("optimizes")
}

/// An iteration-bounded budget must trip at the same point regardless of
/// the worker or probe-worker count: candidate probes are speculative
/// (they never tick the tracker; the budget is charged once per accepted
/// step), so the committed-move sequence — and therefore the result — is
/// identical for every `--jobs` x `--probe-jobs` combination.
fn assert_identical_budgeted_runs(bench: Benchmark, patterns: usize) {
    let baseline = optimize_budgeted(bench, patterns, 1, 1);
    for (jobs, probe_jobs) in job_grid().skip(1) {
        let run = optimize_budgeted(bench, patterns, jobs, probe_jobs);
        assert_eq!(
            run.architecture(),
            baseline.architecture(),
            "{bench}: budgeted architecture diverges at jobs={jobs} probe-jobs={probe_jobs}"
        );
        assert_eq!(
            run.evaluation(),
            baseline.evaluation(),
            "{bench}: budgeted schedule diverges at jobs={jobs} probe-jobs={probe_jobs}"
        );
        assert_eq!(
            run.degraded(),
            baseline.degraded(),
            "{bench}: budgeted degradation flag diverges at jobs={jobs} probe-jobs={probe_jobs}"
        );
    }
}

#[test]
fn d695_budgeted_is_bit_identical_across_jobs() {
    assert_identical_budgeted_runs(Benchmark::D695, 600);
}

#[test]
fn p34392_budgeted_is_bit_identical_across_jobs() {
    assert_identical_budgeted_runs(Benchmark::P34392, 400);
}

#[test]
fn pattern_generation_matches_serial_api() {
    let soc = Benchmark::D695.soc();
    let config = RandomPatternConfig::new(500).with_seed(7);
    let serial = SiPatternSet::random(&soc, &config).expect("valid");
    for &jobs in &JOBS {
        let parallel = SiPatternSet::random_with(&soc, &config, &Pool::new(jobs)).expect("valid");
        assert_eq!(parallel, serial, "pattern set diverges at jobs={jobs}");
    }
}

#[test]
fn experiment_table_is_bit_identical_across_jobs() {
    let soc = Benchmark::D695.soc();
    let config = ExperimentConfig {
        pattern_count: 300,
        widths: vec![8, 24],
        partitions: vec![1, 2],
        seed: 5,
    };
    let baseline = run_table_with(&soc, &config, &Pool::serial()).expect("runs");
    for (jobs, probe_jobs) in job_grid().skip(1) {
        let run = run_ctx(jobs, probe_jobs);
        let table = run_table_in(&soc, &config, &run).expect("runs");
        assert_eq!(
            table, baseline,
            "table diverges at jobs={jobs} probe-jobs={probe_jobs}"
        );
    }
}
