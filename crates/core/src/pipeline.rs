//! The one-stop optimization pipeline.

use std::panic;
use std::sync::Arc;

use soctam_compaction::{compact_two_dimensional_with, CompactedSiTests, CompactionConfig};
use soctam_exec::{fault, Metrics, Pool};
use soctam_model::Soc;
use soctam_patterns::SiPatternSet;
use soctam_tam::{
    backend_for, BackendCtx, BackendKind, Evaluation, Objective, OptimizedArchitecture, RunCtx,
    SiGroupSpec, TestRailArchitecture,
};

use crate::SoctamError;

/// Runs one pipeline stage with panic containment: a panicking worker
/// (or an injected `fault::hit`) surfaces as a structured
/// [`SoctamError::Internal`] naming the failpoint site instead of
/// unwinding into the caller. Sound because every stage either returns
/// a value or is discarded wholesale — no partially-mutated state
/// escapes the closure.
fn contain_panics<T>(
    stage: &'static str,
    f: impl FnOnce() -> Result<T, SoctamError>,
) -> Result<T, SoctamError> {
    match panic::catch_unwind(panic::AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(SoctamError::Internal {
            site: fault::fault_from_panic(payload.as_ref())
                .map(|fault| fault.site().to_string())
                .unwrap_or_else(|| stage.to_string()),
            message: fault::panic_message(payload.as_ref()),
        }),
    }
}

/// The full Problem `P_SI_opt` pipeline: two-dimensional compaction of the
/// SI test set followed by SI-aware TAM optimization.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use soctam::{Benchmark, RandomPatternConfig, SiOptimizer, SiPatternSet};
///
/// let soc = Benchmark::D695.soc();
/// let patterns = SiPatternSet::random(&soc, &RandomPatternConfig::new(1_000))?;
/// let result = SiOptimizer::new(&soc)
///     .max_tam_width(24)
///     .partitions(2)
///     .optimize(&patterns)?;
/// assert!(result.architecture().total_width() <= 24);
/// assert_eq!(
///     result.total_time(),
///     result.intest_time() + result.si_time()
/// );
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct SiOptimizer<'a> {
    soc: &'a Soc,
    max_tam_width: u32,
    partitions: u32,
    seed: u64,
    objective: Objective,
    backend: BackendKind,
    restarts: u32,
    run: RunCtx,
}

impl<'a> SiOptimizer<'a> {
    /// Creates a pipeline for `soc` with defaults matching the paper's
    /// setup: a 32-wire TAM, 4 SI partitions, seed 0, total-time objective.
    pub fn new(soc: &'a Soc) -> Self {
        SiOptimizer {
            soc,
            max_tam_width: 32,
            partitions: 4,
            seed: 0,
            objective: Objective::Total,
            backend: BackendKind::TrArchitect,
            restarts: 1,
            run: RunCtx::default(),
        }
    }

    /// Runs the pipeline on the resources of `run`, replacing every one
    /// set before, the pool included. Results are bit-identical for
    /// every pool size and with or without a shared cache; a tripped
    /// budget or cancel token returns a valid best-so-far architecture
    /// flagged [`SiOptimizationResult::degraded`].
    pub fn run(mut self, run: RunCtx) -> Self {
        self.run = run;
        self
    }

    /// Runs the pipeline on an existing [`Pool`] (shared across runs,
    /// metrics accumulate in the pool's [`Metrics`]), keeping the rest
    /// of the run context.
    pub fn pool(mut self, pool: Pool) -> Self {
        self.run.pool = pool;
        self
    }

    /// The metrics of the pipeline's pool: task/steal counters, cache
    /// hits and misses, per-phase wall-clock. Snapshot after
    /// [`SiOptimizer::optimize`] to report runtime statistics.
    pub fn metrics(&self) -> Arc<Metrics> {
        self.run.pool.metrics()
    }

    /// Sets the SOC-level TAM width budget `W_max`.
    pub fn max_tam_width(mut self, width: u32) -> Self {
        self.max_tam_width = width;
        self
    }

    /// Sets the SI partition count `i` (1 disables horizontal compaction).
    pub fn partitions(mut self, partitions: u32) -> Self {
        self.partitions = partitions;
        self
    }

    /// Sets the seed for the hypergraph partitioner.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the optimization objective ([`Objective::InTestOnly`]
    /// reproduces the TR-Architect / `T_[8]` baseline).
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Sets the number of multi-start restarts for the TAM optimizer
    /// (1 = the paper's single deterministic run).
    pub fn restarts(mut self, restarts: u32) -> Self {
        self.restarts = restarts.max(1);
        self
    }

    /// Selects the TAM-optimization backend. The default,
    /// [`BackendKind::TrArchitect`], is the paper's bandwidth-matching
    /// `TAM_Optimization`; every backend reports the shared
    /// `Evaluator`'s verdict on its architecture.
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Runs compaction and optimization on `patterns`, with strict
    /// validation at every stage boundary: the SOC and the pattern set
    /// are validated before compaction, and the final SI schedule is
    /// validated before the result is returned. Worker panics are
    /// contained and surface as [`SoctamError::Internal`].
    ///
    /// # Errors
    ///
    /// Forwards compaction and TAM errors ([`SoctamError`]);
    /// [`SoctamError::Validation`] when a stage boundary check fails.
    pub fn optimize(&self, patterns: &SiPatternSet) -> Result<SiOptimizationResult, SoctamError> {
        self.soc.validate().into_result()?;
        patterns.validate(self.soc).into_result()?;
        let compacted = contain_panics("pipeline.compact", || {
            self.metrics()
                .time("compact", || {
                    compact_two_dimensional_with(
                        self.soc,
                        patterns,
                        &CompactionConfig::new(self.partitions).with_seed(self.seed),
                        &self.run.pool,
                    )
                })
                .map_err(SoctamError::from)
        })?;
        self.optimize_compacted(compacted)
    }

    /// Runs only the TAM-optimization half on already-compacted groups.
    ///
    /// # Errors
    ///
    /// Forwards TAM errors ([`SoctamError`]); [`SoctamError::Validation`]
    /// when the produced SI schedule fails its structural checks.
    pub fn optimize_compacted(
        &self,
        compacted: CompactedSiTests,
    ) -> Result<SiOptimizationResult, SoctamError> {
        let optimized = contain_panics("pipeline.optimize", || {
            let groups = SiGroupSpec::from_compacted(&compacted);
            let ctx = BackendCtx {
                soc: self.soc,
                max_width: self.max_tam_width,
                groups: &groups,
                objective: self.objective,
                restarts: self.restarts,
                run: self.run.clone(),
            };
            let optimized = self
                .metrics()
                .time("optimize", || backend_for(self.backend).optimize(&ctx))?;
            Ok(optimized)
        })?;
        optimized.evaluation().schedule.validate().into_result()?;
        Ok(SiOptimizationResult {
            compacted,
            optimized,
        })
    }
}

/// The outcome of [`SiOptimizer::optimize`].
#[derive(Clone, Debug)]
pub struct SiOptimizationResult {
    compacted: CompactedSiTests,
    optimized: OptimizedArchitecture,
}

impl SiOptimizationResult {
    /// The compacted SI test set.
    pub fn compacted(&self) -> &CompactedSiTests {
        &self.compacted
    }

    /// The optimized TestRail architecture.
    pub fn architecture(&self) -> &TestRailArchitecture {
        self.optimized.architecture()
    }

    /// The full timing evaluation (rails, groups, schedule).
    pub fn evaluation(&self) -> &Evaluation {
        self.optimized.evaluation()
    }

    /// `T_soc = T_soc^in + T_soc^si` in clock cycles.
    pub fn total_time(&self) -> u64 {
        self.evaluation().t_total()
    }

    /// `T_soc^in` in clock cycles.
    pub fn intest_time(&self) -> u64 {
        self.evaluation().t_in
    }

    /// `T_soc^si` in clock cycles.
    pub fn si_time(&self) -> u64 {
        self.evaluation().t_si
    }

    /// True when the run's budget or cancel token tripped and the
    /// architecture is best-so-far rather than fully converged.
    pub fn degraded(&self) -> bool {
        self.optimized.degraded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctam_model::Benchmark;
    use soctam_patterns::RandomPatternConfig;
    use soctam_tam::OptimizerBudget;

    #[test]
    fn pipeline_runs_on_every_benchmark() {
        for bench in Benchmark::ALL {
            let soc = bench.soc();
            let patterns = SiPatternSet::random(&soc, &RandomPatternConfig::new(500).with_seed(1))
                .expect("valid");
            let result = SiOptimizer::new(&soc)
                .max_tam_width(16)
                .partitions(2)
                .optimize(&patterns)
                .expect("optimizes");
            assert!(result.total_time() > 0, "{bench}");
            assert!(result.architecture().total_width() <= 16);
        }
    }

    #[test]
    fn baseline_objective_reports_si_too() {
        let soc = Benchmark::D695.soc();
        let patterns = SiPatternSet::random(&soc, &RandomPatternConfig::new(400)).expect("valid");
        let result = SiOptimizer::new(&soc)
            .max_tam_width(8)
            .partitions(1)
            .objective(Objective::InTestOnly)
            .optimize(&patterns)
            .expect("optimizes");
        // Even the InTest-only baseline schedules the SI tests afterwards.
        assert!(result.si_time() > 0);
    }

    #[test]
    fn restarts_never_worsen_the_result() {
        let soc = Benchmark::D695.soc();
        let patterns =
            SiPatternSet::random(&soc, &RandomPatternConfig::new(800).with_seed(2)).expect("valid");
        let single = SiOptimizer::new(&soc)
            .max_tam_width(16)
            .optimize(&patterns)
            .expect("optimizes")
            .total_time();
        let multi = SiOptimizer::new(&soc)
            .max_tam_width(16)
            .restarts(4)
            .optimize(&patterns)
            .expect("optimizes")
            .total_time();
        assert!(multi <= single);
    }

    #[test]
    fn budget_degrades_but_schedule_stays_valid() {
        use std::time::Duration;
        let soc = Benchmark::P34392.soc();
        let patterns =
            SiPatternSet::random(&soc, &RandomPatternConfig::new(500).with_seed(3)).expect("valid");
        let result = SiOptimizer::new(&soc)
            .max_tam_width(16)
            .partitions(2)
            .run(RunCtx {
                budget: OptimizerBudget::default().with_deadline(Duration::from_millis(50)),
                ..RunCtx::default()
            })
            .optimize(&patterns)
            .expect("degrades, does not fail");
        // Degraded or not (a fast machine may finish in time), the
        // schedule must pass the structural validator.
        assert!(result.evaluation().schedule.validate().is_ok());
        assert!(result.architecture().total_width() <= 16);
        // A budget that cannot possibly suffice must degrade.
        let strangled = SiOptimizer::new(&soc)
            .max_tam_width(16)
            .partitions(2)
            .run(RunCtx {
                budget: OptimizerBudget::default().with_max_iterations(1),
                ..RunCtx::default()
            })
            .optimize(&patterns)
            .expect("degrades, does not fail");
        assert!(strangled.degraded());
        assert!(strangled.evaluation().schedule.validate().is_ok());
    }

    #[test]
    fn deterministic_end_to_end() {
        let soc = Benchmark::D695.soc();
        let patterns =
            SiPatternSet::random(&soc, &RandomPatternConfig::new(600).with_seed(5)).expect("valid");
        let run = || {
            SiOptimizer::new(&soc)
                .max_tam_width(16)
                .partitions(4)
                .seed(9)
                .optimize(&patterns)
                .expect("optimizes")
                .total_time()
        };
        assert_eq!(run(), run());
    }
}
