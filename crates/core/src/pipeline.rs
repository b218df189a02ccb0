//! The one-stop optimization pipeline.

use std::panic;
use std::sync::Arc;

use soctam_compaction::{compact_packed_with, CompactedSiTests, CompactionConfig, CompactionError};
use soctam_exec::{fault, fx_fingerprint128, Metrics, Pool};
use soctam_hypergraph::PartitionConfig;
use soctam_model::Soc;
use soctam_patterns::packed::check_packable;
use soctam_patterns::{
    generate_random_packed, PackedSet, PatternError, RandomPatternConfig, SiPatternSet,
};
use soctam_tam::{
    Evaluation, Objective, OptimizedArchitecture, RunCtx, SiGroupSpec, TamOptimizer,
    TestRailArchitecture,
};

use crate::SoctamError;

/// Runs one pipeline stage with panic containment: a panicking worker
/// (or an injected `fault::hit`) surfaces as a structured
/// [`SoctamError::Internal`] naming the failpoint site instead of
/// unwinding into the caller. Sound because every stage either returns
/// a value or is discarded wholesale — no partially-mutated state
/// escapes the closure.
pub(crate) fn contain_panics<T>(
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
        self.optimize_compacted(self.compact(patterns)?)
    }

    /// [`SiOptimizer::optimize`] on the random SI patterns `patterns`
    /// describes, generated straight into a packed arena (see
    /// [`generate_random_packed`]) under the `generate` phase: no sparse
    /// pattern set is built, and the result equals
    /// `optimize(&SiPatternSet::random(soc, patterns)?)`. Generation runs
    /// with panic containment like every later stage.
    ///
    /// # Errors
    ///
    /// Generation errors ([`SoctamError::Pattern`]), then as
    /// [`SiOptimizer::optimize`].
    pub fn optimize_random(
        &self,
        patterns: &RandomPatternConfig,
    ) -> Result<SiOptimizationResult, SoctamError> {
        self.optimize_compacted(self.generate_and_compact(patterns)?)
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
        let optimized = self.optimize_specs(&SiGroupSpec::from_compacted(&compacted))?;
        Ok(SiOptimizationResult {
            compacted,
            optimized,
        })
    }

    /// Runs the TAM-optimization half on the group specs the optimizer
    /// reads (see [`SiOptimizer::group_specs`]).
    ///
    /// # Errors
    ///
    /// As [`SiOptimizer::optimize_compacted`].
    pub fn optimize_specs(
        &self,
        groups: &[SiGroupSpec],
    ) -> Result<OptimizedArchitecture, SoctamError> {
        let optimized = contain_panics("pipeline.optimize", || {
            self.metrics()
                .time("optimize", || {
                    TamOptimizer::new(self.soc, self.max_tam_width, groups.to_vec())?
                        .objective(self.objective)
                        .run(self.run.clone())
                        .optimize()
                })
                .map_err(SoctamError::from)
        })?;
        optimized.evaluation().schedule.validate().into_result()?;
        Ok(optimized)
    }

    /// Generates the random SI patterns `patterns` describes, compacts
    /// them and returns the group specs the optimizer reads, in group
    /// order (remainder last).
    ///
    /// When the run carries a shared [`EvalCache`](soctam_tam::EvalCache),
    /// the specs are memoized there under a fingerprint of every input
    /// generation and compaction read: the SOC's contents, `patterns`
    /// and the partition count and seed. Nothing else enters, so the
    /// same request at another width, objective or budget is a
    /// hit. A hit skips generation, pattern validation and compaction
    /// and records no `generate` or `compact` phase, but still
    /// validates the SOC and passes the `patterns.generate.random` and
    /// `compaction.partition` failpoints, so an armed site fails a
    /// recalled request exactly as it fails a computed one. Only
    /// successes are stored, and the specs are bit-identical either way.
    ///
    /// # Errors
    ///
    /// Generation, validation and compaction errors, as
    /// [`SiOptimizer::optimize_random`] reports them.
    pub fn group_specs(
        &self,
        patterns: &RandomPatternConfig,
    ) -> Result<Arc<Vec<SiGroupSpec>>, SoctamError> {
        let compute = || {
            let compacted = self.generate_and_compact(patterns)?;
            Ok(Arc::new(SiGroupSpec::from_compacted(&compacted)))
        };
        let Some(cache) = &self.run.eval_cache else {
            return compute();
        };
        let key = group_specs_key(self.soc, patterns, &self.compaction_config());
        if let Some(groups) = cache.groups(key) {
            self.metrics().count_memo_hit();
            fault::check("patterns.generate.random").map_err(PatternError::from)?;
            self.soc.validate().into_result()?;
            contain_panics("pipeline.compact", || {
                fault::check("compaction.partition")
                    .map_err(|fault| CompactionError::from(fault).into())
            })?;
            return Ok(groups);
        }
        self.metrics().count_memo_miss();
        let groups = compute()?;
        contain_panics("pipeline.compact", || Ok(cache.insert_groups(key, groups)))
    }

    /// The front half of [`SiOptimizer::optimize_random`]: generation
    /// into a packed arena under the `generate` phase, then
    /// [`SiOptimizer::compact_arena`].
    fn generate_and_compact(
        &self,
        patterns: &RandomPatternConfig,
    ) -> Result<CompactedSiTests, SoctamError> {
        let set = contain_panics("pipeline.generate", || {
            self.metrics()
                .time("generate", || {
                    generate_random_packed(self.soc, patterns, &self.run.pool)
                })
                .map_err(SoctamError::from)
        })?;
        self.compact_arena(&set)
    }

    /// Validates the SOC and `patterns`, then packs and compacts them
    /// under the `compact` phase with panic containment. The set is
    /// walked once to validate it; the packed arena then validates from
    /// its summary.
    fn compact(&self, patterns: &SiPatternSet) -> Result<CompactedSiTests, SoctamError> {
        self.soc.validate().into_result()?;
        patterns.validate(self.soc).into_result()?;
        self.compact_phase(|config, pool| {
            check_packable(self.soc)?;
            compact_packed_with(
                self.soc,
                &PackedSet::build(patterns.as_slice()),
                config,
                pool,
            )
        })
    }

    /// [`SiOptimizer::compact`] on a packed arena, which validates from
    /// its summary.
    fn compact_arena(&self, set: &PackedSet) -> Result<CompactedSiTests, SoctamError> {
        self.soc.validate().into_result()?;
        set.validate(self.soc).into_result()?;
        self.compact_phase(|config, pool| compact_packed_with(self.soc, set, config, pool))
    }

    /// Runs `compact` on this pipeline's configuration and pool under the
    /// `compact` phase, with panic containment.
    fn compact_phase(
        &self,
        compact: impl FnOnce(&CompactionConfig, &Pool) -> Result<CompactedSiTests, CompactionError>,
    ) -> Result<CompactedSiTests, SoctamError> {
        contain_panics("pipeline.compact", || {
            self.metrics()
                .time("compact", || {
                    compact(&self.compaction_config(), &self.run.pool)
                })
                .map_err(SoctamError::from)
        })
    }

    fn compaction_config(&self) -> CompactionConfig {
        CompactionConfig::new(self.partitions).with_seed(self.seed)
    }
}

/// The memo key of the group specs that generating `patterns` on `soc`
/// and compacting them under `compaction` produce: a fingerprint of
/// every input those two stages read. The SOC enters by its contents
/// (its name and every core spec), so inline SOCs that share a name do
/// not alias. The destructuring is exhaustive: a field added to any of
/// the configs fails to compile here until it is keyed.
fn group_specs_key(
    soc: &Soc,
    patterns: &RandomPatternConfig,
    compaction: &CompactionConfig,
) -> u128 {
    let RandomPatternConfig {
        count,
        seed,
        min_aggressors,
        max_aggressors,
        max_external_aggressors,
        locality,
        bus_lines,
        bus_probability,
    } = patterns;
    let CompactionConfig {
        partitions,
        partition_config:
            PartitionConfig {
                parts,
                imbalance,
                seed: partition_seed,
                initial_tries,
                max_fm_passes,
            },
        merge_order,
    } = compaction;
    fx_fingerprint128(&(
        soc,
        (
            count,
            seed,
            min_aggressors,
            max_aggressors,
            max_external_aggressors,
            locality,
            bus_lines,
            bus_probability.to_bits(),
        ),
        (
            partitions,
            parts,
            imbalance.to_bits(),
            partition_seed,
            initial_tries,
            max_fm_passes,
            merge_order,
        ),
    ))
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
    use soctam_tam::{EvalCache, OptimizerBudget};

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
    fn invalid_sparse_sets_keep_their_errors() {
        use soctam_model::{CoreSpec, Diagnostic, TerminalId};
        use soctam_patterns::packed::MAX_PACKED_DRIVERS;
        use soctam_patterns::{SiPattern, Symbol};

        let soc = Benchmark::D695.soc();
        let outside = (TerminalId::new(soc.total_wocs()), Symbol::Rise);
        let patterns = SiPatternSet::from(vec![
            SiPattern::new(vec![outside], vec![]).expect("valid pattern"),
            SiPattern::default(),
        ]);
        let Err(SoctamError::Validation(diags)) = SiOptimizer::new(&soc).optimize(&patterns) else {
            panic!("an invalid set fails validation");
        };
        let codes: Vec<&str> = diags.items().iter().map(Diagnostic::code).collect();
        assert_eq!(codes, ["PAT-V01", "PAT-V02"]);

        let core = CoreSpec::new("c", 1, 2, 0, vec![], 1).expect("valid core");
        let soc = Soc::new("huge", vec![core; MAX_PACKED_DRIVERS as usize + 1]).expect("valid");
        let patterns =
            SiPatternSet::random(&soc, &RandomPatternConfig::new(50).with_seed(1)).expect("valid");
        assert_eq!(
            SiOptimizer::new(&soc)
                .partitions(1)
                .optimize(&patterns)
                .unwrap_err(),
            SoctamError::Compaction(CompactionError::Pattern(PatternError::TooManyCores {
                cores: MAX_PACKED_DRIVERS as usize + 1,
                limit: MAX_PACKED_DRIVERS,
            }))
        );
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
            .expect("optimizes");
        let groups = SiGroupSpec::from_compacted(single.compacted());
        let multi = TamOptimizer::new(&soc, 16, groups)
            .expect("valid")
            .optimize_multi(4)
            .expect("optimizes");
        assert!(multi.evaluation().t_total() <= single.total_time());
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
    fn group_specs_key_covers_every_input() {
        let soc = Benchmark::D695.soc();
        let patterns = RandomPatternConfig::new(100).with_seed(3);
        let compaction = CompactionConfig::new(2).with_seed(3);
        let base = group_specs_key(&soc, &patterns, &compaction);
        assert_eq!(
            group_specs_key(&soc.clone(), &patterns.clone(), &compaction.clone()),
            base
        );
        let pattern_edits: [fn(&mut RandomPatternConfig); 8] = [
            |c| c.count += 1,
            |c| c.seed += 1,
            |c| c.min_aggressors += 1,
            |c| c.max_aggressors += 1,
            |c| c.max_external_aggressors += 1,
            |c| c.locality = None,
            |c| c.bus_lines += 1,
            |c| c.bus_probability = 0.25,
        ];
        for (field, edit) in pattern_edits.iter().enumerate() {
            let mut changed = patterns.clone();
            edit(&mut changed);
            let key = group_specs_key(&soc, &changed, &compaction);
            assert_ne!(key, base, "pattern field {field}");
        }
        let compaction_edits: [fn(&mut CompactionConfig); 7] = [
            |c| c.partitions += 1,
            |c| c.partition_config.parts += 1,
            |c| c.partition_config.imbalance = 0.2,
            |c| c.partition_config.seed += 1,
            |c| c.partition_config.initial_tries += 1,
            |c| c.partition_config.max_fm_passes += 1,
            |c| c.merge_order = soctam_compaction::MergeOrder::MostCareBitsFirst,
        ];
        for (field, edit) in compaction_edits.iter().enumerate() {
            let mut changed = compaction.clone();
            edit(&mut changed);
            let key = group_specs_key(&soc, &patterns, &changed);
            assert_ne!(key, base, "compaction field {field}");
        }
        // The SOC enters by contents: one scan chain one cell longer,
        // same name, is another key.
        let core = |chains| soctam_model::CoreSpec::new("c", 8, 8, 0, chains, 10).expect("valid");
        let soc_a = Soc::new("s", vec![core(vec![4, 4]), core(vec![6])]).expect("valid");
        let soc_b = Soc::new("s", vec![core(vec![4, 5]), core(vec![6])]).expect("valid");
        assert_ne!(
            group_specs_key(&soc_a, &patterns, &compaction),
            group_specs_key(&soc_b, &patterns, &compaction)
        );
    }

    /// A run on a fresh serial pool sharing `cache`.
    fn on_cache(cache: &EvalCache) -> RunCtx {
        RunCtx {
            eval_cache: Some(cache.clone()),
            ..RunCtx::default()
        }
    }

    #[test]
    fn group_specs_are_recalled_across_widths_and_match_a_cold_compaction() {
        let soc = Benchmark::D695.soc();
        let config = RandomPatternConfig::new(300).with_seed(4);
        let cache = EvalCache::new();
        let optimizer = |width: u32, run: RunCtx| {
            SiOptimizer::new(&soc)
                .max_tam_width(width)
                .partitions(2)
                .seed(4)
                .run(run)
        };
        let cold = optimizer(16, RunCtx::default())
            .optimize(&SiPatternSet::random(&soc, &config).expect("valid"))
            .expect("optimizes");
        let cold_specs = SiGroupSpec::from_compacted(cold.compacted());

        let first = optimizer(16, on_cache(&cache));
        let computed = first.group_specs(&config).expect("compacts");
        assert_eq!(&computed[..], &cold_specs[..]);
        let snap = first.metrics().snapshot();
        assert_eq!((snap.memo_hits, snap.memo_misses), (0, 1));
        assert!(snap.phases.iter().any(|(name, _)| name == "compact"));

        // Another width, budget and pool: a hit that records no
        // generation or compaction phase.
        let second = optimizer(32, on_cache(&cache));
        let recalled = second.group_specs(&config).expect("recalls");
        assert!(Arc::ptr_eq(&recalled, &computed));
        let snap = second.metrics().snapshot();
        assert_eq!((snap.memo_hits, snap.memo_misses), (1, 0));
        assert!(snap.phases.is_empty(), "{:?}", snap.phases);

        // The optimize half on recalled specs is the cold answer.
        let warm = first.optimize_specs(&recalled).expect("optimizes");
        assert_eq!(warm.evaluation(), cold.evaluation());
        assert_eq!(warm.architecture(), cold.architecture());

        // Another partition count is another key.
        let other = SiOptimizer::new(&soc)
            .partitions(1)
            .seed(4)
            .run(on_cache(&cache));
        other.group_specs(&config).expect("compacts");
        assert_eq!(other.metrics().snapshot().memo_misses, 1);
    }

    #[test]
    fn group_specs_without_a_cache_compute_and_count_nothing() {
        let soc = Benchmark::D695.soc();
        let optimizer = SiOptimizer::new(&soc).partitions(2);
        let config = RandomPatternConfig::new(200);
        let specs = optimizer.group_specs(&config).expect("compacts");
        assert_eq!(
            &specs[..],
            &optimizer.group_specs(&config).expect("compacts")[..]
        );
        let snap = optimizer.metrics().snapshot();
        assert_eq!((snap.memo_hits, snap.memo_misses), (0, 0));
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
