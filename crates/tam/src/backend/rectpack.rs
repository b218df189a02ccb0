//! Rectangle-packing TAM backend (`rect-pack`).
//!
//! The wrapper/TAM co-optimization line (arXiv 1008.3320; arXiv
//! 1008.4446) models each core test as a **rectangle**: width = assigned
//! TAM wires, height = the core's InTest time at that width. The
//! [`TimeTable`](soctam_wrapper::TimeTable) Pareto fronts enumerate
//! exactly the useful rectangles per core — every non-front width is
//! dominated. TAM design is then 2-D packing under the wire budget
//! `W_max`, minimizing the skyline height (the InTest makespan).
//!
//! This backend uses the *diagonal-length* heuristic of arXiv
//! 1008.4446: cores are placed in decreasing order of the squared
//! diagonal `w² + t²` of their widest (saturated) Pareto rectangle —
//! long-and-wide tests first, slivers later — and each core takes the
//! best-fit position: appended to the existing rail, or opened as a new
//! rail at a Pareto width, whichever yields the smallest resulting
//! makespan (ties broken by smaller local height, existing-rail-first,
//! then lowest index — fully deterministic, integer-only). Leftover
//! wires are distributed one at a time to the bottleneck rail while the
//! makespan still improves (the packing analogue of
//! `distributeFreeWires`).
//!
//! SI tests do not enter the packing model — the rectangles are InTest
//! rectangles — but the reported evaluation is the shared
//! [`Evaluator`]'s full verdict (InTest *and* scheduled SI phases) on
//! the packed architecture, per the Evaluator-as-referee invariant.
//!
//! The search is serial and pool-independent: output is bit-identical
//! at every `--jobs`/`--probe-jobs` setting. Budget exhaustion or
//! cancellation mid-placement degrades to a cheap feasible completion
//! (remaining cores fold onto the lowest rail), never an error.

use soctam_exec::fault;
use soctam_model::CoreId;
use soctam_wrapper::TimeTable;

use crate::budget::BudgetTracker;
use crate::{Evaluator, OptimizedArchitecture, TamError, TestRail, TestRailArchitecture};

use super::{BackendCaps, BackendCtx, TamBackend};

/// Pareto rectangle packing with the diagonal-length heuristic. See the
/// [module docs](self) for the algorithm.
#[derive(Clone, Copy, Debug, Default)]
pub struct RectPackBackend;

/// One rail under construction: the cores stacked on it, its wire
/// width, and its accumulated InTest height at that width.
#[derive(Clone, Debug)]
struct Bin {
    cores: Vec<CoreId>,
    width: u32,
    height: u64,
}

/// Squared diagonal of the core's widest (saturated) Pareto rectangle.
/// Integer-only: `u128` cannot overflow for `u32` widths and `u64`
/// times squared-and-summed with saturation.
fn diagonal_key(table: &TimeTable, core: CoreId) -> u128 {
    let (w, t) = table.pareto(core).last().copied().unwrap_or((1, 0));
    let w = u128::from(w);
    let t = u128::from(t);
    w.saturating_mul(w).saturating_add(t.saturating_mul(t))
}

fn makespan(bins: &[Bin]) -> u64 {
    bins.iter().map(|b| b.height).max().unwrap_or(0)
}

/// Appends `core` to the lowest bin (opening a width-1 bin if none
/// exist) — the cheap feasible completion used once the budget trips.
fn fold_onto_lowest(bins: &mut Vec<Bin>, used_width: &mut u32, table: &TimeTable, core: CoreId) {
    let lowest = bins
        .iter()
        .enumerate()
        .min_by_key(|(i, b)| (b.height, *i))
        .map(|(i, _)| i);
    match lowest {
        Some(i) => {
            let added = table.intest(core, bins[i].width);
            bins[i].cores.push(core);
            bins[i].height = bins[i].height.saturating_add(added);
        }
        None => {
            *used_width = used_width.saturating_add(1);
            bins.push(Bin {
                cores: vec![core],
                width: 1,
                height: table.intest(core, 1),
            });
        }
    }
}

/// Places every core: diagonal order, best-fit candidate choice.
/// Returns the bins and the total width in use.
fn place(ctx: &BackendCtx<'_>, table: &TimeTable, tracker: &BudgetTracker) -> (Vec<Bin>, u32) {
    let mut order: Vec<CoreId> = ctx.soc.core_ids().collect();
    order.sort_by(|&a, &b| {
        diagonal_key(table, b)
            .cmp(&diagonal_key(table, a))
            .then(a.cmp(&b))
    });

    let mut bins: Vec<Bin> = Vec::new();
    let mut used_width: u32 = 0;
    let mut degraded_fill = false;
    for core in order {
        if degraded_fill || !tracker.tick() {
            degraded_fill = true;
            fold_onto_lowest(&mut bins, &mut used_width, table, core);
            continue;
        }
        let remaining = ctx.max_width.saturating_sub(used_width);
        let current = makespan(&bins);
        // Candidate tuple: (resulting makespan, local height, kind,
        // index) — strict `<` keeps the first minimum, so existing
        // rails (kind 0) beat new rails (kind 1) on full ties and
        // lower indices/widths beat higher ones.
        let mut best: Option<(u64, u64, u8, usize)> = None;
        let mut probed: u64 = 0;
        for (i, bin) in bins.iter().enumerate() {
            let h = bin.height.saturating_add(table.intest(core, bin.width));
            let candidate = (current.max(h), h, 0u8, i);
            probed = probed.saturating_add(1);
            if best.map_or(true, |b| candidate < b) {
                best = Some(candidate);
            }
        }
        for &(w, t) in table.pareto(core) {
            if w > remaining {
                break; // Pareto points are ascending in width.
            }
            let candidate = (current.max(t), t, 1u8, w as usize);
            probed = probed.saturating_add(1);
            if best.map_or(true, |b| candidate < b) {
                best = Some(candidate);
            }
        }
        if let Some(p) = &ctx.run.progress {
            p.add_probed(probed);
        }
        match best {
            Some((_, _, 0, i)) => {
                let added = table.intest(core, bins[i].width);
                bins[i].cores.push(core);
                bins[i].height = bins[i].height.saturating_add(added);
            }
            Some((_, h, _, w)) => {
                // Lossless: `w` round-trips through usize from a u32
                // Pareto width, so the fallback branch is unreachable.
                let width = u32::try_from(w).unwrap_or(u32::MAX);
                used_width = used_width.saturating_add(width);
                bins.push(Bin {
                    cores: vec![core],
                    width,
                    height: h,
                });
            }
            // No candidate fits the remaining budget (every Pareto
            // front contains width 1, so this only happens when the
            // budget is fully consumed): stack on the lowest rail.
            None => fold_onto_lowest(&mut bins, &mut used_width, table, core),
        }
    }
    (bins, used_width)
}

/// Distributes leftover wires one at a time to whichever rail widening
/// most reduces the makespan; stops at the first non-improving step.
fn widen(
    ctx: &BackendCtx<'_>,
    table: &TimeTable,
    tracker: &BudgetTracker,
    bins: &mut [Bin],
    used_width: &mut u32,
) {
    while *used_width < ctx.max_width {
        if !tracker.tick() {
            return;
        }
        let current = makespan(bins);
        let mut best: Option<(u64, u64, usize)> = None;
        for (i, bin) in bins.iter().enumerate() {
            let wider = bin.width.saturating_add(1);
            let h: u64 = bin
                .cores
                .iter()
                .map(|&c| table.intest(c, wider))
                .fold(0u64, u64::saturating_add);
            let others = bins
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, b)| b.height)
                .max()
                .unwrap_or(0);
            let candidate = (others.max(h), h, i);
            if best.map_or(true, |b| candidate < b) {
                best = Some(candidate);
            }
        }
        match best {
            Some((new_makespan, h, i)) if new_makespan < current => {
                bins[i].width = bins[i].width.saturating_add(1);
                bins[i].height = h;
                *used_width = used_width.saturating_add(1);
            }
            _ => return,
        }
    }
}

impl TamBackend for RectPackBackend {
    fn name(&self) -> &'static str {
        "rect-pack"
    }

    fn summary(&self) -> &'static str {
        "Pareto rectangle packing with the diagonal-length best-fit heuristic"
    }

    fn capabilities(&self) -> BackendCaps {
        BackendCaps {
            multi_start: false,
            probe_parallel: false,
            objective_aware: false,
        }
    }

    fn optimize(&self, ctx: &BackendCtx<'_>) -> Result<OptimizedArchitecture, TamError> {
        let mut evaluator = Evaluator::new(ctx.soc, ctx.max_width, ctx.groups.to_vec())?;
        evaluator.attach_metrics(ctx.run.pool.metrics());
        if let Some(cache) = &ctx.run.eval_cache {
            evaluator.attach_cache(cache);
        }
        let tracker = BudgetTracker::start_in(&ctx.run);
        fault::hit("tam.rectpack");

        if let Some(p) = &ctx.run.progress {
            p.set_phase("rect-pack place");
        }
        let table = evaluator.time_table();
        let (mut bins, mut used_width) = place(ctx, table, &tracker);
        if let Some(p) = &ctx.run.progress {
            p.set_phase("rect-pack widen");
        }
        widen(ctx, table, &tracker, &mut bins, &mut used_width);

        let rails = bins
            .into_iter()
            .map(|bin| TestRail::new(bin.cores, bin.width))
            .collect::<Result<Vec<_>, _>>()?;
        let architecture = TestRailArchitecture::new(ctx.soc, rails)?;
        architecture.check_width(ctx.max_width)?;
        let evaluation = (*evaluator.evaluate_cached(architecture.rails())).clone();
        if let Some(p) = &ctx.run.progress {
            p.record_best(evaluation.t_total());
        }
        Ok(OptimizedArchitecture::from_parts(
            architecture,
            evaluation,
            tracker.exhausted(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::time::Duration;

    use soctam_exec::{CancelToken, Progress};
    use soctam_model::Benchmark;

    use super::super::{backend_for, BackendKind};
    use super::*;
    use crate::{OptimizerBudget, SiGroupSpec};

    fn ctx_groups(soc: &soctam_model::Soc) -> Vec<SiGroupSpec> {
        vec![SiGroupSpec::new(soc.core_ids().collect(), 400)]
    }

    #[test]
    fn packs_every_core_exactly_once() {
        let soc = Benchmark::D695.soc();
        let groups = ctx_groups(&soc);
        let result = backend_for(BackendKind::RectPack)
            .optimize(&BackendCtx::new(&soc, 16, &groups))
            .expect("packs");
        // TestRailArchitecture::new already enforces the every-core-
        // exactly-once invariant; re-validating is belt and braces.
        let rails = result.architecture().rails().to_vec();
        assert!(TestRailArchitecture::new(&soc, rails).is_ok());
        assert!(result.architecture().total_width() <= 16);
        assert!(!result.degraded());
    }

    #[test]
    fn evaluation_is_the_referees_verdict() {
        let soc = Benchmark::D695.soc();
        let groups = ctx_groups(&soc);
        let result = backend_for(BackendKind::RectPack)
            .optimize(&BackendCtx::new(&soc, 16, &groups))
            .expect("packs");
        let referee = Evaluator::new(&soc, 16, groups.clone()).expect("evaluator");
        assert_eq!(
            &referee.evaluate(result.architecture()),
            result.evaluation()
        );
    }

    #[test]
    fn tight_iteration_budget_degrades_to_a_valid_result() {
        let soc = Benchmark::D695.soc();
        let groups = ctx_groups(&soc);
        let mut ctx = BackendCtx::new(&soc, 16, &groups);
        ctx.run.budget = OptimizerBudget::default().with_max_iterations(2);
        let result = backend_for(BackendKind::RectPack)
            .optimize(&ctx)
            .expect("degrades, never errors");
        assert!(result.degraded());
        assert!(result.architecture().check_width(16).is_ok());
    }

    #[test]
    fn zero_iteration_budget_still_yields_a_feasible_architecture() {
        let soc = Benchmark::P34392.soc();
        let groups = ctx_groups(&soc);
        let mut ctx = BackendCtx::new(&soc, 8, &groups);
        ctx.run.budget = OptimizerBudget::default().with_max_iterations(0);
        let result = backend_for(BackendKind::RectPack)
            .optimize(&ctx)
            .expect("fallback fill");
        assert!(result.degraded());
        assert!(result.architecture().check_width(8).is_ok());
    }

    #[test]
    fn pre_cancelled_run_degrades_like_an_exhausted_budget() {
        let soc = Benchmark::D695.soc();
        let groups = ctx_groups(&soc);
        let token = CancelToken::new();
        token.cancel();
        let mut ctx = BackendCtx::new(&soc, 16, &groups);
        ctx.run.cancel = Some(token);
        let result = backend_for(BackendKind::RectPack)
            .optimize(&ctx)
            .expect("degrades");
        assert!(result.degraded());
        assert!(result.architecture().check_width(16).is_ok());
    }

    #[test]
    fn expired_deadline_degrades_to_best_so_far() {
        let soc = Benchmark::D695.soc();
        let groups = ctx_groups(&soc);
        let mut ctx = BackendCtx::new(&soc, 16, &groups);
        ctx.run.budget = OptimizerBudget::default().with_deadline(Duration::ZERO);
        let result = backend_for(BackendKind::RectPack)
            .optimize(&ctx)
            .expect("degrades");
        assert!(result.degraded());
    }

    #[test]
    fn progress_reports_phases_iterations_and_best() {
        let soc = Benchmark::D695.soc();
        let groups = ctx_groups(&soc);
        let progress = Arc::new(Progress::new());
        let mut ctx = BackendCtx::new(&soc, 16, &groups);
        ctx.run.progress = Some(Arc::clone(&progress));
        let result = backend_for(BackendKind::RectPack)
            .optimize(&ctx)
            .expect("packs");
        assert!(progress.iterations() > 0);
        assert!(progress.probed() > 0);
        assert!(progress.phase().starts_with("rect-pack"));
        assert_eq!(progress.best(), Some(result.evaluation().t_total()));
    }

    #[test]
    fn output_is_independent_of_the_pool_size() {
        let soc = Benchmark::P34392.soc();
        let groups = ctx_groups(&soc);
        let reference = backend_for(BackendKind::RectPack)
            .optimize(&BackendCtx::new(&soc, 24, &groups))
            .expect("serial run");
        for jobs in [2usize, 8] {
            let mut ctx = BackendCtx::new(&soc, 24, &groups);
            ctx.run.pool = soctam_exec::Pool::new(jobs);
            ctx.run.probe_pool = Some(soctam_exec::Pool::new(jobs));
            let run = backend_for(BackendKind::RectPack)
                .optimize(&ctx)
                .expect("pooled run");
            assert_eq!(reference, run, "jobs={jobs}");
        }
    }
}
