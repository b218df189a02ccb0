//! `TAM_Optimization` — Algorithm 2 of the paper (Fig. 6), plus the
//! TR-Architect baseline as the [`Objective::InTestOnly`] special case.

use std::collections::BTreeSet;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use soctam_exec::{fault, fx_fingerprint128, FaultError, Pool};
use soctam_model::{CoreId, Soc};

use crate::budget::BudgetTracker;
use crate::{
    Evaluation, Evaluator, RailEdit, RailEval, RunCtx, SiGroupSpec, SwapState, TamError, TestRail,
    TestRailArchitecture,
};

/// What the optimizer minimizes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Objective {
    /// `T_soc = T_soc^in + T_soc^si` — the paper's `TAM_Optimization`.
    #[default]
    Total,
    /// `T_soc^in` only — the TR-Architect baseline. The SI tests are still
    /// *scheduled* on the resulting architecture when reporting the final
    /// evaluation (this is exactly how the paper computes `T_[8]`), they
    /// just do not steer the optimization.
    InTestOnly,
}

impl Objective {
    /// The objective value of an architecture with makespans `t_in`
    /// and `t_si`: the one fold every optimizer cost goes through.
    fn cost(self, t_in: u64, t_si: u64) -> u64 {
        match self {
            Objective::Total => t_in.saturating_add(t_si),
            Objective::InTestOnly => t_in,
        }
    }
}

/// The result of a TAM optimization run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OptimizedArchitecture {
    architecture: TestRailArchitecture,
    evaluation: Evaluation,
    degraded: bool,
}

impl OptimizedArchitecture {
    /// The optimized TestRail architecture.
    pub fn architecture(&self) -> &TestRailArchitecture {
        &self.architecture
    }

    /// The full timing evaluation (always includes the SI schedule,
    /// regardless of the optimization objective).
    pub fn evaluation(&self) -> &Evaluation {
        &self.evaluation
    }

    /// True when the run hit its [`RunCtx::budget`] and returned the
    /// best-so-far architecture instead of a fully converged one. The
    /// architecture is still valid and feasible.
    pub fn degraded(&self) -> bool {
        self.degraded
    }
}

/// SI-aware TestRail architecture optimizer (Algorithm 2).
///
/// See the crate docs for an end-to-end example.
#[derive(Debug)]
pub struct TamOptimizer<'a> {
    evaluator: Evaluator<'a>,
    max_width: u32,
    objective: Objective,
    run: RunCtx,
    /// `run.probe_pool`, or a private serial pool when that is unset.
    probe_pool: Pool,
}

impl<'a> TamOptimizer<'a> {
    /// Creates an optimizer for `soc` with a TAM wire budget of
    /// `max_width` and the given compacted SI test groups.
    ///
    /// # Errors
    ///
    /// [`TamError::ZeroWidthBudget`] when `max_width == 0`;
    /// [`TamError::CoreOutOfRange`] for groups referencing unknown cores.
    pub fn new(soc: &'a Soc, max_width: u32, groups: Vec<SiGroupSpec>) -> Result<Self, TamError> {
        let run = RunCtx::default();
        let mut evaluator = Evaluator::new(soc, max_width, groups)?;
        evaluator.attach_metrics(run.pool.metrics());
        Ok(TamOptimizer {
            evaluator,
            max_width,
            objective: Objective::Total,
            run,
            probe_pool: Pool::serial(),
        })
    }

    /// Sets the optimization objective (builder style).
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Runs on the resources of `run` (builder style). Restarts run on
    /// `run.pool`, whose metrics count cache hits, misses and probes;
    /// the four move loops probe candidates on `run.probe_pool` and
    /// reduce them in candidate order, so the result is bit-identical
    /// for every pool size, and with or without the shared
    /// `run.eval_cache`. Once `run.budget` or `run.cancel` trips, the
    /// run returns its best valid architecture so far, flagged
    /// [`OptimizedArchitecture::degraded`] — never an error.
    pub fn run(mut self, run: RunCtx) -> Self {
        // Metrics first: attaching them clears a private cache but
        // leaves a shared store warm.
        self.evaluator.attach_metrics(run.pool.metrics());
        if let Some(cache) = &run.eval_cache {
            self.evaluator.attach_cache(cache);
        }
        self.probe_pool = run.probe_pool.clone().unwrap_or_else(Pool::serial);
        self.run = run;
        self
    }

    /// The evaluator (exposes the SOC, groups and time table).
    pub fn evaluator(&self) -> &Evaluator<'a> {
        &self.evaluator
    }

    fn soc(&self) -> &Soc {
        self.evaluator.soc()
    }

    // Invariant: every rails vector the optimizer builds keeps each core on
    // exactly one rail (checked in debug builds), so candidates evaluate
    // directly — no architecture construction per candidate.
    //
    // Speculative candidates are never evaluated here: the move loops
    // price them as edits on a `SwapState`, and only incumbents go
    // through the architecture-level cache.
    fn eval(&self, rails: &[TestRail]) -> Arc<Evaluation> {
        debug_assert!(TestRailArchitecture::new(self.soc(), rails.to_vec()).is_ok());
        self.evaluator.evaluate_cached(rails)
    }

    fn cost_of(&self, eval: &Evaluation) -> u64 {
        self.objective.cost(eval.t_in, eval.t_si)
    }

    fn cost(&self, rails: &[TestRail]) -> u64 {
        self.cost_of(&self.eval(rails))
    }

    /// Publishes the current optimizer phase to the progress sink.
    fn set_phase(&self, phase: &str) {
        if let Some(p) = &self.run.progress {
            p.set_phase(phase);
        }
    }

    /// Publishes a best-so-far objective value to the progress sink.
    /// Only the total objective is published — the InTest-only
    /// portfolio leg's costs are not `T_soc` values and would read as
    /// spurious improvements.
    fn publish_best(&self, cost: u64) {
        if self.objective == Objective::Total {
            if let Some(p) = &self.run.progress {
                p.record_best(cost);
            }
        }
    }

    /// Speculatively evaluates one batch of move candidates, returning
    /// per-candidate results in candidate order so callers can reduce
    /// deterministically (first minimum wins) regardless of how the
    /// probes were scheduled.
    ///
    /// Probes run on the probe pool, except `nested` batches (probes
    /// issued from inside another speculative candidate, like the
    /// mergeTAMs wire redistribution), which stay on the calling worker.
    ///
    /// A probe yields `None` — and counts as wasted — instead of a
    /// result when the budget tripped before it ran, or when the
    /// `tam.probe` failpoint fired (`Err` *or* panic: a panicking probe
    /// is caught and poisoned, proving one lost speculation cannot
    /// change what the step selects — dropping a non-winning candidate
    /// never changes the first minimum, and a lost winner degrades to
    /// the serial no-move outcome). Panics from any other site unwind
    /// normally.
    fn probe<T, R, F>(
        &self,
        tracker: &BudgetTracker,
        nested: bool,
        candidates: &[T],
        f: F,
    ) -> Vec<Option<R>>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        if candidates.is_empty() {
            return Vec::new();
        }
        let metrics = self.run.pool.metrics();
        metrics.count_probe_batch();
        metrics.add_speculative_probes(candidates.len() as u64);
        if let Some(p) = &self.run.progress {
            p.add_probed(candidates.len() as u64);
        }
        let task = |cand: &T| -> Option<R> {
            if !tracker.within() {
                metrics.count_probe_wasted();
                return None;
            }
            if !fault::any_active() {
                // No failpoint configured anywhere: `tam.probe` cannot
                // fire, and a panic from `f` itself would be resumed
                // verbatim below — so skip the unwind guard and its
                // inlining barrier on the hot path.
                return Some(f(cand));
            }
            match panic::catch_unwind(AssertUnwindSafe(|| {
                fault::check("tam.probe").map(|()| f(cand))
            })) {
                Ok(Ok(result)) => Some(result),
                Ok(Err(_)) => {
                    metrics.count_probe_wasted();
                    None
                }
                Err(payload) => match payload.downcast::<FaultError>() {
                    Ok(fault) if fault.site() == "tam.probe" => {
                        metrics.count_probe_wasted();
                        None
                    }
                    Ok(fault) => panic::resume_unwind(fault),
                    Err(payload) => panic::resume_unwind(payload),
                },
            }
        };
        if nested {
            candidates.iter().map(task).collect()
        } else {
            self.probe_pool.par_map(candidates, task)
        }
    }

    /// The rails whose time bounds the objective: all rails achieving
    /// `T_soc^in`, plus (for the total objective) the bottleneck rail of
    /// every SI group. Free wires go only to these (Section 4.2).
    fn bottleneck_rails(&self, eval: &Evaluation) -> Vec<usize> {
        let mut set = BTreeSet::new();
        for (i, &t) in eval.rail_time_in.iter().enumerate() {
            if t == eval.t_in {
                set.insert(i);
            }
        }
        if self.objective == Objective::Total {
            for group in &eval.group_times {
                if group.bottleneck_rail != usize::MAX {
                    set.insert(group.bottleneck_rail);
                }
            }
        }
        set.into_iter().collect()
    }

    /// `distributeFreeWires`: assigns `wires` extra TAM wires, favouring
    /// bottleneck rails (Section 4.2).
    ///
    /// A rail's time is a non-increasing *staircase* in width: adding one
    /// wire frequently changes nothing (the longest wrapper chain is fixed
    /// by a scan-chain plateau), so a one-wire-at-a-time greedy stalls and
    /// dumps the whole budget on one rail. Instead each step jumps a rail
    /// directly to its next Pareto width — the smallest width at which its
    /// utilized time actually drops — and picks the jump that minimizes
    /// `(T_soc, Σ_r time_used(r), wires spent)`. Wires that cannot improve
    /// any rail are spread one per widest-gap rail at the end.
    ///
    /// `speculative` marks calls made while costing a *candidate* move
    /// (the mergeTAMs sweep): those never tick the iteration budget —
    /// candidate probes racing the shared counter from pool workers
    /// would make iteration-budgeted runs thread-count-dependent. Only
    /// committed, serial wire-distribution steps count as iterations.
    ///
    /// Every jump is probed and accepted as one width edit on a
    /// [`SwapState`] seeded from the cached evaluation of `rails`.
    // Invariant: widths only ever grow here, so `with_width` cannot see 0.
    #[allow(clippy::expect_used)]
    fn distribute_free_wires(
        &self,
        mut rails: Vec<TestRail>,
        wires: u32,
        tracker: &BudgetTracker,
        speculative: bool,
        staircases: Option<&[Arc<Vec<u64>>]>,
    ) -> Vec<TestRail> {
        let mut st = self.evaluator.swap_state(&self.eval(&rails));
        let mut remaining = wires;
        // Core sets never change below — only widths do — so every
        // iteration reads the same memoized staircases; probe them once
        // — or reuse the caller's, aligned with `rails`: merge probing
        // passes its precomputed per-partner set so the thousands of
        // nested speculative calls skip the per-rail cache fetches.
        let built: Vec<Arc<Vec<u64>>>;
        let staircases: &[Arc<Vec<u64>>] = match staircases {
            Some(shared) => {
                debug_assert_eq!(shared.len(), rails.len());
                shared
            }
            None => {
                built = rails
                    .iter()
                    .map(|r| self.evaluator.rail_used_staircase(r.cores()))
                    .collect();
                &built
            }
        };
        // Dense `(rail, width) -> component` memo for the whole call:
        // candidate widths repeat heavily across iterations, and
        // prefetching during the serial enumeration keeps every cache
        // lookup (hash + shard lock + `Arc` clone) out of the probe
        // batch, where it would otherwise dominate the probe cost.
        // Flat and sized by the wire budget — every probed width
        // satisfies `w - initial_width(i) <= wires` — so the nested
        // speculative calls (small `wires`, many invocations) allocate
        // a few hundred bytes, not a rails x max_width matrix.
        let init_widths: Vec<u32> = rails.iter().map(TestRail::width).collect();
        let stride = wires as usize + 1;
        let mut components: Vec<Option<Arc<RailEval>>> = vec![None; rails.len() * stride];
        let slot_of = |i: usize, w: u32| i * stride + (w - init_widths[i]) as usize;
        // Per-rail strict drop points `(d, neg_rate)` at the rail's
        // current width, ascending in `d`. The walk is prefix-stable, so
        // lists are built once per rail and rebuilt only when that
        // rail's width changes, not on every accepted step.
        let mut per_rail: Vec<Vec<(u32, u128)>> = rails
            .iter()
            .zip(staircases)
            .map(|(rail, staircase)| staircase_drops(staircase, rail.width(), wires).collect())
            .collect();
        let mut candidates: Vec<(usize, u32, u128)> = Vec::new();
        while remaining > 0
            && if speculative {
                tracker.within()
            } else {
                tracker.tick()
            }
        {
            // Water-filling over the staircases: among every strict drop
            // point of every rail (not just the nearest one — a tiny SI
            // gain at +1 must not mask a large InTest cliff at +6), pick
            // the steepest descent: lowest resulting cost first, then the
            // highest time reduction *per wire spent*, then fewest wires.
            // The `(rail, jump)` candidates are enumerated serially,
            // probed as one speculative batch, and reduced in
            // enumeration order, so the first-best tie-break is
            // identical at every probe-pool size.
            candidates.clear();
            for (i, drops) in per_rail.iter().enumerate() {
                let width = rails[i].width();
                for &(d, neg_rate) in drops {
                    if d > remaining {
                        break;
                    }
                    let slot = slot_of(i, width + d);
                    if components[slot].is_none() {
                        components[slot] =
                            Some(self.evaluator.component(width + d, rails[i].cores()));
                    }
                    candidates.push((i, d, neg_rate));
                }
            }
            // Each candidate differs from the state only at rail `i`'s
            // width: one edit, priced through the top-two fast path.
            let edit = |i: usize, d: u32| -> RailEdit<'_> {
                let slot = slot_of(i, rails[i].width().saturating_add(d));
                let comp = components[slot].as_ref();
                (i, Some(comp.expect("prefetched during enumeration")))
            };
            let costed = self.probe(tracker, speculative, &candidates, |&(i, d, _)| {
                let cost = self.evaluator.state_cost(&st, &[edit(i, d)]);
                self.objective.cost(cost.t_in, cost.t_si)
            });
            let mut best: Option<(usize, u32)> = None;
            let mut best_key: Option<(u64, u128, u32)> = None;
            for (&(i, d, neg_rate), cost) in candidates.iter().zip(costed) {
                let Some(cost) = cost else { continue };
                let key = (cost, neg_rate, d);
                if best_key.map_or(true, |b| key < b) {
                    best_key = Some(key);
                    best = Some((i, d));
                }
            }
            // No affordable jump improves any rail.
            let Some((i, d)) = best else { break };
            self.evaluator.state_apply(&mut st, &[edit(i, d)]);
            rails[i] = rails[i]
                .with_width(rails[i].width().saturating_add(d))
                .expect("width > 0");
            remaining -= d;
            per_rail[i].clear();
            per_rail[i].extend(staircase_drops(&staircases[i], rails[i].width(), remaining));
        }
        // Leftover wires that cannot improve anything on their own: park
        // them on bottleneck rails (they may enable future merges). Purely
        // cosmetic for feasibility, so it is skipped once the budget trips.
        while remaining > 0 && tracker.within() {
            let target = self
                .bottleneck_rails(&self.eval(&rails))
                .into_iter()
                .chain(0..rails.len())
                .find(|&i| rails[i].width() < self.max_width);
            let Some(i) = target else { break };
            rails[i] = rails[i]
                .with_width(rails[i].width().saturating_add(1))
                .expect("width > 0");
            remaining -= 1;
        }
        rails
    }

    /// `mergeTAMs`: merges `rails[r1]` with the partner and merged width
    /// that minimize the objective (redistributing freed wires), or keeps
    /// the architecture when no merge improves it. Returns the new rails
    /// and whether an improvement was found.
    // Invariant: merged widths are `max(w1, wi)..=w1+wi` of two rails whose
    // widths are >= 1, so `merged` cannot see a zero width.
    #[allow(clippy::expect_used)]
    fn merge_tams(
        &self,
        rails: Vec<TestRail>,
        r1: usize,
        tracker: &BudgetTracker,
    ) -> (Vec<TestRail>, bool) {
        fault::hit("tam.merge");
        if !tracker.within() {
            return (rails, false);
        }
        let current_eval = self.eval(&rails);
        let current = self.cost_of(&current_eval);
        // Every (partner, merged-width) candidate is independent:
        // probe them speculatively, then reduce sequentially in the
        // original visit order so the winning tie-break — first
        // strictly-better candidate — is identical for any pool size.
        let mut candidates: Vec<(usize, u32)> = Vec::new();
        for i in 0..rails.len() {
            if i == r1 {
                continue;
            }
            let w1 = rails[r1].width();
            let wi = rails[i].width();
            for w in w1.max(wi)..=(w1 + wi) {
                candidates.push((i, w));
            }
        }
        // Builds one merge candidate: survivors keep their original
        // order; the merged rail joins at the tail.
        let build = |i: usize, w: u32| -> Vec<TestRail> {
            let merged = rails[r1].merged(&rails[i], w).expect("merged width >= 1");
            let mut cand: Vec<TestRail> = Vec::with_capacity(rails.len() - 1);
            for (j, rail) in rails.iter().enumerate() {
                if j != r1 && j != i {
                    cand.push(rail.clone());
                }
            }
            cand.push(merged);
            cand
        };
        // Redistribution costs are memoized under a canonical
        // (rails, unordered pair, merged width, objective) key:
        // `merged` sorts its cores, so probing the pair from either
        // end builds the identical candidate. Probes return only the
        // cost; the winner's rail list is rebuilt once after the
        // reduction (deterministic: the redistribution is a pure
        // function of the candidate while the budget holds, and
        // budget ticks never advance inside a probe batch).
        let rails_fp = fx_fingerprint128(&rails);
        let tag = match self.objective {
            Objective::Total => 0u8,
            Objective::InTestOnly => 1u8,
        };
        // Every candidate for a given partner shares one core layout
        // (survivors unchanged, merged core set independent of `w`), so
        // fetch each rail staircase once here and hand the nested
        // redistributions a ready-made set instead of letting every
        // probe re-fetch all of them from the evaluator cache.
        let parent_stairs: Vec<Arc<Vec<u64>>> = rails
            .iter()
            .map(|r| self.evaluator.rail_used_staircase(r.cores()))
            .collect();
        let mut partner_stairs: Vec<Option<Vec<Arc<Vec<u64>>>>> = vec![None; rails.len()];
        // Per partner, the merged rail's memoized components at every
        // candidate width `max(w1, wi)..=w1 + wi` (redistribution can
        // only grow the merged rail within that same range), indexed by
        // `width - max(w1, wi)`.
        let mut partner_merged: Vec<Option<Vec<Arc<RailEval>>>> = vec![None; rails.len()];
        for &(i, _) in &candidates {
            if partner_stairs[i].is_some() {
                continue;
            }
            let w_lo = rails[r1].width().max(rails[i].width());
            let w_hi = rails[r1].width().saturating_add(rails[i].width());
            let merged = rails[r1]
                .merged(&rails[i], w_lo)
                .expect("merged width >= 1");
            let mut stairs: Vec<Arc<Vec<u64>>> = Vec::with_capacity(rails.len() - 1);
            for (j, s) in parent_stairs.iter().enumerate() {
                if j != r1 && j != i {
                    stairs.push(Arc::clone(s));
                }
            }
            stairs.push(self.evaluator.rail_used_staircase(merged.cores()));
            partner_stairs[i] = Some(stairs);
            // Widths never exceed the budget: the architecture always
            // holds `Σ widths <= max_width`, so `w1 + wi` is in range.
            partner_merged[i] = Some(
                (w_lo..=w_hi)
                    .map(|w| self.evaluator.component(w, merged.cores()))
                    .collect(),
            );
        }
        // Fused probing shares one parent state plus each survivor's
        // drop list and components, bounded by the largest leftover any
        // candidate can free. Probes apply the merge to a clone of the
        // state instead of materializing candidate evaluations, and the
        // nested redistribution runs cost-only.
        let parent_state = self.evaluator.swap_state(&current_eval);
        let l_max = candidates
            .iter()
            .map(|&(i, w)| rails[r1].width().saturating_add(rails[i].width()) - w)
            .max()
            .unwrap_or(0);
        let mut rail_drops: Vec<Vec<(u32, u128)>> = Vec::with_capacity(rails.len());
        let mut rail_comps: Vec<Vec<Arc<RailEval>>> = Vec::with_capacity(rails.len());
        for (j, rail) in rails.iter().enumerate() {
            let drops = target_drops(&parent_stairs[j], rail.width(), l_max);
            let comps = drops
                .iter()
                .map(|&(wt, _)| self.evaluator.component(wt, rail.cores()))
                .collect();
            rail_drops.push(drops);
            rail_comps.push(comps);
        }
        let costed = self.probe(tracker, false, &candidates, |&(i, w)| {
            let leftover = rails[r1].width().saturating_add(rails[i].width()) - w;
            // Admissible prune (Total objective only): groups sharing a
            // rail are serialized (SCH-V02), so `T_soc >= time_used(j)`
            // for every rail j of the final architecture, and the used
            // staircase is non-increasing in width — rail j ends at
            // width at most `w_j + leftover`, so its staircase value
            // there lower-bounds the candidate's cost no matter how the
            // freed wires are spread. A candidate whose bound already
            // meets the incumbent cost loses the `cost < current` gate
            // whatever its exact cost is, so `u64::MAX` stands in and
            // the reduction outcome is bit-identical — without paying
            // for the nested redistribution. The bound only involves
            // the candidate and `current`, so the prune is
            // deterministic at every pool size.
            if self.objective == Objective::Total {
                let stairs = partner_stairs[i]
                    .as_ref()
                    .expect("precomputed for every partner");
                let mut lb = 0u64;
                let mut k = 0usize;
                for (j, rail) in rails.iter().enumerate() {
                    if j == r1 || j == i {
                        continue;
                    }
                    let wj = rail.width().saturating_add(leftover).min(self.max_width);
                    lb = lb.max(stairs[k][(wj - 1) as usize]);
                    k += 1;
                }
                let wm = (w + leftover).min(self.max_width);
                lb = lb.max(stairs[k][(wm - 1) as usize]);
                if lb >= current {
                    return u64::MAX;
                }
            }
            let dist_fp = (leftover > 0)
                .then(|| fx_fingerprint128(&(rails_fp, r1.min(i), r1.max(i), w, tag)));
            if let Some(fp) = dist_fp {
                if let Some(cost) = self.evaluator.dist_cost_cached(fp) {
                    return cost;
                }
            }
            // Fused cost-only evaluation: edit a clone of the shared
            // parent state (the merged rail takes label r1, rail i
            // dies) and spend the freed wires with the same greedy the
            // committed path runs — every lookup below hits the
            // precomputed lists.
            let merged_comps = partner_merged[i].as_ref().expect("prefetched per partner");
            let w_lo = rails[r1].width().max(rails[i].width());
            let mut st = parent_state.clone();
            let merged = &merged_comps[(w - w_lo) as usize];
            self.evaluator
                .state_apply(&mut st, &[(r1, Some(merged)), (i, None)]);
            if leftover > 0 {
                let merged_stairs = partner_stairs[i]
                    .as_ref()
                    .expect("precomputed for every partner")
                    .last()
                    .expect("stairs hold at least the merged rail");
                self.fused_redistribute(
                    &mut st,
                    tracker,
                    r1,
                    i,
                    leftover,
                    &parent_stairs,
                    &rail_drops,
                    &rail_comps,
                    merged_comps,
                    merged_stairs,
                    w_lo,
                );
            }
            let cost = self.objective.cost(st.t_in(), st.t_si());
            if let Some(fp) = dist_fp {
                if tracker.within() {
                    self.evaluator.store_dist_cost(fp, cost);
                }
            }
            cost
        });
        let mut best: Option<(usize, u64)> = None;
        for (idx, probed) in costed.into_iter().enumerate() {
            // Budget-tripped or faulted probes are poisoned to `None`;
            // skipping them is equivalent to the old explicit
            // `u64::MAX` poison because the `cost < current` gate below
            // rejected those candidates anyway.
            let Some(cost) = probed else { continue };
            if best.map_or(true, |(_, b)| cost < b) {
                best = Some((idx, cost));
            }
        }
        match best {
            Some((idx, cost)) if cost < current => {
                let (i, w) = candidates[idx];
                let mut cand = build(i, w);
                let leftover = rails[r1].width().saturating_add(rails[i].width()) - w;
                if leftover > 0 {
                    let stairs = partner_stairs[i].as_deref();
                    cand = self.distribute_free_wires(cand, leftover, tracker, true, stairs);
                }
                (cand, true)
            }
            _ => (rails, false),
        }
    }

    /// The cost-only twin of the nested
    /// [`TamOptimizer::distribute_free_wires`] call a merge probe used
    /// to make: spends `leftover` freed wires on the fused state `st`
    /// (merged rail labelled `r1`, rail `dead` removed), reproducing
    /// the committed redistribution's candidate enumeration order,
    /// selection key, and budget semantics exactly — so the final
    /// `(T_soc^in, T_soc^si)` is bit-identical to the cost of the
    /// materialized redistribution.
    ///
    /// Candidate order: the committed path lists survivors in their
    /// original order followed by the merged rail (appended last); here
    /// survivors keep their parent labels (ascending, skipping `r1` and
    /// `dead`) and the merged rail — labelled `r1` — closes the sweep:
    /// the same order under the relabeling, so the first-best reduction
    /// picks the same move.
    ///
    /// The committed path's trailing parking pass (leftover wires no
    /// strict drop can absorb) is skipped: parking only runs when no
    /// rail has a strict drop within the remaining budget, so each +1
    /// parking step leaves that rail's `time_used` flat — and since the
    /// InTest and SI staircases are individually non-increasing, a flat
    /// sum pins both addends and every group column, and therefore
    /// every makespan. The committed rails still park (feasibility: all
    /// wires must be placed); only the probe's cost skips the
    /// cost-invariant tail.
    #[allow(clippy::expect_used, clippy::too_many_arguments)]
    fn fused_redistribute(
        &self,
        st: &mut SwapState,
        tracker: &BudgetTracker,
        r1: usize,
        dead: usize,
        leftover: u32,
        parent_stairs: &[Arc<Vec<u64>>],
        rail_drops: &[Vec<(u32, u128)>],
        rail_comps: &[Vec<Arc<RailEval>>],
        merged_comps: &[Arc<RailEval>],
        merged_stairs: &Arc<Vec<u64>>,
        w_lo: u32,
    ) {
        let mut remaining = leftover;
        // Rails that accepted wires get a rebuilt drop list relative to
        // their new width (the committed path rebuilds exactly the
        // accepted rail's list per step); everyone else reads the
        // shared parent list, truncated to the live budget below.
        let mut local_drops: Vec<Option<Vec<(u32, u128)>>> = vec![None; rail_drops.len()];
        local_drops[r1] = Some(target_drops(
            merged_stairs,
            st.component(r1).expect("merged rail is live").width,
            leftover,
        ));
        let comp_at = |j: usize, wt: u32| -> &Arc<RailEval> {
            if j == r1 {
                &merged_comps[(wt - w_lo) as usize]
            } else {
                let k = rail_drops[j]
                    .iter()
                    .position(|&(a, _)| a == wt)
                    .expect("rebuilt lists target prefetched widths");
                &rail_comps[j][k]
            }
        };
        let mut cands: Vec<(usize, u32, u32, u128)> = Vec::new();
        while remaining > 0 && tracker.within() {
            cands.clear();
            for j in (0..rail_drops.len())
                .filter(|&j| j != r1 && j != dead)
                .chain([r1])
            {
                let cur = st.component(j).expect("live rail").width;
                let list = local_drops[j].as_deref().unwrap_or(&rail_drops[j]);
                for &(wt, neg_rate) in list {
                    let d = wt - cur;
                    if d > remaining {
                        break;
                    }
                    cands.push((j, wt, d, neg_rate));
                }
            }
            let costed = self.probe(tracker, true, &cands, |&(j, wt, _, _)| {
                let cost = self.evaluator.state_cost(st, &[(j, Some(comp_at(j, wt)))]);
                self.objective.cost(cost.t_in, cost.t_si)
            });
            let mut best: Option<(usize, u32, u32)> = None;
            let mut best_key: Option<(u64, u128, u32)> = None;
            for (&(j, wt, d, neg_rate), cost) in cands.iter().zip(costed) {
                let Some(cost) = cost else { continue };
                let key = (cost, neg_rate, d);
                if best_key.map_or(true, |b| key < b) {
                    best_key = Some(key);
                    best = Some((j, wt, d));
                }
            }
            match best {
                Some((j, wt, d)) => {
                    self.evaluator.state_apply(st, &[(j, Some(comp_at(j, wt)))]);
                    remaining -= d;
                    let stairs = if j == r1 {
                        merged_stairs
                    } else {
                        &parent_stairs[j]
                    };
                    local_drops[j] = Some(target_drops(stairs, wt, remaining));
                }
                None => break,
            }
        }
    }

    /// Wire rebalancing (a polish pass beyond the paper): funds a Pareto
    /// jump of a slow rail by taxing one wire at a time from the donors
    /// whose *marginal* slowdown is smallest, accepting the move only when
    /// `(T_soc, Σ time_used)` strictly improves. This recovers allocations
    /// the one-directional `distributeFreeWires` cannot reach (e.g. a
    /// starved many-scan-chain core behind a long width plateau).
    // Invariant: donors keep width >= 1 (filtered on `width() > 1`) and the
    // funded rail only grows, so `with_width` cannot see 0.
    #[allow(clippy::expect_used)]
    fn rebalance_wires(&self, mut rails: Vec<TestRail>, tracker: &BudgetTracker) -> Vec<TestRail> {
        for _ in 0..1_000 {
            if !tracker.tick() {
                break;
            }
            let eval = self.eval(&rails);
            let key = (self.cost_of(&eval), eval.rail_used_sum());
            self.publish_best(key.0);
            let st = self.evaluator.swap_state(&eval);
            // All donor selections read the same memoized staircases.
            let staircases: Vec<Arc<Vec<u64>>> = rails
                .iter()
                .map(|r| self.evaluator.rail_used_staircase(r.cores()))
                .collect();
            // Enumerate the (funded rail, jump) candidates serially,
            // probe them as one speculative batch, and reduce in
            // enumeration order (first strict improvement wins).
            let mut candidates: Vec<(usize, u32)> = Vec::new();
            for b in 0..rails.len() {
                let donor_budget: u32 =
                    rails.iter().map(|r| r.width() - 1).sum::<u32>() - (rails[b].width() - 1);
                for (delta, _) in staircase_drops(&staircases[b], rails[b].width(), donor_budget) {
                    candidates.push((b, delta));
                }
            }
            let costed = self.probe(tracker, false, &candidates, |&(b, delta)| {
                // Collect `delta` wires, one at a time, from the donors
                // whose marginal slowdown for giving up a wire is
                // smallest (zero on a width plateau). The greedy donor
                // walk is a pure function of the current rails, so the
                // probe is deterministic wherever it runs.
                let mut widths: Vec<u32> = rails.iter().map(TestRail::width).collect();
                let mut funded = 0;
                while funded < delta {
                    let donor = (0..widths.len())
                        .filter(|&o| o != b && widths[o] > 1)
                        .min_by_key(|&o| {
                            let at = |w: u32| staircases[o][(w - 1) as usize];
                            at(widths[o] - 1) - at(widths[o])
                        });
                    let Some(o) = donor else { break };
                    widths[o] -= 1;
                    funded += 1;
                }
                if funded < delta {
                    return None; // not enough donor wires
                }
                widths[b] = widths[b].saturating_add(delta);
                // One width edit per rail the step touched.
                let comps: Vec<(usize, Arc<RailEval>)> = (0..rails.len())
                    .filter(|&o| widths[o] != rails[o].width())
                    .map(|o| (o, self.evaluator.component(widths[o], rails[o].cores())))
                    .collect();
                let edits: Vec<RailEdit<'_>> = comps.iter().map(|(o, c)| (*o, Some(c))).collect();
                let cost = self.evaluator.state_cost(&st, &edits);
                let cand_key = (
                    self.objective.cost(cost.t_in, cost.t_si),
                    cost.rail_used_sum,
                );
                Some((widths, cand_key))
            });
            let mut best: Option<(Vec<u32>, (u64, u64))> = None;
            for probed in costed {
                let Some(Some((widths, cand_key))) = probed else {
                    continue;
                };
                if cand_key < key && best.as_ref().map_or(true, |&(_, k)| cand_key < k) {
                    best = Some((widths, cand_key));
                }
            }
            let Some((widths, _)) = best else { break };
            for (rail, w) in rails.iter_mut().zip(widths) {
                if rail.width() != w {
                    *rail = rail.with_width(w).expect("width >= 1");
                }
            }
        }
        rails
    }

    /// Sorts rails by `time_used` in non-increasing order (the ordering
    /// Algorithm 2 uses throughout).
    fn sort_by_time_used(&self, rails: &mut Vec<TestRail>) {
        let eval = self.eval(rails);
        let used = eval.rail_time_used();
        let mut order: Vec<usize> = (0..rails.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(used[i]));
        let mut sorted = Vec::with_capacity(rails.len());
        for &i in &order {
            sorted.push(rails[i].clone());
        }
        *rails = sorted;
    }

    /// `coreReshuffle`: repeatedly moves one core off a bottleneck rail to
    /// whichever other rail minimizes the objective, while it improves.
    // Invariant: the source rail keeps >= 1 core (guarded by the len() < 2
    // check) and widths are untouched, so rail construction cannot fail.
    #[allow(clippy::expect_used)]
    fn core_reshuffle(&self, mut rails: Vec<TestRail>, tracker: &BudgetTracker) -> Vec<TestRail> {
        loop {
            if !tracker.tick() {
                return rails;
            }
            let eval = self.eval(&rails);
            let current = self.cost_of(&eval);
            self.publish_best(current);
            let bottlenecks = self.bottleneck_rails(&eval);
            let st = self.evaluator.swap_state(&eval);
            // Enumerate the (source, core, target) moves serially, probe
            // them as one speculative batch, and reduce in enumeration
            // order (first lowest cost wins).
            let mut candidates: Vec<(usize, CoreId, usize)> = Vec::new();
            for &b in &bottlenecks {
                if rails[b].cores().len() < 2 {
                    continue;
                }
                for &core in rails[b].cores() {
                    for t in 0..rails.len() {
                        if t != b {
                            candidates.push((b, core, t));
                        }
                    }
                }
            }
            // Moving `core` from rail `b` to rail `t` rewrites exactly
            // those two rails: a two-edit probe on the state.
            let moved = |b: usize, core: CoreId, t: usize| -> (TestRail, TestRail) {
                let source = rails[b].cores().iter().copied().filter(|&c| c != core);
                let mut target = rails[t].cores().to_vec();
                target.push(core);
                (
                    TestRail::new(source.collect(), rails[b].width())
                        .expect("source keeps at least one core"),
                    TestRail::new(target, rails[t].width()).expect("target keeps its width"),
                )
            };
            let costed = self.probe(tracker, false, &candidates, |&(b, core, t)| {
                let (source, target) = moved(b, core, t);
                let source = self.evaluator.component(source.width(), source.cores());
                let target = self.evaluator.component(target.width(), target.cores());
                let cost = self
                    .evaluator
                    .state_cost(&st, &[(b, Some(&source)), (t, Some(&target))]);
                self.objective.cost(cost.t_in, cost.t_si)
            });
            let mut best: Option<(usize, u64)> = None;
            for (idx, probed) in costed.into_iter().enumerate() {
                let Some(cost) = probed else { continue };
                if best.map_or(true, |(_, c)| cost < c) {
                    best = Some((idx, cost));
                }
            }
            match best {
                Some((idx, cost)) if cost < current => {
                    let (b, core, t) = candidates[idx];
                    (rails[b], rails[t]) = moved(b, core, t);
                }
                _ => return rails,
            }
        }
    }

    /// Runs Algorithm 2 and returns the optimized architecture with its
    /// full evaluation.
    ///
    /// For the [`Objective::Total`] objective this runs a two-leg
    /// portfolio (beyond the paper): the SI-aware trajectory *and* the
    /// InTest-steered trajectory, judged on total time. The two greedy
    /// searches explore different basins and either can win; taking the
    /// better of the two on the true objective is strictly stronger than
    /// either alone.
    ///
    /// # Errors
    ///
    /// Currently infallible after construction; the signature matches the
    /// other fallible APIs. A tripped [`RunCtx::budget`] is *not* an
    /// error — the run returns its best-so-far architecture with
    /// [`OptimizedArchitecture::degraded`] set.
    pub fn optimize(&self) -> Result<OptimizedArchitecture, TamError> {
        let tracker = BudgetTracker::start_in(&self.run);
        let mut result = self.optimize_tracked(&tracker)?;
        result.degraded = tracker.exhausted();
        Ok(result)
    }

    fn optimize_tracked(&self, tracker: &BudgetTracker) -> Result<OptimizedArchitecture, TamError> {
        let primary = self.optimize_perturbed(0, tracker)?;
        // The secondary portfolio leg is pure polish; skip it once the
        // budget has tripped.
        if self.objective != Objective::Total || !tracker.within() {
            return Ok(primary);
        }
        // The secondary leg forks the primary's evaluator: same context
        // fingerprint, shared memo store — every rail component and
        // schedule the primary leg computed is already warm, and
        // objective-dependent cost entries cannot alias because their
        // fingerprints carry the objective.
        let alt = TamOptimizer {
            evaluator: self.evaluator.fork(),
            max_width: self.max_width,
            objective: Objective::InTestOnly,
            run: self.run.clone(),
            probe_pool: self.probe_pool.clone(),
        };
        let secondary = alt.optimize_perturbed(0, tracker)?;
        let winner = if secondary.evaluation().t_total() < primary.evaluation().t_total() {
            secondary
        } else {
            primary
        };
        self.publish_best(winner.evaluation().t_total());
        Ok(winner)
    }

    /// Multi-start optimization: runs Algorithm 2 from `restarts`
    /// deterministically perturbed start solutions (the base order plus
    /// `restarts − 1` shuffles) and keeps the best result. Ties in the
    /// greedy merge loops break differently per start order, which is
    /// often enough to escape a bad local minimum.
    ///
    /// # Errors
    ///
    /// Same contract as [`TamOptimizer::optimize`].
    ///
    /// # Example
    ///
    /// ```
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// use soctam_model::Benchmark;
    /// use soctam_tam::{SiGroupSpec, TamOptimizer};
    ///
    /// let soc = Benchmark::D695.soc();
    /// let groups = vec![SiGroupSpec::new(soc.core_ids().collect(), 100)];
    /// let optimizer = TamOptimizer::new(&soc, 16, groups)?;
    /// let single = optimizer.optimize()?;
    /// let multi = optimizer.optimize_multi(4)?;
    /// assert!(multi.evaluation().t_total() <= single.evaluation().t_total());
    /// # Ok(())
    /// # }
    /// ```
    pub fn optimize_multi(&self, restarts: u32) -> Result<OptimizedArchitecture, TamError> {
        // One tracker for the whole multi-start run: the budget bounds the
        // total work, not each restart individually.
        let tracker = BudgetTracker::start_in(&self.run);
        let mut best = self.optimize_tracked(&tracker)?;
        // Restarts are independent runs; farm them out and reduce in
        // perturbation order (ties keep the earlier start, exactly as
        // the serial loop did). Restarts dispatched after the budget trips
        // are skipped wholesale — the base run already produced a valid
        // architecture.
        let perturbations: Vec<u64> = (1..u64::from(restarts.max(1))).collect();
        // Restarts tick the shared iteration counter internally, so an
        // iteration-budgeted run must visit them serially — concurrent
        // restarts would race the counter and make the cut-off point
        // (and thus the result) depend on the pool size. Deadline-only
        // and unlimited budgets keep the parallel fan-out.
        let candidates: Vec<Result<Option<OptimizedArchitecture>, TamError>> =
            if self.run.budget.max_iterations.is_some() {
                perturbations
                    .iter()
                    .map(|&p| {
                        if !tracker.within() {
                            return Ok(None);
                        }
                        self.optimize_perturbed(p, &tracker).map(Some)
                    })
                    .collect()
            } else {
                self.run.pool.par_map(&perturbations, |&p| {
                    if !tracker.within() {
                        return Ok(None);
                    }
                    self.optimize_perturbed(p, &tracker).map(Some)
                })
            };
        for candidate in candidates {
            let Some(candidate) = candidate? else {
                continue;
            };
            if self.cost_of(candidate.evaluation()) < self.cost_of(best.evaluation()) {
                best = candidate;
            }
        }
        best.degraded = tracker.exhausted();
        Ok(best)
    }

    /// One Algorithm 2 run. `perturbation == 0` uses the paper's start
    /// solution (one one-wire rail per core, lines 1-16); other values
    /// start from a structurally different architecture (a deterministic
    /// round-robin packing into `2..` rails) so multi-start explores
    /// different basins.
    // Invariant: merged widths and `max_width` are >= 1 (checked at
    // construction), and core assignments stay consistent throughout.
    #[allow(clippy::expect_used)]
    fn optimize_perturbed(
        &self,
        perturbation: u64,
        tracker: &BudgetTracker,
    ) -> Result<OptimizedArchitecture, TamError> {
        let n = self.soc().num_cores();
        let w_max = self.max_width as usize;

        // --- Create a start solution (lines 1-16). ---
        let mut rails: Vec<TestRail>;
        if perturbation == 0 {
            rails = TestRailArchitecture::one_rail_per_core(self.soc())
                .rails()
                .to_vec();
            if w_max < n {
                for _ in 0..(n - w_max) {
                    // These merges are feasibility-mandatory (the wire
                    // budget is short), so they run even after the
                    // optimization budget trips — just without the cost
                    // evaluations: fold into the first rail instead.
                    let within = tracker.tick();
                    if within {
                        self.sort_by_time_used(&mut rails);
                    }
                    // Merge r_{Wmax+1} with the first-Wmax rail minimizing
                    // the objective.
                    let victim = rails.remove(w_max);
                    let i = if within {
                        let mut best: Option<(usize, u64)> = None;
                        for i in 0..w_max.min(rails.len()) {
                            let mut cand = rails.clone();
                            let w = cand[i].width().max(victim.width());
                            cand[i] = cand[i].merged(&victim, w).expect("width >= 1");
                            let cost = self.cost(&cand);
                            if best.map_or(true, |(_, b)| cost < b) {
                                best = Some((i, cost));
                            }
                        }
                        best.map_or(0, |(i, _)| i)
                    } else {
                        0
                    };
                    let w = rails[i].width().max(victim.width());
                    rails[i] = rails[i].merged(&victim, w).expect("width >= 1");
                }
            } else if n < w_max {
                rails =
                    // soctam-analyze: allow(ARITH-01) -- w_max - n counts TAM wires, bounded by the u32 max_width
                    self.distribute_free_wires(rails, (w_max - n) as u32, tracker, false, None);
            }
        } else {
            rails = self.packed_start(perturbation);
        }

        // --- Optimize bottom-up (lines 17-23): merge the least-used rail.
        self.set_phase("merge bottom-up");
        while rails.len() > 1 && tracker.tick() {
            let init = self.cost(&rails);
            self.publish_best(init);
            self.sort_by_time_used(&mut rails);
            let last = rails.len() - 1;
            let (new_rails, improved) = self.merge_tams(rails, last, tracker);
            rails = new_rails;
            if !improved || self.cost(&rails) == init {
                break;
            }
        }

        // --- Optimize top-down (lines 24-30): merge the most-used rail.
        self.set_phase("merge top-down");
        let mut skip: BTreeSet<u128> = BTreeSet::new();
        while rails.len() > 1 && tracker.tick() {
            let init = self.cost(&rails);
            self.publish_best(init);
            self.sort_by_time_used(&mut rails);
            let (new_rails, improved) = self.merge_tams(rails, 0, tracker);
            rails = new_rails;
            if !improved || self.cost(&rails) == init {
                skip.insert(rails_key(&rails, 0));
                break;
            }
        }

        // --- Merge the remaining rails (lines 31-36). ---
        self.set_phase("merge remaining");
        loop {
            if !tracker.tick() {
                break;
            }
            self.sort_by_time_used(&mut rails);
            let candidate = (0..rails.len()).find(|&i| !skip.contains(&rails_key(&rails, i)));
            let Some(r_star) = candidate else { break };
            if rails.len() < 2 {
                break;
            }
            let (new_rails, improved) = self.merge_tams(rails, r_star, tracker);
            rails = new_rails;
            if !improved {
                skip.insert(rails_key(&rails, r_star));
            }
        }

        // --- Reshuffle cores off bottleneck rails (line 37). ---
        self.set_phase("core reshuffle");
        rails = self.core_reshuffle(rails, tracker);

        // --- Wire rebalance polish (beyond the paper; see rebalance_wires).
        self.set_phase("wire rebalance");
        rails = self.rebalance_wires(rails, tracker);

        // Safety net beyond the paper: the trivial single-rail architecture
        // (every core daisy-chained on all W_max wires) is always feasible
        // and occasionally beats a stuck merge trajectory; never return
        // anything worse than it. Kept even under a tripped budget — it is
        // two cached evaluations and guards the degraded result's quality.
        let single = TestRailArchitecture::single_rail(self.soc(), self.max_width)
            .expect("max_width >= 1")
            .rails()
            .to_vec();
        if self.cost(&single) < self.cost(&rails) {
            rails = single;
        }

        let architecture = TestRailArchitecture::new(self.soc(), rails)
            .expect("optimizer maintains a consistent core assignment");
        debug_assert!(architecture.check_width(self.max_width).is_ok());
        let evaluation = (*self.evaluator.evaluate_cached(architecture.rails())).clone();
        self.publish_best(evaluation.t_total());
        Ok(OptimizedArchitecture {
            architecture,
            evaluation,
            degraded: tracker.exhausted(),
        })
    }

    /// An alternative start solution for multi-start runs: cores shuffled
    /// by `salt`, packed round-robin into `k` rails (with `k` varying per
    /// salt) and the width budget split evenly. Structurally different
    /// from the paper's start, so the merge loops explore another basin.
    // Invariant: round-robin packing into k <= n buckets leaves no bucket
    // empty, and the width is clamped to >= 1.
    #[allow(clippy::expect_used)]
    fn packed_start(&self, salt: u64) -> Vec<TestRail> {
        let n = self.soc().num_cores();
        let w_max = self.max_width;
        let max_rails = (w_max as usize).min(n);
        // k cycles through 2..=max_rails as the salt grows.
        let k = if max_rails <= 1 {
            1
        } else {
            2 + (salt as usize - 1) % (max_rails - 1)
        };

        let mut ids: Vec<CoreId> = self.soc().core_ids().collect();
        shuffle_cores(&mut ids, salt);

        let mut buckets: Vec<Vec<CoreId>> = vec![Vec::new(); k];
        for (i, core) in ids.into_iter().enumerate() {
            buckets[i % k].push(core);
        }
        // soctam-analyze: allow(ARITH-01) -- k is a rail count, bounded by the core count which fits u32
        let base = w_max / k as u32;
        // soctam-analyze: allow(ARITH-01) -- same bound as above; the remainder is below k
        let extra = (w_max % k as u32) as usize;
        buckets
            .into_iter()
            .enumerate()
            .map(|(i, cores)| {
                let width = base + u32::from(i < extra);
                TestRail::new(cores, width.max(1)).expect("bucket is non-empty")
            })
            .collect()
    }
}

/// Stable identity of a rail for the skip set: the fingerprint of its
/// (sorted) core list — no per-candidate `Vec<CoreId>` clone.
fn rails_key(rails: &[TestRail], i: usize) -> u128 {
    fx_fingerprint128(&rails[i].cores())
}

/// The strict drop points of a rail's `time_used` staircase
/// (`staircase[w - 1]` is the rail's `time_used` at width `w`, see
/// [`Evaluator::rail_used_staircase`]): every jump `d ≤ budget` (with
/// `width + d ≤ max_width`) at which the time falls below every smaller
/// width, ascending, paired with its rate key `neg_rate` — the time
/// gain per wire as a scaled fixed-point value, negated so that smaller
/// ranks better. The walk is prefix-stable (each verdict depends only
/// on earlier staircase entries), so the drops of a larger budget,
/// truncated to `d ≤ remaining`, are the drops of `remaining`.
fn staircase_drops(
    staircase: &[u64],
    width: u32,
    budget: u32,
) -> impl Iterator<Item = (u32, u128)> + '_ {
    let before = staircase[(width - 1) as usize];
    // soctam-analyze: allow(ARITH-01) -- the staircase has max_width entries, and max_width is u32
    let limit = budget.min((staircase.len() as u32).saturating_sub(width));
    let mut best = before;
    (1..=limit).filter_map(move |d| {
        let after = staircase[(width + d - 1) as usize];
        if after >= best {
            return None;
        }
        best = after;
        let neg_rate = u128::MAX - (u128::from(before - after) << 32) / u128::from(d);
        Some((d, neg_rate))
    })
}

/// [`staircase_drops`] in the absolute-width form the fused merge
/// probes share across candidates: `(target width, neg_rate)`. Because
/// every later strict drop is also a strict drop from any drop point in
/// between, a list rebuilt at an accepted drop's width targets a subset
/// of these widths (its `neg_rate`s are relative to the new width, but
/// its components are already prefetched).
fn target_drops(staircase: &[u64], width: u32, budget: u32) -> Vec<(u32, u128)> {
    staircase_drops(staircase, width, budget)
        .map(|(d, neg_rate)| (width + d, neg_rate))
        .collect()
}

/// Deterministic Fisher–Yates shuffle driven by a splitmix64 stream (the
/// crate has no RNG dependency; reproducibility matters more than
/// statistical quality here).
fn shuffle_cores(cores: &mut [CoreId], seed: u64) {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..cores.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        cores.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OptimizerBudget;
    use soctam_model::Benchmark;

    fn groups_for(soc: &Soc, patterns: u64) -> Vec<SiGroupSpec> {
        vec![SiGroupSpec::new(soc.core_ids().collect(), patterns)]
    }

    #[test]
    fn optimize_respects_width_budget() {
        let soc = Benchmark::D695.soc();
        for w in [4u32, 8, 16] {
            let result = TamOptimizer::new(&soc, w, groups_for(&soc, 100))
                .expect("valid")
                .optimize()
                .expect("optimizes");
            assert!(result.architecture().total_width() <= w);
            // Every core hosted exactly once is enforced by construction.
            assert_eq!(
                result
                    .architecture()
                    .rails()
                    .iter()
                    .map(|r| r.cores().len())
                    .sum::<usize>(),
                soc.num_cores()
            );
        }
    }

    #[test]
    fn wider_budget_never_hurts() {
        let soc = Benchmark::D695.soc();
        let t8 = TamOptimizer::new(&soc, 8, groups_for(&soc, 200))
            .expect("valid")
            .optimize()
            .expect("optimizes")
            .evaluation()
            .t_total();
        let t32 = TamOptimizer::new(&soc, 32, groups_for(&soc, 200))
            .expect("valid")
            .optimize()
            .expect("optimizes")
            .evaluation()
            .t_total();
        assert!(t32 <= t8, "t32={t32} > t8={t8}");
    }

    #[test]
    fn intest_only_matches_or_beats_total_on_t_in() {
        let soc = Benchmark::D695.soc();
        let groups = groups_for(&soc, 500);
        let baseline = TamOptimizer::new(&soc, 16, groups.clone())
            .expect("valid")
            .objective(Objective::InTestOnly)
            .optimize()
            .expect("optimizes");
        let si_aware = TamOptimizer::new(&soc, 16, groups)
            .expect("valid")
            .optimize()
            .expect("optimizes");
        // The baseline optimizes T_in, so its T_in should not be worse
        // (both are heuristics, so allow a small slack).
        let slack = baseline.evaluation().t_in / 10;
        assert!(
            baseline.evaluation().t_in <= si_aware.evaluation().t_in + slack,
            "baseline t_in {} vs si-aware {}",
            baseline.evaluation().t_in,
            si_aware.evaluation().t_in
        );
    }

    #[test]
    fn si_aware_beats_baseline_on_total_under_heavy_si_load() {
        let soc = Benchmark::D695.soc();
        // Heavy SI load: two groups with large pattern counts.
        let half: Vec<CoreId> = (0..5).map(CoreId::new).collect();
        let rest: Vec<CoreId> = (5..10).map(CoreId::new).collect();
        let groups = vec![
            SiGroupSpec::new(half, 3_000),
            SiGroupSpec::new(rest, 3_000),
            SiGroupSpec::new(soc.core_ids().collect(), 1_000),
        ];
        let baseline = TamOptimizer::new(&soc, 24, groups.clone())
            .expect("valid")
            .objective(Objective::InTestOnly)
            .optimize()
            .expect("optimizes");
        let si_aware = TamOptimizer::new(&soc, 24, groups)
            .expect("valid")
            .optimize()
            .expect("optimizes");
        assert!(
            si_aware.evaluation().t_total() <= baseline.evaluation().t_total(),
            "si-aware {} > baseline {}",
            si_aware.evaluation().t_total(),
            baseline.evaluation().t_total()
        );
    }

    #[test]
    fn single_core_soc_optimizes_trivially() {
        use soctam_model::CoreSpec;
        let soc = Soc::new(
            "one",
            vec![CoreSpec::new("c", 4, 4, 0, vec![16, 16], 10).expect("valid")],
        )
        .expect("valid");
        let result = TamOptimizer::new(&soc, 8, vec![])
            .expect("valid")
            .optimize()
            .expect("optimizes");
        assert_eq!(result.architecture().num_rails(), 1);
        assert!(result.architecture().total_width() <= 8);
        assert_eq!(result.evaluation().t_si, 0);
    }

    #[test]
    fn exhausted_budget_still_yields_valid_architecture() {
        let soc = Benchmark::P34392.soc(); // 19 cores, wire budget below that
        let make = || TamOptimizer::new(&soc, 8, groups_for(&soc, 50)).expect("valid");
        let strangled = make()
            .run(RunCtx {
                budget: OptimizerBudget::default().with_max_iterations(1),
                ..RunCtx::default()
            })
            .optimize()
            .expect("degrades, does not fail");
        assert!(strangled.degraded());
        assert!(strangled.architecture().total_width() <= 8);
        assert_eq!(
            strangled
                .architecture()
                .rails()
                .iter()
                .map(|r| r.cores().len())
                .sum::<usize>(),
            soc.num_cores()
        );
        // The iteration cut-off is deterministic: a second strangled run
        // lands on the identical architecture.
        let again = make()
            .run(RunCtx {
                budget: OptimizerBudget::default().with_max_iterations(1),
                ..RunCtx::default()
            })
            .optimize()
            .expect("degrades, does not fail");
        assert_eq!(strangled.architecture(), again.architecture());
        // The unbudgeted run is flagged clean and is at least as good.
        let full = make().optimize().expect("optimizes");
        assert!(!full.degraded());
        assert!(full.evaluation().t_total() <= strangled.evaluation().t_total());
    }

    #[test]
    fn expired_deadline_degrades_immediately_but_validly() {
        use std::time::Duration;
        let soc = Benchmark::D695.soc();
        let result = TamOptimizer::new(&soc, 16, groups_for(&soc, 100))
            .expect("valid")
            .run(RunCtx {
                budget: OptimizerBudget::default().with_deadline(Duration::ZERO),
                ..RunCtx::default()
            })
            .optimize()
            .expect("degrades, does not fail");
        assert!(result.degraded());
        assert!(result.architecture().total_width() <= 16);
        assert!(result.evaluation().t_total() > 0);
    }

    #[test]
    fn multi_start_respects_budget() {
        let soc = Benchmark::D695.soc();
        let result = TamOptimizer::new(&soc, 16, groups_for(&soc, 100))
            .expect("valid")
            .run(RunCtx {
                budget: OptimizerBudget::default().with_max_iterations(2),
                ..RunCtx::default()
            })
            .optimize_multi(4)
            .expect("degrades, does not fail");
        assert!(result.degraded());
        assert!(result.architecture().total_width() <= 16);
    }

    #[test]
    fn huge_time_used_sums_do_not_overflow_the_rebalance_key() {
        // Each core's own width-1 time fits in a u64 (so the SOC
        // validates), but the rails' `time_used` sum does not.
        let text = "SocName huge\nTotalModules 4\n\
            Module 0 Level 0 Inputs 8 Outputs 8 Bidirs 0 ScanChains 0 TotalTests 0\n\
            Module 1 Level 1 Inputs 2 Outputs 2 Bidirs 0 ScanChains 1 : 2 TotalTests 1\n\
            Test 1 ScanUse 1 TamUse 1 Patterns 2000000000000000000\n\
            Module 2 Level 1 Inputs 2 Outputs 2 Bidirs 0 ScanChains 1 : 2 TotalTests 1\n\
            Test 1 ScanUse 1 TamUse 1 Patterns 2000000000000000000\n\
            Module 3 Level 1 Inputs 2 Outputs 2 Bidirs 0 ScanChains 1 : 2 TotalTests 1\n\
            Test 1 ScanUse 1 TamUse 1 Patterns 2000000000000000000\n";
        let soc = soctam_model::parser::parse_soc(text)
            .expect("parses")
            .into_soc()
            .expect("valid");
        let result = TamOptimizer::new(&soc, 4, groups_for(&soc, 200))
            .expect("valid")
            .optimize()
            .expect("optimizes");
        assert!(result.architecture().total_width() <= 4);
        assert_eq!(
            result
                .architecture()
                .rails()
                .iter()
                .map(|r| r.cores().len())
                .sum::<usize>(),
            soc.num_cores()
        );
    }

    #[test]
    fn budget_below_core_count_forces_merging() {
        let soc = Benchmark::P34392.soc(); // 19 cores
        let result = TamOptimizer::new(&soc, 8, groups_for(&soc, 50))
            .expect("valid")
            .optimize()
            .expect("optimizes");
        assert!(result.architecture().total_width() <= 8);
        assert!(result.architecture().num_rails() <= 8);
    }
}

#[cfg(test)]
mod rebalance_tests {
    use super::*;
    use crate::OptimizerBudget;
    use soctam_model::{Benchmark, CoreId};

    #[test]
    fn rebalance_rescues_starved_many_chain_core() {
        let soc = Benchmark::F2126.soc();
        let groups = vec![SiGroupSpec::new(soc.core_ids().collect(), 300)];
        let optimizer = TamOptimizer::new(&soc, 64, groups)
            .expect("valid")
            .objective(Objective::InTestOnly);
        // The allocation the one-directional distribution gets stuck in:
        // core 2 (18 scan chains) starved at 12 wires.
        let rails = vec![
            TestRail::new(vec![CoreId::new(2)], 12).expect("valid"),
            TestRail::new(vec![CoreId::new(1)], 18).expect("valid"),
            TestRail::new(vec![CoreId::new(3)], 17).expect("valid"),
            TestRail::new(vec![CoreId::new(0)], 17).expect("valid"),
        ];
        let before = optimizer.cost(&rails);
        let tracker = BudgetTracker::start(OptimizerBudget::unlimited());
        let rebalanced = optimizer.rebalance_wires(rails, &tracker);
        let after = optimizer.cost(&rebalanced);
        assert!(
            after < before * 7 / 10,
            "rebalance only improved {before} -> {after}"
        );
    }
}
