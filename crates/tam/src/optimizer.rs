//! `TAM_Optimization` — Algorithm 2 of the paper (Fig. 6), plus the
//! TR-Architect baseline as the [`Objective::InTestOnly`] special case.

use std::collections::BTreeSet;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use soctam_exec::{fault, fx_fingerprint128, FaultError};
use soctam_model::{CoreId, Soc};

use crate::budget::BudgetTracker;
use crate::{
    Evaluation, Evaluator, RailEdit, RailEval, RailStaircases, RunCtx, SiGroupSpec, SwapState,
    TamError, TestRail, TestRailArchitecture,
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
    /// `t_si` is `None` only from a [`SwapState`] seeded for
    /// `InTestOnly`, the objective that never reads it.
    // Invariant: `Evaluator::swap_state` gives every state seeded for
    // `Total` its SI half, so a `Total` cost always sees `Some`.
    #[allow(clippy::expect_used)]
    fn cost(self, t_in: u64, t_si: Option<u64>) -> u64 {
        match self {
            Objective::Total => t_in.saturating_add(t_si.expect("a Total state prices T_soc^si")),
            Objective::InTestOnly => t_in,
        }
    }

    /// The per-rail staircase that bounds this objective's cost from
    /// below: an architecture holding a rail at width `w` costs at least
    /// its entry `w - 1`. `T_soc^in ≥ time_in(r)` by definition, and
    /// `T_soc ≥ time_used(r)` because the SI groups sharing a rail are
    /// serialized (SCH-V02), so `T_soc^si ≥ time_si(r)`.
    fn staircase(self, stairs: &RailStaircases) -> &[u64] {
        match self {
            Objective::Total => &stairs.used,
            Objective::InTestOnly => &stairs.intest,
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
}

impl<'a> TamOptimizer<'a> {
    /// Creates an optimizer for `soc` with a TAM wire budget of
    /// `max_width` and the given compacted SI test groups.
    ///
    /// # Errors
    ///
    /// [`TamError::ZeroWidthBudget`] when `max_width == 0`;
    /// [`TamError::WidthBudgetTooLarge`] above [`MAX_TAM_WIDTH`](crate::MAX_TAM_WIDTH);
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
        })
    }

    /// Sets the optimization objective (builder style).
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Runs on the resources of `run` (builder style). Restarts run on
    /// `run.pool`, whose metrics count cache hits, misses and probes;
    /// the four move loops probe their candidates in order on the
    /// calling thread, so the result is bit-identical for every pool
    /// size, and with or without the shared `run.eval_cache`. A run
    /// with an unlimited budget shares only its finished legs and their
    /// evaluations there; a budgeted run, which reads no search memo,
    /// keeps its working set there too (DESIGN.md §6). Once
    /// `run.budget` or `run.cancel` trips, the run returns its best
    /// valid architecture so far, flagged
    /// [`OptimizedArchitecture::degraded`] — never an error.
    pub fn run(mut self, run: RunCtx) -> Self {
        // Attaching metrics clears the working store, so the counters
        // cover this run; a shared store stays warm.
        self.evaluator.attach_metrics(run.pool.metrics());
        if let Some(cache) = &run.eval_cache {
            // A budgeted run reads no search memo (`optimize_perturbed`),
            // so only its working set can warm a repeat of it.
            if run.budget.is_unlimited() {
                self.evaluator.attach_cache(cache);
            } else {
                self.evaluator.attach_cache_with_working_set(cache);
            }
        }
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
        self.objective.cost(eval.t_in, Some(eval.t_si))
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

    /// Speculatively prices one batch of move candidates, in candidate
    /// order on the calling thread, and returns the index and key of the
    /// first minimum ([`first_min`]). `f` yields `None` for a candidate
    /// that cannot win.
    ///
    /// A probe also yields `None` — and counts as wasted — when the
    /// budget tripped before it ran, or when the `tam.probe` failpoint
    /// fired (`Err` *or* panic: a panicking probe is caught and
    /// poisoned — dropping a non-winning candidate never changes the
    /// first minimum, and a lost winner degrades to the no-move
    /// outcome). Panics from any other site unwind normally.
    fn probe<T, K: Ord>(
        &self,
        tracker: &BudgetTracker,
        candidates: &[T],
        f: impl Fn(&T) -> Option<K>,
    ) -> Option<(usize, K)> {
        if candidates.is_empty() {
            return None;
        }
        let metrics = self.run.pool.metrics();
        metrics.count_probe_batch();
        metrics.add_speculative_probes(candidates.len() as u64);
        if let Some(p) = &self.run.progress {
            p.add_probed(candidates.len() as u64);
        }
        let task = |cand: &T| -> Option<K> {
            if !tracker.within() {
                metrics.count_probe_wasted();
                return None;
            }
            if !fault::any_active() {
                // No failpoint configured anywhere: `tam.probe` cannot
                // fire, and a panic from `f` itself would be resumed
                // verbatim below — so skip the unwind guard and its
                // inlining barrier on the hot path.
                return f(cand);
            }
            match panic::catch_unwind(AssertUnwindSafe(|| {
                fault::check("tam.probe").map(|()| f(cand))
            })) {
                Ok(Ok(result)) => result,
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
        first_min(candidates.iter().map(task))
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

    /// `distributeFreeWires` (Section 4.2) as the start solution runs
    /// it: spends `wires` extra TAM wires with every rail a lane, in rail
    /// order, and parks what no drop absorbs. The lanes' drops are only
    /// fetched when the budget allows a first step; otherwise
    /// [`TamOptimizer::spend_wires`] ticks once and spends nothing.
    // Invariant: widths only ever grow here, so `with_width` cannot see 0.
    #[allow(clippy::expect_used)]
    fn distribute_free_wires(
        &self,
        mut rails: Vec<TestRail>,
        wires: u32,
        tracker: &BudgetTracker,
    ) -> Vec<TestRail> {
        let eval = self.eval(&rails);
        let mut st = self.evaluator.swap_state(&eval, self.objective);
        let lanes = if tracker.can_tick() {
            self.rail_drops(&rails, self.staircases(&rails), None, wires)
        } else {
            Vec::new()
        };
        let all = lanes.iter().enumerate().map(|(j, rail)| rail.lane(j));
        let left = self.spend_wires(&mut st, all, wires, tracker, false);
        for (j, rail) in rails.iter_mut().enumerate() {
            *rail = rail.with_width(width_in(&st, j)).expect("width > 0");
        }
        self.park_wires(rails, left, tracker)
    }

    /// Every rail's staircases, in rail order.
    fn staircases(&self, rails: &[TestRail]) -> Vec<Arc<RailStaircases>> {
        rails
            .iter()
            .map(|r| self.evaluator.rail_staircases(r.cores()))
            .collect()
    }

    /// Every rail's [`RailDrops`] for `wires` wires, from its staircases
    /// `stairs`; rail `skip` lists no drop.
    fn rail_drops(
        &self,
        rails: &[TestRail],
        stairs: Vec<Arc<RailStaircases>>,
        skip: Option<usize>,
        wires: u32,
    ) -> Vec<RailDrops> {
        (rails.iter().zip(stairs).enumerate())
            .map(|(j, (rail, stairs))| {
                let budget = if Some(j) == skip { 0 } else { wires };
                let drops = target_drops(&stairs.used, rail.width(), budget);
                let first = rail.width().saturating_add(1);
                let last = drops.last().map_or(rail.width(), |&(w, _)| w);
                let is_target = |w| drops.binary_search_by_key(&w, |&(t, _)| t).is_ok();
                let comps = (first..=last)
                    .map(|w| is_target(w).then(|| self.evaluator.component(w, rail.cores())))
                    .collect();
                RailDrops {
                    stairs,
                    drops,
                    first,
                    comps,
                }
            })
            .collect()
    }

    /// The water-filling greedy of `distributeFreeWires` (Section 4.2),
    /// the one routine that spends wires (start solution, merge probes
    /// and merge commits): spends up to `wires` wires on the `lanes` of
    /// `st`, in place, and returns the wires no affordable drop absorbed.
    ///
    /// A rail's time is a non-increasing *staircase* in width: one more
    /// wire often changes nothing (a scan-chain plateau), so each step
    /// jumps a rail to one of its strict drop points instead, picking the
    /// jump that minimizes `(T_soc, -time gain per wire, wires spent)`.
    ///
    /// `speculative` marks the calls made for a merge candidate: they
    /// read the iteration budget but never tick it, which counts
    /// committed steps, not probes.
    // Invariant: `k` indexes a lane of the enumeration it came from.
    #[allow(clippy::expect_used)]
    fn spend_wires<'l>(
        &self,
        st: &mut SwapState,
        lanes: impl Iterator<Item = Lane<'l>> + Clone,
        wires: u32,
        tracker: &BudgetTracker,
        speculative: bool,
    ) -> u32 {
        let mut remaining = wires;
        let step = || {
            if speculative {
                tracker.within()
            } else {
                tracker.tick()
            }
        };
        // A lane that accepted wires reads its drops rebuilt at its new
        // width (they target a subset of its list's widths); the others
        // read their list, truncated to the wires left.
        let mut rebuilt: Vec<Option<Vec<(u32, u128)>>> = vec![None; lanes.clone().count()];
        let mut candidates: Vec<(usize, RailEdit<'l>, u32, u128)> = Vec::new();
        while remaining > 0 && step() {
            // Every strict drop point of every rail is a candidate, not
            // just the nearest one: a tiny SI gain at +1 must not mask a
            // large InTest cliff at +6. Each is one width edit, enumerated
            // serially and probed as one batch.
            candidates.clear();
            for (k, lane) in lanes.clone().enumerate() {
                let width = width_in(st, lane.label);
                for &(target, neg_rate) in rebuilt[k].as_deref().unwrap_or(lane.drops) {
                    let d = target - width;
                    if d > remaining {
                        break;
                    }
                    candidates.push((k, (lane.label, Some(lane.rail.at(target))), d, neg_rate));
                }
            }
            let best = self.probe(tracker, &candidates, |&(_, edit, d, rate)| {
                let cost = self.evaluator.state_cost(st, &[edit]);
                Some((self.objective.cost(cost.t_in, cost.t_si), rate, d))
            });
            // No affordable jump improves any rail.
            let Some((idx, _)) = best else { break };
            let (k, edit, d, _) = candidates[idx];
            self.evaluator.state_apply(st, &[edit]);
            remaining -= d;
            let lane = lanes.clone().nth(k).expect("a lane");
            let width = width_in(st, lane.label);
            rebuilt[k] = Some(target_drops(&lane.rail.stairs.used, width, remaining));
        }
        remaining
    }

    /// Parks the `wires` [`TamOptimizer::spend_wires`] left, one at a
    /// time, on the first bottleneck rail below `W_max` (else the first
    /// rail below it): they may enable later merges. When no rail had a
    /// strict drop within the wires left, each parked wire leaves its
    /// rail's `time_used` flat, and since the InTest and SI staircases
    /// are each non-increasing, every cost too. Skipped once the budget
    /// trips.
    // Invariant: widths only ever grow here, so `with_width` cannot see 0.
    #[allow(clippy::expect_used)]
    fn park_wires(
        &self,
        mut rails: Vec<TestRail>,
        mut wires: u32,
        tracker: &BudgetTracker,
    ) -> Vec<TestRail> {
        while wires > 0 && tracker.within() {
            let target = self
                .bottleneck_rails(&self.eval(&rails))
                .into_iter()
                .chain(0..rails.len())
                .find(|&i| rails[i].width() < self.max_width);
            let Some(i) = target else { break };
            rails[i] = rails[i]
                .with_width(rails[i].width().saturating_add(1))
                .expect("width > 0");
            wires -= 1;
        }
        rails
    }

    /// `mergeTAMs`: merges `rails[r1]` with the partner and merged width
    /// that minimize the objective (redistributing freed wires), or keeps
    /// the architecture when no merge improves it. Returns the new rails
    /// and whether an improvement was found. DESIGN.md §12.1 and §12.2
    /// describe the probes, their bounds and what they share.
    // Invariant: a candidate that wins was not pruned, so its partner
    // was prefetched.
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
        // Fetched once: the bounds, drop lists and redistributions read them.
        let stairs = self.staircases(&rails);
        let candidates = self.merge_candidates(&rails, r1, &stairs);
        let prefetch = self.merge_prefetch(&current_eval, &rails, r1, stairs, &candidates, current);
        // Redistribution costs are memoized per (rails, unordered pair,
        // merged width, objective) (DESIGN.md §12.1).
        let rails_fp = fx_fingerprint128(&rails);
        let intest_only = self.objective == Objective::InTestOnly;
        let metrics = self.run.pool.metrics();
        let best = self.probe(tracker, &candidates, |&(i, w, bound)| {
            // Whatever its exact cost, the candidate loses the `cost <
            // current` gate: it is settled without being built.
            if bound >= current {
                metrics.count_probe_pruned();
                return None;
            }
            let dist_fp = (rails[r1].width().saturating_add(rails[i].width()) > w)
                .then(|| fx_fingerprint128(&(rails_fp, r1.min(i), r1.max(i), w, intest_only)));
            if let Some(cost) = dist_fp.and_then(|fp| self.evaluator.dist_cost_cached(fp)) {
                return Some(cost);
            }
            let (st, _) = self.merge_state(prefetch.as_ref().expect("i is live"), i, w, tracker);
            let cost = self.objective.cost(st.t_in(), st.t_si());
            if let Some(fp) = dist_fp.filter(|_| tracker.within()) {
                self.evaluator.store_dist_cost(fp, cost);
            }
            Some(cost)
        });
        match best {
            Some((idx, cost)) if cost < current => {
                let (i, w, _) = candidates[idx];
                let prefetch = prefetch.as_ref().expect("the winner is live");
                let (st, left) = self.merge_state(prefetch, i, w, tracker);
                (self.merge_commit(&rails, r1, i, &st, left, tracker), true)
            }
            _ => (rails, false),
        }
    }

    /// The `mergeTAMs` candidates of rail `r1` in visit order, each
    /// `(partner i, merged width w, bound)`. The bound is admissible
    /// (DESIGN.md §12.2): no redistribution of the `L = w1 + wi - w`
    /// freed wires ends below it. The merged rail ends at width at most
    /// `w1 + wi` and a survivor `j` at most `w_j + L`, staircases never
    /// rise with width, and the merged rail's staircase is the sum of
    /// its two halves'.
    fn merge_candidates(
        &self,
        rails: &[TestRail],
        r1: usize,
        stairs: &[Arc<RailStaircases>],
    ) -> Vec<(usize, u32, u64)> {
        let at = |j: usize, w: u32| {
            self.objective.staircase(&stairs[j])[(w.min(self.max_width) - 1) as usize]
        };
        let w1 = rails[r1].width();
        let mut candidates = Vec::new();
        for (i, rail) in rails.iter().enumerate() {
            if i == r1 {
                continue;
            }
            let w_m = w1.saturating_add(rail.width());
            let merged = at(r1, w_m).saturating_add(at(i, w_m));
            for w in w1.max(rail.width())..=w_m {
                let leftover = w_m - w;
                let bound = survivors(rails.len(), r1, i)
                    .map(|j| at(j, rails[j].width().saturating_add(leftover)))
                    .fold(merged, u64::max);
                candidates.push((i, w, bound));
            }
        }
        candidates
    }

    /// What the probes of one `mergeTAMs(r1)` call share, or `None` when
    /// no candidate is bounded below `current` (DESIGN.md §12.2): only
    /// such a *live* partner gets its merged rail, and the other rails'
    /// drop lists are sized by the largest leftover a live candidate
    /// frees. `eval` is the evaluation of `rails`, `stairs` their
    /// staircases.
    // Invariant: merged widths are `max(w1, wi)..=w1+wi` of two rails whose
    // widths are >= 1, so `merged` cannot see a zero width.
    #[allow(clippy::expect_used)]
    fn merge_prefetch(
        &self,
        eval: &Evaluation,
        rails: &[TestRail],
        r1: usize,
        stairs: Vec<Arc<RailStaircases>>,
        candidates: &[(usize, u32, u64)],
        current: u64,
    ) -> Option<MergePrefetch> {
        let w1 = rails[r1].width();
        let mut merged = vec![None; rails.len()];
        let mut l_max = None;
        for &(i, w, bound) in candidates {
            if bound >= current {
                continue;
            }
            let w_hi = w1.saturating_add(rails[i].width());
            l_max = l_max.max(Some(w_hi - w));
            if merged[i].is_some() {
                continue;
            }
            let w_lo = w1.max(rails[i].width());
            let rail = rails[r1]
                .merged(&rails[i], w_lo)
                .expect("merged width >= 1");
            // Widths never exceed the budget: the architecture always
            // holds `Σ widths <= max_width`, so `w1 + wi` is in range.
            let stairs = self.evaluator.rail_staircases(rail.cores());
            let comps = (w_lo..=w_hi).map(|w| Some(self.evaluator.component(w, rail.cores())));
            merged[i] = Some(RailDrops {
                stairs,
                drops: Vec::new(),
                first: w_lo,
                comps: comps.collect(),
            });
        }
        // `r1` is merged in every candidate, so it needs no list.
        let rails = self.rail_drops(rails, stairs, Some(r1), l_max?);
        Some(MergePrefetch {
            r1,
            state: self.evaluator.swap_state(eval, self.objective),
            rails,
            merged,
        })
    }

    /// Builds `mergeTAMs` candidate `(i, w)` on a clone of the shared
    /// state — rail `r1` takes the merged rail at width `w`, rail `i`
    /// dies — and spends the freed wires on the survivors, then the
    /// merged rail: the order [`TamOptimizer::merge_commit`] lays them
    /// out in. Returns the state and the wires left. Probes and the
    /// winner's commit all build here: a merge commits what it priced.
    // Invariant: candidates are built only for live partners.
    #[allow(clippy::expect_used)]
    fn merge_state(
        &self,
        prefetch: &MergePrefetch,
        i: usize,
        w: u32,
        tracker: &BudgetTracker,
    ) -> (SwapState, u32) {
        let (r1, state) = (prefetch.r1, &prefetch.state);
        let merged = prefetch.merged[i].as_ref().expect("prefetched: i is live");
        let leftover = width_in(state, r1).saturating_add(width_in(state, i)) - w;
        let mut st = state.clone();
        self.evaluator
            .state_apply(&mut st, &[(r1, Some(merged.at(w))), (i, None)]);
        if leftover == 0 {
            return (st, 0);
        }
        let drops = target_drops(&merged.stairs.used, w, leftover);
        let lanes = survivors(prefetch.rails.len(), r1, i)
            .map(|j| prefetch.rails[j].lane(j))
            .chain([Lane {
                label: r1,
                rail: merged,
                drops: &drops,
            }]);
        let left = self.spend_wires(&mut st, lanes, leftover, tracker, true);
        (st, left)
    }

    /// The rails a merge of `rails[r1]` and `rails[i]` commits from its
    /// candidate's state `st` ([`TamOptimizer::merge_state`]): the
    /// survivors in their order, then the merged rail, at the widths
    /// `st` holds, with the `left` unspent wires parked.
    // Invariant: every width a state holds is >= 1.
    #[allow(clippy::expect_used)]
    fn merge_commit(
        &self,
        rails: &[TestRail],
        r1: usize,
        i: usize,
        st: &SwapState,
        left: u32,
        tracker: &BudgetTracker,
    ) -> Vec<TestRail> {
        let merged = rails[r1].merged(&rails[i], width_in(st, r1));
        let committed = survivors(rails.len(), r1, i)
            .map(|j| rails[j].with_width(width_in(st, j)).expect("width >= 1"))
            .chain([merged.expect("width >= 1")])
            .collect();
        self.park_wires(committed, left, tracker)
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
            let st = self.evaluator.swap_state(&eval, self.objective);
            // All donor selections read the same memoized staircases.
            let staircases = self.staircases(&rails);
            // Enumerate the (funded rail, jump) candidates serially,
            // probe them as one speculative batch, and reduce in
            // enumeration order (first strict improvement wins).
            let mut candidates: Vec<(usize, u32)> = Vec::new();
            for (b, rail) in rails.iter().enumerate() {
                let donor_budget: u32 =
                    rails.iter().map(|r| r.width() - 1).sum::<u32>() - (rail.width() - 1);
                for (target, _) in target_drops(&staircases[b].used, rail.width(), donor_budget) {
                    candidates.push((b, target - rail.width()));
                }
            }
            let metrics = self.run.pool.metrics();
            let best = self.probe(tracker, &candidates, |&(b, delta)| {
                let widths = rebalance_widths(&rails, &staircases, b, delta)?;
                // Bounds before builds (DESIGN.md §12.2): a candidate
                // bounded above the incumbent cost cannot win, so it
                // skips its component lookups and pricing. Strict: an
                // equal cost can still win on `Σ time_used`.
                if self.widths_bound(&staircases, &widths) > key.0 {
                    metrics.count_probe_pruned();
                    return None;
                }
                // One width edit per rail the step touched.
                let comps: Vec<(usize, Arc<RailEval>)> = (0..rails.len())
                    .filter(|&o| widths[o] != rails[o].width())
                    .map(|o| (o, self.evaluator.component(widths[o], rails[o].cores())))
                    .collect();
                let edits: Vec<RailEdit<'_>> = comps.iter().map(|(o, c)| (*o, Some(c))).collect();
                let cost = self.evaluator.state_cost(&st, &edits);
                Some((
                    self.objective.cost(cost.t_in, cost.t_si),
                    cost.rail_used_sum,
                ))
            });
            let Some((idx, _)) = best.filter(|&(_, cand_key)| cand_key < key) else {
                break;
            };
            let (b, delta) = candidates[idx];
            let widths =
                rebalance_widths(&rails, &staircases, b, delta).expect("the winner is funded");
            for (rail, w) in rails.iter_mut().zip(widths) {
                if rail.width() != w {
                    *rail = rail.with_width(w).expect("width >= 1");
                }
            }
        }
        rails
    }

    /// A lower bound on the objective cost of `rails` at `widths`
    /// (DESIGN.md §12.2): the largest per-rail staircase entry. For
    /// [`Objective::InTestOnly`] it is exactly `T_soc^in`.
    fn widths_bound(&self, staircases: &[Arc<RailStaircases>], widths: &[u32]) -> u64 {
        staircases
            .iter()
            .zip(widths)
            .map(|(stairs, &w)| self.objective.staircase(stairs)[(w - 1) as usize])
            .max()
            .unwrap_or(0)
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

    /// The rail among the first `w_max` of `rails` that a mandatory merge
    /// folds `rails[w_max]` into: the first one minimizing the objective,
    /// each candidate priced as the merge edit `[(i, merged), (w_max,
    /// removed)]` on the state of `rails`.
    // Invariant: both rails of a merge have widths >= 1.
    #[allow(clippy::expect_used)]
    fn mandatory_merge_target(&self, rails: &[TestRail], w_max: usize) -> usize {
        let st = self.evaluator.swap_state(&self.eval(rails), self.objective);
        let victim = &rails[w_max];
        let costs = (0..w_max).map(|i| {
            let w = rails[i].width().max(victim.width());
            let merged = rails[i].merged(victim, w).expect("width >= 1");
            let comp = self.evaluator.component(w, merged.cores());
            let cost = self
                .evaluator
                .state_cost(&st, &[(i, Some(&comp)), (w_max, None)]);
            Some(self.objective.cost(cost.t_in, cost.t_si))
        });
        first_min(costs).map_or(0, |(i, _)| i)
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
            let st = self.evaluator.swap_state(&eval, self.objective);
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
            let best = self.probe(tracker, &candidates, |&(b, core, t)| {
                let (source, target) = moved(b, core, t);
                let source = self.evaluator.component(source.width(), source.cores());
                let target = self.evaluator.component(target.width(), target.cores());
                let cost = self
                    .evaluator
                    .state_cost(&st, &[(b, Some(&source)), (t, Some(&target))]);
                Some(self.objective.cost(cost.t_in, cost.t_si))
            });
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
    /// either alone. This is [`TamOptimizer::optimize_multi`] with a
    /// single start.
    ///
    /// # Errors
    ///
    /// Currently infallible after construction; the signature matches the
    /// other fallible APIs. A tripped [`RunCtx::budget`] is *not* an
    /// error — the run returns its best-so-far architecture with
    /// [`OptimizedArchitecture::degraded`] set.
    pub fn optimize(&self) -> Result<OptimizedArchitecture, TamError> {
        self.optimize_multi(1)
    }

    fn optimize_tracked(&self, tracker: &BudgetTracker) -> Result<OptimizedArchitecture, TamError> {
        let primary = self.optimize_perturbed(0, tracker)?;
        // The secondary portfolio leg is pure polish; skip it once the
        // budget has tripped.
        if self.objective != Objective::Total || !tracker.within() {
            return Ok(primary);
        }
        // The secondary leg forks the primary's evaluator: same context
        // fingerprint, same working store — every rail component and
        // staircase the primary leg computed is already warm, and
        // objective-dependent entries (redistribution costs, finished
        // searches) cannot alias because their keys carry the objective.
        let alt = TamOptimizer {
            evaluator: self.evaluator.fork(),
            max_width: self.max_width,
            objective: Objective::InTestOnly,
            run: self.run.clone(),
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

    /// One Algorithm 2 leg from start `perturbation` (see
    /// [`TamOptimizer::search`]), answered from the search memo when it
    /// can be. A leg is deterministic: with an unlimited budget and no
    /// failpoint configured, its rails depend only on the evaluator's
    /// context (SOC, `W_max`, SI groups), the objective and the
    /// perturbation, which is exactly the memo's key (DESIGN.md §12).
    /// Only such a leg reads the memo, and only such a leg that
    /// finished undegraded writes it, so budgeted, cancelled and
    /// fault-injected runs search exactly as they would without it.
    // Invariant: the search maintains a consistent core assignment,
    // and a recalled leg is one a search committed for this context.
    #[allow(clippy::expect_used)]
    fn optimize_perturbed(
        &self,
        perturbation: u64,
        tracker: &BudgetTracker,
    ) -> Result<OptimizedArchitecture, TamError> {
        let memo = self.run.budget.is_unlimited() && tracker.within() && !fault::any_active();
        let recalled = memo
            .then(|| self.evaluator.search_cached(self.objective, perturbation))
            .flatten();
        let rails = match recalled {
            Some(rails) => rails.to_vec(),
            None => {
                let rails = self.search(perturbation, tracker);
                if memo && !tracker.exhausted() && !fault::any_active() {
                    let stored = Arc::new(rails.clone());
                    self.evaluator
                        .store_search(self.objective, perturbation, stored);
                }
                rails
            }
        };
        let architecture = TestRailArchitecture::new(self.soc(), rails)
            .expect("optimizer maintains a consistent core assignment");
        debug_assert!(architecture.check_width(self.max_width).is_ok());
        let evaluation = (*self.evaluator.evaluate_committed(architecture.rails())).clone();
        self.publish_best(evaluation.t_total());
        Ok(OptimizedArchitecture {
            architecture,
            evaluation,
            degraded: tracker.exhausted(),
        })
    }

    /// One Algorithm 2 run, returning the rails it commits.
    /// `perturbation == 0` uses the paper's start solution (one
    /// one-wire rail per core, lines 1-16); other values start from a
    /// structurally different architecture (a deterministic round-robin
    /// packing into `2..` rails) so multi-start explores different
    /// basins.
    // Invariant: merged widths and `max_width` are >= 1 (checked at
    // construction), and core assignments stay consistent throughout.
    #[allow(clippy::expect_used)]
    fn search(&self, perturbation: u64, tracker: &BudgetTracker) -> Vec<TestRail> {
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
                    // Merge r_{Wmax+1} with the first-Wmax rail minimizing
                    // the objective.
                    let i = if tracker.tick() {
                        self.sort_by_time_used(&mut rails);
                        self.mandatory_merge_target(&rails, w_max)
                    } else {
                        0
                    };
                    let victim = rails.remove(w_max);
                    let w = rails[i].width().max(victim.width());
                    rails[i] = rails[i].merged(&victim, w).expect("width >= 1");
                }
            } else if n < w_max {
                rails =
                    // soctam-analyze: allow(ARITH-01) -- w_max - n counts TAM wires, bounded by the u32 max_width
                    self.distribute_free_wires(rails, (w_max - n) as u32, tracker);
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
            single
        } else {
            rails
        }
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

/// The labels of the rails other than `r1` and `i`, ascending.
fn survivors(n: usize, r1: usize, i: usize) -> impl Iterator<Item = usize> + Clone {
    (0..n).filter(move |&j| j != r1 && j != i)
}

/// What [`TamOptimizer::spend_wires`] reads of one rail: its
/// staircases, its strict drops from its width ([`target_drops`]) and
/// its components at every width they target, `comps[k]` at width
/// `first + k` (`None` where none was fetched).
#[derive(Clone)]
struct RailDrops {
    stairs: Arc<RailStaircases>,
    drops: Vec<(u32, u128)>,
    first: u32,
    comps: Vec<Option<Arc<RailEval>>>,
}

impl RailDrops {
    /// The component at `width`.
    // Invariant: callers look up prefetched widths only.
    #[allow(clippy::expect_used)]
    fn at(&self, width: u32) -> &Arc<RailEval> {
        let slot = self.comps[(width - self.first) as usize].as_ref();
        slot.expect("a prefetched width")
    }

    /// The rail as a lane labelled `label`, from its own drops.
    fn lane(&self, label: usize) -> Lane<'_> {
        Lane {
            label,
            rail: self,
            drops: &self.drops,
        }
    }
}

/// A rail [`TamOptimizer::spend_wires`] may widen: its label in the
/// state, its data, and its strict drops at its current width for a
/// budget of at least the wires spent.
#[derive(Clone, Copy)]
struct Lane<'a> {
    label: usize,
    rail: &'a RailDrops,
    drops: &'a [(u32, u128)],
}

/// What every probe of one `mergeTAMs(r1)` call shares
/// ([`TamOptimizer::merge_prefetch`]).
struct MergePrefetch {
    r1: usize,
    /// The incumbent's state.
    state: SwapState,
    /// Every rail's drops for the largest leftover a live candidate
    /// frees; none for `r1`.
    rails: Vec<RailDrops>,
    /// Per live partner `i`, the merged rail, with its components at
    /// every width `max(w1, wi)..=w1 + wi` and no drops.
    merged: Vec<Option<RailDrops>>,
}

/// The width of rail `j` in `st`.
// Invariant: callers name live rails of the state.
#[allow(clippy::expect_used)]
fn width_in(st: &SwapState, j: usize) -> u32 {
    st.component(j).expect("a live rail").width
}

/// The index and key of the first minimum among the `Some` keys: how
/// every batch of candidates is reduced, so ties go to the earliest
/// candidate however the keys were computed.
fn first_min<K: Ord>(keys: impl IntoIterator<Item = Option<K>>) -> Option<(usize, K)> {
    // A plain loop: `Iterator::min_by` moves the running minimum on
    // every step, which measured slower on the probe hot path.
    let mut best: Option<(usize, K)> = None;
    for (idx, key) in keys.into_iter().enumerate() {
        let Some(key) = key else { continue };
        if best.as_ref().map_or(true, |(_, b)| key < *b) {
            best = Some((idx, key));
        }
    }
    best
}

/// The widths a rebalance step funding a `delta`-wire jump of rail `b`
/// reaches: the wires are collected one at a time from the donors whose
/// marginal `time_used` slowdown for giving up a wire is smallest (zero
/// on a width plateau), or `None` when the donors cannot fund it. A pure
/// function of the rails.
fn rebalance_widths(
    rails: &[TestRail],
    staircases: &[Arc<RailStaircases>],
    b: usize,
    delta: u32,
) -> Option<Vec<u32>> {
    let mut widths: Vec<u32> = rails.iter().map(TestRail::width).collect();
    for _ in 0..delta {
        let donor = (0..widths.len())
            .filter(|&o| o != b && widths[o] > 1)
            .min_by_key(|&o| {
                let at = |w: u32| staircases[o].used[(w - 1) as usize];
                at(widths[o] - 1) - at(widths[o])
            })?;
        widths[donor] -= 1;
    }
    widths[b] = widths[b].saturating_add(delta);
    Some(widths)
}

/// Stable identity of a rail for the skip set: the fingerprint of its
/// (sorted) core list — no per-candidate `Vec<CoreId>` clone.
fn rails_key(rails: &[TestRail], i: usize) -> u128 {
    fx_fingerprint128(&rails[i].cores())
}

/// The strict drop points of a rail's `time_used` staircase
/// (`staircase[w - 1]` is the rail's `time_used` at width `w`, see
/// [`Evaluator::rail_staircases`]) from `width`: every target width
/// `width + d` with `d ≤ budget` (and at most `max_width`) at which the
/// time falls below every smaller width, ascending, paired with its
/// rate key `neg_rate` — the time gain per wire as a scaled fixed-point
/// value, negated so that smaller ranks better. The walk is
/// prefix-stable (each verdict depends only on earlier staircase
/// entries), so the drops of a larger budget, truncated to
/// `d ≤ remaining`, are the drops of `remaining`; and a strict drop
/// beyond an earlier one is a strict drop from it too, so a list
/// rebuilt at an accepted drop targets a subset of these widths.
fn target_drops(staircase: &[u64], width: u32, budget: u32) -> Vec<(u32, u128)> {
    let before = staircase[(width - 1) as usize];
    // soctam-analyze: allow(ARITH-01) -- the staircase has max_width entries, and max_width is u32
    let limit = budget.min((staircase.len() as u32).saturating_sub(width));
    let mut best = before;
    (1..=limit)
        .filter_map(|d| {
            let after = staircase[(width + d - 1) as usize];
            if after >= best {
                return None;
            }
            best = after;
            let neg_rate = u128::MAX - (u128::from(before - after) << 32) / u128::from(d);
            Some((width + d, neg_rate))
        })
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
    use soctam_exec::Pool;
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
    fn intest_only_probes_price_no_si_makespan() {
        // Only probes reuse a makespan: an incumbent evaluation always
        // runs Algorithm 1 afresh, so an InTest-only run, whose probes
        // never price `T_soc^si`, reuses none. A Total run's probes
        // reuse the incumbent's makespan whenever no group row changed,
        // which many of them do.
        let soc = Benchmark::P34392.soc();
        let c = |range: std::ops::Range<u32>| -> Vec<CoreId> { range.map(CoreId::new).collect() };
        let groups = vec![
            SiGroupSpec::new(c(0..19), 400),
            SiGroupSpec::new(c(0..8), 900),
            SiGroupSpec::new(c(6..14), 700),
            SiGroupSpec::new(c(12..19), 500),
        ];
        let run = |objective: Objective| {
            let pool = Pool::serial();
            let metrics = pool.metrics();
            let result = TamOptimizer::new(&soc, 32, groups.clone())
                .expect("valid")
                .objective(objective)
                .run(RunCtx::new(pool))
                .optimize()
                .expect("optimizes");
            // The reported evaluation still carries the full schedule.
            assert_eq!(
                result.evaluation().t_si,
                result.evaluation().schedule.makespan()
            );
            assert!(result.evaluation().t_si > 0);
            metrics.snapshot()
        };
        let baseline = run(Objective::InTestOnly);
        assert!(baseline.speculative_probes > 0);
        assert_eq!(
            baseline.schedule_reuses, 0,
            "InTest-only probes priced T_si"
        );
        let total = run(Objective::Total);
        assert!(
            total.schedule_reuses > total.cache_misses,
            "{} schedule reuses, {} incumbent misses",
            total.schedule_reuses,
            total.cache_misses
        );
    }

    #[test]
    fn bounds_prune_probes_for_both_objectives() {
        // Each objective's own search, without the portfolio's second
        // leg, settles some merge or rebalance candidates by its bound.
        let soc = Benchmark::P93791.soc();
        let cores: Vec<CoreId> = soc.core_ids().collect();
        let mut groups = vec![SiGroupSpec::new(cores.clone(), 300)];
        groups.extend(cores.chunks(8).map(|c| SiGroupSpec::new(c.to_vec(), 150)));
        for objective in [Objective::Total, Objective::InTestOnly] {
            let pool = Pool::serial();
            let metrics = pool.metrics();
            let run = RunCtx::new(pool);
            let optimizer = TamOptimizer::new(&soc, 64, groups.clone())
                .expect("valid")
                .objective(objective)
                .run(run.clone());
            optimizer
                .optimize_perturbed(0, &BudgetTracker::start_in(&run))
                .expect("optimizes");
            let snap = metrics.snapshot();
            assert!(snap.probes_pruned > 0, "{objective:?} pruned nothing");
            assert!(snap.probes_pruned < snap.speculative_probes);
        }
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
    fn a_budget_that_allows_no_step_fetches_no_drops() {
        // `soctam optimize d695 --patterns 500 --width 32 --partitions 1
        // --max-iters 0`: the start solution's free wires cannot be
        // spent, so no rail's drop components are fetched. What remains
        // are the ten one-wire start rails and the single-rail safety
        // net, which the run reports.
        let soc = Benchmark::D695.soc();
        let rail_evals = |max_iterations: u64| {
            let pool = Pool::serial();
            let metrics = pool.metrics();
            let result = TamOptimizer::new(&soc, 32, groups_for(&soc, 21))
                .expect("valid")
                .run(RunCtx {
                    budget: OptimizerBudget::default().with_max_iterations(max_iterations),
                    ..RunCtx::new(pool)
                })
                .optimize()
                .expect("degrades, does not fail");
            assert!(result.degraded());
            let snap = metrics.snapshot();
            (snap.rail_eval_hits, snap.rail_eval_misses)
        };
        assert_eq!(rail_evals(0), (0, 11));
        // A budget that allows the first step fetches every drop it
        // enumerates.
        let (_, misses) = rail_evals(1);
        assert!(misses > 100, "{misses} misses");
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

#[cfg(test)]
mod bound_tests {
    use super::*;
    use crate::OptimizerBudget;
    use soctam_exec::check::{cases, forall, Gen};
    use soctam_model::synth::{synth_soc, SynthConfig};

    /// A random SOC of `3..max_cores` cores.
    fn random_soc(g: &mut Gen, max_cores: usize) -> Soc {
        let cores = g.usize_in(3, max_cores);
        synth_soc(
            &SynthConfig {
                inputs: (1, 24),
                outputs: (1, 24),
                scan_chain_count: (1, 6),
                scan_chain_len: (2, 60),
                patterns: (3, 60),
                ..SynthConfig::new(cores)
            }
            .with_seed(g.u64_in(0, u64::MAX)),
        )
        .expect("valid soc")
    }

    /// `1..=4` SI groups over random core subsets.
    fn random_groups(g: &mut Gen, soc: &Soc) -> Vec<SiGroupSpec> {
        let n = g.usize_in(1, 5);
        (0..n)
            .map(|_| {
                let cores: Vec<CoreId> = soc.core_ids().filter(|_| g.bool_with(0.5)).collect();
                let cores = if cores.is_empty() {
                    soc.core_ids().collect()
                } else {
                    cores
                };
                SiGroupSpec::new(cores, g.u64_in(1, 200))
            })
            .collect()
    }

    /// Hands `wires` spare wires to random rails, one at a time.
    fn spread(g: &mut Gen, rails: &mut [TestRail], wires: u32) {
        for _ in 0..wires {
            let r = g.usize_in(0, rails.len());
            rails[r] = rails[r].with_width(rails[r].width() + 1).expect("valid");
        }
    }

    /// `rails[r1]` and `rails[i]` merged at width `w` after the
    /// survivors, which keep their order.
    fn merged_rails(rails: &[TestRail], r1: usize, i: usize, w: u32) -> Vec<TestRail> {
        survivors(rails.len(), r1, i)
            .map(|j| rails[j].clone())
            .chain([rails[r1].merged(&rails[i], w).expect("valid")])
            .collect()
    }

    /// One random legal merge; its freed wires go to random rails, so
    /// the budget stays fully spent.
    fn random_merge(g: &mut Gen, rails: &mut Vec<TestRail>) {
        let i = g.usize_in(0, rails.len() - 1);
        let r1 = g.usize_in(i + 1, rails.len());
        let (wi, w1) = (rails[i].width(), rails[r1].width());
        let w = g.u32_in(wi.max(w1), wi + w1 + 1);
        *rails = merged_rails(rails, r1, i, w);
        spread(g, rails, wi + w1 - w);
    }

    /// The `mergeTAMs(r1)` candidates of `rails` and their prefetch,
    /// with every candidate bounded below `current` live.
    fn prefetched(
        optimizer: &TamOptimizer<'_>,
        rails: &[TestRail],
        r1: usize,
        current: u64,
    ) -> (Vec<(usize, u32, u64)>, Option<MergePrefetch>) {
        let stairs = optimizer.staircases(rails);
        let candidates = optimizer.merge_candidates(rails, r1, &stairs);
        let eval = optimizer.eval(rails);
        let prefetch = optimizer.merge_prefetch(&eval, rails, r1, stairs, &candidates, current);
        (candidates, prefetch)
    }

    /// Builds live merge candidate `(i, w)` and commits it, as
    /// `merge_tams` does for its winner: the cost read off the
    /// candidate's state, the cost of the rails the merge commits, and
    /// whether the commit parked wires.
    fn build_and_commit(
        optimizer: &TamOptimizer<'_>,
        rails: &[TestRail],
        r1: usize,
        prefetch: Option<&MergePrefetch>,
        (i, w): (usize, u32),
    ) -> (u64, u64, bool) {
        let tracker = BudgetTracker::start(OptimizerBudget::unlimited());
        let prefetch = prefetch.expect("a live candidate was prefetched");
        let (st, left) = optimizer.merge_state(prefetch, i, w, &tracker);
        let committed = optimizer.merge_commit(rails, r1, i, &st, left, &tracker);
        let priced = optimizer.objective.cost(st.t_in(), st.t_si());
        (priced, optimizer.cost(&committed), left > 0)
    }

    /// Checks every merge candidate of `r1` and every rebalance
    /// candidate of `rails` against what the optimizer commits for it.
    fn check_bounds(optimizer: &TamOptimizer<'_>, rails: &[TestRail], r1: usize) {
        let objective = optimizer.objective;
        // Every candidate live, so each one is built and committed.
        let (candidates, prefetch) = prefetched(optimizer, rails, r1, u64::MAX);
        for &(i, w, bound) in &candidates {
            let (_, cost, _) = build_and_commit(optimizer, rails, r1, prefetch.as_ref(), (i, w));
            assert!(
                bound <= cost,
                "{objective:?} merge ({r1}, {i}, {w}): bound {bound} > cost {cost}"
            );
        }
        let stairs = optimizer.staircases(rails);
        let donors: u32 = rails.iter().map(|r| r.width() - 1).sum();
        for b in 0..rails.len() {
            let (width, budget) = (rails[b].width(), donors - (rails[b].width() - 1));
            for (target, _) in target_drops(&stairs[b].used, width, budget) {
                let delta = target - width;
                let Some(widths) = rebalance_widths(rails, &stairs, b, delta) else {
                    continue;
                };
                let bound = optimizer.widths_bound(&stairs, &widths);
                let moved: Vec<TestRail> = rails
                    .iter()
                    .zip(&widths)
                    .map(|(r, &w)| r.with_width(w).expect("valid"))
                    .collect();
                let cost = optimizer.cost(&moved);
                assert!(
                    bound <= cost,
                    "{objective:?} rebalance ({b}, +{delta}): bound {bound} > cost {cost}"
                );
                if objective == Objective::InTestOnly {
                    assert_eq!(bound, cost, "the InTest bound is T_soc^in itself");
                }
            }
        }
    }

    /// From architectures reached by random legal merges, for both
    /// objectives: every merge candidate's bound is at most the cost of
    /// the rails the optimizer commits for it (build the candidate's
    /// state, spend the freed wires, park what is left, evaluate), and
    /// every rebalance candidate's bound at most the exact cost of its
    /// widths — exactly that cost for `InTestOnly`.
    #[test]
    fn merge_and_rebalance_bounds_are_admissible() {
        forall(
            "merge_and_rebalance_bounds_are_admissible",
            cases(32),
            |g| {
                let soc = random_soc(g, 9);
                let max_width = g.u32_in(8, 65);
                let groups = random_groups(g, &soc);
                let optimizers = [Objective::Total, Objective::InTestOnly].map(|objective| {
                    TamOptimizer::new(&soc, max_width, groups.clone())
                        .expect("valid")
                        .objective(objective)
                });
                let mut rails = TestRailArchitecture::one_rail_per_core(&soc)
                    .rails()
                    .to_vec();
                spread(g, &mut rails, max_width - soc.num_cores() as u32);
                loop {
                    let r1 = g.usize_in(0, rails.len());
                    for optimizer in &optimizers {
                        check_bounds(optimizer, &rails, r1);
                    }
                    if rails.len() < 2 || g.bool_with(0.25) {
                        break;
                    }
                    random_merge(g, &mut rails);
                }
            },
        );
    }

    /// Random SOCs of 3–10 cores at `W_max` 8–128, for both objectives:
    /// every merge candidate the optimizer builds (its bound is below
    /// the current cost) reads the same cost off its state as the rails
    /// the merge commits for it cost once `park_wires` has run. The wide
    /// budgets leave freed wires no strict drop absorbs, so commits
    /// park, and parking must not change a cost.
    #[test]
    fn merges_commit_what_their_probes_priced() {
        let mut parked = 0;
        forall("merges_commit_what_their_probes_priced", cases(32), |g| {
            let soc = random_soc(g, 11);
            let max_width = g.u32_in(8, 129);
            let groups = random_groups(g, &soc);
            let optimizers = [Objective::Total, Objective::InTestOnly].map(|objective| {
                TamOptimizer::new(&soc, max_width, groups.clone())
                    .expect("valid")
                    .objective(objective)
            });
            // One rail per core, merged at width 1 until the budget fits.
            let mut rails = TestRailArchitecture::one_rail_per_core(&soc)
                .rails()
                .to_vec();
            while rails.len() > max_width as usize {
                let i = g.usize_in(0, rails.len() - 1);
                rails = merged_rails(&rails, rails.len() - 1, i, 1);
            }
            let spare = max_width - rails.len() as u32;
            spread(g, &mut rails, spare);
            loop {
                let r1 = g.usize_in(0, rails.len());
                for optimizer in &optimizers {
                    let current = optimizer.cost(&rails);
                    let (candidates, prefetch) = prefetched(optimizer, &rails, r1, current);
                    for &(i, w, bound) in &candidates {
                        if bound >= current {
                            continue;
                        }
                        let (priced, committed, parks) =
                            build_and_commit(optimizer, &rails, r1, prefetch.as_ref(), (i, w));
                        assert_eq!(
                            priced, committed,
                            "{:?} merge ({r1}, {i}, {w}) parked: {parks}",
                            optimizer.objective
                        );
                        parked += usize::from(parks);
                    }
                }
                if rails.len() < 2 || g.bool_with(0.25) {
                    break;
                }
                random_merge(g, &mut rails);
            }
        });
        assert!(
            parked > 0,
            "no commit parked wires: the parking tail went untested"
        );
    }
}
