//! Architecture evaluation: InTest times, SI test times
//! (`CalculateSITestTime`) and the combined objective.
//!
//! Evaluation is *compositional*: each rail contributes an independent
//! [`RailEval`] (its InTest time plus its per-group shift sums), and an
//! architecture evaluation is a cheap reduction over its rails'
//! components. Because the optimizer's moves change only one or two
//! rails at a time, components are memoized by rail fingerprint and
//! moves are priced on one incremental [`SwapState`]: a probe or an
//! accepted move is a short list of [`RailEdit`]s that patches only the
//! group rows the edited rails touch, and none at all in a state seeded
//! for [`Objective::InTestOnly`], whose cost never reads `T_soc^si`.
//! Everything read off the state is bit-identical to
//! [`Evaluator::evaluate`], the from-scratch referee (see DESIGN.md §12).

use std::sync::{Arc, OnceLock};

use soctam_exec::{fault, fx_fingerprint128, FpKey, MemoCache, Metrics};
use soctam_model::{CoreId, Soc};
use soctam_wrapper::{TimeTable, MAX_TAM_WIDTH};

use crate::schedule::{schedule_si_tests, SiSchedule};
use crate::{Objective, TamError, TestRail, TestRailArchitecture};

/// Cache shard count; evaluation keys hash cheaply, contention is low.
const CACHE_SHARDS: usize = 16;

/// Checks a TAM width budget against `1..=`[`MAX_TAM_WIDTH`].
///
/// # Errors
///
/// [`TamError::ZeroWidthBudget`] when `max_width == 0`;
/// [`TamError::WidthBudgetTooLarge`] when `max_width > MAX_TAM_WIDTH`.
pub fn check_width_budget(max_width: u32) -> Result<(), TamError> {
    if max_width == 0 {
        return Err(TamError::ZeroWidthBudget);
    }
    if max_width > MAX_TAM_WIDTH {
        return Err(TamError::WidthBudgetTooLarge {
            width: max_width,
            max: MAX_TAM_WIDTH,
        });
    }
    Ok(())
}

/// The checks every evaluator runs on its context: the width budget,
/// and that every SI group names cores of `soc` only.
pub(crate) fn check_context(
    soc: &Soc,
    max_width: u32,
    groups: &[SiGroupSpec],
) -> Result<(), TamError> {
    check_width_budget(max_width)?;
    for group in groups {
        for &core in group.cores() {
            if core.index() >= soc.num_cores() {
                return Err(TamError::CoreOutOfRange {
                    core,
                    cores: soc.num_cores(),
                });
            }
        }
    }
    Ok(())
}

/// Cache namespace: per-rail components keyed by rail fingerprint.
const SPACE_RAIL: u8 = 0;
/// Cache namespace: assembled evaluations keyed by architecture
/// fingerprint.
const SPACE_ARCH: u8 = 1;
/// Cache namespace: [`RailStaircases`] keyed by core-set fingerprint.
const SPACE_USED: u8 = 2;
/// Cache namespace: the committed rails of finished optimizer search
/// legs, keyed by (objective, start perturbation); see
/// [`Evaluator::search_cached`].
const SPACE_SEARCH: u8 = 3;
/// Cache namespace: objective costs of speculative wire
/// redistributions, keyed by (candidate rails, freed wires, objective).
const SPACE_DIST: u8 = 4;
/// Cache namespace: compacted SI group lists, keyed by the caller's
/// fingerprint of everything generation and compaction read (see
/// [`EvalCache::groups`]). The only namespace an [`Evaluator`] never
/// touches: its values are the input evaluators are built from.
const SPACE_GROUPS: u8 = 5;

/// One value of the shared evaluation store. All six logical caches
/// (rail components, assembled architectures, staircases,
/// redistribution costs, finished searches, compacted group lists)
/// live in a single sharded [`MemoCache`], disambiguated by the
/// [`FpKey`] namespace tag.
#[derive(Clone, Debug)]
enum Cached {
    Rail(Arc<RailEval>),
    Arch(Arc<Evaluation>),
    Used(Arc<RailStaircases>),
    Cost(u64),
    /// A thin `Arc<Vec<_>>`, not a fat `Arc<[_]>`: the wider pointer
    /// would widen every slot of the store, 48 → 64 bytes.
    Search(Arc<Vec<TestRail>>),
    /// Thin for the same reason.
    Groups(Arc<Vec<SiGroupSpec>>),
}

// Every slot of the store holds one `Cached`: keep it two words.
const _: () = assert!(std::mem::size_of::<Cached>() <= 2 * std::mem::size_of::<u64>());

/// A shareable evaluation store, usable across many [`Evaluator`]s —
/// and, in `soctam-serve`, across many requests: every key an
/// evaluator issues is mixed with a fingerprint of its full evaluation
/// context (SOC, width budget, SI groups), so evaluators with
/// different contexts can share one warm store without aliasing while
/// identical contexts get cross-run cache hits. The same store also
/// memoizes compacted SI group lists for the pipeline
/// ([`EvalCache::groups`]), so a repeated request skips pattern
/// generation and compaction.
///
/// Cheap to clone (an `Arc` handle). An optional capacity bound evicts
/// the oldest entries FIFO so a long-running service cannot grow
/// without limit; eviction only costs recomputation, never changes
/// results.
#[derive(Clone, Debug)]
pub struct EvalCache {
    store: Arc<MemoCache<FpKey, Cached>>,
}

impl Default for EvalCache {
    fn default() -> Self {
        Self::new()
    }
}

impl EvalCache {
    /// Shard count for shared stores: higher than the per-run default
    /// because many concurrent requests may hit one store.
    const SHARED_SHARDS: usize = 64;

    /// Creates an unbounded shared store.
    pub fn new() -> Self {
        EvalCache {
            store: Arc::new(MemoCache::new(Self::SHARED_SHARDS)),
        }
    }

    /// Creates a shared store holding at most `capacity` entries, or
    /// an unbounded one when `capacity` is 0. Beyond the bound the
    /// oldest entries are evicted (FIFO), each counted into `metrics`.
    /// Hits and misses are counted by the store's users, never by the
    /// store.
    pub fn with_capacity_and_metrics(capacity: usize, metrics: Arc<Metrics>) -> Self {
        if capacity == 0 {
            return Self::new();
        }
        EvalCache {
            store: Arc::new(MemoCache::bounded_with_metrics(
                Self::SHARED_SHARDS,
                capacity,
                metrics,
            )),
        }
    }

    /// The compacted SI group list memoized under `key`, if present.
    /// `key` must fingerprint every input the list was computed from
    /// (the pipeline's key covers the SOC contents, the pattern
    /// generator's and the compactor's configurations).
    pub fn groups(&self, key: u128) -> Option<Arc<Vec<SiGroupSpec>>> {
        match self.store.get(&FpKey::new(SPACE_GROUPS, key)) {
            Some(Cached::Groups(groups)) => Some(groups),
            _ => None,
        }
    }

    /// Memoizes `groups` under `key` and returns the stored list
    /// (first insert wins under concurrency).
    pub fn insert_groups(&self, key: u128, groups: Arc<Vec<SiGroupSpec>>) -> Arc<Vec<SiGroupSpec>> {
        match self
            .store
            .get_or_insert_with(FpKey::new(SPACE_GROUPS, key), || {
                Cached::Groups(Arc::clone(&groups))
            }) {
            Cached::Groups(stored) => stored,
            // Namespaces are disjoint: SPACE_GROUPS only stores Groups.
            _ => groups,
        }
    }

    /// Number of live entries across every namespace.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Entries evicted by the capacity bound over the store's lifetime.
    pub fn evictions(&self) -> u64 {
        self.store.evictions()
    }

    /// The configured capacity bound, when one was set.
    pub fn capacity(&self) -> Option<usize> {
        self.store.capacity()
    }

    /// Drops every cached entry.
    pub fn clear(&self) {
        self.store.clear();
    }
}

/// Fingerprint identifying an architecture: the exact rail list (width
/// plus hosted cores, in rail order). Replaces the old `ArchKey`
/// full-key clone (`Vec<(u32, Vec<CoreId>)>` per candidate) with a hash
/// pass.
fn arch_fingerprint(rails: &[TestRail]) -> u128 {
    fx_fingerprint128(&rails)
}

/// The rows of `base` with the sorted `(index, row)` substitutions in
/// `changed` applied, without building the patched vector.
pub(crate) fn patched_rows<'g>(
    base: &'g [SiGroupTime],
    changed: &'g [(usize, SiGroupTime)],
) -> impl Iterator<Item = &'g SiGroupTime> {
    debug_assert!(changed.windows(2).all(|w| w[0].0 < w[1].0));
    let mut pending = changed.iter().peekable();
    base.iter()
        .enumerate()
        .map(move |(g, row)| match pending.next_if(|(cg, _)| *cg == g) {
            Some((_, patched)) => patched,
            None => row,
        })
}

/// A compacted SI test group as the TAM layer sees it: the involved cores
/// and the compacted pattern count (`C(s)` and `pattern(s)` of Fig. 4).
///
/// # Example
///
/// ```
/// use soctam_model::CoreId;
/// use soctam_tam::SiGroupSpec;
///
/// let spec = SiGroupSpec::new(vec![CoreId::new(1), CoreId::new(0)], 250);
/// assert_eq!(spec.cores(), &[CoreId::new(0), CoreId::new(1)]);
/// assert_eq!(spec.patterns(), 250);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SiGroupSpec {
    cores: Vec<CoreId>,
    patterns: u64,
}

impl SiGroupSpec {
    /// Creates a group spec; cores are sorted and deduplicated.
    pub fn new(mut cores: Vec<CoreId>, patterns: u64) -> Self {
        cores.sort_unstable();
        cores.dedup();
        SiGroupSpec { cores, patterns }
    }

    /// The involved cores, sorted.
    pub fn cores(&self) -> &[CoreId] {
        &self.cores
    }

    /// The compacted pattern count.
    pub fn patterns(&self) -> u64 {
        self.patterns
    }

    /// Builds the scheduling specs for every group of a compaction result,
    /// in group order (remainder last when present).
    pub fn from_compacted(compacted: &soctam_compaction::CompactedSiTests) -> Vec<SiGroupSpec> {
        compacted.groups().iter().map(SiGroupSpec::from).collect()
    }
}

impl From<&soctam_compaction::SiTestGroup> for SiGroupSpec {
    fn from(group: &soctam_compaction::SiTestGroup) -> Self {
        SiGroupSpec::new(group.cores().to_vec(), group.pattern_count())
    }
}

/// Timing of one SI test group under a concrete architecture (the output
/// of `CalculateSITestTime`).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SiGroupTime {
    /// `time_si(s)`: the bottleneck rail's total shift time.
    pub time: u64,
    /// Indices of the rails involved (`R_tam(s)`), sorted.
    pub rails: Vec<usize>,
    /// Index of the bottleneck rail (`r_btn(s)`), or `usize::MAX` when the
    /// group involves no rail (all cores have zero WOCs).
    pub bottleneck_rail: usize,
}

/// Per-rail evaluation component: everything one rail contributes to an
/// architecture evaluation, independent of the other rails. Memoized by
/// rail fingerprint, so a rail that survives an optimizer move (or
/// recurs across candidates and restarts) is never re-evaluated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RailEval {
    /// `time_in(r)`: the rail's InTest time.
    pub t_in: u64,
    /// The TAM width the component was computed at.
    pub width: u32,
    /// Fingerprint of the hosted core list ([`fx_fingerprint128`]);
    /// together with `width` this identifies the component.
    pub cores_fp: u128,
    /// Sparse per-group shift sums: `(group index, Σ cycles)` for every
    /// group in which this rail's cores shift a nonzero number of
    /// cycles, ascending by group index. This is the rail's column of
    /// the `CalculateSITestTime` table.
    pub group_shift: Vec<(u32, u64)>,
    /// `time_si(r)`: the saturating sum of `group_shift`'s cycles —
    /// precomputed so the probe hot path charges the rail's utilized SI
    /// time without re-folding the column.
    pub si_sum: u64,
}

/// The width→time staircases of one core set: entry `w - 1` of each is
/// the value a rail hosting the set takes at width `w`, for every width
/// `1..=max_width`. Both are sums over the cores, so the staircase of a
/// union of disjoint core sets is the pointwise saturating sum of
/// theirs, and both are non-increasing in width (the premise the
/// optimizer's bounds rest on, see DESIGN.md §12.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RailStaircases {
    /// `time_used = time_in + time_si`, the SI shift work counted with
    /// every group's pattern count. Wire distribution and rebalancing
    /// read their drop points and donors from it.
    pub used: Vec<u64>,
    /// `time_in`: at every width exactly the `t_in` of the rail's
    /// [`RailEval`].
    pub intest: Vec<u64>,
}

/// Complete timing evaluation of one architecture.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Evaluation {
    /// Per-rail InTest time (`time_in(r)`).
    pub rail_time_in: Vec<u64>,
    /// Per-rail utilized SI time (`time_si(r)`: the rail's own shift work
    /// summed over all groups that involve it).
    pub rail_time_si: Vec<u64>,
    /// Per-group SI timing.
    pub group_times: Vec<SiGroupTime>,
    /// The SI schedule produced by Algorithm 1.
    pub schedule: SiSchedule,
    /// `T_soc^in`: the maximum per-rail InTest time.
    pub t_in: u64,
    /// `T_soc^si`: the SI schedule makespan.
    pub t_si: u64,
    /// The per-rail components the evaluation was assembled from, in
    /// rail order. [`Evaluator::swap_state`] seeds its state from them.
    pub rail_evals: Vec<Arc<RailEval>>,
}

/// The cost summary of a [`SwapState`] with a list of edits applied,
/// produced by [`Evaluator::state_cost`] without materializing a full
/// [`Evaluation`]. Each field is bit-identical to the corresponding
/// quantity of the evaluation of the edited rail list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeltaCost {
    /// `T_soc^in` of the candidate.
    pub t_in: u64,
    /// `T_soc^si` of the candidate, or `None` from a state seeded for
    /// [`Objective::InTestOnly`], which never schedules the SI tests.
    pub t_si: Option<u64>,
    /// `Σ_r time_used(r)`, saturating at `u64::MAX` — the secondary key
    /// wire rebalancing breaks ties with (equals
    /// [`Evaluation::rail_used_sum`]).
    pub rail_used_sum: u64,
}

/// One edit of a [`SwapState`]: `(rail, Some(component))` replaces the
/// rail's component, `(rail, None)` removes the rail, and every other
/// rail keeps its label. A width swap is one edit, a core move two, and
/// a merge `[(target, Some(merged)), (dead, None)]`; an edit list names
/// each rail at most once.
pub type RailEdit<'c> = (usize, Option<&'c Arc<RailEval>>);

/// The incremental evaluation state: an architecture's per-rail
/// components plus the reductions that price an edit without
/// re-assembling the architecture — the top-two per-rail InTest times
/// (so the max excluding any one rail is O(1)) and the exact
/// utilized-time sum, and, in a state seeded for [`Objective::Total`],
/// the SI half: the per-group transpose of the rails' sparse shift
/// columns (each row ascending by rail index, as the group walk visits
/// them) with its top-two, and the group-times vector and makespan. A
/// state seeded for [`Objective::InTestOnly`] has no SI half, so its
/// probes never patch a group row or run Algorithm 1.
/// [`Evaluator::state_cost`] prices a list of [`RailEdit`]s read-only,
/// so concurrent probes share one state; [`Evaluator::state_apply`]
/// accepts them in place.
///
/// Rail indices keep the labels of the evaluation the state was seeded
/// from: a removed rail leaves a `None` hole so every surviving rail
/// keeps its label. The quantities read out of the state (`T_soc^in`,
/// `T_soc^si`, `Σ time_used`) are label-invariant — the scheduler
/// consumes only group times and rail *sharing*, which any relabeling
/// preserves — so they are bit-identical to those of the compacted
/// rail list the optimizer would otherwise materialize.
#[derive(Clone, Debug)]
pub struct SwapState {
    comps: Vec<Option<Arc<RailEval>>>,
    t_in_max: u64,
    t_in_argmax: usize,
    t_in_second: u64,
    /// `Σ_r time_used(r)` over the live rails, kept exact so edits can
    /// subtract what they replace.
    used_sum: u128,
    /// The SI half, present only when the objective reads `T_soc^si`.
    si: Option<SiRows>,
}

/// The SI half of a [`SwapState`]: what pricing `T_soc^si` needs.
#[derive(Clone, Debug)]
struct SiRows {
    rows: Vec<Vec<(usize, u64)>>,
    /// Per-group `(max, argmax, second-max, second-argmax)` over the
    /// transpose row, from [`row_reduction`].
    tops: Vec<(u64, usize, u64, usize)>,
    group_times: Vec<SiGroupTime>,
    t_si: u64,
}

impl SwapState {
    /// `T_soc^in` of the state's architecture.
    pub fn t_in(&self) -> u64 {
        self.t_in_max
    }

    /// `T_soc^si` of the state's architecture, or `None` when the state
    /// was seeded for [`Objective::InTestOnly`].
    pub fn t_si(&self) -> Option<u64> {
        self.si.as_ref().map(|si| si.t_si)
    }

    /// The current component of rail `i`, or `None` for a removed rail.
    pub fn component(&self, i: usize) -> Option<&RailEval> {
        self.comps[i].as_deref()
    }

    /// The per-group SI timing of the state's architecture, naming
    /// rails by their state labels, or `None` when the state was seeded
    /// for [`Objective::InTestOnly`].
    pub fn group_times(&self) -> Option<&[SiGroupTime]> {
        self.si.as_ref().map(|si| si.group_times.as_slice())
    }

    /// `T_soc^in` with `edits` applied: O(1) through the top-two for a
    /// single edit, one scan over the rails otherwise.
    fn t_in_with(&self, edits: &[RailEdit<'_>]) -> u64 {
        if let [(i, new)] = edits {
            let others = if self.t_in_argmax == *i {
                self.t_in_second
            } else {
                self.t_in_max
            };
            return new.map_or(others, |comp| comp.t_in.max(others));
        }
        (0..self.comps.len())
            .filter_map(|r| match edits.iter().find(|&&(e, _)| e == r) {
                Some(&(_, new)) => new.map(|comp| comp.t_in),
                None => self.comps[r].as_ref().map(|comp| comp.t_in),
            })
            .max()
            .unwrap_or(0)
    }

    /// The exact `Σ time_used` with `edits` applied.
    fn used_sum_with(&self, edits: &[RailEdit<'_>]) -> u128 {
        edits.iter().fold(self.used_sum, |sum, &(r, new)| {
            sum - self.comps[r].as_deref().map_or(0, used_of) + new.map_or(0, |comp| used_of(comp))
        })
    }

    /// Rebuilds the top-two InTest reduction after a component change,
    /// with the first-strict-maximum argmax tie-break.
    fn recompute_t_in(&mut self) {
        let (mut max, mut argmax, mut second) = (0u64, usize::MAX, 0u64);
        for (r, comp) in self.comps.iter().enumerate() {
            let Some(comp) = comp else { continue };
            if comp.t_in > max {
                second = max;
                max = comp.t_in;
                argmax = r;
            } else if comp.t_in > second {
                second = comp.t_in;
            }
        }
        self.t_in_max = max;
        self.t_in_argmax = argmax;
        self.t_in_second = second;
    }
}

impl SiRows {
    /// The rows a probe of `edits` on the rails `comps` changes,
    /// ascending by group, without touching the state: a row is rebuilt
    /// only where [`keeps_timing`] cannot rule a change out.
    fn probe_rows(
        &self,
        comps: &[Option<Arc<RailEval>>],
        edits: &[RailEdit<'_>],
    ) -> Vec<(usize, SiGroupTime)> {
        let mut changed = Vec::new();
        for_each_touched(comps, edits, |g, kept| {
            let base = &self.group_times[g];
            if !kept.is_some_and(|(i, cycles)| keeps_timing(self.tops[g], base, i, cycles)) {
                self.probe_row(edits, g, &mut changed);
            }
        });
        changed
    }

    /// Rebuilds group `g`'s row with `edits` applied and records it in
    /// `changed` when its timing differs. Kept out of line so that the
    /// walk's per-group visitor in [`SiRows::probe_rows`] stays small
    /// enough to inline, which the merge probes' hot loop measurably
    /// depends on.
    #[inline(never)]
    fn probe_row(&self, edits: &[RailEdit<'_>], g: usize, changed: &mut Vec<(usize, SiGroupTime)>) {
        let mut row = self.rows[g].clone();
        patch_row(&mut row, edits, g);
        let (_, row_time) = row_reduction(&row);
        if row_time != self.group_times[g] {
            changed.push((g, row_time));
        }
    }
}

/// `time_used(r) = time_in(r) + time_si(r)` of one component, widened
/// so that sums of it are exact.
fn used_of(comp: &RailEval) -> u128 {
    u128::from(comp.t_in.saturating_add(comp.si_sum))
}

/// One pass over a transpose row: its top-two reduction and its
/// [`SiGroupTime`]. `argmax` is the lowest rail index holding the
/// maximum (the first-strict-maximum tie-break of
/// [`Evaluator::evaluate`]'s group walk), `second` the maximum over the
/// remaining rails.
fn row_reduction(row: &[(usize, u64)]) -> ((u64, usize, u64, usize), SiGroupTime) {
    let (mut m1, mut r1, mut m2, mut r2) = (0u64, usize::MAX, 0u64, usize::MAX);
    let mut rails = Vec::with_capacity(row.len());
    for &(r, cycles) in row {
        if cycles > m1 {
            (m2, r2) = (m1, r1);
            (m1, r1) = (cycles, r);
        } else if cycles > m2 {
            (m2, r2) = (cycles, r);
        }
        rails.push(r);
    }
    (
        (m1, r1, m2, r2),
        SiGroupTime {
            time: m1,
            rails,
            bottleneck_rail: r1,
        },
    )
}

/// Applies `edits` to group `g`'s transpose row, one edited rail at a
/// time: its entry takes the replacement component's cycles in `g`,
/// leaves when it has none, or enters at its rail's position, so the
/// row stays ascending by rail.
fn patch_row(row: &mut Vec<(usize, u64)>, edits: &[RailEdit<'_>], g: usize) {
    for &(r, new) in edits {
        let cycles = new.and_then(|comp| {
            let col = &comp.group_shift;
            let k = col.binary_search_by_key(&g, |&(cg, _)| cg as usize).ok()?;
            Some(col[k].1)
        });
        let at = row.partition_point(|&(x, _)| x < r);
        match (row.get(at).is_some_and(|&(x, _)| x == r), cycles) {
            (true, Some(cycles)) => row[at].1 = cycles,
            (true, None) => {
                row.remove(at);
            }
            (false, Some(cycles)) => row.insert(at, (r, cycles)),
            (false, None) => {}
        }
    }
}

/// The group walk behind [`Evaluator::state_cost`] and
/// [`Evaluator::state_apply`]: calls `visit(g, kept)` for every group
/// whose transpose row `edits` change, ascending. A single edit that
/// replaces a live rail walks the union of its old and new columns,
/// skips groups whose cycles did not change (all of them on a width
/// plateau) and passes `kept = Some((rail, new cycles))` where the rail
/// stays a member. Any other edit list visits every group its old and
/// new columns touch, with `kept = None`.
fn for_each_touched(
    comps: &[Option<Arc<RailEval>>],
    edits: &[RailEdit<'_>],
    mut visit: impl FnMut(usize, Option<(usize, u64)>),
) {
    if let [(i, Some(new))] = edits {
        if let Some(old) = comps[*i].as_deref() {
            let (old, new) = (&old.group_shift, &new.group_shift);
            if old == new {
                return;
            }
            let (mut a, mut b) = (0usize, 0usize);
            loop {
                let (g, old_c, new_c) = match (old.get(a), new.get(b)) {
                    (None, None) => return,
                    (Some(&(ga, ca)), Some(&(gb, cb))) if ga == gb => (ga, Some(ca), Some(cb)),
                    (Some(&(ga, ca)), Some(&(gb, _))) if ga < gb => (ga, Some(ca), None),
                    (Some(&(ga, ca)), None) => (ga, Some(ca), None),
                    (_, Some(&(gb, cb))) => (gb, None, Some(cb)),
                };
                a += usize::from(old_c.is_some());
                b += usize::from(new_c.is_some());
                if old_c != new_c {
                    visit(g as usize, old_c.and(new_c).map(|cycles| (*i, cycles)));
                }
            }
        }
    }
    let mut groups: Vec<u32> = Vec::new();
    for &(r, new) in edits {
        for comp in comps[r].iter().chain(new) {
            groups.extend(comp.group_shift.iter().map(|&(g, _)| g));
        }
    }
    groups.sort_unstable();
    groups.dedup();
    for g in groups {
        visit(g as usize, None);
    }
}

/// Whether giving rail `i` `cycles` in a group it stays a member of
/// keeps the group's time and bottleneck, decided in O(1) from the
/// row's top-two `tops` against its current timing `base`: the max
/// over the other rails, then the new cycles, ties resolving to the
/// lowest rail index.
fn keeps_timing(tops: (u64, usize, u64, usize), base: &SiGroupTime, i: usize, cycles: u64) -> bool {
    let (m1, r1, m2, r2) = tops;
    let (excl_max, excl_arg) = if r1 == i { (m2, r2) } else { (m1, r1) };
    let (time, bottleneck) = if cycles > excl_max {
        (cycles, i)
    } else if cycles == excl_max {
        (excl_max, excl_arg.min(i))
    } else {
        (excl_max, excl_arg)
    };
    time == base.time && bottleneck == base.bottleneck_rail
}

impl Evaluation {
    /// The combined objective `T_soc = T_soc^in + T_soc^si`. Saturates at
    /// `u64::MAX` for degenerate inputs instead of overflowing.
    pub fn t_total(&self) -> u64 {
        self.t_in.saturating_add(self.t_si)
    }

    /// `time_used(r) = time_in(r) + time_si(r)` for every rail.
    pub fn rail_time_used(&self) -> Vec<u64> {
        self.rail_time_in
            .iter()
            .zip(&self.rail_time_si)
            .map(|(a, b)| a.saturating_add(*b))
            .collect()
    }

    /// `Σ_r time_used(r)`, saturating at `u64::MAX`: the secondary key
    /// wire rebalancing breaks ties with.
    pub fn rail_used_sum(&self) -> u64 {
        self.rail_time_used()
            .into_iter()
            .fold(0u64, u64::saturating_add)
    }
}

/// Evaluates TestRail architectures for one SOC and one fixed set of SI
/// test groups, with every core's wrapper times tabulated up front.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use soctam_model::Benchmark;
/// use soctam_tam::{Evaluator, SiGroupSpec, TestRailArchitecture};
///
/// let soc = Benchmark::D695.soc();
/// let groups = vec![SiGroupSpec::new(soc.core_ids().collect(), 100)];
/// let evaluator = Evaluator::new(&soc, 16, groups)?;
/// let arch = TestRailArchitecture::single_rail(&soc, 16)?;
/// let eval = evaluator.evaluate(&arch);
/// assert_eq!(eval.t_total(), eval.t_in + eval.t_si);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Evaluator<'a> {
    soc: &'a Soc,
    /// Built on first read and shared with every
    /// [`fork`](Evaluator::fork): a request whose legs all come from
    /// the search memo never reads it, so it never pays for it.
    table: Arc<OnceLock<TimeTable>>,
    max_width: u32,
    groups: Vec<SiGroupSpec>,
    /// Per core: `Σ_{s ∋ c} patterns(s)` — the total SI pattern load the
    /// core's wrapper must shift across all groups.
    core_si_weight: Vec<u64>,
    /// Per core: the sorted indices of the groups involving it — the
    /// rail→groups index (built once on ingestion) that lets a rail
    /// component visit only the groups its cores participate in.
    core_groups: Vec<Vec<u32>>,
    /// Shared store for the five evaluation namespaces (rail
    /// components, assembled architectures, staircases, redistribution
    /// costs, finished searches), keyed by namespaced
    /// fingerprint. The optimizer revisits the same rails
    /// and candidate architectures constantly (merge sweeps, wire
    /// redistribution, sort passes); evaluation is pure, so results are
    /// shared. May be a private per-run store or a shared [`EvalCache`]
    /// serving many evaluators (see [`Evaluator::attach_cache`]).
    cache: Arc<MemoCache<FpKey, Cached>>,
    /// True when `cache` is a shared [`EvalCache`]; a shared store is
    /// never cleared by this evaluator's bookkeeping.
    cache_shared: bool,
    /// Fingerprint of the full evaluation context (SOC contents, width
    /// budget, SI groups), mixed into every cache key so evaluators
    /// with different contexts can share one store without aliasing.
    ctx_fp: u128,
    /// Optional sink for the per-namespace hit/miss and schedule-reuse
    /// counters (the CLI `--stats` report).
    metrics: Option<Arc<Metrics>>,
}

impl<'a> Evaluator<'a> {
    /// Builds an evaluator for architectures of rail width up to
    /// `max_width`.
    ///
    /// # Errors
    ///
    /// [`TamError::ZeroWidthBudget`] when `max_width == 0`;
    /// [`TamError::WidthBudgetTooLarge`] when `max_width` exceeds
    /// [`MAX_TAM_WIDTH`]; [`TamError::CoreOutOfRange`] when a group
    /// references a core the SOC does not have.
    pub fn new(soc: &'a Soc, max_width: u32, groups: Vec<SiGroupSpec>) -> Result<Self, TamError> {
        check_context(soc, max_width, &groups)?;
        let mut core_si_weight = vec![0u64; soc.num_cores()];
        let mut core_groups = vec![Vec::new(); soc.num_cores()];
        for (g, group) in groups.iter().enumerate() {
            for &core in group.cores() {
                let w = &mut core_si_weight[core.index()];
                *w = w.saturating_add(group.patterns());
                // Group cores are deduplicated and groups are visited
                // in ascending order, so each list stays sorted.
                // soctam-analyze: allow(ARITH-01) -- g enumerates SI groups, whose ids are u32 by construction
                core_groups[core.index()].push(g as u32);
            }
        }
        // The context fingerprint covers everything a cached value can
        // depend on: the SOC's full contents (its name and every core
        // spec), the width budget and the ordered SI group list.
        let ctx_fp = fx_fingerprint128(&(soc, max_width, &groups));
        Ok(Evaluator {
            soc,
            table: Arc::new(OnceLock::new()),
            max_width,
            groups,
            core_si_weight,
            core_groups,
            cache: Arc::new(MemoCache::new(CACHE_SHARDS)),
            cache_shared: false,
            ctx_fp,
            metrics: None,
        })
    }

    /// Counts cache hits, misses, rail-eval and schedule-reuse events
    /// into `metrics` (typically a pool's [`Metrics`]) from now on.
    /// Call before evaluating; a private per-run store is cleared so
    /// the counters cover the whole run, a shared [`EvalCache`] is left
    /// warm.
    pub fn attach_metrics(&mut self, metrics: Arc<Metrics>) {
        self.metrics = Some(metrics);
        if !self.cache_shared {
            self.cache.clear();
        }
    }

    /// Serves every cache lookup from `cache`, a store that may be
    /// shared with other evaluators (and, in a long-running service,
    /// with other requests). Keys are mixed with this evaluator's
    /// context fingerprint, so a shared store is safe across different
    /// SOCs, width budgets and group sets — and identical contexts get
    /// warm cross-run hits. Results stay bit-identical either way.
    pub fn attach_cache(&mut self, cache: &EvalCache) {
        self.cache = Arc::clone(&cache.store);
        self.cache_shared = true;
    }

    /// A second evaluator over the same context sharing this one's memo
    /// store and time table. The fork skips the full construction pass
    /// (SOC fingerprinting) by cloning the ingested state, shares the
    /// time table whichever evaluator builds it first, and — because
    /// the context fingerprint is identical — every rail component,
    /// staircase and finished search either evaluator computes is
    /// immediately visible to the other. Objective-dependent
    /// entries carry the objective in their caller-side fingerprint, so
    /// forks running different objectives cannot alias.
    pub(crate) fn fork(&self) -> Evaluator<'a> {
        Evaluator {
            soc: self.soc,
            table: Arc::clone(&self.table),
            max_width: self.max_width,
            groups: self.groups.clone(),
            core_si_weight: self.core_si_weight.clone(),
            core_groups: self.core_groups.clone(),
            cache: Arc::clone(&self.cache),
            cache_shared: self.cache_shared,
            ctx_fp: self.ctx_fp,
            metrics: self.metrics.clone(),
        }
    }

    /// The cache key for `fp` in `space`, mixed with the context
    /// fingerprint. XOR keeps per-context collision odds identical to
    /// the raw fingerprint's while separating contexts from each other.
    fn cache_key(&self, space: u8, fp: u128) -> FpKey {
        FpKey::new(space, fp ^ self.ctx_fp)
    }

    /// Counts a lookup that `found` its value (`hit`) or not (`miss`)
    /// into the attached metrics, and passes the value through.
    fn counted<T>(&self, found: Option<T>, hit: fn(&Metrics), miss: fn(&Metrics)) -> Option<T> {
        if let Some(m) = &self.metrics {
            if found.is_some() {
                hit(m);
            } else {
                miss(m);
            }
        }
        found
    }

    /// [`Evaluator::evaluate`] of a rail list through the memo cache:
    /// rail lists with the same fingerprint share one evaluation. Takes
    /// a bare rail slice (the optimizer's candidate representation), so
    /// no architecture needs to be constructed to probe the cache. Safe
    /// for concurrent use; evaluation is a pure function of the rails,
    /// so racing computations produce identical values.
    pub fn evaluate_cached(&self, rails: &[TestRail]) -> Arc<Evaluation> {
        let key = self.cache_key(SPACE_ARCH, arch_fingerprint(rails));
        let found = match self.cache.get(&key) {
            Some(Cached::Arch(eval)) => Some(eval),
            _ => None,
        };
        if let Some(eval) = self.counted(found, Metrics::count_cache_hit, Metrics::count_cache_miss)
        {
            return eval;
        }
        let eval = Arc::new(self.evaluate_rails(rails));
        self.insert_arch(key, eval)
    }

    /// Seeds a [`SwapState`] from `base` for pricing moves under
    /// `objective`; its labels are `base`'s rail indices. Only an
    /// [`Objective::Total`] state carries the SI half: an
    /// [`Objective::InTestOnly`] cost never reads `T_soc^si`, so its
    /// probes skip the group rows and Algorithm 1 altogether.
    pub fn swap_state(&self, base: &Evaluation, objective: Objective) -> SwapState {
        let si = (objective == Objective::Total).then(|| {
            let mut rows: Vec<Vec<(usize, u64)>> = vec![Vec::new(); self.groups.len()];
            for (r, comp) in base.rail_evals.iter().enumerate() {
                for &(g, cycles) in &comp.group_shift {
                    rows[g as usize].push((r, cycles));
                }
            }
            let (tops, group_times): (Vec<_>, Vec<_>) =
                rows.iter().map(|row| row_reduction(row)).unzip();
            debug_assert_eq!(group_times, base.group_times);
            SiRows {
                rows,
                tops,
                group_times,
                t_si: base.t_si,
            }
        });
        let mut st = SwapState {
            comps: base.rail_evals.iter().cloned().map(Some).collect(),
            t_in_max: 0,
            t_in_argmax: usize::MAX,
            t_in_second: 0,
            used_sum: base.rail_evals.iter().map(|comp| used_of(comp)).sum(),
            si,
        };
        st.recompute_t_in();
        st
    }

    /// The cost of `st` with `edits` applied, read-only so concurrent
    /// probes can share one state. A single width edit costs
    /// O(groups the rail touches) and allocates nothing when the
    /// schedule is reused; see the private `for_each_touched`. A state
    /// without the SI half costs O(1) per single edit and O(rails)
    /// otherwise.
    ///
    /// # Panics
    ///
    /// Panics if an edited rail is not a label of `st`.
    pub fn state_cost(&self, st: &SwapState, edits: &[RailEdit<'_>]) -> DeltaCost {
        DeltaCost {
            t_in: st.t_in_with(edits),
            t_si: st.si.as_ref().map(|si| {
                let changed = si.probe_rows(&st.comps, edits);
                self.t_si_patched(&si.group_times, si.t_si, &changed)
            }),
            rail_used_sum: u64::try_from(st.used_sum_with(edits)).unwrap_or(u64::MAX),
        }
    }

    /// Accepts `edits` on `st`, patching every reduction in place. The
    /// state then reads exactly what [`Evaluator::state_cost`] returned
    /// for the same edits.
    ///
    /// # Panics
    ///
    /// Panics if an edited rail is not a label of `st`.
    pub fn state_apply(&self, st: &mut SwapState, edits: &[RailEdit<'_>]) {
        st.used_sum = st.used_sum_with(edits);
        if let Some(si) = st.si.as_mut() {
            let mut changed = Vec::new();
            for_each_touched(&st.comps, edits, |g, _| {
                patch_row(&mut si.rows[g], edits, g);
                let (tops, row_time) = row_reduction(&si.rows[g]);
                si.tops[g] = tops;
                if row_time != si.group_times[g] {
                    changed.push((g, row_time));
                }
            });
            si.t_si = self.t_si_patched(&si.group_times, si.t_si, &changed);
            for (g, row) in changed {
                si.group_times[g] = row;
            }
        }
        for &(r, new) in edits {
            st.comps[r] = new.cloned();
        }
        st.recompute_t_in();
    }

    /// `T_soc^si` of `group_times` with the sorted `changed` rows
    /// substituted: `t_si` itself when no row changed, else the
    /// Algorithm 1 makespan read through the substitution — never a
    /// schedule, never the patched vector.
    fn t_si_patched(
        &self,
        group_times: &[SiGroupTime],
        t_si: u64,
        changed: &[(usize, SiGroupTime)],
    ) -> u64 {
        if changed.is_empty() {
            if let Some(m) = &self.metrics {
                m.count_schedule_reuse();
            }
            t_si
        } else {
            crate::schedule::makespan(patched_rows(group_times, changed))
        }
    }

    /// Publishes an assembled evaluation under `key`, returning the
    /// store's copy (first insert wins under concurrency).
    fn insert_arch(&self, key: FpKey, eval: Arc<Evaluation>) -> Arc<Evaluation> {
        match self
            .cache
            .get_or_insert_with(key, || Cached::Arch(Arc::clone(&eval)))
        {
            Cached::Arch(stored) => stored,
            // Namespaces are disjoint: SPACE_ARCH only stores Arch.
            _ => eval,
        }
    }

    /// The memoized rail component for (`width`, `cores`): every rail
    /// the optimizer prices comes from here. The key fingerprints the
    /// width and the core list; collision odds are the documented
    /// ~N²/2¹²⁹ of [`fx_fingerprint128`], negligible for any reachable
    /// number of distinct rails.
    pub fn component(&self, width: u32, cores: &[CoreId]) -> Arc<RailEval> {
        let fp = fx_fingerprint128(&(width, fx_fingerprint128(&cores)));
        let key = self.cache_key(SPACE_RAIL, fp);
        let found = match self.cache.get(&key) {
            Some(Cached::Rail(rail_eval)) => Some(rail_eval),
            _ => None,
        };
        let (hit, miss) = (Metrics::count_rail_eval_hit, Metrics::count_rail_eval_miss);
        if let Some(rail_eval) = self.counted(found, hit, miss) {
            return rail_eval;
        }
        let rail_eval = Arc::new(self.compute_rail_eval(width, cores));
        match self
            .cache
            .get_or_insert_with(key, || Cached::Rail(Arc::clone(&rail_eval)))
        {
            Cached::Rail(stored) => stored,
            // Namespaces are disjoint: SPACE_RAIL only stores Rail.
            _ => rail_eval,
        }
    }

    /// Computes one rail's evaluation component from scratch.
    ///
    /// The per-group sums accumulate with the same saturating arithmetic
    /// as the monolithic `CalculateSITestTime` loop did; unsigned
    /// saturating addition of nonnegative terms is order-independent,
    /// so the component — and everything assembled from it — is
    /// bit-identical to the from-scratch result.
    fn compute_rail_eval(&self, width: u32, cores: &[CoreId]) -> RailEval {
        fault::hit("tam.rail_eval");
        let table = self.time_table();
        let t_in = cores
            .iter()
            .map(|&c| table.intest(c, width))
            .fold(0u64, u64::saturating_add);
        let mut shift = vec![0u64; self.groups.len()];
        let mut touched: Vec<u32> = Vec::new();
        for &core in cores {
            let per_pattern = table.si_shift(core, width);
            if per_pattern == 0 {
                continue;
            }
            for &g in &self.core_groups[core.index()] {
                let cycles = self.groups[g as usize]
                    .patterns()
                    .saturating_mul(per_pattern);
                if cycles > 0 {
                    if shift[g as usize] == 0 {
                        touched.push(g);
                    }
                    shift[g as usize] = shift[g as usize].saturating_add(cycles);
                }
            }
        }
        touched.sort_unstable();
        let group_shift: Vec<(u32, u64)> =
            touched.iter().map(|&g| (g, shift[g as usize])).collect();
        let si_sum = group_shift
            .iter()
            .fold(0u64, |acc, &(_, cycles)| acc.saturating_add(cycles));
        RailEval {
            t_in,
            width,
            cores_fp: fx_fingerprint128(&cores),
            group_shift,
            si_sum,
        }
    }

    /// Merges the per-rail sparse group columns into per-group
    /// [`SiGroupTime`] rows, accumulating each rail's utilized SI time
    /// into `rail_time_si`.
    ///
    /// Every component's `group_shift` ascends by group index, so one
    /// cursor per rail walks all columns in a single pass; visiting
    /// rails in ascending index order per group reproduces the
    /// monolithic loop's `rails` ordering and first-strict-maximum
    /// bottleneck tie-break exactly.
    fn group_times_of(
        &self,
        rail_evals: &[Arc<RailEval>],
        rail_time_si: &mut [u64],
    ) -> Vec<SiGroupTime> {
        let mut cursors = vec![0usize; rail_evals.len()];
        let mut group_times = Vec::with_capacity(self.groups.len());
        // soctam-analyze: allow(ARITH-01) -- group count fits u32: group ids are u32 throughout the crate
        for g in 0..self.groups.len() as u32 {
            let mut touched = Vec::new();
            let (mut best_rail, mut best_time) = (usize::MAX, 0u64);
            for (r, comp) in rail_evals.iter().enumerate() {
                let column = &comp.group_shift;
                if cursors[r] < column.len() && column[cursors[r]].0 == g {
                    let cycles = column[cursors[r]].1;
                    cursors[r] += 1;
                    rail_time_si[r] = rail_time_si[r].saturating_add(cycles);
                    if cycles > best_time {
                        best_time = cycles;
                        best_rail = r;
                    }
                    touched.push(r);
                }
            }
            group_times.push(SiGroupTime {
                time: best_time,
                rails: touched,
                bottleneck_rail: best_rail,
            });
        }
        group_times
    }

    /// The memoized objective cost of a speculative wire
    /// redistribution (`SPACE_DIST`), or `None` when not yet computed.
    /// `fp` is the caller's fingerprint of everything the cost depends
    /// on (candidate rails, freed wire count, optimizer objective);
    /// like every cache key it is additionally mixed with this
    /// evaluator's context fingerprint.
    ///
    /// Merge probing hits this hard: the same (survivor rails, merged
    /// rail, leftover) candidate recurs across partner sweeps — every
    /// unordered rail pair is probed from both ends — and the nested
    /// water-filling pass is a pure function of the candidate and the
    /// wire count, so its final cost can be reused verbatim.
    pub(crate) fn dist_cost_cached(&self, fp: u128) -> Option<u64> {
        let cost = match self.cache.get(&self.cache_key(SPACE_DIST, fp)) {
            Some(Cached::Cost(cost)) => Some(cost),
            _ => None,
        };
        self.counted(cost, Metrics::count_dist_hit, Metrics::count_dist_miss)
    }

    /// Publishes a redistribution cost for [`Evaluator::dist_cost_cached`].
    ///
    /// Callers must only store costs of *completed* redistributions
    /// (the budget did not trip mid-pass), so a later lookup observes
    /// the same value a fresh computation would produce.
    pub(crate) fn store_dist_cost(&self, fp: u128, cost: u64) {
        self.cache
            .get_or_insert_with(self.cache_key(SPACE_DIST, fp), || Cached::Cost(cost));
    }

    /// The committed rails of the finished optimizer search leg for
    /// `objective` from start `perturbation` (`SPACE_SEARCH`), or
    /// `None` when no such leg was stored. Together with the context
    /// fingerprint every cache key carries (SOC, width budget, SI
    /// groups), the key covers everything an unbudgeted, fault-free
    /// leg reads, so a hit is exactly the rails the leg would commit.
    pub(crate) fn search_cached(
        &self,
        objective: Objective,
        perturbation: u64,
    ) -> Option<Arc<Vec<TestRail>>> {
        let key = self.cache_key(SPACE_SEARCH, fx_fingerprint128(&(objective, perturbation)));
        let rails = match self.cache.get(&key) {
            Some(Cached::Search(rails)) => Some(rails),
            _ => None,
        };
        self.counted(rails, Metrics::count_search_hit, Metrics::count_search_miss)
    }

    /// Publishes a finished leg's rails for [`Evaluator::search_cached`].
    ///
    /// Callers must only store legs that ran unbudgeted, undegraded and
    /// with no failpoint configured, so a later lookup observes exactly
    /// what a fresh search would commit.
    pub(crate) fn store_search(
        &self,
        objective: Objective,
        perturbation: u64,
        rails: Arc<Vec<TestRail>>,
    ) {
        let key = self.cache_key(SPACE_SEARCH, fx_fingerprint128(&(objective, perturbation)));
        self.cache.get_or_insert_with(key, || Cached::Search(rails));
    }

    /// The `time_used` and `time_in` staircases of a core set, one
    /// entry per width `1..=max_width`, memoized together by core-set
    /// fingerprint. The optimizer's wire distribution, rebalancing and
    /// move bounds scan these arrays instead of recomputing point
    /// values.
    pub fn rail_staircases(&self, cores: &[CoreId]) -> Arc<RailStaircases> {
        let key = self.cache_key(SPACE_USED, fx_fingerprint128(&cores));
        let found = match self.cache.get(&key) {
            Some(Cached::Used(stairs)) => Some(stairs),
            _ => None,
        };
        if let Some(stairs) = self.counted(found, Metrics::count_used_hit, Metrics::count_used_miss)
        {
            return stairs;
        }
        let (used, intest) = (1..=self.max_width)
            .map(|w| self.rail_times_at(cores, w))
            .unzip();
        let stairs = Arc::new(RailStaircases { used, intest });
        match self
            .cache
            .get_or_insert_with(key, || Cached::Used(Arc::clone(&stairs)))
        {
            Cached::Used(stored) => stored,
            // Namespaces are disjoint: SPACE_USED only stores Used.
            _ => stairs,
        }
    }

    /// `(time_used, time_in)` of a rail hosting `cores` at `width` — one
    /// step of [`Evaluator::rail_staircases`]. `time_in` folds exactly
    /// as a component's `t_in` does.
    fn rail_times_at(&self, cores: &[CoreId], width: u32) -> (u64, u64) {
        let table = self.time_table();
        cores.iter().fold((0u64, 0u64), |(used, t_in), &c| {
            let intest = table.intest(c, width);
            let si = self.core_si_weight[c.index()].saturating_mul(table.si_shift(c, width));
            (
                used.saturating_add(intest.saturating_add(si)),
                t_in.saturating_add(intest),
            )
        })
    }

    /// The SOC under evaluation.
    pub fn soc(&self) -> &Soc {
        self.soc
    }

    /// The SI test groups.
    pub fn groups(&self) -> &[SiGroupSpec] {
        &self.groups
    }

    /// The width budget the evaluator was built for.
    pub fn max_width(&self) -> u32 {
        self.max_width
    }

    /// The per-core time table every evaluation reads, built on the
    /// first call (by this evaluator or any fork of it).
    pub fn time_table(&self) -> &TimeTable {
        self.table
            .get_or_init(|| TimeTable::new(self.soc, self.max_width))
    }

    /// Full evaluation of `arch`: per-rail times, per-group SI times
    /// (`CalculateSITestTime`), the Algorithm 1 schedule and the combined
    /// objective. Assembled from memoized per-rail components.
    ///
    /// # Panics
    ///
    /// Panics if a rail is wider than the evaluator's `max_width` or hosts
    /// a core outside the SOC.
    pub fn evaluate(&self, arch: &TestRailArchitecture) -> Evaluation {
        self.evaluate_rails(arch.rails())
    }

    /// Evaluates a bare rail list from memoized components.
    ///
    /// Rails are visited in ascending index order within each group, so
    /// `SiGroupTime.rails` ordering and the first-strict-maximum
    /// bottleneck tie-break match the monolithic loop exactly.
    fn evaluate_rails(&self, rails: &[TestRail]) -> Evaluation {
        let rail_evals: Vec<Arc<RailEval>> = rails
            .iter()
            .map(|rail| self.component(rail.width(), rail.cores()))
            .collect();
        let rail_time_in: Vec<u64> = rail_evals.iter().map(|r| r.t_in).collect();
        let t_in = rail_time_in.iter().copied().max().unwrap_or(0);

        let mut rail_time_si = vec![0u64; rail_evals.len()];
        let group_times = self.group_times_of(&rail_evals, &mut rail_time_si);
        let schedule = schedule_si_tests(&group_times);
        let t_si = schedule.makespan();
        Evaluation {
            rail_time_in,
            rail_time_si,
            group_times,
            schedule,
            t_in,
            t_si,
            rail_evals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TestRail;
    use soctam_model::Benchmark;

    fn c(i: u32) -> CoreId {
        CoreId::new(i)
    }

    #[test]
    fn intest_time_is_max_over_rails() {
        let soc = Benchmark::D695.soc();
        let rails = vec![
            TestRail::new((0..5).map(c).collect(), 8).expect("valid"),
            TestRail::new((5..10).map(c).collect(), 8).expect("valid"),
        ];
        let arch = TestRailArchitecture::new(&soc, rails).expect("valid");
        let evaluator = Evaluator::new(&soc, 16, vec![]).expect("valid");
        let eval = evaluator.evaluate(&arch);
        assert_eq!(eval.t_in, *eval.rail_time_in.iter().max().unwrap());
        assert_eq!(eval.t_si, 0);
        assert_eq!(eval.t_total(), eval.t_in);
    }

    #[test]
    fn group_time_is_bottleneck_rail_sum() {
        let soc = Benchmark::D695.soc();
        let rails = vec![
            TestRail::new((0..5).map(c).collect(), 4).expect("valid"),
            TestRail::new((5..10).map(c).collect(), 4).expect("valid"),
        ];
        let arch = TestRailArchitecture::new(&soc, rails).expect("valid");
        let groups = vec![SiGroupSpec::new(soc.core_ids().collect(), 10)];
        let evaluator = Evaluator::new(&soc, 8, groups).expect("valid");
        let eval = evaluator.evaluate(&arch);

        // Recompute by hand.
        let table = evaluator.time_table();
        let rail_sum = |range: std::ops::Range<u32>| -> u64 {
            range.map(|i| 10 * table.si_shift(c(i), 4)).sum()
        };
        let expected = rail_sum(0..5).max(rail_sum(5..10));
        assert_eq!(eval.group_times[0].time, expected);
        assert_eq!(eval.group_times[0].rails, vec![0, 1]);
    }

    #[test]
    fn swap_state_merge_and_swaps_match_materialized_evaluations() {
        let soc = Benchmark::D695.soc();
        let rails = vec![
            TestRail::new((0..3).map(c).collect(), 6).expect("valid"),
            TestRail::new((3..6).map(c).collect(), 4).expect("valid"),
            TestRail::new((6..10).map(c).collect(), 5).expect("valid"),
        ];
        let groups = vec![
            SiGroupSpec::new(soc.core_ids().collect(), 25),
            SiGroupSpec::new((0..6).map(c).collect(), 40),
            SiGroupSpec::new((4..10).map(c).collect(), 15),
        ];
        let evaluator = Evaluator::new(&soc, 32, groups).expect("valid");
        let arch = TestRailArchitecture::new(&soc, rails.clone()).expect("valid");
        let base = evaluator.evaluate(&arch);
        let parent = evaluator.swap_state(&base, Objective::Total);
        assert_eq!((parent.t_in(), parent.t_si()), (base.t_in, Some(base.t_si)));

        // Merge rail 1 into rail 0 (labels: merged keeps 0, 1 dies) and
        // compare against evaluating the compacted candidate rail list
        // — the relabeling must not move `T_soc^in` or `T_soc^si`.
        let merged = rails[0].merged(&rails[1], 7).expect("valid");
        let merged_comp = evaluator.component(7, merged.cores());
        let mut st = parent.clone();
        evaluator.state_apply(&mut st, &[(0, Some(&merged_comp)), (1, None)]);
        let cand_arch =
            TestRailArchitecture::new(&soc, vec![rails[2].clone(), merged.clone()]).expect("valid");
        let cand = evaluator.evaluate(&cand_arch);
        assert_eq!((st.t_in(), st.t_si()), (cand.t_in, Some(cand.t_si)));

        // Probing a survivor width swap must agree with evaluating the
        // swapped candidate, and accepting it must land on the probe.
        let wider = evaluator.component(9, rails[2].cores());
        let probed = evaluator.state_cost(&st, &[(2, Some(&wider))]);
        let swapped_arch = TestRailArchitecture::new(
            &soc,
            vec![rails[2].with_width(9).expect("valid"), merged.clone()],
        )
        .expect("valid");
        let swapped = evaluator.evaluate(&swapped_arch);
        assert_eq!(
            (probed.t_in, probed.t_si),
            (swapped.t_in, Some(swapped.t_si))
        );
        evaluator.state_apply(&mut st, &[(2, Some(&wider))]);
        assert_eq!((st.t_in(), st.t_si()), (swapped.t_in, Some(swapped.t_si)));

        // And the merged rail itself can widen (label 0, appended last
        // in the materialized list).
        let merged_wide = evaluator.component(8, merged.cores());
        let probed = evaluator.state_cost(&st, &[(0, Some(&merged_wide))]);
        let final_arch = TestRailArchitecture::new(
            &soc,
            vec![
                rails[2].with_width(9).expect("valid"),
                rails[0].merged(&rails[1], 8).expect("valid"),
            ],
        )
        .expect("valid");
        let fin = evaluator.evaluate(&final_arch);
        assert_eq!(
            probed,
            DeltaCost {
                t_in: fin.t_in,
                t_si: Some(fin.t_si),
                rail_used_sum: fin.rail_used_sum(),
            }
        );
        evaluator.state_apply(&mut st, &[(0, Some(&merged_wide))]);
        assert_eq!((st.t_in(), st.t_si()), (fin.t_in, Some(fin.t_si)));
        assert_eq!(st.component(1), None);
        assert_eq!(st.component(0).map(|comp| comp.width), Some(8));
    }

    #[test]
    fn evaluate_cached_matches_and_counts_hits() {
        let soc = Benchmark::D695.soc();
        let rails = vec![
            TestRail::new((0..5).map(c).collect(), 8).expect("valid"),
            TestRail::new((5..10).map(c).collect(), 8).expect("valid"),
        ];
        let arch = TestRailArchitecture::new(&soc, rails).expect("valid");
        let groups = vec![SiGroupSpec::new(soc.core_ids().collect(), 10)];
        let mut evaluator = Evaluator::new(&soc, 16, groups).expect("valid");
        let metrics = Arc::new(Metrics::new());
        evaluator.attach_metrics(Arc::clone(&metrics));

        let direct = evaluator.evaluate(&arch);
        let first = evaluator.evaluate_cached(arch.rails());
        let second = evaluator.evaluate_cached(arch.rails());
        assert_eq!(*first, direct);
        assert_eq!(*second, direct);

        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.cache_misses, 1);
        assert_eq!(snapshot.cache_hits, 1);

        // A different architecture is a different key.
        let other = TestRailArchitecture::new(
            &soc,
            vec![TestRail::new(soc.core_ids().collect(), 16).expect("valid")],
        )
        .expect("valid");
        let third = evaluator.evaluate_cached(other.rails());
        assert_eq!(*third, evaluator.evaluate(&other));
        assert_eq!(metrics.snapshot().cache_misses, 2);
    }

    #[test]
    fn metrics_attached_shared_store_counts_like_a_private_one() {
        // The store counts only evictions, so the evaluator's
        // architecture-level counts are the only hits and misses.
        let soc = Benchmark::D695.soc();
        let rails = vec![
            TestRail::new((0..5).map(c).collect(), 8).expect("valid"),
            TestRail::new((5..10).map(c).collect(), 8).expect("valid"),
        ];
        let arch = TestRailArchitecture::new(&soc, rails).expect("valid");
        let groups = vec![SiGroupSpec::new(soc.core_ids().collect(), 10)];
        let metrics = Arc::new(Metrics::new());
        let cache = EvalCache::with_capacity_and_metrics(1 << 10, Arc::clone(&metrics));
        let mut evaluator = Evaluator::new(&soc, 16, groups).expect("valid");
        evaluator.attach_cache(&cache);
        evaluator.attach_metrics(Arc::clone(&metrics));

        let first = evaluator.evaluate_cached(arch.rails());
        let second = evaluator.evaluate_cached(arch.rails());
        assert_eq!(first, second);
        let snapshot = metrics.snapshot();
        assert_eq!((snapshot.cache_misses, snapshot.cache_hits), (1, 1));

        let other = TestRailArchitecture::new(
            &soc,
            vec![TestRail::new(soc.core_ids().collect(), 16).expect("valid")],
        )
        .expect("valid");
        evaluator.evaluate_cached(other.rails());
        assert_eq!(metrics.snapshot().cache_misses, 2);
    }

    #[test]
    fn a_run_recalled_from_a_warm_store_builds_no_time_table() {
        // Both legs of the warm run (the `Total` search and its forked
        // InTest-only portfolio leg) come from the search memo and their
        // evaluations from the architecture namespace, so nothing reads
        // the table; a cold run builds it.
        use crate::{RunCtx, TamOptimizer};
        let soc = Benchmark::P34392.soc();
        let groups = vec![SiGroupSpec::new(soc.core_ids().collect(), 200)];
        let optimizer = |run: RunCtx| {
            TamOptimizer::new(&soc, 32, groups.clone())
                .expect("valid")
                .run(run)
        };
        let cold = optimizer(RunCtx::default());
        let cold_result = cold.optimize().expect("optimizes");
        assert!(cold.evaluator().table.get().is_some());

        let cache = EvalCache::new();
        let through = || RunCtx {
            eval_cache: Some(cache.clone()),
            ..RunCtx::new(soctam_exec::Pool::serial())
        };
        optimizer(through()).optimize().expect("optimizes");
        let warm_run = through();
        let metrics = warm_run.pool.metrics();
        let warm = optimizer(warm_run);
        let warm_result = warm.optimize().expect("optimizes");
        let snapshot = metrics.snapshot();
        assert_eq!((snapshot.search_hits, snapshot.search_misses), (2, 0));
        assert!(warm.evaluator().table.get().is_none());
        assert_eq!(warm_result, cold_result);
    }

    #[test]
    fn zero_capacity_means_unbounded() {
        let metrics = Arc::new(Metrics::new());
        assert_eq!(
            EvalCache::with_capacity_and_metrics(0, Arc::clone(&metrics)).capacity(),
            None
        );
        let bounded = EvalCache::with_capacity_and_metrics(1 << 10, metrics);
        assert_eq!(bounded.capacity(), Some(1 << 10));
    }

    #[test]
    fn group_lists_round_trip_without_aliasing() {
        let soc = Benchmark::D695.soc();
        let cache = EvalCache::new();
        let list = Arc::new(vec![SiGroupSpec::new(soc.core_ids().collect(), 10)]);
        assert!(cache.groups(7).is_none());
        let stored = cache.insert_groups(7, Arc::clone(&list));
        assert!(Arc::ptr_eq(&stored, &list));
        // First insert wins.
        let other = Arc::new(vec![SiGroupSpec::new(vec![c(0)], 3)]);
        assert!(Arc::ptr_eq(&cache.insert_groups(7, other), &list));
        assert!(cache.groups(8).is_none());
        // Evaluator entries share the store and leave the list alone.
        let mut evaluator = Evaluator::new(&soc, 16, list.to_vec()).expect("valid");
        evaluator.attach_cache(&cache);
        evaluator.component(8, &[c(0)]);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.groups(7), Some(list));
    }

    #[test]
    fn rail_time_si_sums_own_contributions() {
        // Example 1 semantics: time_si(r) for TAM3 = core 5's own shifts.
        let soc = Benchmark::D695.soc();
        let rails = vec![
            TestRail::new((0..9).map(c).collect(), 4).expect("valid"),
            TestRail::new(vec![c(9)], 4).expect("valid"),
        ];
        let arch = TestRailArchitecture::new(&soc, rails).expect("valid");
        let groups = vec![
            SiGroupSpec::new(soc.core_ids().collect(), 7),
            SiGroupSpec::new(vec![c(9)], 5),
        ];
        let evaluator = Evaluator::new(&soc, 8, groups).expect("valid");
        let eval = evaluator.evaluate(&arch);
        let table = evaluator.time_table();
        let expected = 7 * table.si_shift(c(9), 4) + 5 * table.si_shift(c(9), 4);
        assert_eq!(eval.rail_time_si[1], expected);
    }

    #[test]
    fn boundary_less_cores_do_not_occupy_rails() {
        use soctam_model::CoreSpec;
        let soc = Soc::new(
            "z",
            vec![
                CoreSpec::new("island", 0, 0, 0, vec![4], 5).expect("valid"),
                CoreSpec::new("drv", 2, 6, 0, vec![4], 5).expect("valid"),
            ],
        )
        .expect("valid");
        let rails = vec![
            TestRail::new(vec![c(0)], 1).expect("valid"),
            TestRail::new(vec![c(1)], 1).expect("valid"),
        ];
        let arch = TestRailArchitecture::new(&soc, rails).expect("valid");
        let groups = vec![SiGroupSpec::new(vec![c(0), c(1)], 3)];
        let evaluator = Evaluator::new(&soc, 2, groups).expect("valid");
        let eval = evaluator.evaluate(&arch);
        // A core with no functional terminals has nothing to shift during
        // SI test, so only rail 1 is involved.
        assert_eq!(eval.group_times[0].rails, vec![1]);
        assert_eq!(eval.rail_time_si[0], 0);
        // The driver rail pays the vector pair plus its own ILS readout.
        let table = evaluator.time_table();
        assert_eq!(table.si_shift(c(1), 1), 2 * 6 + 2);
    }

    #[test]
    fn sink_cores_pay_ils_flag_readout() {
        use soctam_model::CoreSpec;
        let soc = Soc::new(
            "z",
            vec![
                CoreSpec::new("sink", 8, 0, 0, vec![4], 5).expect("valid"),
                CoreSpec::new("drv", 2, 6, 0, vec![4], 5).expect("valid"),
            ],
        )
        .expect("valid");
        let rails = vec![
            TestRail::new(vec![c(0)], 1).expect("valid"),
            TestRail::new(vec![c(1)], 1).expect("valid"),
        ];
        let arch = TestRailArchitecture::new(&soc, rails).expect("valid");
        let groups = vec![SiGroupSpec::new(vec![c(0), c(1)], 3)];
        let evaluator = Evaluator::new(&soc, 2, groups).expect("valid");
        let eval = evaluator.evaluate(&arch);
        // The sink core loads no vectors but unloads 8 ILS flags per
        // pattern, so its rail participates.
        assert_eq!(eval.group_times[0].rails, vec![0, 1]);
        assert_eq!(eval.rail_time_si[0], 3 * 8);
    }

    #[test]
    fn group_with_out_of_range_core_rejected() {
        let soc = Benchmark::D695.soc();
        let groups = vec![SiGroupSpec::new(vec![c(10)], 1)];
        assert!(matches!(
            Evaluator::new(&soc, 8, groups),
            Err(TamError::CoreOutOfRange { .. })
        ));
    }

    #[test]
    fn zero_budget_rejected() {
        let soc = Benchmark::D695.soc();
        assert!(matches!(
            Evaluator::new(&soc, 0, vec![]),
            Err(TamError::ZeroWidthBudget)
        ));
    }

    #[test]
    fn budget_beyond_the_limit_rejected_before_any_table() {
        let soc = Benchmark::D695.soc();
        for width in [MAX_TAM_WIDTH + 1, u32::MAX] {
            let expected = Err(TamError::WidthBudgetTooLarge {
                width,
                max: MAX_TAM_WIDTH,
            });
            assert_eq!(Evaluator::new(&soc, width, vec![]).map(|_| ()), expected);
            assert_eq!(
                crate::TestBusEvaluator::new(&soc, width, vec![]).map(|_| ()),
                expected
            );
        }
        let at_limit = Evaluator::new(&soc, MAX_TAM_WIDTH, vec![]).expect("limit accepted");
        assert_eq!(at_limit.time_table().max_width(), MAX_TAM_WIDTH);
    }

    #[test]
    fn rail_used_sum_saturates_where_the_plain_sum_overflows() {
        use soctam_model::CoreSpec;
        // Each core's own InTest time fits in a u64, but three of them
        // on separate rails sum past u64::MAX.
        let huge = 2_000_000_000_000_000_000;
        let cores = (0..3)
            .map(|i| CoreSpec::new(format!("c{i}"), 2, 2, 0, vec![2], huge).expect("valid"))
            .collect();
        let soc = Soc::new("huge", cores).expect("valid");
        let rails: Vec<TestRail> = (0..3)
            .map(|i| TestRail::new(vec![c(i)], 1).expect("valid"))
            .collect();
        let groups = vec![SiGroupSpec::new(soc.core_ids().collect(), 200)];
        let evaluator = Evaluator::new(&soc, 4, groups).expect("valid");
        let eval = evaluator.evaluate_cached(&rails);
        let exact: u128 = eval.rail_time_used().iter().map(|&t| u128::from(t)).sum();
        assert!(exact > u128::from(u64::MAX), "the fixture must overflow");
        assert_eq!(eval.rail_used_sum(), u64::MAX);

        let mut st = evaluator.swap_state(&eval, Objective::Total);
        assert_eq!(evaluator.state_cost(&st, &[]).rail_used_sum, u64::MAX);
        // Removing two rails brings the exact sum back under the cap;
        // the state subtracts them without having lost precision.
        evaluator.state_apply(&mut st, &[(1, None), (2, None)]);
        let alone = evaluator.evaluate_cached(&rails[..1]);
        assert!(alone.rail_used_sum() < u64::MAX);
        assert_eq!(
            evaluator.state_cost(&st, &[]).rail_used_sum,
            alone.rail_used_sum()
        );
    }

    #[test]
    fn time_used_adds_in_and_si() {
        let soc = Benchmark::D695.soc();
        let arch = TestRailArchitecture::single_rail(&soc, 8).expect("valid");
        let groups = vec![SiGroupSpec::new(soc.core_ids().collect(), 20)];
        let evaluator = Evaluator::new(&soc, 8, groups).expect("valid");
        let eval = evaluator.evaluate(&arch);
        assert_eq!(
            eval.rail_time_used()[0],
            eval.rail_time_in[0] + eval.rail_time_si[0]
        );
    }
}
