//! Property: incremental evaluation equals full evaluation.
//!
//! For random synthetic SOCs, random TestRail architectures and random
//! edits of every shape the optimizer makes — a width swap, a core move,
//! a merge and a width change on three or more rails —
//! [`Evaluator::state_cost`] on a [`SwapState`] must report the numbers
//! [`Evaluator::evaluate`] computes from scratch on the edited rail list,
//! and any sequence of [`Evaluator::state_apply`] calls must leave the
//! state reading exactly what evaluating the final rails reads.
//!
//! Every check runs on a state seeded for each [`Objective`]: a `Total`
//! state must match `T_soc^si` and the group times too, an
//! `InTestOnly` state must report no `T_soc^si` at all while its
//! `T_soc^in` and `Σ time_used` still match.
//!
//! The state names rails by label and leaves a hole where a merge
//! removed one; the rail list it is compared against holds the live
//! rails in label order, so group times compare after renaming each
//! label to its rank among the live ones.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use soctam_exec::check::{cases, forall, Gen};
use soctam_model::synth::{synth_soc, SynthConfig};
use soctam_model::{Benchmark, CoreId, Soc};
use soctam_tam::{
    DeltaCost, Evaluation, Evaluator, Objective, RailEdit, RailEval, SiGroupSpec, SiGroupTime,
    SwapState, TestRail, TestRailArchitecture,
};

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

/// A random partition of the SOC's cores into up to five rails with
/// random widths.
fn random_rails(g: &mut Gen, soc: &Soc, max_width: u32) -> Vec<TestRail> {
    let n_rails = g.usize_in(1, soc.num_cores().min(5) + 1);
    let mut buckets: Vec<Vec<CoreId>> = vec![Vec::new(); n_rails];
    for core in soc.core_ids() {
        let r = g.usize_in(0, n_rails);
        buckets[r].push(core);
    }
    buckets
        .into_iter()
        .filter(|b| !b.is_empty())
        .map(|cores| TestRail::new(cores, g.u32_in(1, max_width + 1)).expect("valid rail"))
        .collect()
}

/// `0..=3` random SI test groups over random core subsets.
fn random_groups(g: &mut Gen, soc: &Soc) -> Vec<SiGroupSpec> {
    let n = g.usize_in(0, 4);
    (0..n)
        .map(|_| {
            let cores: Vec<CoreId> = soc.core_ids().filter(|_| g.bool_with(0.6)).collect();
            let cores = if cores.is_empty() {
                soc.core_ids().collect()
            } else {
                cores
            };
            SiGroupSpec::new(cores, g.u64_in(1, 80))
        })
        .collect()
}

/// The four edit shapes of Algorithm 2's move loops.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// `distributeFreeWires`: one rail changes width.
    WidthSwap,
    /// `coreReshuffle`: one core moves between two rails.
    CoreMove,
    /// `mergeTAMs`: two rails become one, which keeps the first label.
    Merge,
    /// Wire rebalancing: three or more rails change width.
    Rebalance,
}

const SHAPES: [Shape; 4] = [
    Shape::WidthSwap,
    Shape::CoreMove,
    Shape::Merge,
    Shape::Rebalance,
];

/// Both state shapes: with and without the SI half.
const OBJECTIVES: [Objective; 2] = [Objective::Total, Objective::InTestOnly];

/// The rails behind a state, by label; `None` marks a removed rail.
type Labels = Vec<Option<TestRail>>;

fn live(labels: &Labels) -> Vec<usize> {
    (0..labels.len()).filter(|&r| labels[r].is_some()).collect()
}

fn rail(labels: &Labels, r: usize) -> &TestRail {
    labels[r].as_ref().expect("live label")
}

/// A random edit of `shape` on `labels`: the new rail of every edited
/// label. Shapes the current rails cannot take fall back to a width
/// swap.
fn random_edit(
    g: &mut Gen,
    labels: &Labels,
    max_width: u32,
    shape: Shape,
) -> Vec<(usize, Option<TestRail>)> {
    let live = live(labels);
    let pick = |g: &mut Gen, from: &[usize]| from[g.usize_in(0, from.len())];
    let movable: Vec<usize> = live
        .iter()
        .copied()
        .filter(|&r| rail(labels, r).cores().len() >= 2)
        .collect();
    match shape {
        Shape::CoreMove if live.len() >= 2 && !movable.is_empty() => {
            let src = pick(g, &movable);
            let others: Vec<usize> = live.iter().copied().filter(|&r| r != src).collect();
            let dst = pick(g, &others);
            let cores = rail(labels, src).cores();
            let core = cores[g.usize_in(0, cores.len())];
            let kept: Vec<CoreId> = cores.iter().copied().filter(|&c| c != core).collect();
            let mut grown = rail(labels, dst).cores().to_vec();
            grown.push(core);
            vec![
                (
                    src,
                    Some(TestRail::new(kept, rail(labels, src).width()).expect("valid")),
                ),
                (
                    dst,
                    Some(TestRail::new(grown, rail(labels, dst).width()).expect("valid")),
                ),
            ]
        }
        Shape::Merge if live.len() >= 2 => {
            let target = pick(g, &live);
            let others: Vec<usize> = live.iter().copied().filter(|&r| r != target).collect();
            let dead = pick(g, &others);
            let w = g.u32_in(1, max_width + 1);
            let merged = rail(labels, target)
                .merged(rail(labels, dead), w)
                .expect("valid");
            vec![(target, Some(merged)), (dead, None)]
        }
        Shape::Rebalance if live.len() >= 2 => {
            // Three or more rails where the architecture has them.
            let mut chosen = live.clone();
            while chosen.len() > 3 && g.bool_with(0.5) {
                chosen.remove(g.usize_in(0, chosen.len()));
            }
            chosen
                .into_iter()
                .map(|r| {
                    let w = g.u32_in(1, max_width + 1);
                    (r, Some(rail(labels, r).with_width(w).expect("valid")))
                })
                .collect()
        }
        _ => {
            let r = pick(g, &live);
            let w = g.u32_in(1, max_width + 1);
            vec![(r, Some(rail(labels, r).with_width(w).expect("valid")))]
        }
    }
}

/// Fetches the components an edit list refers to.
fn components(
    evaluator: &Evaluator<'_>,
    edit: &[(usize, Option<TestRail>)],
) -> Vec<(usize, Option<Arc<RailEval>>)> {
    edit.iter()
        .map(|(r, new)| {
            let comp = new
                .as_ref()
                .map(|rail| evaluator.component(rail.width(), rail.cores()));
            (*r, comp)
        })
        .collect()
}

fn as_edits(comps: &[(usize, Option<Arc<RailEval>>)]) -> Vec<RailEdit<'_>> {
    comps.iter().map(|(r, comp)| (*r, comp.as_ref())).collect()
}

fn apply_labels(labels: &mut Labels, edit: Vec<(usize, Option<TestRail>)>) {
    for (r, new) in edit {
        labels[r] = new;
    }
}

/// The referee: a from-scratch evaluation of the live rails in label
/// order.
fn full(evaluator: &Evaluator<'_>, soc: &Soc, labels: &Labels) -> Evaluation {
    let rails: Vec<TestRail> = labels.iter().flatten().cloned().collect();
    evaluator.evaluate(&TestRailArchitecture::new(soc, rails).expect("valid"))
}

/// What a state seeded for `objective` must price `eval` at: an
/// `InTestOnly` state reports no `T_soc^si`.
fn cost_of(eval: &Evaluation, objective: Objective) -> DeltaCost {
    DeltaCost {
        t_in: eval.t_in,
        t_si: (objective == Objective::Total).then_some(eval.t_si),
        rail_used_sum: eval.rail_used_sum(),
    }
}

/// The state's group times with every label renamed to its rank among
/// the live labels, or `None` for a state without the SI half.
fn ranked_group_times(st: &SwapState, labels: &Labels) -> Option<Vec<SiGroupTime>> {
    let live = live(labels);
    let rank = |r: usize| live.binary_search(&r).expect("group rail is live");
    let ranked = st
        .group_times()?
        .iter()
        .map(|row| SiGroupTime {
            time: row.time,
            rails: row.rails.iter().map(|&r| rank(r)).collect(),
            bottleneck_rail: if row.bottleneck_rail == usize::MAX {
                usize::MAX
            } else {
                rank(row.bottleneck_rail)
            },
        })
        .collect();
    Some(ranked)
}

/// Asserts that `st`, seeded for `objective`, reads exactly what
/// evaluating `labels` reads.
fn assert_state_matches(
    evaluator: &Evaluator<'_>,
    soc: &Soc,
    st: &SwapState,
    labels: &Labels,
    objective: Objective,
) {
    let eval = full(evaluator, soc, labels);
    let expected = cost_of(&eval, objective);
    assert_eq!((st.t_in(), st.t_si()), (expected.t_in, expected.t_si));
    assert_eq!(evaluator.state_cost(st, &[]), expected);
    let group_times = (objective == Objective::Total).then(|| eval.group_times.clone());
    assert_eq!(ranked_group_times(st, labels), group_times);
}

/// Asserts that a width swap of every live rail of `st` to every width
/// costs what evaluating the swapped rails costs: the single-edit fast
/// path reads the state's top-two reductions, which every accepted
/// edit must have kept current.
fn assert_width_swaps_match(
    evaluator: &Evaluator<'_>,
    soc: &Soc,
    st: &SwapState,
    labels: &Labels,
    objective: Objective,
) {
    for i in live(labels) {
        for w in 1..=evaluator.max_width() {
            let edit = vec![(i, Some(rail(labels, i).with_width(w).expect("valid")))];
            let comps = components(evaluator, &edit);
            let probed = evaluator.state_cost(st, &as_edits(&comps));
            let mut edited = labels.clone();
            apply_labels(&mut edited, edit);
            let expected = cost_of(&full(evaluator, soc, &edited), objective);
            assert_eq!(probed, expected, "{objective:?}: rail {i} at width {w}");
        }
    }
}

#[test]
fn state_cost_matches_full_evaluate_for_every_edit_shape() {
    forall("state_cost_vs_full", cases(60), |g| {
        let soc = random_soc(g);
        let max_width = 8;
        let evaluator = Evaluator::new(&soc, max_width, random_groups(g, &soc)).expect("valid");
        let labels: Labels = random_rails(g, &soc, max_width)
            .into_iter()
            .map(Some)
            .collect();
        let base = full(&evaluator, &soc, &labels);
        let states =
            OBJECTIVES.map(|objective| (objective, evaluator.swap_state(&base, objective)));
        for (objective, st) in &states {
            assert_state_matches(&evaluator, &soc, st, &labels, *objective);
        }
        for shape in SHAPES {
            let edit = random_edit(g, &labels, max_width, shape);
            let comps = components(&evaluator, &edit);
            let mut edited = labels.clone();
            apply_labels(&mut edited, edit);
            let eval = full(&evaluator, &soc, &edited);
            for (objective, st) in &states {
                let probed = evaluator.state_cost(st, &as_edits(&comps));
                let expected = cost_of(&eval, *objective);
                assert_eq!(
                    probed, expected,
                    "{objective:?} {shape:?} probe diverged from full"
                );
            }
        }
    });
}

#[test]
fn state_apply_sequences_match_full_evaluate() {
    forall("state_apply_vs_full", cases(60), |g| {
        let soc = random_soc(g);
        let max_width = 8;
        let evaluator = Evaluator::new(&soc, max_width, random_groups(g, &soc)).expect("valid");
        let mut labels: Labels = random_rails(g, &soc, max_width)
            .into_iter()
            .map(Some)
            .collect();
        let base = full(&evaluator, &soc, &labels);
        let mut states =
            OBJECTIVES.map(|objective| (objective, evaluator.swap_state(&base, objective)));
        for _ in 0..g.usize_in(1, 7) {
            let shape = SHAPES[g.usize_in(0, SHAPES.len())];
            let edit = random_edit(g, &labels, max_width, shape);
            let comps = components(&evaluator, &edit);
            let edits = as_edits(&comps);
            apply_labels(&mut labels, edit);
            for (objective, st) in &mut states {
                // Probing first must not disturb the state, and must
                // land where accepting the same edits lands.
                let probed = evaluator.state_cost(st, &edits);
                evaluator.state_apply(st, &edits);
                assert_eq!(
                    probed,
                    evaluator.state_cost(st, &[]),
                    "{objective:?} {shape:?}"
                );
                assert_state_matches(&evaluator, &soc, st, &labels, *objective);
            }
        }
        for (objective, st) in &states {
            assert_width_swaps_match(&evaluator, &soc, st, &labels, *objective);
        }
    });
}

/// Width swaps of every rail to every width on fixed d695
/// architectures: three rails under three groups, two rails without
/// groups (the SI-free baseline, where every swap keeps `t_si = 0`),
/// and a single rail (the top-two reduction's max over the other rails
/// falls back to 0).
#[test]
fn width_swaps_at_every_width_match_full_evaluate() {
    let soc = Benchmark::D695.soc();
    let c = |range: std::ops::Range<u32>| -> Vec<CoreId> { range.map(CoreId::new).collect() };
    let cases = [
        (
            vec![(c(0..4), 6), (c(4..7), 3), (c(7..10), 5)],
            vec![
                SiGroupSpec::new(c(0..10), 40),
                SiGroupSpec::new(c(0..6), 15),
                SiGroupSpec::new(c(8..10), 9),
            ],
            16,
        ),
        (vec![(c(0..5), 4), (c(5..10), 4)], vec![], 8),
        (
            vec![(c(0..10), 8)],
            vec![SiGroupSpec::new(c(0..10), 25)],
            16,
        ),
    ];
    for (rails, groups, max_width) in cases {
        let evaluator = Evaluator::new(&soc, max_width, groups).expect("valid");
        let labels: Labels = rails
            .into_iter()
            .map(|(cores, w)| Some(TestRail::new(cores, w).expect("valid")))
            .collect();
        let base = full(&evaluator, &soc, &labels);
        for objective in OBJECTIVES {
            let st = evaluator.swap_state(&base, objective);
            assert_width_swaps_match(&evaluator, &soc, &st, &labels, objective);
        }
    }
}
