//! Fiduccia–Mattheyses bisection refinement with best-prefix rollback.

use crate::Hypergraph;

/// Refines a bisection in place. `caps = [cap0, cap1]` bound the part
/// weights; moves that worsen an already-satisfied cap are inadmissible,
/// while moves that shrink an overweight side are always admissible.
/// Runs up to `max_passes` FM passes, stopping early when a pass yields no
/// improvement. Returns the final cut weight.
pub(crate) fn refine(hg: &Hypergraph, side: &mut [bool], caps: [u64; 2], max_passes: u32) -> u64 {
    debug_assert_eq!(side.len(), hg.num_vertices());
    let mut cut = cut_weight(hg, side);
    for _ in 0..max_passes {
        let improvement = fm_pass(hg, side, caps, cut);
        if improvement == 0 {
            break;
        }
        cut -= improvement;
        debug_assert_eq!(cut, cut_weight(hg, side));
    }
    cut
}

/// The weighted cut of a bisection.
pub(crate) fn cut_weight(hg: &Hypergraph, side: &[bool]) -> u64 {
    let mut cut = 0;
    for e in 0..hg.num_edges() as u32 {
        let pins = hg.pins(e);
        if let Some((&first, rest)) = pins.split_first() {
            let s = side[first as usize];
            if rest.iter().any(|&v| side[v as usize] != s) {
                cut += hg.edge_weight(e);
            }
        }
    }
    cut
}

/// The FM gain of moving `v` to the other side: the weight of the edges
/// the move uncuts (`v` is its side's only pin) minus the weight of those
/// it cuts (every pin is on `v`'s side). Single-pin edges count nothing.
fn gain(hg: &Hypergraph, v: u32, side: &[bool], counts: &[[u32; 2]]) -> i64 {
    let s = usize::from(side[v as usize]);
    let mut gain = 0i64;
    for &e in hg.incident_edges(v) {
        let c = counts[e as usize];
        if c[s] + c[1 - s] < 2 {
            continue; // single-pin edge
        }
        if c[s] == 1 {
            gain += hg.edge_weight(e) as i64; // move uncuts the edge
        } else if c[1 - s] == 0 {
            gain -= hg.edge_weight(e) as i64; // move cuts the edge
        }
    }
    gain
}

/// Pin counts per edge per side.
fn side_counts(hg: &Hypergraph, side: &[bool]) -> Vec<[u32; 2]> {
    let mut counts = vec![[0u32; 2]; hg.num_edges()];
    for (e, c) in counts.iter_mut().enumerate() {
        for &v in hg.pins(e as u32) {
            c[usize::from(side[v as usize])] += 1;
        }
    }
    counts
}

/// One FM pass: tentatively moves every vertex once (highest gain first,
/// balance permitting), then rolls back to the best prefix. Returns the cut
/// improvement achieved (0 when the pass failed to improve).
///
/// Gains stay current through the classic Fiduccia–Mattheyses delta
/// update: a move changes a free pin's gain only through the edges whose
/// from-side or to-side pin count crosses 0 or 1, so one move costs
/// Σ_{e∋v} |e| rather than re-deriving every neighbour's gain. Every gain
/// is the same integer the full recompute ([`gain`]) would give.
fn fm_pass(hg: &Hypergraph, side: &mut [bool], caps: [u64; 2], initial_cut: u64) -> u64 {
    let n = hg.num_vertices();
    let mut counts = side_counts(hg, side);
    let mut weights = [0u64; 2];
    for v in 0..n {
        weights[usize::from(side[v])] += hg.vertex_weight(v as u32);
    }

    let mut gains: Vec<i64> = (0..n as u32).map(|v| gain(hg, v, side, &counts)).collect();
    let mut moved = vec![false; n];
    let mut sequence: Vec<u32> = Vec::with_capacity(n);
    let mut cumulative: i64 = 0;
    let mut best_cumulative: i64 = 0;
    let mut best_prefix: usize = 0;

    for _ in 0..n {
        // Select the admissible unmoved vertex with the highest gain.
        let mut chosen: Option<u32> = None;
        let mut chosen_gain = i64::MIN;
        for v in 0..n as u32 {
            if moved[v as usize] {
                continue;
            }
            let s = usize::from(side[v as usize]);
            let w = hg.vertex_weight(v);
            let admissible = weights[1 - s] + w <= caps[1 - s] || weights[s] > caps[s];
            if admissible && gains[v as usize] > chosen_gain {
                chosen = Some(v);
                chosen_gain = gains[v as usize];
            }
        }
        let Some(v) = chosen else { break };

        // Apply the move and update edge counts + free pins' gains.
        let from = usize::from(side[v as usize]);
        let to = 1 - from;
        moved[v as usize] = true;
        side[v as usize] = !side[v as usize];
        weights[from] -= hg.vertex_weight(v);
        weights[to] += hg.vertex_weight(v);
        for &e in hg.incident_edges(v) {
            let pins = hg.pins(e);
            let c = &mut counts[e as usize];
            let (to_before, from_after) = (c[to], c[from] - 1);
            c[from] = from_after;
            c[to] += 1;
            if pins.len() < 2 {
                continue; // single-pin edges never contribute a gain
            }
            let w = hg.edge_weight(e) as i64;
            let (mut from_delta, mut to_delta) = (0i64, 0i64);
            match to_before {
                // Every free pin (all on the from-side) would have cut
                // `e`; it is cut already.
                0 => from_delta += w,
                // The lone to-side pin would have uncut `e`; now it cannot.
                1 => to_delta -= w,
                _ => {}
            }
            match from_after {
                // Every free pin (all on the to-side now) would cut `e`.
                0 => to_delta -= w,
                // The lone from-side pin would now uncut `e`.
                1 => from_delta += w,
                _ => {}
            }
            if from_delta == 0 && to_delta == 0 {
                continue;
            }
            for &u in pins {
                if !moved[u as usize] {
                    gains[u as usize] += if usize::from(side[u as usize]) == from {
                        from_delta
                    } else {
                        to_delta
                    };
                }
            }
        }

        cumulative += chosen_gain;
        sequence.push(v);
        if cumulative > best_cumulative {
            best_cumulative = cumulative;
            best_prefix = sequence.len();
        }
    }

    // Roll back every move after the best prefix.
    for &v in &sequence[best_prefix..] {
        side[v as usize] = !side[v as usize];
    }
    debug_assert!(best_cumulative >= 0);
    debug_assert_eq!(
        initial_cut as i64 - best_cumulative,
        cut_weight(hg, side) as i64
    );
    best_cumulative as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HypergraphBuilder;
    use soctam_exec::Rng;

    fn clusters() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        for _ in 0..8 {
            b.add_vertex(1);
        }
        b.add_edge(5, &[0, 1, 2, 3]).expect("valid");
        b.add_edge(5, &[4, 5, 6, 7]).expect("valid");
        b.add_edge(1, &[3, 4]).expect("valid");
        b.build()
    }

    #[test]
    fn refine_recovers_natural_cut_from_bad_start() {
        let hg = clusters();
        // Interleaved start: both big edges cut. Caps mirror what `bisect`
        // would compute: ceil(4 * 1.1) + max vertex weight = 6 — the one
        // unit of slack is what lets FM climb through intermediate states.
        let mut side = vec![false, true, false, true, false, true, false, true];
        let cut = refine(&hg, &mut side, [6, 6], 16);
        assert_eq!(cut, 1);
        // The two clusters are separated.
        assert_eq!(side[0], side[1]);
        assert_eq!(side[1], side[2]);
        assert_eq!(side[2], side[3]);
        assert_eq!(side[4], side[5]);
    }

    #[test]
    fn refine_respects_caps() {
        let hg = clusters();
        let mut side = vec![false, true, false, true, false, true, false, true];
        let _ = refine(&hg, &mut side, [6, 6], 16);
        let w0 = side.iter().filter(|&&s| !s).count();
        assert!(w0 <= 6 && 8 - w0 <= 6, "weights {w0}/{}", 8 - w0);
    }

    #[test]
    fn refine_never_worsens_cut() {
        let hg = clusters();
        let mut side = vec![false, false, false, false, true, true, true, true];
        let before = cut_weight(&hg, &side);
        let after = refine(&hg, &mut side, [5, 5], 16);
        assert!(after <= before);
    }

    #[test]
    fn cut_weight_on_uniform_side_is_zero() {
        let hg = clusters();
        assert_eq!(cut_weight(&hg, &[false; 8]), 0);
    }

    /// [`refine`] with the reference pass below.
    fn reference_refine(hg: &Hypergraph, side: &mut [bool], caps: [u64; 2], passes: u32) -> u64 {
        let mut cut = cut_weight(hg, side);
        for _ in 0..passes {
            let improvement = reference_pass(hg, side, caps, cut);
            if improvement == 0 {
                break;
            }
            cut -= improvement;
        }
        cut
    }

    /// [`fm_pass`] as it was before the delta-gain update: after every
    /// move, each free pin of each edge on the moved vertex gets its gain
    /// recomputed from scratch.
    fn reference_pass(hg: &Hypergraph, side: &mut [bool], caps: [u64; 2], initial_cut: u64) -> u64 {
        let n = hg.num_vertices();
        let mut counts = side_counts(hg, side);
        let mut weights = [0u64; 2];
        for v in 0..n {
            weights[usize::from(side[v])] += hg.vertex_weight(v as u32);
        }
        let mut gains: Vec<i64> = (0..n as u32).map(|v| gain(hg, v, side, &counts)).collect();
        let mut moved = vec![false; n];
        let mut sequence: Vec<u32> = Vec::with_capacity(n);
        let (mut cumulative, mut best_cumulative, mut best_prefix) = (0i64, 0i64, 0usize);
        for _ in 0..n {
            let mut chosen: Option<u32> = None;
            let mut chosen_gain = i64::MIN;
            for v in 0..n as u32 {
                if moved[v as usize] {
                    continue;
                }
                let s = usize::from(side[v as usize]);
                let w = hg.vertex_weight(v);
                let admissible = weights[1 - s] + w <= caps[1 - s] || weights[s] > caps[s];
                if admissible && gains[v as usize] > chosen_gain {
                    chosen = Some(v);
                    chosen_gain = gains[v as usize];
                }
            }
            let Some(v) = chosen else { break };
            let s = usize::from(side[v as usize]);
            moved[v as usize] = true;
            side[v as usize] = !side[v as usize];
            weights[s] -= hg.vertex_weight(v);
            weights[1 - s] += hg.vertex_weight(v);
            for &e in hg.incident_edges(v) {
                counts[e as usize][s] -= 1;
                counts[e as usize][1 - s] += 1;
            }
            for &e in hg.incident_edges(v) {
                for &u in hg.pins(e) {
                    if !moved[u as usize] {
                        gains[u as usize] = gain(hg, u, side, &counts);
                    }
                }
            }
            cumulative += chosen_gain;
            sequence.push(v);
            if cumulative > best_cumulative {
                best_cumulative = cumulative;
                best_prefix = sequence.len();
            }
        }
        for &v in &sequence[best_prefix..] {
            side[v as usize] = !side[v as usize];
        }
        assert_eq!(
            initial_cut as i64 - best_cumulative,
            cut_weight(hg, side) as i64
        );
        best_cumulative as u64
    }

    /// A random hypergraph with every edge shape the delta update must
    /// handle: single-pin edges, repeated pin sets, edges over every
    /// vertex, and random vertex and edge weights.
    fn random_case(rng: &mut Rng) -> Hypergraph {
        let n = rng.range_u32_inclusive(1, 33);
        let mut b = HypergraphBuilder::new();
        for _ in 0..n {
            b.add_vertex(rng.range_u64_inclusive(1, 12));
        }
        let mut edges: Vec<Vec<u32>> = Vec::new();
        for _ in 0..rng.range_usize_inclusive(0, 80) {
            let pins: Vec<u32> = match rng.below(8) {
                0 => vec![rng.range_u32(0, n)],
                1 => (0..n).collect(),
                2 if !edges.is_empty() => edges[rng.index(edges.len())].clone(),
                _ => (0..rng.range_u32_inclusive(2, 6))
                    .map(|_| rng.range_u32(0, n))
                    .collect(),
            };
            b.add_edge(rng.range_u64_inclusive(1, 30), &pins)
                .expect("pins valid");
            edges.push(pins);
        }
        b.build()
    }

    #[test]
    fn delta_gains_match_full_recompute() {
        let mut rng = Rng::seed_from_u64(0x0f_1982);
        let mut overweight_starts = 0;
        for case in 0..200 {
            let hg = random_case(&mut rng);
            let n = hg.num_vertices();
            let side: Vec<bool> = (0..n).map(|_| rng.chance(0.5)).collect();
            let total = hg.total_vertex_weight();
            // Caps range from tight (below the side's starting weight) to
            // loose, so some starts are overweight on one side or both.
            let caps = [
                rng.range_u64_inclusive(0, total),
                rng.range_u64_inclusive(0, total),
            ];
            let mut start = [0u64; 2];
            for v in 0..n {
                start[usize::from(side[v])] += hg.vertex_weight(v as u32);
            }
            if start[0] > caps[0] || start[1] > caps[1] {
                overweight_starts += 1;
            }
            let passes = rng.range_u32_inclusive(1, 8);
            let (mut delta, mut reference) = (side.clone(), side);
            let delta_cut = refine(&hg, &mut delta, caps, passes);
            let reference_cut = reference_refine(&hg, &mut reference, caps, passes);
            assert_eq!(delta, reference, "case {case}: sides differ");
            assert_eq!(delta_cut, reference_cut, "case {case}: cuts differ");
        }
        assert!(
            overweight_starts >= 20,
            "{overweight_starts} overweight starts"
        );
    }
}
