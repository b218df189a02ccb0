//! Multilevel bisection and recursive k-way driver.

use std::ops::Range;

use soctam_exec::{Pool, Rng};

use crate::coarsen::{coarsen_once, CoarseLevel};
use crate::fm::refine;
use crate::graph::{Hypergraph, HypergraphBuilder};
use crate::partition::PartitionConfig;

/// Stop coarsening below this many vertices.
const COARSEN_THRESHOLD: usize = 24;

/// Partitions `hg` into `config.parts` parts by recursive bisection,
/// refining each bisection's initial tries on `pool`.
/// Preconditions (checked by the caller): `1 <= parts <= num_vertices`,
/// `imbalance` finite and non-negative.
pub(crate) fn recursive_kway(hg: &Hypergraph, config: &PartitionConfig, pool: &Pool) -> Vec<u32> {
    let mut assignment = vec![0u32; hg.num_vertices()];
    let vertices: Vec<u32> = (0..hg.num_vertices() as u32).collect();
    let mut rng = Rng::seed_from_u64(config.seed);
    split(
        hg,
        &vertices,
        0..config.parts,
        config,
        pool,
        &mut rng,
        &mut assignment,
    );
    assignment
}

/// Recursively assigns `vertices` to the parts `parts`.
fn split(
    hg: &Hypergraph,
    vertices: &[u32],
    parts: Range<u32>,
    config: &PartitionConfig,
    pool: &Pool,
    rng: &mut Rng,
    assignment: &mut [u32],
) {
    let k = parts.end - parts.start;
    debug_assert!(vertices.len() >= k as usize);
    if k == 1 {
        for &v in vertices {
            assignment[v as usize] = parts.start;
        }
        return;
    }

    let k0 = k.div_ceil(2);
    let k1 = k - k0;
    let induced = induce(hg, vertices);
    let side = bisect(
        &induced,
        f64::from(k0) / f64::from(k),
        (k0 as usize, k1 as usize),
        config,
        pool,
        rng,
    );

    let mut left = Vec::new();
    let mut right = Vec::new();
    for (i, &v) in vertices.iter().enumerate() {
        if side[i] {
            right.push(v);
        } else {
            left.push(v);
        }
    }
    let middle = parts.start + k0;
    split(
        hg,
        &left,
        parts.start..middle,
        config,
        pool,
        rng,
        assignment,
    );
    split(hg, &right, middle..parts.end, config, pool, rng, assignment);
}

/// Builds the sub-hypergraph induced by `vertices` (edges restricted to the
/// subset; restrictions with fewer than two pins are dropped). Local vertex
/// `i` is `vertices[i]`.
// Invariant: induced pins are renumbered through the vertex map, so every pin indexes a declared vertex.
#[allow(clippy::expect_used)]
fn induce(hg: &Hypergraph, vertices: &[u32]) -> Hypergraph {
    let mut local_of = vec![u32::MAX; hg.num_vertices()];
    for (local, &v) in vertices.iter().enumerate() {
        local_of[v as usize] = local as u32;
    }
    let mut builder = HypergraphBuilder::new();
    for &v in vertices {
        builder.add_vertex(hg.vertex_weight(v));
    }
    // Dense visited bitmap over edge ids: cheaper than hashing and
    // iteration-order questions never arise.
    let mut seen = vec![false; hg.num_edges()];
    for &v in vertices {
        for &e in hg.incident_edges(v) {
            if std::mem::replace(&mut seen[e as usize], true) {
                continue;
            }
            let pins: Vec<u32> = hg
                .pins(e)
                .iter()
                .filter_map(|&u| {
                    let l = local_of[u as usize];
                    (l != u32::MAX).then_some(l)
                })
                .collect();
            if pins.len() >= 2 {
                builder
                    .add_edge(hg.edge_weight(e), &pins)
                    .expect("local pins are in range");
            }
        }
    }
    builder.build()
}

/// Multilevel bisection of `hg` with target part-0 weight fraction `frac`.
/// `min_counts` are the minimum vertex counts each side must keep so that
/// recursive bisection can still place its parts.
// Invariant: the coarsening chain always holds the level just pushed, and at least one FM try runs per bisection.
#[allow(clippy::expect_used)]
fn bisect(
    hg: &Hypergraph,
    frac: f64,
    min_counts: (usize, usize),
    config: &PartitionConfig,
    pool: &Pool,
    rng: &mut Rng,
) -> Vec<bool> {
    // Coarsening chain, but never coarsen below what the count constraints
    // allow to separate.
    let floor = COARSEN_THRESHOLD.max(min_counts.0 + min_counts.1);
    let mut levels: Vec<CoarseLevel> = Vec::new();
    {
        let mut current = hg;
        loop {
            if current.num_vertices() <= floor {
                break;
            }
            match coarsen_once(current, rng) {
                Some(level) if level.graph.num_vertices() >= min_counts.0 + min_counts.1 => {
                    levels.push(level);
                    current = &levels.last().expect("just pushed").graph;
                }
                _ => break,
            }
        }
    }
    let coarsest: &Hypergraph = levels.last().map_or(hg, |l| &l.graph);

    let total = coarsest.total_vertex_weight();
    let caps = caps_for(coarsest, total, frac, config.imbalance);

    // Initial partition: best of several randomized greedy growths. Every
    // start is drawn before any is refined (`refine` draws nothing), so
    // the RNG stream is the same for every pool; the starts are refined
    // on `pool` and the first strict minimum in try order wins.
    let starts: Vec<Vec<bool>> = (0..config.initial_tries.max(1))
        .map(|_| grow_initial(coarsest, frac, rng))
        .collect();
    let tries = pool.par_map(&starts, |start| {
        let mut side = start.clone();
        let cut = refine(coarsest, &mut side, caps, config.max_fm_passes);
        (cut, side)
    });
    let (_, mut side) = tries
        .into_iter()
        .reduce(|best, next| if next.0 < best.0 { next } else { best })
        .expect("at least one try ran");

    // Project back through the levels, refining at each. `level.graph` is
    // the *coarse* graph; the fine graph is the level below (or `hg`).
    for (idx, level) in levels.iter().enumerate().rev() {
        side = level.map.iter().map(|&c| side[c as usize]).collect();
        let fine_graph = if idx == 0 { hg } else { &levels[idx - 1].graph };
        let caps = caps_for(
            fine_graph,
            fine_graph.total_vertex_weight(),
            frac,
            config.imbalance,
        );
        refine(fine_graph, &mut side, caps, config.max_fm_passes);
    }

    enforce_min_counts(hg, &mut side, min_counts);
    side
}

fn caps_for(hg: &Hypergraph, total: u64, frac: f64, imbalance: f64) -> [u64; 2] {
    let max_vertex = (0..hg.num_vertices() as u32)
        .map(|v| hg.vertex_weight(v))
        .max()
        .unwrap_or(0);
    let cap = |f: f64| ((total as f64) * f * (1.0 + imbalance)).ceil() as u64 + max_vertex;
    [cap(frac), cap(1.0 - frac)]
}

/// Randomized greedy growth: BFS-grow part 0 from a random seed vertex
/// until it reaches the target fraction of the total weight.
fn grow_initial(hg: &Hypergraph, frac: f64, rng: &mut Rng) -> Vec<bool> {
    let n = hg.num_vertices();
    let total = hg.total_vertex_weight();
    let target0 = (total as f64 * frac).round() as u64;
    let mut side = vec![true; n];
    if n == 0 {
        return side;
    }
    let mut order: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut order);

    let start = rng.range_usize(0, n) as u32;
    let mut queue = std::collections::VecDeque::from([start]);
    let mut visited = vec![false; n];
    visited[start as usize] = true;
    let mut weight0 = 0u64;
    let mut fallback = order.into_iter();

    while weight0 < target0 {
        let v = match queue.pop_front() {
            Some(v) => v,
            None => {
                // Disconnected remainder: pull the next unvisited vertex.
                let mut next = None;
                for candidate in fallback.by_ref() {
                    if !visited[candidate as usize] {
                        visited[candidate as usize] = true;
                        next = Some(candidate);
                        break;
                    }
                }
                match next {
                    Some(v) => v,
                    None => break,
                }
            }
        };
        side[v as usize] = false;
        weight0 += hg.vertex_weight(v);
        for &e in hg.incident_edges(v) {
            for &u in hg.pins(e) {
                if !visited[u as usize] {
                    visited[u as usize] = true;
                    queue.push_back(u);
                }
            }
        }
    }
    side
}

/// Guarantees each side keeps at least its minimum vertex count by moving
/// the lightest vertex of the other side across, one at a time.
// Invariant: while one side is short of its minimum the other holds the surplus, so the donor side is never empty.
#[allow(clippy::expect_used)]
fn enforce_min_counts(hg: &Hypergraph, side: &mut [bool], min_counts: (usize, usize)) {
    loop {
        let count0 = side.iter().filter(|&&s| !s).count();
        let count1 = side.len() - count0;
        let (needy_side, donor_is_1) = if count0 < min_counts.0 {
            (false, true)
        } else if count1 < min_counts.1 {
            (true, false)
        } else {
            break;
        };
        // Move the lightest donor vertex across.
        let donor = (0..side.len() as u32)
            .filter(|&v| side[v as usize] == donor_is_1)
            .min_by_key(|&v| hg.vertex_weight(v))
            .expect("donor side cannot be empty while the other is short");
        side[donor as usize] = needy_side;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HypergraphBuilder, PartitionConfig};

    fn ring(n: u32) -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        for _ in 0..n {
            b.add_vertex(1);
        }
        for v in 0..n {
            b.add_edge(1, &[v, (v + 1) % n]).expect("valid");
        }
        b.build()
    }

    #[test]
    fn ring_bisection_cuts_two_edges() {
        let hg = ring(32);
        let p = hg
            .partition(&PartitionConfig::new(2).with_seed(5))
            .expect("valid");
        assert_eq!(
            p.cut_weight(&hg),
            2,
            "a ring bisection cuts exactly 2 edges"
        );
        let weights = p.part_weights(&hg);
        assert!(weights.iter().all(|&w| (12..=20).contains(&w)));
    }

    #[test]
    fn kway_covers_all_parts() {
        let hg = ring(40);
        for k in [1u32, 2, 3, 4, 8] {
            let p = hg
                .partition(&PartitionConfig::new(k).with_seed(3))
                .expect("valid");
            let weights = p.part_weights(&hg);
            assert_eq!(weights.len(), k as usize);
            assert!(
                weights.iter().all(|&w| w > 0),
                "k={k}: some part empty: {weights:?}"
            );
        }
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let hg = ring(8);
        let sub = induce(&hg, &[0, 1, 2, 3]);
        assert_eq!(sub.num_vertices(), 4);
        // Edges 0-1, 1-2, 2-3 survive; 3-4 and 7-0 drop to one pin.
        assert_eq!(sub.num_edges(), 3);
    }

    #[test]
    fn min_counts_enforced_for_k_equal_n() {
        let hg = ring(6);
        let p = hg
            .partition(&PartitionConfig::new(6).with_seed(1))
            .expect("valid");
        let weights = p.part_weights(&hg);
        assert!(weights.iter().all(|&w| w == 1), "{weights:?}");
    }

    #[test]
    fn deterministic_per_seed() {
        let hg = ring(24);
        let a = hg
            .partition(&PartitionConfig::new(4).with_seed(9))
            .expect("valid");
        let b = hg
            .partition(&PartitionConfig::new(4).with_seed(9))
            .expect("valid");
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_initial_tries_return_the_serial_partition() {
        use soctam_exec::check::{cases, forall};
        let pools = [Pool::new(2), Pool::new(4)];
        forall(
            "parallel_initial_tries_return_the_serial_partition",
            cases(96),
            |g| {
                let hg = crate::fm::tests::random_case(g.rng());
                let n = hg.num_vertices() as u32;
                let config = PartitionConfig {
                    parts: g.u32_in(1, n.min(8) + 1),
                    imbalance: [0.0, 0.03, 0.1, 0.5][g.usize_in(0, 4)],
                    seed: g.u64_in(0, u64::MAX),
                    initial_tries: g.u32_in(0, 13),
                    max_fm_passes: g.u32_in(0, 9),
                };
                let serial = hg.partition(&config).expect("valid config");
                for pool in &pools {
                    assert_eq!(
                        hg.partition_with(&config, pool).expect("valid config"),
                        serial,
                        "{} jobs, {config:?}",
                        pool.jobs()
                    );
                }
            },
        );
    }

    #[test]
    fn weighted_vertices_stay_balanced() {
        let mut b = HypergraphBuilder::new();
        for i in 0..16u32 {
            b.add_vertex(u64::from(i % 4) + 1);
        }
        for v in 0..15u32 {
            b.add_edge(1, &[v, v + 1]).expect("valid");
        }
        let hg = b.build();
        let total = hg.total_vertex_weight();
        let p = hg
            .partition(&PartitionConfig::new(2).with_seed(2))
            .expect("valid");
        let weights = p.part_weights(&hg);
        let cap = ((total as f64 / 2.0) * 1.10).ceil() as u64 + 4;
        assert!(weights.iter().all(|&w| w <= cap), "{weights:?} cap {cap}");
    }
}
