//! Quality test: the multilevel FM partitioner versus brute-force optimal
//! bisection on small random hypergraphs. hMetis-class heuristics are not
//! optimal, but on instances of the size this workspace actually
//! partitions (≤ 33 cores) they should sit very close to the optimum.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use soctam_exec::Rng;

use soctam_hypergraph::{Hypergraph, HypergraphBuilder, PartitionConfig};

fn random_hypergraph(vertices: u32, edges: u32, seed: u64) -> Hypergraph {
    let mut rng = Rng::seed_from_u64(seed);
    let mut builder = HypergraphBuilder::new();
    for _ in 0..vertices {
        builder.add_vertex(rng.range_u64_inclusive(1, 5));
    }
    for _ in 0..edges {
        let len = rng.range_usize_inclusive(2, 4);
        let mut pins: Vec<u32> = Vec::new();
        while pins.len() < len {
            let v = rng.range_u32(0, vertices);
            if !pins.contains(&v) {
                pins.push(v);
            }
        }
        builder
            .add_edge(rng.range_u64_inclusive(1, 10), &pins)
            .expect("pins valid");
    }
    builder.build()
}

/// Brute-force optimal balanced bisection cut (caps mirror the heuristic's
/// feasible region: (total/2)·1.1 + max vertex weight).
fn optimal_bisection_cut(hg: &Hypergraph) -> u64 {
    let n = hg.num_vertices();
    assert!(n <= 16, "brute force limited to 16 vertices");
    let total = hg.total_vertex_weight();
    let max_vertex = (0..n as u32)
        .map(|v| hg.vertex_weight(v))
        .max()
        .unwrap_or(0);
    let cap = ((total as f64 / 2.0) * 1.1).ceil() as u64 + max_vertex;
    let mut best = u64::MAX;
    for mask in 1u32..(1 << n) - 1 {
        let mut w0 = 0u64;
        for v in 0..n {
            if mask & (1 << v) != 0 {
                w0 += hg.vertex_weight(v as u32);
            }
        }
        let w1 = total - w0;
        if w0 > cap || w1 > cap {
            continue;
        }
        let mut cut = 0u64;
        for e in 0..hg.num_edges() as u32 {
            let pins = hg.pins(e);
            let first = mask & (1 << pins[0]) != 0;
            if pins.iter().any(|&v| (mask & (1 << v) != 0) != first) {
                cut += hg.edge_weight(e);
            }
        }
        best = best.min(cut);
    }
    best
}

#[test]
fn fm_bisection_is_near_optimal_on_small_instances() {
    let mut total_gap = 0u64;
    let mut total_opt = 0u64;
    for seed in 0..20u64 {
        let hg = random_hypergraph(12, 24, seed);
        let optimal = optimal_bisection_cut(&hg);
        let partition = hg
            .partition(&PartitionConfig::new(2).with_seed(seed))
            .expect("partitions");
        let heuristic = partition.cut_weight(&hg);
        assert!(
            heuristic >= optimal,
            "seed {seed}: heuristic {heuristic} beat 'optimal' {optimal} — brute force is wrong"
        );
        // Individually, allow the heuristic 40% headroom over optimal; the
        // aggregate bound below is much tighter.
        assert!(
            heuristic <= optimal + optimal.max(5) * 2 / 5 + 3,
            "seed {seed}: heuristic {heuristic} too far from optimal {optimal}"
        );
        total_gap += heuristic - optimal;
        total_opt += optimal;
    }
    // Across 20 instances the average excess cut must stay below 15%.
    assert!(
        total_gap * 100 <= total_opt.max(1) * 15,
        "aggregate gap {total_gap} over optimal total {total_opt}"
    );
}

/// Figure 2 of the paper, as `examples/fig2_hypergraph.rs` builds it: seven
/// cores (vertex = core number − 1) in two clusters joined by one light
/// three-core hyperedge.
#[test]
fn fig2_cut_matches_figure() {
    let mut builder = HypergraphBuilder::new();
    for _ in 0..7 {
        builder.add_vertex(24);
    }
    let edges: &[(&[u32], u64)] = &[
        (&[0, 1], 120),
        (&[0, 3], 110),
        (&[1, 3], 95),
        (&[2, 4], 90),
        (&[4, 5], 85),
        (&[5, 6], 80),
        (&[4, 6], 75),
        (&[3, 5, 6], 12),
    ];
    for &(pins, weight) in edges {
        builder.add_edge(weight, pins).expect("pins valid");
    }
    let hg = builder.build();
    let partition = hg
        .partition(&PartitionConfig::new(2).with_seed(1))
        .expect("partitions");
    // Only the {4, 6, 7} hyperedge is cut: cores {1, 2, 4} | {3, 5, 6, 7}.
    assert_eq!(partition.cut_weight(&hg), 12);
    assert_eq!(partition.members(0), vec![0, 1, 3]);
    assert_eq!(partition.members(1), vec![2, 4, 5, 6]);
}

#[test]
fn kway_matches_repeated_bisection_quality() {
    for seed in 0..5u64 {
        let hg = random_hypergraph(14, 30, seed + 100);
        let p2 = hg
            .partition(&PartitionConfig::new(2).with_seed(seed))
            .expect("partitions");
        let p4 = hg
            .partition(&PartitionConfig::new(4).with_seed(seed))
            .expect("partitions");
        // Refining a partition (more parts) can only cut more.
        assert!(p4.cut_weight(&hg) >= p2.cut_weight(&hg));
    }
}
