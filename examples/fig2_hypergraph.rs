//! Figure 2 of the paper: hypergraph partitioning for SI test pattern
//! length reduction.
//!
//! Seven cores form the vertices; each distinct care-core set of the SI
//! test set is a hyperedge. Bipartitioning the cores leaves the hyperedge
//! {4, 6, 7} cut — the patterns behind it must load the wrapper output
//! cells of *all* cores, while every other pattern only loads its own
//! group.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example fig2_hypergraph
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)]

use soctam::hypergraph::{HypergraphBuilder, PartitionConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Cores 1..=7 (vertex index = core number - 1); the vertex weight is
    // the core's wrapper-output-cell count.
    let woc = [24u64, 24, 24, 24, 24, 24, 24];
    let mut builder = HypergraphBuilder::new();
    for &w in &woc {
        builder.add_vertex(w);
    }
    // Hyperedges: care-core sets with their pattern counts as weights.
    // Cores 1, 2 and 4 exchange many patterns, as do cores 3, 5, 6 and 7;
    // only the light {4, 6, 7} edge straddles the two clusters.
    let edges: &[(&[u32], u64)] = &[
        (&[0, 1], 120),   // cores 1-2
        (&[0, 3], 110),   // cores 1-4
        (&[1, 3], 95),    // cores 2-4
        (&[2, 4], 90),    // cores 3-5
        (&[4, 5], 85),    // cores 5-6
        (&[5, 6], 80),    // cores 6-7
        (&[4, 6], 75),    // cores 5-7
        (&[3, 5, 6], 12), // cores 4-6-7: the cut hyperedge of Fig. 2
    ];
    for &(pins, weight) in edges {
        builder.add_edge(weight, pins)?;
    }
    let hg = builder.build();

    let partition = hg.partition(&PartitionConfig::new(2).with_seed(1))?;
    println!("core partition (core -> group):");
    for v in 0..7u32 {
        println!("  core {} -> group {}", v + 1, partition.part(v));
    }
    println!();

    let mut cut_edges = Vec::new();
    for e in 0..hg.num_edges() as u32 {
        if partition.is_cut(&hg, e) {
            cut_edges.push(e);
        }
    }
    println!("cut hyperedges (their patterns stay full-length):");
    for e in &cut_edges {
        let cores: Vec<String> = hg.pins(*e).iter().map(|&v| (v + 1).to_string()).collect();
        println!(
            "  {{{}}} carrying {} patterns",
            cores.join("-"),
            hg.edge_weight(*e)
        );
    }
    println!(
        "\ncut pattern weight: {} of {} total",
        partition.cut_weight(&hg),
        hg.total_edge_weight()
    );

    // The natural cut separates {1,2,4} from {3,5,6,7} and cuts only the
    // three-core hyperedge, exactly as in the figure (pinned by the
    // `fig2_cut_matches_figure` test of soctam-hypergraph).
    assert_eq!(partition.cut_weight(&hg), 12);
    Ok(())
}
