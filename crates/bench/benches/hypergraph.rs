//! Timing benches for the multilevel hypergraph partitioner (the
//! hMetis substitute): random hypergraphs with small edges and low
//! degree, the core hypergraphs the compaction pipeline actually
//! partitions (a few dozen vertices of degree in the thousands), and the
//! whole horizontal grouping stage around them.
//!
//! Pass `--json <path>` to additionally write the results as a JSON
//! report (used by the CI perf-smoke job).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use soctam::compaction::{build_core_hypergraph_packed, group_patterns_packed};
use soctam::hypergraph::{Hypergraph, HypergraphBuilder, PartitionConfig};
use soctam::patterns::{PackedLayout, PackedSet};
use soctam::Benchmark;
use soctam_bench::harness::{samples, Session};
use soctam_bench::{bench_patterns, TABLE_SEED};
use soctam_exec::Rng;

fn random_hypergraph(vertices: u32, edges: u32, seed: u64) -> Hypergraph {
    let mut rng = Rng::seed_from_u64(seed);
    let mut builder = HypergraphBuilder::new();
    for _ in 0..vertices {
        builder.add_vertex(rng.range_u64_inclusive(1, 40));
    }
    for _ in 0..edges {
        let len = rng.range_usize_inclusive(2, 5);
        let pins: Vec<u32> = (0..len).map(|_| rng.range_u32(0, vertices)).collect();
        if pins.iter().collect::<std::collections::HashSet<_>>().len() >= 2 {
            builder
                .add_edge(rng.range_u64_inclusive(1, 20), &pins)
                .expect("pins in range");
        }
    }
    builder.build()
}

fn main() {
    let mut session = Session::from_args();
    let samples = samples(10);
    for (vertices, edges) in [(32u32, 200u32), (128, 1_000), (512, 4_000)] {
        let hg = random_hypergraph(vertices, edges, 7);
        for parts in [2u32, 8] {
            let config = PartitionConfig::new(parts).with_seed(3);
            session.bench(
                &format!("hypergraph_partition/v{vertices}_e{edges}/{parts}"),
                samples,
                || hg.partition(&config).expect("partitions"),
            );
        }
    }

    // The core hypergraphs of Section 3, partitioned as `optimize --seed
    // 2007 --partitions i` partitions them.
    for (benchmark, name, patterns) in [
        (Benchmark::P93791, "p93791", 100_000usize),
        (Benchmark::P34392, "p34392", 10_000),
    ] {
        let soc = benchmark.soc();
        let raw = bench_patterns(&soc, patterns);
        let set = PackedSet::build(raw.as_slice());
        let hg = build_core_hypergraph_packed(&soc, &set, &PackedLayout::new(&soc));
        for parts in [2u32, 4, 8] {
            let config = PartitionConfig::new(parts).with_seed(TABLE_SEED);
            session.bench(
                &format!("hypergraph_partition/{name}_core/{patterns}/{parts}"),
                samples,
                || hg.partition(&config).expect("partitions"),
            );
        }
    }

    // The whole grouping stage: care-core extraction, hypergraph build,
    // partition and pattern bucketing (i = 1 skips all but the buckets).
    let soc = Benchmark::P93791.soc();
    let raw = bench_patterns(&soc, 100_000);
    let set = PackedSet::build(raw.as_slice());
    let layout = PackedLayout::new(&soc);
    for parts in [1u32, 4] {
        let config = PartitionConfig::new(parts).with_seed(TABLE_SEED);
        session.bench(
            &format!("group_patterns_packed/p93791/100000/{parts}"),
            samples,
            || group_patterns_packed(&soc, &set, &layout, parts, &config).expect("groups"),
        );
    }
    session.finish();
}
