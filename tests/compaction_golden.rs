//! Golden compaction outputs: fixed seeds must produce bit-identical
//! vertical covers and horizontal groupings across platforms and rewrites.
//!
//! The cover fingerprints were recorded from the *pre-kernel* sparse
//! implementation and re-verified against the epoch-based packed
//! accumulator; the single-pass first-fit cover must reproduce them
//! exactly (the three formulations are provably output-equivalent). The
//! grouping fingerprints pin the hypergraph partitioner and the pattern
//! bucketing; they were recorded from the FM refinement that recomputed
//! every neighbour's gain after each move, and the delta-gain update must
//! reproduce them exactly. The pipeline goldens pin the counters of whole
//! two-dimensional compactions of sets with injected duplicates (the
//! duplicate count, the compacted counts, the cut and both kernel
//! counters); they were recorded with the per-bucket `HashSet<&SiPattern>`
//! duplicate filter, and the fingerprinted pass over the packed arena must
//! reproduce them exactly, through the sparse entry and through the
//! packed entry `compact_packed_with` alike. A failure here means the greedy cover's, the
//! partitioner's or the duplicate filter's semantics drifted — update the
//! constants only for a deliberate model change.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::hash::Hasher;

use soctam::compaction::{
    compact_greedy_ordered, compact_packed_with, compact_two_dimensional, group_patterns_packed,
    CompactionConfig, CompactionStats, MergeOrder, PatternGrouping,
};
use soctam::hypergraph::PartitionConfig;
use soctam::patterns::{PackedLayout, PackedSet};
use soctam::{Benchmark, Pool, RandomPatternConfig, SiPattern, SiPatternSet};
use soctam_exec::FxHasher;

/// Order-sensitive fingerprint of a compacted cover: every care bit and
/// bus line of every clique, in output order.
fn cover_fingerprint(cover: &[SiPattern]) -> u64 {
    let mut hasher = FxHasher::default();
    for pattern in cover {
        hasher.write_usize(pattern.care_bits().len());
        for &(t, s) in pattern.care_bits() {
            hasher.write_u32(t.raw());
            hasher.write_u8(s as u8);
        }
        hasher.write_usize(pattern.bus_lines().len());
        for &(l, d) in pattern.bus_lines() {
            hasher.write_u8(l.raw());
            hasher.write_u32(d.raw());
        }
    }
    hasher.finish()
}

fn golden_case(benchmark: Benchmark, order: MergeOrder, cliques: usize, fingerprint: u64) {
    let soc = benchmark.soc();
    let raw = SiPatternSet::random(&soc, &RandomPatternConfig::new(2_000).with_seed(2007))
        .expect("valid set");
    let cover = compact_greedy_ordered(&soc, raw.as_slice(), order);
    assert_eq!(cover.len(), cliques, "{benchmark:?}/{order:?} clique count");
    assert_eq!(
        cover_fingerprint(&cover),
        fingerprint,
        "{benchmark:?}/{order:?} cover fingerprint"
    );
}

#[test]
fn d695_input_order_cover_is_stable() {
    golden_case(
        Benchmark::D695,
        MergeOrder::InputOrder,
        57,
        0x622075fb892cfd46,
    );
}

#[test]
fn d695_most_care_bits_cover_is_stable() {
    golden_case(
        Benchmark::D695,
        MergeOrder::MostCareBitsFirst,
        46,
        0x5c3c2d04ecfef656,
    );
}

#[test]
fn p34392_input_order_cover_is_stable() {
    golden_case(
        Benchmark::P34392,
        MergeOrder::InputOrder,
        75,
        0xc9a99035db215584,
    );
}

#[test]
fn p34392_most_care_bits_cover_is_stable() {
    golden_case(
        Benchmark::P34392,
        MergeOrder::MostCareBitsFirst,
        64,
        0xa1781c848d55c11a,
    );
}

/// Order-sensitive fingerprint of a grouping: the core partition, every
/// bucket's pattern indices, the remainder and the cut weight.
fn grouping_fingerprint(grouping: &PatternGrouping) -> u64 {
    let mut hasher = FxHasher::default();
    let mut write_indices = |indices: &[usize]| {
        hasher.write_u64(indices.len() as u64);
        for &i in indices {
            hasher.write_u64(i as u64);
        }
    };
    for bucket in &grouping.buckets {
        write_indices(bucket);
    }
    write_indices(&grouping.remainder);
    hasher.write_u64(grouping.core_part.len() as u64);
    for &part in &grouping.core_part {
        hasher.write_u32(part);
    }
    hasher.write_u64(grouping.cut_weight);
    hasher.finish()
}

/// Groups N_r = 10 000 patterns of `benchmark` at pattern and partitioner
/// seeds 1–3 and i ∈ {2, 4, 8}, as `optimize --seed s --partitions i`
/// does, and checks each `(seed, parts, cut weight, fingerprint)` case.
fn grouping_golden(benchmark: Benchmark, cases: &[(u64, u32, u64, u64)]) {
    let soc = benchmark.soc();
    let layout = PackedLayout::new(&soc);
    let mut seen = Vec::new();
    for seed in 1..=3u64 {
        let raw = SiPatternSet::random(&soc, &RandomPatternConfig::new(10_000).with_seed(seed))
            .expect("valid set");
        let set = PackedSet::build(raw.as_slice());
        for parts in [2u32, 4, 8] {
            let grouping = group_patterns_packed(
                &soc,
                &set,
                &layout,
                parts,
                &PartitionConfig::new(parts).with_seed(seed),
            )
            .expect("groups");
            seen.push((
                seed,
                parts,
                grouping.cut_weight,
                grouping_fingerprint(&grouping),
            ));
        }
    }
    assert_eq!(
        seen, cases,
        "{benchmark:?} groupings (seed, parts, cut, fingerprint)"
    );
}

#[test]
fn d695_grouping_is_stable() {
    grouping_golden(
        Benchmark::D695,
        &[
            (1, 2, 3123, 0xf85644fc275063b0),
            (1, 4, 4472, 0x4cf17ad88e79b28d),
            (1, 8, 5778, 0xa1a5bbe6d9ea2b7b),
            (2, 2, 3037, 0x711af11e39e48c75),
            (2, 4, 4495, 0x795f417c66d62adb),
            (2, 8, 5780, 0xd50d27266321a2eb),
            (3, 2, 3064, 0x096d5f0e6d90372b),
            (3, 4, 4422, 0x64b7ec8ecb728137),
            (3, 8, 5684, 0x115abe1ccb790abe),
        ],
    );
}

#[test]
fn p34392_grouping_is_stable() {
    grouping_golden(
        Benchmark::P34392,
        &[
            (1, 2, 3739, 0x92d1ad861763c131),
            (1, 4, 5183, 0xc0d042df3fa9fa8e),
            (1, 8, 5867, 0xcbeb5b3969535c6c),
            (2, 2, 3685, 0xcaf80cb5c1bce5c0),
            (2, 4, 5172, 0xc8e5cd779449b04c),
            (2, 8, 5852, 0x6ec3955032702a34),
            (3, 2, 3674, 0xc7fc16565cc82455),
            (3, 4, 5155, 0xff3e7e484f06725f),
            (3, 8, 5907, 0x5798981f91a98c59),
        ],
    );
}

#[test]
fn p93791_grouping_is_stable() {
    grouping_golden(
        Benchmark::P93791,
        &[
            (1, 2, 3292, 0x184dde0323e836b0),
            (1, 4, 4730, 0x851621b7b9831cf9),
            (1, 8, 5391, 0x3d5abc8d449597fa),
            (2, 2, 3342, 0x19815fe0d2b57f65),
            (2, 4, 4792, 0x8611a73c24991d11),
            (2, 8, 5433, 0xce5ed7fec25a03a6),
            (3, 2, 2743, 0x54a0a14b9f078a5c),
            (3, 4, 4558, 0xd72ecc42238d0dce),
            (3, 8, 5340, 0xf4829dd30a9e687d),
        ],
    );
}

/// N_r = 10 000 patterns of `benchmark` at seed 2007 with exact
/// duplicates injected: every 37th pattern is replaced by a copy of an
/// earlier one, so copies land in every bucket and in the remainder.
fn set_with_duplicates(benchmark: Benchmark) -> SiPatternSet {
    let soc = benchmark.soc();
    let raw = SiPatternSet::random(&soc, &RandomPatternConfig::new(10_000).with_seed(2007))
        .expect("valid set");
    let mut patterns = raw.into_vec();
    for i in (37..patterns.len()).step_by(37) {
        patterns[i] = patterns[i / 3].clone();
    }
    SiPatternSet::from_patterns(patterns)
}

/// The counters of one pipeline run that no cover fingerprint sees:
/// `(i, duplicates, compacted per part, compacted remainder, cut weight,
/// kernel words compared, kernel fast rejects)`.
type PipelineCase = (u32, usize, Vec<usize>, usize, u64, u64, u64);

fn pipeline_case(parts: u32, stats: &CompactionStats) -> PipelineCase {
    (
        parts,
        stats.duplicate_patterns,
        stats.group_patterns.clone(),
        stats.remainder_patterns,
        stats.cut_weight,
        stats.kernel_words_compared,
        stats.kernel_fast_rejects,
    )
}

/// Runs the two-dimensional pipeline on [`set_with_duplicates`] at
/// i ∈ {1, 4}, through the sparse entry and through the packed entry
/// on the packed set, and checks each [`PipelineCase`] for both.
fn pipeline_golden(benchmark: Benchmark, cases: &[PipelineCase]) {
    let soc = benchmark.soc();
    let raw = set_with_duplicates(benchmark);
    let packed = PackedSet::build(raw.as_slice());
    for entry in ["compact_two_dimensional", "compact_packed_with"] {
        let seen: Vec<PipelineCase> = [1u32, 4]
            .into_iter()
            .map(|parts| {
                let config = CompactionConfig::new(parts).with_seed(2007);
                let result = match entry {
                    "compact_two_dimensional" => compact_two_dimensional(&soc, &raw, &config),
                    _ => compact_packed_with(&soc, &packed, &config, &Pool::serial()),
                };
                pipeline_case(parts, result.expect("compacts").stats())
            })
            .collect();
        assert_eq!(seen, cases, "{benchmark:?} pipeline counters via {entry}");
    }
}

#[test]
fn d695_pipeline_counters_are_stable() {
    pipeline_golden(
        Benchmark::D695,
        &[
            (1, 270, vec![164], 0, 0, 88232, 226708),
            (4, 270, vec![22, 71, 18, 17], 95, 4397, 70075, 109488),
        ],
    );
}

#[test]
fn p93791_pipeline_counters_are_stable() {
    pipeline_golden(
        Benchmark::P93791,
        &[
            (1, 270, vec![273], 0, 0, 57064, 414686),
            (4, 270, vec![9, 28, 27, 108], 145, 4588, 45652, 176448),
        ],
    );
}
