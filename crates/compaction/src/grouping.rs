//! Horizontal compaction: core grouping via hypergraph partitioning
//! (Fig. 2 of the paper).

use std::collections::BTreeMap;

use soctam_hypergraph::{Hypergraph, HypergraphBuilder, Partition, PartitionConfig};
use soctam_model::{CoreId, Soc};
use soctam_patterns::{PackedLayout, PackedSet, SiPattern};

use crate::vertical::assert_in_terminal_space;
use crate::CompactionError;

/// Builds the core hypergraph of Section 3: one vertex per core (weight =
/// its wrapper output cell count), one hyperedge per *distinct care-core
/// set* occurring in `patterns` (weight = how many patterns share it).
///
/// Single-core care sets become single-pin edges, which the partitioner
/// ignores (they can never be cut).
///
/// # Panics
///
/// Panics if a pattern references a terminal outside `soc`.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use soctam_compaction::build_core_hypergraph;
/// use soctam_model::Benchmark;
/// use soctam_patterns::{RandomPatternConfig, SiPatternSet};
///
/// let soc = Benchmark::D695.soc();
/// let set = SiPatternSet::random(&soc, &RandomPatternConfig::new(200))?;
/// let hg = build_core_hypergraph(&soc, set.as_slice());
/// assert_eq!(hg.num_vertices(), soc.num_cores());
/// # Ok(())
/// # }
/// ```
pub fn build_core_hypergraph(soc: &Soc, patterns: &[SiPattern]) -> Hypergraph {
    let set = PackedSet::build(patterns);
    build_core_hypergraph_packed(soc, &set, &PackedLayout::new(soc))
}

/// [`build_core_hypergraph`] over an already-packed pattern set: care-core
/// extraction runs on the bit-packed words via `layout`, so the pipeline
/// packs once and reuses the set for grouping *and* vertical compaction.
///
/// # Panics
///
/// Panics if a pattern references a terminal outside `soc`.
pub fn build_core_hypergraph_packed(
    soc: &Soc,
    set: &PackedSet,
    layout: &PackedLayout,
) -> Hypergraph {
    CareCoreSets::extract(set, layout).hypergraph(soc)
}

/// Every pattern's care-core set, extracted once: the distinct sets with
/// their pattern counts, and each pattern's index into them. Grouping
/// builds the hypergraph from the distinct sets and then buckets every
/// pattern by classifying its set, without a second extraction pass.
struct CareCoreSets {
    /// Distinct care-core sets (sorted raw core ids, possibly empty) →
    /// index into `weights`. Sorted keys make the edge emission in
    /// [`CareCoreSets::hypergraph`] deterministic without a separate sort.
    index: BTreeMap<Vec<u32>, u32>,
    /// Patterns per distinct set, in first-seen order.
    weights: Vec<u64>,
    /// `of_pattern[i]` is pattern `i`'s index into `weights`.
    of_pattern: Vec<u32>,
}

impl CareCoreSets {
    fn extract(set: &PackedSet, layout: &PackedLayout) -> Self {
        let mut sets = CareCoreSets {
            index: BTreeMap::new(),
            weights: Vec::new(),
            of_pattern: Vec::with_capacity(set.len()),
        };
        let mut cores: Vec<CoreId> = Vec::new();
        let mut raw: Vec<u32> = Vec::new();
        for i in 0..set.len() {
            layout.care_cores_into(set.get(i), &mut cores);
            raw.clear();
            raw.extend(cores.iter().map(|c| c.raw()));
            // Borrow-keyed lookup first: the key `Vec` is only allocated for
            // care-core sets seen for the first time.
            let id = match sets.index.get(raw.as_slice()) {
                Some(&id) => id,
                None => {
                    let id = sets.weights.len() as u32;
                    sets.index.insert(raw.clone(), id);
                    sets.weights.push(0);
                    id
                }
            };
            sets.weights[id as usize] += 1;
            sets.of_pattern.push(id);
        }
        sets
    }

    /// The core hypergraph: one edge per distinct non-empty set, in
    /// sorted pin order.
    // Invariant: care cores come from the layout, so every pin indexes a declared vertex.
    #[allow(clippy::expect_used)]
    fn hypergraph(&self, soc: &Soc) -> Hypergraph {
        let mut builder = HypergraphBuilder::new();
        builder.add_vertices(soc.iter().map(|(_, core)| u64::from(core.woc_count())));
        for (pins, &id) in &self.index {
            if !pins.is_empty() {
                builder
                    .add_edge(self.weights[id as usize], pins)
                    .expect("care cores are valid vertices");
            }
        }
        builder.build()
    }
}

/// The assignment of raw patterns to partition buckets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PatternGrouping {
    /// Core partition: `core_part[core] = part`.
    pub core_part: Vec<u32>,
    /// Number of parts.
    pub parts: u32,
    /// `bucket[i]` holds the indices of patterns whose care cores all lie
    /// in part `i`.
    pub buckets: Vec<Vec<usize>>,
    /// Indices of patterns whose care cores span multiple parts.
    pub remainder: Vec<usize>,
    /// Weight of cut hyperedges in the chosen partition.
    pub cut_weight: u64,
}

impl PatternGrouping {
    /// The cores assigned to part `p`.
    pub fn part_cores(&self, p: u32) -> Vec<CoreId> {
        self.core_part
            .iter()
            .enumerate()
            .filter_map(|(c, &q)| (q == p).then_some(CoreId::new(c as u32)))
            .collect()
    }
}

/// Partitions the cores into `parts` groups (minimizing the weighted
/// pattern cut) and buckets every pattern: patterns whose care cores all
/// fall into one part go to that part's bucket, the rest to the remainder.
///
/// With `parts == 1` everything lands in bucket 0 and the remainder is
/// empty.
///
/// # Errors
///
/// [`CompactionError::TooManyPartitions`] when `parts` exceeds the core
/// count, or a forwarded partitioning error.
///
/// # Panics
///
/// Panics if a pattern references a terminal outside `soc`.
pub fn group_patterns(
    soc: &Soc,
    patterns: &[SiPattern],
    parts: u32,
    partition_config: &PartitionConfig,
) -> Result<PatternGrouping, CompactionError> {
    let set = PackedSet::build(patterns);
    group_patterns_packed(soc, &set, &PackedLayout::new(soc), parts, partition_config)
}

/// [`group_patterns`] over an already-packed pattern set (see
/// [`build_core_hypergraph_packed`]).
///
/// # Errors
///
/// Same contract as [`group_patterns`].
///
/// # Panics
///
/// Panics if a pattern references a terminal outside `soc`.
pub fn group_patterns_packed(
    soc: &Soc,
    set: &PackedSet,
    layout: &PackedLayout,
    parts: u32,
    partition_config: &PartitionConfig,
) -> Result<PatternGrouping, CompactionError> {
    if parts as usize > soc.num_cores() {
        return Err(CompactionError::TooManyPartitions {
            partitions: parts,
            cores: soc.num_cores(),
        });
    }
    // Checked up front because `i = 1` never reaches the extraction, whose
    // own check backs the `# Panics` contract otherwise.
    assert_in_terminal_space(soc, set);
    if parts <= 1 {
        // One part: every pattern lands in bucket 0 whatever its care
        // cores, so none are extracted.
        return Ok(PatternGrouping {
            core_part: vec![0; soc.num_cores()],
            parts: 1,
            buckets: vec![(0..set.len()).collect()],
            remainder: Vec::new(),
            cut_weight: 0,
        });
    }
    let sets = CareCoreSets::extract(set, layout);
    let hg = sets.hypergraph(soc);
    let config = PartitionConfig {
        parts,
        ..partition_config.clone()
    };
    let partition: Partition = hg.partition(&config)?;
    let cut_weight = partition.cut_weight(&hg);
    let core_part = partition.assignment().to_vec();

    // Classify each distinct set once: `Some(part)` when all its cores lie
    // in one part (an empty set goes to part 0), `None` when it is cut.
    let mut set_part: Vec<Option<u32>> = vec![None; sets.weights.len()];
    for (cores, &id) in &sets.index {
        set_part[id as usize] = match cores.split_first() {
            None => Some(0),
            Some((&first, rest)) => {
                let part = core_part[first as usize];
                rest.iter()
                    .all(|&c| core_part[c as usize] == part)
                    .then_some(part)
            }
        };
    }
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); parts as usize];
    let mut remainder = Vec::new();
    for (index, &id) in sets.of_pattern.iter().enumerate() {
        match set_part[id as usize] {
            Some(part) => buckets[part as usize].push(index),
            None => remainder.push(index),
        }
    }

    Ok(PatternGrouping {
        core_part,
        parts,
        buckets,
        remainder,
        cut_weight,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctam_model::{Benchmark, TerminalId};
    use soctam_patterns::{RandomPatternConfig, SiPatternSet, Symbol};

    fn setup(n: usize) -> (Soc, SiPatternSet) {
        let soc = Benchmark::D695.soc();
        let set =
            SiPatternSet::random(&soc, &RandomPatternConfig::new(n).with_seed(6)).expect("valid");
        (soc, set)
    }

    #[test]
    fn hypergraph_vertices_are_cores() {
        let (soc, set) = setup(300);
        let hg = build_core_hypergraph(&soc, set.as_slice());
        assert_eq!(hg.num_vertices(), soc.num_cores());
        for (id, core) in soc.iter() {
            assert_eq!(hg.vertex_weight(id.raw()), u64::from(core.woc_count()));
        }
    }

    #[test]
    fn hyperedge_weights_sum_to_pattern_count() {
        let (soc, set) = setup(250);
        let hg = build_core_hypergraph(&soc, set.as_slice());
        assert_eq!(hg.total_edge_weight(), 250);
    }

    #[test]
    fn single_partition_buckets_everything_together() {
        let (soc, set) = setup(100);
        let grouping =
            group_patterns(&soc, set.as_slice(), 1, &PartitionConfig::new(1)).expect("valid");
        assert_eq!(grouping.buckets.len(), 1);
        assert_eq!(grouping.buckets[0].len(), 100);
        assert!(grouping.remainder.is_empty());
        assert_eq!(grouping.cut_weight, 0);
    }

    #[test]
    fn buckets_and_remainder_partition_the_indices() {
        let (soc, set) = setup(400);
        for parts in [2u32, 4] {
            let grouping =
                group_patterns(&soc, set.as_slice(), parts, &PartitionConfig::new(parts))
                    .expect("valid");
            let mut seen: Vec<usize> = grouping
                .buckets
                .iter()
                .flatten()
                .chain(&grouping.remainder)
                .copied()
                .collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..400).collect::<Vec<_>>());
        }
    }

    #[test]
    fn bucketed_patterns_stay_within_their_part() {
        let (soc, set) = setup(400);
        let grouping =
            group_patterns(&soc, set.as_slice(), 4, &PartitionConfig::new(4)).expect("valid");
        for (part, bucket) in grouping.buckets.iter().enumerate() {
            for &index in bucket {
                for core in set.as_slice()[index].care_cores(&soc) {
                    assert_eq!(grouping.core_part[core.index()], part as u32);
                }
            }
        }
    }

    #[test]
    fn remainder_matches_cut_weight() {
        let (soc, set) = setup(500);
        let grouping =
            group_patterns(&soc, set.as_slice(), 2, &PartitionConfig::new(2)).expect("valid");
        // Every remainder pattern's care-core set is a cut hyperedge; the
        // cut weight counts exactly those patterns.
        assert_eq!(grouping.cut_weight as usize, grouping.remainder.len());
    }

    #[test]
    fn too_many_partitions_rejected() {
        let (soc, set) = setup(10);
        assert!(matches!(
            group_patterns(&soc, set.as_slice(), 11, &PartitionConfig::new(11)),
            Err(CompactionError::TooManyPartitions { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "outside the soc")]
    fn out_of_range_terminal_panics_without_partitioning() {
        let soc = Benchmark::D695.soc();
        let bogus = SiPattern::new(vec![(TerminalId::new(10_000_000), Symbol::Rise)], vec![])
            .expect("valid pattern");
        let _ = group_patterns(&soc, &[bogus], 1, &PartitionConfig::new(1));
    }

    #[test]
    fn part_cores_cover_all_cores() {
        let (soc, set) = setup(200);
        let grouping =
            group_patterns(&soc, set.as_slice(), 4, &PartitionConfig::new(4)).expect("valid");
        let total: usize = (0..4).map(|p| grouping.part_cores(p).len()).sum();
        assert_eq!(total, soc.num_cores());
    }
}
