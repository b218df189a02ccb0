//! Horizontal compaction: core grouping via hypergraph partitioning
//! (Fig. 2 of the paper).

use std::cmp::Ordering;
use std::hash::Hasher;

use soctam_exec::{FxHasher, Pool};
use soctam_hypergraph::{
    Hypergraph, HypergraphBuilder, HypergraphError, Partition, PartitionConfig,
};
use soctam_model::{CoreId, Soc};
use soctam_patterns::{PackedLayout, PackedSet, SiPattern};

use crate::first_seen::FirstSeen;
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
/// Panics if a pattern references a terminal or a bus driver core
/// outside `soc`.
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
/// Panics if a pattern references a terminal or a bus driver core
/// outside `soc`.
pub fn build_core_hypergraph_packed(
    soc: &Soc,
    set: &PackedSet,
    layout: &PackedLayout,
) -> Hypergraph {
    CareCoreSets::extract(set, layout).hypergraph(soc)
}

/// Every pattern's care-core set, extracted once as a bitset of
/// [`PackedLayout::core_words`] words: the distinct sets with their
/// pattern counts, and each pattern's index into them. Grouping builds
/// the hypergraph from the distinct sets and then buckets every pattern
/// by classifying its set, without a second extraction pass.
#[derive(Debug)]
struct CareCoreSets {
    /// Words per bitset.
    words: usize,
    /// Distinct care-core bitsets (possibly empty), `words` words each,
    /// in first-seen order.
    distinct: Vec<u64>,
    /// Patterns per distinct set, in first-seen order.
    weights: Vec<u64>,
    /// `of_pattern[i]` is pattern `i`'s index into `weights`.
    of_pattern: Vec<u32>,
}

impl CareCoreSets {
    fn extract(set: &PackedSet, layout: &PackedLayout) -> Self {
        let mut sets = CareCoreSets {
            words: layout.core_words(),
            distinct: Vec::new(),
            weights: Vec::new(),
            of_pattern: Vec::with_capacity(set.len()),
        };
        let mut seen = FirstSeen::with_capacity(0);
        let mut bits = vec![0u64; sets.words];
        for i in 0..set.len() {
            layout.care_core_bits(set.get(i), &mut bits);
            let mut hasher = FxHasher::default();
            for &word in &bits {
                hasher.write_u64(word);
            }
            let (id, first) = seen.id_of(hasher.finish(), |id| sets.bits(id) == bits);
            if first {
                sets.distinct.extend_from_slice(&bits);
                sets.weights.push(0);
            }
            sets.weights[id as usize] += 1;
            sets.of_pattern.push(id);
        }
        sets
    }

    /// The bitset of distinct set `id`.
    fn bits(&self, id: u32) -> &[u64] {
        let start = id as usize * self.words;
        &self.distinct[start..start + self.words]
    }

    /// The core hypergraph: one edge per distinct non-empty set, in
    /// ascending order of the sets' sorted pin lists.
    // Invariant: care cores come from the layout, so every pin indexes a declared vertex.
    #[allow(clippy::expect_used)]
    fn hypergraph(&self, soc: &Soc) -> Hypergraph {
        let mut builder = HypergraphBuilder::new();
        builder.add_vertices(soc.iter().map(|(_, core)| u64::from(core.woc_count())));
        let mut ids: Vec<u32> = (0..self.weights.len() as u32).collect();
        ids.sort_unstable_by(|&a, &b| pin_list_cmp(self.bits(a), self.bits(b)));
        let mut pins: Vec<u32> = Vec::new();
        for id in ids {
            pins.clear();
            pins.extend(bitset_cores(self.bits(id)));
            if !pins.is_empty() {
                builder
                    .add_edge(self.weights[id as usize], &pins)
                    .expect("care cores are valid vertices");
            }
        }
        builder.build()
    }
}

/// The cores of a care-core bitset, ascending.
fn bitset_cores(bits: &[u64]) -> impl Iterator<Item = u32> + '_ {
    bits.iter().enumerate().flat_map(|(k, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                k as u32 * 64 + bit
            })
        })
    })
}

/// Compares two care-core bitsets the way their ascending core lists
/// compare lexicographically, so edges keep the order of a map keyed by
/// the sorted pin list.
///
/// The lists agree up to the lowest core `c` in exactly one of the sets.
/// The set holding `c` sorts first, unless the other set has no core
/// above `c`: the other list is then a prefix, and a prefix sorts first.
fn pin_list_cmp(a: &[u64], b: &[u64]) -> Ordering {
    for k in 0..a.len() {
        let diff = a[k] ^ b[k];
        if diff != 0 {
            let lowest = diff & diff.wrapping_neg();
            let a_holds = a[k] & lowest != 0;
            let other = if a_holds { b } else { a };
            let other_goes_on =
                other[k] & !(lowest | (lowest - 1)) != 0 || other[k + 1..].iter().any(|&w| w != 0);
            return if a_holds == other_goes_on {
                Ordering::Less
            } else {
                Ordering::Greater
            };
        }
    }
    Ordering::Equal
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
/// Panics if a pattern references a terminal or a bus driver core
/// outside `soc`.
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
/// Panics if a pattern references a terminal or a bus driver core
/// outside `soc`.
pub fn group_patterns_packed(
    soc: &Soc,
    set: &PackedSet,
    layout: &PackedLayout,
    parts: u32,
    partition_config: &PartitionConfig,
) -> Result<PatternGrouping, CompactionError> {
    check_parts(soc, parts)?;
    // Checked up front because `i = 1` never reaches the extraction, whose
    // own checks back the `# Panics` contract otherwise.
    assert_in_terminal_space(soc, set);
    if let Some(driver) = set.max_driver() {
        assert!(
            usize::from(driver) < soc.num_cores(),
            "pattern references a bus driver outside the soc"
        );
    }
    if parts == 1 {
        return Ok(PatternGrouping::single(soc, set.len()));
    }
    CoreHypergraph::extract(soc, set, layout).group(parts, partition_config, &Pool::serial())
}

/// Rejects a partition count of 0 and more parts than `soc` has cores.
pub(crate) fn check_parts(soc: &Soc, parts: u32) -> Result<(), CompactionError> {
    if parts == 0 {
        return Err(CompactionError::Partition(HypergraphError::ZeroParts));
    }
    if parts as usize > soc.num_cores() {
        return Err(CompactionError::TooManyPartitions {
            partitions: parts,
            cores: soc.num_cores(),
        });
    }
    Ok(())
}

impl PatternGrouping {
    /// One part: every one of `patterns` lands in bucket 0 whatever its
    /// care cores, so none are extracted.
    pub(crate) fn single(soc: &Soc, patterns: usize) -> Self {
        PatternGrouping {
            core_part: vec![0; soc.num_cores()],
            parts: 1,
            buckets: vec![(0..patterns).collect()],
            remainder: Vec::new(),
            cut_weight: 0,
        }
    }
}

/// What grouping needs of a pattern set for any partition count above
/// 1: every pattern's care-core set and the core hypergraph built from
/// the distinct sets. Neither depends on the partition count, so one
/// extraction serves every count.
#[derive(Debug)]
pub(crate) struct CoreHypergraph {
    sets: CareCoreSets,
    graph: Hypergraph,
}

impl CoreHypergraph {
    /// Extracts the care-core sets of `set` and builds the hypergraph.
    pub(crate) fn extract(soc: &Soc, set: &PackedSet, layout: &PackedLayout) -> Self {
        let sets = CareCoreSets::extract(set, layout);
        let graph = sets.hypergraph(soc);
        CoreHypergraph { sets, graph }
    }

    /// Partitions the cores into `parts > 1` groups, refining the
    /// partitioner's initial tries on `pool`, and buckets every pattern
    /// by classifying its care-core set.
    pub(crate) fn group(
        &self,
        parts: u32,
        partition_config: &PartitionConfig,
        pool: &Pool,
    ) -> Result<PatternGrouping, CompactionError> {
        let (sets, hg) = (&self.sets, &self.graph);
        let config = PartitionConfig {
            parts,
            ..partition_config.clone()
        };
        let partition: Partition = hg.partition_with(&config, pool)?;
        let cut_weight = partition.cut_weight(hg);
        let core_part = partition.assignment().to_vec();

        // Classify each distinct set once: `Some(part)` when all its cores
        // lie in one part (an empty set goes to part 0), `None` when it is
        // cut.
        let words = sets.words;
        let mut part_bits = vec![0u64; parts as usize * words];
        for (core, &part) in core_part.iter().enumerate() {
            part_bits[part as usize * words + core / 64] |= 1 << (core % 64);
        }
        let set_part: Vec<Option<u32>> = (0..sets.weights.len() as u32)
            .map(|id| {
                let bits = sets.bits(id);
                match bitset_cores(bits).next() {
                    None => Some(0),
                    Some(first) => {
                        let part = core_part[first as usize];
                        let within = &part_bits[part as usize * words..][..words];
                        bits.iter()
                            .zip(within)
                            .all(|(&set, &part)| set & !part == 0)
                            .then_some(part)
                    }
                }
            })
            .collect();
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    use soctam_model::{Benchmark, BusLineId, TerminalId};
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

    /// Grouping as it was built before care-core bitsets: sorted
    /// `care_cores` lists keyed in a `BTreeMap`, edges in key order, and
    /// each pattern classified by its own list.
    fn reference_grouping(
        soc: &Soc,
        patterns: &[SiPattern],
        parts: u32,
    ) -> (Hypergraph, PatternGrouping) {
        let sets: Vec<Vec<u32>> = patterns
            .iter()
            .map(|p| p.care_cores(soc).iter().map(|c| c.raw()).collect())
            .collect();
        let mut weights: BTreeMap<&[u32], u64> = BTreeMap::new();
        for set in &sets {
            *weights.entry(set).or_default() += 1;
        }
        let mut builder = HypergraphBuilder::new();
        builder.add_vertices(soc.iter().map(|(_, core)| u64::from(core.woc_count())));
        for (pins, &weight) in &weights {
            if !pins.is_empty() {
                builder.add_edge(weight, pins).expect("valid pins");
            }
        }
        let hg = builder.build();
        let partition = hg
            .partition(&PartitionConfig::new(parts))
            .expect("partitions");
        let core_part = partition.assignment().to_vec();
        let mut buckets = vec![Vec::new(); parts as usize];
        let mut remainder = Vec::new();
        for (index, set) in sets.iter().enumerate() {
            let part = set.first().map_or(0, |&c| core_part[c as usize]);
            if set.iter().all(|&c| core_part[c as usize] == part) {
                buckets[part as usize].push(index);
            } else {
                remainder.push(index);
            }
        }
        let grouping = PatternGrouping {
            cut_weight: partition.cut_weight(&hg),
            core_part,
            parts,
            buckets,
            remainder,
        };
        (hg, grouping)
    }

    #[test]
    fn bitset_grouping_matches_the_sorted_list_reference_above_64_cores() {
        use soctam_model::synth::{synth_soc, SynthConfig};
        let soc = synth_soc(&SynthConfig::new(100).with_seed(4)).expect("valid soc");
        let raw = SiPatternSet::random(&soc, &RandomPatternConfig::new(3_000).with_seed(9))
            .expect("valid");
        let spans_words = raw.iter().filter(|p| {
            let cores = p.care_cores(&soc);
            cores.first().is_some_and(|c| c.index() < 64) && cores.iter().any(|c| c.index() >= 64)
        });
        assert!(spans_words.count() > 0, "some sets span both bitset words");
        for parts in [2u32, 4, 8] {
            let (hg, grouping) = reference_grouping(&soc, raw.as_slice(), parts);
            assert_eq!(build_core_hypergraph(&soc, raw.as_slice()), hg);
            assert_eq!(
                group_patterns(&soc, raw.as_slice(), parts, &PartitionConfig::new(parts))
                    .expect("groups"),
                grouping,
                "i = {parts}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "bus driver outside the soc")]
    fn out_of_range_driver_panics_without_partitioning() {
        let soc = Benchmark::D695.soc();
        let bogus = SiPattern::new(
            vec![(TerminalId::new(3), Symbol::Rise)],
            vec![(BusLineId::new(1), CoreId::new(40))],
        )
        .expect("valid pattern");
        let _ = group_patterns(&soc, &[bogus], 1, &PartitionConfig::new(1));
    }

    #[test]
    #[should_panic(expected = "bus driver in range")]
    fn out_of_range_driver_panics_in_the_hypergraph_build() {
        let soc = Benchmark::D695.soc();
        let bogus = SiPattern::new(vec![], vec![(BusLineId::new(1), CoreId::new(10))])
            .expect("valid pattern");
        let _ = build_core_hypergraph(&soc, &[bogus]);
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
