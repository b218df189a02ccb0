//! The full two-dimensional compaction pipeline.

use std::hash::Hasher;

use soctam_exec::{FxHasher, Pool};
use soctam_hypergraph::PartitionConfig;
use soctam_model::Soc;
use soctam_patterns::{KernelStats, PackedLayout, PackedRef, PackedSet, SiPatternSet};

use crate::first_seen::FirstSeen;
use crate::vertical::{assert_in_terminal_space, compact_packed_subset};
use crate::{
    group_patterns_packed, CompactedSiTests, CompactionError, CompactionStats, MergeOrder,
    PatternGrouping, SiTestGroup,
};

/// Configuration for [`compact_two_dimensional`].
///
/// # Example
///
/// ```
/// use soctam_compaction::CompactionConfig;
///
/// let config = CompactionConfig::new(4).with_seed(7);
/// assert_eq!(config.partitions, 4);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct CompactionConfig {
    /// Number of core partitions `i` (the paper sweeps 1, 2, 4, 8).
    pub partitions: u32,
    /// Hypergraph partitioner settings (imbalance, seed, FM effort).
    pub partition_config: PartitionConfig,
    /// Visit order of the greedy clique cover. The default is the paper's
    /// input order; [`MergeOrder::MostCareBitsFirst`] typically compacts
    /// ~20 % further (see the `compaction_report` bench binary).
    pub merge_order: MergeOrder,
}

impl CompactionConfig {
    /// Creates a configuration for `partitions` core groups with default
    /// partitioner settings.
    pub fn new(partitions: u32) -> Self {
        CompactionConfig {
            partitions,
            partition_config: PartitionConfig::new(partitions.max(1)),
            merge_order: MergeOrder::InputOrder,
        }
    }

    /// Sets the greedy clique-cover visit order.
    pub fn with_merge_order(mut self, order: MergeOrder) -> Self {
        self.merge_order = order;
        self
    }

    /// Sets the partitioner RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.partition_config.seed = seed;
        self
    }
}

/// Runs two-dimensional compaction: partitions the cores into
/// `config.partitions` groups, buckets the raw patterns (patterns whose
/// care cores straddle groups go to the cross-partition remainder), and
/// vertically compacts **each bucket separately**.
///
/// The result contains at most `partitions + 1` [`SiTestGroup`]s: one per
/// non-empty part (involving that part's cores) plus, if any pattern was
/// cut, the remainder group involving *all* cores. With `partitions == 1`
/// this degenerates to the one-dimensional (count-only) compaction the
/// paper calls `T_g1`.
///
/// # Errors
///
/// * forwarded pattern validation errors;
/// * [`CompactionError::TooManyPartitions`] / partitioning failures.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use soctam_compaction::{compact_two_dimensional, CompactionConfig};
/// use soctam_model::Benchmark;
/// use soctam_patterns::{RandomPatternConfig, SiPatternSet};
///
/// let soc = Benchmark::D695.soc();
/// let raw = SiPatternSet::random(&soc, &RandomPatternConfig::new(1000).with_seed(2))?;
/// let one_dim = compact_two_dimensional(&soc, &raw, &CompactionConfig::new(1))?;
/// let two_dim = compact_two_dimensional(&soc, &raw, &CompactionConfig::new(4))?;
/// // 1-D compaction merges across everything, so it needs no remainder.
/// assert_eq!(one_dim.groups().len(), 1);
/// assert!(two_dim.groups().len() > 1);
/// # Ok(())
/// # }
/// ```
pub fn compact_two_dimensional(
    soc: &Soc,
    raw: &SiPatternSet,
    config: &CompactionConfig,
) -> Result<CompactedSiTests, CompactionError> {
    compact_two_dimensional_with(soc, raw, config, &Pool::serial())
}

/// [`compact_two_dimensional`] with the per-bucket vertical compactions
/// run on `pool`. Buckets never share patterns, so each greedy cover is
/// independent; results are collected in bucket order and are
/// bit-identical to the serial pipeline for any pool size.
///
/// # Errors
///
/// Same contract as [`compact_two_dimensional`].
pub fn compact_two_dimensional_with(
    soc: &Soc,
    raw: &SiPatternSet,
    config: &CompactionConfig,
    pool: &Pool,
) -> Result<CompactedSiTests, CompactionError> {
    raw.validate_for(soc)?;
    soctam_exec::fault::check("compaction.partition")?;
    // Pack once: grouping, duplicate removal and every per-bucket greedy
    // cover all run against the same bit-packed arena; patterns are only
    // expanded back to sparse form when the compacted cliques are emitted.
    let set = PackedSet::build(raw.as_slice());
    let terminal_words = assert_in_terminal_space(soc, &set);
    let layout = PackedLayout::new(soc);
    let grouping = group_patterns_packed(
        soc,
        &set,
        &layout,
        config.partitions,
        &config.partition_config,
    )?;

    let mut stats = CompactionStats {
        raw_patterns: raw.len(),
        partitions: config.partitions.max(1),
        cut_weight: grouping.cut_weight,
        raw_remainder_patterns: grouping.remainder.len(),
        ..CompactionStats::default()
    };

    let work = work_items(&set, &grouping, fingerprint);
    let has_remainder = !grouping.remainder.is_empty();
    stats.duplicate_patterns = raw.len() - work.iter().map(Vec::len).sum::<usize>();

    let compacted_buckets = pool.par_map(&work, |indices| {
        soctam_exec::fault::hit("compaction.bucket");
        if indices.is_empty() {
            (Vec::new(), KernelStats::default())
        } else {
            compact_packed_subset(&set, indices, terminal_words, config.merge_order)
        }
    });

    let mut groups = Vec::new();
    let mut kernel = KernelStats::default();
    let mut iter = compacted_buckets.into_iter();
    for part in 0..grouping.buckets.len() {
        // Invariant: `par_map` returns exactly one result per work item.
        #[allow(clippy::expect_used)]
        let (compacted, bucket_kernel) = iter.next().expect("one result per bucket");
        kernel.merge(bucket_kernel);
        if compacted.is_empty() {
            stats.group_patterns.push(0);
            continue;
        }
        stats.group_patterns.push(compacted.len());
        groups.push(SiTestGroup::new(
            grouping.part_cores(part as u32),
            compacted,
        ));
    }
    if has_remainder {
        // Invariant: `work_items` puts the remainder last when it is non-empty.
        #[allow(clippy::expect_used)]
        let (compacted, remainder_kernel) = iter.next().expect("remainder result present");
        kernel.merge(remainder_kernel);
        stats.remainder_patterns = compacted.len();
        groups.push(SiTestGroup::new(soc.core_ids().collect(), compacted));
    }
    stats.kernel_words_compared = kernel.words_compared;
    stats.kernel_fast_rejects = kernel.fast_rejects;

    let metrics = pool.metrics();
    metrics.add_kernel_words_compared(kernel.words_compared);
    metrics.add_kernel_fast_rejects(kernel.fast_rejects);
    metrics.add_duplicates_removed(stats.duplicate_patterns as u64);

    Ok(CompactedSiTests::new(groups, stats))
}

/// The greedy covers' work items: one per part bucket, plus the
/// cross-partition remainder (when any pattern was cut) as the final
/// item.
///
/// Exact duplicates are dropped keep-first: a duplicate always lands in
/// its first copy's clique and absorbing it there is a no-op, so removal
/// cannot change the compacted output. One pass over the whole set
/// serves every bucket: copies share a care-core set, hence a bucket,
/// and each bucket lists its patterns in ascending order.
fn work_items(
    set: &PackedSet,
    grouping: &PatternGrouping,
    fingerprint: impl Fn(PackedRef<'_>) -> u64,
) -> Vec<Vec<u32>> {
    let repeat = repeated_patterns(set, fingerprint);
    let keep = |indices: &[usize]| -> Vec<u32> {
        indices
            .iter()
            .filter(|&&i| !repeat[i])
            .map(|&i| i as u32)
            .collect()
    };
    let mut work: Vec<Vec<u32>> = grouping.buckets.iter().map(|b| keep(b)).collect();
    if !grouping.remainder.is_empty() {
        work.push(keep(&grouping.remainder));
    }
    work
}

/// 64-bit Fx fingerprint of a packed pattern: its words and bus lines.
fn fingerprint(p: PackedRef<'_>) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write_usize(p.words.len());
    for w in p.words {
        hasher.write_u32(w.index);
        hasher.write_u64(w.care);
        hasher.write_u64(w.lo);
        hasher.write_u64(w.hi);
    }
    for line in p.bus {
        hasher.write_u16(u16::from(line.line) << 8 | u16::from(line.driver));
    }
    hasher.finish()
}

/// Marks every pattern of `set` that repeats a lower-indexed pattern
/// exactly (same words, same bus lines); the first copy stays unmarked.
/// Patterns are looked up by `fingerprint`, and every match is confirmed
/// on the arena slices.
fn repeated_patterns(set: &PackedSet, fingerprint: impl Fn(PackedRef<'_>) -> u64) -> Vec<bool> {
    let mut seen = FirstSeen::with_capacity(set.len());
    // The index of each distinct pattern's first copy, by id.
    let mut first_copies: Vec<u32> = Vec::with_capacity(set.len());
    (0..set.len())
        .map(|i| {
            let p = set.get(i);
            let (_, first) = seen.id_of(fingerprint(p), |id| {
                set.get(first_copies[id as usize] as usize) == p
            });
            if first {
                first_copies.push(i as u32);
            }
            !first
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    use soctam_model::{Benchmark, BusLineId, CoreId, TerminalId};
    use soctam_patterns::{RandomPatternConfig, SiPattern, Symbol};

    fn setup(n: usize) -> (Soc, SiPatternSet) {
        let soc = Benchmark::D695.soc();
        let set =
            SiPatternSet::random(&soc, &RandomPatternConfig::new(n).with_seed(17)).expect("valid");
        (soc, set)
    }

    #[test]
    fn one_dimensional_compaction_has_single_group_over_all_cores() {
        let (soc, raw) = setup(800);
        let result = compact_two_dimensional(&soc, &raw, &CompactionConfig::new(1)).expect("valid");
        assert_eq!(result.groups().len(), 1);
        assert_eq!(result.groups()[0].cores().len(), soc.num_cores());
        assert!(result.total_patterns() < 800);
    }

    #[test]
    fn group_count_bounded_by_partitions_plus_one() {
        let (soc, raw) = setup(600);
        for parts in [2u32, 4, 8] {
            let result =
                compact_two_dimensional(&soc, &raw, &CompactionConfig::new(parts)).expect("valid");
            assert!(result.groups().len() <= parts as usize + 1);
        }
    }

    #[test]
    fn pattern_counts_are_consistent_with_stats() {
        let (soc, raw) = setup(500);
        let result = compact_two_dimensional(&soc, &raw, &CompactionConfig::new(4)).expect("valid");
        let stats = result.stats();
        let from_stats: u64 =
            stats.group_patterns.iter().sum::<usize>() as u64 + stats.remainder_patterns as u64;
        assert_eq!(result.total_patterns(), from_stats);
        assert!(stats.compaction_ratio() > 1.0);
    }

    #[test]
    fn partitioning_reduces_data_volume() {
        // Large enough that the 2-D advantage dominates sampling noise:
        // at N_r = 2 000 a handful of seeds land within ±1 % of parity.
        let (soc, raw) = setup(4_000);
        let one = compact_two_dimensional(&soc, &raw, &CompactionConfig::new(1)).expect("valid");
        let four = compact_two_dimensional(&soc, &raw, &CompactionConfig::new(4)).expect("valid");
        // The whole point of horizontal compaction: shorter patterns,
        // smaller total volume (pattern *count* may grow).
        assert!(
            four.data_volume(&soc) < one.data_volume(&soc),
            "4-part volume {} !< 1-part volume {}",
            four.data_volume(&soc),
            one.data_volume(&soc)
        );
    }

    #[test]
    fn empty_input_produces_no_groups() {
        let soc = Benchmark::D695.soc();
        let result = compact_two_dimensional(&soc, &SiPatternSet::new(), &CompactionConfig::new(2))
            .expect("valid");
        assert!(result.groups().is_empty());
        assert_eq!(result.total_patterns(), 0);
        assert_eq!(result.data_volume(&soc), 0);
    }

    #[test]
    fn most_care_bits_first_compacts_harder() {
        let (soc, raw) = setup(2_000);
        let base = compact_two_dimensional(&soc, &raw, &CompactionConfig::new(1)).expect("valid");
        let better = compact_two_dimensional(
            &soc,
            &raw,
            &CompactionConfig::new(1).with_merge_order(crate::MergeOrder::MostCareBitsFirst),
        )
        .expect("valid");
        assert!(
            better.total_patterns() <= base.total_patterns(),
            "largest-first {} > input-order {}",
            better.total_patterns(),
            base.total_patterns()
        );
    }

    #[test]
    fn exact_duplicates_are_removed_without_changing_the_cover() {
        let (soc, raw) = setup(300);
        let mut doubled: Vec<SiPattern> = raw.as_slice().to_vec();
        doubled.extend(raw.as_slice().iter().cloned());
        let doubled = SiPatternSet::from_patterns(doubled);
        let config = CompactionConfig::new(4).with_seed(3);
        let base = compact_two_dimensional(&soc, &raw, &config).expect("valid");
        let deduped = compact_two_dimensional(&soc, &doubled, &config).expect("valid");
        assert_eq!(base.stats().duplicate_patterns, 0);
        assert_eq!(deduped.stats().duplicate_patterns, 300);
        assert_eq!(base.groups(), deduped.groups());
    }

    /// The per-bucket keep-first filter over the sparse patterns that the
    /// arena pass replaced: the reference `work_items` must match.
    fn reference_work_items(raw: &SiPatternSet, grouping: &PatternGrouping) -> Vec<Vec<u32>> {
        let mut seen: HashSet<&SiPattern> = HashSet::new();
        let mut dedup = |indices: &[usize]| -> Vec<u32> {
            seen.clear();
            indices
                .iter()
                .filter(|&&i| seen.insert(&raw.as_slice()[i]))
                .map(|&i| i as u32)
                .collect()
        };
        let mut work: Vec<Vec<u32>> = grouping.buckets.iter().map(|b| dedup(b)).collect();
        if !grouping.remainder.is_empty() {
            work.push(dedup(&grouping.remainder));
        }
        work
    }

    #[test]
    fn arena_dedup_matches_the_sparse_per_bucket_filter() {
        let soc = Benchmark::D695.soc();
        for seed in [1u64, 2, 3] {
            let mut patterns =
                SiPatternSet::random(&soc, &RandomPatternConfig::new(600).with_seed(seed))
                    .expect("valid")
                    .into_vec();
            // Copies of earlier patterns, some of them copies of copies,
            // spread over the whole set (and so over every bucket).
            for i in (5..patterns.len()).step_by(7) {
                patterns[i] = patterns[i * seed as usize % i].clone();
            }
            let extra: Vec<SiPattern> = patterns.iter().step_by(11).cloned().collect();
            patterns.extend(extra);
            let raw = SiPatternSet::from_patterns(patterns);
            let set = PackedSet::build(raw.as_slice());
            let layout = PackedLayout::new(&soc);
            for parts in [1u32, 4] {
                let grouping =
                    group_patterns_packed(&soc, &set, &layout, parts, &PartitionConfig::new(parts))
                        .expect("groups");
                let reference = reference_work_items(&raw, &grouping);
                let dropped_in = reference
                    .iter()
                    .zip(grouping.buckets.iter().chain([&grouping.remainder]))
                    .filter(|(kept, all)| kept.len() < all.len())
                    .count();
                assert!(
                    parts == 1 || dropped_in > 1,
                    "duplicates in one bucket only"
                );
                assert_eq!(work_items(&set, &grouping, fingerprint), reference);
                // Every pattern shares one fingerprint: only the exact
                // comparison of the arena slices tells them apart.
                assert_eq!(work_items(&set, &grouping, |_| 0), reference);
            }
        }
    }

    #[test]
    fn kernel_counters_are_populated() {
        let (soc, raw) = setup(200);
        let result = compact_two_dimensional(&soc, &raw, &CompactionConfig::new(1)).expect("valid");
        assert!(result.stats().kernel_words_compared > 0);
    }

    #[test]
    fn out_of_range_bus_driver_is_a_validation_error() {
        let soc = Benchmark::D695.soc();
        let mut patterns = SiPatternSet::random(&soc, &RandomPatternConfig::new(200).with_seed(1))
            .expect("valid")
            .into_vec();
        patterns.push(
            SiPattern::new(
                vec![(TerminalId::new(3), Symbol::Rise)],
                vec![(BusLineId::new(1), CoreId::new(40))],
            )
            .expect("valid pattern"),
        );
        let raw = SiPatternSet::from_patterns(patterns);
        for parts in [1u32, 2, 4] {
            let err = compact_two_dimensional(&soc, &raw, &CompactionConfig::new(parts))
                .expect_err("driver core 40 is not in d695");
            assert_eq!(
                err,
                CompactionError::from(soctam_patterns::PatternError::DriverOutOfRange {
                    line: 1,
                    driver: CoreId::new(40),
                    cores: 10,
                }),
                "i = {parts}"
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let (soc, raw) = setup(400);
        let a = compact_two_dimensional(&soc, &raw, &CompactionConfig::new(4).with_seed(3))
            .expect("valid");
        let b = compact_two_dimensional(&soc, &raw, &CompactionConfig::new(4).with_seed(3))
            .expect("valid");
        assert_eq!(a, b);
    }
}
