//! The full two-dimensional compaction pipeline.

use std::hash::Hasher;
use std::sync::OnceLock;

use soctam_exec::{FxHasher, Pool};
use soctam_hypergraph::PartitionConfig;
use soctam_model::Soc;
use soctam_patterns::packed::check_packable;
use soctam_patterns::{KernelStats, PackedLayout, PackedRef, PackedSet, SiPatternSet};

use crate::first_seen::FirstSeen;
use crate::grouping::{check_parts, CoreHypergraph};
use crate::vertical::{assert_in_terminal_space, compact_packed_subset};
use crate::{
    CompactedSiTests, CompactionError, CompactionStats, MergeOrder, PatternGrouping, SiTestGroup,
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
            partition_config: PartitionConfig::new(partitions),
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
/// * forwarded pattern validation errors, and
///   [`PatternError::TooManyCores`](soctam_patterns::PatternError::TooManyCores)
///   for a SOC with more cores than packed patterns support;
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
/// Validates `raw`, packs it and hands the arena to
/// [`compact_packed_with`], which holds the pipeline.
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
    check_packable(soc)?;
    compact_packed_with(soc, &PackedSet::build(raw.as_slice()), config, pool)
}

/// [`compact_two_dimensional_with`] on an already-packed set, such as
/// the one [`generate_random_packed`](soctam_patterns::generate_random_packed)
/// writes: grouping, duplicate removal and every per-bucket greedy cover
/// run against the arena, and patterns are only expanded back to sparse
/// form when the compacted cliques are emitted. The output equals
/// [`compact_two_dimensional_with`] of the unpacked set.
///
/// The set is validated from its summary, in O(1) when it fits `soc`;
/// a failing set reports the error the sparse validation reports.
///
/// Prepares the set for the one partition count ([`PreparedSet::new`])
/// and runs that count's step ([`PreparedSet::compact`]).
///
/// # Errors
///
/// Same contract as [`compact_two_dimensional`].
pub fn compact_packed_with(
    soc: &Soc,
    set: &PackedSet,
    config: &CompactionConfig,
    pool: &Pool,
) -> Result<CompactedSiTests, CompactionError> {
    PreparedSet::new(soc, set, &[config.partitions], pool)?.compact(config, pool)
}

/// A packed pattern set prepared for compaction: the half of
/// [`compact_packed_with`] that reads only the raw patterns, done once
/// and shared by every partition count that [`PreparedSet::compact`]
/// then runs. It holds:
///
/// * the validation of the set against the SOC;
/// * the keep-first duplicate flags;
/// * for partition counts above 1, every pattern's care-core set and the
///   core hypergraph built from them. At `i = 1` every pattern lands in
///   one bucket, so nothing is extracted.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use soctam_compaction::{compact_packed_with, CompactionConfig, PreparedSet};
/// use soctam_exec::Pool;
/// use soctam_model::Benchmark;
/// use soctam_patterns::{generate_random_packed, RandomPatternConfig};
///
/// let soc = Benchmark::D695.soc();
/// let pool = Pool::serial();
/// let set = generate_random_packed(&soc, &RandomPatternConfig::new(1000), &pool)?;
/// let prepared = PreparedSet::new(&soc, &set, &[1, 4], &pool)?;
/// for parts in [1, 4] {
///     let config = CompactionConfig::new(parts);
///     assert_eq!(
///         prepared.compact(&config, &pool)?,
///         compact_packed_with(&soc, &set, &config, &pool)?
///     );
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PreparedSet<'a> {
    soc: &'a Soc,
    set: &'a PackedSet,
    /// Terminal words of the greedy covers' clique planes.
    terminal_words: usize,
    /// `repeat[i]`: pattern `i` repeats a lower-indexed pattern exactly.
    repeat: Vec<bool>,
    /// Extracted by the preparation when a count above 1 was announced,
    /// else by the first step that needs it.
    cores: OnceLock<CoreHypergraph>,
}

impl<'a> PreparedSet<'a> {
    /// Validates `set` against `soc` and prepares it for the partition
    /// counts `partitions`. When a count above 1 needs the care-core sets,
    /// duplicate detection and their extraction run as two concurrent
    /// tasks on `pool`; otherwise duplicate detection runs alone on the
    /// calling thread.
    ///
    /// # Errors
    ///
    /// The pattern validation errors of [`compact_two_dimensional`].
    pub fn new(
        soc: &'a Soc,
        set: &'a PackedSet,
        partitions: &[u32],
        pool: &Pool,
    ) -> Result<Self, CompactionError> {
        set.validate_for(soc)?;
        let mut prepared = PreparedSet {
            soc,
            set,
            terminal_words: assert_in_terminal_space(soc, set),
            repeat: Vec::new(),
            cores: OnceLock::new(),
        };
        if partitions.iter().any(|&parts| parts > 1) {
            let mut repeat = Vec::new();
            pool.scope(|scope| {
                scope.spawn(|| repeat = repeated_patterns(set, fingerprint));
                scope.spawn(|| {
                    prepared.cores();
                });
            });
            prepared.repeat = repeat;
        } else {
            prepared.repeat = repeated_patterns(set, fingerprint);
        }
        Ok(prepared)
    }

    /// The per-count step of [`compact_packed_with`]: partitions the cores
    /// into `config.partitions` groups, buckets the patterns, drops the
    /// duplicates and vertically compacts each bucket on `pool`. Equals
    /// [`compact_packed_with`] of the prepared set under `config`.
    ///
    /// # Errors
    ///
    /// [`CompactionError::TooManyPartitions`] and partitioning failures,
    /// as [`compact_two_dimensional`] reports them.
    pub fn compact(
        &self,
        config: &CompactionConfig,
        pool: &Pool,
    ) -> Result<CompactedSiTests, CompactionError> {
        soctam_exec::fault::check("compaction.partition")?;
        let (soc, set) = (self.soc, self.set);
        let grouping = self.group(config, pool)?;

        let mut stats = CompactionStats {
            raw_patterns: set.len(),
            partitions: config.partitions,
            cut_weight: grouping.cut_weight,
            raw_remainder_patterns: grouping.remainder.len(),
            ..CompactionStats::default()
        };

        let work = work_items(&self.repeat, &grouping);
        let has_remainder = !grouping.remainder.is_empty();
        stats.duplicate_patterns = set.len() - work.iter().map(Vec::len).sum::<usize>();

        // The pool hands each participant a contiguous run of items, so
        // the covers go out largest first: the longest one (usually the
        // cut remainder) starts at once instead of last. Ties keep bucket
        // order, and the results return to bucket order for the
        // reduction.
        let mut order: Vec<usize> = (0..work.len()).collect();
        order.sort_by_key(|&item| std::cmp::Reverse(work[item].len()));
        let covers = pool.par_map(&order, |&item| {
            soctam_exec::fault::hit("compaction.bucket");
            let indices = &work[item];
            if indices.is_empty() {
                (Vec::new(), KernelStats::default())
            } else {
                compact_packed_subset(set, indices, self.terminal_words, config.merge_order)
            }
        });
        let mut compacted_buckets: Vec<_> = order.into_iter().zip(covers).collect();
        compacted_buckets.sort_unstable_by_key(|&(item, _)| item);

        let mut groups = Vec::new();
        let mut kernel = KernelStats::default();
        let mut iter = compacted_buckets.into_iter().map(|(_, cover)| cover);
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

    /// The grouping of `config.partitions` parts: one bucket at `i = 1`,
    /// else a partition of the shared core hypergraph.
    fn group(
        &self,
        config: &CompactionConfig,
        pool: &Pool,
    ) -> Result<PatternGrouping, CompactionError> {
        let parts = config.partitions;
        check_parts(self.soc, parts)?;
        if parts == 1 {
            return Ok(PatternGrouping::single(self.soc, self.set.len()));
        }
        self.cores().group(parts, &config.partition_config, pool)
    }

    /// The care-core sets and core hypergraph, extracted on first use.
    fn cores(&self) -> &CoreHypergraph {
        self.cores.get_or_init(|| {
            CoreHypergraph::extract(self.soc, self.set, &PackedLayout::new(self.soc))
        })
    }
}

/// The greedy covers' work items: one per part bucket, plus the
/// cross-partition remainder (when any pattern was cut) as the final
/// item.
///
/// Exact duplicates, flagged in `repeat`, are dropped keep-first: a
/// duplicate always lands in its first copy's clique and absorbing it
/// there is a no-op, so removal cannot change the compacted output. One
/// pass over the whole set serves every bucket of every partition count:
/// copies share a care-core set, hence a bucket, and each bucket lists
/// its patterns in ascending order.
fn work_items(repeat: &[bool], grouping: &PatternGrouping) -> Vec<Vec<u32>> {
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
        hasher.write_u8(line.line);
        hasher.write_u16(line.driver);
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

    use crate::group_patterns_packed;

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
                let repeat = repeated_patterns(&set, fingerprint);
                assert_eq!(work_items(&repeat, &grouping), reference);
                // Every pattern shares one fingerprint: only the exact
                // comparison of the arena slices tells them apart.
                let repeat = repeated_patterns(&set, |_| 0);
                assert_eq!(work_items(&repeat, &grouping), reference);
            }
        }
    }

    /// One `compact_packed_with` call as it was composed before the
    /// prepared set: its own validation, its own grouping through
    /// `group_patterns_packed` (care-core extraction, hypergraph and a
    /// serial partition), its own per-bucket duplicate filter and serial
    /// covers.
    fn per_call_reference(
        soc: &Soc,
        raw: &SiPatternSet,
        set: &PackedSet,
        config: &CompactionConfig,
    ) -> Result<CompactedSiTests, CompactionError> {
        set.validate_for(soc)?;
        let terminal_words = assert_in_terminal_space(soc, set);
        let layout = PackedLayout::new(soc);
        let grouping = group_patterns_packed(
            soc,
            set,
            &layout,
            config.partitions,
            &config.partition_config,
        )?;
        let work = reference_work_items(raw, &grouping);
        let mut stats = CompactionStats {
            raw_patterns: set.len(),
            partitions: config.partitions,
            cut_weight: grouping.cut_weight,
            raw_remainder_patterns: grouping.remainder.len(),
            duplicate_patterns: set.len() - work.iter().map(Vec::len).sum::<usize>(),
            ..CompactionStats::default()
        };
        let mut groups = Vec::new();
        let mut kernel = KernelStats::default();
        for (item, indices) in work.iter().enumerate() {
            let (compacted, item_kernel) =
                compact_packed_subset(set, indices, terminal_words, config.merge_order);
            kernel.merge(item_kernel);
            if item == grouping.buckets.len() {
                stats.remainder_patterns = compacted.len();
                groups.push(SiTestGroup::new(soc.core_ids().collect(), compacted));
            } else {
                stats.group_patterns.push(compacted.len());
                if !compacted.is_empty() {
                    groups.push(SiTestGroup::new(
                        grouping.part_cores(item as u32),
                        compacted,
                    ));
                }
            }
        }
        stats.kernel_words_compared = kernel.words_compared;
        stats.kernel_fast_rejects = kernel.fast_rejects;
        Ok(CompactedSiTests::new(groups, stats))
    }

    #[test]
    fn prepared_steps_equal_the_per_call_composition() {
        use soctam_exec::check::{cases, forall};
        use soctam_model::synth::{synth_soc, SynthConfig};
        let orders = [
            MergeOrder::InputOrder,
            MergeOrder::MostCareBitsFirst,
            MergeOrder::FewestCareBitsFirst,
        ];
        forall(
            "prepared_steps_equal_the_per_call_composition",
            cases(24),
            |g| {
                // Past 64 cores a care-core set spans two bitset words.
                let soc = if g.bool_with(0.3) {
                    synth_soc(&SynthConfig::new(g.usize_in(65, 90)).with_seed(g.u64_in(0, 1 << 32)))
                        .expect("valid soc")
                } else {
                    Benchmark::D695.soc()
                };
                let n = g.usize_in(0, 1_200);
                let mut patterns = SiPatternSet::random(
                    &soc,
                    &RandomPatternConfig::new(n).with_seed(g.u64_in(0, 1 << 32)),
                )
                .expect("valid")
                .into_vec();
                // Planted duplicates, copies of copies among them, and
                // empty patterns, anywhere in the set.
                for _ in 0..g.usize_in(0, n / 4 + 2) {
                    if patterns.is_empty() || g.bool_with(0.2) {
                        let at = g.usize_in(0, patterns.len() + 1);
                        patterns.insert(at, SiPattern::default());
                    } else {
                        let copy = patterns[g.usize_in(0, patterns.len())].clone();
                        let at = g.usize_in(0, patterns.len() + 1);
                        patterns.insert(at, copy);
                    }
                }
                let raw = SiPatternSet::from_patterns(patterns);
                let set = PackedSet::build(raw.as_slice());
                let counts: Vec<u32> = if g.bool_with(0.25) {
                    vec![1]
                } else {
                    let mut counts: Vec<u32> = [1, 2, 4, 8]
                        .into_iter()
                        .filter(|_| g.bool_with(0.6))
                        .collect();
                    if counts.is_empty() {
                        counts.push(1 << g.u32_in(1, 4));
                    }
                    g.rng().shuffle(&mut counts);
                    counts
                };
                // Counts a preparation did not announce extract on demand.
                let announced = if g.bool_with(0.2) {
                    vec![1]
                } else {
                    counts.clone()
                };
                let configs: Vec<CompactionConfig> = counts
                    .iter()
                    .map(|&parts| {
                        CompactionConfig::new(parts)
                            .with_seed(g.u64_in(0, 1 << 32))
                            .with_merge_order(orders[g.usize_in(0, orders.len())])
                    })
                    .collect();
                let reference: Vec<CompactedSiTests> = configs
                    .iter()
                    .map(|config| per_call_reference(&soc, &raw, &set, config).expect("valid"))
                    .collect();
                let recorded = |field: fn(&CompactionStats) -> usize| -> u64 {
                    reference.iter().map(|c| field(c.stats()) as u64).sum()
                };
                for jobs in [1, 2, 4] {
                    let pool = Pool::new(jobs);
                    let prepared = PreparedSet::new(&soc, &set, &announced, &pool).expect("valid");
                    for (config, expected) in configs.iter().zip(&reference) {
                        let got = prepared.compact(config, &pool).expect("valid");
                        assert_eq!(&got, expected, "jobs {jobs}, {config:?}");
                    }
                    let metrics = pool.metrics().snapshot();
                    assert_eq!(
                        metrics.kernel_words_compared,
                        recorded(|s| s.kernel_words_compared as usize),
                        "jobs {jobs}"
                    );
                    assert_eq!(
                        metrics.kernel_fast_rejects,
                        recorded(|s| s.kernel_fast_rejects as usize),
                        "jobs {jobs}"
                    );
                    assert_eq!(
                        metrics.duplicates_removed,
                        recorded(|s| s.duplicate_patterns),
                        "jobs {jobs}"
                    );
                }
            },
        );
    }

    #[test]
    fn largest_first_dispatch_returns_bucket_order() {
        let soc = Benchmark::P93791.soc();
        let raw = SiPatternSet::random(&soc, &RandomPatternConfig::new(6_000).with_seed(2007))
            .expect("valid");
        let set = PackedSet::build(raw.as_slice());
        let config = CompactionConfig::new(4).with_seed(2007);
        // The premise: the cut remainder is the largest work item and the
        // buckets differ in size, so largest-first reorders the items.
        let grouping = group_patterns_packed(
            &soc,
            &set,
            &PackedLayout::new(&soc),
            4,
            &config.partition_config,
        )
        .expect("groups");
        let sizes: Vec<usize> = work_items(&repeated_patterns(&set, fingerprint), &grouping)
            .iter()
            .map(Vec::len)
            .collect();
        let (remainder, buckets) = sizes.split_last().expect("work items");
        assert!(!grouping.remainder.is_empty(), "{sizes:?}");
        assert!(buckets.iter().all(|size| size < remainder), "{sizes:?}");
        assert!(buckets.windows(2).any(|w| w[0] < w[1]), "{sizes:?}");

        let reference = per_call_reference(&soc, &raw, &set, &config).expect("valid");
        for jobs in [1, 2, 4] {
            let pool = Pool::new(jobs);
            let prepared = PreparedSet::new(&soc, &set, &[4], &pool).expect("valid");
            let got = prepared.compact(&config, &pool).expect("valid");
            assert_eq!(got, reference, "jobs {jobs}");
            let metrics = pool.metrics().snapshot();
            assert_eq!(
                metrics.kernel_words_compared,
                reference.stats().kernel_words_compared,
                "jobs {jobs}"
            );
            assert_eq!(
                metrics.kernel_fast_rejects,
                reference.stats().kernel_fast_rejects,
                "jobs {jobs}"
            );
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
    fn both_entries_report_the_same_findings_on_corrupted_sets() {
        let soc = Benchmark::D695.soc();
        let total = soc.total_wocs();
        let base = SiPatternSet::random(&soc, &RandomPatternConfig::new(200).with_seed(1))
            .expect("valid")
            .into_vec();
        let pattern = |care: &[u32], drivers: &[u32]| {
            SiPattern::new(
                care.iter()
                    .map(|&t| (TerminalId::new(t), Symbol::Rise))
                    .collect(),
                drivers
                    .iter()
                    .enumerate()
                    .map(|(line, &d)| (BusLineId::new(line as u8), CoreId::new(d)))
                    .collect(),
            )
            .expect("valid pattern")
        };
        // (position, pattern) insertions into the clean set.
        let corruptions: Vec<Vec<(usize, SiPattern)>> = vec![
            vec![(17, pattern(&[3, total], &[]))],
            vec![(40, pattern(&[3], &[10]))],
            vec![(5, SiPattern::default())],
            vec![
                (60, pattern(&[], &[2, 12])),
                (30, pattern(&[total + 70], &[])),
            ],
            vec![
                (3, SiPattern::default()),
                (90, pattern(&[1, total + 1], &[4])),
                (150, pattern(&[2], &[200])),
            ],
            vec![(0, pattern(&[total + 5], &[11, 300]))],
        ];
        let pool = Pool::serial();
        for (case, corruption) in corruptions.into_iter().enumerate() {
            let mut patterns = base.clone();
            for (at, p) in corruption {
                patterns.insert(at, p);
            }
            let sparse = SiPatternSet::from_patterns(patterns);
            let packed = PackedSet::build(sparse.as_slice());
            let diags = packed.validate(&soc);
            assert!(!diags.is_empty(), "case {case}");
            assert_eq!(diags, sparse.validate(&soc), "case {case}");
            assert_eq!(
                packed.validate_for(&soc),
                sparse.validate_for(&soc),
                "case {case}"
            );
            for parts in [1u32, 4] {
                let config = CompactionConfig::new(parts).with_seed(5);
                assert_eq!(
                    compact_packed_with(&soc, &packed, &config, &pool),
                    compact_two_dimensional_with(&soc, &sparse, &config, &pool),
                    "case {case}, i = {parts}"
                );
            }
        }
    }

    #[test]
    fn a_soc_beyond_the_driver_limit_is_a_structured_error() {
        use soctam_model::CoreSpec;
        use soctam_patterns::packed::MAX_PACKED_DRIVERS;
        let core = CoreSpec::new("c", 1, 2, 0, vec![], 1).expect("valid");
        let soc = Soc::new("huge", vec![core; MAX_PACKED_DRIVERS as usize + 1]).expect("valid");
        let raw =
            SiPatternSet::random(&soc, &RandomPatternConfig::new(50).with_seed(1)).expect("valid");
        assert_eq!(
            compact_two_dimensional(&soc, &raw, &CompactionConfig::new(1)),
            Err(CompactionError::Pattern(
                soctam_patterns::PatternError::TooManyCores {
                    cores: MAX_PACKED_DRIVERS as usize + 1,
                    limit: MAX_PACKED_DRIVERS,
                }
            ))
        );
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
