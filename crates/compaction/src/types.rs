//! Output types of the compaction pipeline.

use soctam_model::{CoreId, Soc};
use soctam_patterns::SiPattern;

/// One compacted SI test group: the set of cores whose wrapper output
/// cells a group pattern shifts, and the compacted patterns themselves.
///
/// This is the paper's `SI test` record (`C(s)`, `pattern(s)` in Fig. 4);
/// the scheduling fields live in `soctam-tam`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SiTestGroup {
    cores: Vec<CoreId>,
    patterns: Vec<SiPattern>,
}

impl SiTestGroup {
    /// Creates a group from its core set and compacted patterns.
    ///
    /// The core list is sorted and deduplicated.
    pub fn new(mut cores: Vec<CoreId>, patterns: Vec<SiPattern>) -> Self {
        cores.sort_unstable();
        cores.dedup();
        SiTestGroup { cores, patterns }
    }

    /// Creates a group carrying only a pattern *count* (no pattern bodies).
    ///
    /// Useful for constructing scheduling problems directly, e.g. the
    /// paper's Example 1.
    pub fn with_pattern_count(cores: Vec<CoreId>, count: u64) -> Self {
        // Synthesize empty placeholder patterns so `pattern_count` holds.
        SiTestGroup::new(cores, vec![SiPattern::default(); count as usize])
    }

    /// The cores involved in this group (`C(s)`), sorted.
    pub fn cores(&self) -> &[CoreId] {
        &self.cores
    }

    /// `true` if `core` participates in the group.
    pub fn involves(&self, core: CoreId) -> bool {
        self.cores.binary_search(&core).is_ok()
    }

    /// Number of compacted patterns (`pattern(s)`).
    pub fn pattern_count(&self) -> u64 {
        self.patterns.len() as u64
    }

    /// The compacted patterns.
    pub fn patterns(&self) -> &[SiPattern] {
        &self.patterns
    }
}

/// Result of the two-dimensional compaction pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompactedSiTests {
    groups: Vec<SiTestGroup>,
    stats: CompactionStats,
}

impl CompactedSiTests {
    pub(crate) fn new(groups: Vec<SiTestGroup>, stats: CompactionStats) -> Self {
        CompactedSiTests { groups, stats }
    }

    /// The SI test groups, remainder (cross-partition) group last if any.
    pub fn groups(&self) -> &[SiTestGroup] {
        &self.groups
    }

    /// Consumes `self`, returning the groups.
    pub fn into_groups(self) -> Vec<SiTestGroup> {
        self.groups
    }

    /// Compaction statistics.
    pub fn stats(&self) -> &CompactionStats {
        &self.stats
    }

    /// Total compacted pattern count over all groups.
    pub fn total_patterns(&self) -> u64 {
        self.groups.iter().map(SiTestGroup::pattern_count).sum()
    }

    /// Total SI test *data volume* in bits: each group pattern shifts one
    /// bit per wrapper output cell of each involved core.
    pub fn data_volume(&self, soc: &Soc) -> u64 {
        self.groups
            .iter()
            .map(|g| group_volume(soc, g.cores(), g.pattern_count()))
            .sum()
    }
}

/// The data volume of `count` patterns over `cores`: one bit per
/// wrapper output cell of each core.
fn group_volume(soc: &Soc, cores: &[CoreId], count: u64) -> u64 {
    let width: u64 = cores
        .iter()
        .map(|&c| u64::from(soc.core(c).woc_count()))
        .sum();
    count * width
}

/// One compacted SI test group without its pattern bodies: the cores
/// and the compacted pattern count (`C(s)` and `pattern(s)` in Fig. 4),
/// all that TAM optimization reads of a group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupCount {
    cores: Vec<CoreId>,
    pattern_count: u64,
}

impl GroupCount {
    /// The cores involved in this group (`C(s)`), sorted.
    pub fn cores(&self) -> &[CoreId] {
        &self.cores
    }

    /// Number of compacted patterns (`pattern(s)`).
    pub fn pattern_count(&self) -> u64 {
        self.pattern_count
    }
}

/// The result of a counts step ([`PreparedSet::counts`](crate::PreparedSet::counts)):
/// the groups of the [`CompactedSiTests`] the same compaction produces,
/// as cores and counts, with the same statistics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompactedCounts {
    groups: Vec<GroupCount>,
    stats: CompactionStats,
}

impl CompactedCounts {
    pub(crate) fn new(groups: Vec<(Vec<CoreId>, usize)>, stats: CompactionStats) -> Self {
        let groups = groups
            .into_iter()
            .map(|(mut cores, count)| {
                cores.sort_unstable();
                cores.dedup();
                GroupCount {
                    cores,
                    pattern_count: count as u64,
                }
            })
            .collect();
        CompactedCounts { groups, stats }
    }

    /// The SI test groups, remainder (cross-partition) group last if any.
    pub fn groups(&self) -> &[GroupCount] {
        &self.groups
    }

    /// Compaction statistics.
    pub fn stats(&self) -> &CompactionStats {
        &self.stats
    }

    /// Total compacted pattern count over all groups.
    pub fn total_patterns(&self) -> u64 {
        self.groups.iter().map(GroupCount::pattern_count).sum()
    }

    /// Total SI test data volume in bits, as
    /// [`CompactedSiTests::data_volume`] reports it.
    pub fn data_volume(&self, soc: &Soc) -> u64 {
        self.groups
            .iter()
            .map(|g| group_volume(soc, g.cores(), g.pattern_count()))
            .sum()
    }
}

/// Statistics collected by [`compact_two_dimensional`](crate::compact_two_dimensional).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Raw input pattern count (the paper's `N_r`).
    pub raw_patterns: usize,
    /// Requested partition count `i`.
    pub partitions: u32,
    /// Compacted pattern count per partition group (index = part).
    pub group_patterns: Vec<usize>,
    /// Compacted pattern count of the cross-partition remainder group.
    pub remainder_patterns: usize,
    /// Raw patterns that fell into the remainder bucket before compaction.
    pub raw_remainder_patterns: usize,
    /// Weight of cut hyperedges in the core partition (0 when `i == 1`).
    pub cut_weight: u64,
    /// Exact-duplicate patterns dropped per bucket before the greedy cover
    /// (duplicates always re-join their first copy's clique, so removing
    /// them cannot change the compacted output).
    pub duplicate_patterns: usize,
    /// Care/symbol words compared by the packed compatibility kernel.
    pub kernel_words_compared: u64,
    /// Compatibility checks rejected by the kernel's bus-driver prefilter.
    pub kernel_fast_rejects: u64,
}

impl CompactionStats {
    /// Overall compaction ratio `raw / compacted` (`1.0` when empty).
    pub fn compaction_ratio(&self) -> f64 {
        let compacted: usize = self.group_patterns.iter().sum::<usize>() + self.remainder_patterns;
        if compacted == 0 {
            1.0
        } else {
            self.raw_patterns as f64 / compacted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_sorts_and_dedups_cores() {
        let g = SiTestGroup::new(vec![CoreId::new(3), CoreId::new(1), CoreId::new(3)], vec![]);
        assert_eq!(g.cores(), &[CoreId::new(1), CoreId::new(3)]);
        assert!(g.involves(CoreId::new(1)));
        assert!(!g.involves(CoreId::new(2)));
    }

    #[test]
    fn with_pattern_count_reports_count() {
        let g = SiTestGroup::with_pattern_count(vec![CoreId::new(0)], 42);
        assert_eq!(g.pattern_count(), 42);
    }

    #[test]
    fn ratio_handles_empty() {
        assert_eq!(CompactionStats::default().compaction_ratio(), 1.0);
    }
}
