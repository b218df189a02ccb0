//! Vertical compaction: merging compatible patterns to reduce the pattern
//! count (greedy clique cover, plus an exact cover for small oracles).
//!
//! Both covers run on the bit-packed kernel of
//! [`soctam_patterns::packed`]: compatibility is a handful of AND/XOR
//! ops per 64 terminals and merging is a word-wise OR, with the bus
//! driver planes checked first because random SI sets reject mostly on
//! bus conflicts. The greedy and exact paths share one compatibility
//! semantics source (the kernel's conflict primitives), so they can
//! never disagree on what "compatible" means.

use soctam_model::Soc;
use soctam_patterns::packed::{first_fit_cover, words_for_terminals};
use soctam_patterns::{CliqueCover, PackedPattern, PackedSet, SiPattern};

use crate::CompactionError;

/// Greedy first-fit clique-cover compaction (the paper's heuristic).
///
/// In each cycle the first uncompacted pattern seeds a clique; every
/// following pattern compatible with the *accumulated* clique is absorbed.
/// The result is a set of merged patterns covering the input; its size is
/// the compacted pattern count.
///
/// Runs on the bit-packed kernel: `O(cliques × patterns × pattern
/// words)` word operations, which keeps 100 000-pattern sets well under
/// a second.
///
/// # Panics
///
/// Panics if a pattern references a terminal outside `soc`'s terminal
/// space; validate untrusted sets with
/// [`SiPatternSet::validate_for`](soctam_patterns::SiPatternSet::validate_for)
/// first.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use soctam_compaction::compact_greedy;
/// use soctam_model::{Benchmark, TerminalId};
/// use soctam_patterns::{SiPattern, Symbol};
///
/// let soc = Benchmark::D695.soc();
/// let a = SiPattern::new(vec![(TerminalId::new(0), Symbol::Rise)], vec![])?;
/// let b = SiPattern::new(vec![(TerminalId::new(1), Symbol::Fall)], vec![])?;
/// let c = SiPattern::new(vec![(TerminalId::new(0), Symbol::Fall)], vec![])?;
/// let compacted = compact_greedy(&soc, &[a, b, c]);
/// assert_eq!(compacted.len(), 2); // {a, b} merge; c conflicts on t0
/// # Ok(())
/// # }
/// ```
pub fn compact_greedy(soc: &Soc, patterns: &[SiPattern]) -> Vec<SiPattern> {
    compact_greedy_ordered(soc, patterns, MergeOrder::InputOrder)
}

/// The order in which the greedy clique cover visits patterns. The paper
/// merges "the first uncompacted pattern with its following compatible
/// patterns"; the visit order is therefore a free heuristic choice.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum MergeOrder {
    /// Visit patterns in input order (the paper's formulation).
    #[default]
    InputOrder,
    /// Seed cliques with the most constrained (most care bits) patterns
    /// first — the classic largest-first colouring heuristic.
    MostCareBitsFirst,
    /// Seed cliques with the least constrained patterns first.
    FewestCareBitsFirst,
}

/// [`compact_greedy`] with an explicit pattern visit order.
///
/// # Panics
///
/// Same contract as [`compact_greedy`].
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use soctam_compaction::{compact_greedy_ordered, MergeOrder};
/// use soctam_model::Benchmark;
/// use soctam_patterns::{RandomPatternConfig, SiPatternSet};
///
/// let soc = Benchmark::D695.soc();
/// let raw = SiPatternSet::random(&soc, &RandomPatternConfig::new(500))?;
/// let a = compact_greedy_ordered(&soc, raw.as_slice(), MergeOrder::InputOrder);
/// let b = compact_greedy_ordered(&soc, raw.as_slice(), MergeOrder::MostCareBitsFirst);
/// assert!(!a.is_empty() && !b.is_empty());
/// # Ok(())
/// # }
/// ```
pub fn compact_greedy_ordered(
    soc: &Soc,
    patterns: &[SiPattern],
    order: MergeOrder,
) -> Vec<SiPattern> {
    let set = PackedSet::build(patterns);
    let indices: Vec<u32> = (0..patterns.len() as u32).collect();
    let terminal_words = assert_in_terminal_space(soc, &set);
    sparse_cliques(&cover_packed_subset(&set, &indices, terminal_words, order))
}

/// Checks the set against `soc`'s terminal space and returns the
/// terminal word count of the cover's clique planes.
pub(crate) fn assert_in_terminal_space(soc: &Soc, set: &PackedSet) -> usize {
    if let Some(max) = set.max_terminal() {
        assert!(
            max < soc.total_wocs(),
            "pattern references terminal outside the soc"
        );
    }
    words_for_terminals(soc.total_wocs() as usize)
}

/// Applies `order` to a bucket of pattern indices into `set`.
///
/// Sorts are stable with the same key the sparse path used (care bits +
/// occupied bus lines), so ties keep their input order and the cover is
/// bit-identical to the pre-kernel implementation.
fn visit_order(set: &PackedSet, indices: &[u32], order: MergeOrder) -> Vec<u32> {
    let mut visit = indices.to_vec();
    let weight = |&i: &u32| {
        let p = set.get(i as usize);
        p.care_count() + p.bus_count()
    };
    match order {
        MergeOrder::InputOrder => {}
        MergeOrder::MostCareBitsFirst => visit.sort_by_key(|i| std::cmp::Reverse(weight(i))),
        MergeOrder::FewestCareBitsFirst => visit.sort_by_key(weight),
    }
    visit
}

/// Greedy clique cover over a subset of an arena-packed pattern set;
/// the workhorse behind [`compact_greedy_ordered`] and the per-bucket
/// parallel pipeline. Returns the cover's clique state, from which the
/// compacted count and the kernel counters are read and, on demand,
/// the compacted patterns emitted ([`sparse_cliques`]).
///
/// Delegates to the kernel's single-pass
/// [`first_fit_cover`](soctam_patterns::packed::first_fit_cover), the
/// one greedy cover for every bus width and driver count.
pub(crate) fn cover_packed_subset(
    set: &PackedSet,
    indices: &[u32],
    terminal_words: usize,
    order: MergeOrder,
) -> CliqueCover {
    let visit = visit_order(set, indices, order);
    first_fit_cover(set, &visit, terminal_words)
}

/// The compacted patterns of `cover`, in clique order.
pub(crate) fn sparse_cliques(cover: &CliqueCover) -> Vec<SiPattern> {
    cover
        .patterns()
        .iter()
        .map(PackedPattern::to_sparse)
        .collect()
}

/// Maximum input size accepted by [`compact_optimal`].
pub const EXACT_COVER_LIMIT: usize = 16;

/// Exact minimum clique cover by exhaustive branch-and-bound — the
/// reference the paper compares its greedy heuristic against. Only
/// feasible for tiny sets; use it as a quality oracle.
///
/// The search accumulates cliques as [`PackedPattern`]s, so greedy and
/// exact covers share the same packed compatibility semantics.
///
/// # Errors
///
/// Returns [`CompactionError::SetTooLargeForExactCover`] for more than
/// [`EXACT_COVER_LIMIT`] patterns.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use soctam_compaction::{compact_greedy, compact_optimal};
/// use soctam_model::{Benchmark, TerminalId};
/// use soctam_patterns::{SiPattern, Symbol};
///
/// let soc = Benchmark::D695.soc();
/// let patterns: Vec<SiPattern> = (0..6)
///     .map(|i| {
///         SiPattern::new(vec![(TerminalId::new(i), Symbol::Rise)], vec![])
///     })
///     .collect::<Result<_, _>>()?;
/// let exact = compact_optimal(&patterns)?;
/// assert_eq!(exact.len(), 1); // all six are mutually compatible
/// # Ok(())
/// # }
/// ```
pub fn compact_optimal(patterns: &[SiPattern]) -> Result<Vec<SiPattern>, CompactionError> {
    if patterns.len() > EXACT_COVER_LIMIT {
        return Err(CompactionError::SetTooLargeForExactCover {
            patterns: patterns.len(),
            limit: EXACT_COVER_LIMIT,
        });
    }
    if patterns.is_empty() {
        return Ok(Vec::new());
    }

    let packed: Vec<PackedPattern> = patterns.iter().map(PackedPattern::from_sparse).collect();

    // Branch and bound: assign patterns in order to an existing compatible
    // clique or open a new one; prune branches that cannot beat the best.
    struct Search<'a> {
        patterns: &'a [PackedPattern],
        best: Vec<PackedPattern>,
    }

    impl Search<'_> {
        fn recurse(&mut self, index: usize, cliques: &mut Vec<PackedPattern>) {
            if cliques.len() >= self.best.len() && !self.best.is_empty() {
                return; // cannot improve
            }
            if index == self.patterns.len() {
                if self.best.is_empty() || cliques.len() < self.best.len() {
                    self.best = cliques.clone();
                }
                return;
            }
            let p = &self.patterns[index];
            for i in 0..cliques.len() {
                if let Ok(merged) = cliques[i].merged(p) {
                    let saved = std::mem::replace(&mut cliques[i], merged);
                    self.recurse(index + 1, cliques);
                    cliques[i] = saved;
                }
            }
            cliques.push(p.clone());
            self.recurse(index + 1, cliques);
            cliques.pop();
        }
    }

    let mut search = Search {
        patterns: &packed,
        best: Vec::new(),
    };
    let mut cliques = Vec::new();
    search.recurse(0, &mut cliques);
    Ok(search.best.iter().map(PackedPattern::to_sparse).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctam_model::{Benchmark, BusLineId, CoreId, TerminalId};
    use soctam_patterns::{RandomPatternConfig, SiPatternSet, Symbol};

    fn t(i: u32) -> TerminalId {
        TerminalId::new(i)
    }

    fn p(bits: &[(u32, Symbol)]) -> SiPattern {
        SiPattern::new(bits.iter().map(|&(i, s)| (t(i), s)).collect(), vec![])
            .expect("valid pattern")
    }

    #[test]
    fn disjoint_patterns_merge_into_one() {
        let soc = Benchmark::D695.soc();
        let patterns: Vec<SiPattern> = (0..10).map(|i| p(&[(i, Symbol::Rise)])).collect();
        assert_eq!(compact_greedy(&soc, &patterns).len(), 1);
    }

    #[test]
    fn conflicting_victims_stay_separate() {
        let soc = Benchmark::D695.soc();
        let patterns = vec![
            p(&[(0, Symbol::Rise)]),
            p(&[(0, Symbol::Fall)]),
            p(&[(0, Symbol::Zero)]),
            p(&[(0, Symbol::One)]),
        ];
        assert_eq!(compact_greedy(&soc, &patterns).len(), 4);
    }

    #[test]
    fn bus_conflicts_prevent_merging() {
        let soc = Benchmark::D695.soc();
        let a = SiPattern::new(
            vec![(t(0), Symbol::Rise)],
            vec![(BusLineId::new(2), CoreId::new(0))],
        )
        .expect("valid");
        let b = SiPattern::new(
            vec![(t(50), Symbol::Fall)],
            vec![(BusLineId::new(2), CoreId::new(1))],
        )
        .expect("valid");
        assert_eq!(compact_greedy(&soc, &[a, b]).len(), 2);
    }

    #[test]
    fn merged_patterns_cover_all_care_bits() {
        let soc = Benchmark::D695.soc();
        let raw =
            SiPatternSet::random(&soc, &RandomPatternConfig::new(500).with_seed(8)).expect("valid");
        let compacted = compact_greedy(&soc, raw.as_slice());
        let total_before: usize = raw.iter().map(|p| p.care_bits().len()).sum();
        let total_after: usize = compacted.iter().map(|p| p.care_bits().len()).sum();
        // Merging only removes duplicate (terminal, symbol) pairs.
        assert!(total_after <= total_before);
        // Every raw pattern must be *covered*: compatible with at least one
        // compacted pattern that contains all its care bits.
        for pattern in &raw {
            let covered = compacted.iter().any(|c| {
                pattern
                    .care_bits()
                    .iter()
                    .all(|&(t, s)| c.symbol_at(t) == Some(s))
            });
            assert!(covered, "pattern not covered by any clique");
        }
    }

    #[test]
    fn compaction_reduces_random_sets_substantially() {
        let soc = Benchmark::P34392.soc();
        let raw = SiPatternSet::random(&soc, &RandomPatternConfig::new(5_000).with_seed(3))
            .expect("valid");
        let compacted = compact_greedy(&soc, raw.as_slice());
        assert!(
            compacted.len() * 2 < raw.len(),
            "only {} -> {}",
            raw.len(),
            compacted.len()
        );
    }

    #[test]
    fn greedy_is_idempotent() {
        let soc = Benchmark::D695.soc();
        let raw =
            SiPatternSet::random(&soc, &RandomPatternConfig::new(300).with_seed(5)).expect("valid");
        let once = compact_greedy(&soc, raw.as_slice());
        let twice = compact_greedy(&soc, &once);
        // Patterns that survived one pass can still merge across cliques in
        // pathological cases, but a second pass must never grow the set.
        assert!(twice.len() <= once.len());
    }

    #[test]
    fn kernel_counters_track_checks() {
        let soc = Benchmark::D695.soc();
        let raw =
            SiPatternSet::random(&soc, &RandomPatternConfig::new(200).with_seed(9)).expect("valid");
        let set = PackedSet::build(raw.as_slice());
        let indices: Vec<u32> = (0..raw.len() as u32).collect();
        let words = assert_in_terminal_space(&soc, &set);
        let cover = cover_packed_subset(&set, &indices, words, MergeOrder::InputOrder);
        assert!(!cover.is_empty());
        assert!(cover.stats().words_compared > 0, "kernel counted no words");
    }

    #[test]
    fn optimal_matches_hand_computed_cover() {
        // Patterns: a & b compatible, c conflicts with both; optimal = 2.
        let a = p(&[(0, Symbol::Rise)]);
        let b = p(&[(1, Symbol::Fall)]);
        let c = p(&[(0, Symbol::Fall), (1, Symbol::Rise)]);
        let exact = compact_optimal(&[a, b, c]).expect("small set");
        assert_eq!(exact.len(), 2);
    }

    #[test]
    fn optimal_respects_bus_driver_conflicts() {
        // Shared line, different drivers: the packed driver planes must
        // keep these apart in the exact cover too.
        let a = SiPattern::new(vec![], vec![(BusLineId::new(4), CoreId::new(0))]).expect("valid");
        let b = SiPattern::new(vec![], vec![(BusLineId::new(4), CoreId::new(2))]).expect("valid");
        let c = SiPattern::new(vec![], vec![(BusLineId::new(4), CoreId::new(0))]).expect("valid");
        let exact = compact_optimal(&[a, b, c]).expect("small set");
        assert_eq!(exact.len(), 2);
    }

    #[test]
    fn greedy_close_to_optimal_small() {
        let soc = Benchmark::D695.soc();
        // Confined terminal space forces conflicts.
        let cfg = RandomPatternConfig {
            max_aggressors: 3,
            ..RandomPatternConfig::new(12).with_seed(21)
        };
        let raw = SiPatternSet::random(&soc, &cfg).expect("valid");
        let greedy = compact_greedy(&soc, raw.as_slice());
        let exact = compact_optimal(raw.as_slice()).expect("small set");
        assert!(greedy.len() >= exact.len());
        assert!(
            greedy.len() <= exact.len() + 2,
            "greedy {} vs optimal {}",
            greedy.len(),
            exact.len()
        );
    }

    #[test]
    fn merge_orders_cover_the_same_input() {
        let soc = Benchmark::D695.soc();
        let raw = SiPatternSet::random(&soc, &RandomPatternConfig::new(400).with_seed(12))
            .expect("valid");
        for order in [
            MergeOrder::InputOrder,
            MergeOrder::MostCareBitsFirst,
            MergeOrder::FewestCareBitsFirst,
        ] {
            let compacted = compact_greedy_ordered(&soc, raw.as_slice(), order);
            assert!(compacted.len() < raw.len());
            for pattern in &raw {
                let covered = compacted.iter().any(|c| {
                    pattern
                        .care_bits()
                        .iter()
                        .all(|&(t, s)| c.symbol_at(t) == Some(s))
                });
                assert!(covered, "{order:?}: pattern not covered");
            }
        }
    }

    #[test]
    fn exact_cover_rejects_large_sets() {
        let patterns: Vec<SiPattern> = (0..EXACT_COVER_LIMIT as u32 + 1)
            .map(|i| p(&[(i, Symbol::Rise)]))
            .collect();
        assert!(matches!(
            compact_optimal(&patterns),
            Err(CompactionError::SetTooLargeForExactCover { .. })
        ));
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let soc = Benchmark::D695.soc();
        assert!(compact_greedy(&soc, &[]).is_empty());
        assert!(compact_optimal(&[]).expect("empty ok").is_empty());
    }

    #[test]
    #[should_panic(expected = "outside the soc")]
    fn out_of_range_terminal_panics() {
        let soc = Benchmark::D695.soc();
        let bogus = p(&[(10_000_000, Symbol::Rise)]);
        let _ = compact_greedy(&soc, &[bogus]);
    }
}
