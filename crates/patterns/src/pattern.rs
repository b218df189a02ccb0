//! The sparse SI test pattern.

use std::fmt::Write as _;

use soctam_model::{BusLineId, CoreId, Soc, TerminalId};

use crate::{PatternError, Symbol};

/// One SI test pattern: a sparse assignment of care symbols to wrapper
/// output terminals, plus the bus postfix of Table 1.
///
/// Positions not present in the care map are `x` (don't-care). Each
/// occupied bus line records the *driver core* from whose boundary the line
/// is triggered; two patterns occupying the same line from different core
/// boundaries must not be compacted together (Section 3 of the paper).
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use soctam_model::TerminalId;
/// use soctam_patterns::{SiPattern, Symbol};
///
/// let a = SiPattern::new(
///     vec![(TerminalId::new(0), Symbol::Rise), (TerminalId::new(3), Symbol::Zero)],
///     vec![],
/// )?;
/// let b = SiPattern::new(vec![(TerminalId::new(3), Symbol::Zero)], vec![])?;
/// assert!(a.is_compatible(&b));
/// assert_eq!(a.merged(&b)?.care_bits().len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct SiPattern {
    /// Care bits, sorted by terminal, one entry per terminal.
    care: Vec<(TerminalId, Symbol)>,
    /// Occupied bus lines with their driver cores, sorted by line, one
    /// entry per line.
    bus: Vec<(BusLineId, CoreId)>,
}

impl SiPattern {
    /// Builds a pattern from care bits and occupied bus lines.
    ///
    /// The inputs need not be sorted; duplicates are removed. A terminal
    /// listed with two *different* symbols, or a bus line occupied for two
    /// *different* driver cores, is an error.
    ///
    /// # Errors
    ///
    /// [`PatternError::ConflictingCareBit`] or
    /// [`PatternError::ConflictingBusLine`] on internal contradictions.
    pub fn new(
        mut care: Vec<(TerminalId, Symbol)>,
        mut bus: Vec<(BusLineId, CoreId)>,
    ) -> Result<Self, PatternError> {
        care.sort_unstable();
        care.dedup();
        for pair in care.windows(2) {
            if pair[0].0 == pair[1].0 {
                return Err(PatternError::ConflictingCareBit {
                    terminal: pair[0].0,
                });
            }
        }
        bus.sort_unstable();
        bus.dedup();
        for pair in bus.windows(2) {
            if pair[0].0 == pair[1].0 {
                return Err(PatternError::ConflictingBusLine {
                    line: pair[0].0.raw(),
                });
            }
        }
        Ok(SiPattern { care, bus })
    }

    /// The care bits, sorted by terminal.
    pub fn care_bits(&self) -> &[(TerminalId, Symbol)] {
        &self.care
    }

    /// The occupied bus lines with their driver cores, sorted by line.
    pub fn bus_lines(&self) -> &[(BusLineId, CoreId)] {
        &self.bus
    }

    /// The care symbol at `terminal`, or `None` for `x`.
    pub fn symbol_at(&self, terminal: TerminalId) -> Option<Symbol> {
        self.care
            .binary_search_by_key(&terminal, |&(t, _)| t)
            .ok()
            .map(|i| self.care[i].1)
    }

    /// `true` when the pattern has no care bits and no occupied bus lines.
    pub fn is_empty(&self) -> bool {
        self.care.is_empty() && self.bus.is_empty()
    }

    /// The *care cores* of the pattern: owners of all care terminals plus
    /// all bus driver cores, sorted and deduplicated.
    ///
    /// # Panics
    ///
    /// Panics if a care terminal lies outside `soc`'s terminal space (use
    /// [`SiPattern::validate_for`] first for untrusted patterns).
    // Invariant: out-of-range terminals are a documented `# Panics` contract of this method.
    #[allow(clippy::expect_used)]
    pub fn care_cores(&self, soc: &Soc) -> Vec<CoreId> {
        let mut cores: Vec<CoreId> = self
            .care
            .iter()
            .map(|&(t, _)| soc.owner(t).expect("care terminal in range"))
            .chain(self.bus.iter().map(|&(_, driver)| driver))
            .collect();
        cores.sort_unstable();
        cores.dedup();
        cores
    }

    /// Checks that every care terminal and every bus driver core exists
    /// in `soc`.
    ///
    /// # Errors
    ///
    /// Returns [`PatternError::TerminalOutOfRange`] for the first
    /// offending care bit, otherwise [`PatternError::DriverOutOfRange`]
    /// for the first bus line driven from a core `soc` does not have.
    pub fn validate_for(&self, soc: &Soc) -> Result<(), PatternError> {
        let total = soc.total_wocs();
        // Care bits are sorted by terminal: only the last one can be the
        // first out of range, and the search runs only on failure.
        if self.care.last().is_some_and(|&(t, _)| t.raw() >= total) {
            let first = self.care.partition_point(|&(t, _)| t.raw() < total);
            return Err(PatternError::TerminalOutOfRange {
                terminal: self.care[first].0,
                total,
            });
        }
        let cores = soc.num_cores();
        match self
            .bus
            .iter()
            .find(|&&(_, driver)| driver.index() >= cores)
        {
            Some(&(line, driver)) => Err(PatternError::DriverOutOfRange {
                line: line.raw(),
                driver,
                cores,
            }),
            None => Ok(()),
        }
    }

    /// `true` when `self` and `other` can be compacted into one pattern:
    /// their care maps agree wherever both are non-`x`, and no bus line is
    /// occupied from two different core boundaries.
    pub fn is_compatible(&self, other: &SiPattern) -> bool {
        merge_join_agrees(&self.care, &other.care) && merge_join_agrees(&self.bus, &other.bus)
    }

    /// The intersection (compaction) of two compatible patterns: the union
    /// of their care bits and bus occupations.
    ///
    /// # Errors
    ///
    /// [`PatternError::ConflictingCareBit`] or
    /// [`PatternError::ConflictingBusLine`] when the patterns are not
    /// compatible.
    pub fn merged(&self, other: &SiPattern) -> Result<SiPattern, PatternError> {
        let care = merge_join_union(&self.care, &other.care)
            .map_err(|t| PatternError::ConflictingCareBit { terminal: t })?;
        let bus = merge_join_union(&self.bus, &other.bus)
            .map_err(|l| PatternError::ConflictingBusLine { line: l.raw() })?;
        Ok(SiPattern { care, bus })
    }

    /// Renders the pattern in the style of Table 1: one symbol per terminal
    /// with `|` separating core boundaries, then the bus postfix.
    ///
    /// Intended for debugging and examples; `O(total terminals)`.
    ///
    /// # Panics
    ///
    /// Panics if a care terminal lies outside `soc`'s terminal space.
    pub fn render(&self, soc: &Soc, bus_lines: u8) -> String {
        let mut out = String::new();
        for core in soc.core_ids() {
            if core.index() > 0 {
                out.push('|');
            }
            let range = soc.terminal_range(core);
            for t in range {
                match self.symbol_at(TerminalId::new(t)) {
                    Some(sym) => {
                        let _ = write!(out, "{sym}");
                    }
                    None => out.push('x'),
                }
            }
        }
        out.push_str(" ‖ ");
        for line in 0..bus_lines {
            let occupied = self
                .bus
                .binary_search_by_key(&BusLineId::new(line), |&(l, _)| l)
                .is_ok();
            out.push(if occupied { '1' } else { 'x' });
        }
        out
    }
}

/// `true` when two sorted association lists agree on every shared key.
fn merge_join_agrees<K: Ord + Copy, V: Eq + Copy>(a: &[(K, V)], b: &[(K, V)]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                if a[i].1 != b[j].1 {
                    return false;
                }
                i += 1;
                j += 1;
            }
        }
    }
    true
}

/// The union of two sorted association lists; `Err(key)` on disagreement.
fn merge_join_union<K: Ord + Copy, V: Eq + Copy>(
    a: &[(K, V)],
    b: &[(K, V)],
) -> Result<Vec<(K, V)>, K> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                if a[i].1 != b[j].1 {
                    return Err(a[i].0);
                }
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctam_model::CoreSpec;

    fn t(i: u32) -> TerminalId {
        TerminalId::new(i)
    }

    fn soc() -> Soc {
        Soc::new(
            "t",
            vec![
                CoreSpec::new("a", 1, 2, 0, vec![], 1).expect("valid"),
                CoreSpec::new("b", 1, 3, 0, vec![], 1).expect("valid"),
            ],
        )
        .expect("valid soc")
    }

    #[test]
    fn construction_sorts_and_dedups() {
        let p = SiPattern::new(
            vec![
                (t(5), Symbol::One),
                (t(1), Symbol::Rise),
                (t(5), Symbol::One),
            ],
            vec![],
        )
        .expect("valid");
        assert_eq!(p.care_bits(), &[(t(1), Symbol::Rise), (t(5), Symbol::One)]);
    }

    #[test]
    fn conflicting_care_bit_rejected() {
        let err =
            SiPattern::new(vec![(t(2), Symbol::Rise), (t(2), Symbol::Fall)], vec![]).unwrap_err();
        assert!(matches!(err, PatternError::ConflictingCareBit { .. }));
    }

    #[test]
    fn conflicting_bus_driver_rejected() {
        let err = SiPattern::new(
            vec![],
            vec![
                (BusLineId::new(3), CoreId::new(0)),
                (BusLineId::new(3), CoreId::new(1)),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, PatternError::ConflictingBusLine { line: 3 }));
    }

    #[test]
    fn compatibility_requires_symbol_agreement() {
        let a = SiPattern::new(vec![(t(0), Symbol::Rise)], vec![]).expect("valid");
        let b = SiPattern::new(vec![(t(0), Symbol::Fall)], vec![]).expect("valid");
        let c = SiPattern::new(vec![(t(1), Symbol::Fall)], vec![]).expect("valid");
        assert!(!a.is_compatible(&b));
        assert!(a.is_compatible(&c));
    }

    #[test]
    fn same_bus_line_different_drivers_incompatible() {
        let a = SiPattern::new(vec![], vec![(BusLineId::new(0), CoreId::new(0))]).expect("valid");
        let b = SiPattern::new(vec![], vec![(BusLineId::new(0), CoreId::new(1))]).expect("valid");
        let c = SiPattern::new(vec![], vec![(BusLineId::new(0), CoreId::new(0))]).expect("valid");
        assert!(!a.is_compatible(&b));
        assert!(a.is_compatible(&c));
    }

    #[test]
    fn merge_unions_care_bits() {
        let a = SiPattern::new(vec![(t(0), Symbol::Rise)], vec![]).expect("valid");
        let b = SiPattern::new(vec![(t(2), Symbol::Zero)], vec![]).expect("valid");
        let m = a.merged(&b).expect("compatible");
        assert_eq!(m.care_bits().len(), 2);
        assert_eq!(m.symbol_at(t(0)), Some(Symbol::Rise));
        assert_eq!(m.symbol_at(t(2)), Some(Symbol::Zero));
        assert_eq!(m.symbol_at(t(1)), None);
    }

    #[test]
    fn merge_of_incompatible_fails() {
        let a = SiPattern::new(vec![(t(0), Symbol::Rise)], vec![]).expect("valid");
        let b = SiPattern::new(vec![(t(0), Symbol::Fall)], vec![]).expect("valid");
        assert!(a.merged(&b).is_err());
    }

    #[test]
    fn care_cores_include_bus_drivers() {
        let soc = soc();
        let p = SiPattern::new(
            vec![(t(0), Symbol::Rise)],
            vec![(BusLineId::new(7), CoreId::new(1))],
        )
        .expect("valid");
        assert_eq!(p.care_cores(&soc), vec![CoreId::new(0), CoreId::new(1)]);
    }

    #[test]
    fn validate_detects_out_of_range() {
        let soc = soc(); // 5 terminals
        let p = SiPattern::new(vec![(t(5), Symbol::One)], vec![]).expect("valid");
        assert!(matches!(
            p.validate_for(&soc),
            Err(PatternError::TerminalOutOfRange { .. })
        ));
    }

    #[test]
    fn validate_names_the_first_out_of_range_terminal() {
        let soc = soc(); // 5 terminals
        let p = SiPattern::new(
            vec![
                (t(4), Symbol::One),
                (t(9), Symbol::Rise),
                (t(6), Symbol::Zero),
            ],
            vec![(BusLineId::new(0), CoreId::new(7))],
        )
        .expect("valid");
        assert_eq!(
            p.validate_for(&soc),
            Err(PatternError::TerminalOutOfRange {
                terminal: t(6),
                total: 5
            })
        );
        let in_range =
            SiPattern::new(vec![(t(0), Symbol::Rise), (t(4), Symbol::One)], vec![]).expect("valid");
        assert_eq!(in_range.validate_for(&soc), Ok(()));
    }

    #[test]
    fn validate_detects_a_driver_past_the_last_core() {
        let soc = soc(); // 2 cores
        let p = SiPattern::new(
            vec![(t(3), Symbol::Rise)],
            vec![
                (BusLineId::new(0), CoreId::new(1)),
                (BusLineId::new(2), CoreId::new(2)),
                (BusLineId::new(5), CoreId::new(40)),
            ],
        )
        .expect("valid");
        assert_eq!(
            p.validate_for(&soc),
            Err(PatternError::DriverOutOfRange {
                line: 2,
                driver: CoreId::new(2),
                cores: 2
            })
        );
    }

    #[test]
    fn render_matches_table1_layout() {
        let soc = soc();
        let p = SiPattern::new(
            vec![(t(0), Symbol::Rise), (t(3), Symbol::Zero)],
            vec![(BusLineId::new(1), CoreId::new(0))],
        )
        .expect("valid");
        assert_eq!(p.render(&soc, 4), "↑x|x0x ‖ x1xx");
    }

    #[test]
    fn empty_pattern_is_compatible_with_everything() {
        let e = SiPattern::default();
        assert!(e.is_empty());
        let p = SiPattern::new(vec![(t(0), Symbol::Rise)], vec![]).expect("valid");
        assert!(e.is_compatible(&p));
        assert_eq!(e.merged(&p).expect("compatible"), p);
    }
}
