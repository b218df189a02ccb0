//! Owned collections of SI patterns.

use soctam_model::{Diagnostic, Diagnostics, Soc, TerminalId};

use crate::generator::{
    generate_random, generate_random_with, maximal_aggressor, reduced_mt, RandomPatternConfig,
};
use crate::{PatternError, PatternSetStats, SiPattern};

/// An owned set of SI test patterns.
///
/// This is the unit the two-dimensional compaction pipeline consumes.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use soctam_model::{Benchmark, TerminalId};
/// use soctam_patterns::SiPatternSet;
///
/// let soc = Benchmark::D695.soc();
/// let bundle: Vec<TerminalId> = soc
///     .terminal_range(soctam_model::CoreId::new(4))
///     .take(16)
///     .map(TerminalId::new)
///     .collect();
/// let set = SiPatternSet::maximal_aggressor(&bundle)?;
/// assert_eq!(set.len(), 6 * 16);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SiPatternSet {
    patterns: Vec<SiPattern>,
}

impl SiPatternSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        SiPatternSet::default()
    }

    /// Wraps an existing pattern list.
    pub fn from_patterns(patterns: Vec<SiPattern>) -> Self {
        SiPatternSet { patterns }
    }

    /// Generates the paper's randomized experimental pattern set.
    ///
    /// # Errors
    ///
    /// See [`generate_random`].
    pub fn random(soc: &Soc, config: &RandomPatternConfig) -> Result<Self, PatternError> {
        Ok(SiPatternSet {
            patterns: generate_random(soc, config)?,
        })
    }

    /// As [`SiPatternSet::random`], generating patterns in parallel on
    /// `pool`. Output is bit-identical to the serial variant for any
    /// pool size.
    ///
    /// # Errors
    ///
    /// See [`generate_random`].
    pub fn random_with(
        soc: &Soc,
        config: &RandomPatternConfig,
        pool: &soctam_exec::Pool,
    ) -> Result<Self, PatternError> {
        Ok(SiPatternSet {
            patterns: generate_random_with(soc, config, pool)?,
        })
    }

    /// Generates the maximal-aggressor test set for one bundle.
    ///
    /// # Errors
    ///
    /// See [`maximal_aggressor`].
    pub fn maximal_aggressor(bundle: &[TerminalId]) -> Result<Self, PatternError> {
        Ok(SiPatternSet {
            patterns: maximal_aggressor(bundle)?,
        })
    }

    /// Generates the reduced-MT test set for one bundle with locality `k`.
    ///
    /// # Errors
    ///
    /// See [`reduced_mt`].
    pub fn reduced_mt(bundle: &[TerminalId], k: u32) -> Result<Self, PatternError> {
        Ok(SiPatternSet {
            patterns: reduced_mt(bundle, k)?,
        })
    }

    /// Number of patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// `true` when the set holds no patterns.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Borrows the patterns.
    pub fn as_slice(&self) -> &[SiPattern] {
        &self.patterns
    }

    /// Iterates over the patterns.
    pub fn iter(&self) -> std::slice::Iter<'_, SiPattern> {
        self.patterns.iter()
    }

    /// Consumes the set, returning the pattern list.
    pub fn into_vec(self) -> Vec<SiPattern> {
        self.patterns
    }

    /// Validates every pattern against `soc`'s terminal space and cores.
    ///
    /// # Errors
    ///
    /// Returns the first error [`SiPattern::validate_for`] finds.
    pub fn validate_for(&self, soc: &Soc) -> Result<(), PatternError> {
        self.patterns.iter().try_for_each(|p| p.validate_for(soc))
    }

    /// Validates the whole set against `soc`, collecting every finding
    /// instead of stopping at the first (contrast
    /// [`SiPatternSet::validate_for`]).
    ///
    /// Codes raised here (see DESIGN.md §8):
    ///
    /// * `PAT-V01` — a care bit references a terminal outside the SOC's
    ///   terminal space;
    /// * `PAT-V02` — a pattern is empty (no care bits and no bus
    ///   lines), so it consumes test time without testing anything;
    /// * `PAT-V03` — a bus line's driver core is out of range for the
    ///   SOC.
    pub fn validate(&self, soc: &Soc) -> Diagnostics {
        const SITE: &str = "patterns.validate";
        let mut diags = Diagnostics::new();
        let total = soc.total_wocs();
        let num_cores = soc.num_cores();
        for (index, pattern) in self.patterns.iter().enumerate() {
            for &(terminal, _) in pattern.care_bits() {
                if terminal.raw() >= total {
                    diags.push(Diagnostic::new(
                        "PAT-V01",
                        SITE,
                        format!(
                            "pattern {index} references {terminal} outside the \
                             {total}-terminal space"
                        ),
                        "regenerate the pattern set against this SOC",
                    ));
                }
            }
            if pattern.care_bits().is_empty() && pattern.bus_lines().is_empty() {
                diags.push(Diagnostic::new(
                    "PAT-V02",
                    SITE,
                    format!("pattern {index} is empty (no care bits, no bus lines)"),
                    "drop empty patterns before compaction; they waste test time",
                ));
            }
            for &(line, driver) in pattern.bus_lines() {
                if driver.index() >= num_cores {
                    diags.push(Diagnostic::new(
                        "PAT-V03",
                        SITE,
                        format!(
                            "pattern {index} occupies {line} for driver {driver} \
                             but the soc has {num_cores} cores"
                        ),
                        "regenerate the pattern set against this SOC",
                    ));
                }
            }
        }
        diags
    }

    /// Summary statistics of the set over `soc`.
    ///
    /// # Panics
    ///
    /// Panics if a pattern references a terminal outside `soc` (validate
    /// first for untrusted data).
    pub fn stats(&self, soc: &Soc) -> PatternSetStats {
        PatternSetStats::compute(self, soc)
    }
}

impl From<Vec<SiPattern>> for SiPatternSet {
    fn from(patterns: Vec<SiPattern>) -> Self {
        SiPatternSet::from_patterns(patterns)
    }
}

impl FromIterator<SiPattern> for SiPatternSet {
    fn from_iter<T: IntoIterator<Item = SiPattern>>(iter: T) -> Self {
        SiPatternSet {
            patterns: iter.into_iter().collect(),
        }
    }
}

impl Extend<SiPattern> for SiPatternSet {
    fn extend<T: IntoIterator<Item = SiPattern>>(&mut self, iter: T) {
        self.patterns.extend(iter);
    }
}

impl IntoIterator for SiPatternSet {
    type Item = SiPattern;
    type IntoIter = std::vec::IntoIter<SiPattern>;

    fn into_iter(self) -> Self::IntoIter {
        self.patterns.into_iter()
    }
}

impl<'a> IntoIterator for &'a SiPatternSet {
    type Item = &'a SiPattern;
    type IntoIter = std::slice::Iter<'a, SiPattern>;

    fn into_iter(self) -> Self::IntoIter {
        self.patterns.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Symbol;

    fn pattern(t: u32) -> SiPattern {
        SiPattern::new(vec![(TerminalId::new(t), Symbol::Rise)], vec![]).expect("valid")
    }

    #[test]
    fn collects_from_iterator() {
        let set: SiPatternSet = (0..5).map(pattern).collect();
        assert_eq!(set.len(), 5);
        assert!(!set.is_empty());
    }

    #[test]
    fn extend_appends() {
        let mut set = SiPatternSet::new();
        set.extend((0..3).map(pattern));
        set.extend((3..5).map(pattern));
        assert_eq!(set.len(), 5);
    }

    #[test]
    fn into_iter_roundtrips() {
        let set: SiPatternSet = (0..4).map(pattern).collect();
        let back: SiPatternSet = set.clone().into_iter().collect();
        assert_eq!(set, back);
    }

    #[test]
    fn validate_collects_every_finding() {
        use soctam_model::{CoreSpec, Soc};
        // 2 cores, 3 + 0 WOCs -> terminal space of size 3.
        let soc = Soc::new(
            "v",
            vec![
                CoreSpec::new("a", 1, 3, 0, vec![], 1).expect("valid"),
                CoreSpec::new("b", 1, 0, 0, vec![], 1).expect("valid"),
            ],
        )
        .expect("valid soc");
        let good = pattern(0);
        let out_of_range = pattern(7);
        let empty = SiPattern::new(vec![], vec![]).expect("valid");
        let set = SiPatternSet::from_patterns(vec![good, out_of_range, empty]);
        let diags = set.validate(&soc);
        let codes: Vec<&str> = diags.items().iter().map(|d| d.code()).collect();
        assert_eq!(codes, vec!["PAT-V01", "PAT-V02"]);
        // The in-range-only prefix passes.
        assert!(SiPatternSet::from_patterns(vec![pattern(2)])
            .validate(&soc)
            .is_ok());
    }
}
