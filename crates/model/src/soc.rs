//! The SOC model: an ordered collection of wrapped cores plus the global SI
//! terminal space.

use std::fmt;
use std::ops::Range;

use crate::{CoreId, CoreSpec, Diagnostic, Diagnostics, ModelError, TerminalId};

/// A core-based SOC: the unit the TAM optimization operates on.
///
/// The SOC owns its wrapped cores and defines the *global terminal space*
/// used by SI test patterns: core `c`'s wrapper output cells occupy the
/// contiguous range [`Soc::terminal_range`]`(c)` of [`TerminalId`]s, in core
/// order.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), soctam_model::ModelError> {
/// use soctam_model::{CoreId, CoreSpec, Soc};
///
/// let soc = Soc::new(
///     "tiny",
///     vec![
///         CoreSpec::new("a", 4, 3, 0, vec![8, 8], 10)?,
///         CoreSpec::new("b", 2, 5, 1, vec![], 4)?,
///     ],
/// )?;
/// assert_eq!(soc.total_wocs(), 3 + 6);
/// assert_eq!(soc.terminal_range(CoreId::new(1)), 3..9);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Soc {
    name: String,
    cores: Vec<CoreSpec>,
    /// Prefix sums of `woc_count` per core; `woc_offsets[i]..woc_offsets[i+1]`
    /// is core `i`'s terminal range. Length is `cores.len() + 1`.
    woc_offsets: Vec<u32>,
}

impl Soc {
    /// Creates an SOC from its wrapped cores.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptySoc`] when `cores` is empty and
    /// [`ModelError::TerminalSpaceOverflow`] when the cumulative WOC count
    /// exceeds `u32::MAX`.
    pub fn new(name: impl Into<String>, cores: Vec<CoreSpec>) -> Result<Self, ModelError> {
        if cores.is_empty() {
            return Err(ModelError::EmptySoc);
        }
        let mut woc_offsets = Vec::with_capacity(cores.len() + 1);
        let mut offset: u32 = 0;
        woc_offsets.push(0);
        for core in &cores {
            offset = offset
                .checked_add(core.woc_count())
                .ok_or(ModelError::TerminalSpaceOverflow)?;
            woc_offsets.push(offset);
        }
        Ok(Soc {
            name: name.into(),
            cores,
            woc_offsets,
        })
    }

    /// The SOC's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of wrapped cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// The core with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn core(&self, id: CoreId) -> &CoreSpec {
        &self.cores[id.index()]
    }

    /// All cores, in id order.
    pub fn cores(&self) -> &[CoreSpec] {
        &self.cores
    }

    /// Iterates over `(CoreId, &CoreSpec)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (CoreId, &CoreSpec)> {
        self.cores
            .iter()
            .enumerate()
            .map(|(i, c)| (CoreId::new(i as u32), c))
    }

    /// All core ids, `0..num_cores`.
    pub fn core_ids(&self) -> impl Iterator<Item = CoreId> {
        (0..self.cores.len() as u32).map(CoreId::new)
    }

    /// Total number of wrapper output cells across all cores — the size of
    /// the global SI terminal space.
    pub fn total_wocs(&self) -> u32 {
        // `woc_offsets` always holds at least the leading 0.
        self.woc_offsets.last().copied().unwrap_or(0)
    }

    /// The half-open range of global terminal indices owned by core `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn terminal_range(&self, id: CoreId) -> Range<u32> {
        self.woc_offsets[id.index()]..self.woc_offsets[id.index() + 1]
    }

    /// The global terminal id of core `id`'s `local`-th wrapper output cell.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or `local >= woc_count(id)`.
    pub fn terminal(&self, id: CoreId, local: u32) -> TerminalId {
        let range = self.terminal_range(id);
        assert!(
            local < range.end - range.start,
            "local WOC index {local} out of range for {id}"
        );
        TerminalId::new(range.start + local)
    }

    /// The core that owns a global terminal, or `None` if the terminal is
    /// out of range.
    pub fn owner(&self, terminal: TerminalId) -> Option<CoreId> {
        let t = terminal.raw();
        if t >= self.total_wocs() {
            return None;
        }
        // partition_point returns the number of offsets <= t among the
        // leading prefix; the owning core is that count minus one.
        let idx = self.woc_offsets.partition_point(|&off| off <= t) - 1;
        Some(CoreId::new(idx as u32))
    }

    /// Sum of InTest test-data volumes over all cores (see
    /// [`CoreSpec::test_data_volume`]). Saturates at `u64::MAX`.
    pub fn total_test_data_volume(&self) -> u64 {
        self.cores
            .iter()
            .fold(0u64, |acc, c| acc.saturating_add(c.test_data_volume()))
    }

    /// Sum of all cores' functional terminal counts (inputs + outputs +
    /// bidirs) — the "sum of the numbers of all the core I/Os" quantity the
    /// paper's Section 2 estimate refers to. Saturates at `u64::MAX`.
    pub fn total_io(&self) -> u64 {
        self.cores.iter().fold(0u64, |acc, c| {
            acc.saturating_add(u64::from(c.inputs()))
                .saturating_add(u64::from(c.outputs()))
                .saturating_add(u64::from(c.bidirs()))
        })
    }

    /// Validates the SOC beyond the structural checks [`Soc::new`]
    /// already enforces, collecting every finding instead of stopping
    /// at the first.
    ///
    /// Codes raised here (see DESIGN.md §8 for the full catalogue):
    ///
    /// * `SOC-V01` — empty SOC name;
    /// * `SOC-V02` — a core's test-data volume overflows `u64`;
    /// * `SOC-V03` — a core's serialized scan length (scan cells +
    ///   terminals) times its pattern count overflows `u64`, so test
    ///   times at narrow TAM widths would saturate;
    /// * `SOC-V04` — the internal terminal-offset table is
    ///   inconsistent (would indicate construction-invariant breakage).
    pub fn validate(&self) -> Diagnostics {
        const SITE: &str = "soc.validate";
        let mut diags = Diagnostics::new();
        if self.name.trim().is_empty() {
            diags.push(Diagnostic::new(
                "SOC-V01",
                SITE,
                "soc has an empty name",
                "give the SOC a non-empty name when constructing it",
            ));
        }
        for (id, core) in self.iter() {
            if core.checked_test_data_volume().is_none() {
                diags.push(Diagnostic::new(
                    "SOC-V02",
                    SITE,
                    format!(
                        "core `{}` ({id}) test data volume overflows u64",
                        core.name()
                    ),
                    "reduce the core's pattern count or scan-cell total",
                ));
            }
            let serial_bits = core
                .scan_cells()
                .checked_add(u64::from(core.wic_count()))
                .and_then(|b| b.checked_add(u64::from(core.woc_count())))
                .and_then(|b| b.checked_add(1));
            if serial_bits
                .and_then(|b| b.checked_mul(core.patterns()))
                .is_none()
            {
                diags.push(Diagnostic::new(
                    "SOC-V03",
                    SITE,
                    format!(
                        "core `{}` ({id}) test time at width 1 overflows u64",
                        core.name()
                    ),
                    "reduce the core's pattern count; narrow-width test times would saturate",
                ));
            }
        }
        let offsets_consistent = self.woc_offsets.len() == self.cores.len() + 1
            && self.woc_offsets.windows(2).all(|w| w[0] <= w[1])
            && self.iter().all(|(id, c)| {
                let r = self.terminal_range(id);
                r.end - r.start == c.woc_count()
            });
        if !offsets_consistent {
            diags.push(Diagnostic::new(
                "SOC-V04",
                SITE,
                "terminal offset table is inconsistent with core WOC counts",
                "rebuild the Soc via Soc::new; do not mutate it in place",
            ));
        }
        diags
    }
}

impl fmt::Display for Soc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} cores, {} WOCs)",
            self.name,
            self.num_cores(),
            self.total_wocs()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn soc() -> Soc {
        Soc::new(
            "t",
            vec![
                CoreSpec::new("a", 4, 3, 0, vec![8, 8], 10).expect("valid"),
                CoreSpec::new("b", 2, 5, 1, vec![], 4).expect("valid"),
                CoreSpec::new("c", 1, 0, 0, vec![2], 7).expect("valid"),
            ],
        )
        .expect("valid soc")
    }

    #[test]
    fn empty_soc_rejected() {
        assert_eq!(Soc::new("e", vec![]).unwrap_err(), ModelError::EmptySoc);
    }

    #[test]
    fn terminal_ranges_are_contiguous() {
        let s = soc();
        assert_eq!(s.terminal_range(CoreId::new(0)), 0..3);
        assert_eq!(s.terminal_range(CoreId::new(1)), 3..9);
        assert_eq!(s.terminal_range(CoreId::new(2)), 9..9);
        assert_eq!(s.total_wocs(), 9);
    }

    #[test]
    fn owner_inverts_terminal() {
        let s = soc();
        for core in s.core_ids() {
            let range = s.terminal_range(core);
            for local in 0..(range.end - range.start) {
                let t = s.terminal(core, local);
                assert_eq!(s.owner(t), Some(core));
            }
        }
    }

    #[test]
    fn owner_of_out_of_range_terminal_is_none() {
        let s = soc();
        assert_eq!(s.owner(TerminalId::new(9)), None);
        assert_eq!(s.owner(TerminalId::new(u32::MAX)), None);
    }

    #[test]
    fn owner_skips_zero_woc_cores() {
        // Core "c" has zero WOCs, so terminal 8 belongs to core "b".
        let s = soc();
        assert_eq!(s.owner(TerminalId::new(8)), Some(CoreId::new(1)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn terminal_local_index_checked() {
        let s = soc();
        let _ = s.terminal(CoreId::new(0), 3);
    }

    #[test]
    fn display_mentions_core_count() {
        assert!(soc().to_string().contains("3 cores"));
    }

    #[test]
    fn total_io_sums_all_sides() {
        let s = soc();
        assert_eq!(s.total_io(), (4 + 3) + (2 + 5 + 1) + 1);
    }

    #[test]
    fn validate_passes_for_well_formed_soc() {
        assert!(soc().validate().is_ok());
    }

    #[test]
    fn validate_flags_empty_name() {
        let s = Soc::new(
            "  ",
            vec![CoreSpec::new("a", 1, 1, 0, vec![4], 2).expect("valid")],
        )
        .expect("valid soc");
        let diags = s.validate();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags.items()[0].code(), "SOC-V01");
        assert_eq!(diags.items()[0].site(), "soc.validate");
        assert!(!diags.items()[0].suggestion().is_empty());
    }

    #[test]
    fn validate_flags_volume_overflow() {
        // u64::MAX patterns × (scan + io) overflows both the volume and
        // the width-1 test time.
        let s = Soc::new(
            "big",
            vec![CoreSpec::new("huge", 8, 8, 0, vec![100], u64::MAX).expect("valid")],
        )
        .expect("valid soc");
        let codes: Vec<&str> = s.validate().items().iter().map(|d| d.code()).collect();
        assert!(codes.contains(&"SOC-V02"));
        assert!(codes.contains(&"SOC-V03"));
        // Saturation keeps the accessor total + panic-free.
        assert_eq!(s.total_test_data_volume(), u64::MAX);
    }
}
