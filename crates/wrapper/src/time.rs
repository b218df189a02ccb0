//! Test-time functions and the per-SOC time table.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use soctam_model::{CoreId, CoreSpec, Soc};

use crate::design::pipelined_scan_time;
use crate::{WrapperDesign, WrapperError, MAX_TAM_WIDTH};

/// InTest application time of `core` on a `width`-bit TAM, in clock cycles.
///
/// Designs the wrapper with [`WrapperDesign::design`] and applies
/// `(1 + max(si, so)) · p + min(si, so)`.
///
/// # Errors
///
/// Returns [`WrapperError::ZeroWidth`] when `width == 0` and
/// [`WrapperError::WidthTooLarge`] above [`MAX_TAM_WIDTH`].
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use soctam_model::CoreSpec;
/// use soctam_wrapper::intest_time;
///
/// let core = CoreSpec::new("c", 0, 0, 0, vec![10], 4)?;
/// assert_eq!(intest_time(&core, 1)?, (1 + 10) * 4 + 10);
/// # Ok(())
/// # }
/// ```
pub fn intest_time(core: &CoreSpec, width: u32) -> Result<u64, WrapperError> {
    Ok(WrapperDesign::design(core, width)?.intest_time(core.patterns()))
}

/// Cycles one SI pattern costs at `core`'s boundary over a `width`-bit
/// TAM: `2 · ceil(woc / width) + ceil(wic / width)`.
///
/// An SI test pattern is a *vector pair*: the wrapper output cells must be
/// loaded with both the launch and the follow-up vector (two shift
/// sessions of `ceil(woc / width)` cycles, as in the extended-JTAG SI test
/// scheme of Tehranipour et al.), and afterwards the integrity-loss-sensor
/// flags captured in the wrapper *input* cells are shifted out
/// (`ceil(wic / width)` cycles). A core with neither WOCs nor WICs costs
/// nothing.
///
/// # Errors
///
/// Returns [`WrapperError::ZeroWidth`] when `width == 0`.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use soctam_model::CoreSpec;
/// use soctam_wrapper::si_shift_cycles;
///
/// let core = CoreSpec::new("c", 2, 33, 0, vec![], 1)?;
/// assert_eq!(si_shift_cycles(&core, 8)?, 2 * 5 + 1); // 2·ceil(33/8) + ceil(2/8)
/// # Ok(())
/// # }
/// ```
pub fn si_shift_cycles(core: &CoreSpec, width: u32) -> Result<u64, WrapperError> {
    if width == 0 {
        return Err(WrapperError::ZeroWidth);
    }
    Ok(shift_cycles(core, u64::from(width)))
}

/// [`si_shift_cycles`] for a width already known to be nonzero.
fn shift_cycles(core: &CoreSpec, width: u64) -> u64 {
    2 * u64::from(core.woc_count()).div_ceil(width) + u64::from(core.wic_count()).div_ceil(width)
}

/// SI ExTest time contributed by `core` for an SI test group with
/// `patterns` patterns, on a `width`-bit TAM:
/// `patterns · si_shift_cycles(core, width)` clock cycles.
///
/// This is the quantity the paper writes `T_core^si_j`; rail and group
/// times are composed from it by the `soctam-tam` crate (Example 1).
///
/// # Errors
///
/// Returns [`WrapperError::ZeroWidth`] when `width == 0`.
pub fn si_time(core: &CoreSpec, width: u32, patterns: u64) -> Result<u64, WrapperError> {
    Ok(patterns.saturating_mul(si_shift_cycles(core, width)?))
}

/// `T_in(core, w)` for `w = 1, 2, …, row.len()`, written into `row`;
/// each entry equals
/// `WrapperDesign::design(core, w)?.intest_time(core.patterns())`.
///
/// The design's longest scan-in and scan-out chains depend on two
/// numbers per width only: the LPT makespan `m` of the internal chains
/// and their total length `s`, which every assignment shares.
/// Water-filling `k` unit cells over `w` chains whose longest is `m`
/// tops out at `max(m, ⌈(s + k) / w⌉)`, so `si` and `so` are that with
/// `k = wic` and `k = woc`. Once `w ≥ #chains` every internal chain gets
/// a wrapper chain of its own and `m` is the longest chain; below that,
/// [`lpt_makespan`] deals the chains, sorted once, through a min-heap.
pub(crate) fn intest_row(core: &CoreSpec, row: &mut [u64]) {
    let mut chains: Vec<u64> = core.scan_chains().iter().map(|&l| u64::from(l)).collect();
    chains.sort_unstable_by(|a, b| b.cmp(a));
    let total: u64 = chains.iter().sum();
    let longest = chains.first().copied().unwrap_or(0);
    let (wic, woc) = (u64::from(core.wic_count()), u64::from(core.woc_count()));
    let mut heap = BinaryHeap::with_capacity(chains.len());
    for (w, slot) in (1usize..).zip(row.iter_mut()) {
        let makespan = if w >= chains.len() {
            longest
        } else {
            lpt_makespan(&chains, w, &mut heap)
        };
        let fill = |cells: u64| makespan.max((total + cells).div_ceil(w as u64));
        *slot = pipelined_scan_time(fill(wic), fill(woc), core.patterns());
    }
}

/// The longest wrapper chain after LPT deals `desc` (sorted longest
/// first) onto `w < desc.len()` wrapper chains. Ties for the shortest
/// chain may break differently from [`WrapperDesign::design`]'s
/// first-minimum scan, but either choice adds the same length to an
/// equal load, so the multiset of loads, and with it the makespan, is
/// the same.
fn lpt_makespan(desc: &[u64], w: usize, heap: &mut BinaryHeap<Reverse<u64>>) -> u64 {
    heap.clear();
    // The `w` longest chains each land on a wrapper chain of their own.
    heap.extend(desc[..w].iter().map(|&len| Reverse(len)));
    let mut makespan = desc[0];
    for &len in &desc[w..] {
        if let Some(mut shortest) = heap.peek_mut() {
            shortest.0 += len;
            makespan = makespan.max(shortest.0);
        }
    }
    makespan
}

/// Per-SOC table of `T_in(core, width)` and the per-pattern SI shift
/// cycles `2·⌈woc/width⌉ + ⌈wic/width⌉`, for widths `1..=max_width`.
///
/// The TAM optimizer evaluates thousands of candidate architectures and
/// reads every time from here. Each core's InTest row is built by one
/// sort of its scan chains (see `DESIGN.md` §5), not by a
/// [`WrapperDesign`] per width, and equals the designs' times entry for
/// entry.
///
/// # Example
///
/// ```
/// use soctam_model::{Benchmark, CoreId};
/// use soctam_wrapper::{intest_time, TimeTable};
///
/// let soc = Benchmark::D695.soc();
/// let table = TimeTable::new(&soc, 16);
/// let c0 = CoreId::new(0);
/// assert_eq!(table.intest(c0, 16), intest_time(soc.core(c0), 16).unwrap());
/// assert!(table.intest(c0, 16) <= table.intest(c0, 1));
/// ```
#[derive(Clone, Debug)]
pub struct TimeTable {
    max_width: u32,
    /// `intest[core · max_width + width - 1]`.
    intest: Vec<u64>,
    /// `si_shift[core · max_width + width - 1]`.
    si_shift: Vec<u64>,
}

impl TimeTable {
    /// Computes the times of every core of `soc` at every width
    /// `1..=max_width`.
    ///
    /// # Panics
    ///
    /// Panics if `max_width` is zero or exceeds [`MAX_TAM_WIDTH`].
    pub fn new(soc: &Soc, max_width: u32) -> Self {
        assert!(max_width > 0, "max_width must be at least 1");
        assert!(
            max_width <= MAX_TAM_WIDTH,
            "max_width {max_width} exceeds the limit of {MAX_TAM_WIDTH}"
        );
        let row_len = max_width as usize;
        let mut intest = vec![0; soc.num_cores().saturating_mul(row_len)];
        let mut si_shift = Vec::with_capacity(intest.len());
        for ((_, core), row) in soc.iter().zip(intest.chunks_exact_mut(row_len)) {
            intest_row(core, row);
            si_shift.extend((1..=max_width).map(|width| shift_cycles(core, u64::from(width))));
        }
        TimeTable {
            max_width,
            intest,
            si_shift,
        }
    }

    /// The largest width the table covers.
    pub fn max_width(&self) -> u32 {
        self.max_width
    }

    /// Index of `(core, width)` in the flat rows.
    fn slot(&self, core: CoreId, width: u32) -> usize {
        assert!(
            width >= 1 && width <= self.max_width,
            "width {width} outside 1..={}",
            self.max_width
        );
        core.index() * self.max_width as usize + (width - 1) as usize
    }

    /// InTest time of `core` at `width`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds [`TimeTable::max_width`], or if
    /// `core` is out of range.
    pub fn intest(&self, core: CoreId, width: u32) -> u64 {
        self.intest[self.slot(core, width)]
    }

    /// Per-pattern SI shift cycles of `core` at `width`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds [`TimeTable::max_width`], or if
    /// `core` is out of range.
    pub fn si_shift(&self, core: CoreId, width: u32) -> u64 {
        self.si_shift[self.slot(core, width)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctam_model::Benchmark;

    #[test]
    fn si_time_scales_linearly_in_patterns() {
        let core = CoreSpec::new("c", 0, 10, 0, vec![], 1).expect("valid");
        // 2 * ceil(10/4) + ceil(0/4) = 6 cycles per pattern.
        assert_eq!(si_time(&core, 4, 7).expect("width ok"), 7 * 6);
        assert_eq!(si_time(&core, 4, 14).expect("width ok"), 14 * 6);
    }

    #[test]
    fn si_shift_for_sink_core_is_flag_readout_only() {
        let core = CoreSpec::new("sink", 12, 0, 0, vec![], 1).expect("valid");
        // No WOCs to load, but 12 ILS flags to shift out.
        assert_eq!(si_shift_cycles(&core, 3).expect("width ok"), 4);
    }

    #[test]
    fn zero_width_errors() {
        let core = CoreSpec::new("c", 1, 1, 0, vec![], 1).expect("valid");
        assert!(intest_time(&core, 0).is_err());
        assert!(si_shift_cycles(&core, 0).is_err());
        assert!(si_time(&core, 0, 5).is_err());
    }

    /// The per-width design loop the table replaces: every entry from a
    /// full [`WrapperDesign`].
    fn design_row(core: &CoreSpec, max_width: u32) -> Vec<u64> {
        (1..=max_width)
            .map(|w| {
                WrapperDesign::design(core, w)
                    .unwrap()
                    .intest_time(core.patterns())
            })
            .collect()
    }

    /// The widths of a design row where the time strictly drops.
    fn design_front(row: &[u64]) -> Vec<(u32, u64)> {
        let mut front: Vec<(u32, u64)> = Vec::new();
        for (i, &time) in row.iter().enumerate() {
            if front.last().map_or(true, |&(_, best)| time < best) {
                front.push((i as u32 + 1, time));
            }
        }
        front
    }

    #[test]
    fn table_matches_direct_computation() {
        for benchmark in Benchmark::ALL {
            let soc = benchmark.soc();
            let table = TimeTable::new(&soc, 128);
            for (id, core) in soc.iter() {
                let designed = design_row(core, 128);
                for width in 1..=128 {
                    assert_eq!(
                        table.intest(id, width),
                        designed[width as usize - 1],
                        "{} {id} at width {width}",
                        benchmark.name()
                    );
                    assert_eq!(
                        table.si_shift(id, width),
                        si_shift_cycles(core, width).unwrap()
                    );
                }
                assert_eq!(
                    crate::pareto_widths(core, 128).unwrap(),
                    design_front(&designed)
                );
            }
        }
    }

    /// Random cores, including chainless ones, cores with more chains
    /// than wires and cores whose I/O cells outweigh their scan cells:
    /// the row kernel, `pareto_widths` and `saturation_width` equal the
    /// per-width designs at every width.
    #[test]
    fn row_kernel_matches_designs_on_random_cores() {
        use soctam_exec::check::{cases, forall};
        forall(
            "row_kernel_matches_designs_on_random_cores",
            cases(48),
            |g| {
                let chains = g.vec_of(0, 80, |g| g.u32_in(1, 10_001));
                let inputs = g.u32_in(0, 2_001);
                let outputs = g.u32_in(0, 2_001);
                let bidirs = g.u32_in(0, 2_001);
                let patterns = g.u64_in(1, 1_000);
                let core = CoreSpec::new("r", inputs, outputs, bidirs, chains, patterns).unwrap();
                let max_width = g.u32_in(1, 161);
                let mut row = vec![0; max_width as usize];
                intest_row(&core, &mut row);
                let designed = design_row(&core, max_width);
                assert_eq!(row, designed);
                let front = design_front(&designed);
                assert_eq!(crate::pareto_widths(&core, max_width).unwrap(), front);
                assert_eq!(
                    crate::saturation_width(&core, max_width).unwrap(),
                    front.last().unwrap().0
                );
            },
        );
    }

    /// The premise of the optimizer's move bounds: a core's InTest time
    /// and SI shift cycles never rise with width. On every benchmark
    /// core through the table, and on random cores (as above) through
    /// the row kernel and the shift formula the table is built from.
    #[test]
    fn times_never_rise_with_width() {
        use soctam_exec::check::{cases, forall};
        fn assert_non_increasing(intest: &[u64], si_shift: &[u64], label: &str) {
            for (w, pair) in (1..).zip(intest.windows(2)) {
                assert!(
                    pair[1] <= pair[0],
                    "{label}: InTest rises at {w} -> {}",
                    w + 1
                );
            }
            for (w, pair) in (1..).zip(si_shift.windows(2)) {
                assert!(
                    pair[1] <= pair[0],
                    "{label}: SI shift rises at {w} -> {}",
                    w + 1
                );
            }
        }
        for benchmark in Benchmark::ALL {
            let soc = benchmark.soc();
            let table = TimeTable::new(&soc, 128);
            for id in soc.core_ids() {
                let intest: Vec<u64> = (1..=128).map(|w| table.intest(id, w)).collect();
                let si_shift: Vec<u64> = (1..=128).map(|w| table.si_shift(id, w)).collect();
                let label = format!("{} {id}", benchmark.name());
                assert_non_increasing(&intest, &si_shift, &label);
            }
        }
        forall("times_never_rise_with_width", cases(256), |g| {
            let chains = g.vec_of(0, 80, |g| g.u32_in(1, 10_001));
            let inputs = g.u32_in(0, 2_001);
            let outputs = g.u32_in(0, 2_001);
            let bidirs = g.u32_in(0, 2_001);
            let patterns = g.u64_in(1, 1_000);
            let core = CoreSpec::new("r", inputs, outputs, bidirs, chains, patterns).unwrap();
            let mut intest = vec![0; 128];
            intest_row(&core, &mut intest);
            let si_shift: Vec<u64> = (1..=128).map(|w| shift_cycles(&core, w)).collect();
            assert_non_increasing(&intest, &si_shift, "random core");
        });
    }

    #[test]
    fn pareto_functions_match_table_rows_and_designs() {
        let soc = Benchmark::P34392.soc();
        let table = TimeTable::new(&soc, 32);
        for (id, core) in soc.iter() {
            let front = design_front(&design_row(core, 32));
            let table_row: Vec<u64> = (1..=32).map(|w| table.intest(id, w)).collect();
            assert_eq!(design_front(&table_row), front);
            assert_eq!(crate::pareto_widths(core, 32).unwrap(), front);
            assert_eq!(
                crate::saturation_width(core, 32).unwrap(),
                front.last().unwrap().0
            );
        }
    }

    #[test]
    fn widths_beyond_the_limit_error_and_the_limit_works() {
        let core = CoreSpec::new("c", 3, 2, 1, vec![40, 7], 5).unwrap();
        for width in [MAX_TAM_WIDTH + 1, u32::MAX] {
            let expected = WrapperError::WidthTooLarge {
                width,
                max: MAX_TAM_WIDTH,
            };
            assert_eq!(WrapperDesign::design(&core, width), Err(expected));
            assert_eq!(intest_time(&core, width), Err(expected));
            assert_eq!(crate::pareto_widths(&core, width), Err(expected));
            assert_eq!(crate::saturation_width(&core, width), Err(expected));
        }
        let design = WrapperDesign::design(&core, MAX_TAM_WIDTH).unwrap();
        assert_eq!(design.width(), MAX_TAM_WIDTH);
        let front = crate::pareto_widths(&core, MAX_TAM_WIDTH).unwrap();
        assert_eq!(
            crate::saturation_width(&core, MAX_TAM_WIDTH),
            Ok(front.last().unwrap().0)
        );
        let soc = Benchmark::D695.soc();
        let table = TimeTable::new(&soc, MAX_TAM_WIDTH);
        for (id, core) in soc.iter() {
            assert_eq!(
                table.intest(id, MAX_TAM_WIDTH),
                intest_time(core, MAX_TAM_WIDTH).unwrap()
            );
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the limit")]
    fn table_rejects_max_width_beyond_the_limit() {
        let _ = TimeTable::new(&Benchmark::D695.soc(), MAX_TAM_WIDTH + 1);
    }

    #[test]
    #[should_panic(expected = "exceeds the limit")]
    fn table_rejects_max_width_u32_max() {
        let _ = TimeTable::new(&Benchmark::D695.soc(), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn table_rejects_width_beyond_max() {
        let soc = Benchmark::D695.soc();
        let table = TimeTable::new(&soc, 4);
        let _ = table.intest(CoreId::new(0), 5);
    }
}
