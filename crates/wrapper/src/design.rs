//! Balanced wrapper scan chain construction (the `Combine` procedure).

use soctam_model::CoreSpec;

use crate::WrapperError;

/// The largest TAM width a wrapper is designed for, and the largest
/// width budget every soctam layer accepts: 64× the paper's widest
/// sweep point (`W_max = 64`). Wrapper designs, InTest rows and time
/// tables allocate in proportion to the width, so an unbounded width
/// could ask for more memory than the machine has, an allocation
/// failure no panic handler can contain.
pub const MAX_TAM_WIDTH: u32 = 4096;

/// Checks a TAM width against `1..=`[`MAX_TAM_WIDTH`].
///
/// # Errors
///
/// [`WrapperError::ZeroWidth`] when `width == 0`;
/// [`WrapperError::WidthTooLarge`] when `width > MAX_TAM_WIDTH`.
///
/// # Example
///
/// ```
/// use soctam_wrapper::{check_width, WrapperError, MAX_TAM_WIDTH};
///
/// assert_eq!(check_width(MAX_TAM_WIDTH), Ok(()));
/// assert_eq!(
///     check_width(u32::MAX),
///     Err(WrapperError::WidthTooLarge { width: u32::MAX, max: MAX_TAM_WIDTH })
/// );
/// ```
pub fn check_width(width: u32) -> Result<(), WrapperError> {
    if width == 0 {
        return Err(WrapperError::ZeroWidth);
    }
    if width > MAX_TAM_WIDTH {
        return Err(WrapperError::WidthTooLarge {
            width,
            max: MAX_TAM_WIDTH,
        });
    }
    Ok(())
}

/// A wrapper design for one core at one TAM width: the partition of the
/// core's internal scan chains and functional I/O cells into `width`
/// wrapper scan chains.
///
/// A wrapper scan chain is ordered `[input cells][internal chains][output
/// cells]`, so its scan-in length is `inputs + internal` and its scan-out
/// length is `internal + outputs`. Bidirectional terminals contribute a cell
/// to *both* paths. The design minimizes (to LPT/water-filling quality) the
/// longest scan-in chain and the longest scan-out chain.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use soctam_model::CoreSpec;
/// use soctam_wrapper::WrapperDesign;
///
/// let core = CoreSpec::new("c", 4, 2, 0, vec![10, 10, 5], 20)?;
/// let d = WrapperDesign::design(&core, 3)?;
/// assert_eq!(d.width(), 3);
/// // Internal chains land on [10, 10, 5]; the 4 input cells water-fill the
/// // shortest chain, so the longest scan-in chain stays at 10.
/// assert_eq!(d.max_scan_in(), 10);
/// assert_eq!(d.intest_time(20), (1 + 10) * 20 + 10);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WrapperDesign {
    width: u32,
    /// Internal scan cells per wrapper chain (after LPT assignment).
    internal: Vec<u64>,
    /// Wrapper input cells per wrapper chain (after water-filling).
    input_cells: Vec<u64>,
    /// Wrapper output cells per wrapper chain (after water-filling).
    output_cells: Vec<u64>,
}

impl WrapperDesign {
    /// Designs the wrapper for `core` on a `width`-bit TAM.
    ///
    /// Internal scan chains are assigned with the LPT (longest processing
    /// time first) heuristic; wrapper input cells (`inputs + bidirs`) and
    /// wrapper output cells (`outputs + bidirs`) are then water-filled over
    /// the resulting base lengths independently, which is optimal for
    /// unit-size items.
    ///
    /// # Errors
    ///
    /// Returns [`WrapperError::ZeroWidth`] when `width == 0` and
    /// [`WrapperError::WidthTooLarge`] above [`MAX_TAM_WIDTH`].
    pub fn design(core: &CoreSpec, width: u32) -> Result<Self, WrapperError> {
        check_width(width)?;
        let width_usize = width as usize;

        // LPT: longest internal chain first, each onto the currently
        // shortest wrapper chain.
        let mut internal = vec![0u64; width_usize];
        let mut chains: Vec<u64> = core.scan_chains().iter().map(|&l| u64::from(l)).collect();
        chains.sort_unstable_by(|a, b| b.cmp(a));
        for len in chains {
            let target = shortest(&internal);
            internal[target] += len;
        }

        let input_cells = water_fill(&internal, u64::from(core.wic_count()));
        let output_cells = water_fill(&internal, u64::from(core.woc_count()));

        Ok(WrapperDesign {
            width,
            internal,
            input_cells,
            output_cells,
        })
    }

    /// The TAM width the design was built for.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Length of the longest wrapper scan-in chain
    /// (`input cells + internal scan cells`).
    pub fn max_scan_in(&self) -> u64 {
        self.internal
            .iter()
            .zip(&self.input_cells)
            .map(|(i, c)| i + c)
            .max()
            .unwrap_or(0)
    }

    /// Length of the longest wrapper scan-out chain
    /// (`internal scan cells + output cells`).
    pub fn max_scan_out(&self) -> u64 {
        self.internal
            .iter()
            .zip(&self.output_cells)
            .map(|(i, c)| i + c)
            .max()
            .unwrap_or(0)
    }

    /// Per-chain `(scan_in, scan_out)` lengths, in wrapper-chain order.
    pub fn chain_lengths(&self) -> Vec<(u64, u64)> {
        self.internal
            .iter()
            .zip(self.input_cells.iter().zip(&self.output_cells))
            .map(|(i, (ic, oc))| (i + ic, i + oc))
            .collect()
    }

    /// InTest application time for `patterns` test patterns:
    /// `(1 + max(si, so)) · p + min(si, so)` clock cycles.
    ///
    /// The formula pipelines scan-out of pattern `k` with scan-in of
    /// pattern `k + 1`; the trailing `min(si, so)` drains the last response.
    pub fn intest_time(&self, patterns: u64) -> u64 {
        pipelined_scan_time(self.max_scan_in(), self.max_scan_out(), patterns)
    }
}

/// `(1 + max(si, so)) · p + min(si, so)`: the InTest cycles of `patterns`
/// patterns through wrapper chains whose longest scan-in and scan-out
/// paths are `si` and `so` cells long.
pub(crate) fn pipelined_scan_time(si: u64, so: u64, patterns: u64) -> u64 {
    (1 + si.max(so)) * patterns + si.min(so)
}

fn shortest(lengths: &[u64]) -> usize {
    let mut best = 0;
    for (i, &len) in lengths.iter().enumerate() {
        if len < lengths[best] {
            best = i;
        }
    }
    let _ = &mut best;
    best
}

/// Distributes `count` unit-size cells over chains with the given base
/// lengths so the maximum total length is minimized (water-filling).
/// Returns the per-chain added-cell counts.
fn water_fill(base: &[u64], count: u64) -> Vec<u64> {
    let mut added = vec![0u64; base.len()];
    if count == 0 || base.is_empty() {
        return added;
    }

    // Find the level L = smallest total height such that raising every
    // chain to L absorbs all `count` cells, then distribute the remainder
    // (cells that do not complete a full level) one per lowest chain.
    let mut order: Vec<usize> = (0..base.len()).collect();
    order.sort_unstable_by_key(|&i| base[i]);

    let mut remaining = count;
    let mut level = base[order[0]];
    let mut active = 0usize; // chains currently at `level`
    while active < order.len() {
        // Extend the active set to all chains with base <= level.
        while active < order.len() && base[order[active]] <= level {
            active += 1;
        }
        let next = if active < order.len() {
            base[order[active]]
        } else {
            u64::MAX
        };
        // Raise the active chains from `level` toward `next`.
        let capacity = (next - level).saturating_mul(active as u64);
        if capacity >= remaining {
            let full_rounds = remaining / active as u64;
            let leftover = (remaining % active as u64) as usize;
            for (rank, &chain) in order[..active].iter().enumerate() {
                added[chain] = (level - base[chain]) + full_rounds + u64::from(rank < leftover);
            }
            return added;
        }
        for &chain in &order[..active] {
            added[chain] = next - base[chain];
        }
        remaining -= capacity;
        level = next;
    }
    unreachable!("water_fill: capacity above the tallest chain is unbounded")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core(inputs: u32, outputs: u32, chains: Vec<u32>, patterns: u64) -> CoreSpec {
        CoreSpec::new("t", inputs, outputs, 0, chains, patterns).expect("valid core")
    }

    #[test]
    fn zero_width_rejected() {
        let c = core(1, 1, vec![], 1);
        assert_eq!(
            WrapperDesign::design(&c, 0).unwrap_err(),
            WrapperError::ZeroWidth
        );
    }

    #[test]
    fn combinational_core_splits_io_evenly() {
        let c = core(10, 4, vec![], 5);
        let d = WrapperDesign::design(&c, 4).expect("designs");
        assert_eq!(d.max_scan_in(), 3); // ceil(10 / 4)
        assert_eq!(d.max_scan_out(), 1); // ceil(4 / 4)
    }

    #[test]
    fn lpt_balances_internal_chains() {
        let c = core(0, 0, vec![30, 20, 10], 5);
        let d = WrapperDesign::design(&c, 2).expect("designs");
        // LPT: {30} and {20, 10}.
        assert_eq!(d.max_scan_in(), 30);
        assert_eq!(d.max_scan_out(), 30);
    }

    #[test]
    fn width_beyond_cells_leaves_empty_chains() {
        let c = core(2, 1, vec![7], 3);
        let d = WrapperDesign::design(&c, 8).expect("designs");
        assert_eq!(d.max_scan_in(), 7); // the internal chain dominates
        assert_eq!(d.max_scan_out(), 7);
        assert_eq!(d.chain_lengths().len(), 8);
    }

    #[test]
    fn water_fill_tops_up_short_chains_first() {
        // Bases [10, 2]: 6 cells should all land on the short chain.
        let added = water_fill(&[10, 2], 6);
        assert_eq!(added, vec![0, 6]);
        // 10 cells: raise chain 1 to 10 (8 cells), then split the rest.
        let added = water_fill(&[10, 2], 10);
        assert_eq!(added[1], 8 + 1);
        assert_eq!(added[0], 1);
    }

    /// Brute-force minimal achievable max height for unit items: the
    /// smallest `L` such that raising every chain to `L` absorbs `count`.
    fn optimal_level(base: &[u64], count: u64) -> u64 {
        let mut level = *base.iter().max().unwrap();
        let slack = |l: u64| base.iter().map(|&b| l.saturating_sub(b)).sum::<u64>();
        if slack(level) >= count {
            let mut lo = *base.iter().min().unwrap();
            let mut hi = level;
            while lo < hi {
                let mid = (lo + hi) / 2;
                if slack(mid) >= count {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            level = lo;
        } else {
            let deficit = count - slack(level);
            level += deficit.div_ceil(base.len() as u64);
        }
        level
    }

    #[test]
    fn water_fill_is_exact_and_optimal() {
        let base = [5, 9, 1, 7];
        for count in 0..60u64 {
            let added = water_fill(&base, count);
            assert_eq!(added.iter().sum::<u64>(), count, "count {count}");
            let max = base.iter().zip(&added).map(|(b, a)| b + a).max().unwrap();
            assert_eq!(max, optimal_level(&base, count).max(9), "count {count}");
        }
    }

    #[test]
    fn intest_time_matches_formula() {
        let c = core(8, 6, vec![30, 20, 10], 100);
        let d = WrapperDesign::design(&c, 2).expect("designs");
        let si = d.max_scan_in();
        let so = d.max_scan_out();
        assert_eq!(d.intest_time(100), (1 + si.max(so)) * 100 + si.min(so));
    }

    #[test]
    fn wider_tam_never_slower() {
        let c = core(19, 23, vec![100, 60, 60, 40, 20], 50);
        let mut last = u64::MAX;
        for w in 1..=12 {
            let t = WrapperDesign::design(&c, w)
                .expect("designs")
                .intest_time(50);
            assert!(t <= last, "width {w}: {t} > {last}");
            last = t;
        }
    }

    #[test]
    fn bidirs_count_on_both_paths() {
        let c = CoreSpec::new("b", 0, 0, 6, vec![], 1).expect("valid");
        let d = WrapperDesign::design(&c, 2).expect("designs");
        assert_eq!(d.max_scan_in(), 3);
        assert_eq!(d.max_scan_out(), 3);
    }
}
