//! Pareto analysis of wrapper widths.
//!
//! InTest time is a non-increasing staircase in TAM width: only some widths
//! actually shorten the longest wrapper scan chain. TAM optimizers need the
//! *Pareto-optimal* widths (where time strictly drops) and the *saturation
//! width* beyond which extra wires are wasted on this core.

use soctam_model::CoreSpec;

use crate::time::intest_row;
use crate::{check_width, WrapperError};

/// The Pareto-optimal `(width, intest_time)` points of `core` for widths
/// `1..=max_width`.
///
/// The first entry is always `(1, T(1))`; every subsequent entry strictly
/// decreases the time. Assigning a core any width between two Pareto points
/// wastes wires.
///
/// # Errors
///
/// Returns [`WrapperError::ZeroWidth`] when `max_width == 0` and
/// [`WrapperError::WidthTooLarge`] above
/// [`MAX_TAM_WIDTH`](crate::MAX_TAM_WIDTH).
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use soctam_model::CoreSpec;
/// use soctam_wrapper::pareto_widths;
///
/// let core = CoreSpec::new("c", 0, 0, 0, vec![50, 50], 10)?;
/// let points = pareto_widths(&core, 8)?;
/// // One chain per wire at width 2; more wires cannot help.
/// assert_eq!(points.last().expect("nonempty").0, 2);
/// # Ok(())
/// # }
/// ```
pub fn pareto_widths(core: &CoreSpec, max_width: u32) -> Result<Vec<(u32, u64)>, WrapperError> {
    check_width(max_width)?;
    let mut row = vec![0; max_width as usize];
    intest_row(core, &mut row);
    let mut front = Vec::new();
    let mut best = u64::MAX;
    for (width, &time) in (1u32..).zip(&row) {
        if time < best {
            front.push((width, time));
            best = time;
        }
    }
    Ok(front)
}

/// The smallest width at which `core`'s InTest time reaches its minimum
/// over `1..=max_width` (the saturation width).
///
/// # Errors
///
/// Returns [`WrapperError::ZeroWidth`] when `max_width == 0` and
/// [`WrapperError::WidthTooLarge`] above
/// [`MAX_TAM_WIDTH`](crate::MAX_TAM_WIDTH).
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use soctam_model::CoreSpec;
/// use soctam_wrapper::saturation_width;
///
/// let core = CoreSpec::new("c", 0, 0, 0, vec![50, 50], 10)?;
/// assert_eq!(saturation_width(&core, 8)?, 2);
/// # Ok(())
/// # }
/// ```
// Invariant: `pareto_widths` always yields width 1, so the pareto set is non-empty.
#[allow(clippy::expect_used)]
pub fn saturation_width(core: &CoreSpec, max_width: u32) -> Result<u32, WrapperError> {
    Ok(pareto_widths(core, max_width)?
        .last()
        .expect("pareto set contains width 1")
        .0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intest_time;

    #[test]
    fn pareto_times_strictly_decrease() {
        let core = CoreSpec::new("c", 19, 23, 0, vec![100, 60, 60, 40, 20], 50).expect("valid");
        let points = pareto_widths(&core, 16).expect("widths ok");
        for pair in points.windows(2) {
            assert!(pair[0].0 < pair[1].0);
            assert!(pair[0].1 > pair[1].1);
        }
        assert_eq!(points[0].0, 1);
    }

    #[test]
    fn single_long_chain_saturates_at_width_one_plus_io() {
        // One internal chain dominates: width 1 already achieves it if the
        // I/O cells fit alongside.
        let core = CoreSpec::new("c", 0, 0, 0, vec![1000], 10).expect("valid");
        assert_eq!(saturation_width(&core, 8).expect("widths ok"), 1);
    }

    #[test]
    fn bottleneck_core_of_p34392_saturates_early() {
        let soc = soctam_model::Benchmark::P34392.soc();
        let core = soc.core(soctam_model::CoreId::new(17));
        let sat = saturation_width(core, 64).expect("widths ok");
        assert!(sat <= 8, "bottleneck saturates at {sat}");
        let floor = intest_time(core, sat).expect("width ok");
        assert!(
            (500_000..600_000).contains(&floor),
            "bottleneck floor {floor} outside calibrated regime"
        );
    }

    #[test]
    fn zero_max_width_errors() {
        let core = CoreSpec::new("c", 1, 1, 0, vec![], 1).expect("valid");
        assert!(pareto_widths(&core, 0).is_err());
        assert!(saturation_width(&core, 0).is_err());
    }
}
