//! Architecture-independent lower bounds on SOC test time.
//!
//! These are the classical bounds used to judge TAM-optimizer quality
//! (Goel & Marinissen, ITC 2002): no TestRail architecture on `W_max`
//! wires can beat them, so the gap between an optimizer's result and the
//! bound measures heuristic quality.

use soctam_model::Soc;
use soctam_wrapper::{check_width, intest_time, si_shift_cycles, WrapperError};

use crate::SiGroupSpec;

/// Lower bound on `T_soc^in` for any architecture of total width
/// `max_width`:
///
/// * **volume bound** — all rails together deliver at most `max_width`
///   bits per cycle, so `T ≥ ceil(Σ_c p_c · (1 + max wrapper chain work))
///   / max_width`; we use the width-1-normalized test time
///   `T_c(W_max) · w` ... in practice the tight, simple form is
///   `ceil(Σ_c T_c(max_width) · w_c^eff)`; this function uses the
///   standard pair:
///   `max( max_c T_c(max_width), ceil(Σ_c T_c(1) / max_width) )` —
///   the *bottleneck-core* bound (even a core given all wires needs
///   `T_c(max_width)`) and the *bandwidth* bound (the total 1-wire work
///   split perfectly over `max_width` wires).
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
/// use soctam_model::Benchmark;
/// use soctam_tam::bounds::intest_lower_bound;
///
/// let soc = Benchmark::P34392.soc();
/// // The bottleneck core keeps the bound above ~5.4e5 for wide TAMs.
/// assert!(intest_lower_bound(&soc, 64)? > 500_000);
/// # Ok(())
/// # }
/// ```
pub fn intest_lower_bound(soc: &Soc, max_width: u32) -> Result<u64, WrapperError> {
    check_width(max_width)?;
    let mut bottleneck = 0u64;
    let mut total_serial = 0u64;
    for (_, core) in soc.iter() {
        bottleneck = bottleneck.max(intest_time(core, max_width)?);
        total_serial = total_serial.saturating_add(intest_time(core, 1)?);
    }
    Ok(bottleneck.max(total_serial.div_ceil(u64::from(max_width))))
}

/// Lower bound on `T_soc^si` for the given SI groups on any architecture
/// of total width `max_width`.
///
/// Two effects bound the SI phase from below:
///
/// * **bandwidth** — every group must shift its per-core work somewhere;
///   at best the whole SOC width serves one core's shift, so
///   `T ≥ ceil(Σ_s Σ_{c ∈ s} p_s · shift_1(c) / max_width)` where
///   `shift_1` is the width-1 cost;
/// * **per-core serialization** — one core's wrapper is a single resource:
///   all groups involving core `c` serialize on it, each paying at least
///   the full-width shift cost, so
///   `T ≥ max_c Σ_{s ∋ c} p_s · shift(c, max_width)`.
///
/// # Errors
///
/// Returns [`WrapperError::ZeroWidth`] when `max_width == 0` and
/// [`WrapperError::WidthTooLarge`] above
/// [`MAX_TAM_WIDTH`](crate::MAX_TAM_WIDTH).
pub fn si_lower_bound(
    soc: &Soc,
    groups: &[SiGroupSpec],
    max_width: u32,
) -> Result<u64, WrapperError> {
    check_width(max_width)?;
    let mut total_work = 0u64;
    let mut per_core = vec![0u64; soc.num_cores()];
    for group in groups {
        for &core in group.cores() {
            let spec = soc.core(core);
            total_work = total_work
                .saturating_add(group.patterns().saturating_mul(si_shift_cycles(spec, 1)?));
            per_core[core.index()] = per_core[core.index()].saturating_add(
                group
                    .patterns()
                    .saturating_mul(si_shift_cycles(spec, max_width)?),
            );
        }
    }
    let bandwidth = total_work.div_ceil(u64::from(max_width));
    let serialization = per_core.into_iter().max().unwrap_or(0);
    Ok(bandwidth.max(serialization))
}

/// Combined lower bound on `T_soc` (InTest and SI phases share wrapper
/// cells and cannot overlap, so the bounds add).
///
/// # Errors
///
/// Returns [`WrapperError::ZeroWidth`] when `max_width == 0` and
/// [`WrapperError::WidthTooLarge`] above
/// [`MAX_TAM_WIDTH`](crate::MAX_TAM_WIDTH).
pub fn total_lower_bound(
    soc: &Soc,
    groups: &[SiGroupSpec],
    max_width: u32,
) -> Result<u64, WrapperError> {
    Ok(intest_lower_bound(soc, max_width)? + si_lower_bound(soc, groups, max_width)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TamOptimizer;
    use soctam_model::{Benchmark, CoreId};

    #[test]
    fn bounds_scale_down_with_width() {
        let soc = Benchmark::P93791.soc();
        let lb8 = intest_lower_bound(&soc, 8).expect("valid");
        let lb64 = intest_lower_bound(&soc, 64).expect("valid");
        assert!(lb64 < lb8);
        assert!(lb64 * 8 >= lb8 / 2, "bandwidth bound roughly ~1/w");
    }

    #[test]
    fn optimizer_never_beats_the_bound() {
        for bench in Benchmark::ALL {
            let soc = bench.soc();
            let groups = vec![SiGroupSpec::new(soc.core_ids().collect(), 500)];
            for width in [8u32, 24, 48] {
                let result = TamOptimizer::new(&soc, width, groups.clone())
                    .expect("valid")
                    .optimize()
                    .expect("optimizes");
                let lb_in = intest_lower_bound(&soc, width).expect("valid");
                let lb_si = si_lower_bound(&soc, &groups, width).expect("valid");
                assert!(
                    result.evaluation().t_in >= lb_in,
                    "{bench} w={width}: t_in {} < bound {lb_in}",
                    result.evaluation().t_in
                );
                assert!(
                    result.evaluation().t_si >= lb_si,
                    "{bench} w={width}: t_si {} < bound {lb_si}",
                    result.evaluation().t_si
                );
            }
        }
    }

    #[test]
    fn optimizer_is_within_2x_of_intest_bound() {
        // Heuristic-quality regression guard on the benchmarks.
        for bench in Benchmark::ALL {
            let soc = bench.soc();
            for width in [16u32, 32] {
                let result = TamOptimizer::new(&soc, width, vec![])
                    .expect("valid")
                    .optimize()
                    .expect("optimizes");
                let lb = intest_lower_bound(&soc, width).expect("valid");
                assert!(
                    result.evaluation().t_in <= lb * 2,
                    "{bench} w={width}: t_in {} vs bound {lb}",
                    result.evaluation().t_in
                );
            }
        }
    }

    #[test]
    fn si_serialization_bound_kicks_in() {
        let soc = Benchmark::D695.soc();
        // Two heavy groups both involving core 8 must serialize on it.
        let groups = vec![
            SiGroupSpec::new(vec![CoreId::new(8)], 1_000),
            SiGroupSpec::new(vec![CoreId::new(8), CoreId::new(9)], 1_000),
        ];
        let lb = si_lower_bound(&soc, &groups, 64).expect("valid");
        let core = soc.core(CoreId::new(8));
        let shift = soctam_wrapper::si_shift_cycles(core, 64).expect("valid");
        assert!(lb >= 2_000 * shift);
    }

    #[test]
    fn zero_width_rejected() {
        let soc = Benchmark::D695.soc();
        assert!(intest_lower_bound(&soc, 0).is_err());
        assert!(si_lower_bound(&soc, &[], 0).is_err());
        assert!(total_lower_bound(&soc, &[], 0).is_err());
    }

    #[test]
    fn widths_beyond_the_limit_rejected_and_the_limit_works() {
        let soc = Benchmark::D695.soc();
        let groups = vec![SiGroupSpec::new(soc.core_ids().collect(), 50)];
        for width in [crate::MAX_TAM_WIDTH + 1, u32::MAX] {
            let expected = Err(WrapperError::WidthTooLarge {
                width,
                max: crate::MAX_TAM_WIDTH,
            });
            assert_eq!(intest_lower_bound(&soc, width), expected);
            assert_eq!(si_lower_bound(&soc, &groups, width), expected);
            assert_eq!(total_lower_bound(&soc, &groups, width), expected);
        }
        let width = crate::MAX_TAM_WIDTH;
        let lb_in = intest_lower_bound(&soc, width).expect("limit accepted");
        let lb_si = si_lower_bound(&soc, &groups, width).expect("limit accepted");
        assert_eq!(total_lower_bound(&soc, &groups, width), Ok(lb_in + lb_si));
    }
}
