//! Test wrapper design and test-time models.
//!
//! Every wrapped core owns an IEEE-1500-style test wrapper. This crate
//! builds **balanced wrapper scan chains** for a given TAM width (the
//! `Combine` procedure of Marinissen, Goel & Lousberg, ITC 2000 — LPT
//! assignment of internal scan chains plus water-filling of the functional
//! I/O cells) and derives the two test-time quantities the DAC'07 paper
//! optimizes:
//!
//! * **InTest** (core-internal logic) time on a `w`-bit TAM:
//!   `T_in = (1 + max(si, so)) · p + min(si, so)` where `si`/`so` are the
//!   longest wrapper scan-in/scan-out chains;
//! * **SI ExTest** shift cost: in SI test mode the wrapper scan chains
//!   contain wrapper cells only. One SI pattern is a vector *pair*, so the
//!   wrapper output cells are loaded twice and the integrity-loss-sensor
//!   flags in the wrapper input cells are unloaded once:
//!   `2·ceil(woc / w) + ceil(wic / w)` cycles per pattern (see
//!   `DESIGN.md`).
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use soctam_model::CoreSpec;
//! use soctam_wrapper::{intest_time, si_time, WrapperDesign};
//!
//! let core = CoreSpec::new("demo", 8, 6, 0, vec![30, 20, 10], 100)?;
//! let design = WrapperDesign::design(&core, 2)?;
//! assert_eq!(design.max_scan_in(), 34);  // [30, 20+10] + 8 inputs water-filled
//! assert_eq!(intest_time(&core, 2)?, design.intest_time(core.patterns()));
//! assert_eq!(si_time(&core, 2, 50)?, 50 * 10); // (2·ceil(6/2) + ceil(8/2)) per pattern
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod design;
mod error;
mod pareto;
mod time;

pub use design::{check_width, WrapperDesign, MAX_TAM_WIDTH};
pub use error::WrapperError;
pub use pareto::{pareto_widths, saturation_width};
pub use time::{intest_time, si_shift_cycles, si_time, TimeTable};
