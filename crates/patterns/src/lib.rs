//! Signal-integrity (SI) test patterns for core-external interconnects.
//!
//! An SI test pattern (Table 1 of the DAC'07 paper) is a vector over the
//! SOC's global wrapper-output-cell terminal space using the five-symbol
//! alphabet `{x, 0, 1, ↑, ↓}`, plus a *bus postfix* marking which lines of
//! the shared functional bus the pattern occupies. Since a victim line is
//! only affected by a handful of neighbouring aggressors, patterns are
//! overwhelmingly `x` — this crate therefore stores patterns **sparsely**
//! (care bits only), which is what makes compacting 100 000-pattern sets
//! practical.
//!
//! Three generators are provided:
//!
//! * [`generator::maximal_aggressor`] — the MA fault model of Cuviello et
//!   al. (6 vector pairs per victim);
//! * [`generator::reduced_mt`] — the reduced multiple-transition model of
//!   Tehranipour et al. with locality factor `k` (`2^(2k+2)` patterns per
//!   victim);
//! * [`SiPatternSet::random`] — the randomized recipe the paper's
//!   experiments use (1 victim, 2–6 aggressors, ≤2 aggressors outside the
//!   victim core, 50 % bus usage). [`generate_random_packed`] draws the
//!   same patterns straight into the bit-packed [`PackedSet`] arena that
//!   compaction reads, without building the sparse set.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use soctam_model::Benchmark;
//! use soctam_patterns::{RandomPatternConfig, SiPatternSet};
//!
//! let soc = Benchmark::D695.soc();
//! let set = SiPatternSet::random(&soc, &RandomPatternConfig::new(1000).with_seed(7))?;
//! assert_eq!(set.len(), 1000);
//! // Every pattern has one victim and at least two aggressors.
//! assert!(set.iter().all(|p| p.care_bits().len() >= 3));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod coverage;
mod error;
pub mod generator;
pub mod packed;
mod pattern;
mod set;
mod stats;
mod symbol;

pub use error::PatternError;
pub use generator::{generate_random_packed, RandomPatternConfig};
pub use packed::{
    first_fit_cover, CliqueCover, KernelStats, PackedLayout, PackedPattern, PackedRef, PackedSet,
};
pub use pattern::SiPattern;
pub use set::SiPatternSet;
pub use stats::PatternSetStats;
pub use symbol::Symbol;
