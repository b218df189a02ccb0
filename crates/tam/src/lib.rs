//! TestRail TAM architecture, SI test scheduling and SI-aware TAM
//! optimization (Section 4 of the DAC'07 paper).
//!
//! The SOC's test access mechanism (TAM) is a set of **TestRails**: groups
//! of cores daisy-chained on a shared bundle of TAM wires. Cores on one
//! rail are tested serially; different rails operate in parallel. The SOC
//! test has two phases that share the wrapper cells and therefore cannot
//! overlap:
//!
//! * **InTest** — `T_soc^in` is the longest per-rail sum of core-internal
//!   test times;
//! * **SI ExTest** — each compacted SI test group occupies every rail that
//!   hosts one of its cores; its duration is the *bottleneck rail*'s total
//!   shift time (Example 1). Groups touching disjoint rail sets run in
//!   parallel — [`schedule_si_tests`] is the paper's Algorithm 1.
//!
//! [`TamOptimizer`] implements Algorithm 2 (`TAM_Optimization`): create a
//! start solution, merge rails bottom-up and top-down
//! (`mergeTAMs`), distribute freed wires to bottleneck rails
//! (`distributeFreeWires`) and finally reshuffle cores. Running it with
//! [`Objective::InTestOnly`] reproduces the TR-Architect baseline the
//! paper compares against (`T_[8]`).
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use soctam_model::Benchmark;
//! use soctam_tam::{Objective, SiGroupSpec, TamOptimizer};
//!
//! let soc = Benchmark::D695.soc();
//! // One SI group over all cores with 500 compacted patterns.
//! let groups = vec![SiGroupSpec::new(soc.core_ids().collect(), 500)];
//! let result = TamOptimizer::new(&soc, 16, groups)?
//!     .objective(Objective::Total)
//!     .optimize()?;
//! assert!(result.architecture().total_width() <= 16);
//! assert!(result.evaluation().t_total() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod bounds;
mod budget;
mod bus;

mod error;
mod evaluator;
mod optimizer;
pub mod power;
mod rail;
mod render;
pub mod report;
mod run;
mod schedule;

pub use budget::OptimizerBudget;
pub use bus::TestBusEvaluator;

pub use error::TamError;
pub use evaluator::{
    DeltaCost, EvalCache, Evaluation, Evaluator, RailEdit, RailEval, SiGroupSpec, SiGroupTime,
    SwapState,
};
pub use optimizer::{Objective, OptimizedArchitecture, TamOptimizer};
pub use rail::{TestRail, TestRailArchitecture};
pub use render::{render_schedule, render_schedule_svg};
pub use run::RunCtx;
pub use schedule::{
    schedule_si_tests, schedule_si_tests_with, ScheduleOrder, ScheduledSiTest, SiSchedule,
};
