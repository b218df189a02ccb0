//! # soctam — SOC test architecture optimization for signal-integrity faults
//!
//! A from-scratch Rust implementation of Xu, Zhang and Chakrabarty, *"SOC
//! Test Architecture Optimization for Signal Integrity Faults on
//! Core-External Interconnects"*, DAC 2007, together with every substrate
//! the paper depends on:
//!
//! | layer | crate | contents |
//! |-------|-------|----------|
//! | SOC model | [`model`] | cores, terminal space, ITC'02 `.soc` parser, embedded benchmarks |
//! | wrappers | [`wrapper`] | balanced wrapper scan chains, InTest/SI time models |
//! | SI patterns | [`patterns`] | Table-1 pattern algebra, MA / reduced-MT / random generators |
//! | partitioner | [`hypergraph`] | multilevel FM k-way hypergraph partitioner (hMetis substitute) |
//! | compaction | [`compaction`] | two-dimensional SI test-set compaction (Section 3) |
//! | TAM | [`tam`] | TestRails, Algorithm 1 scheduling, Algorithm 2 optimization, TR-Architect baseline |
//! | tester | [`tester`] | bit-level tester-program generation, cycle-accurate model cross-check |
//!
//! This crate re-exports the whole stack and adds two conveniences:
//!
//! * [`SiOptimizer`] — the one-stop pipeline *(patterns → 2-D compaction →
//!   SI-aware TAM optimization)*;
//! * [`experiment`] — the sweep runner that regenerates the paper's
//!   Tables 2 and 3.
//!
//! # Quickstart
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use soctam::{Benchmark, RandomPatternConfig, SiOptimizer, SiPatternSet};
//!
//! let soc = Benchmark::D695.soc();
//! let patterns = SiPatternSet::random(&soc, &RandomPatternConfig::new(2_000).with_seed(7))?;
//! let result = SiOptimizer::new(&soc)
//!     .max_tam_width(16)
//!     .partitions(4)
//!     .optimize(&patterns)?;
//! println!(
//!     "T_soc = {} cc (InTest {}, SI {})",
//!     result.total_time(),
//!     result.intest_time(),
//!     result.si_time()
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod error;
pub mod experiment;
mod pipeline;

pub use error::SoctamError;
pub use pipeline::{SiOptimizationResult, SiOptimizer};

pub use soctam_compaction as compaction;
pub use soctam_exec as exec;
pub use soctam_hypergraph as hypergraph;
pub use soctam_model as model;
pub use soctam_patterns as patterns;
pub use soctam_tam as tam;
pub use soctam_tester as tester;
pub use soctam_wrapper as wrapper;

// The workhorse types, flattened for convenience.
pub use soctam_compaction::{
    compact_packed_with, compact_two_dimensional, compact_two_dimensional_with, count_packed_with,
    CompactedCounts, CompactedSiTests, CompactionConfig, SiTestGroup,
};
pub use soctam_exec::{FaultAction, FaultError, Metrics, MetricsSnapshot, Pool};
pub use soctam_model::{Benchmark, CoreId, CoreSpec, Diagnostic, Diagnostics, Soc, TerminalId};
pub use soctam_patterns::{
    generate_random_packed, PackedSet, RandomPatternConfig, SiPattern, SiPatternSet, Symbol,
};
pub use soctam_tam::{
    DeltaCost, EvalCache, Evaluation, Evaluator, Objective, OptimizedArchitecture, OptimizerBudget,
    RailEval, RunCtx, SiGroupSpec, TamOptimizer, TestBusEvaluator, TestRail, TestRailArchitecture,
};
pub use soctam_wrapper::{intest_time, si_time, TimeTable, WrapperDesign};
