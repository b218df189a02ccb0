//! Two-dimensional SI test-set compaction (Section 3 of the DAC'07 paper).
//!
//! * **Vertical** compaction reduces the *pattern count*: compatible
//!   patterns (their intersection is non-empty, and no shared bus line is
//!   triggered from two different core boundaries) are merged. Finding the
//!   minimum compacted set is the NP-complete clique covering problem; this
//!   crate implements the paper's greedy first-fit heuristic
//!   ([`compact_greedy`]) plus an exact branch-and-bound cover
//!   ([`compact_optimal`]) usable as a test oracle on small sets.
//!
//! * **Horizontal** compaction reduces the *pattern length*: cores are
//!   partitioned into groups with a hypergraph partitioner
//!   (`soctam-hypergraph`); patterns whose care cores all fall in one group
//!   only shift that group's wrapper output cells, while the remaining
//!   (cut) patterns stay full-length.
//!
//! [`compact_two_dimensional`] runs the full pipeline and produces the
//! [`SiTestGroup`]s the TAM optimizer schedules; [`compact_packed_with`]
//! runs the same pipeline on an already-packed pattern arena, and
//! [`PreparedSet`] splits it into the half that reads only the raw
//! patterns, done once, and a step per partition count. A caller that
//! reads only each group's cores and pattern count (the TAM optimizer,
//! the lower bounds) runs the counts step ([`count_packed_with`],
//! [`PreparedSet::counts`]), which emits no compacted pattern.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use soctam_compaction::{compact_two_dimensional, CompactionConfig};
//! use soctam_model::Benchmark;
//! use soctam_patterns::{RandomPatternConfig, SiPatternSet};
//!
//! let soc = Benchmark::D695.soc();
//! let raw = SiPatternSet::random(&soc, &RandomPatternConfig::new(2000).with_seed(1))?;
//! let compacted = compact_two_dimensional(&soc, &raw, &CompactionConfig::new(4))?;
//! assert!(compacted.total_patterns() < 2000);
//! assert!(compacted.groups().len() <= 5); // 4 parts + the cross-group remainder
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod error;
mod first_seen;
mod grouping;
mod pipeline;
mod types;
mod vertical;

pub use error::CompactionError;
pub use grouping::{
    build_core_hypergraph, build_core_hypergraph_packed, group_patterns, group_patterns_packed,
    PatternGrouping,
};
pub use pipeline::{
    compact_packed_with, compact_two_dimensional, compact_two_dimensional_with, count_packed_with,
    CompactionConfig, PreparedSet,
};
pub use types::{CompactedCounts, CompactedSiTests, CompactionStats, GroupCount, SiTestGroup};
pub use vertical::{
    compact_greedy, compact_greedy_ordered, compact_optimal, MergeOrder, EXACT_COVER_LIMIT,
};
