//! Pluggable TAM-optimization backends.
//!
//! A backend is one *strategy* for turning an SOC, a TAM wire budget and
//! a set of compacted SI test groups into a [`TestRailArchitecture`].
//! Two structurally different strategies ship:
//!
//! * [`TrArchitectBackend`] (`tr-architect`) — the paper's
//!   bandwidth-matching `TAM_Optimization` ([`TamOptimizer`],
//!   Algorithm 2). The default; byte-compatible with the pre-backend
//!   pipeline.
//! * [`RectPackBackend`] (`rect-pack`) — Pareto rectangle packing with
//!   the diagonal-length best-fit heuristic of the wrapper/TAM
//!   co-optimization line (arXiv 1008.3320, arXiv 1008.4446). See
//!   [`rectpack`](self) for the algorithm.
//!
//! # The Evaluator-as-referee invariant
//!
//! Backends construct *rails*; the shared [`Evaluator`](crate::Evaluator)
//! — never the backend — computes the reported
//! [`Evaluation`](crate::Evaluation). Whatever internal cost model a
//! backend uses while searching, the `T_soc` it reports must be the one
//! the referee assigns to its final architecture, so any two backends
//! agree bit-for-bit on what a given architecture costs. The
//! `backend_verify` integration test re-evaluates every backend's output
//! under a fresh `Evaluator` and asserts bit-identity.
//!
//! # Determinism rules
//!
//! A backend must be a pure function of [`BackendCtx`] minus its
//! execution resources: the result may depend on the SOC, width budget,
//! groups, objective, restarts and the *iteration* half of the budget,
//! but never on pool sizes, wall-clock deadlines (beyond the documented
//! degraded-result escape hatch), or scheduling races. Budget
//! exhaustion and cancellation degrade to the best-so-far *valid*
//! architecture — never an error.

mod rectpack;

use std::fmt;
use std::str::FromStr;

use soctam_model::Soc;

use crate::{Objective, OptimizedArchitecture, RunCtx, SiGroupSpec, TamError, TamOptimizer};

pub use rectpack::RectPackBackend;

/// Selects a TAM-optimization backend by name.
///
/// The canonical names in [`BackendKind::NAMES`] are the single source
/// of truth shared by the CLI `--backend` flag, the JSON API enum
/// schema and the daemon's per-backend metrics — they cannot drift.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BackendKind {
    /// Bandwidth-matching `TAM_Optimization` (Algorithm 2); the default.
    #[default]
    TrArchitect,
    /// Pareto rectangle packing with the diagonal-length heuristic.
    RectPack,
}

impl BackendKind {
    /// Every backend, in canonical (schema) order.
    pub const ALL: [BackendKind; 2] = [BackendKind::TrArchitect, BackendKind::RectPack];

    /// Canonical backend names, aligned with [`BackendKind::ALL`].
    pub const NAMES: &'static [&'static str] = &["tr-architect", "rect-pack"];

    /// The canonical name (the CLI/JSON enum value).
    pub fn as_str(self) -> &'static str {
        match self {
            BackendKind::TrArchitect => "tr-architect",
            BackendKind::RectPack => "rect-pack",
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for BackendKind {
    type Err = TamError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        for (kind, name) in BackendKind::ALL.into_iter().zip(BackendKind::NAMES) {
            if s == *name {
                return Ok(kind);
            }
        }
        Err(TamError::UnknownBackend { name: s.to_owned() })
    }
}

/// What a backend supports, for schema generation and dispatch checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackendCaps {
    /// Honours [`BackendCtx::restarts`] > 1 (multi-start portfolio).
    pub multi_start: bool,
    /// Uses the speculative probe pool ([`RunCtx::probe_pool`]).
    pub probe_parallel: bool,
    /// Steers the *search* by [`BackendCtx::objective`]. Backends that
    /// ignore it still report the full referee evaluation.
    pub objective_aware: bool,
}

/// Everything a backend may consume: the problem (SOC, width budget,
/// compacted SI groups, objective, restarts) plus the run context
/// (pools, cache, budget, progress, cancellation).
///
/// Construct with [`BackendCtx::new`] and override fields as needed;
/// the defaults reproduce a plain serial, unlimited run.
#[derive(Clone, Debug)]
pub struct BackendCtx<'a> {
    /// The SOC under test.
    pub soc: &'a Soc,
    /// Maximum total TAM width (`W_max`).
    pub max_width: u32,
    /// Compacted SI test groups.
    pub groups: &'a [SiGroupSpec],
    /// What the search minimizes (backends without
    /// [`BackendCaps::objective_aware`] ignore this).
    pub objective: Objective,
    /// Multi-start restarts (`1` = single run; backends without
    /// [`BackendCaps::multi_start`] ignore higher values).
    pub restarts: u32,
    /// The execution resources the run carries down from its front end.
    pub run: RunCtx,
}

impl<'a> BackendCtx<'a> {
    /// A serial, unlimited-budget context for `soc` under `max_width`
    /// with the given compacted `groups`.
    pub fn new(soc: &'a Soc, max_width: u32, groups: &'a [SiGroupSpec]) -> Self {
        BackendCtx {
            soc,
            max_width,
            groups,
            objective: Objective::default(),
            restarts: 1,
            run: RunCtx::default(),
        }
    }
}

/// A TAM-optimization strategy. See the [module docs](self) for the
/// Evaluator-as-referee invariant and the determinism rules every
/// implementation must uphold.
pub trait TamBackend: Sync {
    /// Canonical name (the CLI/JSON enum value).
    fn name(&self) -> &'static str;

    /// One-line human description for schemas and help text.
    fn summary(&self) -> &'static str;

    /// What this backend supports.
    fn capabilities(&self) -> BackendCaps;

    /// Produces an optimized architecture for `ctx`. The returned
    /// evaluation must be the shared `Evaluator`'s verdict on the
    /// returned architecture, and the architecture must respect
    /// `ctx.max_width`.
    ///
    /// # Errors
    ///
    /// [`TamError`] when the problem itself is infeasible (zero width
    /// budget, invalid groups). Budget exhaustion is *not* an error.
    fn optimize(&self, ctx: &BackendCtx<'_>) -> Result<OptimizedArchitecture, TamError>;
}

/// Returns the backend implementing `kind`.
pub fn backend_for(kind: BackendKind) -> &'static dyn TamBackend {
    match kind {
        BackendKind::TrArchitect => &TrArchitectBackend,
        BackendKind::RectPack => &RectPackBackend,
    }
}

/// The paper's bandwidth-matching `TAM_Optimization` (Algorithm 2),
/// wrapped behind the [`TamBackend`] trait. Construction and call order
/// mirror the pre-backend pipeline exactly, so the default backend is
/// byte-compatible with historical output.
#[derive(Clone, Copy, Debug, Default)]
pub struct TrArchitectBackend;

impl TamBackend for TrArchitectBackend {
    fn name(&self) -> &'static str {
        "tr-architect"
    }

    fn summary(&self) -> &'static str {
        "bandwidth-matching TAM_Optimization (Algorithm 2) with TR-Architect merge/reshuffle"
    }

    fn capabilities(&self) -> BackendCaps {
        BackendCaps {
            multi_start: true,
            probe_parallel: true,
            objective_aware: true,
        }
    }

    fn optimize(&self, ctx: &BackendCtx<'_>) -> Result<OptimizedArchitecture, TamError> {
        let optimizer = TamOptimizer::new(ctx.soc, ctx.max_width, ctx.groups.to_vec())?
            .objective(ctx.objective)
            .run(ctx.run.clone());
        if ctx.restarts > 1 {
            optimizer.optimize_multi(ctx.restarts)
        } else {
            optimizer.optimize()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctam_model::Benchmark;

    fn groups_for(soc: &Soc) -> Vec<SiGroupSpec> {
        vec![SiGroupSpec::new(soc.core_ids().collect(), 300)]
    }

    #[test]
    fn kind_round_trips_through_names() {
        for (kind, name) in BackendKind::ALL.into_iter().zip(BackendKind::NAMES) {
            assert_eq!(kind.as_str(), *name);
            assert_eq!(name.parse::<BackendKind>(), Ok(kind));
            assert_eq!(kind.to_string(), *name);
        }
        assert!(matches!(
            "simulated-annealing".parse::<BackendKind>(),
            Err(TamError::UnknownBackend { .. })
        ));
    }

    #[test]
    fn default_kind_is_tr_architect() {
        assert_eq!(BackendKind::default(), BackendKind::TrArchitect);
    }

    #[test]
    fn dispatch_names_match_kinds() {
        for kind in BackendKind::ALL {
            assert_eq!(backend_for(kind).name(), kind.as_str());
            assert!(!backend_for(kind).summary().is_empty());
        }
    }

    #[test]
    fn tr_architect_backend_matches_direct_optimizer() {
        let soc = Benchmark::D695.soc();
        let groups = groups_for(&soc);
        let direct = TamOptimizer::new(&soc, 16, groups.clone())
            .and_then(|optimizer| optimizer.optimize())
            .expect("direct run");
        let via_backend = backend_for(BackendKind::TrArchitect)
            .optimize(&BackendCtx::new(&soc, 16, &groups))
            .expect("backend run");
        assert_eq!(direct, via_backend);
    }

    #[test]
    fn every_backend_respects_the_width_budget() {
        let soc = Benchmark::D695.soc();
        let groups = groups_for(&soc);
        for kind in BackendKind::ALL {
            let result = backend_for(kind)
                .optimize(&BackendCtx::new(&soc, 12, &groups))
                .expect("optimizes");
            assert!(result.architecture().check_width(12).is_ok(), "{kind}");
        }
    }
}
