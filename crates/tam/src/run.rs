//! The run context: the execution resources one request carries from
//! its front end down to the optimizer.

use std::sync::Arc;

use soctam_exec::{CancelToken, Pool, Progress};

use crate::{EvalCache, OptimizerBudget};

/// Everything a run executes *with*, as opposed to the problem it
/// solves: worker pool, probe pool, evaluation cache, budget, progress
/// sink and cancel token.
///
/// A front end builds one per request (the CLI from its flags, the
/// daemon from its startup state and the job's token and sink) and it
/// is handed down unchanged: registry tool → `SiOptimizer` or the table
/// harness → [`TamOptimizer`] and its budget tracker. Pools and the cache never change a result; the
/// budget and the cancel token only degrade it to the best architecture
/// found so far, flagged
/// [`degraded`](crate::OptimizedArchitecture::degraded).
///
/// [`TamOptimizer`]: crate::TamOptimizer
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use soctam_exec::Pool;
/// use soctam_model::Benchmark;
/// use soctam_tam::{OptimizerBudget, RunCtx, SiGroupSpec, TamOptimizer};
///
/// let soc = Benchmark::D695.soc();
/// let groups = vec![SiGroupSpec::new(soc.core_ids().collect(), 100)];
/// let run = RunCtx {
///     budget: OptimizerBudget::default().with_max_iterations(1),
///     ..RunCtx::new(Pool::new(2))
/// };
/// let result = TamOptimizer::new(&soc, 16, groups)?.run(run).optimize()?;
/// assert!(result.degraded());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct RunCtx {
    /// Worker pool for every parallel stage; its metrics record the run.
    pub pool: Pool,
    /// Dedicated pool for the optimizer's speculative candidate probes;
    /// `None` probes on a private serial pool.
    pub probe_pool: Option<Pool>,
    /// Evaluation cache shared across runs (a cheap handle clone);
    /// `None` gives every optimizer a private cache.
    pub eval_cache: Option<EvalCache>,
    /// Work limits of each TAM optimization; exhaustion degrades to
    /// best-so-far, never an error.
    pub budget: OptimizerBudget,
    /// Live progress sink (phase, probes, iterations, best `T_soc`).
    /// Advisory only.
    pub progress: Option<Arc<Progress>>,
    /// Cooperative cancellation, treated like an exhausted budget.
    pub cancel: Option<CancelToken>,
}

impl RunCtx {
    /// A context running on `pool` with an unlimited budget and nothing
    /// else attached.
    pub fn new(pool: Pool) -> Self {
        RunCtx {
            pool,
            probe_pool: None,
            eval_cache: None,
            budget: OptimizerBudget::unlimited(),
            progress: None,
            cancel: None,
        }
    }
}

impl Default for RunCtx {
    /// A serial pool with an unlimited budget.
    fn default() -> Self {
        RunCtx::new(Pool::serial())
    }
}
