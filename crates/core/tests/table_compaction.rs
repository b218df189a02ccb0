//! The table sweep prepares its pattern set once and runs one compaction
//! step per partition count; each step passes the `compaction.partition`
//! failpoint once, before any of its work.
//!
//! The failpoint registry is process-global, so this binary holds one
//! test.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use soctam::exec::fault;
use soctam::experiment::{run_table_in, ExperimentConfig};
use soctam::{Benchmark, FaultAction, Pool, RunCtx, SoctamError};

#[test]
fn run_table_in_passes_the_partition_failpoint_once_per_count() {
    let soc = Benchmark::D695.soc();
    let config = ExperimentConfig {
        pattern_count: 300,
        widths: vec![8],
        partitions: vec![1, 2, 4, 8],
        seed: 3,
    };
    let counts = config.partitions.len() as u64;
    for jobs in [1, 2] {
        let what = format!("jobs = {jobs}");
        // Armed past the last count's hit: the sweep completes.
        fault::set_after("compaction.partition", FaultAction::Error, counts);
        let armed = run_table_in(&soc, &config, &RunCtx::new(Pool::new(jobs)));
        fault::reset();
        let table = armed.unwrap_or_else(|err| panic!("{what}: {err}"));
        assert_eq!(
            table,
            run_table_in(&soc, &config, &RunCtx::new(Pool::new(jobs))).expect("runs"),
            "{what}"
        );

        // Armed at the last count's hit: exactly one step fails.
        fault::set_after("compaction.partition", FaultAction::Error, counts - 1);
        let armed = run_table_in(&soc, &config, &RunCtx::new(Pool::new(jobs)));
        fault::reset();
        let err = armed.expect_err(&what);
        assert!(matches!(err, SoctamError::Compaction(_)), "{what}: {err:?}");
        assert!(err.to_string().contains("compaction.partition"), "{what}");

        // Armed from the first hit: every step fails before its covers.
        let run = RunCtx::new(Pool::new(jobs));
        fault::set("compaction.partition", FaultAction::Error);
        let armed = run_table_in(&soc, &config, &run);
        fault::reset();
        assert!(armed.is_err(), "{what}");
        let metrics = run.pool.metrics().snapshot();
        assert_eq!(metrics.kernel_words_compared, 0, "{what}");
        assert_eq!(metrics.duplicates_removed, 0, "{what}");
    }
}
