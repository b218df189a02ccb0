//! The experiment harness regenerating the paper's Tables 2 and 3.
//!
//! For one SOC and one raw pattern count `N_r`, the harness sweeps the
//! SOC-level TAM width `W_max` and, per width, reports:
//!
//! * `T_[8]` — total time when the architecture is optimized for InTest
//!   only (the TR-Architect baseline of reference \[8\]) and the
//!   1-D-compacted SI tests are merely scheduled on it afterwards;
//! * `T_gi` — total time from the proposed `TAM_Optimization` with the SI
//!   tests two-dimensionally compacted into `i` partitions;
//! * `T_min = min_i T_gi` and the paper's improvement metrics
//!   `ΔT_[8] = (T_[8] − T_min) / T_[8]` and `ΔT_g = (T_g1 − T_min) / T_g1`.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use soctam::experiment::{run_table, ExperimentConfig};
//! use soctam::Benchmark;
//!
//! let soc = Benchmark::D695.soc();
//! let config = ExperimentConfig {
//!     pattern_count: 500,
//!     widths: vec![8, 16],
//!     partitions: vec![1, 2],
//!     seed: 42,
//! };
//! let table = run_table(&soc, &config)?;
//! assert_eq!(table.rows.len(), 2);
//! println!("{table}");
//! # Ok(())
//! # }
//! ```

use std::fmt;

use soctam_compaction::{CompactionConfig, PreparedSet};
use soctam_exec::Pool;
use soctam_model::Soc;
use soctam_patterns::{generate_random_packed, RandomPatternConfig};
use soctam_tam::{Objective, RunCtx, SiGroupSpec, TamOptimizer};

use crate::pipeline::contain_panics;
use crate::SoctamError;

/// Parameters of one table run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExperimentConfig {
    /// Raw SI pattern count `N_r`.
    pub pattern_count: usize,
    /// TAM widths to sweep (the paper uses `8, 16, …, 64`).
    pub widths: Vec<u32>,
    /// SI partition counts to sweep (the paper uses `1, 2, 4, 8`).
    pub partitions: Vec<u32>,
    /// Seed for pattern generation and partitioning.
    pub seed: u64,
}

impl ExperimentConfig {
    /// The paper's full sweep for the given `N_r`.
    pub fn paper_sweep(pattern_count: usize) -> Self {
        ExperimentConfig {
            pattern_count,
            widths: (1..=8).map(|i| i * 8).collect(),
            partitions: vec![1, 2, 4, 8],
            seed: 2007,
        }
    }
}

/// One row of a results table (one `W_max`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableRow {
    /// The SOC-level TAM width.
    pub w_max: u32,
    /// `T_[8]`: the SI-oblivious baseline's total time.
    pub t_baseline: u64,
    /// `(i, T_gi)` per partition count, in sweep order.
    pub t_partitioned: Vec<(u32, u64)>,
}

impl TableRow {
    /// `T_min = min_i T_gi`.
    pub fn t_min(&self) -> u64 {
        self.t_partitioned
            .iter()
            .map(|&(_, t)| t)
            .min()
            .unwrap_or(self.t_baseline)
    }

    /// `ΔT_[8] = (T_[8] − T_min) / T_[8]` in percent (negative when the
    /// baseline wins, which the paper also observes for small widths).
    pub fn delta_baseline_pct(&self) -> f64 {
        let t8 = self.t_baseline as f64;
        (t8 - self.t_min() as f64) / t8 * 100.0
    }

    /// `ΔT_g = (T_g1 − T_min) / T_g1` in percent: the benefit of 2-D over
    /// 1-D compaction.
    pub fn delta_g_pct(&self) -> f64 {
        let g1 = self
            .t_partitioned
            .iter()
            .find(|&&(i, _)| i == 1)
            .map(|&(_, t)| t as f64)
            .unwrap_or(self.t_baseline as f64);
        (g1 - self.t_min() as f64) / g1 * 100.0
    }
}

/// A full results table for one SOC and one `N_r`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExperimentTable {
    /// SOC name.
    pub soc_name: String,
    /// Raw pattern count `N_r`.
    pub pattern_count: usize,
    /// Compacted pattern count per partition count `(i, count)`.
    pub compacted_counts: Vec<(u32, u64)>,
    /// One row per swept width.
    pub rows: Vec<TableRow>,
}

impl fmt::Display for ExperimentTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "SOC {}  N_r = {}  (compacted: {})",
            self.soc_name,
            self.pattern_count,
            self.compacted_counts
                .iter()
                .map(|(i, c)| format!("g{i}={c}"))
                .collect::<Vec<_>>()
                .join(", ")
        )?;
        write!(f, "{:>5} {:>10}", "Wmax", "T_[8]")?;
        for &(i, _) in self.rows.first().map_or(&[][..], |r| &r.t_partitioned) {
            write!(f, " {:>10}", format!("T_g{i}"))?;
        }
        writeln!(f, " {:>10} {:>8} {:>7}", "T_min", "dT[8]%", "dTg%")?;
        for row in &self.rows {
            write!(f, "{:>5} {:>10}", row.w_max, row.t_baseline)?;
            for &(_, t) in &row.t_partitioned {
                write!(f, " {t:>10}")?;
            }
            writeln!(
                f,
                " {:>10} {:>8.2} {:>7.2}",
                row.t_min(),
                row.delta_baseline_pct(),
                row.delta_g_pct()
            )?;
        }
        Ok(())
    }
}

/// Runs the full sweep for one SOC: generates `N_r` random SI patterns
/// (the paper's recipe), compacts them once per partition count, then
/// optimizes the TAM for every width — SI-obliviously for `T_[8]` and
/// SI-aware for every `T_gi`.
///
/// # Errors
///
/// Forwards generation, compaction and optimization errors.
pub fn run_table(soc: &Soc, config: &ExperimentConfig) -> Result<ExperimentTable, SoctamError> {
    run_table_with(soc, config, &Pool::serial())
}

/// [`run_table`] with every stage on `pool`: pattern generation fans out
/// per block of patterns, the compaction prelude into duplicate detection
/// and care-core extraction, compaction per partition count and the
/// `widths × (baseline + partitions)` optimization grid per cell. The
/// grid is reduced in sweep order, so the table is bit-identical to the
/// serial run for any pool size.
///
/// # Errors
///
/// Same contract as [`run_table`].
pub fn run_table_with(
    soc: &Soc,
    config: &ExperimentConfig,
    pool: &Pool,
) -> Result<ExperimentTable, SoctamError> {
    run_table_in(soc, config, &RunCtx::new(pool.clone()))
}

/// [`run_table_with`] on the run context `run`. Every cell gets `run`,
/// so its budget bounds each cell on its own; a tripped budget or
/// cancel token degrades the remaining cells to their best-so-far
/// architectures, and the table stays complete and valid.
///
/// The patterns are generated once, straight into a packed arena, and
/// prepared once ([`PreparedSet`]): generation, validation, duplicate
/// detection and care-core extraction happen once per table, and only
/// the partition, the buckets and the covers run per partition count.
/// Each stage runs with panic containment, like
/// [`SiOptimizer`](crate::SiOptimizer)'s.
///
/// # Errors
///
/// Same contract as [`run_table`].
pub fn run_table_in(
    soc: &Soc,
    config: &ExperimentConfig,
    run: &RunCtx,
) -> Result<ExperimentTable, SoctamError> {
    let pool = &run.pool;
    let metrics = pool.metrics();
    let set = contain_panics("pipeline.generate", || {
        metrics
            .time("generate", || {
                generate_random_packed(
                    soc,
                    &RandomPatternConfig::new(config.pattern_count).with_seed(config.seed),
                    pool,
                )
            })
            .map_err(SoctamError::from)
    })?;

    // Compaction is width-independent: prepare the set once, then run the
    // step of each partition count.
    let compacted = contain_panics("pipeline.compact", || {
        metrics.time("compact", || {
            let prepared = PreparedSet::new(soc, &set, &config.partitions, pool)?;
            pool.par_map(&config.partitions, |&parts| {
                prepared
                    .compact(&CompactionConfig::new(parts).with_seed(config.seed), pool)
                    .map(|c| (parts, c.total_patterns(), SiGroupSpec::from_compacted(&c)))
                    .map_err(SoctamError::from)
            })
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
        })
    })?;
    drop(set);
    let compacted_counts: Vec<(u32, u64)> =
        compacted.iter().map(|&(i, count, _)| (i, count)).collect();
    let compacted_groups: Vec<(u32, Vec<SiGroupSpec>)> = compacted
        .into_iter()
        .map(|(i, _, groups)| (i, groups))
        .collect();
    // The baseline schedules the 1-D-compacted tests (or the first sweep
    // entry when 1 is not swept).
    let baseline_groups: Vec<SiGroupSpec> = compacted_groups
        .iter()
        .find(|&&(i, _)| i == 1)
        .or(compacted_groups.first())
        .map(|(_, g)| g.clone())
        .unwrap_or_default();

    // One grid point per (width, column): column 0 is the baseline,
    // column j > 0 the (j-1)-th partition sweep entry.
    let columns = 1 + compacted_groups.len();
    let grid: Vec<(u32, usize)> = config
        .widths
        .iter()
        .flat_map(|&w| (0..columns).map(move |col| (w, col)))
        .collect();
    let times = contain_panics("pipeline.optimize", || {
        metrics.time("optimize", || {
            pool.par_map(&grid, |&(w_max, col)| {
                let (groups, objective) = if col == 0 {
                    (&baseline_groups, Objective::InTestOnly)
                } else {
                    (&compacted_groups[col - 1].1, Objective::Total)
                };
                let optimized = TamOptimizer::new(soc, w_max, groups.clone())?
                    .objective(objective)
                    .run(run.clone())
                    .optimize()?;
                Ok(optimized.evaluation().t_total())
            })
            .into_iter()
            .collect::<Result<Vec<u64>, SoctamError>>()
        })
    })?;

    let rows = config
        .widths
        .iter()
        .enumerate()
        .map(|(wi, &w_max)| {
            let cell = |col: usize| times[wi * columns + col];
            TableRow {
                w_max,
                t_baseline: cell(0),
                t_partitioned: compacted_groups
                    .iter()
                    .enumerate()
                    .map(|(j, (parts, _))| (*parts, cell(j + 1)))
                    .collect(),
            }
        })
        .collect();

    Ok(ExperimentTable {
        soc_name: soc.name().to_owned(),
        pattern_count: config.pattern_count,
        compacted_counts,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctam_model::Benchmark;

    #[test]
    fn small_sweep_produces_consistent_rows() {
        let soc = Benchmark::D695.soc();
        let config = ExperimentConfig {
            pattern_count: 300,
            widths: vec![8, 24],
            partitions: vec![1, 2],
            seed: 3,
        };
        let table = run_table(&soc, &config).expect("runs");
        assert_eq!(table.rows.len(), 2);
        for row in &table.rows {
            assert!(row.t_min() <= row.t_baseline.max(row.t_partitioned[0].1));
            assert!(row.t_partitioned.iter().all(|&(_, t)| t > 0));
        }
        // Wider TAM is never slower.
        assert!(table.rows[1].t_min() <= table.rows[0].t_min());
    }

    #[test]
    fn display_renders_all_columns() {
        let soc = Benchmark::D695.soc();
        let config = ExperimentConfig {
            pattern_count: 200,
            widths: vec![16],
            partitions: vec![1, 4],
            seed: 7,
        };
        let table = run_table(&soc, &config).expect("runs");
        let rendered = table.to_string();
        assert!(rendered.contains("T_[8]"));
        assert!(rendered.contains("T_g1"));
        assert!(rendered.contains("T_g4"));
        assert!(rendered.contains("T_min"));
    }

    #[test]
    fn a_partition_count_of_zero_is_an_error() {
        use soctam_compaction::{compact_packed_with, CompactionError};
        use soctam_hypergraph::HypergraphError;

        let zero_parts = CompactionError::Partition(HypergraphError::ZeroParts);
        let soc = Benchmark::D695.soc();
        let config = ExperimentConfig {
            pattern_count: 100,
            widths: vec![8],
            partitions: vec![0],
            seed: 3,
        };
        assert_eq!(
            run_table(&soc, &config).unwrap_err(),
            SoctamError::Compaction(zero_parts.clone())
        );
        let pool = Pool::serial();
        let set =
            generate_random_packed(&soc, &RandomPatternConfig::new(100), &pool).expect("valid set");
        assert_eq!(
            compact_packed_with(&soc, &set, &CompactionConfig::new(0), &pool).unwrap_err(),
            zero_parts
        );
    }

    #[test]
    fn delta_metrics_match_definitions() {
        let row = TableRow {
            w_max: 8,
            t_baseline: 200,
            t_partitioned: vec![(1, 150), (2, 100)],
        };
        assert_eq!(row.t_min(), 100);
        assert!((row.delta_baseline_pct() - 50.0).abs() < 1e-9);
        assert!((row.delta_g_pct() - 100.0 / 3.0).abs() < 1e-9);
    }
}
