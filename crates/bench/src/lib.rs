//! Shared helpers for the table-regeneration binaries and the timing
//! benches. Everything here is deterministic: the paper tables are
//! reproducible bit-for-bit with the default seed.

// Bench-harness crate: aborting on an impossible setup failure is the
// desired behaviour for micro-benchmarks, so the panic lints are off
// wholesale rather than per call site.
#![allow(clippy::unwrap_used, clippy::expect_used)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]
use soctam::experiment::{run_table, ExperimentConfig, ExperimentTable};
use soctam::{Benchmark, RandomPatternConfig, SiGroupSpec, SiPatternSet, Soc, SoctamError};

pub mod harness {
    //! Minimal wall-clock timing harness for the `[[bench]]` binaries
    //! (all declared `harness = false`). Dependency-free stand-in for
    //! Criterion: each benchmark runs one discarded warm-up iteration
    //! plus a fixed number of timed samples and prints min / median /
    //! mean on one line.

    use std::path::PathBuf;
    use std::time::{Duration, Instant};

    /// Sample count for a bench binary: `default` unless the
    /// `SOCTAM_BENCH_SAMPLES` environment variable overrides it.
    #[must_use]
    pub fn samples(default: usize) -> usize {
        std::env::var("SOCTAM_BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or(default)
    }

    /// Where the sample counts came from: the `SOCTAM_BENCH_SAMPLES`
    /// override when it is set to a positive integer, the binary's
    /// built-in defaults otherwise. Recorded in the JSON report so a
    /// shipped number can be traced back to how many samples backed it.
    #[must_use]
    pub fn samples_source() -> String {
        match std::env::var("SOCTAM_BENCH_SAMPLES") {
            Ok(v) if v.parse::<usize>().is_ok_and(|n| n > 0) => {
                format!("SOCTAM_BENCH_SAMPLES={v}")
            }
            _ => String::from("default"),
        }
    }

    fn measure<R>(samples: usize, mut f: impl FnMut() -> R) -> (Duration, Duration, Duration) {
        std::hint::black_box(f());
        let mut times: Vec<Duration> = (0..samples)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(f());
                start.elapsed()
            })
            .collect();
        times.sort_unstable();
        let min = times[0];
        let median = times[times.len() / 2];
        let mean = times.iter().sum::<Duration>() / times.len() as u32;
        (min, median, mean)
    }

    fn print_line(label: &str, samples: usize, min: Duration, median: Duration, mean: Duration) {
        println!(
            "{label:<48} min {min:>11.3?}  median {median:>11.3?}  mean {mean:>11.3?}  ({samples} samples)"
        );
    }

    /// Times `samples` runs of `f` (after one warm-up run) and prints a
    /// summary line. The result goes through `black_box` so the work
    /// cannot be optimised away.
    pub fn bench<R>(label: &str, samples: usize, mut f: impl FnMut() -> R) {
        let (min, median, mean) = measure(samples, &mut f);
        print_line(label, samples, min, median, mean);
    }

    #[derive(Clone, Debug)]
    struct Entry {
        label: String,
        samples: usize,
        min_ns: u128,
        median_ns: u128,
        mean_ns: u128,
    }

    /// A bench session: times and prints like [`bench()`](fn@bench), and — when the
    /// binary was invoked with `--json <path>` — additionally records
    /// every entry and writes them as a JSON report in [`finish`].
    ///
    /// Plain (non-flag) arguments select rows: a row runs when its
    /// label contains one of them, and every row runs when none is
    /// given. `cargo bench -p soctam-bench --bench compaction --
    /// front_half` times the `front_half` rows alone, in a process of
    /// their own, so a row does not inherit the allocator state that
    /// the rows before it left.
    ///
    /// [`finish`]: Session::finish
    #[derive(Debug, Default)]
    pub struct Session {
        json_path: Option<PathBuf>,
        filters: Vec<String>,
        entries: Vec<Entry>,
    }

    impl Session {
        /// Builds a session from the process arguments, honouring an
        /// optional `--json <path>` pair anywhere on the command line
        /// and taking every plain argument as a row filter. Other flags,
        /// such as the `--bench` that `cargo bench` passes, are ignored.
        #[must_use]
        pub fn from_args() -> Self {
            Self::parse(std::env::args().skip(1))
        }

        pub(crate) fn parse(mut args: impl Iterator<Item = String>) -> Self {
            let mut session = Session::default();
            while let Some(arg) = args.next() {
                if arg == "--json" {
                    session.json_path = args.next().map(PathBuf::from);
                } else if !arg.starts_with('-') {
                    session.filters.push(arg);
                }
            }
            session
        }

        /// Whether the row `label` was selected: no filter was given,
        /// or the label contains one. A bench binary asks before it
        /// sets a row up, so an unselected row costs nothing.
        #[must_use]
        pub fn wants(&self, label: &str) -> bool {
            self.filters.is_empty() || self.filters.iter().any(|f| label.contains(f.as_str()))
        }

        /// Times `samples` runs of `f` (one discarded warm-up first),
        /// prints the summary line and records it for the JSON report.
        /// An unselected row ([`Session::wants`]) is skipped.
        pub fn bench<R>(&mut self, label: &str, samples: usize, mut f: impl FnMut() -> R) {
            if !self.wants(label) {
                return;
            }
            let (min, median, mean) = measure(samples, &mut f);
            print_line(label, samples, min, median, mean);
            self.entries.push(Entry {
                label: label.to_string(),
                samples,
                min_ns: min.as_nanos(),
                median_ns: median.as_nanos(),
                mean_ns: mean.as_nanos(),
            });
        }

        /// Serialises the recorded entries (stable `soctam-bench/1`
        /// schema, nanosecond integers).
        #[must_use]
        pub fn to_json(&self) -> String {
            let mut out = String::from("{\n  \"schema\": \"soctam-bench/1\",\n");
            out.push_str(&format!(
                "  \"samples_source\": \"{}\",\n",
                samples_source().replace('\\', "\\\\").replace('"', "\\\"")
            ));
            out.push_str("  \"entries\": [\n");
            for (i, e) in self.entries.iter().enumerate() {
                let comma = if i + 1 < self.entries.len() { "," } else { "" };
                out.push_str(&format!(
                    "    {{\"label\": \"{}\", \"samples\": {}, \"min_ns\": {}, \"median_ns\": {}, \"mean_ns\": {}}}{comma}\n",
                    // Labels are plain ASCII identifiers; escape the two
                    // JSON-reserved characters anyway.
                    e.label.replace('\\', "\\\\").replace('"', "\\\""),
                    e.samples,
                    e.min_ns,
                    e.median_ns,
                    e.mean_ns,
                ));
            }
            out.push_str("  ]\n}\n");
            out
        }

        /// Writes the JSON report when `--json <path>` was given.
        ///
        /// # Panics
        ///
        /// Panics when the report file cannot be written.
        pub fn finish(self) {
            if let Some(path) = &self.json_path {
                std::fs::write(path, self.to_json()).expect("bench report is writable");
                println!("wrote {}", path.display());
            }
        }
    }
}

/// The seed used by every shipped table (chosen once, never tuned).
pub const TABLE_SEED: u64 = 2007;

/// Runs one full paper table (all widths, all partition counts) for a
/// benchmark and raw pattern count.
///
/// # Errors
///
/// Forwards pipeline errors.
pub fn paper_table(bench: Benchmark, pattern_count: usize) -> Result<ExperimentTable, SoctamError> {
    let soc = bench.soc();
    let mut config = ExperimentConfig::paper_sweep(pattern_count);
    config.seed = TABLE_SEED;
    run_table(&soc, &config)
}

/// Renders a table in Markdown (for `EXPERIMENTS.md`).
pub fn to_markdown(table: &ExperimentTable) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    let parts: Vec<u32> = table
        .rows
        .first()
        .map(|r| r.t_partitioned.iter().map(|&(i, _)| i).collect())
        .unwrap_or_default();
    let _ = writeln!(
        out,
        "**{} — N_r = {}** (compacted: {})\n",
        table.soc_name,
        table.pattern_count,
        table
            .compacted_counts
            .iter()
            .map(|(i, c)| format!("g{i}={c}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = write!(out, "| Wmax | T_[8] (cc) |");
    for i in &parts {
        let _ = write!(out, " T_g{i} (cc) |");
    }
    let _ = writeln!(out, " T_min (cc) | ΔT_[8] (%) | ΔT_g (%) |");
    let _ = write!(out, "|---|---|");
    for _ in &parts {
        let _ = write!(out, "---|");
    }
    let _ = writeln!(out, "---|---|---|");
    for row in &table.rows {
        let _ = write!(out, "| {} | {} |", row.w_max, row.t_baseline);
        for &(_, t) in &row.t_partitioned {
            let _ = write!(out, " {t} |");
        }
        let _ = writeln!(
            out,
            " {} | {:.2} | {:.2} |",
            row.t_min(),
            row.delta_baseline_pct(),
            row.delta_g_pct()
        );
    }
    out
}

/// Deterministic pattern set for micro-benchmarks.
pub fn bench_patterns(soc: &Soc, count: usize) -> SiPatternSet {
    SiPatternSet::random(soc, &RandomPatternConfig::new(count).with_seed(TABLE_SEED))
        .expect("benchmark pattern generation succeeds")
}

/// A fixed mid-size SI group set for optimizer micro-benchmarks.
pub fn bench_groups(soc: &Soc) -> Vec<SiGroupSpec> {
    let cores: Vec<_> = soc.core_ids().collect();
    let quarter = (cores.len() / 4).max(1);
    let mut groups = vec![SiGroupSpec::new(cores.clone(), 2_000)];
    for (i, chunk) in cores.chunks(quarter).enumerate() {
        groups.push(SiGroupSpec::new(chunk.to_vec(), 500 + 100 * i as u64));
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_has_header_and_rows() {
        let soc = Benchmark::D695.soc();
        let config = ExperimentConfig {
            pattern_count: 150,
            widths: vec![8],
            partitions: vec![1, 2],
            seed: TABLE_SEED,
        };
        let table = run_table(&soc, &config).expect("runs");
        let md = to_markdown(&table);
        assert!(md.contains("| Wmax |"));
        assert!(md.contains("T_g2"));
        assert_eq!(md.matches("| 8 |").count(), 1);
    }

    #[test]
    fn session_json_is_well_formed() {
        let mut session = harness::Session::default();
        session.bench("kernel/smoke", 2, || 1 + 1);
        let json = session.to_json();
        assert!(json.contains("\"schema\": \"soctam-bench/1\""));
        assert!(json.contains("\"samples_source\": "));
        assert!(json.contains("\"label\": \"kernel/smoke\""));
        assert!(json.contains("\"samples\": 2"));
        assert!(json.contains("\"min_ns\": "));
    }

    #[test]
    fn session_arguments_select_rows() {
        let args = |list: &[&str]| list.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        let all = harness::Session::parse(args(&["--bench"]).into_iter());
        assert!(all.wants("front_half/p93791/100000/4"));

        let some = harness::Session::parse(
            args(&[
                "front_half",
                "--bench",
                "--json",
                "out.json",
                "table_counts",
            ])
            .into_iter(),
        );
        assert!(some.wants("front_half/p93791/100000/4"));
        assert!(some.wants("front_half_sparse/p93791/100000/4"));
        assert!(some.wants("table_counts/p93791/100000"));
        assert!(!some.wants("table_compaction/p93791/100000"));
        // The `--json` value is a path, not a filter.
        assert!(!some.wants("out.json"));

        let mut session = some;
        session.bench("compact_greedy/1000", 1, || unreachable!("unselected"));
        session.bench("front_half/smoke", 1, || 1 + 1);
        let json = session.to_json();
        assert!(json.contains("front_half/smoke"));
        assert!(!json.contains("compact_greedy"));
    }

    #[test]
    fn bench_helpers_are_deterministic() {
        let soc = Benchmark::D695.soc();
        assert_eq!(bench_patterns(&soc, 50), bench_patterns(&soc, 50));
        assert_eq!(bench_groups(&soc), bench_groups(&soc));
    }
}
