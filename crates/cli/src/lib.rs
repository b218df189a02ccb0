//! Implementation of the `soctam` command-line tool.
//!
//! The CLI is a thin front end over the shared tool registry
//! ([`soctam_registry::standard_registry`]): every subcommand, every
//! flag and all help text are **generated** from the registry's
//! declared tool schemas — there is no hand-maintained dispatch table
//! or flag parser to drift out of sync with the server. The
//! `soctam-serve` daemon is generated from the same registry, so
//! `soctam optimize d695 ...` and `POST /v1/tools/optimize` produce
//! byte-identical reports.
//!
//! ```text
//! soctam info     <soc>                     SOC summary (cores, terminals, volume)
//! soctam optimize <soc> [options]           compaction + SI-aware TAM optimization
//! soctam table    <soc> [options]           the paper's table sweep
//! soctam compact  <soc> [options]           compaction statistics only
//! ```
//!
//! `<soc>` is either an embedded benchmark name (`d695`, `p34392`,
//! `p93791`) or a path to an ITC'02 `.soc` file. Argument parsing is
//! dependency-free; every command accepts `--help`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
use std::fmt::Write as _;
use std::io::IsTerminal as _;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use soctam::exec::{fault, Progress};
use soctam::{EvalCache, Pool, RunCtx};
use soctam_registry::{
    expand_profile, parse_cli, resolve_soc, standard_registry, ParamKind, Tool, ToolError,
    ToolErrorKind,
};

/// A CLI failure: a message and the exit code to report.
#[derive(Debug)]
pub struct CliError {
    /// Message printed to stderr (stdout when `code` is 0).
    pub message: String,
    /// Process exit code.
    pub code: i32,
}

impl CliError {
    fn usage(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: 2,
        }
    }
}

impl From<ToolError> for CliError {
    fn from(err: ToolError) -> Self {
        CliError {
            code: match err.kind {
                ToolErrorKind::Usage => 2,
                ToolErrorKind::Invalid | ToolErrorKind::Failed => 1,
            },
            message: err.to_string(),
        }
    }
}

/// The `--progress` stderr ticker: a background thread that redraws
/// one status line (current phase, candidates probed, best `T_soc`)
/// ten times a second while a tool runs, then erases it. The sink it
/// polls is advisory — the ticker can never change results.
struct ProgressTicker {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

impl ProgressTicker {
    fn spawn(progress: Arc<Progress>) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut stderr = std::io::stderr().lock();
            while !stop_flag.load(Ordering::Relaxed) {
                let phase = progress.phase();
                if !phase.is_empty() {
                    let best = progress
                        .best()
                        .map_or_else(String::new, |b| format!("  best T_soc {b}"));
                    let line = format!("{phase}  probed {}{best}", progress.probed());
                    let _ = write!(stderr, "\r{line:<78}");
                    let _ = stderr.flush();
                }
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
        });
        ProgressTicker { stop, handle }
    }

    /// Stops the ticker and erases its status line.
    fn finish(self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.handle.join();
        let mut stderr = std::io::stderr().lock();
        let _ = write!(stderr, "\r{:<78}\r", "");
        let _ = stderr.flush();
    }
}

/// Top-level usage text, generated from the tool registry.
pub fn usage() -> String {
    let mut out = String::from(
        "soctam — SOC test architecture optimization for signal-integrity faults\n\
         \n\
         USAGE:\n\
         \x20   soctam <COMMAND> <SOC> [OPTIONS]\n\
         \n\
         COMMANDS:\n",
    );
    for tool in standard_registry().tools() {
        let _ = writeln!(out, "    {:<9} {}", tool.name, tool.summary);
    }
    out.push_str(
        "\n\
         SOC:\n\
         \x20   d695 | p34392 | p93791 | path/to/file.soc\n\
         \n\
         Run `soctam <COMMAND> <SOC> --help` for that command's options.\n\
         \n\
         ENVIRONMENT:\n\
         \x20   SOCTAM_FAILPOINTS  deterministic fault injection, e.g.\n\
         \x20                      `tam.merge=error;exec.pool.task=panic@3`\n\
         \x20                      (sites fail with a structured error; see DESIGN.md)\n\
         \n\
         Results are bit-identical for every --jobs value; threads only change\n\
         the wall-clock time.\n",
    );
    out
}

/// Per-command usage text, generated from the tool's parameter schema.
pub fn tool_usage(tool: &Tool) -> String {
    let mut out = format!(
        "soctam {} — {}\n\nUSAGE:\n    soctam {} <SOC>{}\n",
        tool.name,
        tool.summary,
        tool.name,
        if tool.params.is_empty() {
            ""
        } else {
            " [OPTIONS]"
        }
    );
    if !tool.params.is_empty() {
        out.push_str("\nOPTIONS:\n");
        for param in tool.params {
            let arg = match param.kind {
                ParamKind::Bool => format!("--{}", param.name),
                _ => format!("--{} <{}>", param.name, param.kind.type_name()),
            };
            let default = match (param.kind, param.default) {
                (ParamKind::Bool, _) | (_, None) => String::new(),
                (_, Some(d)) => format!(" [default: {d}]"),
            };
            let _ = writeln!(out, "    {arg:<24} {}{default}", param.help);
        }
    }
    out
}

/// Runs the CLI; returns the text to print on success.
///
/// # Errors
///
/// [`CliError`] carrying the message and exit code (0 means "print the
/// message to stdout and exit successfully", used for command help).
pub fn run(args: &[String]) -> Result<String, CliError> {
    // Arm deterministic failpoints from SOCTAM_FAILPOINTS before any
    // work happens; a malformed spec is a usage error, not a panic.
    fault::init_from_env()
        .map_err(|e| CliError::usage(format!("invalid {}: {e}", fault::ENV_VAR)))?;
    let Some(command) = args.first() else {
        return Err(CliError::usage(usage()));
    };
    if command == "--help" || command == "-h" {
        return Ok(usage());
    }
    let Some(tool) = standard_registry().get(command) else {
        return Err(CliError::usage(format!(
            "unknown command `{command}` (try --help)"
        )));
    };
    let Some(soc_spec) = args.get(1) else {
        return Err(CliError::usage(format!(
            "`{command}` needs an SOC argument (try --help)"
        )));
    };
    let rest = &args[2..];
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        return Err(CliError {
            message: tool_usage(tool),
            code: 0,
        });
    }
    let soc = resolve_soc(soc_spec)?;
    let mut params = parse_cli(tool.params, rest).map_err(|e| CliError::usage(e.message))?;
    expand_profile(tool.params, &mut params)?;

    // The run context and `stats` are front-end concerns: the pool and
    // the cache are built here from `jobs` and `cache-cap` (the daemon
    // builds its own at startup), and statistics are appended after the
    // tool returns.
    let jobs = if params.contains("jobs") {
        params.usize("jobs")
    } else {
        1
    };
    let pool = Pool::new(jobs);
    let mut ctx = RunCtx {
        eval_cache: params
            .opt_usize("cache-cap")
            .map(|cap| EvalCache::with_capacity_and_metrics(cap, pool.metrics())),
        ..RunCtx::new(pool.clone())
    };
    // The `--progress` ticker is display-only and goes to stderr; it
    // stays silent when stdout is piped so `soctam ... > file` and
    // captured test output never see it.
    let ticker = if params.bool("progress")
        && std::io::stdout().is_terminal()
        && std::io::stderr().is_terminal()
    {
        let progress = Arc::new(Progress::new());
        ctx.progress = Some(Arc::clone(&progress));
        Some(ProgressTicker::spawn(progress))
    } else {
        None
    };
    // A panicking tool (say, an armed `exec.pool.task=panic` failpoint
    // outside the pipeline's own containment) fails the run the way the
    // daemon fails the request: a structured error naming the site.
    let result = catch_unwind(AssertUnwindSafe(|| (tool.run)(&soc, &params, &ctx)))
        .unwrap_or_else(|panic| Err(ToolError::failed(fault::panic_message(panic.as_ref()))));
    if let Some(ticker) = ticker {
        ticker.finish();
    }
    let output = result?;
    let mut out = output.text;
    if params.bool("stats") {
        let _ = writeln!(out, "{}", pool.metrics().snapshot());
        if tool.params.iter().any(|p| p.name == "deadline-ms") {
            let _ = writeln!(out, "degraded: {}", output.degraded);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn info_runs_on_benchmarks() {
        let out = run(&args(&["info", "d695"])).expect("runs");
        assert!(out.contains("d695"));
        assert!(out.contains("s38584"));
    }

    #[test]
    fn optimize_runs_small() {
        let out = run(&args(&[
            "optimize",
            "d695",
            "--patterns",
            "200",
            "--width",
            "8",
            "--partitions",
            "2",
        ]))
        .expect("runs");
        assert!(out.contains("T_soc"));
        assert!(out.contains("TAM0"));
    }

    #[test]
    fn table_runs_reduced_sweep() {
        let out = run(&args(&[
            "table",
            "d695",
            "--patterns",
            "150",
            "--widths",
            "8,16",
            "--parts",
            "1,2",
        ]))
        .expect("runs");
        assert!(out.contains("T_[8]"));
        assert!(out.contains("T_g2"));
    }

    #[test]
    fn compact_reports_stats() {
        let out = run(&args(&["compact", "d695", "--patterns", "300"])).expect("runs");
        assert!(out.contains("ratio"));
        assert!(out.contains("SI data volume"));
    }

    #[test]
    fn svg_output_is_written() {
        let dir = std::env::temp_dir().join("soctam_cli_svg_test.svg");
        let path = dir.to_string_lossy().to_string();
        let out = run(&args(&[
            "optimize",
            "d695",
            "--patterns",
            "100",
            "--width",
            "8",
            "--svg",
            &path,
        ]))
        .expect("runs");
        assert!(out.contains("SVG written"));
        let svg = std::fs::read_to_string(&path).expect("file exists");
        assert!(svg.starts_with("<svg"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bounds_prints_one_row_per_width() {
        let out = run(&args(&[
            "bounds",
            "d695",
            "--patterns",
            "100",
            "--widths",
            "8,16,32",
        ]))
        .expect("runs");
        assert!(out.contains("LB(T_in)"));
        assert_eq!(out.lines().count(), 2 + 3);
    }

    #[test]
    fn simulate_confirms_model_agreement() {
        let out = run(&args(&[
            "simulate",
            "d695",
            "--patterns",
            "150",
            "--width",
            "8",
        ]))
        .expect("runs");
        assert!(out.contains("agree exactly"));
    }

    #[test]
    fn export_roundtrips_through_the_parser() {
        let text = run(&args(&["export", "p34392"])).expect("runs");
        let soc = soctam::model::parser::parse_soc(&text)
            .expect("parses")
            .into_soc()
            .expect("valid");
        assert_eq!(soc.num_cores(), 19);
    }

    #[test]
    fn unknown_command_is_usage_error() {
        let err = run(&args(&["frobnicate", "d695"])).unwrap_err();
        assert_eq!(err.code, 2);
    }

    #[test]
    fn unknown_flag_is_usage_error() {
        let err = run(&args(&["info", "d695"])); // no flags: fine
        assert!(err.is_ok());
        // No tool takes `--backend` or `--probe-jobs`: each is unknown
        // like any other flag.
        let unknown = [
            &["--bogus"][..],
            &["--backend", "tr-architect"],
            &["--probe-jobs", "2"],
        ];
        for flags in unknown {
            for tool in ["optimize", "table"] {
                let err = run(&args(&[&[tool, "d695"][..], flags].concat())).unwrap_err();
                assert_eq!(err.code, 2, "{tool} {flags:?}");
                assert!(err.message.contains(flags[0]), "{}", err.message);
            }
        }
    }

    #[test]
    fn flags_are_checked_against_the_commands_own_schema() {
        // `--widths` belongs to `table`/`bounds`, not `optimize`; the
        // registry-generated parser rejects it there.
        let err = run(&args(&["optimize", "d695", "--widths", "8"])).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--widths"));
    }

    #[test]
    fn missing_soc_is_usage_error() {
        let err = run(&args(&["info"])).unwrap_err();
        assert_eq!(err.code, 2);
    }

    #[test]
    fn bad_file_is_runtime_error() {
        let err = run(&args(&["info", "/nonexistent/x.soc"])).unwrap_err();
        assert_eq!(err.code, 1);
    }

    #[test]
    fn help_exits_cleanly() {
        let out = run(&args(&["--help"])).expect("help is success");
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn usage_lists_every_registered_tool() {
        let text = usage();
        for tool in standard_registry().tools() {
            assert!(text.contains(tool.name), "usage misses `{}`", tool.name);
        }
    }

    #[test]
    fn command_help_is_generated_from_the_schema() {
        let err = run(&args(&["optimize", "d695", "--help"])).unwrap_err();
        assert_eq!(err.code, 0, "command help prints and exits 0");
        assert!(err.message.contains("USAGE"));
        assert!(err.message.contains("--deadline-ms"));
        assert!(err.message.contains("[default: 10000]"));
    }

    #[test]
    fn jobs_values_produce_identical_output() {
        let base = args(&[
            "optimize",
            "d695",
            "--patterns",
            "300",
            "--width",
            "8",
            "--partitions",
            "2",
        ]);
        let serial = run(&base).expect("runs");
        for jobs in ["2", "4"] {
            let mut parallel = base.clone();
            parallel.extend(args(&["--jobs", jobs]));
            assert_eq!(run(&parallel).expect("runs"), serial, "--jobs {jobs}");
        }
    }

    #[test]
    fn profile_fills_defaults_and_explicit_flags_win() {
        let path = std::env::temp_dir().join("soctam_cli_profile_test.profile");
        std::fs::write(&path, "patterns = 150\nwidth = 16\npartitions = 2\n")
            .expect("temp dir is writable");
        let path = path.to_string_lossy().to_string();
        let explicit = run(&args(&[
            "optimize",
            "d695",
            "--patterns",
            "150",
            "--width",
            "8",
            "--partitions",
            "2",
        ]))
        .expect("runs");
        // `--width 8` overrides the profile's 16; the other two keys
        // come from the file.
        let profiled = run(&args(&[
            "optimize",
            "d695",
            "--profile",
            &path,
            "--width",
            "8",
        ]))
        .expect("runs");
        assert_eq!(profiled, explicit);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn profile_with_unknown_key_is_invalid_with_stable_code() {
        let path = std::env::temp_dir().join("soctam_cli_profile_bad.profile");
        std::fs::write(&path, "bogus = 1\n").expect("temp dir is writable");
        let path = path.to_string_lossy().to_string();
        let err = run(&args(&["optimize", "d695", "--profile", &path])).unwrap_err();
        assert_eq!(err.code, 1, "invalid profile is a runtime error, not usage");
        assert!(err.message.contains("PRF-V2"), "{}", err.message);
        assert!(err.message.contains("bogus"), "{}", err.message);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stats_flag_reports_runtime_stats() {
        let out = run(&args(&[
            "optimize",
            "d695",
            "--patterns",
            "150",
            "--width",
            "8",
            "--jobs",
            "2",
            "--stats",
        ]))
        .expect("runs");
        assert!(out.contains("runtime stats:"));
        assert!(out.contains("cache"));
        assert!(out.contains("phase"));
        // The delta evaluator's counters: every optimizer run computes at
        // least one rail component and reuses at least one schedule, so
        // both lines (gated on nonzero) must be present.
        assert!(out.contains("rail evals"));
        assert!(out.contains("schedule reuse"));
        // The optimizer's move loops probe candidates speculatively, so
        // the probe counters must be reported.
        assert!(out.contains("speculative"), "{out}");
        assert!(out.contains("batches"), "{out}");
    }

    #[test]
    fn budget_flags_degrade_gracefully() {
        // A one-iteration budget must still produce a full report, plus
        // the degraded note.
        let out = run(&args(&[
            "optimize",
            "d695",
            "--patterns",
            "150",
            "--width",
            "8",
            "--partitions",
            "2",
            "--max-iters",
            "1",
            "--stats",
        ]))
        .expect("degrades, does not fail");
        assert!(out.contains("optimization budget exhausted"), "{out}");
        assert!(out.contains("degraded: true"), "{out}");
        assert!(out.contains("T_soc"));
    }

    #[test]
    fn bad_budget_values_are_usage_errors() {
        let err = run(&args(&["optimize", "d695", "--deadline-ms", "soon"])).unwrap_err();
        assert_eq!(err.code, 2);
        let err = run(&args(&["optimize", "d695", "--max-iters", "-1"])).unwrap_err();
        assert_eq!(err.code, 2);
    }

    #[test]
    fn cache_cap_flag_bounds_the_evaluator_cache() {
        let base = args(&[
            "optimize",
            "d695",
            "--patterns",
            "200",
            "--width",
            "8",
            "--partitions",
            "2",
        ]);
        let unbounded = run(&base).expect("runs");
        let mut capped = base.clone();
        capped.extend(args(&["--cache-cap", "64"]));
        // A tiny cache only costs recomputation, never correctness.
        assert_eq!(run(&capped).expect("runs"), unbounded);
        // The bound holds the run's working set too, so the run evicts.
        capped.push("--stats".to_owned());
        let stats = run(&capped).expect("runs");
        assert_eq!(stats_lines(&stats, "cache evictions").len(), 1, "{stats}");
    }

    /// The `--stats` lines starting with `prefix`.
    fn stats_lines(out: &str, prefix: &str) -> Vec<String> {
        out.lines()
            .filter(|line| line.trim_start().starts_with(prefix))
            .map(str::to_owned)
            .collect()
    }

    const STATS_RUN: &[&str] = &[
        "optimize",
        "d695",
        "--patterns",
        "300",
        "--width",
        "16",
        "--partitions",
        "2",
        "--stats",
    ];

    #[test]
    fn a_cache_cap_that_never_evicts_reports_the_same_cache_counts() {
        let plain = run(&args(STATS_RUN)).expect("runs");
        let mut capped = args(STATS_RUN);
        capped.extend(args(&["--cache-cap", "10000000"]));
        let capped = run(&capped).expect("runs");
        let cache = stats_lines(&plain, "cache ");
        assert_eq!(cache.len(), 1, "{plain}");
        assert_eq!(stats_lines(&capped, "cache "), cache, "{capped}");
        assert!(stats_lines(&capped, "cache evictions").is_empty());
        // The capped run has a store, so it consults the compaction memo.
        assert_eq!(
            stats_lines(&capped, "compaction memo"),
            ["  compaction memo: 0 hits / 1 misses"]
        );
        assert!(stats_lines(&plain, "compaction memo").is_empty());
    }

    #[test]
    fn cache_cap_zero_is_unbounded() {
        let plain = run(&args(STATS_RUN)).expect("runs");
        let mut zero = args(STATS_RUN);
        zero.extend(args(&["--cache-cap", "0"]));
        let zero = run(&zero).expect("runs");
        let rail_evals = stats_lines(&plain, "rail evals");
        assert_eq!(rail_evals.len(), 1, "{plain}");
        assert_eq!(stats_lines(&zero, "rail evals"), rail_evals, "{zero}");
        assert!(stats_lines(&zero, "cache evictions").is_empty(), "{zero}");
    }
}
