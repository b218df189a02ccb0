//! `e2e` — the repository's end-to-end benchmark.
//!
//! Drives the release `soctam` CLI and `soctam-serve` daemon as a user
//! would, on four seeded workloads, and prints the end-to-end metrics:
//! set-up time, median latency, throughput, CPU per request, peak memory
//! and answer quality. With `--trace 1` a traced pass then runs the same
//! requests in-process, layer call by layer call, and prints per-layer
//! metrics instead. Every run checks the programs' outputs against the
//! library and against each other. See `README.md` beside this file.
//!
//! ```sh
//! bash crates/bench/src/bin/e2e/run.sh --workload cli-large --seed 2007 --seconds 20 --trace 0
//! .bench_build/release/e2e compare before.jsonl after.jsonl
//! ```

// Benchmark harness: a broken invariant of the harness itself (a
// poisoned lock) should abort the run, so the panic lints are off.
#![allow(clippy::unwrap_used, clippy::expect_used)]
#![forbid(unsafe_code)]

mod check;
mod compare;
mod http;
mod json;
mod metrics;
mod probe;
mod procfs;
mod procs;
mod run;
mod stats;
mod timed;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use crate::json::{number, quote};
use crate::procs::Programs;
use crate::run::Outcome;
use crate::workload::{Plan, Workload};

const USAGE: &str = "\
usage: e2e [--workload <name>|all] [--seed N] [--seconds S] [--trace 0|1]
           [--repeat N] [--json <report.jsonl>]
       e2e compare <A.jsonl> <B.jsonl> [--bounds BENCHMARK.json]

workloads: cli-large, serve-optimizer, serve-jobs, table3 (default: all)
--seconds  length of the timed pass, rounded up to whole request cycles
--trace 1  report per-layer metrics from a traced pass instead
--repeat   run each workload N times and print quartiles across runs
--json     append one JSON line per run (the input of `e2e compare`)";

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    json: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workloads: workload::ALL.to_vec(),
        seed: 2007,
        seconds: 20.0,
        trace: false,
        repeat: 1,
        json: None,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("invalid {flag} value `{value}`");
        match flag.as_str() {
            "--workload" if value == "all" => options.workloads = workload::ALL.to_vec(),
            "--workload" => options.workloads = vec![Workload::parse(value).ok_or_else(bad)?],
            "--seed" => options.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                options.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                options.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            "--repeat" => {
                options.repeat = value.parse().ok().filter(|&n| n > 0).ok_or_else(bad)?;
            }
            "--json" => options.json = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    Ok(options)
}

/// `{"name": {"value": v, "unit": u}, ...}`
fn metrics_json<'a>(metrics: impl Iterator<Item = (String, &'a str, f64)>) -> String {
    let fields: Vec<String> = metrics
        .map(|(name, unit, value)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&name),
                number(value),
                quote(unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn print_outcome(workload: Workload, seed: u64, outcome: &Outcome) {
    println!("== {} (seed {seed})", workload.name());
    for (name, unit, value) in &outcome.metrics {
        println!("  {name:<34} {value:>16.4} {unit}");
    }
    for note in &outcome.notes {
        println!("  # {note}");
    }
    println!("  # output_digest: {}", outcome.digest);
    for failure in outcome.failures.iter().take(10) {
        println!("  ! {failure}");
    }
}

fn append_report(path: &PathBuf, line: &str) -> Result<(), String> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    writeln!(file, "{line}").map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    let options = match parse(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let programs = match Programs::locate() {
        Ok(programs) => programs,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    let seconds = Duration::from_secs_f64(options.seconds);
    let mut runs: Vec<(Workload, Outcome)> = Vec::new();
    for &workload in &options.workloads {
        for _ in 0..options.repeat {
            let plan = Plan::new(workload, options.seed);
            let outcome = match run::run(&programs, &plan, seconds, options.trace) {
                Ok(outcome) => outcome,
                Err(message) => {
                    eprintln!("error: {}: {message}", workload.name());
                    return ExitCode::from(2);
                }
            };
            print_outcome(workload, options.seed, &outcome);
            if let Some(path) = &options.json {
                let line = format!(
                    "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"correct\": {}, \
                     \"attempted\": {}, \"failed\": {}, \"output_digest\": {}, \"metrics\": {}}}",
                    quote(workload.name()),
                    options.seed,
                    options.trace,
                    outcome.failures.is_empty(),
                    outcome.attempted,
                    outcome.failures.len(),
                    quote(&outcome.digest),
                    metrics_json(
                        outcome
                            .metrics
                            .iter()
                            .map(|&(n, u, v)| (n.to_owned(), u, v))
                    )
                );
                if let Err(message) = append_report(path, &line) {
                    eprintln!("error: {message}");
                    return ExitCode::from(2);
                }
            }
            runs.push((workload, outcome));
        }
    }

    // One result line: a single run reports its metrics as they are;
    // several report each workload's medians under `<workload>/<name>`.
    let single = runs.len() == 1;
    let mut merged: BTreeMap<String, (&str, Vec<f64>)> = BTreeMap::new();
    let mut order: Vec<String> = Vec::new();
    for (workload, outcome) in &runs {
        for &(name, unit, value) in &outcome.metrics {
            let key = if single {
                name.to_owned()
            } else {
                format!("{}/{name}", workload.name())
            };
            if !merged.contains_key(&key) {
                order.push(key.clone());
            }
            merged
                .entry(key)
                .or_insert((unit, Vec::new()))
                .1
                .push(value);
        }
    }
    if options.repeat > 1 {
        println!("== quartiles over {} runs", options.repeat);
        for key in &order {
            let (unit, values) = &merged[key];
            if let Some((q1, q2, q3)) = stats::quartiles(values) {
                println!("  {key:<50} {q1:>14.4} {q2:>14.4} {q3:>14.4} {unit}");
            }
        }
    }
    let correct = runs.iter().all(|(_, o)| o.failures.is_empty());
    let attempted: u64 = runs.iter().map(|(_, o)| o.attempted).sum();
    let failed: usize = runs.iter().map(|(_, o)| o.failures.len()).sum();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(order.iter().map(|key| {
            let (unit, values) = &merged[key];
            (key.clone(), *unit, stats::median(values))
        }))
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let o = parse(&args(&[
            "--workload",
            "serve-jobs",
            "--seed",
            "9",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(o.workloads, [Workload::ServeJobs]);
        assert_eq!((o.seed, o.seconds, o.trace, o.repeat), (9, 12.0, true, 1));
        assert_eq!(parse(&[]).unwrap().workloads.len(), 4);
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seconds", "-1"],
            &["--repeat", "0"],
            &["--seed"],
            &["--frobnicate", "1"],
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn result_line_is_json_with_units() {
        let json = metrics_json([("setup_s".to_owned(), "s", 0.8127)].into_iter());
        let parsed = json::Value::parse(&json).unwrap();
        assert_eq!(
            parsed
                .at(&["setup_s", "value"])
                .and_then(json::Value::as_f64),
            Some(0.8127)
        );
        assert_eq!(
            parsed
                .at(&["setup_s", "unit"])
                .and_then(json::Value::as_str),
            Some("s")
        );
    }
}
