//! `e2e compare A.jsonl B.jsonl`: for every workload and end-to-end
//! metric, the two sides' medians, the change, the bound from
//! `BENCHMARK.json`, and a verdict.

use std::process::ExitCode;

use crate::json::Value;
use crate::stats::{median, quartiles, spread};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The runs scatter more than the bound, so the data cannot tell.
    Unresolved,
}

/// Judges `b` (the change) against `a` (the parent) for a metric whose
/// better direction is `lower_is_better`. A change is a regression when
/// its median is worse than the parent's by more than `bound` (a share
/// of the parent's median). When either side's spread (inter-quartile
/// range over median) exceeds the bound, the verdict is unresolved,
/// unless every run of `b` is better than every run of `a`.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let all_better = b.iter().all(|&x| a.iter().all(|&y| better(x, y)));
    let scatter = spread(a).unwrap_or(0.0).max(spread(b).unwrap_or(0.0));
    if scatter > bound && !all_better {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    let worse = if lower_is_better { mb - ma } else { ma - mb } / ma.abs();
    if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn read_bounds(path: &str) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let spec = Value::parse(&text)?;
    spec.get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{path}: no end_to_end list"))?
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_owned(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("{path}: malformed end_to_end entry"))
}

fn read_report(path: &str) -> Result<Vec<(String, Value)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_report(&text, path)
}

/// `(workload, metrics)` of every untraced record of a report (one JSON
/// object per line, as `e2e --json` appends them).
fn parse_report(text: &str, path: &str) -> Result<Vec<(String, Value)>, String> {
    let mut records = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let record = Value::parse(line).map_err(|e| format!("{path}: {e}"))?;
        if record.get("trace").and_then(Value::as_bool) == Some(true) {
            continue;
        }
        let workload = record
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: record without a workload"))?
            .to_owned();
        let metrics = record
            .get("metrics")
            .cloned()
            .ok_or_else(|| format!("{path}: record without metrics"))?;
        records.push((workload, metrics));
    }
    Ok(records)
}

fn values(records: &[(String, Value)], workload: &str, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|(w, _)| w == workload)
        .filter_map(|(_, m)| m.at(&[metric, "value"]).and_then(Value::as_f64))
        .collect()
}

fn describe(v: &[f64]) -> String {
    match quartiles(v) {
        Some((q1, q2, q3)) => format!("{q2:.4} [{q1:.4}..{q3:.4}]"),
        None => format!("{:.4}", median(v)),
    }
}

pub fn main(args: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut spec = "BENCHMARK.json".to_owned();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--bounds" => match iter.next() {
                Some(path) => spec = path.clone(),
                None => files.clear(),
            },
            _ => files.push(arg.clone()),
        }
    }
    if files.len() != 2 {
        eprintln!("usage: e2e compare <A.jsonl> <B.jsonl> [--bounds BENCHMARK.json]");
        return ExitCode::from(2);
    }
    let loaded = read_bounds(&spec)
        .and_then(|bounds| Ok((bounds, read_report(&files[0])?, read_report(&files[1])?)));
    let (bounds, a, b) = match loaded {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut workloads: Vec<&str> = Vec::new();
    for (w, _) in &a {
        if !workloads.contains(&w.as_str()) && b.iter().any(|(x, _)| x == w) {
            workloads.push(w);
        }
    }
    println!(
        "{:<16} {:<16} {:>30} {:>30} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1..q3]", "B median [q1..q3]", "delta", "bound"
    );
    let mut regressed = false;
    for workload in workloads {
        for bound in &bounds {
            let (va, vb) = (
                values(&a, workload, &bound.name),
                values(&b, workload, &bound.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let v = verdict(&va, &vb, bound.lower_is_better, bound.bound);
            regressed |= v == Verdict::Regressed;
            let delta = (median(&vb) - median(&va)) / median(&va).abs() * 100.0;
            println!(
                "{workload:<16} {:<16} {:>30} {:>30} {delta:>+7.2}% {:>5.1}%  {}",
                bound.name,
                describe(&va),
                describe(&vb),
                bound.bound * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let parent = [100.0, 101.0, 99.0, 100.0, 100.5];
        // Within an 8 % bound either way.
        assert_eq!(
            verdict(&parent, &[105.0, 106.0, 104.0], true, 0.08),
            Verdict::Ok
        );
        // 20 % slower on a lower-is-better metric.
        assert_eq!(
            verdict(&parent, &[120.0, 121.0, 119.0], true, 0.08),
            Verdict::Regressed
        );
        // The same numbers are an improvement when higher is better.
        assert_eq!(
            verdict(&parent, &[120.0, 121.0, 119.0], false, 0.08),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&parent, &[80.0, 81.0, 79.0], false, 0.08),
            Verdict::Regressed
        );
        // Runs that scatter wider than the bound cannot be judged...
        let noisy = [60.0, 100.0, 140.0, 90.0, 130.0];
        assert_eq!(
            verdict(&noisy, &[125.0, 126.0], true, 0.08),
            Verdict::Unresolved
        );
        // ...unless every run of the change beats every parent run.
        assert_eq!(verdict(&noisy, &[50.0, 55.0], true, 0.08), Verdict::Ok);
        // A single run per side has no spread.
        assert_eq!(verdict(&[1.0], &[1.0], true, 0.0), Verdict::Ok);
    }

    #[test]
    fn reads_untraced_records_of_a_report() {
        let report = "{\"workload\":\"table3\",\"trace\":false,\"metrics\":\
                      {\"latency_p50_ms\":{\"value\":812.5,\"unit\":\"ms\"}}}\n\
                      {\"workload\":\"table3\",\"trace\":true,\"metrics\":\
                      {\"trace.coverage\":{\"value\":0.99,\"unit\":\"ratio\"}}}\n";
        let records = parse_report(report, "a.jsonl").unwrap();
        assert_eq!(records.len(), 1);
        assert!(parse_report("{\"trace\":false}", "b.jsonl").is_err());
        assert_eq!(values(&records, "table3", "latency_p50_ms"), [812.5]);
        assert!(values(&records, "cli-large", "latency_p50_ms").is_empty());
    }
}
