//! The metric catalogue (it must match `BENCHMARK.json`), and the
//! reductions that turn per-request layer values and daemon `/metrics`
//! snapshots into reported numbers.

use std::collections::BTreeMap;

use crate::json::Value;
use crate::stats::median;
use crate::trace::Layers;

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("t_soc_over_lb", "ratio"),
];

/// Per-layer metrics, reported by every traced run.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("patterns.generate_ms", "ms"),
    ("compaction.pack_ms", "ms"),
    ("compaction.grouping_ms", "ms"),
    ("compaction.bucket_self_ms", "ms"),
    ("compaction.compact_ms", "ms"),
    ("compaction.cover_self_ms", "ms"),
    ("compaction.vertical_only_ms", "ms"),
    ("compaction.duplicates", "count"),
    ("compaction.compacted_patterns", "count"),
    ("compaction.cut_weight", "count"),
    ("compaction.kernel_words_compared", "count"),
    ("compaction.kernel_fast_rejects", "count"),
    ("compaction.compaction_ratio", "ratio"),
    ("hypergraph.build_ms", "ms"),
    ("hypergraph.partition_ms", "ms"),
    ("hypergraph.vertices", "count"),
    ("hypergraph.edges", "count"),
    ("tam.optimize_ms", "ms"),
    ("tam.referee_evaluate_ms", "ms"),
    ("tam.bounds_ms", "ms"),
    ("tam.render_ms", "ms"),
    ("tam.rail_eval_hits", "count"),
    ("tam.rail_eval_misses", "count"),
    ("tam.rail_eval_hit_ratio", "ratio"),
    ("tam.eval_cache_hit_ratio", "ratio"),
    ("tam.schedule_reuses", "count"),
    ("tam.speculative_probes", "count"),
    ("tam.probe_batches", "count"),
    ("tam.probe_useful_ratio", "ratio"),
    ("tester.simulate_ms", "ms"),
    ("exec.tasks", "count"),
    ("exec.steals", "count"),
    ("exec.steal_ratio", "ratio"),
    ("trace.request_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("cli.overhead_ms", "ms"),
    ("serve.spawn_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.job_extra_ms", "ms"),
    ("serve.journal_extra_ms", "ms"),
    ("serve.phase_generate_ms_per_op", "ms"),
    ("serve.phase_compact_ms_per_op", "ms"),
    ("serve.phase_optimize_ms_per_op", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_entries", "count"),
    ("serve.rejected", "count"),
    ("serve.jobs_failed", "count"),
    ("serve.journal_errors", "count"),
];

/// `num / den`, or 0 when the layer did no such work.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Reduces the traced requests' layer values: the median request for
/// times and counts, and ratios of sums for ratios. A layer a request
/// never reached counts as 0 for it.
pub fn aggregate(requests: &[Layers]) -> BTreeMap<&'static str, f64> {
    let sum = |name: &str| -> f64 { requests.iter().filter_map(|l| l.get(name)).sum() };
    let mut out = BTreeMap::new();
    let names: std::collections::BTreeSet<&'static str> =
        requests.iter().flat_map(|l| l.keys().copied()).collect();
    for name in names.into_iter().filter(|n| !n.starts_with('_')) {
        let values: Vec<f64> = requests
            .iter()
            .map(|l| l.get(name).copied().unwrap_or(0.0))
            .collect();
        out.insert(name, median(&values));
    }
    let (hits, misses) = (sum("tam.rail_eval_hits"), sum("tam.rail_eval_misses"));
    out.insert("tam.rail_eval_hit_ratio", ratio(hits, hits + misses));
    let (hits, misses) = (sum("_cache_hits"), sum("_cache_misses"));
    out.insert("tam.eval_cache_hit_ratio", ratio(hits, hits + misses));
    let probes = sum("tam.speculative_probes");
    out.insert(
        "tam.probe_useful_ratio",
        ratio(probes - sum("_probe_wasted"), probes),
    );
    out.insert(
        "exec.steal_ratio",
        ratio(sum("exec.steals"), sum("exec.tasks")),
    );
    out.insert(
        "trace.coverage",
        ratio(sum("_spans_ms"), sum("trace.request_ms")),
    );
    out.insert(
        "compaction.compaction_ratio",
        ratio(sum("_raw_patterns"), sum("compaction.compacted_patterns")),
    );
    out
}

/// The daemon counters that moved between two `/metrics` snapshots,
/// spread over `ops` requests.
pub fn daemon_deltas(before: &Value, after: &Value, ops: usize) -> Vec<(&'static str, f64)> {
    let num = |v: &Value, path: &[&str]| v.at(path).and_then(Value::as_f64).unwrap_or(0.0);
    let delta = |path: &[&str]| num(after, path) - num(before, path);
    let phase_ms = |v: &Value, name: &str| -> f64 {
        v.at(&["pool", "phases"])
            .and_then(Value::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter(|p| p.get("name").and_then(Value::as_str) == Some(name))
            .filter_map(|p| p.get("micros").and_then(Value::as_f64))
            .sum::<f64>()
            / 1e3
    };
    let per_op = |name: &str| ratio(phase_ms(after, name) - phase_ms(before, name), ops as f64);
    let hits = delta(&["pool", "cache_hits"]);
    let misses = delta(&["pool", "cache_misses"]);
    vec![
        ("serve.phase_generate_ms_per_op", per_op("generate")),
        ("serve.phase_compact_ms_per_op", per_op("compact")),
        ("serve.phase_optimize_ms_per_op", per_op("optimize")),
        ("serve.cache_hit_ratio", ratio(hits, hits + misses)),
        ("serve.cache_entries", num(after, &["cache", "entries"])),
        ("serve.rejected", delta(&["server", "rejected"])),
        ("serve.jobs_failed", delta(&["jobs", "failed"])),
        ("serve.journal_errors", delta(&["jobs", "journal_errors"])),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_takes_medians_and_ratios_of_sums() {
        let request = |ms: f64, hits: f64, misses: f64| -> Layers {
            [
                ("trace.request_ms", ms),
                ("_spans_ms", ms * 0.99),
                ("tam.rail_eval_hits", hits),
                ("tam.rail_eval_misses", misses),
            ]
            .into_iter()
            .collect()
        };
        let mut one_with_extra = request(30.0, 0.0, 10.0);
        one_with_extra.insert("hypergraph.edges", 7.0);
        let out = aggregate(&[
            request(10.0, 3.0, 1.0),
            request(20.0, 1.0, 3.0),
            one_with_extra,
        ]);
        assert_eq!(out["trace.request_ms"], 20.0);
        assert!((out["trace.coverage"] - 0.99).abs() < 1e-12);
        assert_eq!(out["tam.rail_eval_hit_ratio"], 4.0 / 18.0);
        // Two of the three requests never built a hypergraph.
        assert_eq!(out["hypergraph.edges"], 0.0);
        assert_eq!(out["tam.probe_useful_ratio"], 0.0);
        assert!(!out.keys().any(|k| k.starts_with('_')));
    }

    #[test]
    fn daemon_deltas_divide_phase_time_by_ops() {
        let before = Value::parse(
            r#"{"server":{"rejected":1},"jobs":{"failed":0,"journal_errors":0},
               "cache":{"entries":5},"pool":{"cache_hits":10,"cache_misses":10,
               "phases":[{"name":"generate","micros":1000},{"name":"optimize","micros":0}]}}"#,
        )
        .unwrap();
        let after = Value::parse(
            r#"{"server":{"rejected":1},"jobs":{"failed":2,"journal_errors":0},
               "cache":{"entries":9},"pool":{"cache_hits":40,"cache_misses":20,
               "phases":[{"name":"generate","micros":5000},{"name":"optimize","micros":8000}]}}"#,
        )
        .unwrap();
        let deltas: BTreeMap<_, _> = daemon_deltas(&before, &after, 4).into_iter().collect();
        assert_eq!(deltas["serve.phase_generate_ms_per_op"], 1.0);
        assert_eq!(deltas["serve.phase_optimize_ms_per_op"], 2.0);
        assert_eq!(deltas["serve.phase_compact_ms_per_op"], 0.0);
        assert_eq!(deltas["serve.cache_hit_ratio"], 0.75);
        assert_eq!(deltas["serve.cache_entries"], 9.0);
        assert_eq!(deltas["serve.rejected"], 0.0);
        assert_eq!(deltas["serve.jobs_failed"], 2.0);
    }

    /// `BENCHMARK.json` at the repository root must name exactly these
    /// metrics, with these units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let mut dir = Some(std::path::Path::new(env!("CARGO_MANIFEST_DIR")));
        let text = loop {
            let d = dir.expect("BENCHMARK.json above the package");
            if let Ok(text) = std::fs::read_to_string(d.join("BENCHMARK.json")) {
                break text;
            }
            dir = d.parent();
        };
        let spec = Value::parse(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_owned();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }
}
