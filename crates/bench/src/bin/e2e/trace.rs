//! In-process runs of a request through the `soctam` facade, one layer
//! call at a time. They give the correctness gate its reference answers
//! and, when traced, the per-layer numbers: spans are recorded here,
//! around the calls into each layer, never inside the programs.

use std::collections::BTreeMap;
use std::time::Instant;

use soctam::compaction::{build_core_hypergraph_packed, group_patterns_packed};
use soctam::experiment::{run_table_with, ExperimentConfig};
use soctam::hypergraph::PartitionConfig;
use soctam::patterns::{PackedLayout, PackedSet};
use soctam::tam::bounds::total_lower_bound;
use soctam::tam::render_schedule;
use soctam::{
    compact_two_dimensional_with, CompactedSiTests, CompactionConfig, Evaluator, MetricsSnapshot,
    Objective, Pool, RandomPatternConfig, SiGroupSpec, SiOptimizationResult, SiOptimizer,
    SiPatternSet, Soc,
};

use crate::check::{parse_optimize, Answer};
use crate::workload::{Request, Tool};

/// Per-layer values of one request, by metric name. Names starting
/// with `_` are raw counts that only feed ratios.
pub type Layers = BTreeMap<&'static str, f64>;

/// What the library itself says about a request.
#[derive(Debug)]
pub struct Reference {
    /// The answer of an optimize request.
    pub answer: Option<Answer>,
    /// The rendered table of a table request.
    pub table: Option<String>,
    /// `T_soc / total_lower_bound` of every answer produced: one for an
    /// optimize request, one per cell for a table.
    pub ratios: Vec<f64>,
    /// Invariants the in-process run found broken.
    pub failures: Vec<String>,
    /// Filled only by a traced run.
    pub layers: Layers,
}

impl Reference {
    /// Whether `output` (CLI stdout or the daemon's `output`) carries
    /// this reference's answer.
    pub fn check(&self, request: &Request, output: &str) -> Result<(), String> {
        match (&self.answer, &self.table) {
            (Some(expected), _) => match parse_optimize(output) {
                Some(got) if got == *expected => Ok(()),
                got => Err(format!(
                    "{}: output answer {got:?} differs from the in-process {expected:?}",
                    request.label()
                )),
            },
            (None, Some(text)) if text == output => Ok(()),
            _ => Err(format!(
                "{}: output differs from the in-process table",
                request.label()
            )),
        }
    }
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn phase_ms(snapshot: &MetricsSnapshot, name: &str) -> f64 {
    snapshot
        .phases
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, d)| d.as_secs_f64() * 1e3)
}

/// Runs `request` in-process on `pool`; `traced` adds the layer
/// breakdown.
pub fn run(request: &Request, pool: &Pool, traced: bool) -> Result<Reference, String> {
    match request.tool {
        Tool::Optimize { .. } => optimize(request, pool, traced),
        Tool::Table { .. } => table(request, pool, traced),
    }
}

/// Pool counters that moved between two snapshots.
fn record_pool(layers: &mut Layers, before: &MetricsSnapshot, after: &MetricsSnapshot) {
    let delta = |f: fn(&MetricsSnapshot) -> u64| (f(after) - f(before)) as f64;
    layers.insert("exec.tasks", delta(|m| m.tasks_executed));
    layers.insert("exec.steals", delta(|m| m.steals));
    layers.insert("tam.rail_eval_hits", delta(|m| m.rail_eval_hits));
    layers.insert("tam.rail_eval_misses", delta(|m| m.rail_eval_misses));
    layers.insert("tam.schedule_reuses", delta(|m| m.schedule_reuses));
    layers.insert("tam.speculative_probes", delta(|m| m.speculative_probes));
    layers.insert("tam.probe_batches", delta(|m| m.probe_batches));
    layers.insert("_probe_wasted", delta(|m| m.probe_wasted));
    layers.insert("_cache_hits", delta(|m| m.cache_hits));
    layers.insert("_cache_misses", delta(|m| m.cache_misses));
}

/// Counts from one compaction, added to what `layers` already holds.
fn record_compaction(layers: &mut Layers, compacted: &CompactedSiTests) {
    let stats = compacted.stats();
    for (name, value) in [
        ("compaction.duplicates", stats.duplicate_patterns as f64),
        (
            "compaction.compacted_patterns",
            compacted.total_patterns() as f64,
        ),
        ("compaction.cut_weight", stats.cut_weight as f64),
        (
            "compaction.kernel_words_compared",
            stats.kernel_words_compared as f64,
        ),
        (
            "compaction.kernel_fast_rejects",
            stats.kernel_fast_rejects as f64,
        ),
        ("_raw_patterns", stats.raw_patterns as f64),
    ] {
        *layers.entry(name).or_default() += value;
    }
}

/// The horizontal stage of one compaction, call by call: packing, the
/// core hypergraph, its partition, and the grouping that contains both.
fn record_breakdown(
    layers: &mut Layers,
    soc: &Soc,
    raw: &SiPatternSet,
    config: &CompactionConfig,
) -> Result<(), String> {
    let start = Instant::now();
    let set = PackedSet::build(raw.as_slice());
    let pack = ms(start);
    let layout = PackedLayout::new(soc);
    let (mut build, mut partition) = (0.0, 0.0);
    if config.partitions > 1 {
        let start = Instant::now();
        let hg = build_core_hypergraph_packed(soc, &set, &layout);
        build = ms(start);
        layers.insert("hypergraph.vertices", hg.num_vertices() as f64);
        layers.insert("hypergraph.edges", hg.num_edges() as f64);
        let start = Instant::now();
        hg.partition(&PartitionConfig {
            parts: config.partitions,
            ..config.partition_config.clone()
        })
        .map_err(err)?;
        partition = ms(start);
    }
    let start = Instant::now();
    let grouping = group_patterns_packed(
        soc,
        &set,
        &layout,
        config.partitions,
        &config.partition_config,
    )
    .map_err(err)?;
    let grouping_ms = ms(start);
    std::hint::black_box(&grouping);
    for (name, value) in [
        ("compaction.pack_ms", pack),
        ("hypergraph.build_ms", build),
        ("hypergraph.partition_ms", partition),
        ("compaction.grouping_ms", grouping_ms),
        ("compaction.bucket_self_ms", grouping_ms - build - partition),
    ] {
        *layers.entry(name).or_default() += value;
    }
    Ok(())
}

/// Cross-checks of one optimized architecture: a fresh evaluator (the
/// referee) and the bit-level tester must reproduce its times.
fn referee_and_simulate(
    layers: &mut Layers,
    failures: &mut Vec<String>,
    soc: &Soc,
    width: u32,
    result: &SiOptimizationResult,
    label: &str,
) -> Result<(), String> {
    let groups = SiGroupSpec::from_compacted(result.compacted());
    let start = Instant::now();
    let eval = Evaluator::new(soc, width, groups)
        .map_err(err)?
        .evaluate(result.architecture());
    *layers.entry("tam.referee_evaluate_ms").or_default() += ms(start);
    if (eval.t_in, eval.t_si) != (result.intest_time(), result.si_time()) {
        failures.push(format!(
            "{label}: a fresh Evaluator disagrees with the optimizer"
        ));
    }
    let start = Instant::now();
    let sim = soctam::tester::simulate(
        soc,
        result.architecture(),
        result.compacted().groups(),
        false,
    )
    .map_err(err)?;
    *layers.entry("tester.simulate_ms").or_default() += ms(start);
    if (sim.t_in, sim.t_si) != (result.intest_time(), result.si_time()) {
        failures.push(format!(
            "{label}: the tester simulation disagrees with the model"
        ));
    }
    Ok(())
}

/// `T / LB` of one answer; a bound above the answer is a failure.
fn ratio_to_bound(
    layers: &mut Layers,
    failures: &mut Vec<String>,
    soc: &Soc,
    groups: &[SiGroupSpec],
    width: u32,
    t_soc: u64,
    label: &str,
) -> Result<f64, String> {
    let start = Instant::now();
    let lb = total_lower_bound(soc, groups, width).map_err(err)?;
    *layers.entry("tam.bounds_ms").or_default() += ms(start);
    if lb == 0 || lb > t_soc {
        failures.push(format!("{label}: lower bound {lb} vs T_soc {t_soc}"));
    }
    Ok(t_soc as f64 / lb.max(1) as f64)
}

fn optimize(request: &Request, pool: &Pool, traced: bool) -> Result<Reference, String> {
    let Tool::Optimize {
        patterns,
        width,
        partitions,
        baseline,
    } = request.tool
    else {
        return Err("not an optimize request".to_owned());
    };
    let label = request.label();
    let soc = request.soc.soc();
    let config = CompactionConfig::new(partitions).with_seed(request.seed);
    let mut layers = Layers::new();
    let mut failures = Vec::new();

    let before = pool.metrics().snapshot();
    let t0 = Instant::now();
    let raw = SiPatternSet::random_with(
        &soc,
        &RandomPatternConfig::new(patterns).with_seed(request.seed),
        pool,
    )
    .map_err(err)?;
    let t1 = Instant::now();
    let compacted = compact_two_dimensional_with(&soc, &raw, &config, pool).map_err(err)?;
    let t2 = Instant::now();
    let result = SiOptimizer::new(&soc)
        .max_tam_width(width)
        .partitions(partitions)
        .seed(request.seed)
        .objective(if baseline {
            Objective::InTestOnly
        } else {
            Objective::Total
        })
        .pool(pool.clone())
        .optimize_compacted(compacted)
        .map_err(err)?;
    let t3 = Instant::now();
    let rendered = format!(
        "{}\n{}",
        result.architecture(),
        render_schedule(result.architecture(), result.evaluation())
    );
    let t4 = Instant::now();
    let after = pool.metrics().snapshot();
    std::hint::black_box(&rendered);

    let answer = Answer {
        t_soc: result.total_time(),
        t_in: result.intest_time(),
        t_si: result.si_time(),
        wires: result.architecture().total_width(),
        degraded: result.degraded(),
    };
    if answer.wires > width || answer.degraded {
        failures.push(format!(
            "{label}: in-process answer {answer:?} breaks W_max or degraded"
        ));
    }
    let groups = SiGroupSpec::from_compacted(result.compacted());
    let ratio = ratio_to_bound(
        &mut layers,
        &mut failures,
        &soc,
        &groups,
        width,
        answer.t_soc,
        &label,
    )?;
    referee_and_simulate(&mut layers, &mut failures, &soc, width, &result, &label)?;

    if traced {
        let span = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
        let compact_ms = span(t1, t2);
        layers.insert("patterns.generate_ms", span(t0, t1));
        layers.insert("compaction.compact_ms", compact_ms);
        layers.insert("tam.optimize_ms", span(t2, t3));
        layers.insert("tam.render_ms", span(t3, t4));
        layers.insert("trace.request_ms", span(t0, t4));
        layers.insert("_spans_ms", span(t0, t4));
        record_pool(&mut layers, &before, &after);
        record_compaction(&mut layers, result.compacted());
        record_breakdown(&mut layers, &soc, &raw, &config)?;
        let cover_self =
            compact_ms - layers["compaction.pack_ms"] - layers["compaction.grouping_ms"];
        layers.insert("compaction.cover_self_ms", cover_self);
        let start = Instant::now();
        let vertical = compact_two_dimensional_with(
            &soc,
            &raw,
            &CompactionConfig::new(1).with_seed(request.seed),
            pool,
        )
        .map_err(err)?;
        layers.insert("compaction.vertical_only_ms", ms(start));
        std::hint::black_box(&vertical);
    } else {
        layers.clear();
    }
    Ok(Reference {
        answer: Some(answer),
        table: None,
        ratios: vec![ratio],
        failures,
        layers,
    })
}

fn table(request: &Request, pool: &Pool, traced: bool) -> Result<Reference, String> {
    let Tool::Table { patterns } = request.tool else {
        return Err("not a table request".to_owned());
    };
    let label = request.label();
    let soc = request.soc.soc();
    let config = ExperimentConfig {
        seed: request.seed,
        ..ExperimentConfig::paper_sweep(patterns)
    };
    let mut layers = Layers::new();
    let mut failures = Vec::new();

    let before = pool.metrics().snapshot();
    let t0 = Instant::now();
    let table = run_table_with(&soc, &config, pool).map_err(err)?;
    let t1 = Instant::now();
    let text = table.to_string();
    let t2 = Instant::now();
    let after = pool.metrics().snapshot();

    // The table keeps no groups, so compact once per partition count
    // again for the bounds, the layer breakdown and one re-derived cell.
    let raw = SiPatternSet::random_with(
        &soc,
        &RandomPatternConfig::new(patterns).with_seed(config.seed),
        pool,
    )
    .map_err(err)?;
    let mut groups_by_parts = Vec::new();
    let mut cell_source = None;
    let mut compact_ms = 0.0;
    for (k, &parts) in config.partitions.iter().enumerate() {
        let part_config = CompactionConfig::new(parts).with_seed(config.seed);
        let start = Instant::now();
        let compacted =
            compact_two_dimensional_with(&soc, &raw, &part_config, pool).map_err(err)?;
        let this_ms = ms(start);
        compact_ms += this_ms;
        if table.compacted_counts.get(k) != Some(&(parts, compacted.total_patterns())) {
            failures.push(format!("{label}: compacted count for i = {parts} differs"));
        }
        if traced {
            record_compaction(&mut layers, &compacted);
            record_breakdown(&mut layers, &soc, &raw, &part_config)?;
            if parts == 1 {
                layers.insert("compaction.vertical_only_ms", this_ms);
            }
        }
        groups_by_parts.push((parts, SiGroupSpec::from_compacted(&compacted)));
        if parts == 4 {
            cell_source = Some(compacted);
        }
    }

    let baseline_groups = &groups_by_parts
        .iter()
        .find(|(i, _)| *i == 1)
        .ok_or("the sweep has no i = 1")?
        .1;
    let mut ratios = Vec::new();
    for row in &table.rows {
        ratios.push(ratio_to_bound(
            &mut layers,
            &mut failures,
            &soc,
            baseline_groups,
            row.w_max,
            row.t_baseline,
            &label,
        )?);
        for (&(parts, t), (_, groups)) in row.t_partitioned.iter().zip(&groups_by_parts) {
            let cell = format!("{label} W={} i={parts}", row.w_max);
            ratios.push(ratio_to_bound(
                &mut layers,
                &mut failures,
                &soc,
                groups,
                row.w_max,
                t,
                &cell,
            )?);
        }
    }

    // Re-derive the widest i = 4 cell in-process and cross-check it.
    let width = *config.widths.last().ok_or("the sweep has no widths")?;
    let cell = SiOptimizer::new(&soc)
        .max_tam_width(width)
        .partitions(4)
        .seed(config.seed)
        .pool(pool.clone())
        .optimize_compacted(cell_source.ok_or("the sweep has no i = 4")?)
        .map_err(err)?;
    let column = config.partitions.iter().position(|&i| i == 4);
    let expected = table
        .rows
        .last()
        .and_then(|row| row.t_partitioned.get(column?))
        .map(|&(_, t)| t);
    if expected != Some(cell.total_time()) {
        failures.push(format!(
            "{label}: W={width} i=4 cell differs from its re-derivation"
        ));
    }
    referee_and_simulate(&mut layers, &mut failures, &soc, width, &cell, &label)?;

    if traced {
        let (generate, compact, optimize) = (
            phase_ms(&after, "generate") - phase_ms(&before, "generate"),
            phase_ms(&after, "compact") - phase_ms(&before, "compact"),
            phase_ms(&after, "optimize") - phase_ms(&before, "optimize"),
        );
        let render = (t2 - t1).as_secs_f64() * 1e3;
        layers.insert("patterns.generate_ms", generate);
        layers.insert("compaction.compact_ms", compact_ms);
        layers.insert("tam.optimize_ms", optimize);
        layers.insert("tam.render_ms", render);
        layers.insert("trace.request_ms", (t2 - t0).as_secs_f64() * 1e3);
        layers.insert("_spans_ms", generate + compact + optimize + render);
        record_pool(&mut layers, &before, &after);
        let cover_self =
            compact_ms - layers["compaction.pack_ms"] - layers["compaction.grouping_ms"];
        layers.insert("compaction.cover_self_ms", cover_self);
    } else {
        layers.clear();
    }
    Ok(Reference {
        answer: None,
        table: Some(text),
        ratios,
        failures,
        layers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Mode;
    use soctam::Benchmark;

    #[test]
    fn traced_d695_run_covers_the_request_and_counts_every_layer() {
        let request = Request {
            soc: Benchmark::D695,
            tool: Tool::Optimize {
                patterns: 200,
                width: 16,
                partitions: 4,
                baseline: false,
            },
            seed: 5,
            mode: Mode::Sync,
        };
        let pool = Pool::new(2);
        let reference = run(&request, &pool, true).unwrap();
        assert!(reference.failures.is_empty(), "{:?}", reference.failures);
        let layers = &reference.layers;
        let spans: f64 = [
            "patterns.generate_ms",
            "compaction.compact_ms",
            "tam.optimize_ms",
            "tam.render_ms",
        ]
        .iter()
        .map(|name| layers[name])
        .sum();
        let coverage = spans / layers["trace.request_ms"];
        assert!(coverage >= 0.95, "coverage {coverage}");
        for name in [
            "exec.tasks",
            "tam.rail_eval_misses",
            "tam.speculative_probes",
            "compaction.compacted_patterns",
            "compaction.kernel_words_compared",
            "hypergraph.vertices",
            "hypergraph.edges",
            "_raw_patterns",
        ] {
            assert!(layers[name] > 0.0, "{name} is zero");
        }
        assert_eq!(reference.ratios.len(), 1);
        assert!(reference.ratios[0] >= 1.0);

        // The untraced run gives the same answer and no layers.
        let plain = run(&request, &pool, false).unwrap();
        assert_eq!(plain.answer, reference.answer);
        assert!(plain.layers.is_empty());
    }
}
