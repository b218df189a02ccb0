//! The standard tool set: every pipeline operation the CLI and the
//! daemon expose, ported to the registry signature.
//!
//! Tool bodies are front-end-agnostic: they read typed parameters,
//! run on the [`RunCtx`] they are handed and return a report string.
//! Front-end concerns stay outside — the CLI builds the context from
//! `--jobs`, `--cache-cap` and `--progress` and appends `--stats`
//! output itself; the daemon builds it from its startup pool and warm
//! shared cache plus the job's cancel token and progress sink. Tools
//! construct no pool and no cache.
//!
//! `optimize` gets its compacted SI groups from
//! [`SiOptimizer::group_specs`], so when the context carries a shared
//! cache (always in the daemon, with `--cache-cap` in the CLI) a request
//! whose SOC contents, pattern count, seed and partition count were
//! seen before skips generation and compaction at any width, objective
//! or budget. The memo stores group specs, never patterns, and
//! its report is byte-identical to a cold run's. `simulate` needs the
//! full compacted groups and `bounds`, `compact` and `table` keep their
//! own paths, so only `optimize` consults the memo.
//!
//! Every tool that draws random patterns generates them straight into a
//! packed arena ([`generate_random_packed`]) and compacts that arena;
//! none builds a sparse pattern set. `optimize`, `table`, `compact` and
//! `bounds` read only each group's cores and pattern count, so they run
//! the counts step ([`count_packed_with`]) and no compacted pattern is
//! emitted; only `simulate` drives the compacted patterns themselves.

use std::fmt::Write as _;
use std::sync::OnceLock;

use soctam::experiment::{run_table_in, ExperimentConfig};
use soctam::model::parser::{parse_soc, write_soc};
use soctam::tam::bounds::{intest_lower_bound, si_lower_bound};
use soctam::tam::{check_width_budget, render_schedule, render_schedule_svg};
use soctam::{
    count_packed_with, generate_random_packed, Benchmark, CompactionConfig, Objective,
    OptimizerBudget, RandomPatternConfig, RunCtx, SiGroupSpec, SiOptimizer, Soc, SoctamError,
};

use crate::param::{ParamKind, ParamSpec, ParamValues};
use crate::tool::{Tool, ToolError, ToolErrorKind, ToolOutput, ToolRegistry};

const PATTERNS: ParamSpec = ParamSpec::new(
    "patterns",
    ParamKind::Usize,
    Some("10000"),
    "raw SI pattern count N_r",
);
const WIDTH: ParamSpec = ParamSpec::new(
    "width",
    ParamKind::U32,
    Some("32"),
    "TAM width budget W_max",
);
const PARTITIONS: ParamSpec = ParamSpec::new(
    "partitions",
    ParamKind::U32,
    Some("4"),
    "SI partition count i",
);
const SEED: ParamSpec = ParamSpec::new("seed", ParamKind::U64, Some("2007"), "RNG seed");
const JOBS: ParamSpec = ParamSpec::new(
    "jobs",
    ParamKind::Usize,
    Some("1"),
    "worker threads (0 = all cores); CLI only — the daemon sizes its pool at startup",
);
const STATS: ParamSpec = ParamSpec::new(
    "stats",
    ParamKind::Bool,
    Some("false"),
    "print runtime statistics (tasks, steals, cache); CLI only",
);
const PROFILE: ParamSpec = ParamSpec::new(
    "profile",
    ParamKind::Str,
    None,
    "key=value parameter file; explicit flags and fields win over it",
);
const PROGRESS: ParamSpec = ParamSpec::new(
    "progress",
    ParamKind::Bool,
    Some("false"),
    "live stderr ticker (phase, probes, best T_soc); CLI only, \
     silent when stdout is piped",
);
const BASELINE: ParamSpec = ParamSpec::new(
    "baseline",
    ParamKind::Bool,
    Some("false"),
    "optimize for InTest only (TR-Architect)",
);
const SVG: ParamSpec = ParamSpec::new(
    "svg",
    ParamKind::Str,
    None,
    "write the schedule as SVG to this path",
);
const WIDTHS: ParamSpec = ParamSpec::new(
    "widths",
    ParamKind::U32List,
    Some("8,16,24,32,40,48,56,64"),
    "width sweep",
);
const PARTS: ParamSpec = ParamSpec::new(
    "parts",
    ParamKind::U32List,
    Some("1,2,4,8"),
    "partition sweep",
);
const DEADLINE_MS: ParamSpec = ParamSpec::new(
    "deadline-ms",
    ParamKind::U64,
    None,
    "wall-clock budget for the TAM optimization; on expiry the best \
     architecture found so far is reported and flagged as degraded",
);
const MAX_ITERS: ParamSpec = ParamSpec::new(
    "max-iters",
    ParamKind::U64,
    None,
    "deterministic iteration budget for the TAM optimization",
);
const CACHE_CAP: ParamSpec = ParamSpec::new(
    "cache-cap",
    ParamKind::Usize,
    None,
    "bound the evaluator cache to this many entries, both the store \
     it shares and each run's working set (FIFO eviction; 0 = \
     unbounded); ignored by the daemon, which sizes its shared cache at \
     startup",
);

static INFO_PARAMS: &[ParamSpec] = &[];
static OPTIMIZE_PARAMS: &[ParamSpec] = &[
    PATTERNS,
    WIDTH,
    PARTITIONS,
    SEED,
    JOBS,
    STATS,
    PROGRESS,
    PROFILE,
    BASELINE,
    SVG,
    DEADLINE_MS,
    MAX_ITERS,
    CACHE_CAP,
];
static TABLE_PARAMS: &[ParamSpec] = &[
    PATTERNS, WIDTHS, PARTS, SEED, JOBS, STATS, PROGRESS, PROFILE, CACHE_CAP,
];
static COMPACT_PARAMS: &[ParamSpec] = &[PATTERNS, PARTITIONS, SEED, JOBS, STATS];
static EXPORT_PARAMS: &[ParamSpec] = &[];
static BOUNDS_PARAMS: &[ParamSpec] = &[PATTERNS, PARTITIONS, WIDTHS, SEED, JOBS];
static SIMULATE_PARAMS: &[ParamSpec] = &[PATTERNS, WIDTH, PARTITIONS, SEED, JOBS];

/// The registry both front ends are generated from.
pub fn standard_registry() -> &'static ToolRegistry {
    static REGISTRY: OnceLock<ToolRegistry> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let mut reg = ToolRegistry::new();
        reg.register(Tool {
            name: "info",
            summary: "print an SOC summary",
            params: INFO_PARAMS,
            run: info_tool,
        });
        reg.register(Tool {
            name: "optimize",
            summary: "run 2-D compaction + SI-aware TAM optimization",
            params: OPTIMIZE_PARAMS,
            run: optimize_tool,
        });
        reg.register(Tool {
            name: "table",
            summary: "run the paper's Table 2/3 sweep",
            params: TABLE_PARAMS,
            run: table_tool,
        });
        reg.register(Tool {
            name: "compact",
            summary: "run compaction only and report statistics",
            params: COMPACT_PARAMS,
            run: compact_tool,
        });
        reg.register(Tool {
            name: "export",
            summary: "write the SOC back out in ITC'02 .soc format",
            params: EXPORT_PARAMS,
            run: export_tool,
        });
        reg.register(Tool {
            name: "bounds",
            summary: "print architecture-independent lower bounds per width",
            params: BOUNDS_PARAMS,
            run: bounds_tool,
        });
        reg.register(Tool {
            name: "simulate",
            summary: "cross-check the timing model against the bit-level simulator",
            params: SIMULATE_PARAMS,
            run: simulate_tool,
        });
        reg
    })
}

/// Resolves a benchmark name or `.soc` path into an SOC.
///
/// # Errors
///
/// [`ToolError`] when the name is unknown or the file does not parse.
pub fn resolve_soc(spec: &str) -> Result<Soc, ToolError> {
    if let Ok(bench) = spec.parse::<Benchmark>() {
        return Ok(bench.soc());
    }
    let text = std::fs::read_to_string(spec)
        .map_err(|e| ToolError::failed(format!("cannot read `{spec}`: {e}")))?;
    resolve_soc_text(&text, spec)
}

/// Parses inline ITC'02 `.soc` text into an SOC (`origin` names the
/// source in error messages).
///
/// # Errors
///
/// [`ToolError`] when the text does not parse or validate.
pub fn resolve_soc_text(text: &str, origin: &str) -> Result<Soc, ToolError> {
    parse_soc(text)
        .and_then(|f| f.into_soc())
        .map_err(|e| ToolError::failed(format!("cannot parse `{origin}`: {e}")))
}

/// The optimizer budget the parameters describe (unlimited by default).
fn budget_from(params: &ParamValues) -> OptimizerBudget {
    let mut budget = OptimizerBudget::unlimited();
    if let Some(ms) = params.opt_u64("deadline-ms") {
        budget = budget.with_deadline(std::time::Duration::from_millis(ms));
    }
    if let Some(iters) = params.opt_u64("max-iters") {
        budget = budget.with_max_iterations(iters);
    }
    budget
}

/// Rejects a zero TAM width (no rail fits in zero wires) or one above
/// [`MAX_TAM_WIDTH`](soctam::tam::MAX_TAM_WIDTH) as an invalid request,
/// before any pattern is generated.
fn check_widths(widths: &[u32]) -> Result<(), ToolError> {
    widths
        .iter()
        .try_for_each(|&width| check_width_budget(width))
        .map_err(|err| invalid(SoctamError::from(err).to_string()))
}

/// Rejects a partition count of 0 as an invalid request, before any
/// pattern is generated: the 1-D compaction is `i = 1`, and no other
/// count means it.
fn check_partitions(partitions: &[u32]) -> Result<(), ToolError> {
    if partitions.contains(&0) {
        return Err(invalid(
            "SI partition count must be at least 1 (i = 1 is the 1-D compaction)",
        ));
    }
    Ok(())
}

/// A well-formed request that no run can answer.
fn invalid(message: impl Into<String>) -> ToolError {
    ToolError {
        kind: ToolErrorKind::Invalid,
        message: message.into(),
        codes: Vec::new(),
    }
}

fn pipeline_err(err: impl Into<SoctamError>) -> ToolError {
    ToolError::from_soctam(&err.into())
}

/// For error types outside the pipeline's `SoctamError` family (tester,
/// wrapper): no diagnostic codes to preserve, message only.
fn runtime_err(err: impl std::fmt::Display) -> ToolError {
    ToolError::failed(err.to_string())
}

fn info_tool(soc: &Soc, _params: &ParamValues, _ctx: &RunCtx) -> Result<ToolOutput, ToolError> {
    let mut out = String::new();
    let _ = writeln!(out, "{soc}");
    let _ = writeln!(
        out,
        "total InTest data volume: {} bits; total I/O: {}",
        soc.total_test_data_volume(),
        soc.total_io()
    );
    let _ = writeln!(
        out,
        "{:>4} {:>14} {:>7} {:>7} {:>7} {:>7} {:>9} {:>10}",
        "id", "name", "in", "out", "bidir", "chains", "cells", "patterns"
    );
    for (id, core) in soc.iter() {
        let _ = writeln!(
            out,
            "{:>4} {:>14} {:>7} {:>7} {:>7} {:>7} {:>9} {:>10}",
            id.raw(),
            core.name(),
            core.inputs(),
            core.outputs(),
            core.bidirs(),
            core.scan_chains().len(),
            core.scan_cells(),
            core.patterns()
        );
    }
    Ok(ToolOutput::text(out))
}

fn export_tool(soc: &Soc, _params: &ParamValues, _ctx: &RunCtx) -> Result<ToolOutput, ToolError> {
    Ok(ToolOutput::text(write_soc(soc)))
}

fn optimize_tool(soc: &Soc, params: &ParamValues, ctx: &RunCtx) -> Result<ToolOutput, ToolError> {
    check_widths(&[params.u32("width")])?;
    check_partitions(&[params.u32("partitions")])?;
    let objective = if params.bool("baseline") {
        Objective::InTestOnly
    } else {
        Objective::Total
    };
    let optimizer = SiOptimizer::new(soc)
        .max_tam_width(params.u32("width"))
        .partitions(params.u32("partitions"))
        .seed(params.u64("seed"))
        .objective(objective)
        .run(RunCtx {
            budget: budget_from(params),
            ..ctx.clone()
        });
    let groups = optimizer
        .group_specs(&pattern_config(params))
        .map_err(pipeline_err)?;
    let result = optimizer.optimize_specs(&groups).map_err(pipeline_err)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: N_r={} -> {} compacted patterns in {} groups",
        soc.name(),
        params.usize("patterns"),
        groups.iter().map(SiGroupSpec::patterns).sum::<u64>(),
        groups.len()
    );
    if result.degraded() {
        let _ = writeln!(
            out,
            "note: optimization budget exhausted; reporting the best \
             architecture found so far (degraded)"
        );
    }
    let _ = writeln!(out, "{}", result.architecture());
    let _ = writeln!(
        out,
        "{}",
        render_schedule(result.architecture(), result.evaluation())
    );
    if let Some(path) = params.opt_str("svg") {
        let svg = render_schedule_svg(result.architecture(), result.evaluation());
        std::fs::write(path, svg)
            .map_err(|e| ToolError::failed(format!("cannot write `{path}`: {e}")))?;
        let _ = writeln!(out, "schedule SVG written to {path}");
    }
    Ok(ToolOutput {
        text: out,
        degraded: result.degraded(),
    })
}

fn table_tool(soc: &Soc, params: &ParamValues, ctx: &RunCtx) -> Result<ToolOutput, ToolError> {
    let config = ExperimentConfig {
        pattern_count: params.usize("patterns"),
        widths: params.u32_list("widths"),
        partitions: params.u32_list("parts"),
        seed: params.u64("seed"),
    };
    check_widths(&config.widths)?;
    check_partitions(&config.partitions)?;
    let table = run_table_in(soc, &config, ctx).map_err(pipeline_err)?;
    Ok(ToolOutput::text(table.to_string()))
}

/// The random SI patterns the `patterns` and `seed` parameters describe.
fn pattern_config(params: &ParamValues) -> RandomPatternConfig {
    RandomPatternConfig::new(params.usize("patterns")).with_seed(params.u64("seed"))
}

/// The compaction the `partitions` and `seed` parameters describe.
fn compaction_config(params: &ParamValues) -> CompactionConfig {
    CompactionConfig::new(params.u32("partitions")).with_seed(params.u64("seed"))
}

fn compact_tool(soc: &Soc, params: &ParamValues, ctx: &RunCtx) -> Result<ToolOutput, ToolError> {
    check_partitions(&[params.u32("partitions")])?;
    let pool = &ctx.pool;
    let patterns = pool
        .metrics()
        .time("generate", || {
            generate_random_packed(soc, &pattern_config(params), pool)
        })
        .map_err(pipeline_err)?;
    let compacted = pool
        .metrics()
        .time("compact", || {
            count_packed_with(soc, &patterns, &compaction_config(params), pool)
        })
        .map_err(pipeline_err)?;
    let stats = compacted.stats();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: {} raw -> {} compacted (ratio {:.1}x), {} groups, cut weight {}",
        soc.name(),
        stats.raw_patterns,
        compacted.total_patterns(),
        stats.compaction_ratio(),
        compacted.groups().len(),
        stats.cut_weight
    );
    if stats.duplicate_patterns > 0 {
        let _ = writeln!(
            out,
            "  {} exact duplicates removed before compaction",
            stats.duplicate_patterns
        );
    }
    for (i, group) in compacted.groups().iter().enumerate() {
        let _ = writeln!(
            out,
            "  group {i}: {} cores, {} patterns",
            group.cores().len(),
            group.pattern_count()
        );
    }
    let _ = writeln!(out, "SI data volume: {} bits", compacted.data_volume(soc));
    Ok(ToolOutput::text(out))
}

fn bounds_tool(soc: &Soc, params: &ParamValues, ctx: &RunCtx) -> Result<ToolOutput, ToolError> {
    let widths = params.u32_list("widths");
    check_widths(&widths)?;
    check_partitions(&[params.u32("partitions")])?;
    let pool = &ctx.pool;
    let patterns =
        generate_random_packed(soc, &pattern_config(params), pool).map_err(pipeline_err)?;
    let compacted = count_packed_with(soc, &patterns, &compaction_config(params), pool)
        .map_err(pipeline_err)?;
    let groups = SiGroupSpec::from_counts(&compacted);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: lower bounds (N_r = {}, i = {})",
        soc.name(),
        params.usize("patterns"),
        params.u32("partitions")
    );
    let _ = writeln!(
        out,
        "{:>6} {:>12} {:>12} {:>12}",
        "Wmax", "LB(T_in)", "LB(T_si)", "LB(T_soc)"
    );
    for &w in &widths {
        let lb_in = intest_lower_bound(soc, w).map_err(runtime_err)?;
        let lb_si = si_lower_bound(soc, &groups, w).map_err(runtime_err)?;
        let _ = writeln!(
            out,
            "{:>6} {:>12} {:>12} {:>12}",
            w,
            lb_in,
            lb_si,
            lb_in + lb_si
        );
    }
    Ok(ToolOutput::text(out))
}

fn simulate_tool(soc: &Soc, params: &ParamValues, ctx: &RunCtx) -> Result<ToolOutput, ToolError> {
    check_widths(&[params.u32("width")])?;
    check_partitions(&[params.u32("partitions")])?;
    let result = SiOptimizer::new(soc)
        .max_tam_width(params.u32("width"))
        .partitions(params.u32("partitions"))
        .seed(params.u64("seed"))
        .run(ctx.clone())
        .optimize_random(&pattern_config(params))
        .map_err(pipeline_err)?;
    let sim = soctam::tester::simulate(
        soc,
        result.architecture(),
        result.compacted().groups(),
        false,
    )
    .map_err(runtime_err)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "analytic : T_in = {} cc, T_si = {} cc",
        result.intest_time(),
        result.si_time()
    );
    let _ = writeln!(
        out,
        "simulated: T_in = {} cc, T_si = {} cc",
        sim.t_in, sim.t_si
    );
    let agree = sim.t_in == result.intest_time() && sim.t_si == result.si_time();
    let _ = writeln!(
        out,
        "{} ({} stimulus bits driven)",
        if agree {
            "model and bit-level simulation agree exactly"
        } else {
            "MISMATCH between model and simulation"
        },
        sim.bits_driven
    );
    if !agree {
        return Err(ToolError::failed(out));
    }
    Ok(ToolOutput {
        text: out,
        degraded: result.degraded(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::parse_cli;
    use soctam::exec::CancelToken;
    use soctam::{EvalCache, Pool};

    fn ctx() -> RunCtx {
        RunCtx::default()
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn invoke(tool: &str, soc: &Soc, flags: &[&str], ctx: &RunCtx) -> ToolOutput {
        let tool = standard_registry().get(tool).expect("registered");
        let params = parse_cli(tool.params, &args(flags)).expect("parses");
        (tool.run)(soc, &params, ctx).expect("runs")
    }

    #[test]
    fn registry_lists_all_seven_tools() {
        let names: Vec<&str> = standard_registry().tools().iter().map(|t| t.name).collect();
        assert_eq!(
            names,
            vec!["info", "optimize", "table", "compact", "export", "bounds", "simulate"]
        );
    }

    #[test]
    fn info_and_export_run_on_a_benchmark() {
        let soc = Benchmark::D695.soc();
        let info = invoke("info", &soc, &[], &ctx());
        assert!(info.text.contains("s38584"));
        assert!(!info.degraded);
        let export = invoke("export", &soc, &[], &ctx());
        assert!(resolve_soc_text(&export.text, "export").is_ok());
    }

    #[test]
    fn optimize_reports_degraded_through_the_output() {
        let soc = Benchmark::D695.soc();
        let out = invoke(
            "optimize",
            &soc,
            &["--patterns", "150", "--width", "8", "--max-iters", "1"],
            &ctx(),
        );
        assert!(out.degraded);
        assert!(out.text.contains("optimization budget exhausted"));
    }

    #[test]
    fn simulate_observes_the_run_context() {
        let soc = Benchmark::D695.soc();
        let token = CancelToken::new();
        token.cancel();
        let ctx = RunCtx {
            cancel: Some(token),
            ..ctx()
        };
        let flags = &["--patterns", "150", "--width", "8"][..];
        let out = invoke("simulate", &soc, flags, &ctx);
        assert!(out.degraded, "a cancelled simulate run must degrade");
        assert!(out.text.contains("agree exactly"), "{}", out.text);
    }

    #[test]
    fn shared_cache_is_warm_across_invocations() {
        let soc = Benchmark::D695.soc();
        let cache = EvalCache::new();
        let mut ctx = ctx();
        ctx.eval_cache = Some(cache.clone());
        let flags = &["--patterns", "150", "--width", "8", "--partitions", "2"][..];
        let first = invoke("optimize", &soc, flags, &ctx);
        let warm = cache.len();
        assert!(warm > 0, "first run must populate the shared cache");
        let second = invoke("optimize", &soc, flags, &ctx);
        assert_eq!(first, second, "warm cache must not change the result");
        assert_eq!(cache.len(), warm, "identical request adds no entries");
    }

    #[test]
    fn random_pattern_tools_run_on_socs_beyond_256_cores() {
        use soctam::model::synth::{synth_soc, SynthConfig};
        for cores in [257, 300] {
            let soc = synth_soc(&SynthConfig::new(cores).with_seed(1)).expect("valid soc");
            let drawn = generate_random_packed(
                &soc,
                &RandomPatternConfig::new(1000).with_seed(2007),
                &Pool::serial(),
            )
            .expect("generates");
            assert!(
                drawn.max_driver() >= Some(256),
                "{cores} cores: no bus driver beyond one byte"
            );
            let patterns = ["--patterns", "1000"];
            let run = |tool: &str, flags: &[&str]| {
                invoke(tool, &soc, &[&patterns[..], flags].concat(), &ctx())
            };
            assert!(run("compact", &["--partitions", "4"])
                .text
                .contains("ratio"));
            assert!(run("bounds", &["--widths", "16"])
                .text
                .contains("LB(T_soc)"));
            assert!(run("table", &["--widths", "8", "--parts", "1,2"])
                .text
                .contains("T_g2"));
            assert!(run("optimize", &["--width", "8"]).text.contains("T_soc"));
        }
    }

    #[test]
    fn resolve_soc_accepts_names_and_rejects_junk() {
        assert!(resolve_soc("d695").is_ok());
        let err = resolve_soc("/nonexistent/x.soc").unwrap_err();
        assert_eq!(err.kind, crate::tool::ToolErrorKind::Failed);
        assert!(resolve_soc_text("not an soc file", "inline").is_err());
    }
}
