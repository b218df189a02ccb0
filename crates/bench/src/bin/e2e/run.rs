//! One run of one workload: set-up, the timed pass, the correctness
//! gate, and (when traced) the traced pass.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use soctam::Pool;

use crate::check::{check_output, Digest};
use crate::metrics::{aggregate, daemon_deltas, END_TO_END, PER_LAYER};
use crate::probe;
use crate::procs::{run_cli, Daemon, Programs, Reply};
use crate::stats::{geomean, median, tail};
use crate::timed::{run_cli_pass, run_serve_pass, Timed, Window};
use crate::trace::{self, Reference};
use crate::workload::{Front, Mode, Plan, Request, JOBS};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<String>,
    /// The metrics this run reports: end-to-end, or per-layer when
    /// traced. `(name, unit, value)`, in catalogue order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Further context for the reader: sample counts, tails, digest.
    pub notes: Vec<String>,
    pub digest: String,
}

/// A directory for journals inside the build directory, removed when
/// dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(programs: &Programs) -> Result<Scratch, String> {
        let dir = programs
            .dir
            .join(format!("e2e-scratch-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Set-up times in seconds: as measured, and scaled to the probe's
/// reference speed.
#[derive(Default)]
struct SetUps {
    measured: Vec<f64>,
    scaled: Vec<f64>,
}

/// Runs the warm-up requests on the CLI `SETUPS` times, or on `SETUPS`
/// fresh daemons in turn; returns the set-up times and the last daemon.
fn set_up(
    programs: &Programs,
    plan: &Plan,
    scratch: &Scratch,
    failures: &mut Vec<String>,
) -> Result<(SetUps, Option<Daemon>), String> {
    let mut times = SetUps::default();
    let mut daemon: Option<Daemon> = None;
    for k in 0..SETUPS {
        if let Some(previous) = daemon.take() {
            previous.stop()?;
        }
        let probe_before = probe::probe_ms();
        let start = Instant::now();
        let replies: Vec<Reply> = match plan.workload.front() {
            Front::Cli => plan
                .warmup()
                .iter()
                .map(|r| run_cli(programs, r, None))
                .collect(),
            Front::Serve { journal } => {
                let path = journal.then(|| scratch.path(&format!("journal-{k}")));
                let fresh = Daemon::spawn(programs, path.as_deref())?;
                let replies = fresh.run_all(&plan.warmup());
                daemon = Some(fresh);
                replies
            }
        };
        let seconds = start.elapsed().as_secs_f64();
        let probe = (probe_before + probe::probe_ms()) / 2.0;
        times.measured.push(seconds);
        times.scaled.push(seconds * probe::REFERENCE_MS / probe);
        failures.extend(replies.into_iter().filter_map(|r| r.output.err()));
    }
    Ok((times, daemon))
}

/// Checks every timed output on its own and, where the plan repeats
/// its requests, against the first cycle's output for the same request.
fn check_timed(plan: &Plan, timed: &Timed, failures: &mut Vec<String>) -> Digest {
    let first_cycle: Vec<Option<&str>> = timed
        .ops
        .iter()
        .take(plan.cycle_len())
        .map(|op| op.reply.output.as_deref().ok())
        .collect();
    let mut digest = Digest::default();
    for op in &timed.ops {
        let request = plan.request(op.index);
        match &op.reply.output {
            Err(e) => failures.push(e.clone()),
            Ok(text) => {
                if let Err(e) = check_output(&request, text) {
                    failures.push(e);
                }
                let first = first_cycle
                    .get(op.index % plan.cycle_len())
                    .copied()
                    .flatten();
                if plan.repeats() && first.is_some_and(|f| f != text) {
                    failures.push(format!(
                        "{}: a repeated request's output changed",
                        request.label()
                    ));
                }
            }
        }
        if op.index < plan.cycle_len() {
            digest.add(op.reply.output.as_deref().unwrap_or("<failed>"));
        }
    }
    digest
}

/// The correctness gate: each request of [`Plan::gated`] runs
/// in-process, and the program's output must carry the same answer.
/// Returns the `T_soc / LB` ratios of all answers checked.
fn gate(plan: &Plan, timed: &Timed, pool: &Pool, failures: &mut Vec<String>) -> Vec<f64> {
    let mut ratios = Vec::new();
    for (index, request) in plan.gated() {
        match trace::run(&request, pool, false) {
            Ok(reference) => {
                let output = timed
                    .ops
                    .get(index)
                    .and_then(|op| op.reply.output.as_deref().ok());
                if let Some(output) = output {
                    if let Err(e) = reference.check(&request, output) {
                        failures.push(e);
                    }
                }
                failures.extend(reference.failures);
                ratios.extend(reference.ratios);
            }
            Err(e) => failures.push(format!("{}: in-process run failed: {e}", request.label())),
        }
    }
    ratios
}

pub fn run(
    programs: &Programs,
    plan: &Plan,
    seconds: Duration,
    traced: bool,
) -> Result<Outcome, String> {
    let scratch = Scratch::new(programs)?;
    let mut failures = Vec::new();
    let (setups, daemon) = set_up(programs, plan, &scratch, &mut failures)?;
    let timed = match daemon {
        Some(daemon) => {
            let timed = run_serve_pass(&daemon, plan, seconds)?;
            daemon.stop()?;
            timed
        }
        None => run_cli_pass(programs, plan, seconds),
    };
    let digest = check_timed(plan, &timed, &mut failures);
    let pool = Pool::new(JOBS);
    let ratios = gate(plan, &timed, &pool, &mut failures);
    let mut attempted = (timed.ops.len() + plan.gated().len()) as u64;

    // Every time is scaled by how much slower than its reference speed
    // the probe found the machine around the window it was taken in.
    let slowdown = |w: &Window| w.probe_ms / probe::REFERENCE_MS;
    let scaled_latencies: Vec<f64> = timed
        .windows
        .iter()
        .flat_map(|w| w.latencies_ms.iter().map(move |l| l / slowdown(w)))
        .collect();
    let total = |f: &dyn Fn(&Window) -> f64| -> f64 { timed.windows.iter().map(f).sum() };
    let requests = total(&|w| w.requests as f64);
    let values = [
        median(&setups.scaled),
        median(&scaled_latencies),
        requests / total(&|w| w.seconds / slowdown(w)),
        total(&|w| w.cpu_ms / slowdown(w)) / requests,
        timed.peak_rss_kb as f64 / 1024.0,
        geomean(&ratios),
    ];
    let mut metrics: Vec<_> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, unit, value))
        .collect();

    let latencies: Vec<f64> = timed
        .windows
        .iter()
        .flat_map(|w| w.latencies_ms.iter().copied())
        .collect();
    let probes: Vec<f64> = timed.windows.iter().map(|w| w.probe_ms).collect();
    let mut notes = vec![
        format!(
            "timed pass: {} requests in {:.2} s, {} windows of {} requests",
            timed.ops.len(),
            timed.wall.as_secs_f64(),
            timed.windows.len(),
            plan.window_len()
        ),
        format!(
            "probe: median {:.3} ms against the reference {:.3} ms (range {:.3}..{:.3})",
            median(&probes),
            probe::REFERENCE_MS,
            probes.iter().copied().fold(f64::INFINITY, f64::min),
            probes.iter().copied().fold(0.0, f64::max)
        ),
        format!(
            "as measured: set-up {:.4} s, latency median {:.3} ms (n = {}), throughput {:.3}/s",
            median(&setups.measured),
            median(&latencies),
            latencies.len(),
            latencies.len() as f64 / timed.wall.as_secs_f64()
        ),
        match tail(&latencies) {
            Some((q, value)) => format!("latency_p{:.0}_ms: {value:.3}", q * 100.0),
            None => "latency tail: fewer than 100 samples, no tail percentile".to_owned(),
        },
    ];
    if plan.workload.front() == (Front::Serve { journal: true }) {
        for mode in [Mode::Sync, Mode::Job] {
            let of_mode: Vec<f64> = timed
                .ops
                .iter()
                .filter(|op| plan.request(op.index).mode == mode && op.reply.output.is_ok())
                .map(|op| ms(op.reply.latency))
                .collect();
            notes.push(format!(
                "{mode:?} latency p50: {:.3} ms (n = {})",
                median(&of_mode),
                of_mode.len()
            ));
        }
    }
    notes.push(format!(
        "gate: {} distinct requests checked in-process, {} T_soc/LB ratios",
        plan.gated().len(),
        ratios.len()
    ));

    if traced {
        let (layers, traced_count) =
            traced_pass(programs, plan, &timed, &pool, &scratch, &mut failures)?;
        attempted += traced_count;
        metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, layers.get(name).copied().unwrap_or(0.0)))
            .collect();
    }
    notes.push(format!("error_rate: {} / {attempted}", failures.len()));
    Ok(Outcome {
        attempted,
        failures,
        metrics,
        notes,
        digest: digest.hex(),
    })
}

/// Per-layer numbers: the first traced requests run in-process with
/// every layer call timed; the first few of those also run through the
/// CLI and through idle daemons with and without a journal, which gives
/// the front ends' own costs and checks that all outputs agree.
fn traced_pass(
    programs: &Programs,
    plan: &Plan,
    timed: &Timed,
    pool: &Pool,
    scratch: &Scratch,
    failures: &mut Vec<String>,
) -> Result<(std::collections::BTreeMap<&'static str, f64>, u64), String> {
    let (count, fronted) = plan.workload.traced_counts();
    let mut references: Vec<(Request, Reference)> = Vec::new();
    for index in 0..count {
        let request = plan.request(index);
        let reference = trace::run(&request, pool, true)
            .map_err(|e| format!("{}: traced run failed: {e}", request.label()))?;
        failures.extend(reference.failures.iter().cloned());
        references.push((request, reference));
    }
    let mut layers = aggregate(
        &references
            .iter()
            .map(|(_, r)| r.layers.clone())
            .collect::<Vec<_>>(),
    );

    let plain = Daemon::spawn(programs, None)?;
    let journaled = Daemon::spawn(programs, Some(&scratch.path("journal-traced")))?;
    let before = plain.metrics()?;
    let mut overheads: [Vec<f64>; 4] = Default::default();
    for (request, reference) in references.iter().take(fronted) {
        let request_ms = reference.layers["trace.request_ms"];
        let sync = Request {
            mode: Mode::Sync,
            ..*request
        };
        let job = Request {
            mode: Mode::Job,
            ..*request
        };
        let cli = run_cli(programs, request, None);
        let cold = plain.run(&sync);
        let warm = plain.run(&sync);
        let warm_job = plain.run(&job);
        let journal_sync = journaled.run(&sync);
        let journal_job = journaled.run(&job);
        let replies = [&cli, &cold, &warm, &warm_job, &journal_sync, &journal_job];
        let outputs: Result<Vec<&str>, String> = replies
            .iter()
            .map(|r| r.output.as_deref().map_err(Clone::clone))
            .collect();
        match outputs {
            Err(e) => failures.push(e),
            Ok(outputs) => {
                if outputs.iter().any(|o| *o != outputs[0]) {
                    failures.push(format!(
                        "{}: CLI and daemon outputs are not byte-identical",
                        request.label()
                    ));
                }
                if let Err(e) = reference.check(request, outputs[0]) {
                    failures.push(e);
                }
            }
        }
        overheads[0].push(ms(cli.latency) - request_ms);
        overheads[1].push(ms(cold.latency) - request_ms);
        overheads[2].push(ms(warm_job.latency) - ms(warm.latency));
        overheads[3].push(ms(journal_job.latency) - ms(warm_job.latency));
    }
    let after = plain.metrics()?;
    layers.insert(
        "serve.spawn_ms",
        median(&[ms(plain.ready), ms(journaled.ready)]),
    );
    plain.stop()?;
    journaled.stop()?;
    for (name, values) in [
        "cli.overhead_ms",
        "serve.overhead_ms",
        "serve.job_extra_ms",
        "serve.journal_extra_ms",
    ]
    .into_iter()
    .zip(&overheads)
    {
        layers.insert(name, median(values));
    }

    // Daemon counters over the run's daemon traffic: the timed pass on
    // serve workloads, the traced requests on CLI workloads.
    let deltas = match &timed.metrics {
        Some((before, after)) => daemon_deltas(before, after, timed.ops.len()),
        None => daemon_deltas(&before, &after, 3 * fronted),
    };
    layers.extend(deltas);
    Ok((layers, (count + 6 * fronted) as u64))
}
