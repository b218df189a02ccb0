//! Seeded chaos-soak harness: randomized fault injection across every
//! failpoint site under a mixed sync + async workload.
//!
//! Invariants checked every round:
//! * the daemon never hangs (every wait carries a watchdog deadline);
//! * no in-flight admission slot leaks (the gauge returns to 0);
//! * injected panics cost at most one request/job, never a worker or
//!   the daemon;
//! * every submitted job reaches a terminal state;
//! * jobs that complete `done` under chaos produce bodies
//!   byte-identical to a fault-free baseline run;
//! * the write-ahead journal stays cleanly framed (a replay after the
//!   soak reports zero corruption).
//!
//! The fault plan is driven by `soctam_exec::Rng` from
//! `SOCTAM_CHAOS_SEED` (default 20260807), so a failing soak reproduces
//! exactly. `SOCTAM_CHAOS_ROUNDS` scales the soak length.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use soctam_exec::fault::{self, FaultAction};
use soctam_exec::Rng;
use soctam_registry::Json;
use soctam_serve::journal::Journal;
use soctam_serve::{client, Server, ServerConfig};

/// Every failpoint site in the workspace: the exhaustive fourteen, as
/// `sites_are_every_failpoint_in_the_sources` checks.
const SITES: &[&str] = &[
    "compaction.bucket",
    "compaction.partition",
    "exec.cache.lookup",
    "exec.pool.task",
    "model.parse",
    "patterns.generate.random",
    "serve.accept",
    "serve.dispatch",
    "serve.job",
    "serve.journal",
    "tam.merge",
    "tam.probe",
    "tam.rail_eval",
    "tam.schedule",
];

/// The workload mix: (tool, request body) shapes whose fault-free
/// results are the byte-identity baseline.
const SHAPES: &[(&str, &str)] = &[
    (
        "optimize",
        r#"{"soc":"d695","params":{"patterns":100,"width":8,"partitions":2}}"#,
    ),
    ("info", r#"{"soc":"d695"}"#),
    ("bounds", r#"{"soc":"d695","params":{"patterns":100}}"#),
];

const WATCHDOG: Duration = Duration::from_secs(120);

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn temp_journal() -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("soctam-chaos-soak-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn start(journal: Option<PathBuf>) -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind(&ServerConfig {
        listen: "127.0.0.1:0".to_owned(),
        jobs: 2,
        queue_cap: 64,
        job_workers: 2,
        journal,
        ..ServerConfig::default()
    })
    .expect("binds");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("serves"));
    (addr, handle)
}

fn stop(addr: &str, handle: std::thread::JoinHandle<()>) {
    let response = client::post(addr, "/admin/shutdown", "").expect("shutdown");
    assert_eq!(response.status, 200);
    handle.join().expect("accept loop exits cleanly");
}

/// Strips the volatile `request_id` from a sync envelope.
fn envelope_without_id(body: &str) -> Option<String> {
    match Json::parse(body) {
        Ok(Json::Obj(mut fields)) => {
            fields.retain(|(k, _)| k != "request_id");
            Some(Json::Obj(fields).render())
        }
        _ => None,
    }
}

fn job_state(addr: &str, job: &str) -> Option<(String, Json)> {
    let response = client::get(addr, &format!("/v1/jobs/{job}")).ok()?;
    if response.status != 200 {
        return None;
    }
    let doc = Json::parse(&response.body).ok()?;
    let state = doc.get("state")?.as_str()?.to_owned();
    Some((state, doc))
}

/// Waits until every job in `jobs` is terminal; the watchdog deadline
/// is the no-hang invariant.
fn await_terminal(addr: &str, jobs: &[(String, usize)]) -> Vec<(usize, String, Json)> {
    let until = Instant::now() + WATCHDOG;
    let mut out = Vec::new();
    for (job, shape) in jobs {
        loop {
            // Status polls themselves can be refused by serve.accept
            // faults; keep polling — the watchdog bounds the wait.
            if let Some((state, doc)) = job_state(addr, job) {
                if matches!(state.as_str(), "done" | "failed" | "cancelled") {
                    out.push((*shape, state, doc));
                    break;
                }
            }
            assert!(
                Instant::now() < until,
                "watchdog: job {job} not terminal after {WATCHDOG:?}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    out
}

fn random_action(rng: &mut Rng) -> FaultAction {
    match rng.below(3) {
        0 => FaultAction::Error,
        1 => FaultAction::Panic,
        _ => FaultAction::Delay(Duration::from_millis(5 + rng.below(16))),
    }
}

/// The site literal of every `fault::hit("…")` and `fault::check("…")`
/// call in the `src` tree of every workspace crate.
fn failpoints_in_sources() -> BTreeSet<String> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut dirs: Vec<PathBuf> = fs::read_dir(crates)
        .unwrap()
        .map(|entry| entry.unwrap().path().join("src"))
        .filter(|src| src.is_dir())
        .collect();
    let mut sites = BTreeSet::new();
    while let Some(dir) = dirs.pop() {
        for entry in fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                if !path.ends_with("target") {
                    dirs.push(path);
                }
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                let text = fs::read_to_string(&path).unwrap();
                for call in ["fault::hit(\"", "fault::check(\""] {
                    for (at, _) in text.match_indices(call) {
                        let rest = &text[at + call.len()..];
                        sites.insert(rest[..rest.find('"').unwrap()].to_owned());
                    }
                }
            }
        }
    }
    sites
}

#[test]
fn sites_are_every_failpoint_in_the_sources() {
    let listed: BTreeSet<String> = SITES.iter().map(|site| site.to_string()).collect();
    assert_eq!(failpoints_in_sources(), listed);
}

#[test]
fn chaos_soak_keeps_every_invariant_under_randomized_faults() {
    let seed = env_u64("SOCTAM_CHAOS_SEED", 20_260_807);
    let rounds = env_u64("SOCTAM_CHAOS_ROUNDS", 4);
    let journal_path = temp_journal();
    eprintln!(
        "chaos soak: seed={seed} rounds={rounds} journal={}",
        journal_path.display()
    );
    fault::reset();

    // Fault-free baseline: one sync result per workload shape.
    let (addr, handle) = start(None);
    let mut baseline: Vec<String> = Vec::new();
    for (tool, request) in SHAPES {
        let response =
            client::post(&addr, &format!("/v1/tools/{tool}"), request).expect("baseline run");
        assert_eq!(response.status, 200, "{}", response.body);
        baseline.push(envelope_without_id(&response.body).expect("baseline envelope"));
    }
    stop(&addr, handle);

    let (addr, handle) = start(Some(journal_path.clone()));
    let mut rng = Rng::derive(seed, 0);
    let mut done_under_chaos = 0u64;

    for round in 0..rounds {
        // Arm 3..=6 random sites with random actions and activation
        // skips; every arming decision comes from the seeded stream.
        let armed = 3 + rng.below(4) as usize;
        let mut plan: Vec<(&str, FaultAction, u64)> = Vec::new();
        for _ in 0..armed {
            let site = SITES[rng.below(SITES.len() as u64) as usize];
            let action = random_action(&mut rng);
            let skip = rng.below(4);
            plan.push((site, action, skip));
        }
        eprintln!("round {round}: arming {plan:?}");
        // `tam.probe` is a tolerated-degradation site: the optimizer
        // skips a failed probe and keeps searching, so a request that
        // still returns 200 under a probe error took a different —
        // legitimately different — search path. Byte-identity against
        // the fault-free baseline only holds in rounds without it.
        let probe_diverges = plan.iter().any(|(site, action, _)| {
            *site == "tam.probe" && !matches!(action, FaultAction::Delay(_))
        });
        for (site, action, skip) in &plan {
            fault::set_after(*site, *action, *skip);
        }

        // Mixed workload: async submissions (some cancelled), sync
        // invocations, status polls.
        let mut jobs: Vec<(String, usize)> = Vec::new();
        for k in 0..6u64 {
            let shape = rng.below(SHAPES.len() as u64) as usize;
            let (tool, request) = SHAPES[shape];
            let body = format!(r#"{{"tool":"{tool}","request":{request}}}"#);
            match client::post(&addr, "/v1/jobs", &body) {
                Ok(response) if response.status == 202 => {
                    let job = Json::parse(&response.body)
                        .ok()
                        .and_then(|doc| doc.get("job").and_then(Json::as_str).map(str::to_owned));
                    if let Some(job) = job {
                        // Cancel roughly a third of submissions.
                        if rng.below(3) == 0 {
                            let _ =
                                client::request(&addr, "DELETE", &format!("/v1/jobs/{job}"), "");
                        }
                        jobs.push((job, shape));
                    }
                }
                // 429/503 rejections and accept-fault connection drops
                // are legitimate chaos outcomes.
                Ok(_) | Err(_) => {}
            }
            let shape = rng.below(SHAPES.len() as u64) as usize;
            let (tool, request) = SHAPES[shape];
            if let Ok(response) = client::post(&addr, &format!("/v1/tools/{tool}"), request) {
                if response.status == 200 && !probe_diverges {
                    if let Some(envelope) = envelope_without_id(&response.body) {
                        assert_eq!(
                            envelope, baseline[shape],
                            "round {round} req {k}: sync 200 under chaos must match baseline"
                        );
                    }
                }
            }
        }

        // Disarm, then require the system to settle: every job
        // terminal, nothing leaked.
        fault::reset();
        let settled = await_terminal(&addr, &jobs);
        for (shape, state, doc) in settled {
            if state == "done" {
                done_under_chaos += 1;
                if !probe_diverges {
                    let result = doc.get("result").expect("done job has a result").render();
                    assert_eq!(
                        result, baseline[shape],
                        "round {round}: done job body must match the fault-free baseline"
                    );
                }
            }
        }
        // The admission gauge returns to zero once quiescent: no
        // leaked in-flight slots even across injected panics.
        let until = Instant::now() + WATCHDOG;
        loop {
            let health = client::get(&addr, "/healthz").expect("healthz");
            let doc = Json::parse(&health.body).expect("healthz JSON");
            if doc.get("inflight") == Some(&Json::Int(1)) {
                // This very request occupies no slot; inflight counts
                // tool invocations only.
            }
            if doc.get("inflight") == Some(&Json::Int(0)) {
                break;
            }
            assert!(Instant::now() < until, "watchdog: inflight never drained");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    // The soak must exercise the happy path too, or byte-identity was
    // never really tested.
    assert!(
        done_under_chaos > 0,
        "no job completed `done` across {rounds} rounds; seed {seed} too hostile"
    );

    let metrics = client::get(&addr, "/metrics").expect("metrics");
    let doc = Json::parse(&metrics.body).expect("metrics JSON");
    let jobs_section = doc.get("jobs").expect("jobs section");
    assert_eq!(jobs_section.get("running").unwrap(), &Json::Int(0));
    assert_eq!(jobs_section.get("queue_depth").unwrap(), &Json::Int(0));
    eprintln!("chaos soak metrics: {}", jobs_section.render());

    stop(&addr, handle);

    // The journal survived every injected journal fault cleanly: a
    // full replay parses with zero corruption.
    let (_, replay) = Journal::open(&journal_path).expect("journal reopens");
    assert_eq!(replay.corrupt, 0, "journal framing survived the soak");
    assert!(!replay.torn_tail, "clean shutdown leaves no torn tail");
    assert!(!replay.records.is_empty(), "the soak journaled job traffic");

    let _ = std::fs::remove_file(&journal_path);
}
