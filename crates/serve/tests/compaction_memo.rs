//! The daemon's compaction memo: an `optimize` request whose SOC
//! contents, pattern count, seed and partition count were seen before
//! recalls its compacted SI groups from the shared cache instead of
//! generating and compacting again. Answers must be byte-identical to
//! cold ones, and armed failpoints must fail a recalled request exactly
//! as they fail a computed one. Behind it, the search memo recalls
//! every optimizer leg whose SOC, width budget and groups were searched
//! before, whatever seed produced the groups.
//!
//! Failpoints are process-global, so every test here serializes on one
//! mutex.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Mutex;

use soctam::model::parser::write_soc;
use soctam::{Benchmark, CoreSpec, Soc};
use soctam_exec::fault::{self, FaultAction, ScopedFault};
use soctam_registry::Json;
use soctam_serve::{client, Server, ServerConfig};

static SERIAL: Mutex<()> = Mutex::new(());

fn serialize() -> std::sync::MutexGuard<'static, ()> {
    let guard = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    fault::reset();
    guard
}

fn start(jobs: usize) -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind(&ServerConfig {
        listen: "127.0.0.1:0".to_owned(),
        jobs,
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

/// Posts an optimize body; returns the status and the envelope without
/// its volatile `request_id`.
fn optimize(addr: &str, body: &str) -> (u16, Json) {
    let response = client::post(addr, "/v1/tools/optimize", body).unwrap();
    let Json::Obj(mut fields) = Json::parse(&response.body).unwrap() else {
        panic!("not an object: {}", response.body);
    };
    fields.retain(|(key, _)| key != "request_id");
    (response.status, Json::Obj(fields))
}

fn output(envelope: &Json) -> String {
    envelope.get("output").unwrap().as_str().unwrap().to_owned()
}

/// `(memo_hits, memo_misses)` from `/metrics`.
fn memo(addr: &str) -> (u64, u64) {
    let metrics = Json::parse(&client::get(addr, "/metrics").unwrap().body).unwrap();
    let pool = metrics.get("pool").unwrap();
    let count = |name: &str| pool.get(name).unwrap().as_u64().unwrap();
    (count("memo_hits"), count("memo_misses"))
}

/// `(search_hits, search_misses)` from `/metrics`.
fn search(addr: &str) -> (u64, u64) {
    let metrics = Json::parse(&client::get(addr, "/metrics").unwrap().body).unwrap();
    let pool = metrics.get("pool").unwrap();
    let count = |name: &str| pool.get(name).unwrap().as_u64().unwrap();
    (count("search_hits"), count("search_misses"))
}

fn cold_answer(body: &str) -> Json {
    let (addr, handle) = start(2);
    let (status, envelope) = optimize(&addr, body);
    assert_eq!(status, 200, "{}", envelope.render());
    stop(&addr, handle);
    envelope
}

fn p34392_body(width: u32) -> String {
    format!(r#"{{"soc":"p34392","params":{{"patterns":2000,"width":{width},"partitions":4}}}}"#)
}

fn cli(width: u32) -> String {
    let width = width.to_string();
    let args = [
        "optimize",
        "p34392",
        "--patterns",
        "2000",
        "--width",
        &width,
        "--partitions",
        "4",
    ];
    soctam_cli::run(&args.map(str::to_owned)).expect("CLI runs")
}

#[test]
fn repeats_and_width_sweeps_are_recalled_with_cold_answers() {
    let _serial = serialize();
    let (addr, handle) = start(2);
    let answers: Vec<Json> = [16, 16, 32]
        .into_iter()
        .map(|width| {
            let (status, envelope) = optimize(&addr, &p34392_body(width));
            assert_eq!(status, 200, "{}", envelope.render());
            envelope
        })
        .collect();
    // One compaction, recalled for the repeat and for the other width.
    assert_eq!(memo(&addr), (2, 1));
    stop(&addr, handle);

    assert_eq!(answers[0], answers[1]);
    assert_eq!(output(&answers[0]), cli(16));
    assert_eq!(answers[2], cold_answer(&p34392_body(32)));
    assert_eq!(output(&answers[2]), cli(32));
}

/// d695 with one scan chain of its first scannable core one cell
/// longer when `longer`, under the same SOC name either way.
fn d695_text(longer: bool) -> String {
    let soc = Benchmark::D695.soc();
    let mut stretched = !longer;
    let cores = soc
        .iter()
        .map(|(_, core)| {
            let mut chains = core.scan_chains().to_vec();
            if !stretched && !chains.is_empty() {
                chains[0] += 1;
                stretched = true;
            }
            CoreSpec::new(
                core.name(),
                core.inputs(),
                core.outputs(),
                core.bidirs(),
                chains,
                core.patterns(),
            )
            .unwrap()
        })
        .collect();
    write_soc(&Soc::new(soc.name(), cores).unwrap())
}

fn inline_body(soc_text: String) -> String {
    Json::obj(vec![
        ("soc_text", Json::str(soc_text)),
        (
            "params",
            Json::parse(r#"{"patterns":300,"width":16,"partitions":2}"#).unwrap(),
        ),
    ])
    .render()
}

#[test]
fn inline_socs_that_share_a_name_do_not_alias() {
    let _serial = serialize();
    let (plain, longer) = (inline_body(d695_text(false)), inline_body(d695_text(true)));
    assert_ne!(plain, longer);
    let (addr, handle) = start(2);
    let (status_plain, answer_plain) = optimize(&addr, &plain);
    let (status_longer, answer_longer) = optimize(&addr, &longer);
    assert_eq!((status_plain, status_longer), (200, 200));
    assert_eq!(memo(&addr), (0, 2));
    stop(&addr, handle);
    assert_eq!(answer_plain, cold_answer(&plain));
    assert_eq!(answer_longer, cold_answer(&longer));
}

const D695: &str = r#"{"soc":"d695","params":{"patterns":300,"width":16,"partitions":2}}"#;

#[test]
fn failed_compactions_are_not_stored() {
    let _serial = serialize();
    let (addr, handle) = start(2);
    {
        let _fault = ScopedFault::new("compaction.partition", FaultAction::Error);
        let (status, envelope) = optimize(&addr, D695);
        assert_eq!(status, 500, "{}", envelope.render());
        let message = envelope.get("error").unwrap().get("message").unwrap();
        assert_eq!(
            message.as_str(),
            Some("compaction error: injected fault at failpoint `compaction.partition`")
        );
    }
    assert_eq!(memo(&addr), (0, 1));
    let (status, envelope) = optimize(&addr, D695);
    assert_eq!(status, 200, "{}", envelope.render());
    assert_eq!(memo(&addr), (0, 2), "the failure must not have been stored");
    stop(&addr, handle);
}

#[test]
fn failpoints_fail_a_recalled_request_like_a_computed_one() {
    let _serial = serialize();
    let (addr, handle) = start(2);
    let (status, _) = optimize(&addr, D695);
    assert_eq!(status, 200);
    let sites = [
        ("patterns.generate.random", FaultAction::Error),
        ("compaction.partition", FaultAction::Error),
        ("compaction.partition", FaultAction::Panic),
    ];
    for (round, (site, action)) in sites.into_iter().enumerate() {
        let _fault = ScopedFault::new(site, action);
        let recalled = optimize(&addr, D695);
        assert_eq!(recalled.0, 500, "{site}: {}", recalled.1.render());
        assert!(
            recalled.1.render().contains(site),
            "{}",
            recalled.1.render()
        );
        // The same request on a daemon that has never seen it computes.
        let (fresh, fresh_handle) = start(2);
        assert_eq!(optimize(&fresh, D695), recalled, "{site} {action:?}");
        assert_eq!(memo(&fresh), (0, 1));
        stop(&fresh, fresh_handle);
        assert_eq!(memo(&addr), (round as u64 + 1, 1));
    }
    // Disarmed, the memo still serves the stored specs.
    let (status, _) = optimize(&addr, D695);
    assert_eq!(status, 200);
    assert_eq!(memo(&addr), (4, 1));
    stop(&addr, handle);
}

fn d695_i1_body(seed: u64) -> String {
    format!(
        r#"{{"soc":"d695","params":{{"patterns":300,"width":16,"partitions":1,"seed":{seed}}}}}"#
    )
}

#[test]
fn repeated_searches_are_recalled_with_fresh_daemon_answers() {
    let _serial = serialize();
    let (addr, handle) = start(2);
    // Seeds 1 and 7 both compact d695's 300 patterns at i = 1 to one
    // all-core group of 15 patterns: different compactions, one search.
    let answers: Vec<Json> = [1, 1, 7]
        .into_iter()
        .map(|seed| {
            let (status, envelope) = optimize(&addr, &d695_i1_body(seed));
            assert_eq!(status, 200, "{}", envelope.render());
            envelope
        })
        .collect();
    assert_eq!(memo(&addr), (1, 2));
    // The first request searched both portfolio legs; the repeat and
    // the other seed recalled them.
    assert_eq!(search(&addr), (4, 2));
    stop(&addr, handle);

    assert!(output(&answers[2]).starts_with("d695: N_r=300 -> 15 compacted patterns in 1 groups"));
    for (answer, seed) in answers.iter().zip([1, 1, 7]) {
        assert_eq!(*answer, cold_answer(&d695_i1_body(seed)), "seed {seed}");
    }
}
