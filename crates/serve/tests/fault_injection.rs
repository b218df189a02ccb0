//! Daemon behavior under injected faults and admission pressure.
//!
//! Failpoints are process-global, so every test here serializes on one
//! mutex — a fault armed for one test must never leak into another
//! running concurrently.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use soctam_exec::fault::{FaultAction, ScopedFault};
use soctam_registry::Json;
use soctam_serve::{client, Server, ServerConfig, MAX_IDLE_HANDLERS};

static SERIAL: Mutex<()> = Mutex::new(());

fn serialize() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn start(jobs: usize, max_inflight: usize) -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind(&ServerConfig {
        listen: "127.0.0.1:0".to_owned(),
        jobs,
        max_inflight,
        cache_cap: 1 << 20,
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

#[test]
fn admission_control_rejects_the_overflow_with_a_structured_429() {
    let _serial = serialize();
    let (addr, handle) = start(1, 1);
    // Hold the single slot open by delaying dispatch of the first job.
    let _fault = ScopedFault::new(
        "serve.dispatch",
        FaultAction::Delay(Duration::from_millis(800)),
    );
    let first = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            client::post(&addr, "/v1/tools/info", r#"{"soc":"d695"}"#).unwrap()
        })
    };
    std::thread::sleep(Duration::from_millis(200));
    let second = client::post(&addr, "/v1/tools/info", r#"{"soc":"d695"}"#).unwrap();
    assert_eq!(second.status, 429, "{}", second.body);
    let parsed = Json::parse(&second.body).unwrap();
    let error = parsed.get("error").unwrap();
    assert_eq!(error.get("kind").unwrap().as_str(), Some("rejected"));
    assert!(parsed.get("request_id").is_some());

    let first = first.join().unwrap();
    assert_eq!(first.status, 200, "the admitted job still completes");

    let metrics = Json::parse(&client::get(&addr, "/metrics").unwrap().body).unwrap();
    let rejected = metrics.get("server").unwrap().get("rejected").unwrap();
    assert_eq!(rejected.as_u64(), Some(1));
    stop(&addr, handle);
}

#[test]
fn accept_failpoint_yields_a_structured_503_not_a_hang() {
    let _serial = serialize();
    let (addr, handle) = start(1, 0);
    {
        let _fault = ScopedFault::new("serve.accept", FaultAction::Error);
        let response = client::get(&addr, "/healthz").unwrap();
        assert_eq!(response.status, 503, "{}", response.body);
        let parsed = Json::parse(&response.body).unwrap();
        assert_eq!(
            parsed.get("error").unwrap().get("kind").unwrap().as_str(),
            Some("unavailable")
        );
        assert!(response.body.contains("serve.accept"));
    }
    // The daemon recovers once the fault is cleared.
    let response = client::get(&addr, "/healthz").unwrap();
    assert_eq!(response.status, 200);
    stop(&addr, handle);
}

#[test]
fn dispatch_failpoint_yields_a_structured_500() {
    let _serial = serialize();
    let (addr, handle) = start(1, 0);
    {
        let _fault = ScopedFault::new("serve.dispatch", FaultAction::Error);
        let response = client::post(&addr, "/v1/tools/info", r#"{"soc":"d695"}"#).unwrap();
        assert_eq!(response.status, 500, "{}", response.body);
        assert!(response.body.contains("serve.dispatch"));
    }
    stop(&addr, handle);
}

#[test]
fn tool_panics_are_contained_to_a_500_response() {
    let _serial = serialize();
    let (addr, handle) = start(1, 0);
    {
        // A panic-action failpoint inside the pipeline must not take the
        // connection thread (or the daemon) down with it: either the
        // pipeline boundary converts it to a structured failure or the
        // dispatch catch_unwind does.
        let _fault = ScopedFault::new("exec.cache.lookup", FaultAction::Panic);
        let response = client::post(
            &addr,
            "/v1/tools/optimize",
            r#"{"soc":"d695","params":{"patterns":100,"width":8}}"#,
        )
        .unwrap();
        assert_eq!(response.status, 500, "{}", response.body);
        let kind = Json::parse(&response.body)
            .unwrap()
            .get("error")
            .unwrap()
            .get("kind")
            .unwrap()
            .as_str()
            .unwrap()
            .to_owned();
        assert!(
            kind == "internal" || kind == "failed",
            "unexpected error kind `{kind}`"
        );
    }
    let response = client::get(&addr, "/healthz").unwrap();
    assert_eq!(response.status, 200, "daemon survives the panic");
    stop(&addr, handle);
}

/// A `server` counter (or gauge) from `/metrics`.
fn server_count(addr: &str, key: &str) -> u64 {
    let metrics = Json::parse(&client::get(addr, "/metrics").unwrap().body).unwrap();
    metrics
        .get("server")
        .and_then(|server| server.get(key))
        .and_then(Json::as_u64)
        .unwrap()
}

fn inflight(response: &client::ClientResponse) -> u64 {
    Json::parse(&response.body)
        .unwrap()
        .get("inflight")
        .and_then(Json::as_u64)
        .unwrap()
}

#[test]
fn healthz_answers_while_a_call_is_held_in_dispatch() {
    let _serial = serialize();
    let (addr, handle) = start(1, 0);
    let delay = Duration::from_millis(300);
    let _fault = ScopedFault::new("serve.dispatch", FaultAction::Delay(delay));
    let call = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            client::post(&addr, "/v1/tools/info", r#"{"soc":"d695"}"#).unwrap()
        })
    };
    // `/healthz` is routed before dispatch, so it never passes the
    // delay; poll it until the call holds its admission slot.
    let deadline = Instant::now() + Duration::from_secs(30);
    while inflight(&client::get(&addr, "/healthz").unwrap()) == 0 {
        assert!(Instant::now() < deadline, "the call was never admitted");
    }
    let asked = Instant::now();
    let health = client::get(&addr, "/healthz").unwrap();
    let waited = asked.elapsed();
    assert_eq!(health.status, 200);
    assert_eq!(
        inflight(&health),
        1,
        "answered while the call was in flight"
    );
    assert!(
        waited < delay / 2,
        "/healthz took {waited:?} behind a call held for {delay:?}"
    );
    assert_eq!(call.join().unwrap().status, 200);
    stop(&addr, handle);
}

#[test]
fn a_burst_parks_at_most_the_cap_and_shutdown_joins_every_handler() {
    let _serial = serialize();
    let (addr, handle) = start(1, 0);
    // Connections that send nothing hold their handlers, so the burst
    // needs one handler each.
    let burst = MAX_IDLE_HANDLERS + 4;
    let mut held: Vec<TcpStream> = (0..burst)
        .map(|_| TcpStream::connect(&addr).unwrap())
        .collect();
    // Every `/metrics` read is a connection of its own: once the count
    // covers the burst plus the reads, the burst was accepted.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut reads = 0;
    loop {
        reads += 1;
        if server_count(&addr, "connections") >= (burst + reads) as u64 {
            break;
        }
        assert!(Instant::now() < deadline, "the burst was never accepted");
    }
    assert!(server_count(&addr, "handlers_spawned") > MAX_IDLE_HANDLERS as u64);
    for stream in &mut held {
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n")
            .unwrap();
    }
    for stream in &mut held {
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 "), "{response}");
    }
    let idle = server_count(&addr, "handlers_idle");
    assert!(
        idle <= MAX_IDLE_HANDLERS as u64,
        "{idle} handlers parked, above the cap of {MAX_IDLE_HANDLERS}"
    );

    // The drain must join every handler, parked or not.
    let (done, joined) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        stop(&addr, handle);
        let _ = done.send(());
    });
    assert!(
        joined.recv_timeout(Duration::from_secs(60)).is_ok(),
        "shutdown failed, or hung joining the connection handlers"
    );
}
