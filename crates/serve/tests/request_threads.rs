//! A request cannot size the daemon's threads. `jobs` and `cache-cap`
//! are CLI-only: the daemon runs every request on the run context it
//! builds from its startup state, so `--max-inflight` admission bounds
//! its threads whatever a request body asks for.
//!
//! The check samples this process's `Threads:` count while a request
//! runs, so it lives in a test binary of its own: no other test's
//! threads can come and go in the count.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use soctam_registry::Json;
use soctam_serve::{client, Server, ServerConfig};

/// This process's live thread count, read from `/proc/self/status`.
fn threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("procfs is readable")
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("status lists a thread count")
}

fn output_field(body: &str) -> String {
    Json::parse(body)
        .expect("response is JSON")
        .get("output")
        .expect("has output")
        .as_str()
        .expect("output is a string")
        .to_owned()
}

#[test]
fn request_jobs_spawns_no_threads() {
    let server = Server::bind(&ServerConfig {
        listen: "127.0.0.1:0".to_owned(),
        jobs: 2,
        ..ServerConfig::default()
    })
    .expect("binds");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("serves"));

    let plain = r#"{"soc":"p34392","params":{"patterns":4000}}"#;
    let asking = r#"{"soc":"p34392","params":{"patterns":4000,"jobs":256}}"#;
    let reference = client::post(&addr, "/v1/tools/optimize", plain).expect("served");
    assert_eq!(reference.status, 200, "{}", reference.body);
    let idle = threads();

    let done = Arc::new(AtomicBool::new(false));
    let request = {
        let (addr, done) = (addr.clone(), Arc::clone(&done));
        std::thread::spawn(move || {
            let response = client::post(&addr, "/v1/tools/optimize", asking);
            done.store(true, Ordering::SeqCst);
            response
        })
    };
    let mut peak = idle;
    while !done.load(Ordering::SeqCst) {
        peak = peak.max(threads());
        std::thread::sleep(Duration::from_micros(200));
    }
    let response = request.join().expect("client thread").expect("served");
    assert_eq!(response.status, 200, "{}", response.body);

    // The request adds its client thread and its connection handler;
    // a pool sized by the body would add `jobs - 1` more.
    assert!(
        peak <= idle + 4,
        "threads rose from {idle} to {peak} while serving `jobs: 256`"
    );
    assert_eq!(
        output_field(&response.body),
        output_field(&reference.body),
        "an ignored jobs field must not change the output"
    );

    // No tool has a probe pool to size: the field is unknown.
    let probe = r#"{"soc":"p34392","params":{"patterns":4000,"probe-jobs":2}}"#;
    let rejected = client::post(&addr, "/v1/tools/optimize", probe).expect("served");
    assert_eq!(rejected.status, 400, "{}", rejected.body);
    let error = Json::parse(&rejected.body)
        .unwrap()
        .get("error")
        .unwrap()
        .clone();
    assert_eq!(error.get("kind").and_then(Json::as_str), Some("usage"));

    let shutdown = client::post(&addr, "/admin/shutdown", "").expect("shutdown");
    assert_eq!(shutdown.status, 200);
    handle.join().expect("accept loop exits cleanly");
}
