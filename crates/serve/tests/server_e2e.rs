//! End-to-end daemon tests: an in-process server on an ephemeral port,
//! driven through the std-only client — the same path the CI smoke job
//! exercises against the release binary.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use soctam_registry::{standard_registry, Json};
use soctam_serve::{client, Server, ServerConfig};

/// Starts a daemon on an ephemeral port; returns its address and the
/// accept-loop handle (joined after `POST /admin/shutdown`).
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
fn tools_endpoint_publishes_the_registry_schema() {
    let (addr, handle) = start(1, 0);
    let response = client::get(&addr, "/v1/tools").unwrap();
    assert_eq!(response.status, 200);
    let listed = Json::parse(&response.body).unwrap();
    // Byte-for-byte the registry's own schema: CLI subcommands and
    // server routes cannot drift apart.
    assert_eq!(listed.get("tools").unwrap(), &standard_registry().schema());
    stop(&addr, handle);
}

#[test]
fn cli_and_server_reports_are_byte_identical() {
    let (addr, handle) = start(1, 0);
    // One golden per benchmark: d695 and p34392 (optimize).
    for (soc, body, cli_args) in [
        (
            "d695",
            r#"{"soc":"d695","params":{"patterns":300,"width":16,"partitions":2}}"#,
            vec![
                "optimize",
                "d695",
                "--patterns",
                "300",
                "--width",
                "16",
                "--partitions",
                "2",
            ],
        ),
        (
            "p34392",
            r#"{"soc":"p34392","params":{"patterns":200,"width":16}}"#,
            vec!["optimize", "p34392", "--patterns", "200", "--width", "16"],
        ),
    ] {
        let via_cli = soctam_cli::run(&cli_args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
            .expect("CLI runs");
        let response = client::post(&addr, "/v1/tools/optimize", body).unwrap();
        assert_eq!(response.status, 200, "{soc}: {}", response.body);
        // Identical modulo the request ID (which lives outside `output`).
        assert_eq!(output_field(&response.body), via_cli, "{soc}");
        let parsed = Json::parse(&response.body).unwrap();
        assert!(parsed
            .get("request_id")
            .unwrap()
            .as_str()
            .unwrap()
            .starts_with('r'));
        assert_eq!(parsed.get("degraded").unwrap(), &Json::Bool(false));
    }
    stop(&addr, handle);
}

#[test]
fn concurrent_clients_get_deterministic_results_at_any_pool_size() {
    let body = r#"{"soc":"d695","params":{"patterns":200,"width":8,"partitions":2}}"#;
    let mut reference: Option<String> = None;
    for jobs in [1usize, 4, 8] {
        let (addr, handle) = start(jobs, 0);
        let clients: Vec<_> = (0..4)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let response = client::post(&addr, "/v1/tools/optimize", body).unwrap();
                    assert_eq!(response.status, 200, "{}", response.body);
                    output_field(&response.body)
                })
            })
            .collect();
        for client_thread in clients {
            let output = client_thread.join().unwrap();
            match &reference {
                Some(expected) => assert_eq!(&output, expected, "jobs={jobs}"),
                None => reference = Some(output),
            }
        }
        stop(&addr, handle);
    }
}

#[test]
fn per_request_deadline_degrades_to_best_so_far() {
    let (addr, handle) = start(1, 0);
    let response = client::post(
        &addr,
        "/v1/tools/optimize",
        r#"{"soc":"d695","params":{"patterns":200,"width":8,"max-iters":1},"deadline_ms":60000}"#,
    )
    .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let parsed = Json::parse(&response.body).unwrap();
    assert_eq!(parsed.get("degraded").unwrap(), &Json::Bool(true));
    assert!(output_field(&response.body).contains("optimization budget exhausted"));

    // deadline_ms is rejected on tools that cannot degrade.
    let response =
        client::post(&addr, "/v1/tools/info", r#"{"soc":"d695","deadline_ms":5}"#).unwrap();
    assert_eq!(response.status, 400, "{}", response.body);
    stop(&addr, handle);
}

#[test]
fn malformed_requests_get_structured_errors_with_stable_codes() {
    let (addr, handle) = start(1, 0);

    // Broken JSON → 400 usage.
    let r = client::post(&addr, "/v1/tools/optimize", "{nope").unwrap();
    assert_eq!(r.status, 400, "{}", r.body);
    let kind = |body: &str| {
        Json::parse(body)
            .unwrap()
            .get("error")
            .unwrap()
            .get("kind")
            .unwrap()
            .as_str()
            .unwrap()
            .to_owned()
    };
    assert_eq!(kind(&r.body), "usage");

    // Unknown tool → 404.
    let r = client::post(&addr, "/v1/tools/frobnicate", r#"{"soc":"d695"}"#).unwrap();
    assert_eq!(r.status, 404);
    assert_eq!(kind(&r.body), "not-found");

    // Unknown parameter → 400 (strict schema, same as the CLI).
    let r = client::post(
        &addr,
        "/v1/tools/optimize",
        r#"{"soc":"d695","params":{"patern":7}}"#,
    )
    .unwrap();
    assert_eq!(r.status, 400);
    assert!(r.body.contains("patern"));

    // No tool takes a `backend` parameter: it is unknown like any other.
    let r = client::post(
        &addr,
        "/v1/tools/optimize",
        r#"{"soc":"d695","params":{"backend":"tr-architect"}}"#,
    )
    .unwrap();
    assert_eq!(r.status, 400, "{}", r.body);
    assert!(r.body.contains("unknown parameter `backend`"));

    // Missing SOC → 400.
    let r = client::post(&addr, "/v1/tools/optimize", "{}").unwrap();
    assert_eq!(r.status, 400);

    // Unresolvable SOC → 422 invalid.
    let r = client::post(&addr, "/v1/tools/info", r#"{"soc":"/nonexistent/x.soc"}"#).unwrap();
    assert_eq!(r.status, 422);
    assert_eq!(kind(&r.body), "invalid");

    // Inline SOC text that fails validation → 422 with SOC-V* codes.
    let r = client::post(&addr, "/v1/tools/info", r#"{"soc_text":"not an soc file"}"#).unwrap();
    assert_eq!(r.status, 422, "{}", r.body);

    // Unknown route → 404.
    let r = client::get(&addr, "/v2/everything").unwrap();
    assert_eq!(r.status, 404);

    stop(&addr, handle);
}

#[test]
fn zero_widths_are_invalid_and_rejected_before_any_work() {
    let (addr, handle) = start(1, 0);
    let entries = |addr: &str| {
        let metrics = Json::parse(&client::get(addr, "/metrics").unwrap().body).unwrap();
        metrics.get("cache").and_then(|c| c.get("entries")).cloned()
    };
    let before = entries(&addr);
    let too_wide = "tam width budget";
    let above_limit = (soctam::tam::MAX_TAM_WIDTH + 1).to_string();
    let huge = u32::MAX.to_string();
    let zero = "tam width budget must be at least 1";
    for (tool, param, value, expected) in [
        ("optimize", "width", "0", zero),
        ("simulate", "width", "0", zero),
        ("table", "widths", "8,0", zero),
        ("bounds", "widths", "0", zero),
        // Above the limit: a table or wrapper design this wide would
        // not fit in memory, and an allocation failure aborts the
        // process instead of unwinding.
        ("optimize", "width", &huge, too_wide),
        ("optimize", "width", &above_limit, too_wide),
        ("simulate", "width", &huge, too_wide),
        ("table", "widths", &format!("8,{huge}"), too_wide),
        ("bounds", "widths", &huge, too_wide),
        ("bounds", "widths", &above_limit, too_wide),
    ] {
        let json = match param {
            "widths" => format!("[{value}]"),
            _ => value.to_owned(),
        };
        let body = format!(r#"{{"soc":"d695","params":{{"patterns":100,"{param}":{json}}}}}"#);
        let r = client::post(&addr, &format!("/v1/tools/{tool}"), &body).unwrap();
        assert_eq!(r.status, 422, "{tool}: {}", r.body);
        let error = Json::parse(&r.body).unwrap().get("error").unwrap().clone();
        assert_eq!(error.get("kind").unwrap().as_str(), Some("invalid"));
        let message = error.get("message").unwrap().as_str().unwrap().to_owned();
        assert!(message.contains(expected), "{message}");
        if expected == too_wide {
            assert!(message.contains("exceeds the limit of 4096"), "{message}");
        }

        // The CLI reports the same message with exit 1.
        let flag = format!("--{param}");
        let args = [tool, "d695", "--patterns", "100", &flag, value].map(String::from);
        let err = soctam_cli::run(&args).unwrap_err();
        assert_eq!(err.code, 1, "{tool}: {}", err.message);
        assert!(err.message.contains(&message), "{tool}: {}", err.message);
    }
    assert_eq!(entries(&addr), before, "a rejected request stores nothing");
    // The daemon survived every rejection and still serves, also at
    // the limit itself.
    let body = format!(
        r#"{{"soc":"d695","params":{{"patterns":100,"width":{}}}}}"#,
        soctam::tam::MAX_TAM_WIDTH
    );
    let r = client::post(&addr, "/v1/tools/optimize", &body).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(output_field(&r.body).contains("T_soc"));
    stop(&addr, handle);
}

#[test]
fn zero_partitions_are_invalid_and_rejected_before_any_work() {
    let (addr, handle) = start(1, 0);
    let work = |addr: &str| {
        let metrics = Json::parse(&client::get(addr, "/metrics").unwrap().body).unwrap();
        let read = |section: &str, key: &str| metrics.get(section)?.get(key).cloned();
        (read("pool", "tasks_executed"), read("cache", "entries"))
    };
    let before = work(&addr);
    // `i = 0` is no compaction: a table would print it as a `g0` column
    // and price dTg% against the baseline, and optimize would run i = 1.
    for (tool, param, json, value) in [
        ("optimize", "partitions", "0", "0"),
        ("simulate", "partitions", "0", "0"),
        ("compact", "partitions", "0", "0"),
        ("bounds", "partitions", "0", "0"),
        ("table", "parts", "[0]", "0"),
        ("table", "parts", "[1,0]", "1,0"),
    ] {
        let body = format!(r#"{{"soc":"d695","params":{{"patterns":100,"{param}":{json}}}}}"#);
        let r = client::post(&addr, &format!("/v1/tools/{tool}"), &body).unwrap();
        assert_eq!(r.status, 422, "{tool}: {}", r.body);
        let error = Json::parse(&r.body).unwrap().get("error").unwrap().clone();
        assert_eq!(error.get("kind").unwrap().as_str(), Some("invalid"));
        let message = error.get("message").unwrap().as_str().unwrap().to_owned();
        assert!(
            message.contains("partition count must be at least 1"),
            "{message}"
        );

        // The CLI reports the same message with exit 1.
        let flag = format!("--{param}");
        let args = [tool, "d695", "--patterns", "100", &flag, value].map(String::from);
        let err = soctam_cli::run(&args).unwrap_err();
        assert_eq!(err.code, 1, "{tool}: {}", err.message);
        assert!(err.message.contains(&message), "{tool}: {}", err.message);
    }
    assert_eq!(
        work(&addr),
        before,
        "a rejected request runs and stores nothing"
    );
    stop(&addr, handle);
}

#[test]
fn inline_soc_text_matches_the_embedded_benchmark() {
    let (addr, handle) = start(1, 0);
    let export = client::post(&addr, "/v1/tools/export", r#"{"soc":"d695"}"#).unwrap();
    assert_eq!(export.status, 200);
    let soc_text = output_field(&export.body);
    let body = Json::obj(vec![
        ("soc_text", Json::str(soc_text)),
        (
            "params",
            Json::parse(r#"{"patterns":200,"width":8}"#).unwrap(),
        ),
    ])
    .render();
    let via_text = client::post(&addr, "/v1/tools/optimize", &body).unwrap();
    assert_eq!(via_text.status, 200, "{}", via_text.body);
    assert!(output_field(&via_text.body).contains("T_soc"));
    stop(&addr, handle);
}

#[test]
fn cross_request_cache_hits_show_up_in_metrics() {
    let (addr, handle) = start(1, 0);
    let body = r#"{"soc":"d695","params":{"patterns":200,"width":8,"partitions":2}}"#;
    let cache_stats = |addr: &str| {
        let metrics = Json::parse(&client::get(addr, "/metrics").unwrap().body).unwrap();
        let entries = metrics
            .get("cache")
            .unwrap()
            .get("entries")
            .unwrap()
            .as_u64()
            .unwrap();
        let hits = metrics
            .get("pool")
            .unwrap()
            .get("cache_hits")
            .unwrap()
            .as_u64()
            .unwrap();
        (entries, hits)
    };

    let first = client::post(&addr, "/v1/tools/optimize", body).unwrap();
    assert_eq!(first.status, 200);
    let (entries_after_first, hits_after_first) = cache_stats(&addr);
    assert!(
        entries_after_first > 0,
        "first run must warm the shared cache"
    );

    // The optimizer probes its candidates speculatively, so one
    // optimize request must surface the speculative-probe counters.
    let pool = Json::parse(&client::get(&addr, "/metrics").unwrap().body).unwrap();
    let pool = pool.get("pool").unwrap().clone();
    let counter = |name: &str| pool.get(name).unwrap().as_u64().unwrap();
    assert!(
        counter("speculative_probes") > 0,
        "an optimize run must record speculative probes"
    );
    assert!(
        counter("probe_batches") > 0,
        "an optimize run must record probe batches"
    );
    let _ = counter("probe_wasted"); // present (zero on a fault-free run)
    let _ = counter("probes_pruned"); // present (candidates settled by a bound)

    let second = client::post(&addr, "/v1/tools/optimize", body).unwrap();
    assert_eq!(second.status, 200);
    assert_eq!(output_field(&second.body), output_field(&first.body));
    let (entries_after_second, hits_after_second) = cache_stats(&addr);
    assert_eq!(
        entries_after_second, entries_after_first,
        "an identical request adds no cache entries"
    );
    assert!(
        hits_after_second > hits_after_first,
        "the second request must be served (partly) from the warm cache"
    );
    stop(&addr, handle);
}

#[test]
fn fresh_requests_leave_only_their_legs_in_the_shared_cache() {
    let (addr, handle) = start(1, 0);
    let entries = |addr: &str| {
        let metrics = Json::parse(&client::get(addr, "/metrics").unwrap().body).unwrap();
        let cache = metrics.get("cache").unwrap();
        cache.get("entries").and_then(Json::as_u64).unwrap()
    };
    let mut before = entries(&addr);
    for seed in 1..=20 {
        let body = format!(
            r#"{{"soc":"d695","params":{{"patterns":500,"width":24,"partitions":1,"seed":{seed}}}}}"#
        );
        let response = client::post(&addr, "/v1/tools/optimize", &body).unwrap();
        assert_eq!(response.status, 200, "seed {seed}: {}", response.body);
        // The compacted groups, the rails of the two portfolio legs and
        // at most one evaluation per leg: a run's working set (its rail
        // components, staircases, redistribution costs and incumbents)
        // stays out of the shared store.
        let after = entries(&addr);
        assert!(
            after - before <= 5,
            "seed {seed}: one request added {} entries",
            after - before
        );
        before = after;
    }
    stop(&addr, handle);
}

#[test]
fn sequential_connections_reuse_their_handler() {
    let (addr, handle) = start(1, 0);
    for _ in 0..50 {
        assert_eq!(client::get(&addr, "/healthz").unwrap().status, 200);
    }
    let metrics = Json::parse(&client::get(&addr, "/metrics").unwrap().body).unwrap();
    let server = metrics.get("server").unwrap();
    let count = |key: &str| server.get(key).and_then(Json::as_u64).unwrap();
    assert!(count("connections") >= 50, "{}", server.render());
    // A handler parks before it closes its connection, so each next
    // connection finds it waiting.
    assert!(
        count("handlers_spawned") <= 2,
        "50 sequential requests spawned {} handlers",
        count("handlers_spawned")
    );
    stop(&addr, handle);
}
