//! The daemon: an HTTP server over the shared tool registry, plus an
//! asynchronous job subsystem. Each connection runs on a handler thread
//! of its own, reused across connections: a handler parks after its
//! connection and the accept loop hands the next stream to a parked one,
//! spawning only when none is parked.
//!
//! Every worker connection shares one [`Pool`] (so `--jobs` bounds
//! total parallelism, not per-request parallelism) and one warm
//! [`EvalCache`], which keeps only what a later request can read: a
//! search repeated across requests — same SOC, same width budget, same
//! groups — is recalled with its evaluation instead of recomputed, and
//! an `optimize` request whose SOC, pattern count, seed and partition
//! count were seen before recalls its compacted SI groups instead of
//! generating and compacting again (`memo_hits` in `/metrics`). Each
//! request's working set stays in a store of its own run, unless the
//! request carries a budget: the search memo never answers a budgeted
//! run, so its working set goes to the shared store to warm a repeat.
//! Admission control caps concurrently-running synchronous jobs and
//! rejects the overflow with a structured `429` (carrying a
//! `Retry-After` pacing hint) instead of queueing unboundedly.
//!
//! Long invocations go through `POST /v1/jobs` instead: a bounded FIFO
//! drained by background job workers, with `GET /v1/jobs/{id}` status
//! polling, `DELETE /v1/jobs/{id}` cooperative cancellation and an
//! optional write-ahead journal (`--journal`) that makes acknowledged
//! outcomes survive `kill -9` — see [`crate::journal`] and the job
//! module docs for the recovery contract.

use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, SendError, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use soctam::{EvalCache, MetricsSnapshot, Pool, RunCtx, Soc};
use soctam_exec::fault::panic_message;
use soctam_exec::{fault, signal, CancelToken, Progress};
use soctam_registry::{
    parse_json, resolve_soc, resolve_soc_text, standard_registry, Json, ParamValue, ToolError,
    ToolErrorKind,
};

use crate::http::{read_request, write_response_with, Request};
use crate::job::{parse_job_id, CancelOutcome, JobManager, JobResult, SubmitRejected};
use crate::journal::Journal;

pub use crate::job::RecoverMode;

/// `Retry-After` seconds suggested on admission/queue rejections.
const RETRY_AFTER_SECS: u64 = 1;
/// How often the monitor thread journals job checkpoints.
const CHECKPOINT_INTERVAL: Duration = Duration::from_millis(100);
/// Connection handlers the daemon keeps parked for reuse; a handler
/// that finishes its connection while this many are parked exits
/// instead (`handlers_idle` in `/metrics` never exceeds it).
pub const MAX_IDLE_HANDLERS: usize = 8;

/// How the daemon is configured; see `soctam-serve --help`.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:8080` (`:0` picks a free port).
    pub listen: String,
    /// Worker threads in the shared pool (0 = all cores).
    pub jobs: usize,
    /// Maximum concurrently-running synchronous tool jobs; further
    /// requests get a structured 429. 0 = unlimited.
    pub max_inflight: usize,
    /// Entry bound for the shared cache — evaluations and memoized
    /// compactions alike (FIFO eviction); 0 = unbounded.
    pub cache_cap: usize,
    /// Bound on the async job queue; overflow gets a structured 429
    /// with `Retry-After`. 0 = unbounded.
    pub queue_cap: usize,
    /// Background job-worker threads draining the queue (minimum 1).
    pub job_workers: usize,
    /// Write-ahead journal path; `None` disables crash recovery.
    pub journal: Option<PathBuf>,
    /// How replay treats jobs interrupted by a crash.
    pub recover: RecoverMode,
    /// Print final metrics JSON to stderr on clean shutdown.
    pub stats: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            listen: "127.0.0.1:8080".to_owned(),
            jobs: 0,
            max_inflight: 0,
            // A long-running daemon must not grow without bound; one
            // million entries is roomy: a fresh optimize adds at most
            // five (its group list, two legs and their evaluations), a
            // budgeted one its working set too (~3 * 10^3).
            cache_cap: 1 << 20,
            queue_cap: 64,
            job_workers: 2,
            journal: None,
            recover: RecoverMode::Rerun,
            stats: false,
        }
    }
}

/// A daemon failure (bind error, accept-loop I/O failure, unusable
/// journal).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeError {
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ServeError {}

struct ServerState {
    pool: Pool,
    cache: EvalCache,
    max_inflight: usize,
    inflight: AtomicUsize,
    requests: AtomicU64,
    rejected: AtomicU64,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    /// The listener's address, which [`wake_accept_loop`] connects to.
    local_addr: SocketAddr,
    jobs: JobManager,
    /// Connections the accept loop handed to a handler.
    connections: AtomicU64,
    /// Connection handler threads started.
    handlers_spawned: AtomicU64,
    parked: ParkedHandlers,
}

/// The connection handlers waiting for their next connection, each
/// behind the channel the accept loop sends it over. `None` once the
/// drain closed the set: a handler that finishes then exits.
struct ParkedHandlers(Mutex<Option<Vec<Sender<TcpStream>>>>);

impl ParkedHandlers {
    fn lock(&self) -> std::sync::MutexGuard<'_, Option<Vec<Sender<TcpStream>>>> {
        // Every update is a single push, pop or reset, so a poisoned
        // set is still a valid one.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The most recently parked handler, if any.
    fn take(&self) -> Option<Sender<TcpStream>> {
        self.lock().as_mut()?.pop()
    }

    /// Parks a handler behind `next`; false when the set is closed or
    /// already holds [`MAX_IDLE_HANDLERS`], and the handler should exit.
    fn park(&self, next: Sender<TcpStream>) -> bool {
        match self.lock().as_mut() {
            Some(parked) if parked.len() < MAX_IDLE_HANDLERS => {
                parked.push(next);
                true
            }
            _ => false,
        }
    }

    /// Closes the set: every parked handler's channel disconnects, so it
    /// exits, and no handler parks again.
    fn close(&self) {
        *self.lock() = None;
    }

    fn idle(&self) -> usize {
        self.lock().as_ref().map_or(0, Vec::len)
    }
}

/// A bound, not-yet-running daemon.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    state: Arc<ServerState>,
    job_workers: usize,
    stats: bool,
    replay_note: Option<String>,
}

impl Server {
    /// Binds the listen address and builds the shared state (pool,
    /// warm cache, job manager — replaying the journal when one is
    /// configured). No connection is accepted until [`Server::run`].
    ///
    /// # Errors
    ///
    /// [`ServeError`] when the address cannot be bound or the journal
    /// cannot be opened.
    pub fn bind(config: &ServerConfig) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(&config.listen).map_err(|e| ServeError {
            message: format!("cannot bind `{}`: {e}", config.listen),
        })?;
        let local_addr = listener.local_addr().map_err(|e| ServeError {
            message: format!("cannot resolve local address: {e}"),
        })?;
        let pool = Pool::new(config.jobs);
        let cache = EvalCache::with_capacity_and_metrics(config.cache_cap, pool.metrics());
        let (jobs, replay_note) = match &config.journal {
            Some(path) => {
                let (journal, replay) = Journal::open(path).map_err(|e| ServeError {
                    message: format!("cannot open journal `{}`: {e}", path.display()),
                })?;
                let note = format!(
                    "journal `{}`: {} records replayed, {} corrupt skipped{}",
                    path.display(),
                    replay.records.len(),
                    replay.corrupt,
                    if replay.torn_tail {
                        ", torn tail truncated"
                    } else {
                        ""
                    }
                );
                (
                    JobManager::with_journal(config.queue_cap, journal, &replay, config.recover),
                    Some(note),
                )
            }
            None => (JobManager::new(config.queue_cap), None),
        };
        Ok(Server {
            listener,
            local_addr,
            state: Arc::new(ServerState {
                pool,
                cache,
                max_inflight: config.max_inflight,
                inflight: AtomicUsize::new(0),
                requests: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
                next_id: AtomicU64::new(0),
                shutdown: AtomicBool::new(false),
                local_addr,
                jobs,
                connections: AtomicU64::new(0),
                handlers_spawned: AtomicU64::new(0),
                parked: ParkedHandlers(Mutex::new(Some(Vec::new()))),
            }),
            job_workers: config.job_workers.max(1),
            stats: config.stats,
            replay_note,
        })
    }

    /// The bound address (resolves `:0` to the picked port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A one-line journal replay summary (record/corruption counts),
    /// when a journal is configured. For startup logging.
    pub fn replay_summary(&self) -> Option<&str> {
        self.replay_note.as_deref()
    }

    /// Serves until `POST /admin/shutdown` or a SIGTERM/SIGINT latch
    /// (see [`soctam_exec::signal`]); drains the job queue (running
    /// jobs degrade to best-so-far via their cancel tokens), joins
    /// every worker thread and fsyncs the journal before returning —
    /// so a clean return means no job was abandoned mid-flight.
    ///
    /// # Errors
    ///
    /// [`ServeError`] when the accept loop cannot continue.
    pub fn run(self) -> Result<(), ServeError> {
        let mut job_workers: Vec<JoinHandle<()>> = Vec::new();
        for _ in 0..self.job_workers {
            let state = Arc::clone(&self.state);
            job_workers.push(std::thread::spawn(move || job_worker_loop(&state)));
        }
        let monitor_stop = Arc::new(AtomicBool::new(false));
        // The monitor also wakes the blocked accept loop once a
        // termination signal latched: std's `accept` retries on EINTR,
        // so the signal alone never returns it. It backs up the wake
        // `/admin/shutdown` sends itself, too.
        let monitor = {
            let state = Arc::clone(&self.state);
            let stop = Arc::clone(&monitor_stop);
            std::thread::spawn(move || {
                let mut woken = false;
                while !stop.load(Ordering::SeqCst) {
                    state.jobs.checkpoint_sweep();
                    if !woken && state.stopping() {
                        woken = wake_accept_loop(state.local_addr);
                    }
                    std::thread::sleep(CHECKPOINT_INTERVAL);
                }
            })
        };

        // A blocking accept: a connection is taken the moment it
        // arrives and handed to a parked handler, or to a new one when
        // none is parked, so no connection waits behind a busy handler.
        // Shutdown and termination wake the loop with a throwaway
        // connection ([`wake_accept_loop`]), which is dropped.
        let mut handlers: Vec<JoinHandle<()>> = Vec::new();
        let accept_result = loop {
            if self.state.stopping() {
                break Ok(());
            }
            match self.listener.accept() {
                Ok(_) if self.state.stopping() => break Ok(()),
                Ok((stream, _)) => {
                    self.state.connections.fetch_add(1, Ordering::Relaxed);
                    if let Some(handle) = hand_over(stream, &self.state) {
                        handlers.retain(|handle| !handle.is_finished());
                        handlers.push(handle);
                    }
                }
                Err(e) => {
                    break Err(ServeError {
                        message: format!("accept failed: {e}"),
                    });
                }
            }
        };

        // Drain: no new admissions, queued jobs cancel terminally,
        // running jobs degrade to best-so-far, parked handlers exit and
        // busy ones exit after their connection; then every thread
        // joins and the journal is fsynced. Runs even when the accept
        // loop failed, so no thread is leaked.
        self.state.jobs.drain();
        self.state.parked.close();
        for handle in handlers {
            let _ = handle.join();
        }
        for handle in job_workers {
            let _ = handle.join();
        }
        monitor_stop.store(true, Ordering::SeqCst);
        let _ = monitor.join();
        self.state.jobs.sync_journal();
        if self.stats {
            eprintln!("{}", metrics_json(&self.state).render());
        }
        accept_result
    }
}

impl ServerState {
    /// Whether the accept loop should stop: `/admin/shutdown` or a
    /// SIGTERM/SIGINT latch.
    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || signal::terminate_requested()
    }
}

/// Connects to the daemon's own listener so that an accept loop
/// blocked in `accept` returns and sees the shutdown or termination
/// latch. An unspecified listen address is reached over loopback.
/// Returns whether the connection was made.
fn wake_accept_loop(mut addr: SocketAddr) -> bool {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    TcpStream::connect_timeout(&addr, Duration::from_secs(1)).is_ok()
}

/// RAII admission slot; drops decrement the in-flight gauge even when
/// the job panics.
struct InflightGuard<'a>(&'a ServerState);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A response on its way out. The body stays a [`Json`] value until
/// it is sent, so it is rendered once, request ID included.
struct Response {
    status: u16,
    body: Json,
    retry_after: Option<u64>,
}

impl Response {
    fn json(status: u16, body: Json) -> Response {
        Response {
            status,
            body,
            retry_after: None,
        }
    }

    fn error(status: u16, request_id: Option<&str>, kind: &str, err: &ToolError) -> Response {
        let mut error_fields = vec![
            ("kind", Json::str(kind)),
            ("message", Json::str(err.message.clone())),
        ];
        if !err.codes.is_empty() {
            error_fields.push((
                "codes",
                Json::Arr(err.codes.iter().map(Json::str).collect()),
            ));
        }
        let mut fields = Vec::new();
        if let Some(id) = request_id {
            fields.push(("request_id", Json::str(id)));
        }
        fields.push(("error", Json::obj(error_fields)));
        Response::json(status, Json::obj(fields))
    }

    /// Attaches a `Retry-After` pacing hint (429/503 rejections).
    fn retry_after(mut self, secs: u64) -> Response {
        self.retry_after = Some(secs);
        self
    }
}

/// Hands `stream` to the most recently parked handler, or starts a
/// handler for it when none is parked (returning its join handle).
fn hand_over(mut stream: TcpStream, state: &Arc<ServerState>) -> Option<JoinHandle<()>> {
    while let Some(handler) = state.parked.take() {
        match handler.send(stream) {
            Ok(()) => return None,
            // The handler is gone: the stream goes to the next one.
            Err(SendError(back)) => stream = back,
        }
    }
    state.handlers_spawned.fetch_add(1, Ordering::Relaxed);
    let state = Arc::clone(state);
    Some(std::thread::spawn(move || handler_loop(stream, &state)))
}

/// One connection handler: serves `stream`, parks, and serves each
/// stream the accept loop hands it next, until the parked set is full
/// or closed.
fn handler_loop(mut stream: TcpStream, state: &ServerState) {
    loop {
        handle_connection(&mut stream, state);
        let (next, parked) = mpsc::channel();
        let reused = state.parked.park(next);
        // Closed only once parked: a client that sees its connection
        // end and connects again finds this handler waiting.
        drop(stream);
        if !reused {
            return;
        }
        match parked.recv() {
            Ok(handed) => stream = handed,
            Err(_) => return,
        }
    }
}

fn handle_connection(stream: &mut TcpStream, state: &ServerState) {
    // Read the request before any rejection: closing a socket with
    // unread data sends a TCP RST, which clients see instead of the
    // structured response we wrote.
    let request = read_request(stream);
    // Failpoint: an injected accept-path fault must still produce a
    // structured response on the open socket, never a hung connection.
    if let Err(e) = fault::check("serve.accept") {
        let response = Response::error(503, None, "unavailable", &ToolError::failed(e.to_string()))
            .retry_after(RETRY_AFTER_SECS);
        send(stream, &response);
        return;
    }
    let request = match request {
        Ok(request) => request,
        Err(e) => {
            let response = Response::error(400, None, "malformed", &ToolError::failed(e.message));
            send(stream, &response);
            return;
        }
    };
    let response = route(&request, state);
    send(stream, &response);
}

fn send(stream: &mut TcpStream, response: &Response) {
    let mut headers: Vec<(&str, String)> = Vec::new();
    if let Some(secs) = response.retry_after {
        headers.push(("Retry-After", secs.to_string()));
    }
    let _ = write_response_with(stream, response.status, &response.body.render(), &headers);
}

fn route(request: &Request, state: &ServerState) -> Response {
    state.requests.fetch_add(1, Ordering::Relaxed);
    let path = request.path.split('?').next().unwrap_or("");
    match (request.method.as_str(), path) {
        ("GET", "/v1/tools") => Response::json(
            200,
            Json::obj(vec![("tools", standard_registry().schema())]),
        ),
        ("POST", _) if path.starts_with("/v1/tools/") => {
            let name = &path["/v1/tools/".len()..];
            invoke_tool(name, &request.body, state)
        }
        ("POST", "/v1/jobs") => submit_job(&request.body, state),
        ("GET", "/v1/jobs") => Response::json(200, state.jobs.list_json()),
        ("GET", _) if path.starts_with("/v1/jobs/") => {
            job_status(&path["/v1/jobs/".len()..], state)
        }
        ("DELETE", _) if path.starts_with("/v1/jobs/") => {
            cancel_job(&path["/v1/jobs/".len()..], state)
        }
        ("GET", "/metrics") => Response::json(200, metrics_json(state)),
        ("GET", "/healthz") => Response::json(
            200,
            Json::obj(vec![
                ("status", Json::str("ok")),
                (
                    "inflight",
                    Json::Int(state.inflight.load(Ordering::SeqCst) as i128),
                ),
            ]),
        ),
        ("POST", "/admin/shutdown") => {
            // Drain first so running jobs see their tokens trip before
            // the accept loop even notices the flag.
            state.jobs.drain();
            state.shutdown.store(true, Ordering::SeqCst);
            wake_accept_loop(state.local_addr);
            Response::json(200, Json::obj(vec![("status", Json::str("shutting-down"))]))
        }
        _ => Response::error(
            404,
            None,
            "not-found",
            &ToolError::failed(format!("no route for {} {}", request.method, request.path)),
        ),
    }
}

fn invoke_tool(name: &str, body: &str, state: &ServerState) -> Response {
    let request_id = format!("r{}", state.next_id.fetch_add(1, Ordering::SeqCst) + 1);
    let id = Some(request_id.as_str());
    if standard_registry().get(name).is_none() {
        return Response::error(
            404,
            id,
            "not-found",
            &ToolError::failed(format!("unknown tool `{name}` (GET /v1/tools lists them)")),
        );
    }

    // Admission control: reserve a slot before any parsing work; the
    // rejection is cheap and structured, not a queued or dropped socket.
    let occupied = state.inflight.fetch_add(1, Ordering::SeqCst);
    let guard = InflightGuard(state);
    if state.max_inflight > 0 && occupied >= state.max_inflight {
        drop(guard);
        state.rejected.fetch_add(1, Ordering::Relaxed);
        return Response::error(
            429,
            id,
            "rejected",
            &ToolError::failed(format!(
                "server is at its --max-inflight limit ({}); retry later",
                state.max_inflight
            )),
        )
        .retry_after(RETRY_AFTER_SECS);
    }

    respond_with_id(execute(name, body, state, None, None), &request_id)
}

/// Runs one tool invocation to a response envelope. The body never
/// contains a request ID: the synchronous path puts one first via
/// [`respond_with_id`], while job results must be byte-identical
/// across runs and restarts.
fn execute(
    name: &str,
    body: &str,
    state: &ServerState,
    cancel: Option<CancelToken>,
    progress: Option<Arc<Progress>>,
) -> Response {
    let Some(tool) = standard_registry().get(name) else {
        return Response::error(
            404,
            None,
            "not-found",
            &ToolError::failed(format!("unknown tool `{name}` (GET /v1/tools lists them)")),
        );
    };
    let parsed = match parse_body(tool_body(body)) {
        Ok(parsed) => parsed,
        Err(response) => return response,
    };
    let (soc, params) = match build_invocation(tool.params, &parsed) {
        Ok(pair) => pair,
        Err(response) => return response,
    };
    // Failpoint: dispatch-path fault → structured 500.
    if let Err(e) = fault::check("serve.dispatch") {
        return Response::error(500, None, "failed", &ToolError::failed(e.to_string()));
    }

    // Startup state plus the job's token and sink only: nothing in the
    // request body sizes a pool or a cache (`jobs` and `cache-cap` are
    // CLI-only), so admission bounds the daemon's threads.
    let ctx = RunCtx {
        eval_cache: Some(state.cache.clone()),
        progress,
        cancel,
        ..RunCtx::new(state.pool.clone())
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| (tool.run)(&soc, &params, &ctx)));
    match outcome {
        Ok(Ok(output)) => Response::json(
            200,
            Json::obj(vec![
                ("tool", Json::str(tool.name)),
                ("degraded", Json::Bool(output.degraded)),
                ("output", Json::str(output.text)),
            ]),
        ),
        Ok(Err(err)) => {
            let (status, kind) = match err.kind {
                ToolErrorKind::Usage => (400, "usage"),
                ToolErrorKind::Invalid => (422, "invalid"),
                ToolErrorKind::Failed => (500, "failed"),
            };
            Response::error(status, None, kind, &err)
        }
        Err(panic) => Response::error(
            500,
            None,
            "internal",
            &ToolError::failed(panic_message(panic.as_ref())),
        ),
    }
}

/// One background job worker: drains the queue until the manager says
/// to exit. A panicking job (including an armed `serve.job` panic
/// failpoint) costs that job, never the worker.
fn job_worker_loop(state: &Arc<ServerState>) {
    while let Some(item) = state.jobs.take_next() {
        state.inflight.fetch_add(1, Ordering::SeqCst);
        let guard = InflightGuard(state);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // Failpoint: job-path fault after `started` is journaled,
            // before dispatch — the window a crash leaves a job
            // interrupted.
            if let Err(e) = fault::check("serve.job") {
                return Response::error(500, None, "failed", &ToolError::failed(e.to_string()));
            }
            execute(
                &item.tool,
                &item.body,
                state,
                Some(item.cancel.clone()),
                Some(Arc::clone(&item.progress)),
            )
        }));
        drop(guard);
        let response = match outcome {
            Ok(response) => response,
            Err(panic) => Response::error(
                500,
                None,
                "internal",
                &ToolError::failed(panic_message(panic.as_ref())),
            ),
        };
        state.jobs.finish(
            item.id,
            JobResult {
                status: response.status,
                body: response.body,
            },
        );
    }
}

/// `POST /v1/jobs`: `{"tool": "<name>", "request": {...}}` → 202 with
/// the job ID, or a structured rejection.
fn submit_job(body: &str, state: &ServerState) -> Response {
    let value = match Json::parse(tool_body(body)) {
        Ok(value) => value,
        Err(e) => return Response::error(400, None, "usage", &ToolError::usage(e.to_string())),
    };
    let Some(tool) = value.get("tool").and_then(Json::as_str) else {
        return Response::error(
            400,
            None,
            "usage",
            &ToolError::usage("job body must carry a `tool` name"),
        );
    };
    if standard_registry().get(tool).is_none() {
        return Response::error(
            404,
            None,
            "not-found",
            &ToolError::failed(format!("unknown tool `{tool}` (GET /v1/tools lists them)")),
        );
    }
    let request = value
        .get("request")
        .map_or_else(|| "{}".to_owned(), Json::render);
    match state.jobs.submit(tool, &request) {
        Ok(id) => Response::json(
            202,
            Json::obj(vec![
                ("job", Json::str(format!("j{id}"))),
                ("state", Json::str("queued")),
            ]),
        ),
        Err(SubmitRejected::QueueFull) => {
            state.rejected.fetch_add(1, Ordering::Relaxed);
            Response::error(
                429,
                None,
                "rejected",
                &ToolError::failed("job queue is full; retry later"),
            )
            .retry_after(RETRY_AFTER_SECS)
        }
        Err(SubmitRejected::Draining) => Response::error(
            503,
            None,
            "unavailable",
            &ToolError::failed("server is shutting down"),
        )
        .retry_after(RETRY_AFTER_SECS),
    }
}

fn job_status(segment: &str, state: &ServerState) -> Response {
    let Some(id) = parse_job_id(segment) else {
        return Response::error(
            400,
            None,
            "usage",
            &ToolError::usage(format!("malformed job id `{segment}` (expected jN)")),
        );
    };
    match state.jobs.status_json(id) {
        Some(status) => Response::json(200, status),
        None => Response::error(
            404,
            None,
            "not-found",
            &ToolError::failed(format!("no such job `{segment}`")),
        ),
    }
}

fn cancel_job(segment: &str, state: &ServerState) -> Response {
    let Some(id) = parse_job_id(segment) else {
        return Response::error(
            400,
            None,
            "usage",
            &ToolError::usage(format!("malformed job id `{segment}` (expected jN)")),
        );
    };
    match state.jobs.cancel(id) {
        CancelOutcome::NotFound => Response::error(
            404,
            None,
            "not-found",
            &ToolError::failed(format!("no such job `{segment}`")),
        ),
        CancelOutcome::CancelledQueued => Response::json(
            200,
            Json::obj(vec![
                ("job", Json::str(segment)),
                ("state", Json::str("cancelled")),
            ]),
        ),
        CancelOutcome::Requested => Response::json(
            202,
            Json::obj(vec![
                ("job", Json::str(segment)),
                ("state", Json::str("cancelling")),
            ]),
        ),
        CancelOutcome::AlreadyTerminal(terminal) => Response::error(
            409,
            None,
            "conflict",
            &ToolError::failed(format!("job `{segment}` is already {terminal}")),
        ),
    }
}

/// The parsed fields of a tool-invocation body.
struct ParsedBody {
    soc: Option<String>,
    soc_text: Option<String>,
    params: Json,
    deadline_ms: Option<u64>,
}

fn tool_body(body: &str) -> &str {
    if body.trim().is_empty() {
        "{}"
    } else {
        body
    }
}

fn parse_body(body: &str) -> Result<ParsedBody, Response> {
    let value = Json::parse(body)
        .map_err(|e| Response::error(400, None, "usage", &ToolError::usage(e.to_string())))?;
    let entries = value.as_obj().ok_or_else(|| {
        Response::error(
            400,
            None,
            "usage",
            &ToolError::usage("request body must be a JSON object"),
        )
    })?;
    let mut parsed = ParsedBody {
        soc: None,
        soc_text: None,
        params: Json::Null,
        deadline_ms: None,
    };
    for (key, field) in entries {
        match key.as_str() {
            "soc" => {
                parsed.soc = Some(
                    field
                        .as_str()
                        .ok_or_else(|| bad_field("`soc` must be a string"))?
                        .to_owned(),
                );
            }
            "soc_text" => {
                parsed.soc_text = Some(
                    field
                        .as_str()
                        .ok_or_else(|| bad_field("`soc_text` must be a string"))?
                        .to_owned(),
                );
            }
            "params" => parsed.params = field.clone(),
            "deadline_ms" => {
                parsed.deadline_ms =
                    Some(field.as_u64().ok_or_else(|| {
                        bad_field("`deadline_ms` must be a non-negative integer")
                    })?);
            }
            other => {
                return Err(bad_field(format!(
                    "unknown request field `{other}` (expected soc, soc_text, params, deadline_ms)"
                )));
            }
        }
    }
    Ok(parsed)
}

fn bad_field(message: impl Into<String>) -> Response {
    Response::error(400, None, "usage", &ToolError::usage(message))
}

fn build_invocation(
    specs: &'static [soctam_registry::ParamSpec],
    parsed: &ParsedBody,
) -> Result<(Soc, soctam_registry::ParamValues), Response> {
    let soc = match (&parsed.soc, &parsed.soc_text) {
        (Some(spec), None) => resolve_soc(spec),
        (None, Some(text)) => resolve_soc_text(text, "soc_text"),
        (Some(_), Some(_)) => {
            return Err(bad_field("give either `soc` or `soc_text`, not both"));
        }
        (None, None) => {
            return Err(bad_field(
                "missing `soc` (benchmark name or path) or `soc_text` (inline .soc)",
            ));
        }
    }
    // A SOC the client named but the server cannot resolve is the
    // client's problem, whatever stage detected it: 422, not 500.
    .map_err(|e| {
        Response::error(
            422,
            None,
            "invalid",
            &ToolError {
                kind: ToolErrorKind::Invalid,
                message: e.message,
                codes: e.codes,
            },
        )
    })?;
    let mut params = parse_json(specs, &parsed.params)
        .map_err(|e| Response::error(400, None, "usage", &ToolError::usage(e.message)))?;
    if let Some(ms) = parsed.deadline_ms {
        if !specs.iter().any(|spec| spec.name == "deadline-ms") {
            return Err(bad_field("this tool does not accept `deadline_ms`"));
        }
        params.set("deadline-ms", ParamValue::U64(ms));
    }
    // Profiles resolve on the server's filesystem; a bad file or key is
    // the client's problem and carries its stable PRF-V* code.
    soctam_registry::expand_profile(specs, &mut params)
        .map_err(|e| Response::error(422, None, "invalid", &e))?;
    Ok((soc, params))
}

/// Puts the request ID first in a response's envelope (the envelope
/// helpers build ID-free bodies shared with the job path).
fn respond_with_id(mut response: Response, request_id: &str) -> Response {
    if let Json::Obj(fields) = &mut response.body {
        fields.insert(0, ("request_id".to_owned(), Json::str(request_id)));
    }
    response
}

fn metrics_json(state: &ServerState) -> Json {
    let snapshot: MetricsSnapshot = state.pool.metrics().snapshot();
    let cache_capacity = match state.cache.capacity() {
        Some(cap) => Json::Int(cap as i128),
        None => Json::Null,
    };
    Json::obj(vec![
        (
            "server",
            Json::obj(vec![
                (
                    "requests",
                    Json::Int(state.requests.load(Ordering::Relaxed) as i128),
                ),
                (
                    "inflight",
                    Json::Int(state.inflight.load(Ordering::SeqCst) as i128),
                ),
                (
                    "rejected",
                    Json::Int(state.rejected.load(Ordering::Relaxed) as i128),
                ),
                (
                    "connections",
                    Json::Int(state.connections.load(Ordering::Relaxed) as i128),
                ),
                (
                    "handlers_spawned",
                    Json::Int(state.handlers_spawned.load(Ordering::Relaxed) as i128),
                ),
                ("handlers_idle", Json::Int(state.parked.idle() as i128)),
            ]),
        ),
        ("jobs", state.jobs.metrics_json()),
        (
            "cache",
            Json::obj(vec![
                ("entries", Json::Int(state.cache.len() as i128)),
                ("capacity", cache_capacity),
                ("evictions", Json::Int(state.cache.evictions() as i128)),
            ]),
        ),
        (
            "pool",
            Json::obj(vec![
                ("tasks_executed", Json::Int(snapshot.tasks_executed as i128)),
                ("steals", Json::Int(snapshot.steals as i128)),
                ("cache_hits", Json::Int(snapshot.cache_hits as i128)),
                ("cache_misses", Json::Int(snapshot.cache_misses as i128)),
                (
                    "cache_evictions",
                    Json::Int(snapshot.cache_evictions as i128),
                ),
                (
                    "kernel_words_compared",
                    Json::Int(snapshot.kernel_words_compared as i128),
                ),
                (
                    "kernel_fast_rejects",
                    Json::Int(snapshot.kernel_fast_rejects as i128),
                ),
                (
                    "duplicates_removed",
                    Json::Int(snapshot.duplicates_removed as i128),
                ),
                ("rail_eval_hits", Json::Int(snapshot.rail_eval_hits as i128)),
                (
                    "rail_eval_misses",
                    Json::Int(snapshot.rail_eval_misses as i128),
                ),
                (
                    "schedule_reuses",
                    Json::Int(snapshot.schedule_reuses as i128),
                ),
                (
                    "speculative_probes",
                    Json::Int(snapshot.speculative_probes as i128),
                ),
                ("probe_batches", Json::Int(snapshot.probe_batches as i128)),
                ("probe_wasted", Json::Int(snapshot.probe_wasted as i128)),
                ("probes_pruned", Json::Int(snapshot.probes_pruned as i128)),
                ("memo_hits", Json::Int(snapshot.memo_hits as i128)),
                ("memo_misses", Json::Int(snapshot.memo_misses as i128)),
                ("used_hits", Json::Int(snapshot.used_hits as i128)),
                ("used_misses", Json::Int(snapshot.used_misses as i128)),
                ("dist_hits", Json::Int(snapshot.dist_hits as i128)),
                ("dist_misses", Json::Int(snapshot.dist_misses as i128)),
                ("search_hits", Json::Int(snapshot.search_hits as i128)),
                ("search_misses", Json::Int(snapshot.search_misses as i128)),
                (
                    "phases",
                    Json::Arr(
                        snapshot
                            .phases
                            .iter()
                            .map(|(name, duration)| {
                                Json::obj(vec![
                                    ("name", Json::str(name.clone())),
                                    ("micros", Json::Int(duration.as_micros() as i128)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
    ])
}
