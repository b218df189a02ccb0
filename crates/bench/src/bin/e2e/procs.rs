//! The programs under test as child processes: one `soctam` process per
//! CLI request, and the `soctam-serve` daemon reached over HTTP. Every
//! child is waited for; a daemon still running when its handle drops is
//! killed first.

use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::http;
use crate::json::{quote, Value};
use crate::workload::{Mode, Request, SplitMix, JOBS};

/// How often a job's status is polled, as `servectl wait` would.
const JOB_POLL: Duration = Duration::from_millis(5);
/// Longest a single job may take before it counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(120);
/// Longest wait for a fresh daemon to answer `/healthz`, and for a
/// stopping one to exit.
const DAEMON_START_TIMEOUT: Duration = Duration::from_secs(20);
const DAEMON_STOP_TIMEOUT: Duration = Duration::from_secs(20);

/// The two release programs, found next to this benchmark's executable
/// (the build puts all three in one target directory).
#[derive(Clone, Debug)]
pub struct Programs {
    pub cli: PathBuf,
    pub serve: PathBuf,
    pub dir: PathBuf,
}

impl Programs {
    pub fn locate() -> Result<Programs, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate e2e: {e}"))?;
        let dir = exe
            .parent()
            .ok_or("e2e executable has no directory")?
            .to_path_buf();
        let programs = Programs {
            cli: dir.join("soctam"),
            serve: dir.join("soctam-serve"),
            dir,
        };
        for program in [&programs.cli, &programs.serve] {
            if !program.is_file() {
                return Err(format!(
                    "{} not found; build it with `cargo build --release -p soctam-cli -p soctam-serve` \
                     into the same target directory",
                    program.display()
                ));
            }
        }
        Ok(programs)
    }
}

/// The outcome of one request: its latency, and its text output or why
/// it failed.
#[derive(Clone, Debug)]
pub struct Reply {
    pub latency: Duration,
    pub output: Result<String, String>,
}

/// Runs one CLI request to completion. While it runs, its process ID is
/// published in `pid_slot` so that a sampler can read its memory.
pub fn run_cli(programs: &Programs, request: &Request, pid_slot: Option<&AtomicU32>) -> Reply {
    let start = Instant::now();
    let child = Command::new(&programs.cli)
        .args(request.cli_args())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn();
    let child = match child {
        Ok(child) => child,
        Err(e) => {
            return Reply {
                latency: start.elapsed(),
                output: Err(format!("cannot spawn soctam: {e}")),
            }
        }
    };
    if let Some(slot) = pid_slot {
        slot.store(child.id(), Ordering::SeqCst);
    }
    let finished = child.wait_with_output();
    let latency = start.elapsed();
    if let Some(slot) = pid_slot {
        slot.store(0, Ordering::SeqCst);
    }
    let output = match finished {
        Ok(out) if out.status.success() => {
            String::from_utf8(out.stdout).map_err(|_| "non-UTF-8 CLI output".to_owned())
        }
        Ok(out) => Err(format!(
            "{}: soctam exited with {}: {}",
            request.label(),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
        Err(e) => Err(format!("{}: waiting for soctam: {e}", request.label())),
    };
    Reply { latency, output }
}

/// A running daemon. Dropping it kills the process if [`Daemon::stop`]
/// was not called.
pub struct Daemon {
    child: Option<Child>,
    // Held so the daemon never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    pub pid: u32,
    /// Spawn to the first `200` on `/healthz`.
    pub ready: Duration,
    /// Jobs submitted so far.
    jobs: AtomicU64,
}

impl Daemon {
    /// Starts `soctam-serve` on a free local port with [`JOBS`] workers
    /// and waits until it answers `/healthz`.
    pub fn spawn(programs: &Programs, journal: Option<&Path>) -> Result<Daemon, String> {
        let start = Instant::now();
        let mut command = Command::new(&programs.serve);
        command.args(["--listen", "127.0.0.1:0", "--jobs", &JOBS.to_string()]);
        if let Some(path) = journal {
            command.arg("--journal").arg(path);
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn soctam-serve: {e}"))?;
        let pid = child.id();
        let mut stdout = match child.stdout.take() {
            Some(out) => BufReader::new(out),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                return Err("soctam-serve has no stdout".to_owned());
            }
        };
        // The daemon prints `soctam-serve listening on <addr>` once bound.
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(n) if n > 0 => line.trim().rsplit(' ').next().and_then(|a| a.parse().ok()),
            _ => None,
        };
        let mut daemon = Daemon {
            child: Some(child),
            _stdout: stdout,
            addr: addr.unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0))),
            pid,
            ready: Duration::ZERO,
            jobs: AtomicU64::new(0),
        };
        if addr.is_none() {
            return Err(format!("soctam-serve did not report its address: {line:?}"));
        }
        loop {
            match daemon.call("GET", "/healthz", "") {
                Ok(r) if r.status == 200 => break,
                _ if start.elapsed() > DAEMON_START_TIMEOUT => {
                    return Err("soctam-serve never became healthy".to_owned());
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        daemon.ready = start.elapsed();
        Ok(daemon)
    }

    pub fn call(&self, method: &str, path: &str, body: &str) -> io::Result<http::Response> {
        http::request(self.addr, method, path, body)
    }

    /// `/metrics` as parsed JSON.
    pub fn metrics(&self) -> Result<Value, String> {
        let response = self
            .call("GET", "/metrics", "")
            .map_err(|e| format!("GET /metrics: {e}"))?;
        if response.status != 200 {
            return Err(format!("GET /metrics: status {}", response.status));
        }
        Value::parse(&response.body)
    }

    /// Sends `request` the way its mode says and returns its output.
    pub fn run(&self, request: &Request) -> Reply {
        let start = Instant::now();
        let output = match request.mode {
            Mode::Sync => self.run_sync(request),
            Mode::Job => self.run_job(request, start),
        };
        Reply {
            latency: start.elapsed(),
            output: output.map_err(|e| format!("{}: {e}", request.label())),
        }
    }

    /// Sends `requests` over [`JOBS`] connections at once, each taking
    /// every `JOBS`-th request in turn.
    pub fn run_all(&self, requests: &[Request]) -> Vec<Reply> {
        std::thread::scope(|s| {
            let clients: Vec<_> = (0..JOBS)
                .map(|k| {
                    s.spawn(move || {
                        let mine = requests.iter().skip(k).step_by(JOBS);
                        mine.map(|r| self.run(r)).collect::<Vec<_>>()
                    })
                })
                .collect();
            clients
                .into_iter()
                .flat_map(|c| c.join().expect("client thread"))
                .collect()
        })
    }

    fn run_sync(&self, request: &Request) -> Result<String, String> {
        let path = format!("/v1/tools/{}", request.tool_name());
        let response = self
            .call("POST", &path, &request.json_body())
            .map_err(|e| format!("POST {path}: {e}"))?;
        if response.status != 200 {
            return Err(format!("status {}: {}", response.status, response.body));
        }
        envelope_output(&Value::parse(&response.body)?)
    }

    fn run_job(&self, request: &Request, start: Instant) -> Result<String, String> {
        let body = format!(
            r#"{{"tool":{},"request":{}}}"#,
            quote(request.tool_name()),
            request.json_body()
        );
        let response = self
            .call("POST", "/v1/jobs", &body)
            .map_err(|e| format!("POST /v1/jobs: {e}"))?;
        if response.status != 202 {
            return Err(format!(
                "job submit status {}: {}",
                response.status, response.body
            ));
        }
        let submitted = Value::parse(&response.body)?;
        let id = submitted
            .get("job")
            .and_then(Value::as_str)
            .ok_or("job submit reply has no id")?;
        let path = format!("/v1/jobs/{id}");
        // The first poll comes at a varying phase of the interval, so
        // that observed job latencies are not rounded to whole intervals.
        let phase = SplitMix::new(self.jobs.fetch_add(1, Ordering::Relaxed)).next_u64();
        let mut wait = JOB_POLL.mul_f64(phase as f64 / u64::MAX as f64);
        loop {
            std::thread::sleep(wait);
            wait = JOB_POLL;
            let response = self
                .call("GET", &path, "")
                .map_err(|e| format!("GET {path}: {e}"))?;
            if response.status != 200 {
                return Err(format!("job status {}: {}", response.status, response.body));
            }
            let status = Value::parse(&response.body)?;
            match status.get("state").and_then(Value::as_str) {
                Some("done") => {
                    let result = status.get("result").ok_or("done job has no result")?;
                    return envelope_output(result);
                }
                Some("failed" | "cancelled") => {
                    return Err(format!("job ended: {}", response.body));
                }
                _ if start.elapsed() > JOB_TIMEOUT => return Err("job timed out".to_owned()),
                _ => {}
            }
        }
    }

    /// Asks the daemon to shut down and waits for it to exit; kills it
    /// if it does not.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = self.call("POST", "/admin/shutdown", "");
        let Some(mut child) = self.child.take() else {
            return Ok(());
        };
        let deadline = Instant::now() + DAEMON_STOP_TIMEOUT;
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() && asked.is_ok() => return Ok(()),
                Ok(Some(status)) => return Err(format!("soctam-serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("soctam-serve did not stop; killed".to_owned());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The `output` of a successful tool envelope.
fn envelope_output(envelope: &Value) -> Result<String, String> {
    if envelope.get("degraded").and_then(Value::as_bool) != Some(false) {
        return Err(format!("not a converged result: {envelope:?}"));
    }
    envelope
        .get("output")
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| "result has no output".to_owned())
}
