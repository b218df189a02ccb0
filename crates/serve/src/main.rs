//! The `soctam-serve` binary: flag parsing and process I/O only; the
//! daemon logic lives in the library so it can be tested in-process.

use std::process::ExitCode;

use soctam_exec::{fault, signal};
use soctam_serve::{RecoverMode, Server, ServerConfig};

const USAGE: &str = "\
soctam-serve — multi-tenant optimization daemon

USAGE:
    soctam-serve [OPTIONS]

OPTIONS:
    --listen <addr>      listen address            [default: 127.0.0.1:8080]
    --jobs <N>           worker threads (0 = all cores)      [default: 0]
    --max-inflight <N>   concurrent sync job limit
                         (0 = unlimited)                     [default: 0]
    --cache-cap <N>      shared cache entry bound: evaluations and
                         memoized compactions
                         (0 = unbounded)                [default: 1048576]
    --queue-cap <N>      async job queue bound (0 = unbounded)
                                                            [default: 64]
    --job-workers <N>    background job worker threads       [default: 2]
    --journal <path>     write-ahead job journal; replayed on startup
    --recover <mode>     rerun | mark — what to do with jobs a crash
                         interrupted                    [default: rerun]
    --stats              print final metrics JSON to stderr on shutdown
    --help               print this text

ENDPOINTS:
    GET    /v1/tools          tool schemas (shared with the soctam CLI)
    POST   /v1/tools/<name>   run a tool; body:
                              {\"soc\":\"d695\",\"params\":{...},\"deadline_ms\":500}
    POST   /v1/jobs           enqueue a run: {\"tool\":\"optimize\",\"request\":{...}}
    GET    /v1/jobs           list known jobs
    GET    /v1/jobs/<id>      job status / progress / result
    DELETE /v1/jobs/<id>      cooperative cancel (degrades to best-so-far)
    GET    /metrics           server / job / cache / pool counters as JSON
    GET    /healthz           liveness probe
    POST   /admin/shutdown    graceful stop

SIGNALS:
    SIGTERM / SIGINT   graceful stop: drain the queue, degrade running
                       jobs to best-so-far, fsync the journal, exit 0

ENVIRONMENT:
    SOCTAM_FAILPOINTS  deterministic fault injection (see DESIGN.md);
                       the daemon adds sites serve.accept, serve.dispatch,
                       serve.job, serve.journal
";

fn parse_config(args: &[String]) -> Result<ServerConfig, String> {
    let mut config = ServerConfig::default();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value_for = |flag: &str| -> Result<&String, String> {
            iter.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--listen" => config.listen = value_for("--listen")?.clone(),
            "--jobs" => {
                config.jobs = value_for("--jobs")?
                    .parse()
                    .map_err(|_| "invalid --jobs value".to_owned())?;
            }
            "--max-inflight" => {
                config.max_inflight = value_for("--max-inflight")?
                    .parse()
                    .map_err(|_| "invalid --max-inflight value".to_owned())?;
            }
            "--cache-cap" => {
                config.cache_cap = value_for("--cache-cap")?
                    .parse()
                    .map_err(|_| "invalid --cache-cap value".to_owned())?;
            }
            "--queue-cap" => {
                config.queue_cap = value_for("--queue-cap")?
                    .parse()
                    .map_err(|_| "invalid --queue-cap value".to_owned())?;
            }
            "--job-workers" => {
                config.job_workers = value_for("--job-workers")?
                    .parse()
                    .map_err(|_| "invalid --job-workers value".to_owned())?;
            }
            "--journal" => {
                config.journal = Some(value_for("--journal")?.into());
            }
            "--recover" => {
                config.recover = match value_for("--recover")?.as_str() {
                    "rerun" => RecoverMode::Rerun,
                    "mark" => RecoverMode::Mark,
                    other => {
                        return Err(format!(
                            "invalid --recover value `{other}` (expected rerun or mark)"
                        ));
                    }
                };
            }
            "--stats" => config.stats = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown option `{other}` (try --help)")),
        }
    }
    Ok(config)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_config(&args) {
        Ok(config) => config,
        Err(message) if message.is_empty() => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = fault::init_from_env() {
        eprintln!("error: invalid {}: {e}", fault::ENV_VAR);
        return ExitCode::from(2);
    }
    let server = match Server::bind(&config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // SIGTERM/SIGINT latch an atomic flag; the checkpoint monitor sees
    // it and wakes the accept loop blocked in `accept` with a throwaway
    // connection, so a signal gets the same graceful drain as
    // POST /admin/shutdown.
    signal::install_terminate_handlers();
    if let Some(summary) = server.replay_summary() {
        eprintln!("soctam-serve: {summary}");
    }
    // Scripts (and the CI smoke job) scrape this line for the resolved
    // port when `--listen` ends in `:0`.
    println!("soctam-serve listening on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
