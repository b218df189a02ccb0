//! The asynchronous job subsystem: a bounded FIFO of registry tool
//! invocations executed by background workers, with cooperative
//! cancellation, checkpointed progress and a write-ahead journal.
//!
//! State machine (journal record in parentheses):
//!
//! ```text
//!            submit (submitted)
//!                |
//!             queued ----------- cancel ------------.
//!                |                                  |
//!          worker picks up (started)                |
//!                |                                  v
//!             running --- cancel: token trips --> cancelled
//!             |     |        (degraded best-so-far result)
//!   tool ok (done)  tool error / panic (failed)
//! ```
//!
//! `done`, `failed` and `cancelled` are terminal; their journal
//! records are fsynced before the state is visible to clients, so an
//! acknowledged outcome survives `kill -9`. A job that was `queued`
//! or `running` when the daemon died is *interrupted*; on restart the
//! journal replay either re-enqueues it (`--recover=rerun` — the
//! pipeline is deterministic, so the re-run reproduces a bit-identical
//! result) or marks it failed (`--recover=mark`).

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use soctam_exec::{CancelToken, Progress};
use soctam_registry::Json;

use crate::journal::{Journal, Replay};

/// How restart recovery treats jobs the previous process left
/// unfinished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RecoverMode {
    /// Re-enqueue interrupted jobs; the deterministic pipeline re-runs
    /// them to bit-identical results.
    #[default]
    Rerun,
    /// Mark interrupted jobs failed (`interrupted by daemon restart`)
    /// without re-executing them.
    Mark,
}

/// Lifecycle states; see the module docs for the transitions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum JobState {
    Queued,
    Running,
    Done,
    Failed,
    Cancelled,
}

impl JobState {
    fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

/// A finished invocation: HTTP-ish status plus the response envelope
/// (which never contains a request ID — job bodies must be
/// byte-identical across runs and restarts).
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct JobResult {
    pub(crate) status: u16,
    pub(crate) body: Json,
}

/// One tracked job.
#[derive(Debug)]
struct Job {
    tool: String,
    body: String,
    state: JobState,
    cancel: CancelToken,
    progress: Arc<Progress>,
    result: Option<JobResult>,
    cancel_requested: bool,
    recovered: bool,
    /// Iteration count at the last journaled checkpoint.
    checkpointed: u64,
}

impl Job {
    fn new(tool: String, body: String) -> Job {
        Job {
            tool,
            body,
            state: JobState::Queued,
            cancel: CancelToken::new(),
            progress: Arc::new(Progress::new()),
            result: None,
            cancel_requested: false,
            recovered: false,
            checkpointed: 0,
        }
    }
}

#[derive(Debug, Default)]
struct Table {
    jobs: BTreeMap<u64, Job>,
    queue: VecDeque<u64>,
    next_id: u64,
}

/// Why a submission was turned away.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SubmitRejected {
    /// The bounded queue is full — HTTP 429 with `Retry-After`.
    QueueFull,
    /// The daemon is draining for shutdown — HTTP 503.
    Draining,
}

/// The outcome of a cancellation request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CancelOutcome {
    /// No such job.
    NotFound,
    /// The job was still queued; it is now terminally cancelled.
    CancelledQueued,
    /// The token tripped; the running job will degrade to its
    /// best-so-far result and land in `cancelled`.
    Requested,
    /// The job had already reached a terminal state.
    AlreadyTerminal(&'static str),
}

/// What a worker executes: everything needed to run one job outside
/// any lock.
#[derive(Debug)]
pub(crate) struct WorkItem {
    pub(crate) id: u64,
    pub(crate) tool: String,
    pub(crate) body: String,
    pub(crate) cancel: CancelToken,
    pub(crate) progress: Arc<Progress>,
}

/// The job manager: table + bounded queue + journal + counters.
///
/// Locking discipline: the table mutex is never held across a journal
/// append (the journal has its own lock); workers block on the table's
/// condvar.
#[derive(Debug)]
pub(crate) struct JobManager {
    table: Mutex<Table>,
    work: Condvar,
    queue_cap: usize,
    journal: Option<Journal>,
    draining: AtomicBool,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    recovered: AtomicU64,
    journal_errors: AtomicU64,
}

impl JobManager {
    /// A manager with no journal (in-memory lifecycle only).
    pub(crate) fn new(queue_cap: usize) -> JobManager {
        JobManager {
            table: Mutex::new(Table::default()),
            work: Condvar::new(),
            queue_cap,
            journal: None,
            draining: AtomicBool::new(false),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            recovered: AtomicU64::new(0),
            journal_errors: AtomicU64::new(0),
        }
    }

    /// A journaled manager: applies `replay`, then recovers
    /// interrupted jobs per `mode`.
    pub(crate) fn with_journal(
        queue_cap: usize,
        journal: Journal,
        replay: &Replay,
        mode: RecoverMode,
    ) -> JobManager {
        let mut manager = JobManager::new(queue_cap);
        manager.journal = Some(journal);
        manager.apply_replay(replay, mode);
        manager
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Table> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Rebuilds the table from replayed records and resolves
    /// interrupted jobs. Runs before any worker exists, so the
    /// single-threaded mutations are safe.
    fn apply_replay(&mut self, replay: &Replay, mode: RecoverMode) {
        let mut interrupted: Vec<u64> = Vec::new();
        {
            let mut table = self.lock();
            for record in &replay.records {
                let Some(kind) = record.get("rec").and_then(Json::as_str) else {
                    continue;
                };
                let Some(id) = record.get("job").and_then(Json::as_u64) else {
                    continue;
                };
                table.next_id = table.next_id.max(id);
                match kind {
                    "submitted" => {
                        let tool = record
                            .get("tool")
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_owned();
                        let body = record
                            .get("body")
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_owned();
                        table.jobs.insert(id, Job::new(tool, body));
                        self.submitted.fetch_add(1, Ordering::Relaxed);
                    }
                    "started" => {
                        if let Some(job) = table.jobs.get_mut(&id) {
                            job.state = JobState::Running;
                        }
                    }
                    "done" | "failed" | "cancelled" => {
                        if let Some(job) = table.jobs.get_mut(&id) {
                            // Duplicate terminal records: last wins.
                            job.state = match kind {
                                "done" => JobState::Done,
                                "failed" => JobState::Failed,
                                _ => JobState::Cancelled,
                            };
                            // The record holds the rendered envelope; one
                            // that does not parse is kept as a JSON string.
                            let body = record
                                .get("body")
                                .and_then(Json::as_str)
                                .unwrap_or_default();
                            job.result = Some(JobResult {
                                status: record.get("status").and_then(Json::as_u64).unwrap_or(500)
                                    as u16,
                                body: Json::parse(body).unwrap_or_else(|_| Json::str(body)),
                            });
                        }
                    }
                    // Checkpoints are progress hints; nothing to restore.
                    _ => {}
                }
            }
            for (&id, job) in &mut table.jobs {
                if !job.state.is_terminal() {
                    interrupted.push(id);
                    job.recovered = true;
                }
            }
            match mode {
                RecoverMode::Rerun => {
                    for &id in &interrupted {
                        if let Some(job) = table.jobs.get_mut(&id) {
                            job.state = JobState::Queued;
                        }
                        table.queue.push_back(id);
                    }
                }
                RecoverMode::Mark => {
                    for &id in &interrupted {
                        if let Some(job) = table.jobs.get_mut(&id) {
                            job.state = JobState::Failed;
                            job.result = Some(interrupted_result(&job.tool));
                        }
                    }
                }
            }
        }
        // Journal the re-marks outside the table lock.
        if mode == RecoverMode::Mark {
            for &id in &interrupted {
                let (tool, result) = {
                    let table = self.lock();
                    let job = &table.jobs[&id];
                    (job.tool.clone(), job.result.clone())
                };
                if let Some(result) = result {
                    self.journal_terminal(id, &tool, JobState::Failed, &result);
                }
                self.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.recovered
            .fetch_add(interrupted.len() as u64, Ordering::Relaxed);
        // Prime terminal counters from history so /metrics survives a
        // restart coherently.
        let table = self.lock();
        for job in table.jobs.values() {
            match job.state {
                JobState::Done => {
                    self.completed.fetch_add(1, Ordering::Relaxed);
                }
                JobState::Failed if mode != RecoverMode::Mark || !job.recovered => {
                    self.failed.fetch_add(1, Ordering::Relaxed);
                }
                JobState::Cancelled => {
                    self.cancelled.fetch_add(1, Ordering::Relaxed);
                }
                _ => {}
            }
        }
    }

    /// Appends to the journal, containing both I/O errors and injected
    /// `serve.journal` panics: a journal fault costs one counted
    /// record, never a job or a worker.
    fn journal_append(&self, record: &Json, sync: bool) {
        let Some(journal) = &self.journal else {
            return;
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| journal.append(record, sync)));
        match outcome {
            Ok(Ok(())) => {}
            Ok(Err(_)) | Err(_) => {
                self.journal_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn journal_terminal(&self, id: u64, tool: &str, state: JobState, result: &JobResult) {
        self.journal_append(
            &Json::obj(vec![
                ("rec", Json::str(state.as_str())),
                ("job", Json::Int(id as i128)),
                ("tool", Json::str(tool)),
                ("status", Json::Int(i128::from(result.status))),
                ("body", Json::str(result.body.render())),
            ]),
            true,
        );
    }

    /// Enqueues one invocation; returns the numeric job ID.
    pub(crate) fn submit(&self, tool: &str, body: &str) -> Result<u64, SubmitRejected> {
        if self.draining.load(Ordering::SeqCst) {
            return Err(SubmitRejected::Draining);
        }
        let id = {
            let mut table = self.lock();
            if self.queue_cap > 0 && table.queue.len() >= self.queue_cap {
                return Err(SubmitRejected::QueueFull);
            }
            table.next_id += 1;
            let id = table.next_id;
            table
                .jobs
                .insert(id, Job::new(tool.to_owned(), body.to_owned()));
            id
        };
        // Journal before the job becomes runnable, so a `started`
        // record can never precede its `submitted` record.
        self.journal_append(
            &Json::obj(vec![
                ("rec", Json::str("submitted")),
                ("job", Json::Int(id as i128)),
                ("tool", Json::str(tool)),
                ("body", Json::str(body)),
            ]),
            false,
        );
        {
            let mut table = self.lock();
            table.queue.push_back(id);
        }
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.work.notify_one();
        Ok(id)
    }

    /// Blocks until a job is available (returning its work item) or
    /// the manager is draining with an empty queue (returning `None`
    /// — the worker should exit).
    pub(crate) fn take_next(&self) -> Option<WorkItem> {
        let mut table = self.lock();
        loop {
            while let Some(id) = table.queue.pop_front() {
                let Some(job) = table.jobs.get_mut(&id) else {
                    continue;
                };
                // Skip entries cancelled while still queued.
                if job.state != JobState::Queued {
                    continue;
                }
                job.state = JobState::Running;
                let item = WorkItem {
                    id,
                    tool: job.tool.clone(),
                    body: job.body.clone(),
                    cancel: job.cancel.clone(),
                    progress: Arc::clone(&job.progress),
                };
                drop(table);
                self.journal_append(
                    &Json::obj(vec![
                        ("rec", Json::str("started")),
                        ("job", Json::Int(item.id as i128)),
                    ]),
                    false,
                );
                return Some(item);
            }
            if self.draining.load(Ordering::SeqCst) {
                return None;
            }
            // Timed wait: draining can begin without a queue notify.
            let (guard, _) = self
                .work
                .wait_timeout(table, Duration::from_millis(100))
                .unwrap_or_else(PoisonError::into_inner);
            table = guard;
        }
    }

    /// Records a finished execution. The terminal state is `cancelled`
    /// when cancellation was requested while the job ran (the result —
    /// typically a degraded best-so-far 200 — is still attached),
    /// otherwise `done` for 2xx and `failed` for everything else.
    pub(crate) fn finish(&self, id: u64, result: JobResult) {
        let (tool, state) = {
            let table = self.lock();
            let Some(job) = table.jobs.get(&id) else {
                return;
            };
            let state = if job.cancel_requested || job.cancel.is_cancelled() {
                JobState::Cancelled
            } else if (200..300).contains(&result.status) {
                JobState::Done
            } else {
                JobState::Failed
            };
            (job.tool.clone(), state)
        };
        // WAL discipline: the fsynced terminal record lands before the
        // state becomes visible to clients.
        self.journal_terminal(id, &tool, state, &result);
        {
            let mut table = self.lock();
            if let Some(job) = table.jobs.get_mut(&id) {
                job.state = state;
                job.result = Some(result);
            }
        }
        match state {
            JobState::Done => self.completed.fetch_add(1, Ordering::Relaxed),
            JobState::Cancelled => self.cancelled.fetch_add(1, Ordering::Relaxed),
            _ => self.failed.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Requests cancellation of `id`.
    pub(crate) fn cancel(&self, id: u64) -> CancelOutcome {
        let (outcome, terminal) = {
            let mut table = self.lock();
            let Some(job) = table.jobs.get_mut(&id) else {
                return CancelOutcome::NotFound;
            };
            match job.state {
                JobState::Queued => {
                    job.cancel_requested = true;
                    job.state = JobState::Cancelled;
                    let result = cancelled_queued_result(&job.tool);
                    job.result = Some(result.clone());
                    (
                        CancelOutcome::CancelledQueued,
                        Some((job.tool.clone(), result)),
                    )
                }
                JobState::Running => {
                    job.cancel_requested = true;
                    job.cancel.cancel();
                    (CancelOutcome::Requested, None)
                }
                state => (CancelOutcome::AlreadyTerminal(state.as_str()), None),
            }
        };
        if let Some((tool, result)) = terminal {
            self.journal_terminal(id, &tool, JobState::Cancelled, &result);
            self.cancelled.fetch_add(1, Ordering::Relaxed);
        }
        outcome
    }

    /// Begins shutdown: stops admissions, cancels queued jobs
    /// terminally, trips every running job's token (they degrade to
    /// best-so-far results) and wakes all workers so they drain.
    pub(crate) fn drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        let to_cancel: Vec<(u64, String, JobResult)> = {
            let mut table = self.lock();
            let mut cancelled = Vec::new();
            let queued: Vec<u64> = table.queue.drain(..).collect();
            for id in queued {
                if let Some(job) = table.jobs.get_mut(&id) {
                    if job.state == JobState::Queued {
                        job.state = JobState::Cancelled;
                        job.cancel_requested = true;
                        let result = cancelled_queued_result(&job.tool);
                        job.result = Some(result.clone());
                        cancelled.push((id, job.tool.clone(), result));
                    }
                }
            }
            for job in table.jobs.values_mut() {
                if job.state == JobState::Running {
                    job.cancel_requested = true;
                    job.cancel.cancel();
                }
            }
            cancelled
        };
        for (id, tool, result) in &to_cancel {
            self.journal_terminal(*id, tool, JobState::Cancelled, result);
            self.cancelled.fetch_add(1, Ordering::Relaxed);
        }
        self.work.notify_all();
    }

    /// Journals a progress checkpoint for every running job that moved
    /// since its last one. Called periodically by the monitor thread;
    /// checkpoints are buffered writes (progress hints, not promises).
    pub(crate) fn checkpoint_sweep(&self) {
        let snapshots: Vec<(u64, u64, Option<u64>, u64)> = {
            let mut table = self.lock();
            let mut out = Vec::new();
            for (&id, job) in &mut table.jobs {
                if job.state != JobState::Running {
                    continue;
                }
                let iterations = job.progress.iterations();
                if iterations > job.checkpointed {
                    job.checkpointed = iterations;
                    out.push((id, iterations, job.progress.best(), job.progress.probed()));
                }
            }
            out
        };
        for (id, iterations, best, probed) in snapshots {
            self.journal_append(
                &Json::obj(vec![
                    ("rec", Json::str("checkpoint")),
                    ("job", Json::Int(id as i128)),
                    ("iterations", Json::Int(iterations as i128)),
                    ("best", best.map_or(Json::Null, |b| Json::Int(b as i128))),
                    ("probed", Json::Int(probed as i128)),
                ]),
                false,
            );
        }
    }

    /// Fsyncs the journal (shutdown path); failures are counted, not
    /// fatal.
    pub(crate) fn sync_journal(&self) {
        if let Some(journal) = &self.journal {
            if journal.sync().is_err() {
                self.journal_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Status JSON for one job, or `None` when unknown.
    pub(crate) fn status_json(&self, id: u64) -> Option<Json> {
        let table = self.lock();
        let job = table.jobs.get(&id)?;
        Some(job_json(id, job))
    }

    /// Summary list of every known job, oldest first.
    pub(crate) fn list_json(&self) -> Json {
        let table = self.lock();
        Json::obj(vec![(
            "jobs",
            Json::Arr(
                table
                    .jobs
                    .iter()
                    .map(|(&id, job)| {
                        Json::obj(vec![
                            ("job", Json::str(format!("j{id}"))),
                            ("tool", Json::str(&job.tool)),
                            ("state", Json::str(job.state.as_str())),
                        ])
                    })
                    .collect(),
            ),
        )])
    }

    /// The `/metrics` `jobs` section.
    pub(crate) fn metrics_json(&self) -> Json {
        let (queue_depth, running) = {
            let table = self.lock();
            let running = table
                .jobs
                .values()
                .filter(|j| j.state == JobState::Running)
                .count();
            (table.queue.len(), running)
        };
        Json::obj(vec![
            (
                "submitted",
                Json::Int(self.submitted.load(Ordering::Relaxed) as i128),
            ),
            ("running", Json::Int(running as i128)),
            ("queue_depth", Json::Int(queue_depth as i128)),
            (
                "completed",
                Json::Int(self.completed.load(Ordering::Relaxed) as i128),
            ),
            (
                "failed",
                Json::Int(self.failed.load(Ordering::Relaxed) as i128),
            ),
            (
                "cancelled",
                Json::Int(self.cancelled.load(Ordering::Relaxed) as i128),
            ),
            (
                "recovered",
                Json::Int(self.recovered.load(Ordering::Relaxed) as i128),
            ),
            (
                "journal_errors",
                Json::Int(self.journal_errors.load(Ordering::Relaxed) as i128),
            ),
        ])
    }

    /// True once every known job is terminal.
    #[cfg(test)]
    pub(crate) fn all_terminal(&self) -> bool {
        let table = self.lock();
        table.jobs.values().all(|job| job.state.is_terminal())
    }
}

/// Parses a `jN` job ID path segment.
pub(crate) fn parse_job_id(segment: &str) -> Option<u64> {
    segment.strip_prefix('j')?.parse().ok()
}

fn error_envelope(tool: &str, message: &str) -> Json {
    Json::obj(vec![
        ("tool", Json::str(tool)),
        (
            "error",
            Json::obj(vec![
                ("kind", Json::str("cancelled")),
                ("message", Json::str(message)),
            ]),
        ),
    ])
}

fn cancelled_queued_result(tool: &str) -> JobResult {
    JobResult {
        status: 200,
        body: error_envelope(tool, "job cancelled before it started"),
    }
}

fn interrupted_result(tool: &str) -> JobResult {
    JobResult {
        status: 500,
        body: Json::obj(vec![
            ("tool", Json::str(tool)),
            (
                "error",
                Json::obj(vec![
                    ("kind", Json::str("failed")),
                    ("message", Json::str("interrupted by daemon restart")),
                ]),
            ),
        ]),
    }
}

fn job_json(id: u64, job: &Job) -> Json {
    let mut fields = vec![
        ("job", Json::str(format!("j{id}"))),
        ("tool", Json::str(&job.tool)),
        ("state", Json::str(job.state.as_str())),
        ("recovered", Json::Bool(job.recovered)),
    ];
    if job.state == JobState::Running {
        fields.push((
            "progress",
            Json::obj(vec![
                ("phase", Json::str(job.progress.phase())),
                ("iterations", Json::Int(job.progress.iterations() as i128)),
                ("probed", Json::Int(job.progress.probed() as i128)),
                (
                    "best",
                    job.progress
                        .best()
                        .map_or(Json::Null, |b| Json::Int(b as i128)),
                ),
            ]),
        ));
    }
    if let Some(result) = &job.result {
        fields.push(("status", Json::Int(i128::from(result.status))));
        fields.push(("result", result.body.clone()));
    }
    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_take_finish_lifecycle() {
        let manager = JobManager::new(4);
        let id = manager.submit("info", "{}").unwrap();
        assert_eq!(id, 1);
        let item = manager.take_next().unwrap();
        assert_eq!(item.id, 1);
        assert_eq!(item.tool, "info");
        manager.finish(
            1,
            JobResult {
                status: 200,
                body: Json::parse(r#"{"tool":"info","degraded":false,"output":"x"}"#).unwrap(),
            },
        );
        let status = manager.status_json(1).unwrap();
        assert_eq!(status.get("state").unwrap().as_str(), Some("done"));
        assert!(manager.all_terminal());
    }

    #[test]
    fn bounded_queue_rejects_overflow() {
        let manager = JobManager::new(2);
        manager.submit("info", "{}").unwrap();
        manager.submit("info", "{}").unwrap();
        assert_eq!(manager.submit("info", "{}"), Err(SubmitRejected::QueueFull));
    }

    #[test]
    fn cancel_queued_is_immediately_terminal() {
        let manager = JobManager::new(0);
        let id = manager.submit("optimize", "{}").unwrap();
        assert_eq!(manager.cancel(id), CancelOutcome::CancelledQueued);
        let status = manager.status_json(id).unwrap();
        assert_eq!(status.get("state").unwrap().as_str(), Some("cancelled"));
        // The queue entry is skipped, not executed.
        manager.drain();
        assert!(manager.take_next().is_none());
    }

    #[test]
    fn cancel_running_trips_the_token_and_finish_lands_cancelled() {
        let manager = JobManager::new(0);
        let id = manager.submit("optimize", "{}").unwrap();
        let item = manager.take_next().unwrap();
        assert_eq!(manager.cancel(id), CancelOutcome::Requested);
        assert!(item.cancel.is_cancelled());
        // Even a 200 (degraded best-so-far) lands in `cancelled`.
        manager.finish(
            id,
            JobResult {
                status: 200,
                body: Json::parse(r#"{"tool":"optimize","degraded":true,"output":"x"}"#).unwrap(),
            },
        );
        let status = manager.status_json(id).unwrap();
        assert_eq!(status.get("state").unwrap().as_str(), Some("cancelled"));
        assert_eq!(
            status.get("result").unwrap().get("degraded").unwrap(),
            &Json::Bool(true)
        );
        assert_eq!(
            manager.cancel(id),
            CancelOutcome::AlreadyTerminal("cancelled")
        );
    }

    #[test]
    fn drain_cancels_queued_and_running() {
        let manager = JobManager::new(0);
        let queued = manager.submit("info", "{}").unwrap();
        let running = manager.submit("info", "{}").unwrap();
        // Pull the first submission into the running state.
        let item = manager.take_next().unwrap();
        assert_eq!(item.id, queued);
        manager.drain();
        assert!(item.cancel.is_cancelled());
        let status = manager.status_json(running).unwrap();
        assert_eq!(status.get("state").unwrap().as_str(), Some("cancelled"));
        assert!(manager.take_next().is_none(), "workers drain");
        assert_eq!(manager.submit("info", "{}"), Err(SubmitRejected::Draining));
    }

    #[test]
    fn replay_tolerates_duplicate_terminal_records_last_wins() {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "soctam-job-dup-terminal-{}.wal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        {
            let (journal, _) = Journal::open(&path).unwrap();
            let submit = |id: i128| {
                Json::obj(vec![
                    ("rec", Json::str("submitted")),
                    ("job", Json::Int(id)),
                    ("tool", Json::str("info")),
                    ("body", Json::str("{}")),
                ])
            };
            let terminal = |id: i128, rec: &str, body: &str| {
                Json::obj(vec![
                    ("rec", Json::str(rec)),
                    ("job", Json::Int(id)),
                    ("tool", Json::str("info")),
                    ("status", Json::Int(200)),
                    ("body", Json::str(body)),
                ])
            };
            journal.append(&submit(1), false).unwrap();
            // Re-marking after recovery appends, never rewrites: two
            // terminal records for one job, the later one wins.
            journal
                .append(&terminal(1, "failed", "first"), true)
                .unwrap();
            journal
                .append(&terminal(1, "done", "second"), true)
                .unwrap();
        }
        let (journal, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.corrupt, 0);
        let manager = JobManager::with_journal(0, journal, &replay, RecoverMode::Rerun);
        let status = manager.status_json(1).unwrap();
        assert_eq!(status.get("state").unwrap().as_str(), Some("done"));
        assert_eq!(status.get("result").unwrap().as_str(), Some("second"));
        // Nothing to recover: the job is terminal.
        manager.drain();
        assert!(manager.take_next().is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn job_id_parses() {
        assert_eq!(parse_job_id("j17"), Some(17));
        assert_eq!(parse_job_id("17"), None);
        assert_eq!(parse_job_id("jx"), None);
    }
}
