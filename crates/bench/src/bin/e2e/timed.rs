//! The timed pass: a closed loop over the plan's request list, in whole
//! cycles, for about the requested number of seconds. Nothing in the
//! programs is traced here.
//!
//! The pass is cut into windows of whole cycles. Each window records
//! its wall-clock and CPU time, and between windows, with no request in
//! flight, the CPU probe ([`crate::probe`]) measures how fast the
//! machine is running.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::json::Value;
use crate::probe;
use crate::procfs;
use crate::procs::{run_cli, Daemon, Programs, Reply};
use crate::workload::{Plan, JOBS};

/// How often a running CLI process's peak memory is sampled. Reading
/// `/proc/<pid>/status` costs microseconds, so this does not disturb
/// the request.
const RSS_POLL: Duration = Duration::from_millis(5);
/// Requests a daemon serves before its peak memory is read. Its memory
/// grows with the distinct requests it caches, so it is read after a
/// fixed amount of work, not at the end: a faster daemon serves more
/// requests in the same time and would otherwise look bigger. By this
/// point the `serve-optimizer` cache has stopped growing.
const RSS_SAMPLE_OPS: usize = 360;

/// One completed request of the timed pass.
#[derive(Clone, Debug)]
pub struct Op {
    pub index: usize,
    pub reply: Reply,
}

/// A run of whole cycles between two probes.
#[derive(Clone, Debug, Default)]
pub struct Window {
    pub requests: usize,
    pub seconds: f64,
    pub cpu_ms: f64,
    /// Latencies of the window's successful requests.
    pub latencies_ms: Vec<f64>,
    /// The mean of the probes just before and just after the window.
    pub probe_ms: f64,
}

#[derive(Debug)]
pub struct Timed {
    /// In list order.
    pub ops: Vec<Op>,
    pub windows: Vec<Window>,
    pub wall: Duration,
    /// Peak resident set of the programs under test, in kB: the largest
    /// CLI process, or the daemon after [`RSS_SAMPLE_OPS`] requests.
    pub peak_rss_kb: u64,
    /// The daemon's `/metrics` before and after the pass.
    pub metrics: Option<(Value, Value)>,
}

/// Hands out request indices one window at a time and collects the
/// replies. The next window opens only once every request of the last
/// one has completed and the probe has run; after `seconds`, none does.
struct Pass<'a> {
    start: Instant,
    seconds: Duration,
    window: usize,
    cpu_ms: &'a (dyn Fn() -> f64 + Sync),
    state: Mutex<State>,
    reopened: Condvar,
}

struct State {
    next: usize,
    limit: usize,
    stopped: bool,
    ops: Vec<Op>,
    windows: Vec<Window>,
    open: Window,
    opened_at: (Instant, f64),
    probe_before: f64,
}

impl<'a> Pass<'a> {
    fn new(seconds: Duration, window: usize, cpu_ms: &'a (dyn Fn() -> f64 + Sync)) -> Pass<'a> {
        let probe_before = probe::probe_ms();
        let start = Instant::now();
        Pass {
            start,
            seconds,
            window,
            cpu_ms,
            state: Mutex::new(State {
                next: 0,
                limit: window,
                stopped: false,
                ops: Vec::new(),
                windows: Vec::new(),
                open: Window::default(),
                opened_at: (start, cpu_ms()),
                probe_before,
            }),
            reopened: Condvar::new(),
        }
    }

    /// The next request index, waiting for the next window if this one
    /// is fully handed out; `None` once the pass is over.
    fn take(&self) -> Option<usize> {
        let mut state = self.state.lock().expect("pass lock");
        loop {
            if state.stopped {
                return None;
            }
            if state.next < state.limit {
                state.next += 1;
                return Some(state.next - 1);
            }
            state = self.reopened.wait(state).expect("pass lock");
        }
    }

    /// Records one completed request; returns how many have completed.
    /// The request that completes a window closes it.
    fn complete(&self, op: Op) -> usize {
        let mut state = self.state.lock().expect("pass lock");
        if op.reply.output.is_ok() {
            let latency = op.reply.latency.as_secs_f64() * 1e3;
            state.open.latencies_ms.push(latency);
        }
        state.ops.push(op);
        let done = state.ops.len();
        if done == state.limit {
            let (now, cpu) = (Instant::now(), (self.cpu_ms)());
            let probe_after = probe::probe_ms();
            let mut window = std::mem::take(&mut state.open);
            window.requests = self.window;
            window.seconds = (now - state.opened_at.0).as_secs_f64();
            window.cpu_ms = cpu - state.opened_at.1;
            window.probe_ms = (state.probe_before + probe_after) / 2.0;
            state.windows.push(window);
            state.probe_before = probe_after;
            if self.start.elapsed() >= self.seconds {
                state.stopped = true;
            } else {
                state.limit += self.window;
            }
            state.opened_at = (Instant::now(), (self.cpu_ms)());
            self.reopened.notify_all();
        }
        done
    }

    fn finish(self) -> (Vec<Op>, Vec<Window>, Duration) {
        let wall = self.start.elapsed();
        let mut state = self.state.into_inner().expect("pass lock");
        state.ops.sort_by_key(|op| op.index);
        (state.ops, state.windows, wall)
    }
}

/// CLI workloads: one process per request, one at a time.
pub fn run_cli_pass(programs: &Programs, plan: &Plan, seconds: Duration) -> Timed {
    let current = AtomicU32::new(0);
    let peak = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let children_cpu = || procfs::cpu_ticks(None).map_or(0.0, |t| t.children_ms());
    let pass = Pass::new(seconds, plan.window_len(), &children_cpu);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::SeqCst) {
                let pid = current.load(Ordering::SeqCst);
                if pid != 0 {
                    if let Some(kb) = procfs::vm_hwm_kb(pid) {
                        peak.fetch_max(kb, Ordering::SeqCst);
                    }
                }
                std::thread::sleep(RSS_POLL);
            }
        });
        while let Some(index) = pass.take() {
            let reply = run_cli(programs, &plan.request(index), Some(&current));
            pass.complete(Op { index, reply });
        }
        done.store(true, Ordering::SeqCst);
    });
    let (ops, windows, wall) = pass.finish();
    Timed {
        ops,
        windows,
        wall,
        peak_rss_kb: peak.into_inner(),
        metrics: None,
    }
}

/// Serve workloads: [`JOBS`] client connections, each sending its next
/// request when the previous reply arrives.
pub fn run_serve_pass(daemon: &Daemon, plan: &Plan, seconds: Duration) -> Result<Timed, String> {
    let metrics_before = daemon.metrics()?;
    let daemon_cpu = || procfs::cpu_ticks(Some(daemon.pid)).map_or(0.0, |t| t.own_ms());
    let pass = Pass::new(seconds, plan.window_len(), &daemon_cpu);
    let sampled_kb = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..JOBS {
            s.spawn(|| {
                while let Some(index) = pass.take() {
                    let reply = daemon.run(&plan.request(index));
                    if pass.complete(Op { index, reply }) == RSS_SAMPLE_OPS {
                        let kb = procfs::vm_hwm_kb(daemon.pid).unwrap_or(0);
                        sampled_kb.store(kb, Ordering::SeqCst);
                    }
                }
            });
        }
    });
    let (ops, windows, wall) = pass.finish();
    let peak_rss_kb = match sampled_kb.into_inner() {
        0 => procfs::vm_hwm_kb(daemon.pid).ok_or("cannot read daemon VmHWM")?,
        kb => kb,
    };
    let metrics_after = daemon.metrics()?;
    Ok(Timed {
        ops,
        windows,
        wall,
        peak_rss_kb,
        metrics: Some((metrics_before, metrics_after)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(index: usize, ok: bool) -> Op {
        Op {
            index,
            reply: Reply {
                latency: Duration::from_millis(index as u64 + 1),
                output: if ok {
                    Ok(String::new())
                } else {
                    Err(String::new())
                },
            },
        }
    }

    #[test]
    fn a_pass_ends_on_a_window_boundary_and_records_each_window() {
        let cpu = AtomicU64::new(0);
        let read_cpu = || cpu.fetch_add(10, Ordering::SeqCst) as f64;
        // Zero seconds: the first window is the last.
        let pass = Pass::new(Duration::ZERO, 3, &read_cpu);
        let mut taken = Vec::new();
        while let Some(index) = pass.take() {
            taken.push(index);
            pass.complete(op(index, index != 1));
        }
        assert_eq!(taken, [0, 1, 2]);
        let (ops, windows, _) = pass.finish();
        assert_eq!(ops.len(), 3);
        assert_eq!(windows.len(), 1);
        let w = &windows[0];
        assert_eq!(w.requests, 3);
        assert_eq!(w.latencies_ms, [1.0, 3.0]);
        assert_eq!(w.cpu_ms, 10.0);
        assert!(w.probe_ms > 0.0 && w.seconds >= 0.0);
    }

    #[test]
    fn a_window_opens_only_after_the_last_one_completed() {
        let read_cpu = || 0.0;
        let pass = Pass::new(Duration::from_secs(3600), 2, &read_cpu);
        assert_eq!(pass.take(), Some(0));
        assert_eq!(pass.take(), Some(1));
        std::thread::scope(|s| {
            let waiter = s.spawn(|| pass.take());
            pass.complete(op(1, true));
            // Index 2 belongs to the next window, which needs index 0 too.
            assert!(!waiter.is_finished());
            pass.complete(op(0, true));
            assert_eq!(waiter.join().unwrap(), Some(2));
        });
    }
}
