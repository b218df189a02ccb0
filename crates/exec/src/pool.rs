//! A std-only work-stealing thread pool with deterministic ordered
//! reduction.
//!
//! # Design
//!
//! A [`Pool`] owns `jobs - 1` persistent worker threads; the caller of
//! [`Pool::par_map`] is always the `jobs`-th participant. A call splits
//! the index range `0..n` into one contiguous chunk per participant.
//! Each participant drains its own chunk through an atomic cursor and,
//! once exhausted, *steals* from the chunk with the most remaining
//! work. Every item writes its result into slot `i` of a pre-allocated
//! output vector, so the returned `Vec` is always in input order:
//! **results are bit-identical regardless of thread count or steal
//! interleaving**, provided the mapped function is deterministic per
//! index.
//!
//! The caller participates until every index is claimed, then blocks
//! until every in-flight item has completed and every helper has left
//! the shared context. Because the caller always drives its own call to
//! completion, nested `par_map` from inside a worker cannot deadlock.
//!
//! # Safety argument
//!
//! Helper tasks carry a type-erased pointer to a stack-allocated
//! `MapCtx`. Three invariants keep this sound:
//!
//! 1. A worker increments the call's `active` counter *while holding
//!    the injector lock*, before first touching the context.
//! 2. The caller removes its remaining queued tasks under that same
//!    lock before returning, so no un-started task can observe a dead
//!    context.
//! 3. The caller blocks until `completed == n && active == 0`; the
//!    completion handshake lives in an `Arc` owned by each task, so
//!    late notifications never touch freed memory.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

use crate::fault;
use crate::metrics::Metrics;

/// Locks a pool mutex, recovering from poisoning. Task panics are
/// caught in `try_chunk` *before* they can unwind through a guard, so
/// a poisoned pool lock still protects consistent data; recovering
/// keeps one panicking task from wedging every later `par_map` call.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Handle to a work-stealing thread pool. Cheap to clone; the worker
/// threads shut down when the last handle drops.
#[derive(Clone)]
pub struct Pool {
    core: Arc<PoolCore>,
}

struct PoolCore {
    shared: Arc<Shared>,
    /// Total participants per `par_map` call: worker threads + caller.
    jobs: usize,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

struct Shared {
    injector: Mutex<VecDeque<Task>>,
    work_available: Condvar,
    shutdown: AtomicBool,
    metrics: Arc<Metrics>,
}

/// Completion handshake for one `par_map` call. Owned via `Arc` by the
/// caller and by every queued task, so it outlives any late waker.
struct DoneSync {
    completed: AtomicUsize,
    /// Helpers currently inside the call's `MapCtx`.
    active: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl DoneSync {
    fn new() -> Self {
        Self {
            completed: AtomicUsize::new(0),
            active: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    /// Wakes the caller; taking the lock first closes the race against
    /// the caller's predicate check.
    fn notify(&self) {
        let _guard = lock_recover(&self.lock);
        self.cv.notify_all();
    }
}

/// A queued helper invitation for one `par_map` call.
struct Task {
    run: unsafe fn(*const (), usize),
    ctx: *const (),
    home: usize,
    sync: Arc<DoneSync>,
}

// SAFETY: `ctx` points at a `MapCtx` that is `Sync` (enforced by the
// bounds on `par_map_index`) and is kept alive by the protocol
// described in the module docs.
unsafe impl Send for Task {}

/// One output slot, written exactly once by whichever participant
/// claims its index.
struct Slot<R>(std::cell::UnsafeCell<Option<R>>);

// SAFETY: the claim protocol guarantees at most one writer per slot,
// and the caller only reads after the completion handshake.
unsafe impl<R: Send> Sync for Slot<R> {}

/// Shared state of one `par_map` call, allocated on the caller's stack.
struct MapCtx<'a, R, F> {
    f: &'a F,
    slots: &'a [Slot<R>],
    /// Per-chunk `[start, end)` index bounds.
    bounds: &'a [(usize, usize)],
    /// Per-chunk claim cursors (absolute indices).
    next: &'a [AtomicUsize],
    n: usize,
    sync: &'a DoneSync,
    metrics: &'a Metrics,
}

// SAFETY: callers must pass a pointer obtained by erasing a `MapCtx<R, F>`
// with exactly these `R`/`F` type parameters, and the context must stay
// alive until the pool's completion handshake; `par_map_index` upholds
// both by pairing the erasure and the monomorphized entry in one call.
unsafe fn helper_entry<R, F>(ctx: *const (), home: usize)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    // SAFETY: the pointer was created from a live `MapCtx<R, F>` by
    // `par_map_index`, which blocks until `active` returns to zero.
    let ctx = unsafe { &*(ctx as *const MapCtx<'_, R, F>) };
    participate(ctx, home);
}

/// Claims and runs one item from `chunk`; returns `false` when the
/// chunk is exhausted.
fn try_chunk<R, F>(ctx: &MapCtx<'_, R, F>, chunk: usize, home: usize) -> bool
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let (_, end) = ctx.bounds[chunk];
    if ctx.next[chunk].load(Ordering::Relaxed) >= end {
        return false;
    }
    let idx = ctx.next[chunk].fetch_add(1, Ordering::Relaxed);
    if idx >= end {
        return false;
    }
    match catch_unwind(AssertUnwindSafe(|| {
        fault::hit("exec.pool.task");
        (ctx.f)(idx)
    })) {
        Ok(value) => {
            // SAFETY: `idx` was claimed exclusively above.
            unsafe { *ctx.slots[idx].0.get() = Some(value) };
        }
        Err(payload) => {
            let mut slot = lock_recover(&ctx.sync.panic);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
    }
    ctx.metrics.count_task();
    if chunk != home {
        ctx.metrics.count_steal();
    }
    if ctx.sync.completed.fetch_add(1, Ordering::AcqRel) + 1 == ctx.n {
        ctx.sync.notify();
    }
    true
}

/// Drains the participant's home chunk, then steals from the richest
/// remaining chunk until every index is claimed.
fn participate<R, F>(ctx: &MapCtx<'_, R, F>, home: usize)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    loop {
        if try_chunk(ctx, home, home) {
            continue;
        }
        let mut victim = None;
        let mut most_remaining = 0usize;
        for (chunk, &(_, end)) in ctx.bounds.iter().enumerate() {
            if chunk == home {
                continue;
            }
            let cursor = ctx.next[chunk].load(Ordering::Relaxed);
            let remaining = end.saturating_sub(cursor);
            if remaining > most_remaining {
                most_remaining = remaining;
                victim = Some(chunk);
            }
        }
        match victim {
            Some(chunk) => {
                try_chunk(ctx, chunk, home);
            }
            None => break,
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let task = {
            let mut queue = lock_recover(&shared.injector);
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if let Some(task) = queue.pop_front() {
                    // Registered while the injector lock is held: after
                    // a caller drains its tasks, every survivor is
                    // visible through `active`.
                    task.sync.active.fetch_add(1, Ordering::AcqRel);
                    break task;
                }
                queue = shared
                    .work_available
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // SAFETY: `active > 0` keeps the call's context alive.
        unsafe { (task.run)(task.ctx, task.home) };
        task.sync.active.fetch_sub(1, Ordering::AcqRel);
        task.sync.notify();
    }
}

impl Pool {
    /// Creates a pool where `par_map` runs with `jobs` participants:
    /// `jobs - 1` worker threads plus the calling thread. `jobs == 0`
    /// selects the machine's available parallelism.
    pub fn new(jobs: usize) -> Self {
        let jobs = if jobs == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            jobs
        };
        let shared = Arc::new(Shared {
            injector: Mutex::new(VecDeque::new()),
            work_available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            metrics: Arc::new(Metrics::new()),
        });
        // Degrade gracefully when the OS refuses a thread: correctness
        // never depends on helpers existing — the caller drains every
        // chunk itself if it must — so a failed spawn just means less
        // parallelism, not a panic.
        let handles = (1..jobs)
            .filter_map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("soctam-worker-{i}"))
                    .spawn(move || worker_loop(shared))
                    .ok()
            })
            .collect();
        Self {
            core: Arc::new(PoolCore {
                shared,
                jobs,
                handles: Mutex::new(handles),
            }),
        }
    }

    /// A single-participant pool: `par_map` runs serially on the
    /// calling thread, with identical results.
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// Shared process-wide pool sized to the machine's available
    /// parallelism.
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| Pool::new(0))
    }

    /// Number of participants per call (worker threads + caller).
    pub fn jobs(&self) -> usize {
        self.core.jobs
    }

    /// The pool's metrics sink, shared with caches and phase timers.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.core.shared.metrics)
    }

    /// Maps `f` over `0..n`, returning results in index order.
    ///
    /// Output is **independent of thread count**: slot `i` always holds
    /// `f(i)`. A panic in `f` is re-raised on the calling thread after
    /// the call quiesces.
    pub fn par_map_index<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let metrics = &self.core.shared.metrics;
        let participants = self.core.jobs.min(n);
        if participants <= 1 {
            return (0..n)
                .map(|i| {
                    fault::hit("exec.pool.task");
                    metrics.count_task();
                    f(i)
                })
                .collect();
        }

        let slots: Vec<Slot<R>> = (0..n)
            .map(|_| Slot(std::cell::UnsafeCell::new(None)))
            .collect();
        let bounds: Vec<(usize, usize)> = (0..participants)
            .map(|c| (c * n / participants, (c + 1) * n / participants))
            .collect();
        let next: Vec<AtomicUsize> = bounds
            .iter()
            .map(|&(start, _)| AtomicUsize::new(start))
            .collect();
        let sync = Arc::new(DoneSync::new());
        let ctx = MapCtx {
            f: &f,
            slots: &slots,
            bounds: &bounds,
            next: &next,
            n,
            sync: &sync,
            metrics,
        };
        let ctx_ptr = &ctx as *const MapCtx<'_, R, F> as *const ();

        {
            let mut queue = lock_recover(&self.core.shared.injector);
            for home in 0..participants - 1 {
                queue.push_back(Task {
                    run: helper_entry::<R, F>,
                    ctx: ctx_ptr,
                    home,
                    sync: Arc::clone(&sync),
                });
            }
        }
        self.core.shared.work_available.notify_all();

        // The caller is the last participant and owns the last chunk.
        participate(&ctx, participants - 1);

        // Remove invitations nobody picked up; anything already picked
        // up is tracked by `active`.
        {
            let mut queue = lock_recover(&self.core.shared.injector);
            queue.retain(|task| !std::ptr::eq(task.ctx, ctx_ptr));
        }

        let mut guard = lock_recover(&sync.lock);
        while !(sync.completed.load(Ordering::Acquire) == n
            && sync.active.load(Ordering::Acquire) == 0)
        {
            guard = sync.cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
        }
        drop(guard);

        if let Some(payload) = lock_recover(&sync.panic).take() {
            resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|slot| {
                // Invariant: the completion handshake above guarantees
                // every slot was claimed and written, and a panic in any
                // task re-raises before this point.
                #[allow(clippy::expect_used)]
                slot.0.into_inner().expect("claimed slot left empty")
            })
            .collect()
    }

    /// Maps `f` over a slice, returning results in input order.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.par_map_index(items.len(), |i| f(&items[i]))
    }

    /// Runs a batch of heterogeneous closures on the pool. Closures are
    /// collected while `build` runs and start executing when it
    /// returns; `scope` blocks until all of them finish. Closures may
    /// borrow from the enclosing stack frame.
    pub fn scope<'env>(&self, build: impl FnOnce(&mut Scope<'env>)) {
        let mut scope = Scope { tasks: Vec::new() };
        build(&mut scope);
        let tasks: Vec<Mutex<Option<ScopedTask<'env>>>> = scope
            .tasks
            .into_iter()
            .map(|task| Mutex::new(Some(task)))
            .collect();
        self.par_map_index(tasks.len(), |i| {
            if let Some(task) = lock_recover(&tasks[i]).take() {
                task();
            }
        });
    }
}

impl Drop for PoolCore {
    fn drop(&mut self) {
        {
            // Set under the injector lock: a worker holds it from its
            // `shutdown` check until its wait begins, so the wake-up below
            // cannot fall between the two and leave it asleep forever.
            let _queue = lock_recover(&self.shared.injector);
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.work_available.notify_all();
        let handles = std::mem::take(&mut *lock_recover(&self.handles));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("jobs", &self.core.jobs)
            .finish()
    }
}

type ScopedTask<'env> = Box<dyn FnOnce() + Send + 'env>;

/// Collector for [`Pool::scope`] tasks.
pub struct Scope<'env> {
    tasks: Vec<ScopedTask<'env>>,
}

impl<'env> Scope<'env> {
    /// Registers a closure to run when the scope executes.
    pub fn spawn(&mut self, f: impl FnOnce() + Send + 'env) {
        self.tasks.push(Box::new(f));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_map_matches_serial_map() {
        let pool = Pool::new(4);
        let items: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        assert_eq!(pool.par_map(&items, |x| x * x + 1), expected);
    }

    #[test]
    fn results_are_thread_count_independent() {
        let f = |i: usize| {
            let mut rng = crate::rng::Rng::derive(2007, i as u64);
            (0..16)
                .map(|_| rng.next_u64())
                .fold(0u64, u64::wrapping_add)
        };
        let serial = Pool::new(1).par_map_index(333, f);
        for jobs in [2, 3, 4, 8] {
            assert_eq!(Pool::new(jobs).par_map_index(333, f), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = Pool::new(4);
        assert_eq!(pool.par_map_index(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.par_map_index(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn nested_par_map_does_not_deadlock() {
        let pool = Pool::new(3);
        let outer = pool.par_map_index(8, |i| {
            let inner = pool.par_map_index(8, |j| (i * 8 + j) as u64);
            inner.iter().sum::<u64>()
        });
        let total: u64 = outer.iter().sum();
        assert_eq!(total, (0..64).sum::<u64>());
    }

    #[test]
    fn panic_propagates_to_caller() {
        let pool = Pool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.par_map_index(64, |i| {
                if i == 33 {
                    panic!("boom at {i}");
                }
                i
            })
        }));
        assert!(result.is_err());
        // The pool stays usable afterwards.
        assert_eq!(pool.par_map_index(4, |i| i), vec![0, 1, 2, 3]);
    }

    #[test]
    fn tasks_are_counted() {
        let pool = Pool::new(2);
        pool.par_map_index(100, |i| i);
        let snap = pool.metrics().snapshot();
        assert_eq!(snap.tasks_executed, 100);
    }

    #[test]
    fn scope_runs_every_task_with_borrows() {
        let pool = Pool::new(4);
        let counter = AtomicU64::new(0);
        let values: Vec<u64> = (1..=10).collect();
        let counter_ref = &counter;
        pool.scope(|s| {
            for &v in &values {
                s.spawn(move || {
                    counter_ref.fetch_add(v, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 55);
    }

    #[test]
    fn serial_pool_runs_in_order() {
        let pool = Pool::serial();
        let order = Mutex::new(Vec::new());
        pool.par_map_index(10, |i| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn dropping_fresh_pools_never_strands_a_worker() {
        // Drop races the workers' first wait: a wake-up sent between a
        // worker's shutdown check and its wait used to leave it asleep and
        // the join below it hanging. A watchdog turns a hang into a failure.
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for _ in 0..3_000 {
                let pool = Pool::new(8);
                assert_eq!(pool.par_map_index(16, |i| i).len(), 16);
                drop(pool);
            }
            let _ = done.send(());
        });
        assert!(
            finished
                .recv_timeout(std::time::Duration::from_secs(120))
                .is_ok(),
            "dropping a pool hung on a worker that missed the shutdown wake-up"
        );
    }

    #[test]
    fn heavy_reuse_of_one_pool() {
        let pool = Pool::new(4);
        for round in 0..50 {
            let out = pool.par_map_index(round + 1, |i| i * 2);
            assert_eq!(out, (0..=round).map(|i| i * 2).collect::<Vec<_>>());
        }
    }
}
