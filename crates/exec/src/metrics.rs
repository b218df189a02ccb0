//! Runtime observability: atomic counters and per-phase wall-clock
//! timers, surfaced by the CLI `--stats` flag and the daemon's
//! `/metrics`.
//!
//! A [`Metrics`] instance is shared (via `Arc`) between the thread
//! pool, the memoization cache and the pipeline phases. Counters are
//! relaxed atomics — they are diagnostics, not synchronization — and a
//! [`MetricsSnapshot`] is taken once at the end of a run for display.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Shared runtime counters and phase timers.
#[derive(Debug, Default)]
pub struct Metrics {
    tasks_executed: AtomicU64,
    steals: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_evictions: AtomicU64,
    kernel_words_compared: AtomicU64,
    kernel_fast_rejects: AtomicU64,
    duplicates_removed: AtomicU64,
    rail_eval_hits: AtomicU64,
    rail_eval_misses: AtomicU64,
    schedule_reuses: AtomicU64,
    speculative_probes: AtomicU64,
    probe_batches: AtomicU64,
    probe_wasted: AtomicU64,
    probes_pruned: AtomicU64,
    memo_hits: AtomicU64,
    memo_misses: AtomicU64,
    used_hits: AtomicU64,
    used_misses: AtomicU64,
    dist_hits: AtomicU64,
    dist_misses: AtomicU64,
    search_hits: AtomicU64,
    search_misses: AtomicU64,
    phases: Mutex<Vec<(String, Duration)>>,
}

impl Metrics {
    /// Creates a fresh zeroed metrics sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one executed parallel task.
    pub fn count_task(&self) {
        self.tasks_executed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one stolen task (executed from another participant's
    /// chunk).
    pub fn count_steal(&self) {
        self.steals.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an evaluation-cache hit (an architecture evaluation
    /// served from the memo store).
    pub fn count_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an evaluation-cache miss (an architecture evaluation
    /// computed).
    pub fn count_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a memoization-cache entry evicted by a capacity bound.
    pub fn count_cache_eviction(&self) {
        self.cache_evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` care/symbol word comparisons of the packed
    /// compatibility kernel.
    pub fn add_kernel_words_compared(&self, n: u64) {
        self.kernel_words_compared.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `n` compatibility checks rejected by the kernel's bus-driver
    /// prefilter.
    pub fn add_kernel_fast_rejects(&self, n: u64) {
        self.kernel_fast_rejects.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `n` exact-duplicate patterns removed before compaction.
    pub fn add_duplicates_removed(&self, n: u64) {
        self.duplicates_removed.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one per-rail evaluation served from cache or reused
    /// positionally from a delta base.
    pub fn count_rail_eval_hit(&self) {
        self.rail_eval_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one per-rail evaluation actually computed.
    pub fn count_rail_eval_miss(&self) {
        self.rail_eval_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one probe that priced `T_soc^si` without running
    /// Algorithm 1, because no group's time or rails changed.
    pub fn count_schedule_reuse(&self) {
        self.schedule_reuses.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` speculative candidate probes evaluated by the
    /// optimizer's batched move loops.
    pub fn add_speculative_probes(&self, n: u64) {
        self.speculative_probes.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one batched probe round (one candidate set evaluated
    /// speculatively before the ordered reduction).
    pub fn count_probe_batch(&self) {
        self.probe_batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one speculative probe whose result was discarded before
    /// evaluation (budget exhausted mid-batch or poisoned by a fault).
    pub fn count_probe_wasted(&self) {
        self.probe_wasted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one speculative probe settled by an admissible bound: the
    /// candidate could not beat the incumbent, so it was never priced.
    pub fn count_probe_pruned(&self) {
        self.probes_pruned.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one request whose compacted SI groups were recalled from
    /// the shared memo instead of generated and compacted.
    pub fn count_memo_hit(&self) {
        self.memo_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one request that looked up the compaction memo, missed,
    /// and generated and compacted its patterns.
    pub fn count_memo_miss(&self) {
        self.memo_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one rail-staircase lookup served from the evaluator's
    /// memo.
    pub fn count_used_hit(&self) {
        self.used_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one rail-staircase lookup that missed and was computed.
    pub fn count_used_miss(&self) {
        self.used_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one merge probe whose redistribution cost was served
    /// from the evaluator's memo.
    pub fn count_dist_hit(&self) {
        self.dist_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one redistribution-cost lookup that missed.
    pub fn count_dist_miss(&self) {
        self.dist_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one optimizer search leg answered from the search memo.
    pub fn count_search_hit(&self) {
        self.search_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one search-memo lookup that missed, so the leg ran.
    pub fn count_search_miss(&self) {
        self.search_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Times `f` and records the elapsed wall-clock under `name`.
    /// Repeated phases with the same name accumulate.
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = f();
        self.record_phase(name, start.elapsed());
        result
    }

    /// Adds `elapsed` to the phase named `name`.
    pub fn record_phase(&self, name: &str, elapsed: Duration) {
        // Metrics are diagnostics: recover from poisoning rather than
        // letting a panicking timed closure disable stats collection.
        let mut phases = self.phases.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(entry) = phases.iter_mut().find(|(n, _)| n == name) {
            entry.1 += elapsed;
        } else {
            phases.push((name.to_string(), elapsed));
        }
    }

    /// Takes a consistent-enough snapshot for display.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            tasks_executed: self.tasks_executed.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_evictions: self.cache_evictions.load(Ordering::Relaxed),
            kernel_words_compared: self.kernel_words_compared.load(Ordering::Relaxed),
            kernel_fast_rejects: self.kernel_fast_rejects.load(Ordering::Relaxed),
            duplicates_removed: self.duplicates_removed.load(Ordering::Relaxed),
            rail_eval_hits: self.rail_eval_hits.load(Ordering::Relaxed),
            rail_eval_misses: self.rail_eval_misses.load(Ordering::Relaxed),
            schedule_reuses: self.schedule_reuses.load(Ordering::Relaxed),
            speculative_probes: self.speculative_probes.load(Ordering::Relaxed),
            probe_batches: self.probe_batches.load(Ordering::Relaxed),
            probe_wasted: self.probe_wasted.load(Ordering::Relaxed),
            probes_pruned: self.probes_pruned.load(Ordering::Relaxed),
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
            memo_misses: self.memo_misses.load(Ordering::Relaxed),
            used_hits: self.used_hits.load(Ordering::Relaxed),
            used_misses: self.used_misses.load(Ordering::Relaxed),
            dist_hits: self.dist_hits.load(Ordering::Relaxed),
            dist_misses: self.dist_misses.load(Ordering::Relaxed),
            search_hits: self.search_hits.load(Ordering::Relaxed),
            search_misses: self.search_misses.load(Ordering::Relaxed),
            phases: self
                .phases
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone(),
        }
    }
}

/// Point-in-time copy of [`Metrics`], ready for display.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Parallel tasks executed across all `par_map` calls.
    pub tasks_executed: u64,
    /// Tasks executed from a chunk other than the participant's own.
    pub steals: u64,
    /// Evaluation-cache hits (architecture evaluations served from
    /// the memo store).
    pub cache_hits: u64,
    /// Evaluation-cache misses (architecture evaluations computed).
    pub cache_misses: u64,
    /// Memoization-cache entries evicted by a capacity bound.
    pub cache_evictions: u64,
    /// Care/symbol words compared by the packed compatibility kernel.
    pub kernel_words_compared: u64,
    /// Compatibility checks rejected by the kernel's bus prefilter.
    pub kernel_fast_rejects: u64,
    /// Exact-duplicate patterns removed before vertical compaction.
    pub duplicates_removed: u64,
    /// Per-rail evaluations served from cache or positional reuse.
    pub rail_eval_hits: u64,
    /// Per-rail evaluations actually computed.
    pub rail_eval_misses: u64,
    /// Probes that priced `T_soc^si` without running Algorithm 1.
    pub schedule_reuses: u64,
    /// Speculative candidate probes evaluated by the optimizer.
    pub speculative_probes: u64,
    /// Batched probe rounds (candidate sets) evaluated speculatively.
    pub probe_batches: u64,
    /// Speculative probes discarded (budget exhausted or faulted).
    pub probe_wasted: u64,
    /// Speculative probes settled by a bound without being priced.
    pub probes_pruned: u64,
    /// Requests whose compacted SI groups came from the compaction memo.
    pub memo_hits: u64,
    /// Compaction-memo lookups that missed (the groups were computed).
    pub memo_misses: u64,
    /// Rail-staircase lookups served from the evaluator's memo.
    pub used_hits: u64,
    /// Rail-staircase lookups that missed (the staircases were computed).
    pub used_misses: u64,
    /// Redistribution-cost lookups served from the evaluator's memo.
    pub dist_hits: u64,
    /// Redistribution-cost lookups that missed.
    pub dist_misses: u64,
    /// Optimizer search legs answered from the search memo.
    pub search_hits: u64,
    /// Search-memo lookups that missed (the leg ran).
    pub search_misses: u64,
    /// Accumulated wall-clock per named phase, in recording order.
    pub phases: Vec<(String, Duration)>,
}

impl MetricsSnapshot {
    /// Cache hit rate in `[0, 1]`, or `None` when the cache was unused.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            None
        } else {
            Some(self.cache_hits as f64 / total as f64)
        }
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "runtime stats:")?;
        writeln!(f, "  tasks executed : {}", self.tasks_executed)?;
        writeln!(f, "  steals         : {}", self.steals)?;
        match self.cache_hit_rate() {
            Some(rate) => writeln!(
                f,
                "  cache          : {} hits / {} misses ({:.1}% hit rate)",
                self.cache_hits,
                self.cache_misses,
                rate * 100.0
            )?,
            None => writeln!(f, "  cache          : unused")?,
        }
        if self.cache_evictions != 0 {
            writeln!(f, "  cache evictions: {}", self.cache_evictions)?;
        }
        if self.kernel_words_compared != 0 || self.kernel_fast_rejects != 0 {
            writeln!(
                f,
                "  kernel         : {} words compared, {} fast rejects",
                self.kernel_words_compared, self.kernel_fast_rejects
            )?;
        }
        if self.duplicates_removed != 0 {
            writeln!(
                f,
                "  dedup          : {} duplicates removed",
                self.duplicates_removed
            )?;
        }
        if self.rail_eval_hits != 0 || self.rail_eval_misses != 0 {
            writeln!(
                f,
                "  rail evals     : {} hits / {} misses",
                self.rail_eval_hits, self.rail_eval_misses
            )?;
        }
        if self.schedule_reuses != 0 {
            writeln!(f, "  schedule reuse : {}", self.schedule_reuses)?;
        }
        for (label, hits, misses) in [
            ("staircases     ", self.used_hits, self.used_misses),
            ("dist costs     ", self.dist_hits, self.dist_misses),
            ("search memo    ", self.search_hits, self.search_misses),
        ] {
            if hits != 0 || misses != 0 {
                writeln!(f, "  {label}: {hits} hits / {misses} misses")?;
            }
        }
        if self.speculative_probes != 0 || self.probe_batches != 0 {
            writeln!(
                f,
                "  probes         : {} speculative in {} batches ({} wasted, {} pruned)",
                self.speculative_probes, self.probe_batches, self.probe_wasted, self.probes_pruned
            )?;
        }
        if self.memo_hits != 0 || self.memo_misses != 0 {
            writeln!(
                f,
                "  compaction memo: {} hits / {} misses",
                self.memo_hits, self.memo_misses
            )?;
        }
        for (name, elapsed) in &self.phases {
            writeln!(
                f,
                "  phase {name:<14}: {:.3} ms",
                elapsed.as_secs_f64() * 1e3
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.count_task();
        m.count_task();
        m.count_steal();
        m.count_cache_hit();
        m.count_cache_miss();
        let snap = m.snapshot();
        assert_eq!(snap.tasks_executed, 2);
        assert_eq!(snap.steals, 1);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.cache_hit_rate(), Some(0.5));
    }

    #[test]
    fn phases_accumulate_by_name() {
        let m = Metrics::new();
        m.record_phase("compact", Duration::from_millis(3));
        m.record_phase("compact", Duration::from_millis(4));
        m.record_phase("tam", Duration::from_millis(1));
        let snap = m.snapshot();
        assert_eq!(snap.phases.len(), 2);
        assert_eq!(
            snap.phases[0],
            ("compact".to_string(), Duration::from_millis(7))
        );
    }

    #[test]
    fn time_records_and_returns() {
        let m = Metrics::new();
        let v = m.time("work", || 42);
        assert_eq!(v, 42);
        let snap = m.snapshot();
        assert_eq!(snap.phases.len(), 1);
        assert_eq!(snap.phases[0].0, "work");
    }

    #[test]
    fn display_is_stable() {
        let m = Metrics::new();
        m.count_task();
        let text = m.snapshot().to_string();
        assert!(text.contains("tasks executed : 1"));
        assert!(text.contains("cache          : unused"));
        // Kernel, dedup and incremental-evaluation lines only appear
        // once something was counted.
        assert!(!text.contains("kernel"));
        assert!(!text.contains("dedup"));
        assert!(!text.contains("rail evals"));
        assert!(!text.contains("schedule reuse"));
        assert!(!text.contains("probes"));
        assert!(!text.contains("memo"));
        assert!(!text.contains("staircases"));
        assert!(!text.contains("dist costs"));
    }

    #[test]
    fn namespace_counters_accumulate() {
        let m = Metrics::new();
        m.count_used_hit();
        m.count_used_miss();
        m.count_used_miss();
        m.count_dist_miss();
        m.count_search_hit();
        m.count_search_hit();
        let snap = m.snapshot();
        assert_eq!((snap.used_hits, snap.used_misses), (1, 2));
        assert_eq!((snap.dist_hits, snap.dist_misses), (0, 1));
        assert_eq!((snap.search_hits, snap.search_misses), (2, 0));
        let text = snap.to_string();
        assert!(text.contains("staircases     : 1 hits / 2 misses"));
        assert!(text.contains("dist costs     : 0 hits / 1 misses"));
        assert!(text.contains("search memo    : 2 hits / 0 misses"));
    }

    #[test]
    fn memo_counters_accumulate() {
        let m = Metrics::new();
        m.count_memo_miss();
        m.count_memo_hit();
        m.count_memo_hit();
        let snap = m.snapshot();
        assert_eq!((snap.memo_hits, snap.memo_misses), (2, 1));
        // Memo lookups are not evaluator-cache lookups.
        assert_eq!(snap.cache_hit_rate(), None);
        assert!(snap
            .to_string()
            .contains("compaction memo: 2 hits / 1 misses"));
    }

    #[test]
    fn incremental_eval_counters_accumulate() {
        let m = Metrics::new();
        m.count_rail_eval_hit();
        m.count_rail_eval_hit();
        m.count_rail_eval_miss();
        m.count_schedule_reuse();
        let snap = m.snapshot();
        assert_eq!(snap.rail_eval_hits, 2);
        assert_eq!(snap.rail_eval_misses, 1);
        assert_eq!(snap.schedule_reuses, 1);
        let text = snap.to_string();
        assert!(text.contains("rail evals     : 2 hits / 1 misses"));
        assert!(text.contains("schedule reuse : 1"));
    }

    #[test]
    fn probe_counters_accumulate() {
        let m = Metrics::new();
        m.add_speculative_probes(7);
        m.add_speculative_probes(3);
        m.count_probe_batch();
        m.count_probe_batch();
        m.count_probe_wasted();
        m.count_probe_pruned();
        m.count_probe_pruned();
        let snap = m.snapshot();
        assert_eq!(snap.speculative_probes, 10);
        assert_eq!(snap.probe_batches, 2);
        assert_eq!(snap.probe_wasted, 1);
        assert_eq!(snap.probes_pruned, 2);
        let text = snap.to_string();
        assert!(text.contains("probes         : 10 speculative in 2 batches (1 wasted, 2 pruned)"));
    }

    #[test]
    fn kernel_and_dedup_counters_accumulate() {
        let m = Metrics::new();
        m.add_kernel_words_compared(10);
        m.add_kernel_words_compared(5);
        m.add_kernel_fast_rejects(3);
        m.add_duplicates_removed(2);
        let snap = m.snapshot();
        assert_eq!(snap.kernel_words_compared, 15);
        assert_eq!(snap.kernel_fast_rejects, 3);
        assert_eq!(snap.duplicates_removed, 2);
        let text = snap.to_string();
        assert!(text.contains("kernel         : 15 words compared, 3 fast rejects"));
        assert!(text.contains("dedup          : 2 duplicates removed"));
    }
}
