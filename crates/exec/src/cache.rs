//! Sharded memoization cache for expensive, pure evaluations.
//!
//! The TAM optimizer re-evaluates the same candidate architecture many
//! times across merge rounds, wire redistribution and multi-start
//! restarts; [`MemoCache`] keyed by an architecture fingerprint turns
//! those repeats into lookups.
//!
//! Correctness note: shard and bucket selection use the in-crate
//! FxHash, and identity is decided by key `Eq`. With full keys a hash
//! collision can never return the wrong value. With [`FpKey`] —
//! a 128-bit fingerprint plus a namespace tag, used where cloning the
//! full key per candidate would dominate the lookup — identity *is*
//! the fingerprint, and correctness rests on the documented
//! ~N²/2¹²⁹ collision odds of `fx_fingerprint128` (negligible at any
//! reachable cache population). Either way cached and uncached runs
//! are bit-identical (determinism is preserved).
//!
//! # Capacity bounds
//!
//! A cache created with [`MemoCache::bounded`] never holds more than
//! its capacity: each shard tracks insertion order and evicts its
//! oldest entries (FIFO) once full. Eviction is a pure capacity
//! mechanism — an evicted entry is simply recomputed on the next miss —
//! so bounded and unbounded runs stay bit-identical. Long-running
//! services (`soctam-serve`) rely on this to keep one warm cache alive
//! across arbitrarily many requests without unbounded growth.
//!
//! The store counts only its evictions into a [`Metrics`] sink. Hits
//! and misses are counted by the callers, which know what a lookup
//! means: one logical lookup may take several store calls, and an
//! insertion after a miss is not a second miss.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::fault;
use crate::hash::{fx_hash_one, FxBuildHasher};
use crate::metrics::Metrics;

/// One lock domain: the bucket map plus (for bounded caches) the FIFO
/// insertion order used for eviction.
#[derive(Debug)]
struct ShardState<K, V> {
    map: HashMap<K, V, FxBuildHasher>,
    /// Insertion order of the live keys; maintained only when the cache
    /// has a capacity bound.
    order: VecDeque<K>,
}

impl<K, V> Default for ShardState<K, V> {
    fn default() -> Self {
        ShardState {
            map: HashMap::default(),
            order: VecDeque::new(),
        }
    }
}

type Shard<K, V> = Mutex<ShardState<K, V>>;

/// Namespaced 128-bit fingerprint key, letting several logical caches
/// (e.g. rail-level and architecture-level evaluations) share one
/// sharded [`MemoCache`] store without aliasing: equal fingerprints in
/// different `space`s are distinct keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FpKey {
    /// Namespace tag chosen by the caller (one per logical cache).
    pub space: u8,
    /// Value fingerprint from [`crate::hash::fx_fingerprint128`].
    pub fp: u128,
}

impl FpKey {
    /// Creates a key in namespace `space` for fingerprint `fp`.
    pub fn new(space: u8, fp: u128) -> Self {
        FpKey { space, fp }
    }
}

/// Locks a shard, recovering from poisoning: `get_or_insert_with`
/// never holds a lock across user code, so a poisoned shard still
/// contains a consistent map — a panicking compute closure must not
/// take the whole cache down with it.
fn lock_shard<K, V>(shard: &Shard<K, V>) -> MutexGuard<'_, ShardState<K, V>> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A concurrent map from full keys to cloneable values, sharded to keep
/// lock contention off the parallel hot path.
#[derive(Debug)]
pub struct MemoCache<K, V> {
    shards: Box<[Shard<K, V>]>,
    /// Sink for eviction counts.
    metrics: Option<Arc<Metrics>>,
    /// Maximum live entries per shard; `None` means unbounded.
    per_shard_cap: Option<usize>,
    /// Total entries evicted over the cache's lifetime.
    evictions: AtomicU64,
}

impl<K: Clone + Eq + Hash, V: Clone> MemoCache<K, V> {
    /// Creates an unbounded cache with `shards` independent lock
    /// domains (rounded up to at least 1).
    pub fn new(shards: usize) -> Self {
        Self::build(shards, None, None)
    }

    /// Creates a cache holding at most `capacity` entries in total:
    /// each shard evicts its oldest entries (FIFO) beyond its share of
    /// the budget. `capacity` is rounded up to at least one entry per
    /// shard.
    pub fn bounded(shards: usize, capacity: usize) -> Self {
        Self::build(shards, None, Some(capacity))
    }

    /// As [`MemoCache::bounded`], counting evictions into `metrics`.
    pub fn bounded_with_metrics(shards: usize, capacity: usize, metrics: Arc<Metrics>) -> Self {
        Self::build(shards, Some(metrics), Some(capacity))
    }

    /// An empty cache with `shards` lock domains, bounded to this one's
    /// total capacity (or unbounded like it) and counting its evictions
    /// into the same sink.
    pub fn empty_like(&self, shards: usize) -> Self {
        Self::build(shards, self.metrics.clone(), self.capacity())
    }

    fn build(shards: usize, metrics: Option<Arc<Metrics>>, capacity: Option<usize>) -> Self {
        let shards = shards.max(1);
        Self {
            shards: (0..shards)
                .map(|_| Mutex::new(ShardState::default()))
                .collect(),
            metrics,
            per_shard_cap: capacity.map(|c| c.div_ceil(shards).max(1)),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &K) -> &Shard<K, V> {
        let fingerprint = fx_hash_one(key);
        &self.shards[(fingerprint as usize) % self.shards.len()]
    }

    /// Evicts the shard's oldest entries until it is back under the
    /// capacity bound. Called with the shard lock held, after an
    /// insertion.
    fn enforce_cap(&self, state: &mut ShardState<K, V>) {
        let Some(cap) = self.per_shard_cap else {
            return;
        };
        while state.map.len() > cap {
            let Some(oldest) = state.order.pop_front() else {
                break;
            };
            if state.map.remove(&oldest).is_some() {
                self.evictions.fetch_add(1, Ordering::Relaxed);
                if let Some(m) = &self.metrics {
                    m.count_cache_eviction();
                }
            }
        }
    }

    /// Returns the cached value for `key`, or computes, stores and
    /// returns it. The shard lock is *not* held while `compute` runs,
    /// so concurrent misses on the same key may compute twice — for a
    /// pure `compute` that is only duplicated work, never divergence
    /// (first insert wins).
    pub fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> V {
        fault::hit("exec.cache.lookup");
        let shard = self.shard(&key);
        if let Some(value) = lock_shard(shard).map.get(&key) {
            return value.clone();
        }
        let value = compute();
        let mut guard = lock_shard(shard);
        let result = match guard.map.entry(key.clone()) {
            std::collections::hash_map::Entry::Occupied(slot) => slot.get().clone(),
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(value.clone());
                if self.per_shard_cap.is_some() {
                    guard.order.push_back(key);
                }
                value
            }
        };
        self.enforce_cap(&mut guard);
        result
    }

    /// Returns the cached value for `key`, if present.
    pub fn get(&self, key: &K) -> Option<V> {
        // soctam-analyze: allow(LOCK-02) -- every label here aliases the one sharded mutex; guards are per-shard and never nested (len locks one shard at a time)
        lock_shard(self.shard(key)).map.get(key).cloned()
    }

    /// Number of cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_shard(s).map.len()).sum()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total entries evicted by the capacity bound over the cache's
    /// lifetime (always 0 for unbounded caches).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// The configured total capacity, when bounded.
    pub fn capacity(&self) -> Option<usize> {
        self.per_shard_cap
            .map(|c| c.saturating_mul(self.shards.len()))
    }

    /// Drops every cached entry.
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            let mut guard = lock_shard(shard);
            guard.map.clear();
            guard.order.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn caches_computed_values() {
        let cache: MemoCache<u64, u64> = MemoCache::new(8);
        let calls = AtomicU32::new(0);
        for _ in 0..3 {
            let v = cache.get_or_insert_with(7, || {
                calls.fetch_add(1, Ordering::Relaxed);
                49
            });
            assert_eq!(v, 49);
        }
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&7), Some(49));
        assert_eq!(cache.get(&8), None);
    }

    #[test]
    fn distinct_keys_do_not_alias() {
        let cache: MemoCache<Vec<u32>, usize> = MemoCache::new(4);
        for i in 0..200 {
            cache.get_or_insert_with(vec![i], || i as usize);
        }
        assert_eq!(cache.len(), 200);
        for i in 0..200 {
            assert_eq!(cache.get(&vec![i]), Some(i as usize));
        }
    }

    #[test]
    fn fp_key_namespaces_do_not_alias() {
        let cache: MemoCache<FpKey, u64> = MemoCache::new(4);
        cache.get_or_insert_with(FpKey::new(0, 42), || 100);
        cache.get_or_insert_with(FpKey::new(1, 42), || 200);
        assert_eq!(cache.get(&FpKey::new(0, 42)), Some(100));
        assert_eq!(cache.get(&FpKey::new(1, 42)), Some(200));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn bounded_cache_never_exceeds_capacity() {
        // One shard so the global bound is exact.
        let cache: MemoCache<u64, u64> = MemoCache::bounded(1, 4);
        for i in 0..100u64 {
            cache.get_or_insert_with(i, || i * 2);
            assert!(cache.len() <= 4, "len {} after insert {i}", cache.len());
        }
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.evictions(), 96);
        assert_eq!(cache.capacity(), Some(4));
        // FIFO: the newest keys survive.
        assert_eq!(cache.get(&99), Some(198));
        assert_eq!(cache.get(&0), None);
        // Evicted entries are recomputed, not wrong.
        assert_eq!(cache.get_or_insert_with(0, || 0), 0);
    }

    #[test]
    fn bounded_cache_reports_evictions_to_metrics() {
        let metrics = Arc::new(Metrics::new());
        let cache: MemoCache<u64, u64> =
            MemoCache::bounded_with_metrics(1, 2, Arc::clone(&metrics));
        for i in 0..5u64 {
            cache.get_or_insert_with(i, || i);
        }
        cache.get_or_insert_with(4, || 4);
        let snap = metrics.snapshot();
        assert_eq!(snap.cache_evictions, 3);
        assert_eq!(cache.evictions(), 3);
        // Hits and misses belong to the callers; the store counts none.
        assert_eq!((snap.cache_hits, snap.cache_misses), (0, 0));
    }

    #[test]
    fn an_empty_like_cache_keeps_the_bound_and_the_eviction_sink() {
        let metrics = Arc::new(Metrics::new());
        let cache: MemoCache<u64, u64> =
            MemoCache::bounded_with_metrics(8, 16, Arc::clone(&metrics));
        cache.get_or_insert_with(1, || 1);
        let like = cache.empty_like(2);
        assert!(like.is_empty());
        assert_eq!(like.capacity(), Some(16));
        for i in 0..40u64 {
            like.get_or_insert_with(i, || i);
        }
        assert_eq!(like.len(), 16);
        assert_eq!(metrics.snapshot().cache_evictions, 24);
        assert_eq!(cache.len(), 1, "the original is untouched");
        let unbounded: MemoCache<u64, u64> = MemoCache::new(4);
        assert_eq!(unbounded.empty_like(2).capacity(), None);
    }

    #[test]
    fn unbounded_cache_reports_no_capacity() {
        let cache: MemoCache<u64, u64> = MemoCache::new(4);
        assert_eq!(cache.capacity(), None);
        for i in 0..100u64 {
            cache.get_or_insert_with(i, || i);
        }
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.len(), 100);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let pool = crate::pool::Pool::new(4);
        let cache: MemoCache<usize, usize> = MemoCache::new(8);
        let results = pool.par_map_index(400, |i| cache.get_or_insert_with(i % 10, || i % 10));
        for (i, v) in results.into_iter().enumerate() {
            assert_eq!(v, i % 10);
        }
        assert_eq!(cache.len(), 10);
        cache.clear();
        assert!(cache.is_empty());
    }
}
