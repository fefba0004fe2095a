//! Shared, concurrent simulation memo-cache.
//!
//! The campaign grid re-simulates heavily: every `(d, N_n,min, λ_min)`
//! cell of one benchmark drives the *same* deterministic simulator over
//! largely overlapping configuration sets (the min+1 phase-1 descent in
//! particular is identical across cells), and the Table I pilot run is
//! repeated per cell. [`SimCache`] memoizes exact simulation results
//! keyed by `(namespace, configuration)` — where the namespace encodes
//! `(benchmark, scale, run seed)`, i.e. everything that determines the
//! simulated surface — so concurrent runs pay for each distinct
//! simulation once.
//!
//! **In-flight deduplication:** when several workers sweep the same
//! surface (a `d` sweep schedules all cells of one benchmark at once),
//! they request the same configurations nearly simultaneously — before
//! the first result lands. [`SimCache::get_or_compute`] therefore marks a
//! key *pending* while one worker simulates it; other workers block on
//! the shard's condvar and receive the finished value instead of
//! re-simulating. Total distinct simulations stay at the sequential
//! count for any worker schedule.
//!
//! The cache stores only values the underlying simulator would have
//! produced anyway (it never stores kriged estimates — interpolated
//! points must never feed back into kriging data, and a cached value is
//! indistinguishable from a fresh simulation), so enabling it changes
//! wall-clock time, not results.
//!
//! **Failure containment:** a computation that returns `Err` *or panics*
//! withdraws its pending marker and wakes every waiter, so one crashed
//! simulation can never wedge concurrent runs of the same configuration —
//! they retry the computation themselves. Shard locks recover from
//! poisoning (see `Shard::lock`): a panicking holder leaves the map
//! consistent, never half-written.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use krigeval_core::evaluator::{AccuracyEvaluator, EvalError};
use krigeval_core::Config;

/// Number of independently-locked shards; a small power of two is plenty
/// for the worker counts campaigns use.
const SHARDS: usize = 16;

type Key = (String, Config);

#[derive(Debug, Clone, Copy)]
enum Slot {
    /// Some worker is simulating this configuration right now.
    Pending,
    /// The memoized simulation result.
    Ready(f64),
}

#[derive(Debug, Default)]
struct Shard {
    map: Mutex<HashMap<Key, Slot>>,
    ready: Condvar,
}

impl Shard {
    /// Locks the shard map, **recovering from poisoning**.
    ///
    /// Poison recovery is sound here because every critical section performs
    /// a single `HashMap` operation (`get` / `insert` / `remove`), each of
    /// which leaves the map structurally consistent even if the holding
    /// thread panics immediately after: a poisoned shard never contains a
    /// half-written entry, only complete `Pending`/`Ready` slots. Stale
    /// `Pending` markers left by a panicked computation are cleared by
    /// [`PendingGuard`], not by lock poisoning.
    fn lock(&self) -> MutexGuard<'_, HashMap<Key, Slot>> {
        self.map.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Clears a `Pending` marker if the computing closure unwinds.
///
/// Without this, a panic inside `compute` would leave the marker in place
/// forever and every concurrent [`SimCache::get_or_compute`] on the same key
/// would block on the condvar indefinitely. Dropping the guard during unwind
/// removes the marker and wakes all waiters, so they race to retry the
/// computation instead of wedging.
struct PendingGuard<'a> {
    shard: &'a Shard,
    key: Option<Key>,
}

impl PendingGuard<'_> {
    /// Disarms the guard: the caller has taken over the marker.
    fn disarm(&mut self) -> Key {
        self.key.take().expect("pending guard disarmed twice")
    }
}

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            self.shard.lock().remove(&key);
            self.shard.ready.notify_all();
        }
    }
}

/// Aggregate cache counters, defined so they are **deterministic** for a
/// fixed campaign regardless of scheduling: `misses` counts *distinct*
/// entries stored (two workers racing on the same configuration dedupe to
/// one miss via the pending protocol) and `hits = lookups − misses`.
/// Per-run hit *attribution* remains scheduling-dependent — which is why
/// the JSONL sink reports cache statistics at campaign level only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total lookups.
    pub lookups: u64,
    /// Lookups that did not require a new distinct simulation.
    pub hits: u64,
    /// Distinct entries stored (simulations a cache-less campaign would
    /// repeat).
    pub misses: u64,
}

/// A sharded concurrent memo-cache for exact simulation results.
#[derive(Debug, Default)]
pub struct SimCache {
    shards: [Shard; SHARDS],
    lookups: AtomicU64,
}

impl SimCache {
    /// Creates an empty cache.
    pub fn new() -> SimCache {
        SimCache::default()
    }

    fn shard(&self, namespace: &str, config: &Config) -> &Shard {
        // FNV-1a over the namespace and the raw config words.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in namespace.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
        }
        for &w in config {
            h = (h ^ (w as u32 as u64)).wrapping_mul(0x1000_0000_01b3);
        }
        &self.shards[(h % SHARDS as u64) as usize]
    }

    /// Returns the memoized value for `(namespace, config)`, computing it
    /// with `compute` on a miss. If another worker is already computing
    /// the same key, blocks until that result is published instead of
    /// duplicating the simulation.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error; the pending marker is withdrawn so a
    /// later caller retries the computation. The marker is likewise
    /// withdrawn — and waiters woken — if `compute` **panics**, so a crashed
    /// simulation can never wedge concurrent runs of the same configuration
    /// (the panic itself continues to unwind to the caller).
    pub fn get_or_compute(
        &self,
        namespace: &str,
        config: &Config,
        compute: impl FnOnce() -> Result<f64, EvalError>,
    ) -> Result<(f64, bool), EvalError> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let shard = self.shard(namespace, config);
        let key: Key = (namespace.to_string(), config.clone());
        let mut map = shard.lock();
        loop {
            match map.get(&key) {
                Some(Slot::Ready(v)) => return Ok((*v, true)),
                Some(Slot::Pending) => {
                    map = shard.ready.wait(map).unwrap_or_else(|e| e.into_inner());
                }
                None => {
                    map.insert(key.clone(), Slot::Pending);
                    break;
                }
            }
        }
        drop(map);
        // Armed across `compute`: clears the marker on unwind.
        let mut pending = PendingGuard {
            shard,
            key: Some(key),
        };
        let outcome = compute();
        let key = pending.disarm();
        let mut map = shard.lock();
        match outcome {
            Ok(value) => {
                map.insert(key, Slot::Ready(value));
                shard.ready.notify_all();
                Ok((value, false))
            }
            Err(e) => {
                map.remove(&key);
                shard.ready.notify_all();
                Err(e)
            }
        }
    }

    /// Number of distinct results stored (pending markers excluded).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .values()
                    .filter(|slot| matches!(slot, Slot::Ready(_)))
                    .count()
            })
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the aggregate counters (see [`CacheStats`] for why
    /// misses are derived from the distinct-entry count).
    pub fn stats(&self) -> CacheStats {
        let lookups = self.lookups.load(Ordering::Relaxed);
        let misses = self.len() as u64;
        CacheStats {
            lookups,
            hits: lookups.saturating_sub(misses),
            misses,
        }
    }
}

/// Wraps an evaluator with a shared [`SimCache`]: hits skip the simulator
/// entirely, misses simulate (deduplicating in-flight work with other
/// workers) and publish the result.
///
/// [`AccuracyEvaluator::evaluations`] reports only *real* simulator calls
/// (misses), so `N_λ` accounting still reflects work a cache-less run
/// would have to do per distinct configuration.
pub struct CachedEvaluator<E> {
    inner: E,
    cache: Arc<SimCache>,
    namespace: String,
}

impl<E: AccuracyEvaluator> CachedEvaluator<E> {
    /// Wraps `inner`, memoizing into `cache` under `namespace`.
    pub fn new(inner: E, cache: Arc<SimCache>, namespace: impl Into<String>) -> CachedEvaluator<E> {
        CachedEvaluator {
            inner,
            cache,
            namespace: namespace.into(),
        }
    }
}

impl<E: AccuracyEvaluator> AccuracyEvaluator for CachedEvaluator<E> {
    fn evaluate(&mut self, config: &Config) -> Result<f64, EvalError> {
        let (value, _) = self
            .cache
            .get_or_compute(&self.namespace, config, || self.inner.evaluate(config))?;
        Ok(value)
    }

    fn num_variables(&self) -> usize {
        self.inner.num_variables()
    }

    fn evaluations(&self) -> u64 {
        self.inner.evaluations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use krigeval_core::FnEvaluator;

    /// Answers from the cache, failing the test if `config` would have to
    /// be computed.
    fn cached(cache: &SimCache, namespace: &str, config: &Config) -> f64 {
        let (value, hit) = cache
            .get_or_compute(namespace, config, || panic!("{config:?} is not cached"))
            .unwrap();
        assert!(hit);
        value
    }

    #[test]
    fn cache_roundtrip_and_stats() {
        let cache = SimCache::new();
        let w = vec![3, 4];
        assert!(cache.is_empty());
        assert_eq!(
            cache.get_or_compute("fir", &w, || Ok(1.5)).unwrap(),
            (1.5, false)
        );
        assert_eq!(cached(&cache, "fir", &w), 1.5);
        // Same config under a different namespace is a distinct entry.
        assert_eq!(
            cache.get_or_compute("iir", &w, || Ok(2.5)).unwrap(),
            (2.5, false)
        );
        let s = cache.stats();
        assert_eq!(s.lookups, 3);
        // Two distinct simulations were stored, so one of the three
        // lookups required no new distinct work.
        assert_eq!(s.misses, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn get_or_compute_memoizes_and_reports_hits() {
        let cache = SimCache::new();
        let w = vec![5, 6];
        let mut calls = 0;
        let (v, hit) = cache
            .get_or_compute("ns", &w, || {
                calls += 1;
                Ok(7.25)
            })
            .unwrap();
        assert_eq!((v, hit, calls), (7.25, false, 1));
        let (v, hit) = cache
            .get_or_compute("ns", &w, || panic!("must not recompute"))
            .unwrap();
        assert_eq!((v, hit), (7.25, true));
    }

    #[test]
    fn failed_computation_withdraws_the_pending_marker() {
        let cache = SimCache::new();
        let w = vec![1];
        assert!(cache
            .get_or_compute("ns", &w, || Err(EvalError::msg("boom")))
            .is_err());
        // The key is retryable, not wedged.
        let (v, hit) = cache.get_or_compute("ns", &w, || Ok(2.0)).unwrap();
        assert_eq!((v, hit), (2.0, false));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cached_evaluator_skips_repeat_simulations() {
        let cache = Arc::new(SimCache::new());
        let mut ev = CachedEvaluator::new(
            FnEvaluator::new(2, |w: &Config| Ok(f64::from(w[0] * 10 + w[1]))),
            Arc::clone(&cache),
            "test",
        );
        assert_eq!(ev.evaluate(&vec![1, 2]).unwrap(), 12.0);
        assert_eq!(ev.evaluate(&vec![1, 2]).unwrap(), 12.0);
        assert_eq!(ev.evaluations(), 1, "second call was a cache hit");
        // A second evaluator sharing the cache also hits.
        let mut ev2 = CachedEvaluator::new(
            FnEvaluator::new(2, |_: &Config| panic!("must not simulate")),
            Arc::clone(&cache),
            "test",
        );
        assert_eq!(ev2.evaluate(&vec![1, 2]).unwrap(), 12.0);
    }

    #[test]
    fn concurrent_workers_deduplicate_in_flight_computations() {
        use std::sync::atomic::AtomicU64;
        let cache = Arc::new(SimCache::new());
        let computes = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let computes = &computes;
                scope.spawn(move || {
                    for i in 0..50i32 {
                        let w = vec![i % 10];
                        let (v, _) = cache
                            .get_or_compute("ns", &w, || {
                                computes.fetch_add(1, Ordering::Relaxed);
                                // Widen the in-flight window so threads
                                // actually overlap on the same key.
                                std::thread::sleep(std::time::Duration::from_millis(1));
                                Ok(f64::from(i % 10) * 3.0)
                            })
                            .unwrap();
                        assert_eq!(v, f64::from(i % 10) * 3.0);
                    }
                });
            }
        });
        assert_eq!(
            computes.load(Ordering::Relaxed),
            10,
            "each distinct key must be computed exactly once"
        );
        assert_eq!(cache.len(), 10);
        assert_eq!(cache.stats().misses, 10);
    }

    #[test]
    fn concurrent_inserts_and_lookups_are_consistent() {
        let cache = Arc::new(SimCache::new());
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..200 {
                        let w = vec![i % 50, t];
                        let value = f64::from(i % 50 * 100 + t);
                        let (v, _) = cache.get_or_compute("ns", &w, || Ok(value)).unwrap();
                        assert_eq!(v, value);
                        assert_eq!(cached(&cache, "ns", &w), value);
                    }
                });
            }
        });
        assert_eq!(cache.len(), 200);
        let s = cache.stats();
        assert_eq!((s.lookups, s.misses, s.hits), (1600, 200, 1400));
    }

    #[test]
    fn panicking_computation_clears_the_pending_marker() {
        let cache = Arc::new(SimCache::new());
        let w = vec![9];
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = cache.get_or_compute("ns", &w, || panic!("injected simulator crash"));
        }));
        assert!(panicked.is_err(), "panic must propagate to the caller");
        // The marker is gone: a later caller computes instead of wedging.
        let (v, hit) = cache.get_or_compute("ns", &w, || Ok(4.0)).unwrap();
        assert_eq!((v, hit), (4.0, false));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn panicking_computation_wakes_concurrent_waiters() {
        use std::sync::atomic::AtomicU64;
        let cache = Arc::new(SimCache::new());
        let w = vec![3];
        let computes = AtomicU64::new(0);
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            // Crasher: takes the pending marker, signals the waiter, then
            // panics mid-computation.
            scope.spawn(|| {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _ = cache.get_or_compute("ns", &w, || {
                        barrier.wait();
                        // Give the waiter time to block on the condvar.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        panic!("injected simulator crash")
                    });
                }));
            });
            // Waiter: arrives while the marker is held; must be woken by the
            // crasher's unwind and retry the computation itself.
            scope.spawn(|| {
                barrier.wait();
                std::thread::sleep(std::time::Duration::from_millis(5));
                let (v, _) = cache
                    .get_or_compute("ns", &w, || {
                        computes.fetch_add(1, Ordering::Relaxed);
                        Ok(11.0)
                    })
                    .unwrap();
                assert_eq!(v, 11.0);
            });
        });
        assert_eq!(computes.load(Ordering::Relaxed), 1, "waiter retried");
        assert_eq!(cached(&cache, "ns", &w), 11.0);
    }

    #[test]
    fn poisoned_shard_lock_is_recovered() {
        // Poison a shard mutex by panicking while holding it (via the map
        // lock inside a catch_unwind), then verify the cache still serves
        // reads and writes instead of propagating the poison.
        let cache = Arc::new(SimCache::new());
        let w = vec![7];
        cache.get_or_compute("ns", &w, || Ok(1.0)).unwrap();
        let c2 = Arc::clone(&cache);
        let w2 = w.clone();
        let handle = std::thread::spawn(move || {
            let shard = c2.shard("ns", &w2);
            let _guard = shard.lock();
            panic!("poison the shard");
        });
        assert!(handle.join().is_err());
        assert_eq!(cached(&cache, "ns", &w), 1.0);
        let stored = cache.get_or_compute("ns", &vec![8], || Ok(2.0)).unwrap();
        assert_eq!(stored, (2.0, false));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cache_types_are_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimCache>();
        assert_send_sync::<Arc<SimCache>>();
    }
}
