//! Resumable simulation: a byte-capped store of the values a simulation
//! computes partway through, so that a later simulation starts from them.
//!
//! A resumable simulator splits its pass into stages. The values entering
//! a stage depend on the input data and on the configuration entries of
//! the sites the earlier stages apply, and on nothing else. Stored under
//! the stage and exactly those entries, they serve every later
//! configuration that agrees on them: a pass resumed from them runs the
//! same operations in the same order on the same values as a full pass,
//! so its output keeps its bits. The optimizers query `w ± e_i`
//! neighbours of configurations already simulated, so most simulations
//! agree with a stored state on every site before the one they change.
//!
//! [`CheckpointStore`] is that store for every benchmark that resumes: the
//! CNNs keep each image's input of an injection site, the word-length
//! kernels the streams entering a filter section, an FFT stage or an
//! interpolation pass. The simulator decides what to store and how to
//! key it; the store keeps the entries under a byte cap and counts where
//! the simulations started.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A value a [`CheckpointStore`] keeps, with the bytes its cap charges for
/// it.
pub trait Checkpoint {
    /// Bytes the value holds.
    fn bytes(&self) -> usize;
}

/// A buffer is charged for its capacity, the memory it holds.
impl<T> Checkpoint for Vec<T> {
    fn bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
    }
}

/// How a store's simulations started. Which simulations resume depends on
/// what the instance simulated before and, when threads share it, in
/// which order, so these counts observe a run and never enter its
/// results.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResumeStats {
    /// Simulations by the number of stages they skipped: index 0 counts
    /// full passes, index `k` passes that skipped `k` stages, which for a
    /// chain of stages are the passes resumed at stage `k`.
    pub started_at: Vec<u64>,
}

impl ResumeStats {
    /// All simulations.
    pub fn simulations(&self) -> u64 {
        self.started_at.iter().sum()
    }

    /// Simulations that reused a stored state.
    pub fn resumed(&self) -> u64 {
        self.simulations() - self.started_at.first().copied().unwrap_or(0)
    }

    /// Stages the resumed simulations did not run.
    pub fn stages_skipped(&self) -> u64 {
        (0u64..).zip(&self.started_at).map(|(k, n)| k * n).sum()
    }
}

struct Entry<V> {
    value: Arc<V>,
    bytes: usize,
    last_used: u64,
}

struct Entries<V> {
    map: HashMap<Arc<[u64]>, Entry<V>>,
    /// Every entry's key under its `last_used` tick, so the least recently
    /// used entry is the first one.
    recency: BTreeMap<u64, Arc<[u64]>>,
    bytes: usize,
    clock: u64,
}

impl<V> Default for Entries<V> {
    fn default() -> Entries<V> {
        Entries {
            map: HashMap::new(),
            recency: BTreeMap::new(),
            bytes: 0,
            clock: 0,
        }
    }
}

impl<V> Entries<V> {
    /// Removes the least recently used entry and returns its value; `None`
    /// when there is none.
    fn pop_oldest(&mut self) -> Option<Arc<V>> {
        let (_, key) = self.recency.pop_first()?;
        let entry = self
            .map
            .remove(&key)
            .expect("every key in the recency index is stored");
        self.bytes -= entry.bytes;
        Some(entry.value)
    }
}

/// A benchmark instance's stored states: values keyed by a stage and the
/// configuration entries they depend on, under a byte cap with
/// least-recently-used eviction. A lookup, an insert and each eviction
/// cost O(log n) in the n stored entries: an ordered index of the entries'
/// last uses names the victim. Threads may share the store; the lock guards
/// lookups and inserts only, never a pass. A poisoned lock turns every
/// later lookup into a miss and every insert into a no-op.
///
/// # Examples
///
/// ```
/// use krigeval_fixedpoint::CheckpointStore;
///
/// let store: CheckpointStore<Vec<f64>> = CheckpointStore::new(3, 1 << 20);
/// assert!(store.get(&[1, 12]).is_none());
/// store.insert(&[1, 12], vec![0.25; 4]);
/// assert_eq!(store.get(&[1, 12]).unwrap().as_slice(), &[0.25; 4]);
/// store.count_start(1);
/// assert_eq!(store.stats().resumed(), 1);
/// ```
pub struct CheckpointStore<V> {
    cap: usize,
    entries: Mutex<Entries<V>>,
    started_at: Box<[AtomicU64]>,
}

impl<V: Checkpoint> CheckpointStore<V> {
    /// An empty store of at most `cap` bytes of keys and values, counting
    /// the starts of a pass of `stages` stages. It allocates on its first
    /// insert and drops what it evicts.
    pub fn new(stages: usize, cap: usize) -> CheckpointStore<V> {
        CheckpointStore {
            cap,
            entries: Mutex::new(Entries::default()),
            started_at: (0..stages.max(1)).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The value stored under `key`, now the most recently used.
    pub fn get(&self, key: &[u64]) -> Option<Arc<V>> {
        let mut guard = self.entries.lock().ok()?;
        let entries: &mut Entries<V> = &mut guard;
        let entry = entries.map.get_mut(key)?;
        let stored = entries
            .recency
            .remove(&entry.last_used)
            .expect("every entry is in the recency index");
        entries.clock += 1;
        entry.last_used = entries.clock;
        entries.recency.insert(entries.clock, stored);
        Some(Arc::clone(&entry.value))
    }

    /// Stores `value` under `key`, evicting the least recently used
    /// entries to stay under the cap. A key already stored keeps its
    /// value, and a value that would not fit under an empty store is not
    /// stored. Evicted values are dropped after the lock is released:
    /// freeing a large state can take a while, and every lookup waits for
    /// the lock.
    pub fn insert(&self, key: &[u64], value: V) {
        let bytes = std::mem::size_of_val(key) + value.bytes();
        let mut evicted = Vec::new();
        {
            let Ok(mut guard) = self.entries.lock() else {
                return;
            };
            let entries: &mut Entries<V> = &mut guard;
            if bytes > self.cap || entries.map.contains_key(key) {
                return;
            }
            while entries.bytes + bytes > self.cap {
                match entries.pop_oldest() {
                    Some(old) => evicted.push(old),
                    None => break,
                }
            }
            entries.clock += 1;
            let key: Arc<[u64]> = key.into();
            entries.recency.insert(entries.clock, Arc::clone(&key));
            entries.bytes += bytes;
            entries.map.insert(
                key,
                Entry {
                    value: Arc::new(value),
                    bytes,
                    last_used: entries.clock,
                },
            );
        }
        drop(evicted);
    }

    /// Counts a simulation that skipped `stages` stages (0: a full pass).
    ///
    /// # Panics
    ///
    /// Panics if `stages` is not below the stage count the store was
    /// built with.
    pub fn count_start(&self, stages: usize) {
        self.started_at[stages].fetch_add(1, Ordering::Relaxed);
    }

    /// How this store's simulations started.
    pub fn stats(&self) -> ResumeStats {
        ResumeStats {
            started_at: self
                .started_at
                .iter()
                .map(|n| n.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Bytes held by the entries, by the same count the cap bounds.
    pub fn bytes(&self) -> usize {
        self.entries.lock().map_or(0, |e| e.bytes)
    }
}

/// A copy starts empty, with the same cap and stage count.
impl<V: Checkpoint> Clone for CheckpointStore<V> {
    fn clone(&self) -> CheckpointStore<V> {
        CheckpointStore::new(self.started_at.len(), self.cap)
    }
}

impl<V: Checkpoint> std::fmt::Debug for CheckpointStore<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointStore")
            .field("cap", &self.cap)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(cap: usize) -> CheckpointStore<Vec<f64>> {
        CheckpointStore::new(4, cap)
    }

    /// Bytes one entry of `len` values under a two-word key costs.
    fn entry(len: usize) -> usize {
        2 * 8 + len * 8
    }

    /// Poisons the lock, as a panic inside it would.
    fn poison<V>(store: &CheckpointStore<V>) {
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = store.entries.lock();
            panic!("poisoning the checkpoint store");
        }));
    }

    #[test]
    fn the_least_recently_used_entry_goes_first() {
        let s = store(3 * entry(4));
        for k in 0..3 {
            s.insert(&[1, k], vec![k as f64; 4]);
        }
        assert!(s.get(&[1, 0]).is_some());
        s.insert(&[1, 3], vec![3.0; 4]);
        assert!(s.get(&[1, 1]).is_none(), "the oldest untouched entry");
        for k in [0, 2, 3] {
            assert_eq!(s.get(&[1, k]).unwrap()[0], k as f64);
        }
        assert_eq!(s.bytes(), 3 * entry(4));
    }

    #[test]
    fn a_stored_key_keeps_its_first_value() {
        let s = store(1 << 10);
        s.insert(&[2, 7], vec![1.0]);
        s.insert(&[2, 7], vec![2.0]);
        assert_eq!(s.get(&[2, 7]).unwrap().as_slice(), &[1.0]);
        assert_eq!(s.bytes(), entry(1));
    }

    #[test]
    fn the_cap_is_never_exceeded() {
        let cap = 5 * entry(3) + 7;
        let s = store(cap);
        for k in 0..40u64 {
            s.insert(&[k % 3, k], vec![0.0; 1 + (k as usize % 4)]);
            assert!(s.bytes() <= cap, "{} > {cap}", s.bytes());
        }
        // An entry larger than the cap is turned away.
        s.insert(&[9, 9], vec![0.0; cap]);
        assert!(s.get(&[9, 9]).is_none());
        assert!(s.bytes() <= cap);
    }

    #[test]
    fn a_poisoned_store_counts_every_lookup_as_a_miss() {
        let s = store(1 << 10);
        s.insert(&[1, 4], vec![4.0]);
        poison(&s);
        assert!(s.get(&[1, 4]).is_none());
        s.insert(&[1, 5], vec![5.0]);
        assert!(s.get(&[1, 5]).is_none());
        assert_eq!(s.bytes(), 0);
        s.count_start(0);
        assert_eq!(s.stats().simulations(), 1);
    }

    #[test]
    fn a_copy_starts_empty() {
        let s = store(1 << 10);
        s.insert(&[1, 4], vec![4.0]);
        s.count_start(2);
        let copy = s.clone();
        assert!(copy.get(&[1, 4]).is_none());
        assert_eq!(
            copy.stats(),
            ResumeStats {
                started_at: vec![0; 4]
            }
        );
        assert_eq!(copy.cap, s.cap);
    }

    #[test]
    fn stats_count_resumes_and_skipped_stages() {
        let s = store(0);
        for stages in [0, 0, 0, 2, 3, 3, 3, 3] {
            s.count_start(stages);
        }
        let stats = s.stats();
        assert_eq!(stats.started_at, vec![3, 0, 1, 4]);
        assert_eq!(stats.simulations(), 8);
        assert_eq!(stats.resumed(), 5);
        assert_eq!(stats.stages_skipped(), 2 + 12);
        assert_eq!(ResumeStats::default().resumed(), 0);
    }

    /// A stored value that records, when dropped, whether its store's
    /// lock was held.
    struct LockProbe {
        store: std::sync::Weak<CheckpointStore<LockProbe>>,
        /// Drops with the lock free, then with it held.
        drops: Arc<[AtomicU64; 2]>,
    }

    impl Checkpoint for LockProbe {
        fn bytes(&self) -> usize {
            64
        }
    }

    impl Drop for LockProbe {
        fn drop(&mut self) {
            if let Some(store) = self.store.upgrade() {
                let held = matches!(
                    store.entries.try_lock(),
                    Err(std::sync::TryLockError::WouldBlock)
                );
                self.drops[usize::from(held)].fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    #[test]
    fn evicted_values_are_dropped_outside_the_lock() {
        let s = Arc::new(CheckpointStore::new(1, 4 * (8 + 64)));
        let drops = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
        let probe = || LockProbe {
            store: Arc::downgrade(&s),
            drops: Arc::clone(&drops),
        };
        for k in 0..12 {
            s.insert(&[k], probe());
        }
        // Already stored: the new value is turned away.
        s.insert(&[11], probe());
        let [free, held] = &*drops;
        assert_eq!(held.load(Ordering::Relaxed), 0, "dropped under the lock");
        assert_eq!(free.load(Ordering::Relaxed), 8 + 1);
    }

    #[test]
    fn threads_share_one_store() {
        let s = store(64 * entry(8));
        std::thread::scope(|scope| {
            for t in 0..2u64 {
                let s = &s;
                scope.spawn(move || {
                    for k in 0..200u64 {
                        let key = [k % 16, t];
                        match s.get(&key) {
                            Some(v) => assert_eq!(v[0], (k % 16) as f64),
                            None => s.insert(&key, vec![(k % 16) as f64; 8]),
                        }
                        s.count_start(usize::from(k % 2 == 0));
                    }
                });
            }
        });
        assert_eq!(s.stats().simulations(), 400);
        assert!(s.bytes() <= 64 * entry(8));
    }

    /// The store's eviction before its recency index: each eviction scans
    /// every entry for the least recent use. Keys map to `(bytes,
    /// last_used)`.
    #[derive(Default)]
    struct ScanStore {
        map: HashMap<Vec<u64>, (usize, u64)>,
        bytes: usize,
        clock: u64,
    }

    impl ScanStore {
        fn get(&mut self, key: &[u64]) {
            if let Some(entry) = self.map.get_mut(key) {
                self.clock += 1;
                entry.1 = self.clock;
            }
        }

        fn insert(&mut self, cap: usize, key: &[u64], bytes: usize) {
            if bytes > cap || self.map.contains_key(key) {
                return;
            }
            while self.bytes + bytes > cap {
                let oldest = self
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.1)
                    .map(|(k, _)| k.clone());
                match oldest.and_then(|k| self.map.remove(&k)) {
                    Some((old, _)) => self.bytes -= old,
                    None => break,
                }
            }
            self.clock += 1;
            self.bytes += bytes;
            self.map.insert(key.to_vec(), (bytes, self.clock));
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// The stored keys, sorted, after checking that the recency index
        /// names every entry once, under its last use.
        fn keys(s: &CheckpointStore<Vec<f64>>) -> Vec<Vec<u64>> {
            let entries = s.entries.lock().unwrap();
            assert_eq!(entries.recency.len(), entries.map.len());
            for (key, entry) in &entries.map {
                assert_eq!(entries.recency[&entry.last_used], *key);
            }
            let mut keys: Vec<Vec<u64>> = entries.map.keys().map(|k| k.to_vec()).collect();
            keys.sort();
            keys
        }

        proptest! {
            // The recency index changes how the victim is found, not which
            // one it is: under random lookups and inserts of mixed sizes,
            // with caps a large value fills by evicting several small ones,
            // the store holds what the scanning store holds after every
            // step.
            #[test]
            fn eviction_matches_the_scanning_store(
                cap in 40usize..1200,
                ops in proptest::collection::vec(
                    (0u8..3, 0u64..12, 1usize..4, 0usize..4, 0usize..60),
                    1..120,
                ),
            ) {
                let s = store(cap);
                let mut oracle = ScanStore::default();
                for (op, id, key_len, size, large) in ops {
                    let key: Vec<u64> = (0..key_len as u64).map(|i| id + i).collect();
                    if op == 0 {
                        let hit = s.get(&key).is_some();
                        prop_assert_eq!(hit, oracle.map.contains_key(&key));
                        oracle.get(&key);
                    } else {
                        // One insert in four is large.
                        let len = if size == 0 { large } else { size };
                        s.insert(&key, vec![0.0; len]);
                        oracle.insert(cap, &key, 8 * (key_len + len));
                    }
                    let mut expected: Vec<Vec<u64>> = oracle.map.keys().cloned().collect();
                    expected.sort();
                    prop_assert_eq!(keys(&s), expected);
                    prop_assert_eq!(s.bytes(), oracle.bytes);
                }
            }
        }
    }
}
