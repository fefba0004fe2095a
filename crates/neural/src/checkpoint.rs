//! Resumable simulation: a per-benchmark store of the inputs of the
//! injection sites, so a simulation starts at the first site where its
//! configuration differs from one already simulated.
//!
//! A CNN configuration holds one entry per injection site (an error power
//! or a register word-length), and the sites run in forward order. The
//! input of site `k`, before its hook runs, is therefore a function of the
//! image and the configuration prefix `c[..k]` alone. So is the injection
//! benchmark's noise cursor there: each image reads one fixed normal
//! sequence, and a site that injects nothing (`−∞` dB, or σ = 0 over an
//! all-zero activation) draws nothing, so the cursor at `k` counts the
//! draws of sites `0..k`. A pass resumed at site `k` from a stored input
//! and cursor runs the same operations on the same values as a full pass
//! from there on, so every logit keeps its bits.
//!
//! The optimizers query `w ± e_i` neighbours of configurations already
//! simulated, so most simulations share a long prefix with a stored one.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::net::{MiniSqueezeNet, SiteHook, NUM_INJECTION_SITES};
use crate::Tensor3;

/// Byte cap of one benchmark instance's checkpoint store; the least
/// recently used entries are evicted to stay under it. One configuration's
/// sites 2–9 take 650 KB at fast scale (48 images, 12×12) and 9.6 MB at
/// paper scale (400 images, 16×16). The cap keeps a configuration's
/// checkpoints alive while the optimizer simulates its ten neighbours,
/// which insert about four configurations' worth of their own; below that
/// the paper-scale resume rate falls off (the sweep is in DESIGN.md §7).
pub const CHECKPOINT_BYTES: usize = 64 << 20;

/// The shallowest site the store keeps. Sites 0 and 1 (conv1 and
/// maxpool1) hold 46% of the bytes of a full set of site inputs at fast
/// scale, yet a pass resumed at site 1 still costs 98% of a full one.
pub const FIRST_CHECKPOINT_SITE: usize = 2;

/// How a benchmark instance's simulations started: from the stem, or
/// resumed at a stored site. Which simulations resume depends on what the
/// instance simulated before and, when threads share it, in which order,
/// so these counts observe a run and never enter its results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResumeStats {
    /// Simulations by the site they started at: index 0 counts full
    /// passes, index `k ≥ 2` passes resumed at site `k`.
    pub started_at: [u64; NUM_INJECTION_SITES],
}

impl ResumeStats {
    /// All simulations.
    pub fn simulations(&self) -> u64 {
        self.started_at.iter().sum()
    }

    /// Simulations resumed at a stored site.
    pub fn resumed(&self) -> u64 {
        self.simulations() - self.started_at[0]
    }

    /// Layer stages the resumed simulations did not run: a pass resumed
    /// at site `k` skips the `k` stages before it (per image).
    pub fn stages_skipped(&self) -> u64 {
        (0u64..).zip(&self.started_at).map(|(k, n)| k * n).sum()
    }
}

/// A [`SiteHook`] a pass can resume from the middle.
pub(crate) trait ResumableHook: SiteHook {
    /// The hook's position in its noise stream, for hooks that draw one.
    fn cursor(&self) -> Option<usize>;
}

/// Every image's input of one site, image after image, with the noise
/// cursor each image's hook stood at there (empty for hooks that draw
/// nothing).
#[derive(Default)]
struct Checkpoint {
    shape: (usize, usize, usize),
    values: Vec<f64>,
    cursors: Vec<usize>,
}

impl Checkpoint {
    fn bytes(&self) -> usize {
        std::mem::size_of_val(self.values.as_slice())
            + std::mem::size_of_val(self.cursors.as_slice())
    }

    fn input(&self, image: usize) -> Tensor3 {
        let (c, h, w) = self.shape;
        let len = c * h * w;
        Tensor3::from_vec(c, h, w, self.values[image * len..][..len].to_vec())
    }

    fn cursor(&self, image: usize) -> usize {
        self.cursors.get(image).copied().unwrap_or(0)
    }
}

/// The checkpoints one simulation records, for sites `first..`.
struct Capture {
    first: usize,
    images: usize,
    sites: Vec<Checkpoint>,
}

impl Capture {
    fn new(first: usize, images: usize) -> Capture {
        Capture {
            first,
            images,
            sites: (first..NUM_INJECTION_SITES)
                .map(|_| Checkpoint::default())
                .collect(),
        }
    }

    fn record(
        &mut self,
        site: usize,
        shape: (usize, usize, usize),
        values: &[f64],
        cursor: Option<usize>,
    ) {
        let Some(slot) = site
            .checked_sub(self.first)
            .and_then(|i| self.sites.get_mut(i))
        else {
            return;
        };
        if slot.values.is_empty() {
            slot.values.reserve_exact(values.len() * self.images);
        }
        slot.shape = shape;
        slot.values.extend_from_slice(values);
        slot.cursors.extend(cursor);
    }
}

/// Records each site's input, then runs the wrapped hook.
struct Recorder<'a, H> {
    hook: H,
    capture: &'a mut Capture,
}

impl<H: ResumableHook> SiteHook for Recorder<'_, H> {
    fn tensor(&mut self, site: usize, t: &mut Tensor3) {
        self.capture
            .record(site, t.shape(), t.as_slice(), self.hook.cursor());
        self.hook.tensor(site, t);
    }

    fn vector(&mut self, site: usize, v: &mut [f64]) {
        self.capture
            .record(site, (v.len(), 1, 1), v, self.hook.cursor());
        self.hook.vector(site, v);
    }
}

/// The store key of site `site`'s checkpoint for `config`: the site, then
/// the configuration prefix that determines its input.
fn key<'a>(site: usize, config: &[u64], buf: &'a mut [u64; NUM_INJECTION_SITES + 1]) -> &'a [u64] {
    buf[0] = site as u64;
    buf[1..=site].copy_from_slice(&config[..site]);
    &buf[..=site]
}

struct Entry {
    checkpoint: Arc<Checkpoint>,
    bytes: usize,
    last_used: u64,
}

#[derive(Default)]
struct Entries {
    map: HashMap<Box<[u64]>, Entry>,
    bytes: usize,
    clock: u64,
}

impl Entries {
    /// Evicts the least recently used entry; `false` when there is none.
    fn evict_oldest(&mut self) -> bool {
        let Some(oldest) = self
            .map
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k.clone())
        else {
            return false;
        };
        if let Some(entry) = self.map.remove(&oldest) {
            self.bytes -= entry.bytes;
        }
        true
    }
}

/// A benchmark instance's checkpoints: every image's input of site `k ≥ 2`
/// for recently simulated configuration prefixes `c[..k]`, under a byte
/// cap with least-recently-used eviction. Threads may share it; the lock
/// guards lookups and inserts only, never a forward pass. A poisoned lock
/// turns every later lookup into a miss.
pub(crate) struct CheckpointStore {
    cap: usize,
    entries: Mutex<Entries>,
    started_at: [AtomicU64; NUM_INJECTION_SITES],
}

impl CheckpointStore {
    /// An empty store capped at [`CHECKPOINT_BYTES`]; it allocates on its
    /// first insert.
    pub(crate) fn new() -> CheckpointStore {
        CheckpointStore::with_cap(CHECKPOINT_BYTES)
    }

    pub(crate) fn with_cap(cap: usize) -> CheckpointStore {
        CheckpointStore {
            cap,
            entries: Mutex::new(Entries::default()),
            started_at: Default::default(),
        }
    }

    /// Simulates `config` (one key word per site) over every image and
    /// returns each image's logits. The pass starts at the deepest stored
    /// site whose configuration prefix equals `config`'s, or at site 0
    /// from `stems`; `hook(image, cursor)` builds each image's hook. The
    /// inputs of the later sites from [`FIRST_CHECKPOINT_SITE`] on are
    /// recorded and stored.
    pub(crate) fn simulate<H: ResumableHook>(
        &self,
        net: &MiniSqueezeNet,
        stems: &[Tensor3],
        config: &[u64],
        mut hook: impl FnMut(usize, usize) -> H,
    ) -> Vec<Vec<f64>> {
        let resume = self.lookup(config);
        let start = resume.as_ref().map_or(0, |(site, _)| *site);
        self.started_at[start].fetch_add(1, Ordering::Relaxed);
        let mut capture = Capture::new((start + 1).max(FIRST_CHECKPOINT_SITE), stems.len());
        let logits = stems
            .iter()
            .enumerate()
            .map(|(image, stem)| {
                let (input, cursor) = match &resume {
                    Some((_, checkpoint)) => (checkpoint.input(image), checkpoint.cursor(image)),
                    None => (stem.clone(), 0),
                };
                let mut recorder = Recorder {
                    hook: hook(image, cursor),
                    capture: &mut capture,
                };
                net.forward_at(start, input, &mut recorder)
            })
            .collect();
        self.keep(config, capture);
        logits
    }

    /// The deepest stored checkpoint for a prefix of `config`.
    fn lookup(&self, config: &[u64]) -> Option<(usize, Arc<Checkpoint>)> {
        let Ok(mut guard) = self.entries.lock() else {
            return None;
        };
        let entries: &mut Entries = &mut guard;
        let mut buf = [0; NUM_INJECTION_SITES + 1];
        for site in (FIRST_CHECKPOINT_SITE..NUM_INJECTION_SITES).rev() {
            if let Some(entry) = entries.map.get_mut(key(site, config, &mut buf)) {
                entries.clock += 1;
                entry.last_used = entries.clock;
                return Some((site, Arc::clone(&entry.checkpoint)));
            }
        }
        None
    }

    /// Stores a simulation's checkpoints, evicting the least recently used
    /// entries to stay under the cap.
    fn keep(&self, config: &[u64], capture: Capture) {
        let Ok(mut entries) = self.entries.lock() else {
            return;
        };
        let mut buf = [0; NUM_INJECTION_SITES + 1];
        for (site, checkpoint) in (capture.first..).zip(capture.sites) {
            let key = key(site, config, &mut buf);
            let bytes = std::mem::size_of_val(key) + checkpoint.bytes();
            if bytes > self.cap || entries.map.contains_key(key) {
                continue;
            }
            while entries.bytes + bytes > self.cap && entries.evict_oldest() {}
            entries.clock += 1;
            let last_used = entries.clock;
            entries.bytes += bytes;
            entries.map.insert(
                key.into(),
                Entry {
                    checkpoint: Arc::new(checkpoint),
                    bytes,
                    last_used,
                },
            );
        }
    }

    /// How this store's simulations started.
    pub(crate) fn stats(&self) -> ResumeStats {
        ResumeStats {
            started_at: std::array::from_fn(|k| self.started_at[k].load(Ordering::Relaxed)),
        }
    }

    /// Bytes held, by the same count the cap bounds.
    #[cfg(test)]
    pub(crate) fn bytes(&self) -> usize {
        self.entries.lock().map_or(0, |e| e.bytes)
    }

    /// Poisons the lock, as a panic inside it would.
    #[cfg(test)]
    pub(crate) fn poison(&self) {
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = self.entries.lock();
            panic!("poisoning the checkpoint store");
        }));
    }
}

/// A copy starts with an empty store of the same cap.
impl Clone for CheckpointStore {
    fn clone(&self) -> CheckpointStore {
        CheckpointStore::with_cap(self.cap)
    }
}

impl std::fmt::Debug for CheckpointStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointStore")
            .field("cap", &self.cap)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::{QuantizedNetBenchmark, SensitivityBenchmark};

    const IMAGES: usize = 6;

    /// Images 1 and 4 have all-zero stems: their sites 0 and 1 draw no
    /// noise, so their cursors run behind the other images' from site 2 on.
    fn injection() -> SensitivityBenchmark {
        SensitivityBenchmark::new(IMAGES, 12, 0x0C4E_C4B7).with_blank_stems(&[1, 4])
    }

    fn quantized() -> QuantizedNetBenchmark {
        QuantizedNetBenchmark::new(IMAGES, 12, 0x0C4E_C4B8)
    }

    fn bits(logits: &[Vec<f64>]) -> Vec<u64> {
        logits.iter().flatten().map(|v| v.to_bits()).collect()
    }

    /// SplitMix64, for the streams the tests replay.
    struct Stream(u64);

    impl Stream {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A stream of error-power configurations: single-site ±6 dB steps
    /// from the previous configuration, random jumps, disabled (`−∞`)
    /// sources and powers so low that σ underflows to 0.
    fn power_stream(seed: u64, len: usize) -> Vec<Vec<f64>> {
        let mut rng = Stream(seed);
        let level = |rng: &mut Stream| -80.0 + 6.0 * rng.below(13) as f64;
        let mut current: Vec<f64> = (0..NUM_INJECTION_SITES).map(|_| level(&mut rng)).collect();
        let mut stream = vec![current.clone()];
        while stream.len() < len {
            let site = rng.below(NUM_INJECTION_SITES as u64) as usize;
            match rng.below(10) {
                0 => current = (0..NUM_INJECTION_SITES).map(|_| level(&mut rng)).collect(),
                1 => current[site] = f64::NEG_INFINITY,
                2 => current[site] = -4000.0,
                step => {
                    let base = if current[site].is_finite() {
                        current[site]
                    } else {
                        -44.0
                    };
                    current[site] = base + if step % 2 == 0 { 6.0 } else { -6.0 };
                }
            }
            stream.push(current.clone());
        }
        stream
    }

    /// A stream of word-length configurations: single-site ±1 steps,
    /// random jumps, and word-lengths below `ib + 2` that clamp to it.
    fn word_length_stream(seed: u64, len: usize) -> Vec<Vec<i32>> {
        let mut rng = Stream(seed);
        let word = |rng: &mut Stream| 2 + rng.below(15) as i32;
        let mut current: Vec<i32> = (0..NUM_INJECTION_SITES).map(|_| word(&mut rng)).collect();
        let mut stream = vec![current.clone()];
        while stream.len() < len {
            let site = rng.below(NUM_INJECTION_SITES as u64) as usize;
            match rng.below(8) {
                0 => current = (0..NUM_INJECTION_SITES).map(|_| word(&mut rng)).collect(),
                1 => current[site] = 2,
                step => {
                    let moved = current[site] + if step % 2 == 0 { 1 } else { -1 };
                    current[site] = moved.clamp(2, 16);
                }
            }
            stream.push(current.clone());
        }
        stream
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn resumed_injection_passes_keep_every_logit_bit(seed in 0u64..u64::MAX) {
            let bench = injection();
            for powers in power_stream(seed, 12) {
                let resumed = bits(&bench.image_logits(&powers).unwrap());
                // A copy starts with an empty store: a full pass.
                let full = bits(&bench.clone().image_logits(&powers).unwrap());
                prop_assert_eq!(resumed, full);
            }
            prop_assert!(bench.resume_stats().resumed() > 0);
        }

        #[test]
        fn resumed_quantized_passes_keep_every_logit_bit(seed in 0u64..u64::MAX) {
            let bench = quantized();
            for words in word_length_stream(seed, 12) {
                let resumed = bits(&bench.image_logits(&words).unwrap());
                let full = bits(&bench.clone().image_logits(&words).unwrap());
                prop_assert_eq!(resumed, full);
            }
            prop_assert!(bench.resume_stats().resumed() > 0);
        }
    }

    #[test]
    fn a_single_site_change_resumes_at_that_site() {
        let injection = injection();
        let powers = [-44.0; NUM_INJECTION_SITES];
        injection.image_logits(&powers).unwrap();
        let quantized = quantized();
        let words = [9; NUM_INJECTION_SITES];
        quantized.image_logits(&words).unwrap();
        for site in 0..NUM_INJECTION_SITES {
            let start = site * usize::from(site >= FIRST_CHECKPOINT_SITE);

            let before = injection.resume_stats().started_at[start];
            let mut changed = powers;
            changed[site] += 6.0;
            injection.image_logits(&changed).unwrap();
            assert_eq!(injection.resume_stats().started_at[start], before + 1);

            let before = quantized.resume_stats().started_at[start];
            let mut changed = words;
            changed[site] += 1;
            quantized.image_logits(&changed).unwrap();
            assert_eq!(quantized.resume_stats().started_at[start], before + 1);
        }
    }

    #[test]
    fn a_cap_below_every_entry_falls_back_to_full_passes() {
        // Nothing fits under a zero cap; a cap of about one site-9 entry
        // evicts on nearly every insert.
        let site9_entry = (NUM_INJECTION_SITES + 1) * 8 + IMAGES * (10 + 1) * 8;
        for cap in [0, site9_entry] {
            let mut bench = injection();
            bench.checkpoints = CheckpointStore::with_cap(cap);
            for powers in power_stream(7, 16) {
                let resumed = bits(&bench.image_logits(&powers).unwrap());
                let full = bits(&bench.clone().image_logits(&powers).unwrap());
                assert_eq!(resumed, full, "cap {cap}");
                assert!(bench.checkpoints.bytes() <= cap, "cap {cap}");
            }
            let stats = bench.resume_stats();
            assert_eq!(stats.simulations(), 16);
            assert_eq!(stats.resumed(), stats.started_at[9], "cap {cap}");
        }
    }

    #[test]
    fn the_store_never_exceeds_its_cap() {
        // About two configurations' worth of site inputs.
        let cap = 2 * IMAGES * 1694 * 8;
        let mut bench = quantized();
        bench.checkpoints = CheckpointStore::with_cap(cap);
        let mut peak = 0;
        for words in word_length_stream(11, 60) {
            bench.image_logits(&words).unwrap();
            peak = peak.max(bench.checkpoints.bytes());
            assert!(bench.checkpoints.bytes() <= cap);
        }
        assert!(peak > cap / 2, "the stream never filled the store: {peak}");
        assert!(bench.resume_stats().resumed() > 0);
    }

    #[test]
    fn two_threads_share_one_instance() {
        let bench = injection();
        // The threads step in lockstep through one stream, the second with
        // a different site 9, so each can resume from the other's inserts.
        let stream = power_stream(21, 16);
        let mut shifted = stream.clone();
        for powers in &mut shifted {
            powers[9] = -20.0;
        }
        let barrier = std::sync::Barrier::new(2);
        let shared: Vec<Vec<Vec<u64>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = [&stream, &shifted]
                .map(|stream| {
                    let (bench, barrier) = (&bench, &barrier);
                    scope.spawn(move || {
                        stream
                            .iter()
                            .map(|powers| {
                                barrier.wait();
                                bits(&bench.image_logits(powers).unwrap())
                            })
                            .collect()
                    })
                })
                .into_iter()
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (stream, shared) in [&stream, &shifted].iter().zip(&shared) {
            for (powers, shared) in stream.iter().zip(shared) {
                let full = bits(&bench.clone().image_logits(powers).unwrap());
                assert_eq!(shared, &full);
            }
        }
        let stats = bench.resume_stats();
        assert_eq!(stats.simulations(), 32);
        assert!(stats.resumed() > 0);
    }

    #[test]
    fn a_poisoned_store_counts_every_lookup_as_a_miss() {
        let bench = quantized();
        let words = [8; NUM_INJECTION_SITES];
        let first = bits(&bench.image_logits(&words).unwrap());
        bench.checkpoints.poison();
        let again = bits(&bench.image_logits(&words).unwrap());
        assert_eq!(first, again);
        assert_eq!(bench.resume_stats().started_at[0], 2, "the repeat missed");
    }

    #[test]
    fn stats_count_resumes_and_skipped_stages() {
        let mut stats = ResumeStats::default();
        stats.started_at[0] = 3;
        stats.started_at[2] = 1;
        stats.started_at[9] = 4;
        assert_eq!(stats.simulations(), 8);
        assert_eq!(stats.resumed(), 5);
        assert_eq!(stats.stages_skipped(), 2 + 36);
    }
}
