//! Resumable simulation: a per-benchmark store of the inputs of the
//! injection sites, so a simulation starts at the first site where its
//! configuration differs from one already simulated.
//!
//! A CNN configuration holds one entry per injection site (an error power
//! or a register word-length), and the sites run in forward order. The
//! input of site `k`, before its hook runs, is therefore a function of the
//! image and the configuration prefix `c[..k]` alone. So are the injection
//! benchmark's noise cursors there: each image reads one fixed normal
//! sequence through a cursor of its own, and a site that injects nothing
//! into an image (`−∞` dB, or σ = 0 over its all-zero activation) draws
//! nothing for it, so image `i`'s cursor at `k` counts its draws at sites
//! `0..k`. A pass runs every image as one batch; a pass resumed at site `k`
//! from a stored input batch and cursors runs the same operations on the
//! same values as a full pass from there on, so every logit keeps its
//! bits.
//!
//! The optimizers query `w ± e_i` neighbours of configurations already
//! simulated, so most simulations share a long prefix with a stored one.
//! The entries live in a [`CheckpointStore`], the store every resumable
//! benchmark shares; this module decides what the CNNs store and how they
//! key it.

use std::sync::Arc;

use krigeval_fixedpoint::{Checkpoint, CheckpointStore};

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

/// A CNN benchmark's store of site inputs; its start counts are indexed
/// by the site a pass started at.
pub(crate) type SiteStore = CheckpointStore<SiteInputs>;

/// An empty store capped at [`CHECKPOINT_BYTES`]; it allocates on its
/// first insert.
pub(crate) fn site_store() -> SiteStore {
    CheckpointStore::new(NUM_INJECTION_SITES, CHECKPOINT_BYTES)
}

/// A [`SiteHook`] a pass can resume from the middle.
pub(crate) trait ResumableHook: SiteHook {
    /// Each image's position in its noise stream, for hooks that draw one;
    /// empty for hooks that draw nothing.
    fn cursors(&self) -> &[usize];
}

/// One site's input batch, taken before the site's hook ran, and the noise
/// cursor each image's hook stood at there (empty for hooks that draw
/// nothing). Both buffers are copies of their exact size.
pub(crate) struct SiteInputs {
    input: Tensor3,
    cursors: Vec<usize>,
}

/// Charged for the memory its buffers hold.
impl Checkpoint for SiteInputs {
    fn bytes(&self) -> usize {
        self.input.capacity_bytes() + self.cursors.bytes()
    }
}

/// Takes each site's input batch from `first` on, then runs the wrapped
/// hook.
struct Recorder<H> {
    hook: H,
    first: usize,
    sites: Vec<SiteInputs>,
}

impl<H: ResumableHook> SiteHook for Recorder<H> {
    fn site(&mut self, site: usize, batch: &mut Tensor3) {
        if site >= self.first {
            self.sites.push(SiteInputs {
                input: batch.clone(),
                cursors: self.hook.cursors().to_vec(),
            });
        }
        self.hook.site(site, batch);
    }
}

/// The store key of site `site`'s checkpoint for `config`: the site, then
/// the configuration prefix that determines its input.
fn key<'a>(site: usize, config: &[u64], buf: &'a mut [u64; NUM_INJECTION_SITES + 1]) -> &'a [u64] {
    buf[0] = site as u64;
    buf[1..=site].copy_from_slice(&config[..site]);
    &buf[..=site]
}

/// Simulates `config` (one key word per site) over the batch of every
/// image and returns each image's logits. The pass starts at the deepest
/// site whose input batch `store` keeps for `config`'s prefix, or at site
/// 0 from `stems`; `hook(cursors)` builds the pass's hook, given the
/// stored noise cursors when it resumes. The input batches of the later
/// sites from [`FIRST_CHECKPOINT_SITE`] on are taken and stored.
pub(crate) fn simulate<H: ResumableHook>(
    store: &SiteStore,
    net: &MiniSqueezeNet,
    stems: &Tensor3,
    config: &[u64],
    hook: impl FnOnce(Option<&[usize]>) -> H,
) -> Vec<Vec<f64>> {
    let (start, input, hook) = match lookup(store, config) {
        Some((site, inputs)) => (site, inputs.input.clone(), hook(Some(&inputs.cursors))),
        None => (0, stems.clone(), hook(None)),
    };
    store.count_start(start);
    let mut recorder = Recorder {
        hook,
        first: (start + 1).max(FIRST_CHECKPOINT_SITE),
        sites: Vec::new(),
    };
    let logits = net.forward_at(start, input, &mut recorder);
    let mut buf = [0; NUM_INJECTION_SITES + 1];
    for (site, inputs) in (recorder.first..).zip(recorder.sites) {
        store.insert(key(site, config, &mut buf), inputs);
    }
    logits.split()
}

/// The deepest stored site inputs for a prefix of `config`.
fn lookup(store: &SiteStore, config: &[u64]) -> Option<(usize, Arc<SiteInputs>)> {
    let mut buf = [0; NUM_INJECTION_SITES + 1];
    (FIRST_CHECKPOINT_SITE..NUM_INJECTION_SITES)
        .rev()
        .find_map(|site| Some((site, store.get(key(site, config, &mut buf))?)))
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

    /// Asserts that each entry stored for `config` is charged the memory
    /// it holds, and that it holds no spare capacity: one input batch and
    /// `cursors` cursors.
    fn assert_charged_by_capacity(store: &SiteStore, config: &[u64], cursors: usize) -> usize {
        let mut buf = [0; NUM_INJECTION_SITES + 1];
        let mut entries = 0;
        for site in FIRST_CHECKPOINT_SITE..NUM_INJECTION_SITES {
            let Some(entry) = store.get(key(site, config, &mut buf)) else {
                continue;
            };
            let held = entry.input.capacity_bytes() + entry.cursors.capacity() * 8;
            let exact = (entry.input.len() + cursors) * 8;
            assert_eq!(entry.cursors.len(), cursors, "site {site}");
            assert_eq!(entry.bytes(), held, "site {site}");
            assert_eq!(held, exact, "site {site}");
            entries += 1;
        }
        entries
    }

    #[test]
    fn a_cap_below_every_entry_falls_back_to_full_passes() {
        // Nothing fits under a zero cap; a cap of about one site-9 entry
        // evicts on nearly every insert.
        let site9_entry = (NUM_INJECTION_SITES + 1) * 8 + IMAGES * (10 + 1) * 8;
        for cap in [0, site9_entry] {
            let mut bench = injection();
            bench.checkpoints = CheckpointStore::new(NUM_INJECTION_SITES, cap);
            for powers in power_stream(7, 16) {
                let resumed = bits(&bench.image_logits(&powers).unwrap());
                let full = bits(&bench.clone().image_logits(&powers).unwrap());
                assert_eq!(resumed, full, "cap {cap}");
                assert!(bench.checkpoints.bytes() <= cap, "cap {cap}");
                let config: Vec<u64> = powers.iter().map(|p| p.to_bits()).collect();
                let stored = assert_charged_by_capacity(&bench.checkpoints, &config, IMAGES);
                assert_eq!(stored, usize::from(cap > 0), "cap {cap}");
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
        bench.checkpoints = CheckpointStore::new(NUM_INJECTION_SITES, cap);
        let mut peak = 0;
        for words in word_length_stream(11, 60) {
            bench.image_logits(&words).unwrap();
            peak = peak.max(bench.checkpoints.bytes());
            assert!(bench.checkpoints.bytes() <= cap);
            let (_, config) = bench.quantizers(&words).unwrap();
            assert!(assert_charged_by_capacity(&bench.checkpoints, &config, 0) > 0);
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
}
