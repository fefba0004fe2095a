//! Stage states of the resumable kernels.
//!
//! The IIR cascade, the FFT and the HEVC interpolator each keep, per
//! instance, the values entering their stages for recently simulated
//! configurations, in a [`CheckpointStore`] keyed by the stage and the
//! word-lengths of exactly the sites those values depend on. A simulation
//! reuses every stored state its configuration matches and records the
//! others; each stage then runs the same operations in the same order on
//! the same values as in a full pass, so every output keeps its bits.
//! FIR has no stage state (its two sites act inside every tap), and DCT
//! and LMS run full passes.

use krigeval_fixedpoint::CheckpointStore;

/// Byte cap of one kernel instance's store of stage states; the least
/// recently used states are evicted to stay under it. One paper-scale
/// configuration stores at most 320 KiB (fft64: five stages of 64 frames ×
/// 1 KiB), iir8 128 KiB and hevc_mc 26 KiB. In a sweep over dse-speedup
/// (DESIGN.md §7), every cap from 2 MiB up left each kernel within one
/// point of the share of full-pass work an unbounded store leaves; 1 MiB
/// left fft64 eight points more, and 4 MiB added 4 MB of peak RSS.
pub const STAGE_STATE_BYTES: usize = 2 << 20;

/// A kernel's store of stage states, each a buffer of `T`.
pub(crate) type StateStore<T> = CheckpointStore<Vec<T>>;

/// A word-length as a key word.
pub(crate) fn word(w: i32) -> u64 {
    u64::from(w.unsigned_abs())
}

#[cfg(test)]
pub(crate) mod testing {
    //! Stream generators and checks the resumable kernels' tests share.

    use krigeval_fixedpoint::ResumeStats;

    use crate::WordLengthBenchmark;

    /// The bits of `bench`'s noise power at `w`.
    pub(crate) fn bits<B: WordLengthBenchmark>(bench: &B, w: &[i32]) -> u64 {
        bench.noise_power(w).unwrap().linear().to_bits()
    }

    /// The bits of a full pass at `w`: a copy starts with no stored state.
    pub(crate) fn full_bits<B: WordLengthBenchmark + Clone>(bench: &B, w: &[i32]) -> u64 {
        bits(&bench.clone(), w)
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

    /// A stream of `len` word-length configurations of `nv` sites in
    /// `2..=16`: single-site ±1 steps from the previous configuration,
    /// two-site steps, random jumps, and sites set to either bound.
    pub(crate) fn word_length_stream(seed: u64, nv: usize, len: usize) -> Vec<Vec<i32>> {
        let mut rng = Stream(seed);
        let word = |rng: &mut Stream| 2 + rng.below(15) as i32;
        let mut current: Vec<i32> = (0..nv).map(|_| word(&mut rng)).collect();
        let mut stream = vec![current.clone()];
        while stream.len() < len {
            let site = rng.below(nv as u64) as usize;
            let other = rng.below(nv as u64) as usize;
            let step = |w: i32, rng: &mut Stream| {
                (w + if rng.below(2) == 0 { 1 } else { -1 }).clamp(2, 16)
            };
            match rng.below(10) {
                0 => current = (0..nv).map(|_| word(&mut rng)).collect(),
                1 => current[site] = 2,
                2 => current[site] = 16,
                3 | 4 => {
                    current[site] = step(current[site], &mut rng);
                    current[other] = step(current[other], &mut rng);
                }
                _ => current[site] = step(current[site], &mut rng),
            }
            stream.push(current.clone());
        }
        stream
    }

    /// Runs `stream` on two threads sharing `bench`, in lockstep, the
    /// second with site `site` moved, so each can resume from the other's
    /// states; every answer must equal a full pass. Returns the stats.
    ///
    /// A pass that panics does not leave the other thread at the barrier:
    /// each thread catches it, keeps stepping, and the first payload is
    /// re-raised after the join, so the test fails instead of hanging.
    pub(crate) fn two_threads_share<B>(bench: &B, stream: &[Vec<i32>], site: usize) -> ResumeStats
    where
        B: WordLengthBenchmark + Clone + Sync,
    {
        let mut shifted = stream.to_vec();
        for w in &mut shifted {
            w[site] = if w[site] == 9 { 10 } else { 9 };
        }
        let barrier = std::sync::Barrier::new(2);
        let passes: Vec<std::thread::Result<Vec<u64>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = [stream, &shifted]
                .map(|stream| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let mut panicked = None;
                        let answers: Vec<u64> = stream
                            .iter()
                            .map(|w| {
                                barrier.wait();
                                let pass = std::panic::AssertUnwindSafe(|| bits(bench, w));
                                std::panic::catch_unwind(pass).unwrap_or_else(|payload| {
                                    panicked.get_or_insert(payload);
                                    0
                                })
                            })
                            .collect();
                        panicked.map_or(Ok(answers), Err)
                    })
                })
                .into_iter()
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let shared: Vec<Vec<u64>> = passes
            .into_iter()
            .map(|pass| pass.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect();
        for (stream, shared) in [stream, &shifted].iter().zip(&shared) {
            for (w, shared) in stream.iter().zip(shared) {
                assert_eq!(*shared, full_bits(bench, w), "{w:?}");
            }
        }
        bench.resume_stats().unwrap()
    }
}
