//! 64-point FFT benchmark (paper Table I, `Nv = 10`).
//!
//! Radix-2 decimation-in-time FFT over 64 complex points (6 butterfly
//! stages), with per-stage 1/2 scaling — the classic fixed-point FFT
//! realization that keeps every intermediate inside `(−1, 1)`.
//!
//! Ten word-lengths are optimized, matching the paper's `Nv = 10`:
//!
//! * variables 0–5: the butterfly adder/subtractor output word-length of
//!   each of the 6 stages;
//! * variables 6–9: the twiddle-multiplier output word-length of stages
//!   2–5 (stages 0 and 1 only multiply by ±1 and ∓j, which are exact).

use std::f64::consts::PI;

use krigeval_fixedpoint::{NoiseMeter, NoisePower, QFormat, Quantizer};

use crate::signal::complex_white_noise;
use crate::{KernelError, WordLengthBenchmark};

/// Number of complex points (fixed at 64, as in the paper).
pub const FFT_SIZE: usize = 64;
/// Number of butterfly stages (`log2(FFT_SIZE)`).
pub const STAGES: usize = 6;
/// Stages whose twiddle factors are non-trivial and therefore quantized.
pub const TWIDDLE_STAGES: std::ops::Range<usize> = 2..6;

/// Complex value as a `(re, im)` pair.
pub type Complex = (f64, f64);

/// The 64-point fixed-point FFT benchmark.
///
/// # Examples
///
/// ```
/// use krigeval_kernels::{fft::FftBenchmark, WordLengthBenchmark};
///
/// # fn main() -> Result<(), krigeval_kernels::KernelError> {
/// let fft = FftBenchmark::with_defaults();
/// assert_eq!(fft.num_variables(), 10);
/// let p = fft.noise_power(&[12; 10])?;
/// assert!(p.db() < -40.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FftBenchmark {
    frames: Vec<Vec<Complex>>,
    references: Vec<Vec<Complex>>,
}

impl FftBenchmark {
    /// Paper-faithful configuration: 64 frames of 64 complex white-noise
    /// points from a fixed seed.
    pub fn with_defaults() -> FftBenchmark {
        FftBenchmark::new(64, 0xFF7_0003)
    }

    /// Builds the benchmark with `num_frames` input frames from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `num_frames == 0`.
    pub fn new(num_frames: usize, seed: u64) -> FftBenchmark {
        assert!(num_frames > 0, "need at least one input frame");
        let frames: Vec<Vec<Complex>> = (0..num_frames)
            .map(|i| complex_white_noise(seed.wrapping_add(i as u64), FFT_SIZE, 0.95))
            .collect();
        let references = frames.iter().map(|f| fft_reference(f)).collect();
        FftBenchmark { frames, references }
    }

    /// Number of input frames in the data set.
    pub fn num_frames(&self) -> usize {
        self.frames.len()
    }
}

/// Double-precision scaled FFT (the reference path): radix-2 DIT with the
/// same 1/2 per-stage scaling as the fixed-point path, so both compute
/// `X[k] / N`.
///
/// # Panics
///
/// Panics if `input.len() != FFT_SIZE`.
///
/// # Examples
///
/// ```
/// use krigeval_kernels::fft::{fft_reference, FFT_SIZE};
///
/// // FFT of a DC signal: all energy lands in bin 0 (scaled by 1/N · N = 1).
/// let dc = vec![(1.0, 0.0); FFT_SIZE];
/// let x = fft_reference(&dc);
/// assert!((x[0].0 - 1.0).abs() < 1e-12);
/// assert!(x[1..].iter().all(|(re, im)| re.abs() < 1e-12 && im.abs() < 1e-12));
/// ```
pub fn fft_reference(input: &[Complex]) -> Vec<Complex> {
    assert_eq!(input.len(), FFT_SIZE, "expected {FFT_SIZE} points");
    let twiddles = twiddles();
    let mut data = bit_reverse_permute(input);
    for stage in 0..STAGES {
        run_stage(&mut data, stage, &twiddles, |_, _| {}, |_, _| {});
    }
    data.to_vec()
}

/// Naive `O(N²)` DFT of the same scaled transform, for testing the fast path.
///
/// # Panics
///
/// Panics if `input.len() != FFT_SIZE`.
pub fn dft_naive(input: &[Complex]) -> Vec<Complex> {
    assert_eq!(input.len(), FFT_SIZE, "expected {FFT_SIZE} points");
    let n = input.len();
    (0..n)
        .map(|k| {
            let (mut re, mut im) = (0.0, 0.0);
            for (t, &(xr, xi)) in input.iter().enumerate() {
                let ang = -2.0 * PI * (k * t) as f64 / n as f64;
                let (c, s) = (ang.cos(), ang.sin());
                re += xr * c - xi * s;
                im += xr * s + xi * c;
            }
            (re / n as f64, im / n as f64)
        })
        .collect()
}

fn bit_reverse_permute(input: &[Complex]) -> [Complex; FFT_SIZE] {
    let bits = FFT_SIZE.trailing_zeros();
    let mut out = [(0.0, 0.0); FFT_SIZE];
    for (i, &v) in input.iter().enumerate() {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        out[j] = v;
    }
    out
}

/// Every stage's twiddle factors: stage `s`, butterfly `k` at index
/// `2^s + k` (entry 0 is unused). Each is computed with the per-butterfly
/// expression, so the factors are bitwise those of a `cos`/`sin` pair per
/// butterfly, once per transform instead of once per butterfly.
fn twiddles() -> [Complex; FFT_SIZE] {
    let mut table = [(0.0, 0.0); FFT_SIZE];
    for stage in 0..STAGES {
        let half = 1 << stage;
        let span = half << 1;
        for k in 0..half {
            let ang = -2.0 * PI * k as f64 / span as f64;
            table[half + k] = (ang.cos(), ang.sin());
        }
    }
    table
}

/// Runs one DIT stage in place. `q_mpy(stage, lanes)` quantizes the
/// stage's twiddle-product components and `q_add(stage, lanes)` its
/// butterfly-output components, each a whole stage at a time (every value
/// sees the operations of a butterfly-at-a-time loop, in the same order);
/// no-op hooks give the double-precision reference.
#[inline(always)]
fn run_stage(
    data: &mut [Complex; FFT_SIZE],
    stage: usize,
    twiddles: &[Complex; FFT_SIZE],
    q_mpy: impl Fn(usize, &mut [f64]),
    q_add: impl Fn(usize, &mut [f64]),
) {
    // Groups of `2 * half` points; butterfly `i` pairs point `upper(i)`
    // with `upper(i) + half` and uses twiddle `i mod half`.
    let half = 1 << stage;
    let upper = |i: usize| (i & !(half - 1)) << 1 | (i & (half - 1));
    // Twiddle products and butterfly outputs, real and imaginary parts
    // interleaved per butterfly.
    let mut products = [0.0; FFT_SIZE];
    for (i, t) in products.chunks_exact_mut(2).enumerate() {
        let (br, bi) = data[upper(i) + half];
        let (wr, wi) = twiddles[half + (i & (half - 1))];
        t[0] = br * wr - bi * wi;
        t[1] = br * wi + bi * wr;
    }
    // Stages 0 and 1 multiply by w ∈ {1, -j}: exact data moves, no
    // rounding in hardware.
    if stage >= TWIDDLE_STAGES.start {
        q_mpy(stage, &mut products);
    }
    // Butterfly with 1/2 scaling to prevent overflow.
    let mut sums = [0.0; FFT_SIZE];
    let mut diffs = [0.0; FFT_SIZE];
    for (i, ((t, s), d)) in products
        .chunks_exact(2)
        .zip(sums.chunks_exact_mut(2))
        .zip(diffs.chunks_exact_mut(2))
        .enumerate()
    {
        let (ar, ai) = data[upper(i)];
        s[0] = (ar + t[0]) * 0.5;
        s[1] = (ai + t[1]) * 0.5;
        d[0] = (ar - t[0]) * 0.5;
        d[1] = (ai - t[1]) * 0.5;
    }
    q_add(stage, &mut sums);
    q_add(stage, &mut diffs);
    for (i, (s, d)) in sums.chunks_exact(2).zip(diffs.chunks_exact(2)).enumerate() {
        data[upper(i)] = (s[0], s[1]);
        data[upper(i) + half] = (d[0], d[1]);
    }
}

impl WordLengthBenchmark for FftBenchmark {
    fn name(&self) -> &str {
        "fft64"
    }

    fn num_variables(&self) -> usize {
        STAGES + TWIDDLE_STAGES.len()
    }

    fn noise_power(&self, word_lengths: &[i32]) -> Result<NoisePower, KernelError> {
        self.validate(word_lengths)?;
        // Scaled data stays in (−1, 1): 0 integer bits everywhere.
        let quantizers: Vec<Quantizer> = word_lengths
            .iter()
            .map(|&w| Ok(Quantizer::new(QFormat::with_word_length(0, w)?)))
            .collect::<Result<_, KernelError>>()?;
        let (add_q, mpy_q) = quantizers.split_at(STAGES);
        let q_in = Quantizer::new(QFormat::new(0, 15)?);
        let twiddles = twiddles();

        let mut meter = NoiseMeter::new();
        for (frame, reference) in self.frames.iter().zip(&self.references) {
            let mut data = bit_reverse_permute(frame);
            for (re, im) in &mut data {
                (*re, *im) = (q_in.quantize(*re), q_in.quantize(*im));
            }
            for stage in 0..STAGES {
                run_stage(
                    &mut data,
                    stage,
                    &twiddles,
                    |s, lanes| mpy_q[s - TWIDDLE_STAGES.start].quantize_in_place(lanes),
                    |s, lanes| add_q[s].quantize_in_place(lanes),
                );
            }
            for (&(fr, fi), &(rr, ri)) in data.iter().zip(reference) {
                meter.record(rr, fr);
                meter.record(ri, fi);
            }
        }
        Ok(meter.noise_power())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The transform as originally written: a `cos`/`sin` pair per
    /// butterfly, `dyn FnMut` quantizer hooks and a fresh `Vec` per frame.
    /// The oracle for the table-driven [`run_stage`].
    fn run_stage_per_butterfly(
        data: &mut [Complex],
        stage: usize,
        q_mpy: &mut dyn FnMut(usize, f64) -> f64,
        q_add: &mut dyn FnMut(usize, f64) -> f64,
    ) {
        let n = data.len();
        let half = 1 << stage;
        let span = half << 1;
        for group in (0..n).step_by(span) {
            for k in 0..half {
                let ang = -2.0 * PI * k as f64 / span as f64;
                let (wr, wi) = (ang.cos(), ang.sin());
                let (ar, ai) = data[group + k];
                let (br, bi) = data[group + k + half];
                let (tr, ti) = if stage < TWIDDLE_STAGES.start {
                    (br * wr - bi * wi, br * wi + bi * wr)
                } else {
                    (
                        q_mpy(stage, br * wr - bi * wi),
                        q_mpy(stage, br * wi + bi * wr),
                    )
                };
                data[group + k] = (q_add(stage, (ar + tr) * 0.5), q_add(stage, (ai + ti) * 0.5));
                data[group + k + half] =
                    (q_add(stage, (ar - tr) * 0.5), q_add(stage, (ai - ti) * 0.5));
            }
        }
    }

    fn noise_power_per_butterfly(b: &FftBenchmark, word_lengths: &[i32]) -> NoisePower {
        let q = |w: i32| Quantizer::new(QFormat::with_word_length(0, w).unwrap());
        let add_q: Vec<Quantizer> = word_lengths[..STAGES].iter().map(|&w| q(w)).collect();
        let mpy_q: Vec<Quantizer> = word_lengths[STAGES..].iter().map(|&w| q(w)).collect();
        let q_in = Quantizer::new(QFormat::new(0, 15).unwrap());
        let mut meter = NoiseMeter::new();
        for frame in &b.frames {
            let quantized: Vec<Complex> = frame
                .iter()
                .map(|&(re, im)| (q_in.quantize(re), q_in.quantize(im)))
                .collect();
            let mut data = bit_reverse_permute(&quantized).to_vec();
            let mut reference = bit_reverse_permute(frame).to_vec();
            for stage in 0..STAGES {
                run_stage_per_butterfly(
                    &mut data,
                    stage,
                    &mut |s, v| mpy_q[s - TWIDDLE_STAGES.start].quantize(v),
                    &mut |s, v| add_q[s].quantize(v),
                );
                run_stage_per_butterfly(&mut reference, stage, &mut |_, v| v, &mut |_, v| v);
            }
            for (&(fr, fi), &(rr, ri)) in data.iter().zip(&reference) {
                meter.record(rr, fr);
                meter.record(ri, fi);
            }
        }
        meter.noise_power()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn table_driven_fft_is_bitwise_the_per_butterfly_loop(
            frames in 1usize..=6,
            seed in 0u64..1_000_000,
            word_lengths in proptest::collection::vec(2i32..=16, 10),
        ) {
            let b = FftBenchmark::new(frames, seed);
            prop_assert_eq!(
                b.noise_power(&word_lengths).unwrap().linear().to_bits(),
                noise_power_per_butterfly(&b, &word_lengths).linear().to_bits()
            );
        }
    }

    fn small() -> FftBenchmark {
        FftBenchmark::new(8, 0xFF7_0003)
    }

    #[test]
    fn fft_matches_naive_dft() {
        let x = complex_white_noise(99, FFT_SIZE, 0.9);
        let fast = fft_reference(&x);
        let slow = dft_naive(&x);
        for ((fr, fi), (sr, si)) in fast.iter().zip(&slow) {
            assert!((fr - sr).abs() < 1e-10 && (fi - si).abs() < 1e-10);
        }
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let mut x = vec![(0.0, 0.0); FFT_SIZE];
        x[0] = (1.0, 0.0);
        let spec = fft_reference(&x);
        for (re, im) in spec {
            assert!((re - 1.0 / FFT_SIZE as f64).abs() < 1e-12);
            assert!(im.abs() < 1e-12);
        }
    }

    #[test]
    fn parseval_holds_for_scaled_transform() {
        // For X[k] = (1/N)·Σ x e^{-j...}: Σ|x|²/N = Σ|X|²·N/N = N·Σ|X|².
        let x = complex_white_noise(5, FFT_SIZE, 0.9);
        let spec = fft_reference(&x);
        let ex: f64 = x.iter().map(|(r, i)| r * r + i * i).sum();
        let es: f64 = spec.iter().map(|(r, i)| r * r + i * i).sum();
        assert!((ex / FFT_SIZE as f64 - es).abs() < 1e-10, "{ex} vs {es}");
    }

    #[test]
    fn has_ten_variables() {
        assert_eq!(small().num_variables(), 10);
    }

    #[test]
    fn noise_decreases_with_word_length() {
        let b = small();
        let mut prev = f64::INFINITY;
        for w in [6, 8, 10, 12, 14] {
            let db = b.noise_power(&[w; 10]).unwrap().db();
            assert!(db < prev, "w={w}: {db} !< {prev}");
            prev = db;
        }
    }

    #[test]
    fn late_stage_quantization_hurts_more() {
        // Noise injected at stage 5 hits the output directly; stage-0 noise
        // is attenuated by five subsequent 1/2 scalings.
        let b = small();
        let narrow_first = b
            .noise_power(&[8, 14, 14, 14, 14, 14, 14, 14, 14, 14])
            .unwrap();
        let narrow_last = b
            .noise_power(&[14, 14, 14, 14, 14, 8, 14, 14, 14, 14])
            .unwrap();
        assert!(
            narrow_last.db() > narrow_first.db(),
            "first {} dB, last {} dB",
            narrow_first.db(),
            narrow_last.db()
        );
    }

    #[test]
    fn validates_shape() {
        let b = small();
        assert!(b.noise_power(&[12; 9]).is_err());
        assert!(b.noise_power(&[12; 11]).is_err());
    }

    #[test]
    fn deterministic() {
        let b = small();
        let w = [9, 10, 11, 12, 13, 9, 10, 11, 12, 13];
        assert_eq!(
            b.noise_power(&w).unwrap().linear(),
            b.noise_power(&w).unwrap().linear()
        );
    }

    #[test]
    fn bit_reverse_is_an_involution() {
        let x = complex_white_noise(7, FFT_SIZE, 1.0);
        let once = bit_reverse_permute(&x);
        let twice = bit_reverse_permute(&once);
        assert_eq!(x, twice);
    }
}
