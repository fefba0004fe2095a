//! 64-tap FIR benchmark (paper Table I, `Nv = 2`).
//!
//! The paper instruments exactly two word-lengths in this kernel: "the
//! word-length at the output of the adder and the word-length at the output
//! of the multiplier" (Section IV, Figure 1). The fixed-point path computes
//!
//! ```text
//! acc ← Q_add( acc + Q_mpy( h[k] · x[n−k] ) )      k = 0..63
//! ```
//!
//! and the output noise power is measured against the double-precision
//! convolution over the same input data set.

use krigeval_fixedpoint::{NoisePower, QFormat, Quantizer};

use crate::filter_design::lowpass_fir;
use crate::signal::white_noise;
use crate::{KernelError, WordLengthBenchmark};

/// Index of the adder-output word-length in the configuration vector.
pub const VAR_ADD: usize = 0;
/// Index of the multiplier-output word-length in the configuration vector.
pub const VAR_MPY: usize = 1;

/// The 64-tap low-pass FIR benchmark.
///
/// # Examples
///
/// ```
/// use krigeval_kernels::{fir::FirBenchmark, WordLengthBenchmark};
///
/// # fn main() -> Result<(), krigeval_kernels::KernelError> {
/// let fir = FirBenchmark::with_defaults();
/// let p = fir.noise_power(&[12, 10])?; // [w_add, w_mpy]
/// assert!(p.db() < -30.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FirBenchmark {
    taps: Vec<f64>,
    input: Vec<f64>,
    reference: Vec<f64>,
    /// The taps and the input pre-quantized to Q0.15, exactly as a 16-bit
    /// front end would deliver them; the optimization variables are the
    /// *internal* word-lengths only.
    taps_fx: Vec<f64>,
    input_fx: Vec<f64>,
}

impl FirBenchmark {
    /// Paper-faithful configuration: 64 taps, cutoff 0.2, 4096 white-noise
    /// input samples from a fixed seed.
    pub fn with_defaults() -> FirBenchmark {
        FirBenchmark::new(64, 0.2, 4096, 0xF1E6_4001)
    }

    /// Builds a FIR benchmark with `taps` coefficients, normalized `cutoff`,
    /// and `samples` white-noise input samples generated from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `taps == 0`, `cutoff` is outside `(0, 0.5)`, or
    /// `samples == 0` (propagated from the designers/generators).
    pub fn new(taps: usize, cutoff: f64, samples: usize, seed: u64) -> FirBenchmark {
        assert!(samples > 0, "need at least one input sample");
        let taps = lowpass_fir(taps, cutoff);
        let input = white_noise(seed, samples, 0.95);
        let reference = convolve(&taps, &input);
        let q_in = Quantizer::new(QFormat::new(0, 15).expect("Q0.15 is a valid format"));
        FirBenchmark {
            taps_fx: q_in.quantize_slice(&taps),
            input_fx: q_in.quantize_slice(&input),
            taps,
            input,
            reference,
        }
    }

    /// The filter coefficients.
    pub fn taps(&self) -> &[f64] {
        &self.taps
    }

    /// Number of input samples in the data set.
    pub fn num_samples(&self) -> usize {
        self.input.len()
    }
}

fn convolve(taps: &[f64], input: &[f64]) -> Vec<f64> {
    (0..input.len())
        .map(|n| {
            taps.iter()
                .enumerate()
                .filter(|(k, _)| *k <= n)
                .map(|(k, h)| h * input[n - k])
                .sum()
        })
        .collect()
}

impl WordLengthBenchmark for FirBenchmark {
    fn name(&self) -> &str {
        "fir64"
    }

    fn num_variables(&self) -> usize {
        2
    }

    fn noise_power(&self, word_lengths: &[i32]) -> Result<NoisePower, KernelError> {
        self.validate(word_lengths)?;
        // Products of Q0.x data and sub-unit taps stay in (−1, 1): 0 integer
        // bits. The accumulator needs headroom for Σ|h| ≈ 1.2: 1 integer bit.
        let q_add = Quantizer::new(QFormat::with_word_length(1, word_lengths[VAR_ADD])?);
        let q_mpy = Quantizer::new(QFormat::with_word_length(0, word_lengths[VAR_MPY])?);
        let mut meter = krigeval_fixedpoint::NoiseMeter::new();
        for_each_output(&self.taps_fx, &self.input_fx, &q_add, &q_mpy, |n, acc| {
            meter.record(self.reference[n], acc)
        });
        Ok(meter.noise_power())
    }
}

/// Outputs filtered side by side once every tap has an input sample.
const LANES: usize = 32;

/// Runs the fixed-point filter and hands each output to `emit` in sample
/// order. Every output sees the same operations in the same order as the
/// one-sample-at-a-time loop (the `#[cfg(test)]` oracle below), so its bits
/// are unchanged; but once `n + 1 >= taps` the loop advances [`LANES`]
/// independent accumulator chains together, so their quantizer latencies
/// overlap instead of queueing.
fn for_each_output(
    taps: &[f64],
    input: &[f64],
    q_add: &Quantizer,
    q_mpy: &Quantizer,
    mut emit: impl FnMut(usize, f64),
) {
    // One output at a time: the head, whose outputs see fewer taps than
    // the filter has, and a tail of fewer than LANES outputs.
    let one_output = |n: usize| {
        let mut acc = 0.0;
        for (k, h) in taps.iter().enumerate() {
            if k > n {
                break;
            }
            let product = q_mpy.quantize(h * input[n - k]);
            acc = q_add.quantize(acc + product);
        }
        acc
    };
    let head = taps.len().saturating_sub(1).min(input.len());
    for n in 0..head {
        emit(n, one_output(n));
    }
    let mut n = head;
    while n + LANES <= input.len() {
        let mut acc = [0.0; LANES];
        for (k, h) in taps.iter().enumerate() {
            // x[n + l - k] for lane l.
            let window = &input[n - k..n - k + LANES];
            let mut products = [0.0; LANES];
            for (p, x) in products.iter_mut().zip(window) {
                *p = h * x;
            }
            q_mpy.quantize_in_place(&mut products);
            for (a, p) in acc.iter_mut().zip(products) {
                *a += p;
            }
            q_add.quantize_in_place(&mut acc);
        }
        for (l, a) in acc.into_iter().enumerate() {
            emit(n + l, a);
        }
        n += LANES;
    }
    for n in n..input.len() {
        emit(n, one_output(n));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The filter loop as originally written, one output at a time: the
    /// oracle for the lane-parallel [`for_each_output`].
    fn outputs_one_at_a_time(
        taps: &[f64],
        input: &[f64],
        q_add: &Quantizer,
        q_mpy: &Quantizer,
    ) -> Vec<f64> {
        (0..input.len())
            .map(|n| {
                let mut acc = 0.0;
                for (k, h) in taps.iter().enumerate() {
                    if k > n {
                        break;
                    }
                    let product = q_mpy.quantize(h * input[n - k]);
                    acc = q_add.quantize(acc + product);
                }
                acc
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn lane_parallel_filter_is_bitwise_the_per_sample_loop(
            num_taps in 1usize..=70,
            samples in 1usize..=200,
            seed in 0u64..1_000_000,
            w_add in 2i32..=20,
            w_mpy in 1i32..=20,
        ) {
            let f = FirBenchmark::new(num_taps, 0.2, samples, seed);
            let q_add = Quantizer::new(QFormat::with_word_length(1, w_add).unwrap());
            let q_mpy = Quantizer::new(QFormat::with_word_length(0, w_mpy).unwrap());
            let oracle = outputs_one_at_a_time(&f.taps, &f.input, &q_add, &q_mpy);
            let mut fast = Vec::with_capacity(samples);
            for_each_output(&f.taps, &f.input, &q_add, &q_mpy, |n, acc| {
                assert_eq!(n, fast.len(), "outputs arrive in sample order");
                fast.push(acc);
            });
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&fast), bits(&oracle));
        }
    }

    fn small() -> FirBenchmark {
        FirBenchmark::new(64, 0.2, 512, 0xF1E6_4001)
    }

    #[test]
    fn validates_configuration_shape() {
        let f = small();
        assert!(f.noise_power(&[8]).is_err());
        assert!(f.noise_power(&[8, 8, 8]).is_err());
        assert!(f.noise_power(&[1, 8]).is_err());
        assert!(f.noise_power(&[8, 20]).is_err());
    }

    #[test]
    fn noise_decreases_with_word_length() {
        let f = small();
        let mut prev_db = f64::INFINITY;
        for w in [4, 6, 8, 10, 12, 14] {
            let db = f.noise_power(&[w, w]).unwrap().db();
            assert!(db < prev_db, "w={w}: {db} !< {prev_db}");
            prev_db = db;
        }
    }

    #[test]
    fn each_extra_bit_buys_about_six_db() {
        let f = small();
        let d8 = f.noise_power(&[8, 8]).unwrap().db();
        let d12 = f.noise_power(&[12, 12]).unwrap().db();
        let per_bit = (d8 - d12) / 4.0;
        assert!(
            (4.0..8.0).contains(&per_bit),
            "per-bit improvement {per_bit} dB"
        );
    }

    #[test]
    fn narrowest_stage_limits_the_noise() {
        // An imbalanced configuration is limited by its narrowest stage and
        // must be noisier than the balanced wide configuration.
        let f = small();
        let narrow_mpy = f.noise_power(&[14, 6]).unwrap().db();
        let narrow_add = f.noise_power(&[6, 14]).unwrap().db();
        let balanced = f.noise_power(&[14, 14]).unwrap().db();
        assert!(narrow_mpy > balanced + 6.0, "{narrow_mpy} vs {balanced}");
        assert!(narrow_add > balanced + 6.0, "{narrow_add} vs {balanced}");
    }

    #[test]
    fn deterministic_across_calls() {
        let f = small();
        let a = f.noise_power(&[9, 7]).unwrap();
        let b = f.noise_power(&[9, 7]).unwrap();
        assert_eq!(a.linear(), b.linear());
    }

    #[test]
    fn accuracy_db_monotone() {
        let f = small();
        assert!(f.accuracy_db(&[12, 12]).unwrap() > f.accuracy_db(&[6, 6]).unwrap());
    }

    #[test]
    fn reference_matches_naive_convolution_start() {
        let f = small();
        // y[0] = h[0]·x[0].
        assert!((f.reference[0] - f.taps[0] * f.input[0]).abs() < 1e-15);
    }

    #[test]
    fn simulated_noise_matches_additive_model() {
        // Linear-noise model: each of the 64 product quantizations injects
        // q_mpy²/12 (filtered by unit gain to the output), and each of the
        // 64 accumulator quantizations injects q_add²/12. With rounding
        // quantizers and white inputs the measured power should land within
        // a factor ~2 (±3 dB) of the model — the classic sanity check of
        // fixed-point noise analysis.
        // The independent-uniform-source model is only an order-of-magnitude
        // guide here: (a) most tap products are *smaller* than the product
        // quantization step, so their error variance is below q²/12; (b) the
        // 64 accumulator requantizations have discrete, tie-biased errors
        // that partially add coherently. Measured-to-model ratios between
        // 0.1 and 10 are the realistic envelope — the check still catches
        // any order-of-magnitude regression in the simulation path.
        let f = FirBenchmark::new(64, 0.2, 4096, 0xF1E6_4001);
        for (w_add, w_mpy) in [(8, 8), (10, 8), (8, 10), (12, 12)] {
            let measured = f.noise_power(&[w_add, w_mpy]).unwrap().linear();
            let q_add = QFormat::with_word_length(1, w_add).unwrap().step();
            let q_mpy = QFormat::with_word_length(0, w_mpy).unwrap().step();
            let model = 64.0 * (q_add * q_add + q_mpy * q_mpy) / 12.0;
            let ratio = measured / model;
            assert!(
                (0.1..10.0).contains(&ratio),
                "w=({w_add},{w_mpy}): measured {measured:e}, model {model:e}, ratio {ratio}"
            );
        }
    }

    #[test]
    fn max_word_length_config_is_nearly_exact() {
        let f = small();
        let p = f.noise_power(&[16, 16]).unwrap();
        // Only the 16-bit internal rounding remains; power must be tiny.
        assert!(p.db() < -60.0, "got {}", p.db());
    }
}
