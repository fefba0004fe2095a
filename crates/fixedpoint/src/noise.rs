//! Noise-power measurement between a reference and a quantized stream.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Mean error power `E[(ŷ − y)²]` between a fixed-point output and its
/// double-precision reference.
///
/// This is the accuracy metric `λ = −P` of the paper's word-length
/// benchmarks (the optimizers maximize accuracy, i.e. minimize power, so the
/// metric handed to kriging is the *opposite* of the power — see
/// `krigeval-core`).
///
/// # Examples
///
/// ```
/// use krigeval_fixedpoint::NoisePower;
///
/// let p = NoisePower::from_linear(1e-6);
/// assert!((p.db() + 60.0).abs() < 1e-9);
/// assert!(NoisePower::from_db(-60.0).linear() - 1e-6 < 1e-18);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct NoisePower(f64);

impl NoisePower {
    /// Wraps a linear mean-square power value.
    ///
    /// # Panics
    ///
    /// Panics if `linear` is negative or NaN (a mean of squares cannot be).
    pub fn from_linear(linear: f64) -> NoisePower {
        assert!(
            linear >= 0.0,
            "noise power must be non-negative, got {linear}"
        );
        NoisePower(linear)
    }

    /// Builds from a decibel value: `P = 10^(db/10)`.
    pub fn from_db(db: f64) -> NoisePower {
        NoisePower(10f64.powf(db / 10.0))
    }

    /// Builds from the paper's equivalent-number-of-bits convention
    /// `P(n) = 2⁻ⁿ / 12` (Section IV).
    ///
    /// # Examples
    ///
    /// ```
    /// use krigeval_fixedpoint::NoisePower;
    /// let p = NoisePower::from_equivalent_bits(10.0);
    /// assert!((p.equivalent_bits() - 10.0).abs() < 1e-12);
    /// ```
    pub fn from_equivalent_bits(n: f64) -> NoisePower {
        NoisePower(2f64.powf(-n) / 12.0)
    }

    /// Linear mean-square power.
    pub fn linear(&self) -> f64 {
        self.0
    }

    /// Power in dB (`10·log₁₀ P`); `-inf` for zero power.
    pub fn db(&self) -> f64 {
        10.0 * self.0.log10()
    }

    /// The paper's equivalent number of bits: inverts `P = 2⁻ⁿ/12`, giving
    /// `n = −log₂(12·P)`.
    pub fn equivalent_bits(&self) -> f64 {
        -(12.0 * self.0).log2()
    }

    /// `true` if no error was observed (bit-exact output).
    pub fn is_zero(&self) -> bool {
        self.0 == 0.0
    }
}

impl fmt::Display for NoisePower {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} dB", self.db())
    }
}

/// Accumulates squared error between two streams sample by sample.
///
/// # Examples
///
/// ```
/// use krigeval_fixedpoint::NoiseMeter;
///
/// let mut m = NoiseMeter::new();
/// m.record(1.0, 1.1);
/// m.record(2.0, 1.9);
/// let p = m.noise_power();
/// assert!((p.linear() - 0.01).abs() < 1e-12);
/// assert_eq!(m.samples(), 2);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NoiseMeter {
    sum_sq: f64,
    samples: u64,
}

impl NoiseMeter {
    /// Creates an empty meter.
    pub fn new() -> NoiseMeter {
        NoiseMeter::default()
    }

    /// Records one (reference, approximate) sample pair.
    pub fn record(&mut self, reference: f64, approximate: f64) {
        let e = approximate - reference;
        self.sum_sq += e * e;
        self.samples += 1;
    }

    /// Records two equal-length streams.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn record_slices(&mut self, reference: &[f64], approximate: &[f64]) {
        assert_eq!(
            reference.len(),
            approximate.len(),
            "noise meter: stream length mismatch"
        );
        for (r, a) in reference.iter().zip(approximate) {
            self.record(*r, *a);
        }
    }

    /// Number of recorded samples.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Mean error power; zero if nothing was recorded.
    pub fn noise_power(&self) -> NoisePower {
        if self.samples == 0 {
            NoisePower::from_linear(0.0)
        } else {
            NoisePower::from_linear(self.sum_sq / self.samples as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{QFormat, Quantizer};

    #[test]
    fn db_round_trip() {
        let p = NoisePower::from_db(-53.2);
        assert!((p.db() + 53.2).abs() < 1e-9);
    }

    #[test]
    fn equivalent_bits_round_trip() {
        for n in [4.0, 8.5, 16.0, 23.0] {
            let p = NoisePower::from_equivalent_bits(n);
            assert!((p.equivalent_bits() - n).abs() < 1e-10);
        }
    }

    #[test]
    fn equivalent_bits_monotone_decreasing_in_power() {
        let p1 = NoisePower::from_linear(1e-3);
        let p2 = NoisePower::from_linear(1e-6);
        assert!(p2.equivalent_bits() > p1.equivalent_bits());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_power_panics() {
        let _ = NoisePower::from_linear(-1.0);
    }

    #[test]
    fn empty_meter_reports_zero() {
        let m = NoiseMeter::new();
        assert!(m.noise_power().is_zero());
        assert_eq!(m.samples(), 0);
    }

    #[test]
    fn identical_streams_have_zero_noise() {
        let mut m = NoiseMeter::new();
        let xs: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin()).collect();
        m.record_slices(&xs, &xs);
        assert!(m.noise_power().is_zero());
    }

    #[test]
    fn quantization_noise_matches_q2_over_12_model() {
        // White input in (-1, 1), rounding quantizer: measured power should
        // be close to the additive-noise model step²/12.
        let fmt = QFormat::new(0, 10).unwrap();
        let q = Quantizer::new(fmt);
        let mut meter = NoiseMeter::new();
        // Deterministic pseudo-random input (LCG) to avoid rand dependency here.
        let mut state = 0x2545F4914F6CDD1Du64;
        for _ in 0..200_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((state >> 11) as f64) / ((1u64 << 53) as f64); // [0,1)
            let x = 2.0 * u - 1.0 + 1e-9; // (-1, 1)
            let x = x * 0.999;
            meter.record(x, q.quantize(x));
        }
        let measured = meter.noise_power().linear();
        let model = fmt.step() * fmt.step() / 12.0;
        let ratio = measured / model;
        assert!(
            (0.9..1.1).contains(&ratio),
            "measured/model = {ratio} (measured {measured:e}, model {model:e})"
        );
    }

    #[test]
    fn noise_power_falls_six_db_per_bit() {
        let xs: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.013).sin() * 0.9).collect();
        let mut dbs = Vec::new();
        for frac in [4, 8, 12] {
            let q = Quantizer::new(QFormat::new(0, frac).unwrap());
            let mut m = NoiseMeter::new();
            for &x in &xs {
                m.record(x, q.quantize(x));
            }
            dbs.push(m.noise_power().db());
        }
        assert!(dbs[0] > dbs[1] && dbs[1] > dbs[2], "dbs = {dbs:?}");
        // Each extra bit buys ~6 dB; 4 bits ≈ 24 dB.
        assert!((dbs[0] - dbs[1] - 24.0).abs() < 3.0, "dbs = {dbs:?}");
    }

    #[test]
    fn display_shows_db() {
        let p = NoisePower::from_db(-50.0);
        assert_eq!(p.to_string(), "-50.00 dB");
    }
}
