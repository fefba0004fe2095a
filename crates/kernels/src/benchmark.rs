//! The common interface every word-length benchmark implements.

use krigeval_fixedpoint::{NoisePower, ResumeStats};

use crate::KernelError;

/// A fixed-point benchmark whose internal word-lengths are the optimization
/// variables of the paper's DSE problem (Eq. 1).
///
/// A configuration is a vector `w` of **total** word-lengths (sign plus
/// integer plus fractional bits) — one entry per instrumented internal
/// variable. The integer parts are fixed per site by dynamic-range
/// analysis, so growing `w[i]` adds fractional bits, monotonically (in
/// expectation) reducing the output noise power.
///
/// The paper's accuracy metric for these benchmarks is `λ = −P`; this trait
/// reports `P` itself (see [`WordLengthBenchmark::accuracy_db`] for the
/// ready-made `λ` in dB used by the optimizers).
pub trait WordLengthBenchmark {
    /// Human-readable benchmark name (e.g. `"fir64"`).
    fn name(&self) -> &str;

    /// Number of word-length variables `Nv`.
    fn num_variables(&self) -> usize;

    /// Smallest meaningful word-length (defaults to 2: sign + one data bit).
    fn min_word_length(&self) -> i32 {
        2
    }

    /// Largest word-length the optimizer may try — the paper's `N_max`
    /// (defaults to 16, the classic DSP word size).
    fn max_word_length(&self) -> i32 {
        16
    }

    /// Simulates the configuration `w` against the double-precision
    /// reference on the benchmark's input data set and returns the output
    /// noise power.
    ///
    /// # Errors
    ///
    /// * [`KernelError::WrongVariableCount`] if `w.len() != num_variables()`.
    /// * [`KernelError::WordLengthOutOfRange`] if an entry leaves
    ///   `[min_word_length(), max_word_length()]`.
    fn noise_power(&self, word_lengths: &[i32]) -> Result<NoisePower, KernelError>;

    /// The accuracy metric `λ` handed to the optimizer: the opposite of the
    /// noise power, expressed in dB (`λ = −10·log₁₀ P`). Larger is better.
    ///
    /// Bit-exact outputs are clamped to `λ = 300` (i.e. −300 dB of noise) so
    /// that the metric stays finite for kriging.
    ///
    /// # Errors
    ///
    /// Same conditions as [`WordLengthBenchmark::noise_power`].
    fn accuracy_db(&self, word_lengths: &[i32]) -> Result<f64, KernelError> {
        let p = self.noise_power(word_lengths)?;
        if p.is_zero() {
            Ok(300.0)
        } else {
            Ok((-p.db()).min(300.0))
        }
    }

    /// How the benchmark's simulations started, for benchmarks that resume
    /// from stored stage states (iir8, fft64 and hevc_mc); `None` for the
    /// others, which always run a full pass.
    fn resume_stats(&self) -> Option<ResumeStats> {
        None
    }

    /// Validates a configuration vector shape and range. Implementations
    /// call this at the top of [`WordLengthBenchmark::noise_power`].
    ///
    /// # Errors
    ///
    /// See [`WordLengthBenchmark::noise_power`].
    fn validate(&self, word_lengths: &[i32]) -> Result<(), KernelError> {
        if word_lengths.len() != self.num_variables() {
            return Err(KernelError::WrongVariableCount {
                expected: self.num_variables(),
                actual: word_lengths.len(),
            });
        }
        let (min, max) = (self.min_word_length(), self.max_word_length());
        for (index, &word_length) in word_lengths.iter().enumerate() {
            if word_length < min || word_length > max {
                return Err(KernelError::WordLengthOutOfRange {
                    index,
                    word_length,
                    min,
                    max,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use krigeval_fixedpoint::NoisePower;

    struct Dummy;

    impl WordLengthBenchmark for Dummy {
        fn name(&self) -> &str {
            "dummy"
        }
        fn num_variables(&self) -> usize {
            3
        }
        fn noise_power(&self, w: &[i32]) -> Result<NoisePower, KernelError> {
            self.validate(w)?;
            let bits: i32 = w.iter().sum();
            Ok(NoisePower::from_equivalent_bits(bits as f64))
        }
    }

    #[test]
    fn validate_rejects_wrong_count() {
        assert!(matches!(
            Dummy.noise_power(&[8, 8]).unwrap_err(),
            KernelError::WrongVariableCount {
                expected: 3,
                actual: 2
            }
        ));
    }

    #[test]
    fn validate_rejects_out_of_range() {
        assert!(matches!(
            Dummy.noise_power(&[8, 1, 8]).unwrap_err(),
            KernelError::WordLengthOutOfRange { index: 1, .. }
        ));
        assert!(matches!(
            Dummy.noise_power(&[8, 8, 17]).unwrap_err(),
            KernelError::WordLengthOutOfRange { index: 2, .. }
        ));
    }

    #[test]
    fn accuracy_db_is_opposite_of_power_db() {
        let p = Dummy.noise_power(&[8, 8, 8]).unwrap();
        let acc = Dummy.accuracy_db(&[8, 8, 8]).unwrap();
        assert!((acc + p.db()).abs() < 1e-12);
    }

    #[test]
    fn accuracy_db_clamps_zero_power() {
        struct Exact;
        impl WordLengthBenchmark for Exact {
            fn name(&self) -> &str {
                "exact"
            }
            fn num_variables(&self) -> usize {
                1
            }
            fn noise_power(&self, _: &[i32]) -> Result<NoisePower, KernelError> {
                Ok(NoisePower::from_linear(0.0))
            }
        }
        assert_eq!(Exact.accuracy_db(&[8]).unwrap(), 300.0);
    }
}
