//! Error type for the sensitivity benchmark.

use std::error::Error;
use std::fmt;

/// Error returned by [`crate::SensitivityBenchmark`] and
/// [`crate::QuantizedNetBenchmark`] evaluation calls.
///
/// # Examples
///
/// ```
/// use krigeval_neural::{NeuralError, SensitivityBenchmark};
///
/// let b = SensitivityBenchmark::new(8, 8, 1);
/// let err = b.classification_rate(&[0.0; 3]).unwrap_err();
/// assert!(matches!(err, NeuralError::WrongSourceCount { .. }));
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NeuralError {
    /// The error-power vector has the wrong number of entries.
    WrongSourceCount {
        /// Number of injection sites in the network.
        expected: usize,
        /// Number of entries supplied.
        actual: usize,
    },
    /// An error power is NaN or positive infinity (negative infinity means
    /// "source off" and is allowed).
    InvalidPower {
        /// Index of the offending source.
        index: usize,
        /// The rejected dB value.
        power_db: f64,
    },
    /// A register word-length is outside the supported `2..=32` bits, or
    /// leaves no valid fixed-point format for the site's integer bits.
    InvalidWordLength {
        /// Index of the offending site.
        index: usize,
        /// The rejected word-length in bits.
        word_length: i32,
    },
}

impl fmt::Display for NeuralError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NeuralError::WrongSourceCount { expected, actual } => {
                write!(f, "expected {expected} error sources, got {actual}")
            }
            NeuralError::InvalidPower { index, power_db } => {
                write!(f, "invalid error power {power_db} dB for source {index}")
            }
            NeuralError::InvalidWordLength { index, word_length } => {
                write!(f, "invalid word-length {word_length} bits for site {index}")
            }
        }
    }
}

impl Error for NeuralError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = NeuralError::WrongSourceCount {
            expected: 10,
            actual: 4,
        };
        assert!(e.to_string().contains("expected 10"));
        let e = NeuralError::InvalidPower {
            index: 2,
            power_db: f64::NAN,
        };
        assert!(e.to_string().contains("source 2"));
        let e = NeuralError::InvalidWordLength {
            index: 4,
            word_length: 40,
        };
        assert_eq!(e.to_string(), "invalid word-length 40 bits for site 4");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NeuralError>();
    }
}
