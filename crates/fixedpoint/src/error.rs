//! Error type for fixed-point format construction and validation.

use std::error::Error;
use std::fmt;

/// Error returned by [`crate::QFormat`] constructors and quantizer builders.
///
/// # Examples
///
/// ```
/// use krigeval_fixedpoint::{QFormat, FixedPointError};
///
/// let err = QFormat::new(-1, 4).unwrap_err();
/// assert!(matches!(err, FixedPointError::InvalidFormat { .. }));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FixedPointError {
    /// The requested Q-format is not representable (negative field widths or
    /// a total word-length outside `1..=63` bits).
    InvalidFormat {
        /// Requested integer bits.
        integer_bits: i32,
        /// Requested fractional bits.
        fractional_bits: i32,
    },
}

impl fmt::Display for FixedPointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FixedPointError::InvalidFormat {
                integer_bits,
                fractional_bits,
            } => write!(
                f,
                "invalid q-format: {integer_bits} integer bits, {fractional_bits} fractional bits"
            ),
        }
    }
}

impl Error for FixedPointError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty_and_lowercase() {
        let e = FixedPointError::InvalidFormat {
            integer_bits: -1,
            fractional_bits: 70,
        };
        let s = e.to_string();
        assert!(s.starts_with("invalid"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FixedPointError>();
    }
}
