//! Error type shared by every decomposition in this crate.

use std::error::Error;
use std::fmt;

/// Error returned by matrix constructors and decompositions.
///
/// # Examples
///
/// ```
/// use krigeval_linalg::{Matrix, LinalgError};
///
/// let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0][..]]).unwrap_err();
/// assert!(matches!(err, LinalgError::ShapeMismatch { .. }));
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LinalgError {
    /// Operand dimensions are incompatible with the requested operation.
    ShapeMismatch {
        /// Dimensions the operation expected, e.g. `"2x2 rows"`.
        expected: String,
        /// Dimensions that were actually supplied.
        actual: String,
    },
    /// The matrix is singular (or numerically singular) to working precision.
    Singular {
        /// Pivot index at which elimination broke down.
        pivot: usize,
    },
    /// A matrix dimension was zero where a non-empty matrix is required.
    Empty,
    /// A value that must be finite was NaN or infinite.
    NonFinite {
        /// Row of the offending entry.
        row: usize,
        /// Column of the offending entry.
        col: usize,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch { expected, actual } => {
                write!(f, "shape mismatch: expected {expected}, got {actual}")
            }
            LinalgError::Singular { pivot } => {
                write!(f, "matrix is singular at pivot {pivot}")
            }
            LinalgError::Empty => write!(f, "matrix must be non-empty"),
            LinalgError::NonFinite { row, col } => {
                write!(f, "non-finite entry at ({row}, {col})")
            }
        }
    }
}

impl Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_without_trailing_punctuation() {
        let messages = [
            LinalgError::ShapeMismatch {
                expected: "3x3".into(),
                actual: "2x3".into(),
            }
            .to_string(),
            LinalgError::Singular { pivot: 1 }.to_string(),
            LinalgError::Empty.to_string(),
            LinalgError::NonFinite { row: 0, col: 1 }.to_string(),
        ];
        for m in messages {
            assert!(m.chars().next().unwrap().is_lowercase(), "{m}");
            assert!(!m.ends_with('.'), "{m}");
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinalgError>();
    }
}
