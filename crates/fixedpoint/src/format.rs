//! Signed fixed-point Q-format descriptions.

use std::fmt;

use crate::FixedPointError;

/// A signed two's-complement fixed-point format `Q(m, f)`:
/// one sign bit, `m` integer bits and `f` fractional bits, for a total
/// word-length of `1 + m + f` bits.
///
/// Representable values are `k · 2⁻ᶠ` for
/// `k ∈ [−2^(m+f), 2^(m+f) − 1]`, i.e. the range `[−2ᵐ, 2ᵐ − 2⁻ᶠ]`.
///
/// The word-length optimizers in `krigeval-core` sweep the *total*
/// word-length of each internal variable while the integer part stays fixed
/// (determined once by dynamic-range analysis, as in the paper's min+1
/// setting); see [`QFormat::with_word_length`].
///
/// # Examples
///
/// ```
/// use krigeval_fixedpoint::QFormat;
///
/// # fn main() -> Result<(), krigeval_fixedpoint::FixedPointError> {
/// let q = QFormat::new(0, 7)?; // Q0.7: 8-bit signal in [-1, 1)
/// assert_eq!(q.word_length(), 8);
/// assert_eq!(q.step(), 2f64.powi(-7));
/// assert_eq!(q.max_value(), 1.0 - 2f64.powi(-7));
/// assert_eq!(q.min_value(), -1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QFormat {
    integer_bits: i32,
    fractional_bits: i32,
}

impl QFormat {
    /// Maximum supported total word-length (sign + integer + fractional).
    ///
    /// 63 bits keeps every representable value and every intermediate
    /// `k = x / step` exactly representable in an `f64`-based simulation
    /// (53-bit mantissa) for the formats the benchmarks actually use, while
    /// catching runaway configurations early.
    pub const MAX_WORD_LENGTH: i32 = 63;

    /// Creates a format with `integer_bits` integer and `fractional_bits`
    /// fractional bits (plus the implicit sign bit).
    ///
    /// `fractional_bits` may be negative, meaning the step is a power of two
    /// greater than one (coarse quantization) — this occurs in HEVC
    /// interpolation stages that shift right before rounding.
    ///
    /// # Errors
    ///
    /// Returns [`FixedPointError::InvalidFormat`] if `integer_bits < 0` or if
    /// the total word-length leaves `1..=63`.
    pub fn new(integer_bits: i32, fractional_bits: i32) -> Result<QFormat, FixedPointError> {
        let wl = 1 + integer_bits + fractional_bits;
        if integer_bits < 0 || !(1..=Self::MAX_WORD_LENGTH).contains(&wl) {
            return Err(FixedPointError::InvalidFormat {
                integer_bits,
                fractional_bits,
            });
        }
        Ok(QFormat {
            integer_bits,
            fractional_bits,
        })
    }

    /// Creates the format with `integer_bits` integer bits and a total
    /// word-length of `word_length` bits — the parameterization used by the
    /// word-length optimizers, where `w` is the optimization variable.
    ///
    /// # Errors
    ///
    /// Returns [`FixedPointError::InvalidFormat`] if the derived fractional
    /// width is invalid (see [`QFormat::new`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use krigeval_fixedpoint::QFormat;
    /// # fn main() -> Result<(), krigeval_fixedpoint::FixedPointError> {
    /// let q = QFormat::with_word_length(2, 12)?; // Q2.9 in 12 bits
    /// assert_eq!(q.fractional_bits(), 9);
    /// # Ok(())
    /// # }
    /// ```
    pub fn with_word_length(
        integer_bits: i32,
        word_length: i32,
    ) -> Result<QFormat, FixedPointError> {
        QFormat::new(integer_bits, word_length - 1 - integer_bits)
    }

    /// Integer bits (excluding the sign bit).
    pub fn integer_bits(&self) -> i32 {
        self.integer_bits
    }

    /// Fractional bits.
    pub fn fractional_bits(&self) -> i32 {
        self.fractional_bits
    }

    /// Total word-length: `1 + integer_bits + fractional_bits`.
    pub fn word_length(&self) -> i32 {
        1 + self.integer_bits + self.fractional_bits
    }

    /// Quantization step `2^(−fractional_bits)`.
    pub fn step(&self) -> f64 {
        pow2(-self.fractional_bits)
    }

    /// Largest representable value `2^m − 2^(−f)`.
    pub fn max_value(&self) -> f64 {
        pow2(self.integer_bits) - self.step()
    }

    /// Smallest representable value `−2^m`.
    pub fn min_value(&self) -> f64 {
        -pow2(self.integer_bits)
    }
}

/// `2^e`, bitwise equal to `2f64.powi(e)`: in the normal range the power
/// is exact either way, so it is assembled from its exponent bits instead
/// of a `powi` call (these sit on every quantized sample's path).
fn pow2(e: i32) -> f64 {
    if (-1022..=1023).contains(&e) {
        f64::from_bits(((e + 1023) as u64) << 52)
    } else {
        pow2_outside_normal_range(e)
    }
}

/// Out of line and cold, so the optimizer does not speculate the `powi`
/// call onto the normal-range path.
#[cold]
#[inline(never)]
fn pow2_outside_normal_range(e: i32) -> f64 {
    2f64.powi(e)
}

impl fmt::Display for QFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}.{}", self.integer_bits, self.fractional_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_fields() {
        let q = QFormat::new(2, 5).unwrap();
        assert_eq!(q.integer_bits(), 2);
        assert_eq!(q.fractional_bits(), 5);
        assert_eq!(q.word_length(), 8);
        assert_eq!(q.step(), 1.0 / 32.0);
        assert_eq!(q.min_value(), -4.0);
        assert_eq!(q.max_value(), 4.0 - 1.0 / 32.0);
    }

    #[test]
    fn with_word_length_derives_fraction() {
        let q = QFormat::with_word_length(0, 16).unwrap();
        assert_eq!(q.fractional_bits(), 15);
        assert_eq!(q.word_length(), 16);
    }

    #[test]
    fn negative_fractional_bits_allowed() {
        let q = QFormat::new(10, -2).unwrap();
        assert_eq!(q.step(), 4.0);
    }

    #[test]
    fn invalid_formats_rejected() {
        assert!(QFormat::new(-1, 4).is_err());
        assert!(QFormat::new(0, -1).is_err()); // word-length 0
        assert!(QFormat::new(0, 80).is_err());
        assert!(QFormat::with_word_length(0, 0).is_err()); // zero total bits
        assert!(QFormat::with_word_length(-2, 8).is_err());
        // Negative fractional widths are fine as long as the total stays >= 1.
        assert!(QFormat::with_word_length(4, 2).is_ok());
    }

    #[test]
    fn one_bit_format_is_sign_only() {
        let q = QFormat::new(0, 0).unwrap();
        assert_eq!(q.word_length(), 1);
        assert_eq!(q.step(), 1.0);
        assert_eq!(q.min_value(), -1.0);
        assert_eq!(q.max_value(), 0.0);
    }

    #[test]
    fn pow2_is_bitwise_powi() {
        for e in -1100..=1100 {
            assert_eq!(pow2(e).to_bits(), 2f64.powi(e).to_bits(), "2^{e}");
        }
    }

    #[test]
    fn display_format() {
        assert_eq!(QFormat::new(3, 4).unwrap().to_string(), "Q3.4");
    }
}
