//! Quantization of `f64` intermediates to a [`QFormat`].

use serde::{Deserialize, Serialize};

use crate::QFormat;

/// How values falling between two representable levels are mapped.
///
/// # Examples
///
/// ```
/// use krigeval_fixedpoint::{QFormat, Quantizer, RoundingMode};
///
/// # fn main() -> Result<(), krigeval_fixedpoint::FixedPointError> {
/// let fmt = QFormat::new(0, 2)?; // step 0.25
/// let trunc = Quantizer::with_modes(fmt, RoundingMode::Truncate, Default::default());
/// let round = Quantizer::with_modes(fmt, RoundingMode::Nearest, Default::default());
/// assert_eq!(trunc.quantize(0.3), 0.25);
/// assert_eq!(round.quantize(0.3), 0.25);
/// assert_eq!(trunc.quantize(-0.3), -0.5);  // truncation is a floor on the grid
/// assert_eq!(round.quantize(-0.3), -0.25);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum RoundingMode {
    /// Round to the nearest level, ties away from zero (DSP convention,
    /// matches `(x + (1 << (s-1))) >> s` hardware rounding for positives).
    #[default]
    Nearest,
    /// Two's-complement truncation: floor on the quantization grid.
    Truncate,
    /// Round to nearest, ties to the even level ("convergent" rounding,
    /// removes the small DC bias of [`RoundingMode::Nearest`]).
    NearestEven,
}

/// What happens when a value exceeds the format's dynamic range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum OverflowMode {
    /// Clamp to `[min_value, max_value]` (saturation arithmetic).
    #[default]
    Saturate,
    /// Two's-complement wrap-around.
    Wrap,
}

/// Applies a [`QFormat`] to `f64` values, emulating a fixed-point data path.
///
/// The emulation follows the paper's simulation-based methodology (refs
/// \[12\], \[13\]): every instrumented intermediate of a benchmark kernel is
/// passed through a `Quantizer`, and the output error versus the
/// double-precision reference yields the noise power.
///
/// # Examples
///
/// ```
/// use krigeval_fixedpoint::{QFormat, Quantizer};
///
/// # fn main() -> Result<(), krigeval_fixedpoint::FixedPointError> {
/// let q = Quantizer::new(QFormat::new(0, 3)?);
/// assert_eq!(q.quantize(0.3), 0.25);
/// assert_eq!(q.quantize(10.0), q.format().max_value()); // saturates
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Quantizer {
    format: QFormat,
    rounding: RoundingMode,
    overflow: OverflowMode,
}

impl Quantizer {
    /// Creates a quantizer with the default modes
    /// ([`RoundingMode::Nearest`], [`OverflowMode::Saturate`]).
    pub fn new(format: QFormat) -> Quantizer {
        Quantizer {
            format,
            rounding: RoundingMode::default(),
            overflow: OverflowMode::default(),
        }
    }

    /// Creates a quantizer with explicit rounding and overflow behaviour.
    pub fn with_modes(
        format: QFormat,
        rounding: RoundingMode,
        overflow: OverflowMode,
    ) -> Quantizer {
        Quantizer {
            format,
            rounding,
            overflow,
        }
    }

    /// The target format.
    pub fn format(&self) -> QFormat {
        self.format
    }

    /// The rounding mode.
    pub fn rounding(&self) -> RoundingMode {
        self.rounding
    }

    /// The overflow mode.
    pub fn overflow(&self) -> OverflowMode {
        self.overflow
    }

    /// Quantizes one value.
    ///
    /// NaN inputs propagate unchanged (the benchmarks never produce them;
    /// propagating makes failures visible instead of silently saturating).
    pub fn quantize(&self, x: f64) -> f64 {
        self.quantize_on(&self.grid(), x)
    }

    /// Quantizes a slice into a fresh vector; bitwise equal to
    /// [`Quantizer::quantize`] per element, with the format's constants
    /// computed once per call.
    pub fn quantize_slice(&self, xs: &[f64]) -> Vec<f64> {
        let grid = self.grid();
        xs.iter().map(|&x| self.quantize_on(&grid, x)).collect()
    }

    /// Quantizes a slice in place (reuses the caller's buffer); bitwise
    /// equal to [`Quantizer::quantize`] per element.
    pub fn quantize_in_place(&self, xs: &mut [f64]) {
        let grid = self.grid();
        for x in xs {
            *x = self.quantize_on(&grid, *x);
        }
    }

    fn grid(&self) -> Grid {
        let step = self.format.step();
        Grid {
            step,
            // `step` is a power of two, so its reciprocal is exact (0 if
            // `step` overflowed to ∞, and x · 0 = x / ∞): `x * inv_step`
            // rounds the same real number `x / step` does.
            inv_step: 1.0 / step,
            lo: self.format.min_value(),
            hi: self.format.max_value(),
        }
    }

    // Always inlined: the slice loops call it per element.
    #[inline(always)]
    fn quantize_on(&self, g: &Grid, x: f64) -> f64 {
        if x.is_nan() {
            return x;
        }
        let k = x * g.inv_step;
        let k = match self.rounding {
            RoundingMode::Truncate => k.floor(),
            RoundingMode::Nearest => k.round(), // f64::round = ties away from zero
            RoundingMode::NearestEven => round_ties_even(k),
        };
        let v = k * g.step;
        let (lo, hi) = (g.lo, g.hi);
        match self.overflow {
            OverflowMode::Saturate => v.clamp(lo, hi),
            OverflowMode::Wrap => {
                if (lo..=hi).contains(&v) {
                    v
                } else {
                    let span = hi - lo + g.step; // 2^(m+1)
                    let wrapped = (v - lo).rem_euclid(span) + lo;
                    // Guard against the representable-edge rounding case.
                    wrapped.clamp(lo, hi)
                }
            }
        }
    }
}

/// A format's per-value constants, derived once per [`Quantizer`] call.
struct Grid {
    step: f64,
    inv_step: f64,
    lo: f64,
    hi: f64,
}

fn round_ties_even(k: f64) -> f64 {
    let r = k.round();
    if (k - k.trunc()).abs() == 0.5 {
        // Tie: pick the even neighbour.
        if r % 2.0 == 0.0 {
            r
        } else {
            r - (r - k).signum()
        }
    } else {
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fmt(i: i32, f: i32) -> QFormat {
        QFormat::new(i, f).unwrap()
    }

    #[test]
    fn nearest_rounds_to_grid() {
        let q = Quantizer::new(fmt(0, 2));
        assert_eq!(q.quantize(0.3), 0.25);
        assert_eq!(q.quantize(0.4), 0.5);
        assert_eq!(q.quantize(-0.3), -0.25);
        assert_eq!(q.quantize(0.0), 0.0);
    }

    #[test]
    fn truncate_floors_on_grid() {
        let q = Quantizer::with_modes(fmt(0, 2), RoundingMode::Truncate, OverflowMode::Saturate);
        assert_eq!(q.quantize(0.49), 0.25);
        assert_eq!(q.quantize(-0.01), -0.25);
        assert_eq!(q.quantize(0.25), 0.25); // exact values pass through
    }

    #[test]
    fn nearest_even_breaks_ties_evenly() {
        let q = Quantizer::with_modes(fmt(2, 0), RoundingMode::NearestEven, OverflowMode::Saturate);
        assert_eq!(q.quantize(0.5), 0.0);
        assert_eq!(q.quantize(1.5), 2.0);
        assert_eq!(q.quantize(2.5), 2.0);
        assert_eq!(q.quantize(-0.5), 0.0);
        assert_eq!(q.quantize(-1.5), -2.0);
    }

    #[test]
    fn saturation_clamps() {
        let q = Quantizer::new(fmt(0, 3));
        assert_eq!(q.quantize(5.0), q.format().max_value());
        assert_eq!(q.quantize(-5.0), -1.0);
    }

    #[test]
    fn wrap_wraps_two_complement() {
        let q = Quantizer::with_modes(fmt(0, 1), RoundingMode::Nearest, OverflowMode::Wrap);
        // Range [-1.0, 0.5], span 2.0. 1.0 wraps to -1.0.
        assert_eq!(q.quantize(1.0), -1.0);
        assert_eq!(q.quantize(1.5), -0.5);
        assert_eq!(q.quantize(-1.5), 0.5);
        // In-range values untouched.
        assert_eq!(q.quantize(0.5), 0.5);
    }

    #[test]
    fn nan_propagates() {
        let q = Quantizer::new(fmt(0, 4));
        assert!(q.quantize(f64::NAN).is_nan());
    }

    #[test]
    fn infinity_saturates() {
        let q = Quantizer::new(fmt(1, 4));
        assert_eq!(q.quantize(f64::INFINITY), q.format().max_value());
        assert_eq!(q.quantize(f64::NEG_INFINITY), q.format().min_value());
    }

    #[test]
    fn slice_helpers_agree() {
        let q = Quantizer::new(fmt(0, 2));
        let xs = [0.1, 0.2, 0.3, -0.7];
        let out = q.quantize_slice(&xs);
        let mut inplace = xs;
        q.quantize_in_place(&mut inplace);
        assert_eq!(out, inplace);
    }

    #[test]
    fn idempotence_on_representable_values() {
        let q = Quantizer::new(fmt(1, 5));
        for i in -64..=63 {
            let v = i as f64 / 32.0;
            assert_eq!(q.quantize(v), v, "value {v} should be a fixed point");
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// The per-element body as originally written, dividing by the
        /// step: the oracle for the reciprocal-multiply hot path.
        fn quantize_by_division(q: &Quantizer, x: f64) -> f64 {
            if x.is_nan() {
                return x;
            }
            let step = q.format().step();
            let k = x / step;
            let k = match q.rounding() {
                RoundingMode::Truncate => k.floor(),
                RoundingMode::Nearest => k.round(),
                RoundingMode::NearestEven => round_ties_even(k),
            };
            let v = k * step;
            let (lo, hi) = (q.format().min_value(), q.format().max_value());
            match q.overflow() {
                OverflowMode::Saturate => v.clamp(lo, hi),
                OverflowMode::Wrap => {
                    if (lo..=hi).contains(&v) {
                        v
                    } else {
                        let wrapped = (v - lo).rem_euclid(hi - lo + step) + lo;
                        wrapped.clamp(lo, hi)
                    }
                }
            }
        }

        /// Inputs around a format's grid and range, plus every special
        /// class: NaN, ±∞, ±0, subnormals, extreme and arbitrary bit
        /// patterns.
        fn probe_values(f: QFormat, bits: u64, unit: f64) -> Vec<f64> {
            let (step, hi) = (f.step(), f.max_value());
            let mut xs = vec![
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                0.0,
                -0.0,
                f64::MIN_POSITIVE,
                f64::MIN_POSITIVE / 3.0,
                -f64::from_bits(1),
                f64::MAX,
                f64::MIN,
                f64::from_bits(bits),
                f64::from_bits(bits.rotate_left(17)),
            ];
            for s in [0.5, 1.0, 1.5, 2.5, 3.0] {
                xs.extend([s * step, -s * step, hi + s * step, -hi - s * step]);
            }
            for s in [0.001, 0.37, 0.999, 1.0, 1.7, 4.0, 1e9] {
                xs.extend([s * unit * hi, -s * unit * hi]);
            }
            xs
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn slice_paths_are_bitwise_per_element_quantize(
                (small, int_small, int_any) in (0u32..2, 0i32..=16, 0i32..=1023),
                word_length in 1i32..=QFormat::MAX_WORD_LENGTH,
                bits in 0u64..u64::MAX,
                unit in 0.0f64..1.0,
            ) {
                // Integer bits up to 1023 keep the range finite; with every
                // word-length this spans fractional bits -1023..=62.
                let m = if small == 0 { int_small } else { int_any };
                let f = QFormat::with_word_length(m, word_length).unwrap();
                let xs = probe_values(f, bits, unit);
                for rounding in
                    [RoundingMode::Nearest, RoundingMode::Truncate, RoundingMode::NearestEven]
                {
                    for overflow in [OverflowMode::Saturate, OverflowMode::Wrap] {
                        let q = Quantizer::with_modes(f, rounding, overflow);
                        let each: Vec<u64> = xs.iter().map(|&x| q.quantize(x).to_bits()).collect();
                        let oracle: Vec<u64> =
                            xs.iter().map(|&x| quantize_by_division(&q, x).to_bits()).collect();
                        let slice: Vec<u64> =
                            q.quantize_slice(&xs).iter().map(|v| v.to_bits()).collect();
                        let mut inplace = xs.clone();
                        q.quantize_in_place(&mut inplace);
                        let inplace: Vec<u64> = inplace.iter().map(|v| v.to_bits()).collect();
                        prop_assert_eq!(&each, &oracle, "{} {:?} {:?}", f, rounding, overflow);
                        prop_assert_eq!(&slice, &each, "{} {:?} {:?}", f, rounding, overflow);
                        prop_assert_eq!(&inplace, &each, "{} {:?} {:?}", f, rounding, overflow);
                    }
                }
            }
        }

        proptest! {
            #[test]
            fn quantization_error_bounded_by_step(x in -0.999f64..0.999) {
                let q = Quantizer::new(fmt(0, 8));
                let y = q.quantize(x);
                if x <= q.format().max_value() {
                    // Nearest within the representable range: |err| <= step/2.
                    prop_assert!((y - x).abs() <= q.format().step() / 2.0 + 1e-15);
                } else {
                    // Above max_value (e.g. 0.998 in Q0.8) the quantizer
                    // saturates; the error stays below one full step.
                    prop_assert_eq!(y, q.format().max_value());
                    prop_assert!((y - x).abs() < q.format().step());
                }
            }

            #[test]
            fn truncation_error_bounded_and_negative_biased(x in -0.999f64..0.999) {
                let q = Quantizer::with_modes(
                    fmt(0, 8), RoundingMode::Truncate, OverflowMode::Saturate);
                let y = q.quantize(x);
                prop_assert!(y <= x + 1e-15);
                prop_assert!(x - y < q.format().step() + 1e-15);
            }

            #[test]
            fn quantize_is_idempotent(x in -4.0f64..4.0) {
                let q = Quantizer::new(fmt(2, 6));
                let once = q.quantize(x);
                prop_assert_eq!(q.quantize(once), once);
            }

            #[test]
            fn output_is_always_in_range(x in -1e6f64..1e6) {
                for overflow in [OverflowMode::Saturate, OverflowMode::Wrap] {
                    let q = Quantizer::with_modes(fmt(3, 4), RoundingMode::Nearest, overflow);
                    let y = q.quantize(x);
                    prop_assert!(y >= q.format().min_value() - 1e-12);
                    prop_assert!(y <= q.format().max_value() + 1e-12);
                }
            }

            #[test]
            fn monotone_in_word_length(x in -0.999f64..0.999, w1 in 4i32..12, extra in 1i32..8) {
                // More fractional bits can only shrink the worst-case error.
                let narrow = Quantizer::new(QFormat::with_word_length(0, w1).unwrap());
                let wide = Quantizer::new(QFormat::with_word_length(0, w1 + extra).unwrap());
                let en = (narrow.quantize(x) - x).abs();
                let ew = (wide.quantize(x) - x).abs();
                // Pointwise the wide error is bounded by step_w/2 <= step_n/2.
                prop_assert!(ew <= narrow.format().step() / 2.0 + 1e-15);
                let _ = en;
            }
        }
    }
}
