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
/// The format's step, its reciprocal and its range are derived once, at
/// construction; serialization carries only the format and the two modes.
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
#[derive(Debug, Clone, Copy)]
pub struct Quantizer {
    format: QFormat,
    rounding: RoundingMode,
    overflow: OverflowMode,
    grid: Grid,
    /// The modes are the defaults and the word is at most
    /// [`BRANCH_FREE_MAX_WORD_LENGTH`] bits: [`Grid::nearest_saturate`]
    /// applies.
    branch_free: bool,
}

/// Widest word the branch-free body handles: once saturated, a value is at
/// most `2^(w-1)` steps from zero, so `|k| <= 2^52`.
const BRANCH_FREE_MAX_WORD_LENGTH: i32 = 53;

impl Quantizer {
    /// Creates a quantizer with the default modes
    /// ([`RoundingMode::Nearest`], [`OverflowMode::Saturate`]).
    #[inline]
    pub fn new(format: QFormat) -> Quantizer {
        Quantizer::with_modes(format, RoundingMode::default(), OverflowMode::default())
    }

    /// Creates a quantizer with explicit rounding and overflow behaviour.
    #[inline]
    pub fn with_modes(
        format: QFormat,
        rounding: RoundingMode,
        overflow: OverflowMode,
    ) -> Quantizer {
        Quantizer {
            format,
            rounding,
            overflow,
            grid: Grid::of(format),
            branch_free: rounding == RoundingMode::Nearest
                && overflow == OverflowMode::Saturate
                && format.word_length() <= BRANCH_FREE_MAX_WORD_LENGTH,
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
    /// With the default modes, a format whose range overflows `f64`
    /// (`2^m = ∞`, so `max_value()` is NaN) saturates every other input to
    /// NaN.
    #[inline]
    pub fn quantize(&self, x: f64) -> f64 {
        if self.branch_free {
            self.grid.nearest_saturate(x)
        } else {
            self.grid.other_modes(self.rounding, self.overflow, x)
        }
    }

    /// Quantizes a slice into a fresh vector; bitwise equal to
    /// [`Quantizer::quantize`] per element.
    pub fn quantize_slice(&self, xs: &[f64]) -> Vec<f64> {
        let mut out = xs.to_vec();
        self.quantize_in_place(&mut out);
        out
    }

    /// Quantizes a slice in place (reuses the caller's buffer); bitwise
    /// equal to [`Quantizer::quantize`] per element, with the body chosen
    /// once per call.
    #[inline]
    pub fn quantize_in_place(&self, xs: &mut [f64]) {
        let g = &self.grid;
        if self.branch_free {
            for x in xs {
                *x = g.nearest_saturate(*x);
            }
        } else {
            for x in xs {
                *x = g.other_modes(self.rounding, self.overflow, *x);
            }
        }
    }
}

/// Equality of the format and the modes (the grid is derived from them).
impl PartialEq for Quantizer {
    fn eq(&self, other: &Quantizer) -> bool {
        (self.format, self.rounding, self.overflow)
            == (other.format, other.rounding, other.overflow)
    }
}

/// [`Quantizer`]'s serialized shape: the derived grid is left out.
#[derive(Serialize, Deserialize)]
struct QuantizerShape {
    format: QFormat,
    rounding: RoundingMode,
    overflow: OverflowMode,
}

impl Serialize for Quantizer {
    fn serialize_to_value(&self) -> serde::Value {
        QuantizerShape {
            format: self.format,
            rounding: self.rounding,
            overflow: self.overflow,
        }
        .serialize_to_value()
    }
}

impl Deserialize for Quantizer {
    fn deserialize_from_value(value: &serde::Value) -> Result<Quantizer, serde::DeError> {
        let s = QuantizerShape::deserialize_from_value(value)?;
        Ok(Quantizer::with_modes(s.format, s.rounding, s.overflow))
    }
}

/// A format's per-value constants.
#[derive(Debug, Clone, Copy)]
struct Grid {
    step: f64,
    inv_step: f64,
    lo: f64,
    hi: f64,
}

/// `2^52`: at and above it every `f64` is an integer.
const TWO_POW_52: f64 = 4_503_599_627_370_496.0;

impl Grid {
    fn of(format: QFormat) -> Grid {
        let step = format.step();
        Grid {
            step,
            // `step` is a power of two, so its reciprocal is exact (0 if
            // `step` overflowed to ∞, and x · 0 = x / ∞): `x * inv_step`
            // rounds the same real number `x / step` does.
            inv_step: 1.0 / step,
            lo: format.min_value(),
            hi: format.max_value(),
        }
    }

    /// The default modes' body for words of at most
    /// [`BRANCH_FREE_MAX_WORD_LENGTH`] bits, bitwise equal to
    /// `(x / step).round() * step` clamped to the range, without a branch
    /// or the out-of-line `round` call. It saturates first: `lo` and `hi`
    /// are multiples of the step, so a value outside the range lands on the
    /// bound either way, and a value inside cannot round out of it. That
    /// bounds `|k|` by 2^52, where the 2^52 round is exact.
    #[inline(always)]
    fn nearest_saturate(&self, x: f64) -> f64 {
        let s = if x < self.lo { self.lo } else { x };
        let s = if s > self.hi { self.hi } else { s };
        let k = s * self.inv_step;
        let v = round_half_up(k.abs()).copysign(k) * self.step;
        if x.is_nan() {
            x
        } else {
            v
        }
    }

    /// Every other rounding/overflow combination: out of line, so the
    /// default body inlines small.
    #[cold]
    #[inline(never)]
    fn other_modes(&self, rounding: RoundingMode, overflow: OverflowMode, x: f64) -> f64 {
        if x.is_nan() {
            return x;
        }
        let k = x * self.inv_step;
        let k = match rounding {
            RoundingMode::Truncate => k.floor(),
            RoundingMode::Nearest => round_half_away(k),
            RoundingMode::NearestEven => round_ties_even(k),
        };
        let v = k * self.step;
        let (lo, hi) = (self.lo, self.hi);
        match overflow {
            OverflowMode::Saturate => v.clamp(lo, hi),
            OverflowMode::Wrap => {
                if (lo..=hi).contains(&v) {
                    v
                } else {
                    let span = hi - lo + self.step; // 2^(m+1)
                    let wrapped = (v - lo).rem_euclid(span) + lo;
                    // Guard against the representable-edge rounding case.
                    wrapped.clamp(lo, hi)
                }
            }
        }
    }
}

/// `k.round()` (ties away from zero), bitwise.
#[inline(always)]
fn round_half_away(k: f64) -> f64 {
    let a = k.abs();
    // From 2^52 on (and at ∞) `a` is already an integer.
    let r = if a < TWO_POW_52 { round_half_up(a) } else { a };
    r.copysign(k)
}

/// Rounds `a` in `[0, 2^52]` to the nearest integer, ties up.
#[inline(always)]
fn round_half_up(a: f64) -> f64 {
    // Adding and subtracting 2^52 rounds `a` to an integer, ties to even;
    // `a - even` is exact.
    let even = (a + TWO_POW_52) - TWO_POW_52;
    // A tie that went down to the even neighbour goes up instead.
    even + if a - even == 0.5 { 1.0 } else { 0.0 }
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
    fn serde_shape_is_format_and_modes() {
        let q = Quantizer::with_modes(fmt(1, 6), RoundingMode::NearestEven, OverflowMode::Wrap);
        let json = serde_json::to_string(&q).unwrap();
        assert_eq!(
            json,
            r#"{"format":{"integer_bits":1,"fractional_bits":6},"rounding":"NearestEven","overflow":"Wrap"}"#
        );
        let back: Quantizer = serde_json::from_str(&json).unwrap();
        assert_eq!(back, q);
        assert_eq!(back.quantize(0.3).to_bits(), q.quantize(0.3).to_bits());
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
        /// step, calling `f64::round` and matching on the modes per value:
        /// the oracle for the precomputed-grid, branch-free hot path.
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

        /// Multiples of the step where the branch-free round can go wrong:
        /// ties `n + 0.5` (the 2^52 add rounds them to even), their
        /// neighbours, the largest double below one half, ±0 and tiny
        /// negatives (which must keep their sign), and `|k| >= 2^52`, where
        /// every double is an integer and the 2^52 add would round.
        fn hard_multiples(n: u64) -> Vec<f64> {
            let tie = n as f64 + 0.5; // exact for n < 2^52
            let mut ks = vec![
                tie,
                tie.next_up(),
                tie.next_down(),
                0.5,
                1.5,
                2.5,
                0.49999999999999994,
                0.5f64.next_up(),
                TWO_POW_52 - 0.5,
                TWO_POW_52 - 1.5,
                TWO_POW_52.next_down(),
                TWO_POW_52,
                TWO_POW_52 + 1.0,
                TWO_POW_52 + 3.0,
                2.0 * TWO_POW_52 + 2.0,
                1e300,
                f64::MAX,
                0.0,
                f64::from_bits(1),
                f64::MIN_POSITIVE,
                1e-300,
                0.3,
            ];
            ks.extend(ks.clone().iter().map(|k| -k));
            ks.extend([f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -f64::NAN]);
            ks
        }

        /// Arbitrary `n < 2^52`, spread over every magnitude.
        fn below_two_pow_52(bits: u64, shift: u32) -> u64 {
            (bits >> 12) >> (shift % 52)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn branch_free_round_is_bitwise_f64_round(
                bits in 0u64..u64::MAX,
                shift in 0u32..52,
            ) {
                let mut ks = hard_multiples(below_two_pow_52(bits, shift));
                ks.push(f64::from_bits(bits));
                for k in ks {
                    prop_assert_eq!(
                        round_half_away(k).to_bits(), k.round().to_bits(), "k = {:e}", k);
                }
            }

            #[test]
            fn hard_spots_are_bitwise_the_division_body(
                int_bits in 0i32..=1023,
                word_length in 1i32..=QFormat::MAX_WORD_LENGTH,
                bits in 0u64..u64::MAX,
                shift in 0u32..52,
            ) {
                // The random format plus the two whose largest value is 0.0
                // (so ±0 meet the upper clamp bound).
                let formats = [
                    QFormat::with_word_length(int_bits, word_length).unwrap(),
                    fmt(0, 0),
                    QFormat::with_word_length(1023, 1).unwrap(),
                ];
                let ks = hard_multiples(below_two_pow_52(bits, shift));
                for f in formats {
                    let xs: Vec<f64> = ks.iter().map(|k| k * f.step()).collect();
                    for rounding in
                        [RoundingMode::Nearest, RoundingMode::Truncate, RoundingMode::NearestEven]
                    {
                        for overflow in [OverflowMode::Saturate, OverflowMode::Wrap] {
                            let q = Quantizer::with_modes(f, rounding, overflow);
                            for &x in &xs {
                                prop_assert_eq!(
                                    q.quantize(x).to_bits(),
                                    quantize_by_division(&q, x).to_bits(),
                                    "{} {:?} {:?} x = {:e}", f, rounding, overflow, x
                                );
                            }
                        }
                    }
                }
            }

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

        #[test]
        fn overflowing_range_saturates_to_nan_where_the_division_body_panicked() {
            // Q1024.-1024: step = 2^1024 = ∞, so inv_step = 0, min_value
            // = -∞ and max_value = ∞ - ∞ = NaN. `f64::clamp` panics on the
            // NaN bound; the comparison clamp lets NaN through.
            let f = QFormat::new(1024, -1024).unwrap();
            let q = Quantizer::new(f);
            assert_eq!(q.grid.inv_step, 0.0);
            assert!(f.max_value().is_nan());
            for x in probe_values(f, 0x0123_4567_89AB_CDEF, 0.5) {
                let oracle = std::panic::catch_unwind(|| quantize_by_division(&q, x));
                match oracle {
                    Ok(v) => assert_eq!(q.quantize(x).to_bits(), v.to_bits(), "x = {x:e}"),
                    Err(_) => assert!(q.quantize(x).is_nan(), "x = {x:e}"),
                }
            }
            // NaN still propagates unchanged.
            let nan = f64::from_bits(0x7FF4_0000_0000_0001);
            assert_eq!(q.quantize(nan).to_bits(), nan.to_bits());
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
