//! Convolution, pooling and activation layers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Tensor3;

/// A 2-D convolution with square kernel, stride 1 and "same" padding for
/// odd kernels (padding `k/2`).
///
/// Weights are He-scaled uniform pseudo-random values from a fixed seed —
/// the substitution network is not trained (see `DESIGN.md`); sensitivity
/// analysis only needs a deterministic nonlinear layered map.
///
/// # Examples
///
/// ```
/// use krigeval_neural::{Conv2d, Tensor3};
///
/// let conv = Conv2d::seeded(3, 8, 3, 42);
/// let x = Tensor3::zeros(3, 8, 8);
/// let y = conv.forward(&x);
/// assert_eq!(y.shape(), (8, 8, 8));
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    /// `[out][in][ky][kx]` flattened.
    weights: Vec<f64>,
    bias: Vec<f64>,
}

impl Conv2d {
    /// Creates a convolution with pseudo-random weights from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `kernel` is even.
    pub fn seeded(in_channels: usize, out_channels: usize, kernel: usize, seed: u64) -> Conv2d {
        assert!(
            in_channels > 0 && out_channels > 0,
            "channel counts must be positive"
        );
        assert!(kernel % 2 == 1, "kernel must be odd for same-padding");
        let mut rng = StdRng::seed_from_u64(seed);
        let fan_in = (in_channels * kernel * kernel) as f64;
        // He-uniform: Var = 2/fan_in requires a uniform range of ±√(6/fan_in).
        // Under-scaled weights would let the biases dominate and collapse the
        // activations to input-independent constants by the deeper layers.
        let scale = (6.0 / fan_in).sqrt();
        let weights = (0..out_channels * in_channels * kernel * kernel)
            .map(|_| rng.gen_range(-scale..scale))
            .collect();
        let bias = (0..out_channels)
            .map(|_| rng.gen_range(-0.01..0.01))
            .collect();
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            weights,
            bias,
        }
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Runs the convolution (stride 1, same padding).
    ///
    /// Each output plane starts at its bias; then every `(ic, ky, kx)` tap,
    /// in that order, adds `weight · input` over the output rectangle where
    /// the tap lands inside the image, one contiguous row slice at a time.
    /// Every output pixel therefore receives exactly the additions of the
    /// textbook per-pixel loop, in the same order and skipping the same
    /// padded taps, so the result is bitwise identical to it.
    ///
    /// # Panics
    ///
    /// Panics if `input.channels() != in_channels`.
    pub fn forward(&self, input: &Tensor3) -> Tensor3 {
        assert_eq!(input.channels(), self.in_channels, "input channel mismatch");
        let (h, w) = (input.height(), input.width());
        let k = self.kernel;
        let pad = k / 2;
        let plane = h * w;
        let mut out = Tensor3::zeros(self.out_channels, h, w);
        let planes = out.as_mut_slice().chunks_exact_mut(plane);
        let filters = self.weights.chunks_exact(self.in_channels * k * k);
        for ((dst, filter), &bias) in planes.zip(filters).zip(&self.bias) {
            dst.fill(bias);
            let sources = input.as_slice().chunks_exact(plane);
            for (src, taps) in sources.zip(filter.chunks_exact(k * k)) {
                for (ky, row_taps) in taps.chunks_exact(k).enumerate() {
                    // Output rows whose source row `y + ky - pad` is inside.
                    let (y0, y1) = (pad.saturating_sub(ky), (h + pad).saturating_sub(ky).min(h));
                    for (kx, &wgt) in row_taps.iter().enumerate() {
                        let (x0, x1) =
                            (pad.saturating_sub(kx), (w + pad).saturating_sub(kx).min(w));
                        if y0 >= y1 || x0 >= x1 {
                            continue;
                        }
                        // Full-width rows are contiguous: one run covers them.
                        let (run, rows) = if x1 - x0 == w {
                            ((y1 - y0) * w, y0..y0 + 1)
                        } else {
                            (x1 - x0, y0..y1)
                        };
                        for y in rows {
                            let d = y * w + x0;
                            let s = (y + ky - pad) * w + x0 + kx - pad;
                            for (o, &v) in dst[d..d + run].iter_mut().zip(&src[s..s + run]) {
                                *o += wgt * v;
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// In-place ReLU.
///
/// # Examples
///
/// ```
/// use krigeval_neural::{relu_in_place, Tensor3};
///
/// let mut t = Tensor3::from_vec(1, 1, 3, vec![-1.0, 0.0, 2.0]);
/// relu_in_place(&mut t);
/// assert_eq!(t.as_slice(), &[0.0, 0.0, 2.0]);
/// ```
pub fn relu_in_place(t: &mut Tensor3) {
    for v in t.as_mut_slice() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

/// 2×2 max pooling with stride 2 (floor semantics on odd dimensions).
///
/// # Panics
///
/// Panics if the input is smaller than 2×2.
///
/// # Examples
///
/// ```
/// use krigeval_neural::{max_pool2, Tensor3};
///
/// let t = Tensor3::from_vec(1, 2, 2, vec![1.0, 2.0, 3.0, 4.0]);
/// let p = max_pool2(&t);
/// assert_eq!(p.shape(), (1, 1, 1));
/// assert_eq!(p[(0, 0, 0)], 4.0);
/// ```
pub fn max_pool2(input: &Tensor3) -> Tensor3 {
    assert!(
        input.height() >= 2 && input.width() >= 2,
        "input too small for 2x2 pooling"
    );
    let (c, h, w) = input.shape();
    let (oh, ow) = (h / 2, w / 2);
    let mut out = Tensor3::zeros(c, oh, ow);
    for ch in 0..c {
        for y in 0..oh {
            for x in 0..ow {
                let m = input[(ch, 2 * y, 2 * x)]
                    .max(input[(ch, 2 * y, 2 * x + 1)])
                    .max(input[(ch, 2 * y + 1, 2 * x)])
                    .max(input[(ch, 2 * y + 1, 2 * x + 1)]);
                out[(ch, y, x)] = m;
            }
        }
    }
    out
}

/// Global average pooling: one scalar per channel.
///
/// # Examples
///
/// ```
/// use krigeval_neural::{global_avg_pool, Tensor3};
///
/// let t = Tensor3::from_vec(2, 1, 2, vec![1.0, 3.0, 10.0, 20.0]);
/// assert_eq!(global_avg_pool(&t), vec![2.0, 15.0]);
/// ```
pub fn global_avg_pool(input: &Tensor3) -> Vec<f64> {
    let (c, h, w) = input.shape();
    let n = (h * w) as f64;
    (0..c)
        .map(|ch| {
            let mut sum = 0.0;
            for y in 0..h {
                for x in 0..w {
                    sum += input[(ch, y, x)];
                }
            }
            sum / n
        })
        .collect()
}

/// Index of the largest logit (ties broken toward the lower index).
///
/// # Panics
///
/// Panics if `logits` is empty.
///
/// # Examples
///
/// ```
/// assert_eq!(krigeval_neural::argmax(&[0.1, 0.9, 0.3]), 1);
/// ```
pub fn argmax(logits: &[f64]) -> usize {
    assert!(!logits.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &v) in logits.iter().enumerate() {
        if v > logits[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl Conv2d {
        /// The textbook per-pixel loop: the bitwise oracle for `forward`.
        fn forward_naive(&self, input: &Tensor3) -> Tensor3 {
            let (h, w) = (input.height(), input.width());
            let pad = self.kernel / 2;
            let mut out = Tensor3::zeros(self.out_channels, h, w);
            for oc in 0..self.out_channels {
                for y in 0..h {
                    for x in 0..w {
                        let mut acc = self.bias[oc];
                        for ic in 0..self.in_channels {
                            for ky in 0..self.kernel {
                                let sy = y as isize + ky as isize - pad as isize;
                                if sy < 0 || sy >= h as isize {
                                    continue;
                                }
                                for kx in 0..self.kernel {
                                    let sx = x as isize + kx as isize - pad as isize;
                                    if sx < 0 || sx >= w as isize {
                                        continue;
                                    }
                                    let wgt = self.weights[((oc * self.in_channels + ic)
                                        * self.kernel
                                        + ky)
                                        * self.kernel
                                        + kx];
                                    acc += wgt * input[(ic, sy as usize, sx as usize)];
                                }
                            }
                        }
                        out[(oc, y, x)] = acc;
                    }
                }
            }
            out
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn forward_is_bitwise_the_naive_loop(
            (ic, oc, k) in (1usize..5, 1usize..5, 0usize..3),
            (h, w) in (1usize..10, 1usize..10),
            seed in 0u64..u64::MAX,
        ) {
            let kernel = 2 * k + 1; // 1, 3 or 5, also wider than tiny inputs
            let conv = Conv2d::seeded(ic, oc, kernel, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5);
            let x = Tensor3::from_vec(
                ic,
                h,
                w,
                (0..ic * h * w).map(|_| rng.gen_range(-4.0..4.0)).collect(),
            );
            let fast: Vec<u64> = conv.forward(&x).as_slice().iter().map(|v| v.to_bits()).collect();
            let naive: Vec<u64> =
                conv.forward_naive(&x).as_slice().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(fast, naive);
        }
    }

    #[test]
    fn conv_is_deterministic_per_seed() {
        let a = Conv2d::seeded(2, 3, 3, 7);
        let b = Conv2d::seeded(2, 3, 3, 7);
        let x = Tensor3::from_vec(2, 4, 4, (0..32).map(|i| i as f64 / 32.0).collect());
        assert_eq!(a.forward(&x), b.forward(&x));
        let c = Conv2d::seeded(2, 3, 3, 8);
        assert_ne!(a.forward(&x), c.forward(&x));
    }

    #[test]
    fn conv_1x1_is_channel_mixing_only() {
        let conv = Conv2d::seeded(2, 1, 1, 3);
        let mut x = Tensor3::zeros(2, 3, 3);
        x[(0, 1, 1)] = 1.0;
        let y = conv.forward(&x);
        // Only position (1,1) can differ from the bias response.
        let bias_only = conv.forward(&Tensor3::zeros(2, 3, 3));
        for yy in 0..3 {
            for xx in 0..3 {
                if (yy, xx) != (1, 1) {
                    assert_eq!(y[(0, yy, xx)], bias_only[(0, yy, xx)]);
                }
            }
        }
        assert_ne!(y[(0, 1, 1)], bias_only[(0, 1, 1)]);
    }

    #[test]
    fn conv_same_padding_preserves_spatial_shape() {
        let conv = Conv2d::seeded(1, 4, 3, 1);
        let x = Tensor3::zeros(1, 5, 7);
        assert_eq!(conv.forward(&x).shape(), (4, 5, 7));
    }

    #[test]
    fn conv_linearity() {
        // conv(2x) - bias-response == 2·(conv(x) - bias-response)
        let conv = Conv2d::seeded(1, 2, 3, 9);
        let x = Tensor3::from_vec(1, 4, 4, (0..16).map(|i| i as f64 / 16.0).collect());
        let x2 = Tensor3::from_vec(1, 4, 4, x.as_slice().iter().map(|v| v * 2.0).collect());
        let zero = conv.forward(&Tensor3::zeros(1, 4, 4));
        let y1 = conv.forward(&x);
        let y2 = conv.forward(&x2);
        for i in 0..y1.len() {
            let lin1 = y1.as_slice()[i] - zero.as_slice()[i];
            let lin2 = y2.as_slice()[i] - zero.as_slice()[i];
            assert!((lin2 - 2.0 * lin1).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_kernel_panics() {
        let _ = Conv2d::seeded(1, 1, 2, 0);
    }

    #[test]
    fn max_pool_halves_dimensions() {
        let t = Tensor3::zeros(3, 8, 6);
        assert_eq!(max_pool2(&t).shape(), (3, 4, 3));
    }

    #[test]
    fn relu_clamps_negatives_only() {
        let mut t = Tensor3::from_vec(1, 1, 4, vec![-5.0, -0.1, 0.1, 5.0]);
        relu_in_place(&mut t);
        assert_eq!(t.as_slice(), &[0.0, 0.0, 0.1, 5.0]);
    }

    #[test]
    fn argmax_ties_break_low() {
        assert_eq!(argmax(&[1.0, 1.0, 0.5]), 0);
    }
}
