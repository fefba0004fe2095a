//! SqueezeNet fire module.

use crate::layers::{relu_in_place, Conv2d};
use crate::Tensor3;

/// A SqueezeNet *fire module*: a 1×1 squeeze convolution followed by
/// parallel 1×1 and 3×3 expand convolutions whose outputs are concatenated
/// along the channel axis (Iandola et al., the paper's ref \[21\]).
///
/// # Examples
///
/// ```
/// use krigeval_neural::{FireModule, Tensor3};
///
/// let fire = FireModule::seeded(8, 4, 8, 100);
/// let x = Tensor3::zeros(8, 6, 6);
/// let y = fire.forward(&x);
/// assert_eq!(y.shape(), (16, 6, 6)); // 8 + 8 expand channels
/// ```
#[derive(Debug, Clone)]
pub struct FireModule {
    squeeze: Conv2d,
    expand1: Conv2d,
    expand3: Conv2d,
}

impl FireModule {
    /// Builds a fire module with `squeeze_channels` squeeze outputs and
    /// `expand_channels` outputs on *each* expand branch (total output
    /// channels = `2 · expand_channels`).
    ///
    /// # Panics
    ///
    /// Panics if any channel count is zero.
    pub fn seeded(
        in_channels: usize,
        squeeze_channels: usize,
        expand_channels: usize,
        seed: u64,
    ) -> FireModule {
        FireModule {
            squeeze: Conv2d::seeded(in_channels, squeeze_channels, 1, seed),
            expand1: Conv2d::seeded(squeeze_channels, expand_channels, 1, seed.wrapping_add(1)),
            expand3: Conv2d::seeded(squeeze_channels, expand_channels, 3, seed.wrapping_add(2)),
        }
    }

    /// Total output channels (`2 · expand_channels`).
    pub fn out_channels(&self) -> usize {
        self.expand1.out_channels() + self.expand3.out_channels()
    }

    /// Forward pass over every image of the batch: squeeze → ReLU →
    /// (expand1 ‖ expand3) → ReLU. Each expand branch writes straight into
    /// its channel range of the output.
    pub fn forward(&self, input: &Tensor3) -> Tensor3 {
        let mut squeezed = self.squeeze.forward(input);
        relu_in_place(&mut squeezed);
        let (h, w, n) = (input.height(), input.width(), input.images());
        let mut out = Tensor3::zeros_batch(self.out_channels(), h, w, n);
        let (e1, e3) = out
            .as_mut_slice()
            .split_at_mut(self.expand1.out_channels() * h * w * n);
        self.expand1.forward_into(&squeezed, e1);
        self.expand3.forward_into(&squeezed, e3);
        relu_in_place(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_channels_are_double_expand() {
        let f = FireModule::seeded(16, 4, 12, 5);
        assert_eq!(f.out_channels(), 24);
        let y = f.forward(&Tensor3::zeros(16, 4, 4));
        assert_eq!(y.channels(), 24);
    }

    #[test]
    fn preserves_spatial_shape() {
        let f = FireModule::seeded(8, 4, 8, 5);
        let y = f.forward(&Tensor3::zeros(8, 5, 9));
        assert_eq!((y.height(), y.width()), (5, 9));
    }

    #[test]
    fn output_is_non_negative_after_relu() {
        let f = FireModule::seeded(4, 2, 4, 11);
        let x = Tensor3::from_vec(4, 4, 4, (0..64).map(|i| (i as f64 - 32.0) / 8.0).collect());
        let y = f.forward(&x);
        assert!(y.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn deterministic_per_seed() {
        let x = Tensor3::from_vec(4, 3, 3, (0..36).map(|i| i as f64 / 36.0).collect());
        let a = FireModule::seeded(4, 2, 4, 77).forward(&x);
        let b = FireModule::seeded(4, 2, 4, 77).forward(&x);
        assert_eq!(a, b);
    }
}
