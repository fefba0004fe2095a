//! Minimal batch of 3-D tensors (channels × height × width), image
//! innermost.

use std::ops::{Index, IndexMut};

/// A batch of dense `f64` tensors of one CHW shape, stored with the image
/// index innermost (`[c][h][w][n]`): element `(c, y, x)` of image `i` sits
/// at `((c · height + y) · width + x) · images + i`. Every layer and hook
/// of the mini network walks a whole batch at once, so a tap, a pool or a
/// noise draw runs over `images` adjacent values. A batch of one is a
/// plain CHW tensor.
///
/// # Examples
///
/// ```
/// use krigeval_neural::Tensor3;
///
/// let mut t = Tensor3::zeros(2, 3, 4);
/// t[(1, 2, 3)] = 7.0;
/// assert_eq!(t[(1, 2, 3)], 7.0);
/// assert_eq!(t.shape(), (2, 3, 4));
///
/// let batch = Tensor3::stack(&[t.clone(), Tensor3::zeros(2, 3, 4)]);
/// assert_eq!(batch.images(), 2);
/// assert_eq!(batch.image(0), t);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor3 {
    channels: usize,
    height: usize,
    width: usize,
    images: usize,
    data: Vec<f64>,
}

impl Tensor3 {
    /// Creates a zero-filled tensor: a batch of one.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn zeros(channels: usize, height: usize, width: usize) -> Tensor3 {
        Tensor3::zeros_batch(channels, height, width, 1)
    }

    /// Creates a zero-filled batch of `images` tensors.
    ///
    /// # Panics
    ///
    /// Panics if any dimension or `images` is zero.
    pub fn zeros_batch(channels: usize, height: usize, width: usize, images: usize) -> Tensor3 {
        assert!(
            channels > 0 && height > 0 && width > 0 && images > 0,
            "tensor dimensions must be positive"
        );
        Tensor3 {
            channels,
            height,
            width,
            images,
            data: vec![0.0; channels * height * width * images],
        }
    }

    /// Builds a batch of one from a flat CHW vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != channels * height * width` or any dimension
    /// is zero.
    pub fn from_vec(channels: usize, height: usize, width: usize, data: Vec<f64>) -> Tensor3 {
        assert_eq!(
            data.len(),
            channels * height * width,
            "data length does not match dimensions"
        );
        assert!(
            channels > 0 && height > 0 && width > 0,
            "tensor dimensions must be positive"
        );
        Tensor3 {
            channels,
            height,
            width,
            images: 1,
            data,
        }
    }

    /// One batch of the images of `batches`, in order.
    ///
    /// # Panics
    ///
    /// Panics if `batches` is empty or their shapes differ.
    pub fn stack(batches: &[Tensor3]) -> Tensor3 {
        let first = batches.first().expect("need at least one batch to stack");
        assert!(
            batches.iter().all(|b| b.shape() == first.shape()),
            "shape mismatch in stack"
        );
        let images = batches.iter().map(|b| b.images).sum();
        let mut data = Vec::with_capacity(first.data.len() / first.images * images);
        for e in 0..first.data.len() / first.images {
            for b in batches {
                data.extend_from_slice(&b.data[e * b.images..][..b.images]);
            }
        }
        Tensor3 {
            images,
            data,
            ..*first
        }
    }

    /// Image `i` of the batch, as a batch of one.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.images()`.
    pub fn image(&self, i: usize) -> Tensor3 {
        assert!(
            i < self.images,
            "no image {i} in a batch of {}",
            self.images
        );
        Tensor3 {
            images: 1,
            data: self.data[i..]
                .iter()
                .step_by(self.images)
                .copied()
                .collect(),
            ..*self
        }
    }

    /// Every image of the batch as a flat CHW vector, in order.
    pub(crate) fn split(&self) -> Vec<Vec<f64>> {
        (0..self.images).map(|i| self.image(i).data).collect()
    }

    /// The flat data.
    pub(crate) fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Bytes of the buffer the tensor holds.
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f64>()
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Spatial height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Spatial width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// `(channels, height, width)` of each image.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.channels, self.height, self.width)
    }

    /// Number of images in the batch.
    pub fn images(&self) -> usize {
        self.images
    }

    /// Total number of elements, over every image.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the tensor holds no elements (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat view, image innermost.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat view, image innermost.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Root-mean-square of each image's elements (used to scale injected
    /// noise relative to activation energy). Each image's squares are
    /// summed in its `(c, y, x)` order.
    pub fn rms(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.images];
        for row in self.data.chunks_exact(self.images) {
            for (s, v) in sums.iter_mut().zip(row) {
                *s += v * v;
            }
        }
        let len = (self.data.len() / self.images) as f64;
        sums.into_iter().map(|s| (s / len).sqrt()).collect()
    }
}

/// Indexing addresses a batch of one by `(channel, y, x)`.
impl Index<(usize, usize, usize)> for Tensor3 {
    type Output = f64;

    fn index(&self, (c, y, x): (usize, usize, usize)) -> &f64 {
        assert_eq!(self.images, 1, "index a batch through Tensor3::image");
        debug_assert!(c < self.channels && y < self.height && x < self.width);
        &self.data[(c * self.height + y) * self.width + x]
    }
}

impl IndexMut<(usize, usize, usize)> for Tensor3 {
    fn index_mut(&mut self, (c, y, x): (usize, usize, usize)) -> &mut f64 {
        assert_eq!(self.images, 1, "index a batch through Tensor3::image");
        debug_assert!(c < self.channels && y < self.height && x < self.width);
        &mut self.data[(c * self.height + y) * self.width + x]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_is_chw() {
        let t = Tensor3::from_vec(2, 2, 2, (0..8).map(f64::from).collect());
        assert_eq!(t[(0, 0, 0)], 0.0);
        assert_eq!(t[(0, 1, 1)], 3.0);
        assert_eq!(t[(1, 0, 0)], 4.0);
        assert_eq!(t[(1, 1, 1)], 7.0);
    }

    #[test]
    fn stack_puts_the_image_innermost() {
        let a = Tensor3::from_vec(1, 1, 3, vec![1.0, 2.0, 3.0]);
        let b = Tensor3::from_vec(1, 1, 3, vec![10.0, 20.0, 30.0]);
        let ab = Tensor3::stack(&[a.clone(), b.clone()]);
        assert_eq!(ab.as_slice(), &[1.0, 10.0, 2.0, 20.0, 3.0, 30.0]);
        let abab = Tensor3::stack(&[ab.clone(), ab]);
        assert_eq!(abab.images(), 4);
        for (i, img) in [&a, &b, &a, &b].into_iter().enumerate() {
            assert_eq!(&abab.image(i), img);
        }
        assert_eq!(abab.split()[3], b.into_vec());
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn stack_rejects_mismatched_shapes() {
        let _ = Tensor3::stack(&[Tensor3::zeros(1, 2, 2), Tensor3::zeros(1, 3, 2)]);
    }

    #[test]
    #[should_panic(expected = "through Tensor3::image")]
    fn indexing_a_batch_panics() {
        let _ = Tensor3::zeros_batch(1, 2, 2, 2)[(0, 0, 0)];
    }

    #[test]
    fn rms_is_per_image() {
        let t = Tensor3::from_vec(1, 2, 2, vec![3.0; 4]);
        assert!((t.rms()[0] - 3.0).abs() < 1e-12);
        let batch = Tensor3::stack(&[t, Tensor3::zeros(1, 2, 2)]);
        assert_eq!(batch.rms(), vec![3.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_panics() {
        let _ = Tensor3::zeros(0, 2, 2);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_validates_length() {
        let _ = Tensor3::from_vec(1, 2, 2, vec![0.0; 5]);
    }
}
