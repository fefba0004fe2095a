//! Deterministic synthetic image dataset.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{parallel, Tensor3};

/// Generates `count` deterministic 3-channel `size × size` images in
/// `[0, 1)`, each a sum of a few random low-frequency cosine gratings — a
/// stand-in for the paper's 1000-image classification input set (see the
/// substitution notes in `DESIGN.md`).
///
/// Every image's gratings are drawn from one generator first, then the
/// images are rendered in parallel, a contiguous range per thread; the
/// images are the same at any thread count.
///
/// Low-frequency structure matters: it gives the reference network's logits
/// varied margins, so the classification-agreement metric `p_cl` degrades
/// *smoothly* as injected error power grows (pure white-noise images would
/// make every margin razor-thin and `p_cl` collapse abruptly).
///
/// # Panics
///
/// Panics if `count == 0` or `size == 0`.
///
/// # Examples
///
/// ```
/// let images = krigeval_neural::synthetic_images(10, 12, 99);
/// assert_eq!(images.len(), 10);
/// assert_eq!(images[0].shape(), (3, 12, 12));
/// // Deterministic.
/// assert_eq!(images, krigeval_neural::synthetic_images(10, 12, 99));
/// ```
pub fn synthetic_images(count: usize, size: usize, seed: u64) -> Vec<Tensor3> {
    synthetic_images_on(count, size, seed, parallel::threads())
}

/// [`synthetic_images`] rendered on `threads` threads: every image's
/// gratings are drawn from the one generator first, in image order, then
/// each thread renders a contiguous range of images. An image is a
/// function of its gratings alone, so the images do not depend on
/// `threads`.
pub(crate) fn synthetic_images_on(
    count: usize,
    size: usize,
    seed: u64,
    threads: usize,
) -> Vec<Tensor3> {
    assert!(count > 0, "need at least one image");
    assert!(size > 0, "image size must be positive");
    let gratings = gratings(count, seed);
    parallel::map(parallel::ranges(count, threads), |images| {
        render(&gratings[images], size)
    })
    .concat()
}

/// One image's gratings: three per channel, each `(fx, fy, phase,
/// amplitude)`.
pub(crate) type ImageGratings = [[(f64, f64, f64, f64); 3]; 3];

/// The gratings of `count` images, drawn from one generator seeded by
/// `seed` in image, channel, grating order.
pub(crate) fn gratings(count: usize, seed: u64) -> Vec<ImageGratings> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            // 3 gratings per channel with random orientation and phase.
            [(); 3].map(|()| {
                [(); 3].map(|()| {
                    (
                        rng.gen_range(0.2..2.0),                   // fx (cycles/image)
                        rng.gen_range(0.2..2.0),                   // fy
                        rng.gen_range(0.0..std::f64::consts::TAU), // phase
                        rng.gen_range(0.2..1.0),                   // amplitude
                    )
                })
            })
        })
        .collect()
}

/// Renders one `3 × size × size` image per entry of `gratings`.
pub(crate) fn render(gratings: &[ImageGratings], size: usize) -> Vec<Tensor3> {
    gratings
        .iter()
        .map(|channels| {
            let mut img = Tensor3::zeros(3, size, size);
            for (c, gratings) in channels.iter().enumerate() {
                for y in 0..size {
                    for x in 0..size {
                        let mut v = 0.0;
                        for &(fx, fy, ph, amp) in gratings {
                            let arg = std::f64::consts::TAU
                                * (fx * x as f64 / size as f64 + fy * y as f64 / size as f64)
                                + ph;
                            v += amp * arg.cos();
                        }
                        // Map roughly [-3, 3] → [0, 1).
                        img[(c, y, x)] = ((v / 6.0 + 0.5).clamp(0.0, 1.0)).min(1.0 - 1e-9);
                    }
                }
            }
            img
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn images_are_in_unit_range() {
        for img in synthetic_images(5, 16, 3) {
            assert!(img.as_slice().iter().all(|&v| (0.0..1.0).contains(&v)));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = synthetic_images(3, 8, 1);
        let b = synthetic_images(3, 8, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn images_within_a_set_differ() {
        let imgs = synthetic_images(4, 8, 7);
        assert_ne!(imgs[0], imgs[1]);
        assert_ne!(imgs[1], imgs[2]);
    }

    #[test]
    fn images_have_spatial_structure() {
        // Neighbouring pixels correlate strongly for low-frequency gratings.
        let img = &synthetic_images(1, 32, 5)[0];
        let mut diff = 0.0;
        let mut count = 0;
        for y in 0..32 {
            for x in 1..32 {
                diff += (img[(0, y, x)] - img[(0, y, x - 1)]).abs();
                count += 1;
            }
        }
        assert!(diff / (count as f64) < 0.1, "mean gradient too large");
    }

    /// The serial generator the parallel one replaced: each image's
    /// gratings drawn and rendered before the next image's.
    pub(crate) fn serial_synthetic_images(count: usize, size: usize, seed: u64) -> Vec<Tensor3> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let mut img = Tensor3::zeros(3, size, size);
                for c in 0..3 {
                    let gratings: Vec<(f64, f64, f64, f64)> = (0..3)
                        .map(|_| {
                            (
                                rng.gen_range(0.2..2.0),
                                rng.gen_range(0.2..2.0),
                                rng.gen_range(0.0..std::f64::consts::TAU),
                                rng.gen_range(0.2..1.0),
                            )
                        })
                        .collect();
                    for y in 0..size {
                        for x in 0..size {
                            let mut v = 0.0;
                            for &(fx, fy, ph, amp) in &gratings {
                                let arg = std::f64::consts::TAU
                                    * (fx * x as f64 / size as f64 + fy * y as f64 / size as f64)
                                    + ph;
                                v += amp * arg.cos();
                            }
                            img[(c, y, x)] = ((v / 6.0 + 0.5).clamp(0.0, 1.0)).min(1.0 - 1e-9);
                        }
                    }
                }
                img
            })
            .collect()
    }

    fn bits(images: &[Tensor3]) -> Vec<u64> {
        images
            .iter()
            .flat_map(|img| img.as_slice().iter().map(|v| v.to_bits()))
            .collect()
    }

    #[test]
    fn parallel_rendering_is_the_serial_generator_bit_for_bit() {
        for (count, size) in [(1, 8), (5, 12), (7, 9), (48, 12)] {
            let serial = bits(&serial_synthetic_images(count, size, 0x1A6E));
            for threads in 1..=3 {
                let images = synthetic_images_on(count, size, 0x1A6E, threads);
                assert_eq!(bits(&images), serial, "{count} images, {threads} threads");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one image")]
    fn zero_count_panics() {
        let _ = synthetic_images(0, 8, 0);
    }
}
