//! The mini SqueezeNet-style classifier with ten error-injection sites.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::checkpoint::ResumableHook;
use crate::layers::{argmax, global_avg_pool, max_pool2, relu_in_place, Conv2d};
use crate::{FireModule, Tensor3};

/// Number of error-injection sites (= the paper's `Nv = 10` for the
/// SqueezeNet benchmark): one at the output of each layer.
pub const NUM_INJECTION_SITES: usize = 10;

/// Number of output classes.
pub const NUM_CLASSES: usize = 10;

/// A scaled-down SqueezeNet: conv → pool → fire ×2 → pool → fire ×2 →
/// 1×1 class conv → global average pool → logits.
///
/// The ten injection sites, in forward order:
///
/// | site | layer output |
/// |------|--------------|
/// | 0 | conv1 (3×3, 8 ch) + ReLU |
/// | 1 | maxpool1 |
/// | 2 | fire1 (squeeze 4, expand 8+8) |
/// | 3 | fire2 |
/// | 4 | maxpool2 |
/// | 5 | fire3 |
/// | 6 | fire4 |
/// | 7 | class conv (1×1 → 10 ch) |
/// | 8 | global average pool |
/// | 9 | logits register |
///
/// Error injection follows the paper's setup: an additive white Gaussian
/// source of configurable power at each site (a power of `−∞` dB disables
/// the source). Activation tensors are perturbed element-wise.
///
/// # Examples
///
/// ```
/// use krigeval_neural::{synthetic_images, MiniSqueezeNet};
///
/// let net = MiniSqueezeNet::seeded(0xBEEF);
/// let img = &synthetic_images(1, 12, 1)[0];
/// let class = net.classify(img)[0];
/// assert!(class < 10);
/// // No injection = classify.
/// let (class2, _) = net.classify_with_injection(img, &[f64::NEG_INFINITY; 10], 7);
/// assert_eq!(class, class2);
/// ```
#[derive(Debug, Clone)]
pub struct MiniSqueezeNet {
    conv1: Conv2d,
    fire1: FireModule,
    fire2: FireModule,
    fire3: FireModule,
    fire4: FireModule,
    class_conv: Conv2d,
    /// Per-class z-score calibration `(offset, scale)` applied between the
    /// global average pool and the logits register. An untrained network
    /// would otherwise let one bias-dominated class win on every input; the
    /// calibration (mean/std of each raw class logit over a fixed image set)
    /// makes the argmax depend on image-specific structure — giving the
    /// diverse labels and O(1) decision margins a classification benchmark
    /// needs.
    logit_offset: Vec<f64>,
    logit_scale: Vec<f64>,
    noise_seed: u64,
}

impl MiniSqueezeNet {
    /// Builds the network with pseudo-random weights derived from `seed`,
    /// calibrated for class diversity (see the `logit_offset` field docs).
    pub fn seeded(seed: u64) -> MiniSqueezeNet {
        let mut net = MiniSqueezeNet {
            conv1: Conv2d::seeded(3, 8, 3, seed),
            fire1: FireModule::seeded(8, 4, 8, seed.wrapping_add(10)),
            fire2: FireModule::seeded(16, 4, 8, seed.wrapping_add(20)),
            fire3: FireModule::seeded(16, 4, 8, seed.wrapping_add(30)),
            fire4: FireModule::seeded(16, 4, 8, seed.wrapping_add(40)),
            class_conv: Conv2d::seeded(16, NUM_CLASSES, 1, seed.wrapping_add(50)),
            logit_offset: vec![0.0; NUM_CLASSES],
            logit_scale: vec![1.0; NUM_CLASSES],
            noise_seed: seed.wrapping_add(0x5EED),
        };
        let calibration = crate::synthetic_images(64, 12, seed.wrapping_add(0xCA11));
        // `logits` already applies the per-image centering (offset 0 /
        // scale 1 at this point), so the statistics below are those of the
        // centered logits.
        let raw = net.logits(&Tensor3::stack(&calibration));
        let n = raw.len() as f64;
        let mut mean = vec![0.0; NUM_CLASSES];
        for l in &raw {
            for (m, v) in mean.iter_mut().zip(l) {
                *m += v / n;
            }
        }
        let mut std = [0.0; NUM_CLASSES];
        for l in &raw {
            for ((s, v), m) in std.iter_mut().zip(l).zip(&mean) {
                *s += (v - m) * (v - m) / n;
            }
        }
        net.logit_offset = mean;
        net.logit_scale = std.iter().map(|s| s.sqrt().max(1e-9)).collect();
        net
    }

    /// Error-free forward pass returning each image's logits.
    ///
    /// # Panics
    ///
    /// Panics if the images do not have 3 channels or are smaller than 8×8.
    pub fn logits(&self, images: &Tensor3) -> Vec<Vec<f64>> {
        self.forward_with(images, &mut NoopHook).split()
    }

    /// Error-free classification of each image (argmax of its logits).
    ///
    /// # Panics
    ///
    /// See [`MiniSqueezeNet::logits`].
    pub fn classify(&self, images: &Tensor3) -> Vec<usize> {
        self.logits(images).iter().map(|l| argmax(l)).collect()
    }

    /// Forward pass with additive error sources of `powers_db[i]` dB
    /// injected at site `i`, returning `(class, logits)`.
    ///
    /// `image_index` seeds the noise realization: the same
    /// `(network, image_index)` pair always draws the same noise *sequence*,
    /// so classification rates are deterministic and configurations share
    /// common random numbers (variance reduction, same role as the paper's
    /// fixed 1000-image set).
    ///
    /// # Panics
    ///
    /// Panics if `powers_db.len() != NUM_INJECTION_SITES`, if a power is NaN
    /// or `+∞`, if `image` is not a batch of one, or on image-shape
    /// violations.
    pub fn classify_with_injection(
        &self,
        image: &Tensor3,
        powers_db: &[f64],
        image_index: u64,
    ) -> (usize, Vec<f64>) {
        assert_eq!(
            powers_db.len(),
            NUM_INJECTION_SITES,
            "expected {NUM_INJECTION_SITES} error powers"
        );
        for (i, &p) in powers_db.iter().enumerate() {
            assert!(
                !p.is_nan() && p != f64::INFINITY,
                "invalid error power at site {i}: {p}"
            );
        }
        assert_eq!(image.images(), 1, "expected a single image");
        let stream = self.noise_stream(image_index, self.noise_draws(image));
        let logits = self
            .forward_with(image, &mut NoiseHook::new(powers_db, &stream, vec![0]))
            .into_vec();
        (argmax(&logits), logits)
    }

    /// The first `len` standard normals of image `image_index`'s noise
    /// sequence. Injection is the only consumer of this generator, so an
    /// image's sequence is the same for every configuration; a site that
    /// injects nothing consumes nothing, and later sites read on from there.
    pub(crate) fn noise_stream(&self, image_index: u64, len: usize) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(
            self.noise_seed ^ image_index.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        (0..len).map(|_| standard_normal(&mut rng)).collect()
    }

    /// Noise draws a forward pass over an image of `images`' shape
    /// consumes when every site injects: the sum of the ten site sizes,
    /// from the layer shapes (2×2 pooling floors each spatial dimension).
    pub(crate) fn noise_draws(&self, images: &Tensor3) -> usize {
        let (h, w) = (images.height(), images.width());
        let half = (h / 2) * (w / 2);
        let quarter = (h / 4) * (w / 4);
        let conv1 = self.conv1.out_channels();
        conv1 * h * w
            + conv1 * half
            + (self.fire1.out_channels() + self.fire2.out_channels()) * half
            + (self.fire2.out_channels() + self.fire3.out_channels() + self.fire4.out_channels())
                * quarter
            + self.class_conv.out_channels() * quarter
            + 2 * NUM_CLASSES
    }

    /// Forward pass over a batch of images with an arbitrary per-site
    /// perturbation hook — the mechanism both the error-injection
    /// benchmark and the fixed-point quantized-inference benchmark are
    /// built on. `hook.site(k, batch)` is called after each site: on the
    /// activation batch at sites 0–7 and on the calibrated logits, a
    /// `NUM_CLASSES × 1 × 1` batch, at sites 8–9. Returns the logits
    /// batch.
    ///
    /// Equivalent to `forward_at(0, stem(images), hook)`.
    ///
    /// # Panics
    ///
    /// Panics if the images are not RGB or smaller than 8×8.
    pub fn forward_with(&self, images: &Tensor3, hook: &mut dyn SiteHook) -> Tensor3 {
        self.forward_at(0, self.stem(images), hook)
    }

    /// conv1 and its ReLU over a batch: the part of the forward pass before
    /// injection site 0, so a function of the images alone. Benchmarks
    /// that evaluate many configurations over a fixed image set compute it
    /// once and resume with [`MiniSqueezeNet::forward_at`] at site 0.
    ///
    /// # Panics
    ///
    /// Panics if the images are not RGB or smaller than 8×8.
    pub fn stem(&self, images: &Tensor3) -> Tensor3 {
        assert_eq!(images.channels(), 3, "expected an RGB image");
        assert!(
            images.height() >= 8 && images.width() >= 8,
            "image must be at least 8x8 for two pooling stages"
        );
        let mut t = self.conv1.forward(images);
        relu_in_place(&mut t);
        t
    }

    /// The [`MiniSqueezeNet::stem`] batch of `images` and the label the
    /// error-free network gives each image: the state the benchmarks
    /// precompute.
    pub(crate) fn stems_and_labels(&self, images: &[Tensor3]) -> (Tensor3, Vec<usize>) {
        let stems = self.stem(&Tensor3::stack(images));
        let logits = self.forward_at(0, stems.clone(), &mut NoopHook).split();
        (stems, logits.iter().map(|l| argmax(l)).collect())
    }

    /// The forward pass from injection site `site` onwards, given that
    /// site's input batch before its hook runs: the activations at sites
    /// 0–7, the calibrated logits as a `NUM_CLASSES × 1 × 1` batch at sites
    /// 8–9. Returns the logits batch. Every forward pass runs this one
    /// body, each layer once over the whole batch; a pass started at `site`
    /// from the input a full pass had there runs the same operations on
    /// the same values from then on.
    ///
    /// # Panics
    ///
    /// Panics if `site >= NUM_INJECTION_SITES` or `input` does not have the
    /// site's shape.
    pub fn forward_at(&self, site: usize, input: Tensor3, hook: &mut dyn SiteHook) -> Tensor3 {
        assert!(site < NUM_INJECTION_SITES, "no injection site {site}");
        let mut t = input;
        for k in site..NUM_INJECTION_SITES {
            if k > site {
                t = self.layer(k, t);
            }
            hook.site(k, &mut t);
        }
        t
    }

    /// The layer between site `k − 1`'s hooked output and site `k`'s input.
    fn layer(&self, k: usize, t: Tensor3) -> Tensor3 {
        match k {
            1 | 4 => max_pool2(&t),
            2 => self.fire1.forward(&t),
            3 => self.fire2.forward(&t),
            5 => self.fire3.forward(&t),
            6 => self.fire4.forward(&t),
            7 => self.class_conv.forward(&t),
            8 => self.calibrated_logits(&t),
            // The logits register reads site 8's output as it is.
            9 => t,
            _ => unreachable!("site {k} has no layer before it"),
        }
    }

    /// Global average pool of the class maps, then calibration, per image.
    fn calibrated_logits(&self, class_maps: &Tensor3) -> Tensor3 {
        let mut logits = global_avg_pool(class_maps);
        let n = logits.images();
        // Raw class logits of an untrained network are dominated by one
        // common per-image factor (overall activation energy). Remove it by
        // centering across classes, then apply the per-class z-score
        // calibration so every class competes on image-specific structure.
        let image_mean: Vec<f64> = (0..n)
            .map(|i| {
                let gap = logits.as_slice()[i..].iter().step_by(n);
                gap.sum::<f64>() / class_maps.channels() as f64
            })
            .collect();
        let classes = logits.as_mut_slice().chunks_exact_mut(n);
        for (gap, (o, s)) in classes.zip(self.logit_offset.iter().zip(&self.logit_scale)) {
            for (g, m) in gap.iter_mut().zip(&image_mean) {
                *g = (*g - m - o) / s;
            }
        }
        logits
    }
}

/// The share of images whose logits' argmax equals their reference label
/// (`p_cl`).
pub(crate) fn agreement_rate(logits: &[Vec<f64>], labels: &[usize]) -> f64 {
    let agree = logits
        .iter()
        .zip(labels)
        .filter(|(l, &label)| argmax(l) == label)
        .count();
    agree as f64 / labels.len() as f64
}

/// A per-site perturbation applied during [`MiniSqueezeNet::forward_at`].
pub trait SiteHook {
    /// Perturbs the batch produced at `site`: activations at sites 0–7,
    /// the calibrated logits (`NUM_CLASSES × 1 × 1` per image) at 8–9.
    fn site(&mut self, site: usize, batch: &mut Tensor3);
}

/// A [`SiteHook`] that applies nothing — the reference path.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopHook;

impl SiteHook for NoopHook {
    fn site(&mut self, _: usize, _: &mut Tensor3) {}
}

/// The error-injection hook: reads each image's noise sequence (see
/// [`MiniSqueezeNet::noise_stream`]) through a cursor of its own.
pub(crate) struct NoiseHook<'a> {
    powers_db: &'a [f64],
    /// Draw `k` of image `i` at `k · images + i`, the batch layout.
    noise: &'a [f64],
    cursors: Vec<usize>,
}

impl<'a> NoiseHook<'a> {
    /// Injects `powers_db[site]` at each site, image `i` drawing from its
    /// sequence in `noise` from position `cursors[i]` on. A full pass
    /// starts every cursor at 0 and needs each image's sequence to hold
    /// [`MiniSqueezeNet::noise_draws`] values; a pass resumed at site `k`
    /// starts where a full pass's cursors stood at `k`.
    pub(crate) fn new(
        powers_db: &'a [f64],
        noise: &'a [f64],
        cursors: Vec<usize>,
    ) -> NoiseHook<'a> {
        NoiseHook {
            powers_db,
            noise,
            cursors,
        }
    }
}

impl SiteHook for NoiseHook<'_> {
    /// Adds white Gaussian noise of mean power `10^(db/10)` **relative to
    /// each image's activation power at the site** to every element (i.e.
    /// `power_db` is a noise-to-signal ratio in dB). Relative powers keep
    /// the ten sites commensurable: the paper budgets error power per
    /// layer, and activations at different depths have very different
    /// dynamic ranges. A source at `−∞` dB draws nothing; an image whose σ
    /// is 0 (an all-zero activation, or a power so low that σ underflows)
    /// draws nothing either, and none of its values change.
    fn site(&mut self, site: usize, t: &mut Tensor3) {
        let power_db = self.powers_db[site];
        if power_db == f64::NEG_INFINITY {
            return;
        }
        let scale = 10f64.powf(power_db / 20.0);
        let sigmas: Vec<f64> = t.rms().into_iter().map(|r| scale * r).collect();
        let n = sigmas.len();
        let len = t.len() / n;
        let xs = t.as_mut_slice();
        let first = self.cursors[0];
        if sigmas.iter().all(|&s| s != 0.0) && self.cursors.iter().all(|&c| c == first) {
            // Every image draws from the same position: the draws are one
            // run in the batch layout.
            let draws = self.noise[first * n..][..len * n].chunks_exact(n);
            for (row, z) in xs.chunks_exact_mut(n).zip(draws) {
                for ((x, z), s) in row.iter_mut().zip(z).zip(&sigmas) {
                    *x += s * z;
                }
            }
        } else {
            for (i, &s) in sigmas.iter().enumerate().filter(|(_, &s)| s != 0.0) {
                let draws = self.noise[self.cursors[i] * n + i..].iter().step_by(n);
                for (x, z) in xs[i..].iter_mut().step_by(n).zip(draws) {
                    *x += s * z;
                }
            }
        }
        for (cursor, &s) in self.cursors.iter_mut().zip(&sigmas) {
            if s != 0.0 {
                *cursor += len;
            }
        }
    }
}

impl ResumableHook for NoiseHook<'_> {
    fn cursors(&self) -> &[usize] {
        &self.cursors
    }
}

/// Box–Muller standard normal (avoids a rand_distr dependency).
fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic_images;

    #[test]
    fn logits_have_num_classes_entries() {
        let net = MiniSqueezeNet::seeded(1);
        let imgs = Tensor3::stack(&synthetic_images(3, 12, 0));
        let logits = net.logits(&imgs);
        assert_eq!(logits.len(), 3);
        assert!(logits.iter().all(|l| l.len() == NUM_CLASSES));
    }

    #[test]
    fn classification_is_deterministic() {
        let net = MiniSqueezeNet::seeded(2);
        let imgs = Tensor3::stack(&synthetic_images(5, 12, 3));
        assert_eq!(net.classify(&imgs), net.classify(&imgs));
    }

    #[test]
    fn classes_are_diverse_across_images() {
        // A useful benchmark needs varied labels, not one dominant class.
        let net = MiniSqueezeNet::seeded(4);
        let imgs = Tensor3::stack(&synthetic_images(60, 12, 5));
        let seen: std::collections::HashSet<usize> = net.classify(&imgs).into_iter().collect();
        assert!(seen.len() >= 3, "only {} distinct classes", seen.len());
    }

    #[test]
    fn disabled_sources_reproduce_clean_output() {
        let net = MiniSqueezeNet::seeded(6);
        let img = &synthetic_images(1, 12, 7)[0];
        let clean = net.logits(img).remove(0);
        let (_, with_off_sources) = net.classify_with_injection(img, &[f64::NEG_INFINITY; 10], 3);
        assert_eq!(clean, with_off_sources);
    }

    #[test]
    fn injection_noise_is_deterministic_per_image_index() {
        let net = MiniSqueezeNet::seeded(8);
        let img = &synthetic_images(1, 12, 9)[0];
        let powers = [-20.0; 10];
        let (_, a) = net.classify_with_injection(img, &powers, 5);
        let (_, b) = net.classify_with_injection(img, &powers, 5);
        assert_eq!(a, b);
        let (_, c) = net.classify_with_injection(img, &powers, 6);
        assert_ne!(a, c);
    }

    #[test]
    fn noise_hook_consumes_exactly_the_computed_draw_count() {
        let net = MiniSqueezeNet::seeded(16);
        for size in [8, 12, 15] {
            let img = &synthetic_images(1, size, 17)[0];
            let draws = net.noise_draws(img);
            let stream = net.noise_stream(3, draws);
            let mut hook = NoiseHook::new(&[-20.0; 10], &stream, vec![0]);
            net.forward_with(img, &mut hook);
            assert_eq!(hook.cursors, [draws], "{size}x{size} image");

            let mut powers = [-20.0; 10];
            powers[4] = f64::NEG_INFINITY;
            let mut hook = NoiseHook::new(&powers, &stream, vec![0]);
            net.forward_with(img, &mut hook);
            assert!(
                hook.cursors[0] < draws,
                "a disabled site must skip its draws"
            );
        }
    }

    #[test]
    fn loud_noise_perturbs_logits() {
        let net = MiniSqueezeNet::seeded(10);
        let img = &synthetic_images(1, 12, 11)[0];
        let clean = net.logits(img).remove(0);
        let (_, noisy) = net.classify_with_injection(img, &[10.0; 10], 0);
        let diff: f64 = clean.iter().zip(&noisy).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 0.1, "logits barely moved: {diff}");
    }

    #[test]
    #[should_panic(expected = "expected 10 error powers")]
    fn wrong_power_count_panics() {
        let net = MiniSqueezeNet::seeded(12);
        let img = &synthetic_images(1, 12, 13)[0];
        let _ = net.classify_with_injection(img, &[0.0; 3], 0);
    }

    #[test]
    #[should_panic(expected = "invalid error power")]
    fn nan_power_panics() {
        let net = MiniSqueezeNet::seeded(14);
        let img = &synthetic_images(1, 12, 15)[0];
        let mut p = [f64::NEG_INFINITY; 10];
        p[4] = f64::NAN;
        let _ = net.classify_with_injection(img, &p, 0);
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }
}
