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

/// The first site whose input is the logits vector rather than a tensor.
const FIRST_LOGIT_SITE: usize = 8;

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
/// let class = net.classify(img);
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
        let raw: Vec<Vec<f64>> = calibration.iter().map(|img| net.logits(img)).collect();
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

    /// Error-free forward pass returning the logits.
    ///
    /// # Panics
    ///
    /// Panics if `image` does not have 3 channels or is smaller than 8×8.
    pub fn logits(&self, image: &Tensor3) -> Vec<f64> {
        self.forward_with(image, &mut NoopHook)
    }

    /// Error-free classification (argmax of the logits).
    ///
    /// # Panics
    ///
    /// See [`MiniSqueezeNet::logits`].
    pub fn classify(&self, image: &Tensor3) -> usize {
        argmax(&self.logits(image))
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
    /// or `+∞`, or on image-shape violations.
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
        let stream = self.noise_stream(image_index, self.noise_draws(image));
        let logits = self.forward_with(image, &mut NoiseHook::new(powers_db, &stream, 0));
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

    /// Noise draws a forward pass over `image` consumes when every site
    /// injects: the sum of the ten site sizes, from the layer shapes
    /// (2×2 pooling floors each spatial dimension).
    pub(crate) fn noise_draws(&self, image: &Tensor3) -> usize {
        let (h, w) = (image.height(), image.width());
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

    /// Forward pass with an arbitrary per-site perturbation hook — the
    /// mechanism both the error-injection benchmark and the fixed-point
    /// quantized-inference benchmark are built on. `hook.tensor(site, t)` is
    /// called after each of sites 0–7 (activation tensors) and
    /// `hook.vector(site, v)` after sites 8–9 (the calibrated logits).
    ///
    /// Equivalent to `forward_from(stem(image), hook)`.
    ///
    /// # Panics
    ///
    /// Panics if `image` is not RGB or smaller than 8×8.
    pub fn forward_with(&self, image: &Tensor3, hook: &mut dyn SiteHook) -> Vec<f64> {
        self.forward_from(self.stem(image), hook)
    }

    /// conv1 and its ReLU: the part of the forward pass before injection
    /// site 0, so a function of the image alone. Benchmarks that evaluate
    /// many configurations over a fixed image set compute it once per image
    /// and resume with [`MiniSqueezeNet::forward_from`].
    ///
    /// # Panics
    ///
    /// Panics if `image` is not RGB or smaller than 8×8.
    pub fn stem(&self, image: &Tensor3) -> Tensor3 {
        assert_eq!(image.channels(), 3, "expected an RGB image");
        assert!(
            image.height() >= 8 && image.width() >= 8,
            "image must be at least 8x8 for two pooling stages"
        );
        let mut t = self.conv1.forward(image);
        relu_in_place(&mut t);
        t
    }

    /// Each image's [`MiniSqueezeNet::stem`] output and the label the
    /// error-free network gives it: the per-image state the benchmarks
    /// precompute.
    pub(crate) fn stems_and_labels(&self, images: &[Tensor3]) -> (Vec<Tensor3>, Vec<usize>) {
        let stems: Vec<Tensor3> = images.iter().map(|img| self.stem(img)).collect();
        let labels = stems
            .iter()
            .map(|stem| argmax(&self.forward_from(stem.clone(), &mut NoopHook)))
            .collect();
        (stems, labels)
    }

    /// The forward pass from a [`MiniSqueezeNet::stem`] output onwards:
    /// [`MiniSqueezeNet::forward_at`] started at injection site 0.
    pub fn forward_from(&self, stem: Tensor3, hook: &mut dyn SiteHook) -> Vec<f64> {
        self.forward_at(0, stem, hook)
    }

    /// The forward pass from injection site `site` onwards, given that
    /// site's input before its hook runs: the activation tensor at sites
    /// 0–7, the calibrated logits as a `NUM_CLASSES × 1 × 1` tensor at
    /// sites 8–9. Every forward pass runs this one body; a pass started at
    /// `site` from the input a full pass had there runs the same operations
    /// on the same values from then on.
    ///
    /// # Panics
    ///
    /// Panics if `site >= NUM_INJECTION_SITES` or `input` does not have the
    /// site's shape.
    pub fn forward_at(&self, site: usize, input: Tensor3, hook: &mut dyn SiteHook) -> Vec<f64> {
        assert!(site < NUM_INJECTION_SITES, "no injection site {site}");
        let mut t = input;
        for k in site..NUM_INJECTION_SITES {
            if k > site {
                t = self.layer(k, t);
            }
            if k < FIRST_LOGIT_SITE {
                hook.tensor(k, &mut t);
            } else {
                hook.vector(k, t.as_mut_slice());
            }
        }
        t.into_vec()
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

    /// Global average pool of the class maps, then calibration.
    fn calibrated_logits(&self, class_maps: &Tensor3) -> Tensor3 {
        let gap = global_avg_pool(class_maps);
        // Raw class logits of an untrained network are dominated by one
        // common per-image factor (overall activation energy). Remove it by
        // centering across classes, then apply the per-class z-score
        // calibration so every class competes on image-specific structure.
        let image_mean = gap.iter().sum::<f64>() / gap.len() as f64;
        let logits: Vec<f64> = gap
            .iter()
            .zip(self.logit_offset.iter().zip(&self.logit_scale))
            .map(|(g, (o, s))| (g - image_mean - o) / s)
            .collect();
        Tensor3::from_vec(logits.len(), 1, 1, logits)
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

/// A per-site perturbation applied during [`MiniSqueezeNet::forward_with`].
///
/// Sites 0–7 are activation tensors, sites 8–9 the calibrated logits.
pub trait SiteHook {
    /// Perturbs the activation tensor produced at `site` (0–7).
    fn tensor(&mut self, site: usize, t: &mut Tensor3);
    /// Perturbs the logits at `site` (8–9).
    fn vector(&mut self, site: usize, v: &mut [f64]);
}

/// A [`SiteHook`] that applies nothing — the reference path.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopHook;

impl SiteHook for NoopHook {
    fn tensor(&mut self, _: usize, _: &mut Tensor3) {}
    fn vector(&mut self, _: usize, _: &mut [f64]) {}
}

/// The error-injection hook: reads an image's noise sequence (see
/// [`MiniSqueezeNet::noise_stream`]) through a cursor.
pub(crate) struct NoiseHook<'a> {
    powers_db: &'a [f64],
    stream: &'a [f64],
    cursor: usize,
}

impl<'a> NoiseHook<'a> {
    /// Injects `powers_db[site]` at each site, drawing from `stream` from
    /// position `cursor` on. A full pass starts at cursor 0 and needs
    /// `stream` to hold [`MiniSqueezeNet::noise_draws`] values; a pass
    /// resumed at site `k` starts where a full pass's cursor stood at `k`.
    pub(crate) fn new(powers_db: &'a [f64], stream: &'a [f64], cursor: usize) -> NoiseHook<'a> {
        NoiseHook {
            powers_db,
            stream,
            cursor,
        }
    }

    /// Adds white Gaussian noise of mean power `10^(db/10)` **relative to
    /// the site's activation power** to every element (i.e. `power_db` is a
    /// noise-to-signal ratio in dB). Relative powers keep the ten sites
    /// commensurable: the paper budgets error power per layer, and
    /// activations at different depths have very different dynamic ranges.
    /// A source at `−∞` dB or over an all-zero activation draws nothing.
    fn inject(&mut self, site: usize, xs: &mut [f64]) {
        let power_db = self.powers_db[site];
        if power_db == f64::NEG_INFINITY {
            return;
        }
        let sigma = 10f64.powf(power_db / 20.0) * crate::tensor::rms(xs);
        if sigma == 0.0 {
            return;
        }
        let draws = &self.stream[self.cursor..self.cursor + xs.len()];
        self.cursor += xs.len();
        for (x, z) in xs.iter_mut().zip(draws) {
            *x += sigma * z;
        }
    }
}

impl SiteHook for NoiseHook<'_> {
    fn tensor(&mut self, site: usize, t: &mut Tensor3) {
        self.inject(site, t.as_mut_slice());
    }

    fn vector(&mut self, site: usize, v: &mut [f64]) {
        self.inject(site, v);
    }
}

impl ResumableHook for NoiseHook<'_> {
    fn cursor(&self) -> Option<usize> {
        Some(self.cursor)
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
        let img = &synthetic_images(1, 12, 0)[0];
        assert_eq!(net.logits(img).len(), NUM_CLASSES);
    }

    #[test]
    fn classification_is_deterministic() {
        let net = MiniSqueezeNet::seeded(2);
        let imgs = synthetic_images(5, 12, 3);
        let a: Vec<usize> = imgs.iter().map(|i| net.classify(i)).collect();
        let b: Vec<usize> = imgs.iter().map(|i| net.classify(i)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn classes_are_diverse_across_images() {
        // A useful benchmark needs varied labels, not one dominant class.
        let net = MiniSqueezeNet::seeded(4);
        let imgs = synthetic_images(60, 12, 5);
        let mut seen = std::collections::HashSet::new();
        for img in &imgs {
            seen.insert(net.classify(img));
        }
        assert!(seen.len() >= 3, "only {} distinct classes", seen.len());
    }

    #[test]
    fn disabled_sources_reproduce_clean_output() {
        let net = MiniSqueezeNet::seeded(6);
        let img = &synthetic_images(1, 12, 7)[0];
        let clean = net.logits(img);
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
            let mut hook = NoiseHook::new(&[-20.0; 10], &stream, 0);
            net.forward_with(img, &mut hook);
            assert_eq!(hook.cursor, draws, "{size}x{size} image");

            let mut powers = [-20.0; 10];
            powers[4] = f64::NEG_INFINITY;
            let mut hook = NoiseHook::new(&powers, &stream, 0);
            net.forward_with(img, &mut hook);
            assert!(hook.cursor < draws, "a disabled site must skip its draws");
        }
    }

    #[test]
    fn loud_noise_perturbs_logits() {
        let net = MiniSqueezeNet::seeded(10);
        let img = &synthetic_images(1, 12, 11)[0];
        let clean = net.logits(img);
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
