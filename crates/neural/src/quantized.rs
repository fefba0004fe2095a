//! Fixed-point quantized inference — a **word-length** benchmark on the
//! CNN (extension beyond the paper's error-injection setup).
//!
//! The paper stresses that kriging "is not dependent on a particular
//! metric"; this benchmark exercises that claim in the other direction from
//! the SqueezeNet sensitivity analysis: the approximation source is now the
//! word-length of each layer's activation register (ten sites, as in the
//! injection benchmark), and the quality metric is still the
//! classification-agreement rate `p_cl`. Per-site integer bits are sized by
//! dynamic-range calibration on a held-out image set.

use krigeval_fixedpoint::{QFormat, Quantizer, ResumeStats};

use crate::checkpoint::{self, ResumableHook, SiteStore};
use crate::dataset::{self, ImageGratings};
use crate::net::{agreement_rate, SiteHook, NUM_INJECTION_SITES};
use crate::{parallel, MiniSqueezeNet, NeuralError, Tensor3};

/// Word-length benchmark over the quantized CNN: ten activation-register
/// word-lengths → classification-agreement rate.
///
/// # Examples
///
/// ```
/// use krigeval_neural::QuantizedNetBenchmark;
///
/// # fn main() -> Result<(), krigeval_neural::NeuralError> {
/// let bench = QuantizedNetBenchmark::new(32, 12, 0xBEE5);
/// let wide = bench.classification_rate(&[16; 10])?;
/// let narrow = bench.classification_rate(&[4; 10])?;
/// assert!(wide >= narrow);
/// assert!(wide > 0.9, "16-bit activations must be near-exact: {wide}");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct QuantizedNetBenchmark {
    net: MiniSqueezeNet,
    /// Every image's conv1 + ReLU output ([`MiniSqueezeNet::stem`]) as one
    /// batch, which no word-length configuration changes.
    stems: Tensor3,
    labels: Vec<usize>,
    /// Integer bits per site, sized from calibration activations.
    integer_bits: [i32; NUM_INJECTION_SITES],
    /// Kept site inputs a simulation resumes from, keyed by effective
    /// word-lengths; a clone starts with none.
    pub(crate) checkpoints: SiteStore,
}

impl QuantizedNetBenchmark {
    /// Builds the benchmark with `num_images` evaluation images of
    /// `size × size` pixels; weights, images and calibration all derive
    /// from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `num_images == 0` or `size < 8`.
    pub fn new(num_images: usize, size: usize, seed: u64) -> QuantizedNetBenchmark {
        QuantizedNetBenchmark::new_on(num_images, size, seed, parallel::threads())
    }

    /// [`QuantizedNetBenchmark::new`] on `threads` threads (see
    /// [`QuantizedNetBenchmark::calibrate`]); the instance does not depend
    /// on `threads`.
    pub(crate) fn new_on(
        num_images: usize,
        size: usize,
        seed: u64,
        threads: usize,
    ) -> QuantizedNetBenchmark {
        assert!(size >= 8, "images must be at least 8x8");
        assert!(num_images > 0, "need at least one image");
        let net = MiniSqueezeNet::seeded_on(seed, threads);
        let (stems, labels, max_abs) = QuantizedNetBenchmark::calibrate(
            &net,
            &dataset::gratings(num_images, seed.wrapping_add(1)),
            &dataset::gratings(16, seed.wrapping_add(2)),
            size,
            threads,
        );
        let mut integer_bits = [0i32; NUM_INJECTION_SITES];
        for (bits, &peak) in integer_bits.iter_mut().zip(&max_abs) {
            // 25 % headroom over the observed peak, at least Q0.
            *bits = krigeval_fixedpoint::Interval::symmetric(peak * 1.25).integer_bits();
        }
        let checkpoints = checkpoint::site_store(&net, &stems, false);
        QuantizedNetBenchmark {
            net,
            stems,
            labels,
            integer_bits,
            checkpoints,
        }
    }

    /// The stems and labels of the evaluation images `images`, and the
    /// dynamic-range calibration: each site's max |activation| over the
    /// calibration images `calibration`. One scope of `threads` threads
    /// each renders and runs a contiguous range of either set. Every
    /// image's stem, label and activations are independent of the other
    /// images', the ranges are joined in image order and the maxima
    /// reduce by `max`, so nothing depends on `threads`.
    fn calibrate(
        net: &MiniSqueezeNet,
        images: &[ImageGratings],
        calibration: &[ImageGratings],
        size: usize,
        threads: usize,
    ) -> (Tensor3, Vec<usize>, [f64; NUM_INJECTION_SITES]) {
        let ranges = parallel::ranges(images.len(), threads);
        let parts = ranges.len();
        let inputs = ranges
            .into_iter()
            .enumerate()
            .map(|(part, range)| (range, parallel::range(calibration.len(), parts, part)))
            .collect();
        let results = parallel::map(inputs, |(range, calibration_range)| {
            let stems_and_labels = net.stems_and_labels(&dataset::render(&images[range], size));
            let mut peaks = RangeHook {
                max_abs: [0.0; NUM_INJECTION_SITES],
            };
            if !calibration_range.is_empty() {
                let calibration = dataset::render(&calibration[calibration_range], size);
                net.forward_with(&Tensor3::stack(&calibration), &mut peaks);
            }
            (stems_and_labels, peaks.max_abs)
        });
        let mut max_abs = [0.0f64; NUM_INJECTION_SITES];
        let mut stems = Vec::with_capacity(parts);
        let mut labels = Vec::with_capacity(images.len());
        for ((part_stems, part_labels), part_max) in results {
            stems.push(part_stems);
            labels.extend(part_labels);
            for (m, v) in max_abs.iter_mut().zip(part_max) {
                *m = m.max(v);
            }
        }
        (Tensor3::stack(&stems), labels, max_abs)
    }

    /// Number of word-length variables (10 activation registers).
    pub fn num_variables(&self) -> usize {
        NUM_INJECTION_SITES
    }

    /// Number of evaluation images.
    pub fn num_images(&self) -> usize {
        self.stems.images()
    }

    /// Calibrated integer bits per site.
    pub fn integer_bits(&self) -> &[i32; NUM_INJECTION_SITES] {
        &self.integer_bits
    }

    /// Evaluates `p_cl` when each site's activations are quantized to the
    /// given total word-lengths.
    ///
    /// # Errors
    ///
    /// * [`NeuralError::WrongSourceCount`] on a wrong-length vector.
    /// * [`NeuralError::InvalidWordLength`] if a word-length is outside
    ///   `2..=32` or gives no valid format for the site's integer bits.
    pub fn classification_rate(&self, word_lengths: &[i32]) -> Result<f64, NeuralError> {
        Ok(agreement_rate(
            &self.image_logits(word_lengths)?,
            &self.labels,
        ))
    }

    /// The logits of every evaluation image under the word-length
    /// configuration `word_lengths`, in image order — the raw outputs
    /// [`QuantizedNetBenchmark::classification_rate`] is computed from.
    ///
    /// # Errors
    ///
    /// As [`QuantizedNetBenchmark::classification_rate`].
    pub fn image_logits(&self, word_lengths: &[i32]) -> Result<Vec<Vec<f64>>, NeuralError> {
        let (quantizers, config) = self.quantizers(word_lengths)?;
        Ok(checkpoint::simulate(
            &self.checkpoints,
            &self.net,
            &self.stems,
            &config,
            |_| QuantizeHook {
                quantizers: &quantizers,
            },
        ))
    }

    /// Each site's quantizer for `word_lengths`, and the store key words:
    /// the word-length each site quantizes to, after clamping to `ib + 2`.
    pub(crate) fn quantizers(
        &self,
        word_lengths: &[i32],
    ) -> Result<(Vec<Quantizer>, [u64; NUM_INJECTION_SITES]), NeuralError> {
        if word_lengths.len() != NUM_INJECTION_SITES {
            return Err(NeuralError::WrongSourceCount {
                expected: NUM_INJECTION_SITES,
                actual: word_lengths.len(),
            });
        }
        let mut quantizers = Vec::with_capacity(NUM_INJECTION_SITES);
        let mut config = [0u64; NUM_INJECTION_SITES];
        for (site, (&w, &ib)) in word_lengths.iter().zip(&self.integer_bits).enumerate() {
            let invalid = NeuralError::InvalidWordLength {
                index: site,
                word_length: w,
            };
            if !(2..=32).contains(&w) {
                return Err(invalid);
            }
            let effective = w.max(ib + 2);
            let format = QFormat::with_word_length(ib, effective).map_err(|_| invalid)?;
            quantizers.push(Quantizer::new(format));
            config[site] = u64::from(effective.unsigned_abs());
        }
        Ok((quantizers, config))
    }

    /// How this instance's simulations started: full passes, and passes
    /// resumed per site.
    pub fn resume_stats(&self) -> ResumeStats {
        self.checkpoints.stats()
    }
}

struct RangeHook {
    max_abs: [f64; NUM_INJECTION_SITES],
}

impl SiteHook for RangeHook {
    fn site(&mut self, site: usize, batch: &mut Tensor3) {
        for &v in batch.as_slice() {
            self.max_abs[site] = self.max_abs[site].max(v.abs());
        }
    }
}

struct QuantizeHook<'a> {
    quantizers: &'a [Quantizer],
}

impl SiteHook for QuantizeHook<'_> {
    fn site(&mut self, site: usize, batch: &mut Tensor3) {
        self.quantizers[site].quantize_in_place(batch.as_mut_slice());
    }
}

impl ResumableHook for QuantizeHook<'_> {
    fn cursors(&self) -> &[usize] {
        &[]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::tests::serial_synthetic_images;
    use crate::synthetic_images;

    fn small() -> QuantizedNetBenchmark {
        QuantizedNetBenchmark::new(32, 12, 0xBEE5)
    }

    #[test]
    fn wide_word_lengths_are_near_exact() {
        let b = small();
        assert!(b.classification_rate(&[20; 10]).unwrap() > 0.95);
    }

    #[test]
    fn rate_degrades_with_narrow_word_lengths() {
        let b = small();
        let wide = b.classification_rate(&[16; 10]).unwrap();
        let mid = b.classification_rate(&[8; 10]).unwrap();
        let narrow = b.classification_rate(&[3; 10]).unwrap();
        assert!(wide >= mid, "wide {wide} < mid {mid}");
        assert!(mid >= narrow, "mid {mid} < narrow {narrow}");
        assert!(narrow < wide, "no degradation observed");
    }

    #[test]
    fn integer_bits_cover_observed_ranges() {
        let b = small();
        // Every calibrated site must have a workable format.
        for &ib in b.integer_bits() {
            assert!((0..=12).contains(&ib), "integer bits {ib} out of range");
        }
    }

    #[test]
    fn validates_inputs() {
        let b = small();
        assert!(b.classification_rate(&[8; 9]).is_err());
        let mut w = [8; 10];
        w[0] = 1;
        assert_eq!(
            b.classification_rate(&w).unwrap_err(),
            NeuralError::InvalidWordLength {
                index: 0,
                word_length: 1
            }
        );
        w[0] = 8;
        w[6] = 40;
        assert_eq!(
            b.classification_rate(&w).unwrap_err(),
            NeuralError::InvalidWordLength {
                index: 6,
                word_length: 40
            }
        );
    }

    #[test]
    fn deterministic() {
        let b = small();
        let w = [7, 8, 9, 10, 7, 8, 9, 10, 7, 8];
        assert_eq!(
            b.classification_rate(&w).unwrap(),
            b.classification_rate(&w).unwrap()
        );
    }

    #[test]
    fn reference_hook_reproduces_clean_labels() {
        let b = small();
        let images = Tensor3::stack(&synthetic_images(32, 12, 0xBEE5 + 1));
        assert_eq!(b.net.classify(&images), b.labels);
    }

    /// The serial calibration the parallel one replaced: the stems and
    /// labels of one batch of every evaluation image, then the range
    /// maxima over one batch of the 16 calibration images.
    fn serial_calibration(net: &MiniSqueezeNet, n: usize, size: usize, seed: u64) -> Vec<Vec<u64>> {
        let (stems, labels) =
            net.stems_and_labels(&serial_synthetic_images(n, size, seed.wrapping_add(1)));
        let calibration = serial_synthetic_images(16, size, seed.wrapping_add(2));
        let mut ranges = RangeHook {
            max_abs: [0.0; NUM_INJECTION_SITES],
        };
        net.forward_with(&Tensor3::stack(&calibration), &mut ranges);
        calibration_bits(&stems, &labels, &ranges.max_abs)
    }

    fn calibration_bits(stems: &Tensor3, labels: &[usize], max_abs: &[f64]) -> Vec<Vec<u64>> {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        vec![
            bits(stems.as_slice()),
            labels.iter().map(|&l| l as u64).collect(),
            bits(max_abs),
        ]
    }

    #[test]
    fn parallel_calibration_is_the_serial_one_bit_for_bit() {
        for (n, size) in [(5, 12), (7, 9), (48, 12)] {
            let seed = 0xBEE5;
            let net = MiniSqueezeNet::seeded_on(seed, 1);
            let serial = serial_calibration(&net, n, size, seed);
            let images = dataset::gratings(n, seed + 1);
            let calibration = dataset::gratings(16, seed + 2);
            for threads in 1..=3 {
                let (stems, labels, max_abs) =
                    QuantizedNetBenchmark::calibrate(&net, &images, &calibration, size, threads);
                let built = calibration_bits(&stems, &labels, &max_abs);
                for (what, (a, b)) in ["stems", "labels", "range maxima"]
                    .iter()
                    .zip(built.iter().zip(&serial))
                {
                    assert!(
                        a == b,
                        "{what}: {n} images of {size}x{size}, {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_logits_are_the_batch_of_one_logits() {
        let b = small();
        let configs = [
            [16; NUM_INJECTION_SITES],
            [7, 8, 9, 10, 7, 8, 9, 10, 7, 8],
            // At or below every calibrated `ib + 2`: each site quantizes
            // to `ib + 2`.
            [2; NUM_INJECTION_SITES],
            [2, 12, 2, 12, 2, 12, 2, 12, 2, 12],
        ];
        for words in configs {
            let (quantizers, effective) = b.quantizers(&words).unwrap();
            for (site, (&w, &e)) in words.iter().zip(&effective).enumerate() {
                if w == 2 {
                    assert_eq!(e, u64::from((b.integer_bits[site] + 2).unsigned_abs()));
                }
            }
            let batched = b.image_logits(&words).unwrap();
            assert_eq!(batched.len(), b.num_images());
            for (i, logits) in batched.iter().enumerate() {
                let mut hook = QuantizeHook {
                    quantizers: &quantizers,
                };
                let single = b.net.forward_at(0, b.stems.image(i), &mut hook);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(logits),
                    bits(single.as_slice()),
                    "{words:?}, image {i}"
                );
            }
        }
    }
}
