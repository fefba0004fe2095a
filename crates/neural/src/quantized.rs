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

use krigeval_fixedpoint::{QFormat, Quantizer};

use crate::checkpoint::{CheckpointStore, ResumableHook, ResumeStats};
use crate::net::{agreement_rate, SiteHook, NUM_INJECTION_SITES};
use crate::{synthetic_images, MiniSqueezeNet, NeuralError, Tensor3};

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
    /// Each image's conv1 + ReLU output ([`MiniSqueezeNet::stem`]), which
    /// no word-length configuration changes.
    stems: Vec<Tensor3>,
    labels: Vec<usize>,
    /// Integer bits per site, sized from calibration activations.
    integer_bits: [i32; NUM_INJECTION_SITES],
    /// Kept site inputs a simulation resumes from, keyed by effective
    /// word-lengths; a clone starts with none.
    pub(crate) checkpoints: CheckpointStore,
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
        assert!(size >= 8, "images must be at least 8x8");
        let net = MiniSqueezeNet::seeded(seed);
        let (stems, labels) =
            net.stems_and_labels(&synthetic_images(num_images, size, seed.wrapping_add(1)));

        // Dynamic-range calibration: record each site's max |activation|
        // over a small calibration set and derive the integer bits.
        let calibration = synthetic_images(16, size, seed.wrapping_add(2));
        let mut ranges = RangeHook {
            max_abs: [0.0; NUM_INJECTION_SITES],
        };
        for img in &calibration {
            net.forward_with(img, &mut ranges);
        }
        let mut integer_bits = [0i32; NUM_INJECTION_SITES];
        for (bits, &peak) in integer_bits.iter_mut().zip(&ranges.max_abs) {
            // 25 % headroom over the observed peak, at least Q0.
            *bits = krigeval_fixedpoint::Interval::symmetric(peak * 1.25).integer_bits();
        }
        QuantizedNetBenchmark {
            net,
            stems,
            labels,
            integer_bits,
            checkpoints: CheckpointStore::new(),
        }
    }

    /// Number of word-length variables (10 activation registers).
    pub fn num_variables(&self) -> usize {
        NUM_INJECTION_SITES
    }

    /// Number of evaluation images.
    pub fn num_images(&self) -> usize {
        self.stems.len()
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
        if word_lengths.len() != NUM_INJECTION_SITES {
            return Err(NeuralError::WrongSourceCount {
                expected: NUM_INJECTION_SITES,
                actual: word_lengths.len(),
            });
        }
        let mut quantizers = Vec::with_capacity(NUM_INJECTION_SITES);
        // Keyed by the word-length each site quantizes to, after clamping.
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
        Ok(self
            .checkpoints
            .simulate(&self.net, &self.stems, &config, |_, _| QuantizeHook {
                quantizers: &quantizers,
            }))
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
    fn tensor(&mut self, site: usize, t: &mut Tensor3) {
        for &v in t.as_slice() {
            self.max_abs[site] = self.max_abs[site].max(v.abs());
        }
    }

    fn vector(&mut self, site: usize, v: &mut [f64]) {
        for &x in v.iter() {
            self.max_abs[site] = self.max_abs[site].max(x.abs());
        }
    }
}

struct QuantizeHook<'a> {
    quantizers: &'a [Quantizer],
}

impl SiteHook for QuantizeHook<'_> {
    fn tensor(&mut self, site: usize, t: &mut Tensor3) {
        self.quantizers[site].quantize_in_place(t.as_mut_slice());
    }

    fn vector(&mut self, site: usize, v: &mut [f64]) {
        self.quantizers[site].quantize_in_place(v);
    }
}

impl ResumableHook for QuantizeHook<'_> {
    fn cursor(&self) -> Option<usize> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut agree = 0;
        let images = synthetic_images(32, 12, 0xBEE5 + 1);
        for (img, &label) in images.iter().zip(&b.labels) {
            let logits = b.net.forward_with(img, &mut crate::NoopHook);
            if crate::argmax(&logits) == label {
                agree += 1;
            }
        }
        assert_eq!(agree, b.num_images());
    }
}
