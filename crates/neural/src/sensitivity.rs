//! The error-sensitivity benchmark: classification rate vs injected error.

use crate::checkpoint::{CheckpointStore, ResumeStats};
use crate::net::{agreement_rate, NoiseHook, NUM_INJECTION_SITES};
use crate::{synthetic_images, MiniSqueezeNet, NeuralError, Tensor3};

/// The paper's SqueezeNet benchmark: `p_cl(e)`, the probability that the
/// network classifies an image identically to the error-free reference when
/// additive error sources with powers `e` (in dB) are active at each of the
/// ten layer outputs.
///
/// The optimization problem (paper Section IV, solved with the
/// steepest-descent budgeting algorithm of ref \[22\]) *maximizes* the
/// tolerated error powers subject to `p_cl ≥ p_min`.
///
/// Everything a simulation repeats that does not depend on the
/// configuration is computed once at construction: each image's
/// [`MiniSqueezeNet::stem`] output and its noise sequence. A simulation
/// resumes at the deepest site whose inputs the instance has kept for an
/// equal configuration prefix (see [`SensitivityBenchmark::resume_stats`]),
/// with the same bits as a full pass. A clone starts with no kept inputs.
///
/// # Examples
///
/// ```
/// use krigeval_neural::SensitivityBenchmark;
///
/// # fn main() -> Result<(), krigeval_neural::NeuralError> {
/// let b = SensitivityBenchmark::new(32, 12, 7);
/// let quiet = b.classification_rate(&vec![-60.0; 10])?;
/// let loud = b.classification_rate(&vec![5.0; 10])?;
/// assert!(quiet >= loud);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SensitivityBenchmark {
    net: MiniSqueezeNet,
    /// Each image's conv1 + ReLU output.
    stems: Vec<Tensor3>,
    /// Each image's noise sequence, `draws` values per image, back to back.
    noise: Vec<f64>,
    draws: usize,
    labels: Vec<usize>,
    pub(crate) checkpoints: CheckpointStore,
}

impl SensitivityBenchmark {
    /// Paper-faithful configuration: 1000 synthetic 16×16 images.
    pub fn with_defaults() -> SensitivityBenchmark {
        SensitivityBenchmark::new(1000, 16, 0x59EE_2E05)
    }

    /// Builds the benchmark with `num_images` images of `size × size`
    /// pixels; network weights, images and noise draws all derive from
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `num_images == 0` or `size < 8`.
    pub fn new(num_images: usize, size: usize, seed: u64) -> SensitivityBenchmark {
        assert!(size >= 8, "images must be at least 8x8");
        let net = MiniSqueezeNet::seeded(seed);
        let images = synthetic_images(num_images, size, seed.wrapping_add(1));
        let draws = net.noise_draws(&images[0]);
        let noise = (0..num_images as u64)
            .flat_map(|i| net.noise_stream(i, draws))
            .collect();
        let (stems, labels) = net.stems_and_labels(&images);
        SensitivityBenchmark {
            net,
            stems,
            noise,
            draws,
            labels,
            checkpoints: CheckpointStore::new(),
        }
    }

    /// Number of error sources (`Nv = 10`).
    pub fn num_sources(&self) -> usize {
        NUM_INJECTION_SITES
    }

    /// Number of images in the evaluation set.
    pub fn num_images(&self) -> usize {
        self.stems.len()
    }

    /// Reference labels (the clean network's own classifications).
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Evaluates `p_cl` for the error-power configuration `powers_db`
    /// (dB per source; `−∞` disables a source).
    ///
    /// # Errors
    ///
    /// * [`NeuralError::WrongSourceCount`] on a wrong-length vector.
    /// * [`NeuralError::InvalidPower`] on NaN or `+∞` powers.
    pub fn classification_rate(&self, powers_db: &[f64]) -> Result<f64, NeuralError> {
        Ok(agreement_rate(&self.image_logits(powers_db)?, &self.labels))
    }

    /// The logits of every evaluation image under the error-power
    /// configuration `powers_db`, in image order — the raw outputs
    /// [`SensitivityBenchmark::classification_rate`] is computed from.
    /// Image `i` is [`MiniSqueezeNet::classify_with_injection`] with image
    /// index `i`, bit for bit.
    ///
    /// # Errors
    ///
    /// As [`SensitivityBenchmark::classification_rate`].
    pub fn image_logits(&self, powers_db: &[f64]) -> Result<Vec<Vec<f64>>, NeuralError> {
        if powers_db.len() != NUM_INJECTION_SITES {
            return Err(NeuralError::WrongSourceCount {
                expected: NUM_INJECTION_SITES,
                actual: powers_db.len(),
            });
        }
        for (index, &p) in powers_db.iter().enumerate() {
            if p.is_nan() || p == f64::INFINITY {
                return Err(NeuralError::InvalidPower { index, power_db: p });
            }
        }
        let config: Vec<u64> = powers_db.iter().map(|p| p.to_bits()).collect();
        Ok(self
            .checkpoints
            .simulate(&self.net, &self.stems, &config, |image, cursor| {
                let stream = &self.noise[image * self.draws..][..self.draws];
                NoiseHook::new(powers_db, stream, cursor)
            }))
    }

    /// How this instance's simulations started: full passes, and passes
    /// resumed per site.
    pub fn resume_stats(&self) -> ResumeStats {
        self.checkpoints.stats()
    }

    /// Zeroes the stems of `images`, so their site-0 and site-1
    /// activations are all zero and draw no noise at any power.
    #[cfg(test)]
    pub(crate) fn with_blank_stems(mut self, images: &[usize]) -> SensitivityBenchmark {
        for &i in images {
            let (c, h, w) = self.stems[i].shape();
            self.stems[i] = Tensor3::zeros(c, h, w);
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SensitivityBenchmark {
        SensitivityBenchmark::new(48, 12, 0x59EE_3E05)
    }

    #[test]
    fn silent_sources_give_perfect_agreement() {
        let b = small();
        let p = b.classification_rate(&[f64::NEG_INFINITY; 10]).unwrap();
        assert_eq!(p, 1.0);
    }

    #[test]
    fn rate_degrades_monotonically_in_expectation() {
        let b = small();
        let quiet = b.classification_rate(&[-60.0; 10]).unwrap();
        let medium = b.classification_rate(&[-15.0; 10]).unwrap();
        let loud = b.classification_rate(&[10.0; 10]).unwrap();
        assert!(quiet >= medium, "quiet {quiet} < medium {medium}");
        assert!(medium >= loud, "medium {medium} < loud {loud}");
        assert!(quiet > 0.95, "quiet rate {quiet} too low");
        assert!(loud < 0.9, "loud rate {loud} suspiciously high");
    }

    #[test]
    fn rate_is_deterministic() {
        let b = small();
        let powers = [-20.0; 10];
        assert_eq!(
            b.classification_rate(&powers).unwrap(),
            b.classification_rate(&powers).unwrap()
        );
    }

    #[test]
    fn cached_stems_and_streams_match_classify_with_injection() {
        let b = small();
        let images = synthetic_images(48, 12, 0x59EE_3E05u64.wrapping_add(1));
        let mut powers = [-14.0; 10];
        powers[2] = f64::NEG_INFINITY;
        let logits = b.image_logits(&powers).unwrap();
        for (i, (img, l)) in images.iter().zip(&logits).enumerate() {
            let (_, direct) = b.net.classify_with_injection(img, &powers, i as u64);
            assert_eq!(&direct, l, "image {i}");
        }
    }

    #[test]
    fn wrong_count_rejected() {
        let b = small();
        assert!(matches!(
            b.classification_rate(&[0.0; 9]).unwrap_err(),
            NeuralError::WrongSourceCount { .. }
        ));
    }

    #[test]
    fn invalid_power_rejected() {
        let b = small();
        let mut p = [-20.0; 10];
        p[3] = f64::INFINITY;
        assert!(matches!(
            b.classification_rate(&p).unwrap_err(),
            NeuralError::InvalidPower { index: 3, .. }
        ));
    }

    #[test]
    fn per_source_sensitivity_differs() {
        // The whole point of sensitivity analysis: some layers tolerate more
        // error than others. Turning one source up at a time must not give
        // identical rates for all sites.
        let b = small();
        let mut rates = Vec::new();
        for site in 0..10 {
            let mut p = [f64::NEG_INFINITY; 10];
            p[site] = -10.0;
            rates.push(b.classification_rate(&p).unwrap());
        }
        let min = rates.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = rates.iter().cloned().fold(0.0f64, f64::max);
        assert!(max > min, "all sites equally sensitive: {rates:?}");
    }

    #[test]
    fn labels_match_clean_classification() {
        let b = small();
        // p_cl of the zero-noise config must be 1 by construction (labels
        // are defined as the clean argmax).
        assert_eq!(b.labels().len(), b.num_images());
    }
}
