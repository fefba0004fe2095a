//! The error-sensitivity benchmark: classification rate vs injected error.

use krigeval_fixedpoint::ResumeStats;

use crate::checkpoint::{self, SiteStore};
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
/// configuration is computed once at construction: the
/// [`MiniSqueezeNet::stem`] batch of every image and each image's noise
/// sequence. A simulation runs every image as one batch, and resumes at
/// the deepest site whose input batch the instance has kept for an equal
/// configuration prefix (see [`SensitivityBenchmark::resume_stats`]), with
/// the same bits as a full pass. A clone starts with no kept inputs.
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
    /// Every image's conv1 + ReLU output, as one batch.
    stems: Tensor3,
    /// Each image's noise sequence, in the batch layout: draw `k` of image
    /// `i` at `k · num_images + i`.
    noise: Vec<f64>,
    labels: Vec<usize>,
    pub(crate) checkpoints: SiteStore,
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
        let mut noise = vec![0.0; draws * num_images];
        for i in 0..num_images {
            let stream = net.noise_stream(i as u64, draws);
            for (z, v) in noise[i..].iter_mut().step_by(num_images).zip(stream) {
                *z = v;
            }
        }
        let (stems, labels) = net.stems_and_labels(&images);
        SensitivityBenchmark {
            net,
            stems,
            noise,
            labels,
            checkpoints: checkpoint::site_store(),
        }
    }

    /// Number of error sources (`Nv = 10`).
    pub fn num_sources(&self) -> usize {
        NUM_INJECTION_SITES
    }

    /// Number of images in the evaluation set.
    pub fn num_images(&self) -> usize {
        self.stems.images()
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
        Ok(checkpoint::simulate(
            &self.checkpoints,
            &self.net,
            &self.stems,
            &config,
            |cursors| {
                let cursors = cursors.map_or_else(|| vec![0; self.num_images()], <[_]>::to_vec);
                NoiseHook::new(powers_db, &self.noise, cursors)
            },
        ))
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
        let n = self.num_images();
        for &i in images {
            for v in self.stems.as_mut_slice()[i..].iter_mut().step_by(n) {
                *v = 0.0;
            }
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::ResumableHook;

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

    /// Image `i`'s logits from a pass over it alone: a batch of one that
    /// reads its own noise sequence from the start.
    fn batch_of_one_logits(b: &SensitivityBenchmark, powers: &[f64], i: usize) -> Vec<f64> {
        let stream: Vec<f64> = b.noise[i..]
            .iter()
            .step_by(b.num_images())
            .copied()
            .collect();
        let mut hook = NoiseHook::new(powers, &stream, vec![0]);
        b.net.forward_at(0, b.stems.image(i), &mut hook).into_vec()
    }

    /// Images 1 and 4 have all-zero stems: σ is 0 for them at sites 0 and
    /// 1, so they draw nothing there and their cursors lag from site 2 on.
    fn with_blanks() -> SensitivityBenchmark {
        SensitivityBenchmark::new(6, 12, 0x0C4E_C4B7).with_blank_stems(&[1, 4])
    }

    #[test]
    fn batched_logits_are_the_batch_of_one_logits() {
        let b = with_blanks();
        let configs: [Vec<f64>; 4] = [
            vec![-26.0; 10],
            (0..10)
                .map(|s| if s % 3 == 0 { f64::NEG_INFINITY } else { -14.0 })
                .collect(),
            // σ = 10^(−350)·rms underflows to 0 at sites 1, 5 and 9.
            (0..10)
                .map(|s| if s % 4 == 1 { -7000.0 } else { -20.0 })
                .collect(),
            vec![f64::NEG_INFINITY; 10],
        ];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for powers in &configs {
            // The second pass resumes at the logits register.
            for _ in 0..2 {
                let batched = b.image_logits(powers).unwrap();
                for (i, logits) in batched.iter().enumerate() {
                    let single = batch_of_one_logits(&b, powers, i);
                    assert_eq!(bits(logits), bits(&single), "{powers:?}, image {i}");
                }
            }
        }
    }

    #[test]
    fn an_image_whose_sigma_is_zero_draws_nothing() {
        let b = with_blanks();
        let n = b.num_images();
        let powers = [-20.0; 10];
        let mut hook = NoiseHook::new(&powers, &b.noise, vec![0; n]);
        b.net.forward_at(0, b.stems.clone(), &mut hook);
        let draws = b.net.noise_draws(&b.stems);
        let skipped = (b.stems.len() + crate::max_pool2(&b.stems).len()) / n;
        for (i, &cursor) in hook.cursors().iter().enumerate() {
            let expected = if i == 1 || i == 4 {
                draws - skipped
            } else {
                draws
            };
            assert_eq!(cursor, expected, "image {i}");
        }

        // So a blank image's logits are those with sites 0 and 1 disabled.
        let mut quiet = powers;
        quiet[..2].fill(f64::NEG_INFINITY);
        let (loud, quiet) = (
            b.image_logits(&powers).unwrap(),
            b.image_logits(&quiet).unwrap(),
        );
        for i in 0..n {
            assert_eq!(loud[i] == quiet[i], i == 1 || i == 4, "image {i}");
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
