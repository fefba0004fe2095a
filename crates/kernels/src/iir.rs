//! 8th-order IIR benchmark (paper Table I, `Nv = 5`).
//!
//! The filter is a cascade of four Butterworth biquads. Five word-lengths
//! are optimized, matching the paper's variable count:
//!
//! * variables 0–3: the internal accumulator/output word-length of each
//!   biquad section (one per section — in a cascade realization each
//!   section's output register is the natural quantization site);
//! * variable 4: the word-length of the final output register.
//!
//! Recursive structures accumulate and *recirculate* quantization noise, so
//! this benchmark exhibits the strongest coupling between variables — the
//! paper observes that its interpolable fraction is the lowest of the large
//! benchmarks.
//!
//! A simulation resumes from a stored stream: the input stream of section
//! `k ≥ 1` (stage `k`; the last stage is the cascade output before the
//! output register) depends on the data and the word-lengths `w[..k]` of
//! the sections before it alone, and each section's recursion starts from
//! zero state at the first sample.

use krigeval_fixedpoint::{NoiseMeter, NoisePower, QFormat, Quantizer, ResumeStats};

use crate::filter_design::{butterworth_lowpass, Biquad};
use crate::resume::{self, StateStore, STAGE_STATE_BYTES};
use crate::signal::white_noise;
use crate::{KernelError, WordLengthBenchmark};

/// The 8th-order cascaded-biquad IIR benchmark.
///
/// # Examples
///
/// ```
/// use krigeval_kernels::{iir::IirBenchmark, WordLengthBenchmark};
///
/// # fn main() -> Result<(), krigeval_kernels::KernelError> {
/// let iir = IirBenchmark::with_defaults();
/// assert_eq!(iir.num_variables(), 5);
/// let p = iir.noise_power(&[12, 12, 12, 12, 12])?;
/// assert!(p.db() < -30.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct IirBenchmark {
    sections: Vec<Biquad>,
    input: Vec<f64>,
    reference: Vec<f64>,
    /// The input stream of section `k ≥ 1` for recently simulated
    /// prefixes `w[..k]`; a clone starts with none.
    states: StateStore<f64>,
}

impl IirBenchmark {
    /// Paper-faithful configuration: 8th-order Butterworth low-pass at
    /// cutoff 0.1, 4096 white-noise samples from a fixed seed.
    pub fn with_defaults() -> IirBenchmark {
        IirBenchmark::new(8, 0.1, 4096, 0x11E8_0002)
    }

    /// Builds an IIR benchmark of even `order` with `samples` white-noise
    /// input samples from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `order` is zero or odd, `cutoff` is outside `(0, 0.5)`, or
    /// `samples == 0`.
    pub fn new(order: usize, cutoff: f64, samples: usize, seed: u64) -> IirBenchmark {
        assert!(samples > 0, "need at least one input sample");
        let sections = butterworth_lowpass(order, cutoff);
        let input = white_noise(seed, samples, 0.95);
        let mut reference = input.clone();
        for s in &sections {
            reference = s.filter(&reference);
        }
        IirBenchmark {
            states: StateStore::new(sections.len() + 1, STAGE_STATE_BYTES),
            sections,
            input,
            reference,
        }
    }

    /// The biquad sections of the cascade.
    pub fn sections(&self) -> &[Biquad] {
        &self.sections
    }
}

impl WordLengthBenchmark for IirBenchmark {
    fn name(&self) -> &str {
        "iir8"
    }

    fn num_variables(&self) -> usize {
        self.sections.len() + 1
    }

    fn noise_power(&self, word_lengths: &[i32]) -> Result<NoisePower, KernelError> {
        self.validate(word_lengths)?;
        // Butterworth low-pass sections have bounded gain; 2 integer bits of
        // headroom cover the transient peaking of early sections.
        let section_q: Vec<Quantizer> = word_lengths[..self.sections.len()]
            .iter()
            .map(|&w| Ok(Quantizer::new(QFormat::with_word_length(2, w)?)))
            .collect::<Result<_, KernelError>>()?;
        let out_q = Quantizer::new(QFormat::with_word_length(
            0,
            word_lengths[self.sections.len()],
        )?);

        // Start at the deepest stored stream of a prefix of the word-lengths.
        let sections = self.sections.len();
        let mut key = Vec::with_capacity(sections + 1);
        let resume = (1..=sections)
            .rev()
            .find_map(|k| Some((k, self.states.get(stage_key(k, word_lengths, &mut key))?)));
        let start = resume.as_ref().map_or(0, |(k, _)| *k);
        self.states.count_start(start);
        let input = resume.as_ref().map_or(&self.input, |(_, stream)| stream);
        // The input streams of the sections after the first one run,
        // written by index: a push per sample and section cost a third of
        // a full pass.
        let mut captures: Vec<Vec<f64>> =
            (start..sections).map(|_| vec![0.0; input.len()]).collect();

        // Direct-form-I state per section, all quantized at the section's
        // output register (the classic cascade realization). Sample by
        // sample, so the sections' recursions overlap.
        let mut x1 = vec![0.0; sections];
        let mut x2 = vec![0.0; sections];
        let mut y1 = vec![0.0; sections];
        let mut y2 = vec![0.0; sections];

        let mut meter = NoiseMeter::new();
        for (n, &sample) in input.iter().enumerate() {
            let mut v = sample;
            for (i, capture) in (start..sections).zip(&mut captures) {
                let s = &self.sections[i];
                let y =
                    s.b[0] * v + s.b[1] * x1[i] + s.b[2] * x2[i] - s.a[0] * y1[i] - s.a[1] * y2[i];
                let y = section_q[i].quantize(y);
                x2[i] = x1[i];
                x1[i] = v;
                y2[i] = y1[i];
                y1[i] = y;
                v = y;
                capture[n] = v;
            }
            let out = out_q.quantize(v);
            meter.record(self.reference[n], out);
        }
        for (k, capture) in (start + 1..).zip(captures) {
            self.states
                .insert(stage_key(k, word_lengths, &mut key), capture);
        }
        Ok(meter.noise_power())
    }

    fn resume_stats(&self) -> Option<ResumeStats> {
        Some(self.states.stats())
    }
}

/// The store key of section `k`'s input stream: `k`, then the word-lengths
/// of the sections before it.
fn stage_key<'a>(k: usize, word_lengths: &[i32], key: &'a mut Vec<u64>) -> &'a [u64] {
    key.clear();
    key.push(k as u64);
    key.extend(word_lengths[..k].iter().map(|&w| resume::word(w)));
    key
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::resume::testing::{bits, full_bits, two_threads_share, word_length_stream};

    fn small() -> IirBenchmark {
        IirBenchmark::new(8, 0.1, 1024, 0x11E8_0002)
    }

    /// Short streams keep the replays quick.
    fn short() -> IirBenchmark {
        IirBenchmark::new(8, 0.1, 200, 0x11E8_0002)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn resumed_passes_keep_every_bit(seed in 0u64..u64::MAX) {
            let b = short();
            for w in word_length_stream(seed, 5, 24) {
                prop_assert_eq!(bits(&b, &w), full_bits(&b, &w), "{:?}", w);
            }
            prop_assert!(b.resume_stats().unwrap().resumed() > 0);
        }
    }

    #[test]
    fn a_single_site_change_resumes_at_its_section() {
        let b = short();
        let w = [9; 5];
        b.noise_power(&w).unwrap();
        for site in 0..5 {
            // The output register (site 4) reads the cascade output.
            let start = site.min(4);
            let before = b.resume_stats().unwrap().started_at[start];
            let mut changed = w;
            changed[site] += 1;
            b.noise_power(&changed).unwrap();
            assert_eq!(b.resume_stats().unwrap().started_at[start], before + 1);
        }
    }

    #[test]
    fn two_threads_share_one_instance() {
        let b = short();
        let stats = two_threads_share(&b, &word_length_stream(21, 5, 16), 4);
        assert_eq!(stats.simulations(), 32);
        assert!(stats.resumed() > 0);
    }

    #[test]
    fn a_cap_below_every_entry_falls_back_to_full_passes() {
        // The smallest entry: section 1's stream under a two-word key.
        let smallest = 2 * 8 + 200 * 8;
        for cap in [0, smallest - 1] {
            let mut b = short();
            b.states = StateStore::new(5, cap);
            for w in word_length_stream(7, 5, 16) {
                assert_eq!(bits(&b, &w), full_bits(&b, &w), "cap {cap}");
                assert_eq!(b.states.bytes(), 0, "cap {cap}");
            }
            assert_eq!(b.resume_stats().unwrap().resumed(), 0, "cap {cap}");
        }
    }

    #[test]
    fn the_store_never_exceeds_its_cap() {
        // About two configurations' worth of streams.
        let cap = 2 * 4 * (200 * 8 + 40);
        let mut b = short();
        b.states = StateStore::new(5, cap);
        let mut peak = 0;
        for w in word_length_stream(11, 5, 60) {
            b.noise_power(&w).unwrap();
            peak = peak.max(b.states.bytes());
            assert!(b.states.bytes() <= cap);
        }
        assert!(peak > cap / 2, "the stream never filled the store: {peak}");
        assert!(b.resume_stats().unwrap().resumed() > 0);
    }

    #[test]
    fn has_five_variables() {
        assert_eq!(small().num_variables(), 5);
    }

    #[test]
    fn validates_shape_and_range() {
        let b = small();
        assert!(b.noise_power(&[8; 4]).is_err());
        assert!(b.noise_power(&[8, 8, 8, 8, 1]).is_err());
    }

    #[test]
    fn noise_decreases_with_word_length() {
        let b = small();
        let mut prev = f64::INFINITY;
        for w in [6, 8, 10, 12, 14] {
            let db = b.noise_power(&[w; 5]).unwrap().db();
            assert!(db < prev, "w={w}: {db} !< {prev}");
            prev = db;
        }
    }

    #[test]
    fn narrowing_any_single_register_is_worse_than_balanced_wide() {
        // Recursive noise recirculation means a single narrow register
        // dominates the whole cascade's output noise.
        let b = small();
        let balanced = b.noise_power(&[14; 5]).unwrap().db();
        for i in 0..5 {
            let mut w = [14; 5];
            w[i] = 8;
            let narrowed = b.noise_power(&w).unwrap().db();
            assert!(
                narrowed > balanced + 3.0,
                "register {i}: {narrowed} dB vs balanced {balanced} dB"
            );
        }
    }

    #[test]
    fn reference_is_bounded() {
        // Stable filter, bounded input → bounded output.
        let b = small();
        assert!(b.reference.iter().all(|v| v.abs() < 4.0));
    }

    #[test]
    fn deterministic() {
        let b = small();
        assert_eq!(
            b.noise_power(&[9, 10, 11, 12, 13]).unwrap().linear(),
            b.noise_power(&[9, 10, 11, 12, 13]).unwrap().linear()
        );
    }

    #[test]
    fn cascade_matches_sections_applied_sequentially() {
        let b = small();
        let mut manual = b.input.clone();
        for s in b.sections() {
            manual = s.filter(&manual);
        }
        for (m, r) in manual.iter().zip(&b.reference) {
            assert!((m - r).abs() < 1e-12);
        }
    }
}
