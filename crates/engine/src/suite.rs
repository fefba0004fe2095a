//! The benchmark problems, packaged as optimizer-ready evaluators.
//!
//! This module lives in the engine crate (the campaign executor builds
//! instances inside worker threads, so the evaluators carry a `Send`
//! bound); `krigeval-bench` re-exports it for its binaries and tests.
//!
//! Every problem builds the same way: one simulator behind an `Arc`, and
//! as many evaluator handles on it as a run needs. A run
//! builds its instance once and hands a handle to each of its phases and
//! pool workers, so they share one simulator — and for the CNN benchmarks
//! one checkpoint store.

use std::sync::Arc;

use krigeval_core::evaluator::{AccuracyEvaluator, EvalError};
use krigeval_core::hybrid::AuditMetric;
use krigeval_core::opt::descent::DescentOptions;
use krigeval_core::opt::minplusone::MinPlusOneOptions;
use krigeval_core::Config;
use krigeval_kernels::{
    dct::DctBenchmark, fft::FftBenchmark, fir::FirBenchmark, hevc::HevcMcBenchmark,
    iir::IirBenchmark, lms::LmsBenchmark, WordLengthBenchmark,
};
use krigeval_neural::{QuantizedNetBenchmark, ResumeStats, SensitivityBenchmark};

use crate::Scale;

/// Which of the paper's five benchmarks to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Problem {
    /// 64-tap FIR, `Nv = 2`, noise-power metric.
    Fir,
    /// 8th-order IIR, `Nv = 5`, noise-power metric.
    Iir,
    /// 64-point FFT, `Nv = 10`, noise-power metric.
    Fft,
    /// HEVC motion compensation, `Nv = 23`, noise-power metric.
    Hevc,
    /// SqueezeNet-style sensitivity analysis, `Nv = 10`, classification
    /// rate metric.
    Squeezenet,
    /// Extension (not in the paper's table): fixed-point **quantized
    /// inference** of the CNN — word-length DSE with the `p_cl` metric,
    /// demonstrating the method's metric-independence from the other side.
    QuantizedCnn,
    /// Extension: 8×8 2-D DCT (`Nv = 4`, noise power).
    Dct,
    /// Extension: LMS adaptive filter (`Nv = 3`, noise power) — a feedback
    /// system whose accuracy surface stresses kriging.
    Lms,
}

impl Problem {
    /// All five problems in the paper's Table I order.
    pub fn all() -> [Problem; 5] {
        [
            Problem::Fir,
            Problem::Iir,
            Problem::Fft,
            Problem::Hevc,
            Problem::Squeezenet,
        ]
    }

    /// The paper's five problems plus this reproduction's extension
    /// benchmarks (quantized CNN inference, DCT, LMS).
    pub fn extended() -> [Problem; 8] {
        [
            Problem::Fir,
            Problem::Iir,
            Problem::Fft,
            Problem::Hevc,
            Problem::Squeezenet,
            Problem::QuantizedCnn,
            Problem::Dct,
            Problem::Lms,
        ]
    }

    /// The canonical benchmark names [`Problem::parse`] accepts, one per
    /// problem in [`Problem::extended`] order — the vocabulary error
    /// messages cite so an unknown name tells the user what would have
    /// worked.
    pub fn accepted_names() -> [&'static str; 8] {
        [
            "fir",
            "iir",
            "fft",
            "hevc",
            "squeezenet",
            "quantized_cnn",
            "dct",
            "lms",
        ]
    }

    /// Parses a benchmark name (as accepted by the binaries' `--bench`).
    pub fn parse(name: &str) -> Option<Problem> {
        match name.to_ascii_lowercase().as_str() {
            "fir" | "fir64" => Some(Problem::Fir),
            "iir" | "iir8" => Some(Problem::Iir),
            "fft" | "fft64" => Some(Problem::Fft),
            "hevc" | "hevc_mc" => Some(Problem::Hevc),
            "squeezenet" | "cnn" => Some(Problem::Squeezenet),
            "quantized" | "qcnn" | "quantized_cnn" => Some(Problem::QuantizedCnn),
            "dct" | "dct8x8" => Some(Problem::Dct),
            "lms" => Some(Problem::Lms),
            _ => None,
        }
    }

    /// Table I's benchmark label.
    pub fn label(&self) -> &'static str {
        match self {
            Problem::Fir => "fir64",
            Problem::Iir => "iir8",
            Problem::Fft => "fft64",
            Problem::Hevc => "hevc_mc",
            Problem::Squeezenet => "squeezenet",
            Problem::QuantizedCnn => "quantized_cnn",
            Problem::Dct => "dct8x8",
            Problem::Lms => "lms",
        }
    }

    /// Table I's metric label.
    pub fn metric_label(&self) -> &'static str {
        match self {
            Problem::Squeezenet | Problem::QuantizedCnn => "class. rate",
            _ => "noise power",
        }
    }

    /// Number of optimization variables `Nv`.
    pub fn nv(&self) -> usize {
        match self {
            Problem::Fir => 2,
            Problem::Iir => 5,
            Problem::Fft => 10,
            Problem::Hevc => 23,
            Problem::Squeezenet | Problem::QuantizedCnn => 10,
            Problem::Dct => 4,
            Problem::Lms => 3,
        }
    }

    /// How audit-mode errors are expressed for this problem (Eq. 11 bits
    /// for noise power, Eq. 12 relative difference otherwise).
    pub fn audit_metric(&self) -> AuditMetric {
        match self {
            Problem::Squeezenet | Problem::QuantizedCnn => AuditMetric::Relative,
            _ => AuditMetric::NoisePowerDb,
        }
    }
}

/// A packaged optimization problem: the evaluator plus the optimizer
/// parameters the paper uses for it.
pub struct ProblemInstance {
    /// Which problem this is.
    pub problem: Problem,
    /// The simulation evaluator (`λ = evaluateAccuracy(I, w)`), one handle
    /// on the instance's simulator (see [`ProblemInstance::new_evaluator`]).
    /// `Send` so campaign workers can build and drive instances on their
    /// own threads.
    pub evaluator: Box<dyn AccuracyEvaluator + Send>,
    /// min+1 options — `Some` for the four word-length problems.
    pub minplusone: Option<MinPlusOneOptions>,
    /// Descent options — `Some` for the sensitivity problem.
    pub descent: Option<DescentOptions>,
    simulator: Arc<dyn Simulator>,
}

impl ProblemInstance {
    fn new(
        problem: Problem,
        simulator: Arc<dyn Simulator>,
        minplusone: Option<MinPlusOneOptions>,
        descent: Option<DescentOptions>,
    ) -> ProblemInstance {
        ProblemInstance {
            problem,
            evaluator: Box::new(SharedEvaluator::new(Arc::clone(&simulator))),
            minplusone,
            descent,
            simulator,
        }
    }

    /// Another evaluator over this instance's simulator, with its own
    /// evaluation count: the one instance serves every evaluator of a run.
    pub fn new_evaluator(&self) -> Box<dyn AccuracyEvaluator + Send> {
        Box::new(SharedEvaluator::new(Arc::clone(&self.simulator)))
    }

    /// How the instance's simulations started so far, for the problems
    /// whose simulations resume from stored site inputs (the two CNNs).
    pub fn resume_stats(&self) -> Option<ResumeStats> {
        self.simulator.resume_stats()
    }
}

/// Builds a problem instance at the requested scale with the repository's
/// fixed per-benchmark seeds (equivalent to [`build_seeded`] with
/// `seed = 0`).
///
/// The accuracy constraints follow the paper where stated (−50 dB for HEVC
/// and FFT) and are placed mid-range elsewhere (−35 dB FIR, −45 dB IIR,
/// `p_cl ≥ 0.9` for SqueezeNet, matching "the aim ... maximal power ... for
/// a targeted value of p_cl") so the optimizer trajectories have the
/// paper-like lengths that make the interpolated-fraction statistics
/// meaningful.
pub fn build(problem: Problem, scale: Scale) -> ProblemInstance {
    build_seeded(problem, scale, 0)
}

/// Like [`build`] but perturbs the benchmark's input-data seed with `seed`
/// (XOR), so campaign repeats can draw statistically independent instances
/// while `seed = 0` reproduces the canonical ones exactly.
pub fn build_seeded(problem: Problem, scale: Scale, seed: u64) -> ProblemInstance {
    match problem {
        Problem::Fir => {
            let bench = match scale {
                Scale::Fast => FirBenchmark::new(64, 0.2, 512, 0xF1E6_4001 ^ seed),
                Scale::Paper => FirBenchmark::new(64, 0.2, 4096, 0xF1E6_4001 ^ seed),
            };
            wl_instance(problem, bench, 28.0)
        }
        Problem::Iir => {
            let bench = match scale {
                Scale::Fast => IirBenchmark::new(8, 0.1, 1024, 0x11E8_0002 ^ seed),
                Scale::Paper => IirBenchmark::new(8, 0.1, 4096, 0x11E8_0002 ^ seed),
            };
            wl_instance(problem, bench, 45.0)
        }
        Problem::Fft => {
            let bench = match scale {
                Scale::Fast => FftBenchmark::new(8, 0xFF7_0003 ^ seed),
                Scale::Paper => FftBenchmark::new(64, 0xFF7_0003 ^ seed),
            };
            wl_instance(problem, bench, 50.0)
        }
        Problem::Hevc => {
            let bench = match scale {
                Scale::Fast => HevcMcBenchmark::new(48, 9, 0x4EC0_0004 ^ seed),
                Scale::Paper => HevcMcBenchmark::new(96, 24, 0x4EC0_0004 ^ seed),
            };
            wl_instance(problem, bench, 50.0)
        }
        Problem::Dct => {
            let bench = match scale {
                Scale::Fast => DctBenchmark::new(8, 0xDC78_0005 ^ seed),
                Scale::Paper => DctBenchmark::new(32, 0xDC78_0005 ^ seed),
            };
            wl_instance(problem, bench, 45.0)
        }
        Problem::Lms => {
            let bench = match scale {
                Scale::Fast => LmsBenchmark::new(8, 1024, 0.04, 0x1335_0006 ^ seed),
                Scale::Paper => LmsBenchmark::new(8, 2048, 0.04, 0x1335_0006 ^ seed),
            };
            wl_instance(problem, bench, 40.0)
        }
        Problem::QuantizedCnn => {
            let bench = match scale {
                Scale::Fast => QuantizedNetBenchmark::new(48, 12, 0xBEE5 ^ seed),
                Scale::Paper => QuantizedNetBenchmark::new(400, 16, 0xBEE5 ^ seed),
            };
            let minplusone = MinPlusOneOptions {
                lambda_min: 0.92,
                w_floor: 3,
                w_max: 16,
                max_iterations: 10_000,
            };
            ProblemInstance::new(problem, Arc::new(bench), Some(minplusone), None)
        }
        Problem::Squeezenet => {
            let bench = match scale {
                Scale::Fast => SensitivityBenchmark::new(48, 12, 0x59EE_2E05 ^ seed),
                Scale::Paper => SensitivityBenchmark::new(400, 16, 0x59EE_2E05 ^ seed),
            };
            let descent = DescentOptions {
                lambda_min: 0.9,
                level_floor: 0,
                level_max: 12,
                max_iterations: 10_000,
            };
            ProblemInstance::new(problem, Arc::new(bench), None, Some(descent))
        }
    }
}

fn wl_instance<B>(problem: Problem, bench: B, lambda_min: f64) -> ProblemInstance
where
    B: WordLengthBenchmark + Send + Sync + 'static,
{
    let minplusone = MinPlusOneOptions {
        lambda_min,
        w_floor: bench.min_word_length(),
        w_max: bench.max_word_length(),
        max_iterations: 10_000,
    };
    ProblemInstance::new(problem, Arc::new(WordLength(bench)), Some(minplusone), None)
}

/// A benchmark's simulator, which every evaluator of a run shares: the
/// pilot and hybrid phases, each pool worker and the backend's local
/// evaluator. `simulate` takes `&self`, and a simulator's value for a
/// configuration never depends on what it simulated before.
trait Simulator: Send + Sync {
    /// Simulates `config` and returns the accuracy metric `λ`.
    ///
    /// # Errors
    ///
    /// The benchmark's validation errors (wrong length, out-of-range
    /// entries).
    fn simulate(&self, config: &Config) -> Result<f64, EvalError>;

    /// Number of configuration variables.
    fn num_variables(&self) -> usize;

    /// How the simulations started, for simulators that resume from
    /// stored site inputs; `None` for the others.
    fn resume_stats(&self) -> Option<ResumeStats> {
        None
    }
}

/// A [`WordLengthBenchmark`] as a [`Simulator`]: `λ` is its accuracy in dB.
struct WordLength<B>(B);

impl<B: WordLengthBenchmark + Send + Sync> Simulator for WordLength<B> {
    fn simulate(&self, config: &Config) -> Result<f64, EvalError> {
        self.0.accuracy_db(config).map_err(EvalError::wrap)
    }

    fn num_variables(&self) -> usize {
        self.0.num_variables()
    }
}

/// Configurations are integer level vectors, mapped through
/// [`level_to_db`]; the metric is `p_cl`.
impl Simulator for SensitivityBenchmark {
    fn simulate(&self, config: &Config) -> Result<f64, EvalError> {
        let powers: Vec<f64> = config.iter().map(|&l| level_to_db(l)).collect();
        self.classification_rate(&powers).map_err(EvalError::wrap)
    }

    fn num_variables(&self) -> usize {
        self.num_sources()
    }

    fn resume_stats(&self) -> Option<ResumeStats> {
        Some(SensitivityBenchmark::resume_stats(self))
    }
}

/// Configurations are activation-register word-lengths; the metric is
/// `p_cl` against the double-precision reference.
impl Simulator for QuantizedNetBenchmark {
    fn simulate(&self, config: &Config) -> Result<f64, EvalError> {
        self.classification_rate(config).map_err(EvalError::wrap)
    }

    fn num_variables(&self) -> usize {
        QuantizedNetBenchmark::num_variables(self)
    }

    fn resume_stats(&self) -> Option<ResumeStats> {
        Some(QuantizedNetBenchmark::resume_stats(self))
    }
}

/// An [`AccuracyEvaluator`] over a shared [`Simulator`], counting its own
/// calls.
struct SharedEvaluator {
    simulator: Arc<dyn Simulator>,
    count: u64,
}

impl SharedEvaluator {
    /// A handle on `simulator` with a zero evaluation count.
    fn new(simulator: Arc<dyn Simulator>) -> SharedEvaluator {
        SharedEvaluator {
            simulator,
            count: 0,
        }
    }
}

impl AccuracyEvaluator for SharedEvaluator {
    fn evaluate(&mut self, config: &Config) -> Result<f64, EvalError> {
        self.count += 1;
        self.simulator.simulate(config)
    }

    fn num_variables(&self) -> usize {
        self.simulator.num_variables()
    }

    fn evaluations(&self) -> u64 {
        self.count
    }
}

/// dB value of an error-source level: levels `0..=12` span −80…−8 dB in
/// 6 dB steps (noise-to-signal ratio relative to each layer's activation
/// power). The floor is quiet enough that all margins survive, so the
/// descent optimizer's starting configuration is always feasible.
pub fn level_to_db(level: i32) -> f64 {
    -80.0 + 6.0 * f64::from(level)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_all_labels() {
        for p in Problem::extended() {
            assert_eq!(Problem::parse(p.label()), Some(p));
        }
        assert_eq!(Problem::parse("nope"), None);
    }

    #[test]
    fn extension_problems_build_and_evaluate() {
        for p in [Problem::Dct, Problem::Lms, Problem::QuantizedCnn] {
            let mut inst = build(p, Scale::Fast);
            let nv = inst.evaluator.num_variables();
            assert_eq!(nv, p.nv());
            let wide = inst.evaluator.evaluate(&vec![14; nv]).unwrap();
            let narrow = inst.evaluator.evaluate(&vec![5; nv]).unwrap();
            assert!(wide > narrow, "{p:?}: wide {wide} <= narrow {narrow}");
        }
    }

    #[test]
    fn nv_matches_paper_table() {
        assert_eq!(Problem::Fir.nv(), 2);
        assert_eq!(Problem::Iir.nv(), 5);
        assert_eq!(Problem::Fft.nv(), 10);
        assert_eq!(Problem::Hevc.nv(), 23);
        assert_eq!(Problem::Squeezenet.nv(), 10);
    }

    #[test]
    fn build_produces_consistent_dimensions() {
        for p in [Problem::Fir, Problem::Iir] {
            let inst = build(p, Scale::Fast);
            assert_eq!(inst.evaluator.num_variables(), p.nv());
            assert!(inst.minplusone.is_some());
            assert!(inst.descent.is_none());
        }
        let s = build(Problem::Squeezenet, Scale::Fast);
        assert_eq!(s.evaluator.num_variables(), 10);
        assert!(s.descent.is_some());
    }

    #[test]
    fn wl_evaluator_returns_accuracy_db() {
        let mut inst = build(Problem::Fir, Scale::Fast);
        let high = inst.evaluator.evaluate(&vec![14, 14]).unwrap();
        let low = inst.evaluator.evaluate(&vec![6, 6]).unwrap();
        assert!(high > low);
        assert_eq!(inst.evaluator.evaluations(), 2);
    }

    #[test]
    fn sensitivity_evaluator_maps_levels() {
        let mut inst = build(Problem::Squeezenet, Scale::Fast);
        let quiet = inst.evaluator.evaluate(&vec![0; 10]).unwrap();
        let loud = inst.evaluator.evaluate(&vec![12; 10]).unwrap();
        assert!(quiet > loud, "quiet {quiet} <= loud {loud}");
        assert!(quiet > 0.9);
    }

    #[test]
    fn evaluator_handles_share_the_instance() {
        let inst = build(Problem::QuantizedCnn, Scale::Fast);
        let mut first = inst.new_evaluator();
        let mut second = inst.new_evaluator();
        let w = vec![9; 10];
        let mut neighbour = w.clone();
        neighbour[6] += 1;
        first.evaluate(&w).unwrap();
        second.evaluate(&neighbour).unwrap();
        assert_eq!((first.evaluations(), second.evaluations()), (1, 1));
        let stats = inst.resume_stats().expect("the CNNs resume");
        assert_eq!(stats.simulations(), 2);
        assert_eq!(stats.started_at[6], 1, "the second handle resumed");
        assert!(build(Problem::Fir, Scale::Fast).resume_stats().is_none());
    }

    #[test]
    fn level_mapping_is_affine() {
        assert_eq!(level_to_db(0), -80.0);
        assert_eq!(level_to_db(12), -8.0);
    }

    #[test]
    fn build_seeded_zero_matches_build() {
        let mut a = build(Problem::Fir, Scale::Fast);
        let mut b = build_seeded(Problem::Fir, Scale::Fast, 0);
        let w = vec![9, 9];
        assert_eq!(
            a.evaluator.evaluate(&w).unwrap(),
            b.evaluator.evaluate(&w).unwrap()
        );
    }

    #[test]
    fn build_seeded_changes_the_instance() {
        let mut a = build_seeded(Problem::Fir, Scale::Fast, 1);
        let mut b = build_seeded(Problem::Fir, Scale::Fast, 2);
        let w = vec![9, 9];
        // Different input data → (almost surely) different noise estimates.
        assert_ne!(
            a.evaluator.evaluate(&w).unwrap(),
            b.evaluator.evaluate(&w).unwrap()
        );
    }

    // Every evaluator the suite produces is Send, so campaign workers can
    // own instances on their threads, and every simulator is Sync, so the
    // workers of a run can share one.
    #[test]
    fn evaluators_are_send() {
        fn assert_send<T: Send>() {}
        fn assert_simulator<T: Simulator>() {}
        assert_simulator::<WordLength<FirBenchmark>>();
        assert_simulator::<WordLength<IirBenchmark>>();
        assert_simulator::<WordLength<FftBenchmark>>();
        assert_simulator::<WordLength<HevcMcBenchmark>>();
        assert_simulator::<WordLength<DctBenchmark>>();
        assert_simulator::<WordLength<LmsBenchmark>>();
        assert_simulator::<SensitivityBenchmark>();
        assert_simulator::<QuantizedNetBenchmark>();
        assert_send::<SharedEvaluator>();
        assert_send::<Box<dyn AccuracyEvaluator + Send>>();
        fn assert_instance_send(i: ProblemInstance) -> impl Send {
            i
        }
        let _ = assert_instance_send(build(Problem::Fir, Scale::Fast));
    }
}
