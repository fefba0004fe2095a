//! Per-evaluation timing: simulation vs kriging (§IV prose).
//!
//! The paper reports a kriging interpolation time of ~10⁻⁶ s against
//! simulation times of 2.4 s (filters) and 1.37 s (HEVC), and projects the
//! refinement-time reduction from the interpolated fraction `p`:
//! `t_hybrid / t_sim ≈ (1 − p) + p·(t_krige / t_sim)`.

use std::time::Instant;

use krigeval_core::kriging::KrigingEstimator;
use krigeval_core::opt::OptError;
use krigeval_core::{Config, VariogramModel};

use crate::suite::{build, Problem};
use crate::Scale;

/// Timing measurement for one benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingRow {
    /// Which benchmark.
    pub problem: Problem,
    /// Median wall-clock of building one instance (seconds): the
    /// benchmark's share of a campaign's set-up, which every run, server
    /// surface and rep pays once. The CNN constructors split their
    /// per-image work over the host's cores.
    pub t_build: f64,
    /// Mean wall-clock of one simulation-based metric evaluation that no
    /// stored state can serve: a full pass (seconds).
    pub t_sim: f64,
    /// Mean wall-clock of simulating a neighbour `w + e_i` of a simulated
    /// configuration `w`, over every `i` (seconds) — what an optimizer
    /// step pays. The CNN benchmarks resume such a pass at site `i` when
    /// `i ≥ 2`; iir8 at the section `i` changes, fft64 at the stage it
    /// changes, hevc_mc on every path whose filter does not read site
    /// `i`. fir64, dct8x8 and lms run a full pass. Reported, not gated.
    pub t_step: f64,
    /// Mean wall-clock of one kriging interpolation (seconds).
    pub t_krige: f64,
}

impl TimingRow {
    /// Per-evaluation speed-up `t_sim / t_krige`.
    pub fn per_eval_speedup(&self) -> f64 {
        self.t_sim / self.t_krige
    }

    /// Projected total refinement speed-up when a fraction `p ∈ [0, 1]` of
    /// the evaluations is interpolated (the paper's "time divided by N"
    /// claims: `p = 0.9` on HEVC ⇒ ÷10, `p = 0.8` on FFT ⇒ ÷5).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn projected_speedup(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "fraction must be in [0, 1]");
        1.0 / ((1.0 - p) + p * self.t_krige / self.t_sim)
    }
}

/// Measures mean simulation and kriging times for one benchmark.
///
/// Construction: the median of the `reps` instance builds below, timed
/// apart, for [`TimingRow::t_build`].
/// Simulation: `reps` evaluations of a mid-range configuration `w`, each
/// on a fresh instance built outside the timed region (so no stored state
/// serves it), then each rep's `w + e_i` neighbours on the same instance
/// for [`TimingRow::t_step`].
/// Kriging: `reps` ordinary-kriging solves over `neighbors` sites — the
/// paper's observed mean neighbourhood is 2–4 sites, so the default of 4
/// is the honest (slower) end.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn measure(
    problem: Problem,
    scale: Scale,
    reps: usize,
    neighbors: usize,
) -> Result<TimingRow, OptError> {
    let nv = problem.nv();
    let mid: Config = vec![8; nv];
    let neighbours: Vec<Config> = (0..nv)
        .map(|i| {
            let mut w = mid.clone();
            w[i] += 1;
            w
        })
        .collect();
    // Warm-up + timed simulation runs.
    build(problem, scale).evaluator.evaluate(&mid)?;
    let (mut t_sim, mut t_step) = (0.0, 0.0);
    let mut t_builds = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        let mut evaluator = build(problem, scale).evaluator;
        t_builds.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        evaluator.evaluate(&mid)?;
        t_sim += start.elapsed().as_secs_f64();
        let start = Instant::now();
        for w in &neighbours {
            evaluator.evaluate(w)?;
        }
        t_step += start.elapsed().as_secs_f64() / nv as f64;
    }
    let (t_sim, t_step) = (t_sim / reps as f64, t_step / reps as f64);
    let t_build = median(&mut t_builds);

    // Kriging solve over a realistic neighbourhood.
    let estimator = KrigingEstimator::new(VariogramModel::linear(1.0));
    let sites: Vec<Config> = (0..neighbors)
        .map(|k| {
            let mut c = mid.clone();
            c[k % nv] += 1 + (k / nv) as i32;
            c
        })
        .collect();
    let values: Vec<f64> = (0..neighbors).map(|k| 50.0 + k as f64).collect();
    let target: Config = {
        let mut c = mid.clone();
        c[0] -= 1;
        c
    };
    let p = estimator
        .predict_config(&sites, &values, &target)
        .map_err(|e| OptError::Eval(krigeval_core::EvalError::msg(e.to_string())))?;
    assert!(p.value.is_finite());
    let start = Instant::now();
    for _ in 0..reps {
        let p = estimator
            .predict_config(&sites, &values, &target)
            .expect("warm kriging solve cannot fail");
        std::hint::black_box(p.value);
    }
    let t_krige = start.elapsed().as_secs_f64() / reps as f64;

    Ok(TimingRow {
        problem,
        t_build,
        t_sim,
        t_step,
        t_krige,
    })
}

/// The median of `samples` (the mean of the middle two for an even
/// count; NaN for none).
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    match samples.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => samples[mid],
        _ => (samples[mid - 1] + samples[mid]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kriging_is_much_faster_than_simulation() {
        // Even at Fast scale and debug builds, the gap is orders of
        // magnitude — this is the paper's core economic argument.
        let row = measure(Problem::Fir, Scale::Fast, 3, 4).unwrap();
        assert!(
            row.per_eval_speedup() > 10.0,
            "speedup only {}",
            row.per_eval_speedup()
        );
    }

    #[test]
    fn median_takes_the_middle_sample() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn projected_speedup_matches_paper_arithmetic() {
        let row = TimingRow {
            problem: Problem::Hevc,
            t_build: 0.01,
            t_sim: 1.37,
            t_step: 1.37,
            t_krige: 1e-6,
        };
        // 90 % interpolation ⇒ time divided by ~10.
        let s = row.projected_speedup(0.9);
        assert!((s - 10.0).abs() < 0.1, "s = {s}");
        // 80 % ⇒ ~5.
        let s = row.projected_speedup(0.8);
        assert!((s - 5.0).abs() < 0.1, "s = {s}");
        // 0 % ⇒ no change.
        assert!((row.projected_speedup(0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn projected_speedup_validates_fraction() {
        let row = TimingRow {
            problem: Problem::Fir,
            t_build: 0.01,
            t_sim: 1.0,
            t_step: 1.0,
            t_krige: 1e-6,
        };
        let _ = row.projected_speedup(1.5);
    }
}
