//! Backend-parity suite: the engine-backed parallel fulfillment backend
//! must be **bitwise indistinguishable** from the inline backend.
//!
//! Every optimizer emits its per-iteration candidate frontier as one
//! planned batch; the hybrid evaluator fulfills the deduplicated
//! simulation requests through whichever [`EvalBackend`] it was built on
//! and commits results in input-index order. Because each request's value
//! is a pure function of its configuration, the full
//! [`OptimizationResult`] (solution, λ, iteration count, every trace
//! entry) and the session's [`HybridStats`] must match the inline run for
//! any worker count — this suite pins that for the optimizers a campaign
//! runs (min+1, min+1 with tie-breaking by simulation, steepest-descent
//! budgeting) on the FIR and IIR kernels at 1, 2, 4 and 8 workers.
//! Tie-breaking is the one optimizer whose exact simulations
//! (`query_exact` → `simulate_exact`, each a forced batch of one) also
//! reach the pool.

use std::sync::Arc;

use krigeval_core::hybrid::HybridObs;
use krigeval_core::opt::descent::{budget_error_sources, DescentOptions};
use krigeval_core::opt::minplusone::{optimize, optimize_with_tie_break};
use krigeval_core::opt::{DseEvaluator, OptError, OptimizationResult};
use krigeval_core::trace::Source;
use krigeval_core::{
    AccuracyEvaluator, Config, EvalBackend, EvalError, HybridEvaluator, HybridSettings, HybridStats,
};
use krigeval_engine::suite::{build_seeded, Problem};
use krigeval_engine::{CampaignObs, EngineBackend, Scale, SimCache};
use krigeval_obs::{Registry, Tracer};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Optimizer {
    MinPlusOne,
    /// `campaign --optimizer tiebreak:0.5`.
    TieBreak,
    Descent,
}

/// Maps the descent optimizer's monotone-increasing levels onto the
/// word-length kernels (level 0 = widest word), so the error-budgeting
/// algorithm can drive the same FIR/IIR simulators as the word-length
/// optimizers.
struct LevelAdapter {
    inner: Box<dyn AccuracyEvaluator + Send>,
    top: i32,
}

impl AccuracyEvaluator for LevelAdapter {
    fn evaluate(&mut self, config: &Config) -> Result<f64, EvalError> {
        let words: Config = config.iter().map(|&level| self.top - level).collect();
        self.inner.evaluate(&words)
    }

    fn num_variables(&self) -> usize {
        AccuracyEvaluator::num_variables(&self.inner)
    }

    fn evaluations(&self) -> u64 {
        AccuracyEvaluator::evaluations(&self.inner)
    }
}

/// A deterministic fresh simulator for `(optimizer, problem)` — the same
/// instance every call, so the inline backend and every pool worker see
/// identical surfaces.
fn fresh_evaluator(optimizer: Optimizer, problem: Problem) -> Box<dyn AccuracyEvaluator + Send> {
    let evaluator = build_seeded(problem, Scale::Fast, 0).evaluator;
    match optimizer {
        Optimizer::Descent => Box::new(LevelAdapter {
            inner: evaluator,
            top: 16,
        }),
        _ => evaluator,
    }
}

fn drive(
    optimizer: Optimizer,
    problem: Problem,
    evaluator: &mut dyn DseEvaluator,
) -> Result<OptimizationResult, OptError> {
    let options = build_seeded(problem, Scale::Fast, 0)
        .minplusone
        .expect("FIR/IIR are word-length problems");
    match optimizer {
        Optimizer::MinPlusOne => optimize(evaluator, &options),
        Optimizer::TieBreak => optimize_with_tie_break(evaluator, &options, 0.5),
        Optimizer::Descent => budget_error_sources(
            evaluator,
            &DescentOptions {
                lambda_min: options.lambda_min,
                level_floor: 0,
                level_max: options.w_max - options.w_floor,
                max_iterations: options.max_iterations,
            },
        ),
    }
}

/// The hybrid evaluator, counting the exact simulations asked of it.
struct CountExact<E: EvalBackend> {
    hybrid: HybridEvaluator<E>,
    exact: u64,
}

impl<E: EvalBackend> DseEvaluator for CountExact<E> {
    fn query(&mut self, config: &Config) -> Result<(f64, Source), EvalError> {
        self.hybrid.query(config)
    }

    fn query_exact(&mut self, config: &Config) -> Result<f64, EvalError> {
        self.exact += 1;
        self.hybrid.query_exact(config)
    }

    fn query_batch(&mut self, configs: &[Config]) -> Result<Vec<(f64, Source)>, EvalError> {
        self.hybrid.query_batch(configs)
    }

    fn num_variables(&self) -> usize {
        DseEvaluator::num_variables(&self.hybrid)
    }

    fn observe_iteration(&mut self, phase: &'static str, iteration: u64) {
        self.hybrid.observe_iteration(phase, iteration);
    }
}

/// One session's result, statistics and exact-simulation count.
fn run_one(
    optimizer: Optimizer,
    problem: Problem,
    backend: impl EvalBackend,
) -> (OptimizationResult, HybridStats, u64) {
    let mut counted = CountExact {
        hybrid: HybridEvaluator::new(backend, HybridSettings::default()),
        exact: 0,
    };
    let result = drive(optimizer, problem, &mut counted).expect("optimization succeeds");
    (result, counted.hybrid.stats().clone(), counted.exact)
}

fn assert_parity(optimizer: Optimizer) {
    let mut exact = 0;
    for problem in [Problem::Fir, Problem::Iir] {
        let inline = run_one(optimizer, problem, fresh_evaluator(optimizer, problem));
        exact += inline.2;
        for workers in WORKER_COUNTS {
            let backend = EngineBackend::new(
                || fresh_evaluator(optimizer, problem),
                workers,
                Arc::new(SimCache::new()),
                "parity",
            );
            let parallel = run_one(optimizer, problem, backend);
            assert_eq!(
                inline, parallel,
                "{optimizer:?} on {problem:?} diverged at {workers} workers"
            );
        }
    }
    assert_eq!(
        exact > 0,
        optimizer == Optimizer::TieBreak,
        "{optimizer:?}: {exact} exact simulations"
    );
}

#[test]
fn minplusone_engine_backend_matches_inline() {
    assert_parity(Optimizer::MinPlusOne);
}

#[test]
fn tie_break_engine_backend_matches_inline() {
    assert_parity(Optimizer::TieBreak);
}

#[test]
fn descent_engine_backend_matches_inline() {
    assert_parity(Optimizer::Descent);
}

/// Runs one session with a hybrid metric bundle over a fresh registry
/// and returns the deterministic counter snapshot.
fn hybrid_counters(optimizer: Optimizer, problem: Problem, backend: impl EvalBackend) -> String {
    let registry = Registry::new();
    let mut hybrid = HybridEvaluator::new(backend, HybridSettings::default())
        .with_obs(HybridObs::new(&registry, Tracer::disabled()));
    drive(optimizer, problem, &mut hybrid).expect("optimization succeeds");
    registry.snapshot().counters_json()
}

/// The observability side of the parity contract: hybrid counters mirror
/// algorithmic decisions, so their snapshot must render byte-identical
/// for the inline backend and the engine backend at any worker count.
#[test]
fn hybrid_counter_snapshots_match_inline_at_any_worker_count() {
    for problem in [Problem::Fir, Problem::Iir] {
        let optimizer = Optimizer::MinPlusOne;
        let inline = hybrid_counters(optimizer, problem, fresh_evaluator(optimizer, problem));
        assert!(inline.contains("\"hybrid_queries_total\""), "{inline}");
        for workers in [1, 2, 4] {
            let backend = EngineBackend::new(
                || fresh_evaluator(optimizer, problem),
                workers,
                Arc::new(SimCache::new()),
                "parity",
            );
            let parallel = hybrid_counters(optimizer, problem, backend);
            assert_eq!(
                inline, parallel,
                "{problem:?} counter snapshot diverged at {workers} workers"
            );
        }
    }
}

/// One full-campaign-style session (hybrid plus worker-pool bundles over
/// one registry), returning the counter snapshot.
fn backend_counters(problem: Problem, workers: usize) -> String {
    let registry = Registry::new();
    let campaign = CampaignObs::new(&registry, Tracer::disabled());
    let optimizer = Optimizer::MinPlusOne;
    let backend = EngineBackend::new(
        || fresh_evaluator(optimizer, problem),
        workers,
        Arc::new(SimCache::new()),
        "parity",
    )
    .with_obs(campaign.backend_obs(problem.label()));
    let mut hybrid =
        HybridEvaluator::new(backend, HybridSettings::default()).with_obs(campaign.hybrid_obs());
    drive(optimizer, problem, &mut hybrid).expect("optimization succeeds");
    registry.snapshot().counters_json()
}

/// Worker-pool counters (batches, jobs, cache-hit and evaluation totals)
/// are also a pure function of the planned work: the full snapshot —
/// hybrid and backend bundles together — must render byte-identical
/// across worker counts.
#[test]
fn backend_counter_snapshots_match_across_worker_counts() {
    for problem in [Problem::Fir, Problem::Iir] {
        let one = backend_counters(problem, 1);
        assert!(one.contains("\"backend_batches_total\""), "{one}");
        assert!(one.contains("\"backend_evaluations_total\""), "{one}");
        for workers in [2, 4] {
            assert_eq!(
                one,
                backend_counters(problem, workers),
                "{problem:?} backend counters diverged at {workers} workers"
            );
        }
    }
}
