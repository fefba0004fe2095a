//! Server-side sessions: one hybrid evaluator per connection, all of them
//! fulfilled through a shared pool of [`EngineBackend`]s and one
//! [`SimCache`].
//!
//! A session owns exactly the state the paper's method accumulates per
//! exploration — the simulated set, the (re)fitted variogram model, the
//! neighbour index, the statistics — while everything below the
//! plan/fulfill seam is shared: sessions on the same benchmark surface
//! (`(benchmark, scale, seed)`, the [`SimCache`] namespace) literally
//! share one worker pool and memo-cache, so a configuration simulated for
//! one client is a cache hit for every other.
//!
//! # Determinism caveat
//!
//! A single session's results are a pure function of its own request
//! stream (the shared cache only memoizes values the simulators would
//! produce anyway). Cross-session *timing* is of course shared — a busy
//! neighbour slows fulfillment — but never values.

use std::sync::{Arc, Mutex, MutexGuard};

use krigeval_core::hybrid::{HybridEvaluator, HybridSettings, HybridStats, NuggetPolicy};
use krigeval_core::opt::descent::{budget_error_sources, DescentOptions};
use krigeval_core::opt::minplusone::{optimize, MinPlusOneOptions};
use krigeval_core::opt::{OptError, OptimizationResult};
use krigeval_core::{
    Config, EvalBackend, EvalError, FiniteGuard, ModelSelection, Outcome, SessionSnapshot,
    SimulationRequest,
};
use krigeval_engine::obs::BackendObs;
use krigeval_engine::runner::surface_namespace;
use krigeval_engine::spec::{parse_gate, parse_metric, VariogramSpec};
use krigeval_engine::suite::{build_seeded, Problem, ProblemInstance};
use krigeval_engine::{CacheStats, EngineBackend, Scale, SimCache};
use krigeval_obs::{Registry, Tracer};

use crate::protocol::{codes, HelloParams, OutcomeFrame};

/// A typed session-layer failure: the error code the wire frame carries
/// plus a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionError {
    /// One of [`codes`].
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl SessionError {
    fn bad_request(message: impl Into<String>) -> SessionError {
        SessionError {
            code: codes::BAD_REQUEST,
            message: message.into(),
        }
    }
}

impl From<EvalError> for SessionError {
    fn from(e: EvalError) -> SessionError {
        SessionError {
            code: codes::EVAL_FAILED,
            message: e.to_string(),
        }
    }
}

fn lock_backend(backend: &Mutex<EngineBackend>) -> MutexGuard<'_, EngineBackend> {
    // A poisoned mutex means a panic escaped some session thread; the
    // backend's own state is a condvar-parked pool that stays coherent, so
    // serving the remaining sessions beats poisoning the whole server.
    backend
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// An [`EvalBackend`] handle onto a pool-owned [`EngineBackend`]:
/// `fulfill` needs `&mut self`, so concurrent sessions serialize their
/// *dispatch* through this mutex while the fan-out itself still runs on
/// the pool's threads (the dispatching session's thread among them).
pub struct SharedBackend {
    inner: Arc<Mutex<EngineBackend>>,
}

impl SharedBackend {
    /// Threads of the underlying pool, the fulfilling thread included.
    pub fn workers(&self) -> usize {
        lock_backend(&self.inner).workers()
    }
}

impl EvalBackend for SharedBackend {
    fn fulfill(&mut self, requests: &[SimulationRequest]) -> Result<Vec<f64>, EvalError> {
        lock_backend(&self.inner).fulfill(requests)
    }

    fn fulfill_one(&mut self, config: &Config) -> Result<f64, EvalError> {
        lock_backend(&self.inner).fulfill_one(config)
    }

    fn num_variables(&self) -> usize {
        lock_backend(&self.inner).num_variables()
    }

    fn evaluations(&self) -> u64 {
        lock_backend(&self.inner).evaluations()
    }
}

/// A benchmark's canonical optimizer with the options [`build_seeded`]
/// gives it: min+1 for the word-length problems, descent for the
/// sensitivity problem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Optimizer {
    /// Algorithms 1–2's min+1 word-length search.
    MinPlusOne(MinPlusOneOptions),
    /// Steepest-descent error-source budgeting.
    Descent(DescentOptions),
}

impl Optimizer {
    fn of(instance: &ProblemInstance) -> Optimizer {
        match (instance.minplusone, instance.descent) {
            (Some(opts), _) => Optimizer::MinPlusOne(opts),
            (None, Some(opts)) => Optimizer::Descent(opts),
            (None, None) => unreachable!("every suite problem carries an optimizer"),
        }
    }

    fn set_lambda_min(&mut self, lambda: f64) {
        match self {
            Optimizer::MinPlusOne(opts) => opts.lambda_min = lambda,
            Optimizer::Descent(opts) => opts.lambda_min = lambda,
        }
    }
}

/// One benchmark surface's backend and its optimizer, read off the one
/// instance built for it.
struct Surface {
    namespace: String,
    backend: Arc<Mutex<EngineBackend>>,
    optimizer: Optimizer,
}

/// The server-wide backend pool: one [`EngineBackend`] per benchmark
/// surface, all sharing one [`SimCache`] and one metrics registry.
pub struct BackendPool {
    cache: Arc<SimCache>,
    threads: usize,
    registry: Registry,
    tracer: Tracer,
    surfaces: Mutex<Vec<Surface>>,
}

impl BackendPool {
    /// Builds an empty pool whose backends will run `threads` workers each
    /// and register their metrics in `registry`.
    pub fn new(threads: usize, registry: Registry, tracer: Tracer) -> BackendPool {
        BackendPool {
            cache: Arc::new(SimCache::new()),
            threads: threads.max(1),
            registry,
            tracer,
            surfaces: Mutex::new(Vec::new()),
        }
    }

    /// The backend for a benchmark surface and the benchmark's optimizer,
    /// created on first use. Sessions with identical `(problem, scale,
    /// seed)` receive the same pool.
    pub fn backend(&self, problem: Problem, scale: Scale, seed: u64) -> (SharedBackend, Optimizer) {
        let namespace = surface_namespace(problem, scale, seed);
        let mut surfaces = self
            .surfaces
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let at = match surfaces.iter().position(|s| s.namespace == namespace) {
            Some(at) => at,
            None => {
                // One instance per surface: the pool's workers and its
                // local evaluator hold handles on the same simulator.
                let instance = build_seeded(problem, scale, seed);
                let backend = EngineBackend::new(
                    || Box::new(FiniteGuard::new(instance.new_evaluator())),
                    self.threads,
                    Arc::clone(&self.cache),
                    namespace.clone(),
                )
                .with_obs(BackendObs::new(&self.registry, self.tracer.clone()));
                surfaces.push(Surface {
                    namespace,
                    backend: Arc::new(Mutex::new(backend)),
                    optimizer: Optimizer::of(&instance),
                });
                surfaces.len() - 1
            }
        };
        let inner = Arc::clone(&surfaces[at].backend);
        (SharedBackend { inner }, surfaces[at].optimizer)
    }

    /// Number of distinct backends alive.
    pub fn len(&self) -> usize {
        self.surfaces
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// Whether any backend has been created yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Shared-cache statistics across every session and surface.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }
}

/// Upper bound on `evaluate_batch` sizes; larger frames are rejected with
/// `bad_request` so one client cannot pin unbounded memory.
pub const MAX_BATCH: usize = 4096;

fn outcome_frame(outcome: &Outcome) -> OutcomeFrame {
    match outcome {
        Outcome::Simulated { value } => OutcomeFrame {
            source: "simulated".to_string(),
            value: *value,
            variance: None,
            neighbors: None,
        },
        Outcome::Kriged {
            value,
            variance,
            neighbors,
            ..
        } => OutcomeFrame {
            source: "kriged".to_string(),
            value: *value,
            variance: Some(*variance),
            neighbors: Some(*neighbors as u64),
        },
    }
}

/// One connection's evaluation session: a [`HybridEvaluator`] over a
/// [`SharedBackend`], plus its own copy of the benchmark's optimizer.
pub struct Session {
    id: u64,
    problem: Problem,
    evaluator: HybridEvaluator<SharedBackend>,
    optimizer: Optimizer,
    workers: usize,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("id", &self.id)
            .field("problem", &self.problem.label())
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Opens a session per the `hello` parameters, drawing the backend
    /// from `pool`.
    ///
    /// # Errors
    ///
    /// Returns a [`SessionError`] (`bad_request` / `unsupported`) for
    /// unknown benchmarks, scales, metrics or variogram policies.
    pub fn open(
        id: u64,
        params: &HelloParams,
        pool: &BackendPool,
    ) -> Result<Session, SessionError> {
        let problem = Problem::parse(&params.benchmark).ok_or_else(|| {
            SessionError::bad_request(format!("unknown benchmark {:?}", params.benchmark))
        })?;
        let scale_name = params.scale.as_deref().unwrap_or("fast");
        let scale = Scale::parse(scale_name)
            .ok_or_else(|| SessionError::bad_request(format!("unknown scale {scale_name:?}")))?;
        let seed = params.seed.unwrap_or(0);
        let defaults = HybridSettings::default();
        let variogram = match params.variogram.as_deref() {
            Some(text) => VariogramSpec::parse(text)
                .map_err(SessionError::bad_request)?
                .policy()
                .ok_or_else(|| SessionError {
                    code: codes::UNSUPPORTED,
                    message: "the pilot protocol is an offline-campaign feature; serve \
                              sessions identify online (fit-after) or use a fixed model"
                        .to_string(),
                })?,
            None => defaults.variogram,
        };
        let metric = match params.metric.as_deref() {
            Some(name) => parse_metric(name).map_err(SessionError::bad_request)?,
            None => defaults.metric,
        };
        let distance = params.d.unwrap_or(defaults.distance);
        if !distance.is_finite() || distance <= 0.0 {
            return Err(SessionError::bad_request(format!(
                "invalid neighbour radius d = {distance}"
            )));
        }
        let max_neighbors = match params.max_neighbors {
            Some(0) => None,
            Some(n) => Some(n),
            None => defaults.max_neighbors,
        };
        let gate = match params.gate.as_deref() {
            Some(text) => parse_gate(text).map_err(SessionError::bad_request)?,
            None => defaults.gate,
        };
        let selection = match params.selection.as_deref() {
            None | Some("sse") => ModelSelection::WeightedSse,
            Some("loo") => ModelSelection::LeaveOneOut,
            Some(other) => {
                return Err(SessionError::bad_request(format!(
                    "unknown selection {other:?} (expected \"sse\" or \"loo\")"
                )));
            }
        };
        let nugget = match params.nugget.as_deref() {
            None => None,
            Some(v) => Some(NuggetPolicy::Fixed {
                value: v
                    .parse()
                    .map_err(|_| SessionError::bad_request(format!("bad nugget {v:?}")))?,
            }),
        };
        let settings = HybridSettings {
            distance,
            min_neighbors: params.min_neighbors.unwrap_or(defaults.min_neighbors),
            metric,
            variogram,
            max_neighbors,
            audit: None,
            approx: defaults.approx,
            gate,
            selection,
            nugget,
        };
        settings
            .validate()
            .map_err(|e| SessionError::bad_request(e.to_string()))?;
        let (backend, mut optimizer) = pool.backend(problem, scale, seed);
        if let Some(lambda) = params.lambda_min {
            optimizer.set_lambda_min(lambda);
        }
        let workers = backend.workers();
        Ok(Session {
            id,
            problem,
            evaluator: HybridEvaluator::new(backend, settings),
            optimizer,
            workers,
        })
    }

    /// Server-unique session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Canonical benchmark label (e.g. `fir64`).
    pub fn benchmark(&self) -> &'static str {
        self.problem.label()
    }

    /// Number of optimization variables `Nv`.
    pub fn nv(&self) -> usize {
        self.problem.nv()
    }

    /// Worker threads in this session's shared backend.
    pub fn workers(&self) -> usize {
        self.workers
    }

    fn check_config(&self, config: &[i32]) -> Result<(), SessionError> {
        if config.len() != self.nv() {
            return Err(SessionError::bad_request(format!(
                "config has {} variables, benchmark {} expects {}",
                config.len(),
                self.benchmark(),
                self.nv()
            )));
        }
        Ok(())
    }

    /// Evaluates one configuration.
    ///
    /// # Errors
    ///
    /// `bad_request` for a wrong-dimension config, `eval_failed` when the
    /// simulation rejects it.
    pub fn evaluate(&mut self, config: &Config) -> Result<OutcomeFrame, SessionError> {
        self.check_config(config)?;
        Ok(outcome_frame(&self.evaluator.evaluate(config)?))
    }

    /// Evaluates a batch through the plan/fulfill/commit path,
    /// all-or-nothing.
    ///
    /// # Errors
    ///
    /// `bad_request` for wrong-dimension configs or oversized batches
    /// (> [`MAX_BATCH`]); `eval_failed` if any simulation fails (the
    /// session state is then unchanged).
    pub fn evaluate_batch(
        &mut self,
        configs: &[Config],
    ) -> Result<Vec<OutcomeFrame>, SessionError> {
        if configs.len() > MAX_BATCH {
            return Err(SessionError::bad_request(format!(
                "batch of {} configs exceeds the limit of {MAX_BATCH}",
                configs.len()
            )));
        }
        for config in configs {
            self.check_config(config)?;
        }
        let outcomes = self.evaluator.evaluate_batch(configs)?;
        Ok(outcomes.iter().map(outcome_frame).collect())
    }

    /// Runs the benchmark's canonical optimizer (min+1 for word-length
    /// problems, descent for the sensitivity problem) over this session's
    /// evaluator, accumulating into the session state.
    ///
    /// # Errors
    ///
    /// `eval_failed` carrying the optimizer failure (evaluation error,
    /// infeasible constraint, iteration budget).
    pub fn optimize(&mut self) -> Result<OptimizationResult, SessionError> {
        let result = match &self.optimizer {
            Optimizer::MinPlusOne(opts) => optimize(&mut self.evaluator, opts),
            Optimizer::Descent(opts) => budget_error_sources(&mut self.evaluator, opts),
        };
        result.map_err(|e| SessionError {
            code: codes::EVAL_FAILED,
            message: match &e {
                OptError::Eval(inner) => inner.to_string(),
                other => other.to_string(),
            },
        })
    }

    /// Captures the session state (resumable offline via
    /// `HybridEvaluator::resume`).
    pub fn snapshot(&self) -> SessionSnapshot {
        self.evaluator.snapshot()
    }

    /// The session's accumulated statistics.
    pub fn stats(&self) -> &HybridStats {
        self.evaluator.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> BackendPool {
        BackendPool::new(1, Registry::new(), Tracer::disabled())
    }

    fn hello(benchmark: &str) -> HelloParams {
        HelloParams {
            benchmark: benchmark.to_string(),
            ..HelloParams::default()
        }
    }

    #[test]
    fn sessions_on_one_surface_share_a_backend() {
        let pool = pool();
        let a = Session::open(1, &hello("fir"), &pool).unwrap();
        let b = Session::open(2, &hello("fir"), &pool).unwrap();
        assert_eq!(pool.len(), 1, "same surface, one backend");
        let c = Session::open(3, &hello("iir"), &pool).unwrap();
        assert_eq!(pool.len(), 2, "different benchmark, second backend");
        assert_eq!(a.nv(), 2);
        assert_eq!(b.benchmark(), "fir64");
        assert_eq!(c.nv(), 5);
    }

    #[test]
    fn a_session_carries_the_optimizer_its_benchmark_is_built_with() {
        let pool = pool();
        for problem in Problem::extended() {
            let session = Session::open(1, &hello(problem.label()), &pool).unwrap();
            let instance = build_seeded(problem, Scale::Fast, 0);
            let (minplusone, descent) = match session.optimizer {
                Optimizer::MinPlusOne(opts) => (Some(opts), None),
                Optimizer::Descent(opts) => (None, Some(opts)),
            };
            assert_eq!(minplusone, instance.minplusone, "{}", problem.label());
            assert_eq!(descent, instance.descent, "{}", problem.label());
        }
    }

    #[test]
    fn a_lambda_min_hello_changes_only_its_own_session() {
        let pool = pool();
        for benchmark in ["fir", "squeezenet"] {
            let mut params = hello(benchmark);
            params.lambda_min = Some(-7.5);
            let tightened = Session::open(1, &params, &pool).unwrap();
            let plain = Session::open(2, &hello(benchmark), &pool).unwrap();
            let canonical = Optimizer::of(&build_seeded(
                Problem::parse(benchmark).unwrap(),
                Scale::Fast,
                0,
            ));
            let mut expected = canonical;
            expected.set_lambda_min(-7.5);
            assert_ne!(expected, canonical, "{benchmark}");
            assert_eq!(tightened.optimizer, expected, "{benchmark}");
            assert_eq!(plain.optimizer, canonical, "{benchmark}");
            assert_eq!(pool.backend(plain.problem, Scale::Fast, 0).1, canonical);
        }
    }

    #[test]
    fn shared_cache_answers_repeat_simulations_across_sessions() {
        let pool = pool();
        let mut a = Session::open(1, &hello("fir"), &pool).unwrap();
        let mut b = Session::open(2, &hello("fir"), &pool).unwrap();
        let config = vec![9, 9];
        let va = a.evaluate(&config).unwrap();
        let before = pool.cache_stats();
        let vb = b.evaluate(&config).unwrap();
        let after = pool.cache_stats();
        assert_eq!(va.value, vb.value, "one surface, one value");
        assert!(
            after.hits > before.hits,
            "second session's simulation hits the shared cache: {before:?} -> {after:?}"
        );
    }

    #[test]
    fn wrong_dimension_config_is_a_bad_request() {
        let pool = pool();
        let mut s = Session::open(1, &hello("fir"), &pool).unwrap();
        let err = s.evaluate(&vec![9, 9, 9]).unwrap_err();
        assert_eq!(err.code, codes::BAD_REQUEST);
        let err = s.evaluate_batch(&[vec![9]]).unwrap_err();
        assert_eq!(err.code, codes::BAD_REQUEST);
    }

    #[test]
    fn a_hello_and_a_campaign_spec_read_each_spelling_alike() {
        use krigeval_engine::spec::CampaignSpec;

        let pool = pool();
        for (variogram, metric, gate) in [
            ("fit-after:12", "l1", "fixed"),
            ("fit-after:3", "L1", "variance"),
            ("fixed-linear:0.5", "l2", "variance:0.75"),
            ("spherical:0.1:2:3", "linf", "variance"),
            ("exponential:0:1:4", "l1", "fixed"),
            ("gaussian:0.2:1.5:2.5", "l2", "variance:2"),
        ] {
            // `campaign --variogram V --metric M --gate G` sets these spec
            // fields, and a run reads them off its expansion.
            let spec = CampaignSpec {
                variogram: VariogramSpec::parse(variogram).unwrap(),
                metric: metric.to_string(),
                gate: Some(parse_gate(gate).unwrap()),
                ..CampaignSpec::default()
            };
            let run = &spec.expand().unwrap()[0];
            let mut params = hello("fir");
            params.variogram = Some(variogram.to_string());
            params.metric = Some(metric.to_string());
            params.gate = Some(gate.to_string());
            let session = Session::open(1, &params, &pool).unwrap();
            let settings = session.evaluator.settings();
            assert_eq!(
                Some(&settings.variogram),
                run.variogram.policy().as_ref(),
                "{variogram}"
            );
            assert_eq!(settings.metric, run.metric, "{metric}");
            assert_eq!(settings.gate, run.gate, "{gate}");
        }
    }

    #[test]
    fn a_refit_variogram_is_a_bad_request() {
        let mut params = hello("fir");
        params.variogram = Some("refit:8:4".to_string());
        let err = Session::open(1, &params, &pool()).unwrap_err();
        assert_eq!(err.code, codes::BAD_REQUEST);
        assert_eq!(err.message, "unknown variogram policy \"refit\"");
    }

    #[test]
    fn pilot_variogram_is_rejected_as_unsupported() {
        let pool = pool();
        let mut params = hello("fir");
        params.variogram = Some("pilot".to_string());
        let err = Session::open(1, &params, &pool).unwrap_err();
        assert_eq!(err.code, codes::UNSUPPORTED);
    }

    #[test]
    fn hello_parameter_errors_are_typed() {
        let pool = pool();
        assert_eq!(
            Session::open(1, &hello("nope"), &pool).unwrap_err().code,
            codes::BAD_REQUEST
        );
        let mut params = hello("fir");
        params.d = Some(-1.0);
        assert_eq!(
            Session::open(1, &params, &pool).unwrap_err().code,
            codes::BAD_REQUEST
        );
        let mut params = hello("fir");
        params.metric = Some("hamming".to_string());
        assert_eq!(
            Session::open(1, &params, &pool).unwrap_err().code,
            codes::BAD_REQUEST
        );
    }

    #[test]
    fn gate_selection_and_nugget_hello_knobs_are_parsed() {
        let pool = pool();
        let mut params = hello("fir");
        params.gate = Some("variance:0.75".to_string());
        params.selection = Some("loo".to_string());
        let s = Session::open(1, &params, &pool).unwrap();
        assert_eq!(s.benchmark(), "fir64");
        let mut params = hello("fir");
        params.nugget = Some("0.25".to_string());
        assert!(Session::open(2, &params, &pool).is_ok());
        // Bad values are typed bad_request frames, not panics.
        for (gate, selection, nugget) in [
            (Some("variance:nope"), None, None),
            (Some("variance:-1"), None, None),
            (Some("chaos"), None, None),
            (None, Some("aic"), None),
            (None, None, Some("-0.5")),
            (None, None, Some("soup")),
            (None, None, Some("auto")),
        ] {
            let mut params = hello("fir");
            params.gate = gate.map(str::to_string);
            params.selection = selection.map(str::to_string);
            params.nugget = nugget.map(str::to_string);
            assert_eq!(
                Session::open(3, &params, &pool).unwrap_err().code,
                codes::BAD_REQUEST,
                "gate {gate:?} selection {selection:?} nugget {nugget:?}"
            );
        }
        // A zero min_neighbors from the wire hits settings validation.
        let mut params = hello("fir");
        params.min_neighbors = Some(0);
        assert_eq!(
            Session::open(4, &params, &pool).unwrap_err().code,
            codes::BAD_REQUEST
        );
    }

    #[test]
    fn optimize_and_snapshot_ride_the_session_state() {
        let pool = pool();
        let mut params = hello("fir");
        params.variogram = Some("fixed-linear:1.0".to_string());
        let mut s = Session::open(1, &params, &pool).unwrap();
        let result = s.optimize().unwrap();
        assert!(result.lambda >= 28.0, "fir's canonical constraint holds");
        let snapshot = s.snapshot();
        assert_eq!(snapshot.stats.queries, s.stats().queries);
        assert!(!snapshot.configs.is_empty());
    }
}
