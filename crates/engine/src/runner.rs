//! Executes one resolved [`RunSpec`]: builds the benchmark instance,
//! obtains a variogram model per the spec's policy, drives the optimizer
//! through the hybrid evaluator, and distils the session into a
//! [`RunRecord`].
//!
//! Each attempt builds its instance once. The pilot and hybrid phases,
//! every pool worker and the backend's local evaluator get their own
//! evaluator handle on it ([`ProblemInstance::new_evaluator`]), so they
//! share one simulator and, for the benchmarks that resume (the CNNs,
//! iir8, fft64 and hevc_mc), one checkpoint store.
//!
//! Each phase fulfills its simulations through one [`EngineBackend`] of
//! `run.threads` threads, at every thread count: a one-thread backend
//! simulates on the caller. Every simulation — pilot and hybrid alike —
//! goes through the shared [`SimCache`], namespaced by `(benchmark,
//! scale, run seed)`: exactly the inputs that determine the simulated
//! surface. Kriged estimates are never cached (interpolated points must
//! never feed back as kriging data), so the cache changes wall-clock time
//! only, never results.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use krigeval_core::evaluator::AccuracyEvaluator;
use krigeval_core::hybrid::{nugget_variance, HybridEvaluator, VariogramPolicy};
use krigeval_core::opt::descent::{budget_error_sources, DescentOptions};
use krigeval_core::opt::minplusone::{optimize, optimize_with_tie_break, MinPlusOneOptions};
use krigeval_core::opt::{DseEvaluator, OptError, OptimizationResult, SimulateAll};
use krigeval_core::trace::Step;
use krigeval_core::{Config, FiniteGuard, VariogramModel};

use crate::backend::EngineBackend;
use crate::cache::SimCache;
use crate::fault::{FaultConfig, FaultPhase, FaultStream};
use crate::obs::{minor_faults, CampaignObs};
use crate::sink::RunRecord;
use crate::spec::{OptimizerSpec, RunSpec};
use crate::suite::{build_seeded, Problem, ProblemInstance};
use crate::Scale;

/// Cache namespace for a run: everything that determines the simulated
/// surface, nothing that does not (``d``, ``N_n,min``, ``λ_min`` and the
/// variogram policy all share one namespace).
pub fn cache_namespace(run: &RunSpec) -> String {
    surface_namespace(run.problem, run.scale, run.run_seed)
}

/// The namespace of one simulated surface, `benchmark/scale/seed`: the
/// [`SimCache`] and [`FaultStream`] key of a campaign run and of a server
/// session alike.
pub fn surface_namespace(problem: Problem, scale: Scale, seed: u64) -> String {
    format!("{}/{}/{seed:016x}", problem.label(), scale.label())
}

/// The content-addressed fault stream for one attempt of one run phase,
/// or `None` when the run injects no faults. Keyed on the run's cache
/// namespace — `benchmark/scale/run_seed`, the same content identity the
/// cache uses — so any thread count and any process shard draw identical
/// fates for identical configurations.
fn fault_stream(run: &RunSpec, attempt: u32, phase: FaultPhase) -> Option<FaultStream> {
    run.fault
        .filter(FaultConfig::is_active)
        .map(|config| FaultStream::new(config, &cache_namespace(run), attempt, phase))
}

/// The backend one run phase fulfills through: `run.threads` simulating
/// threads (one spawns none and simulates on the caller), each with its
/// own evaluator handle on `instance` behind a [`FiniteGuard`], so
/// non-finite values error before they can be cached. Every computation
/// first draws its content-addressed fault fate, then goes through the
/// shared cache namespace, so the fates and the values do not depend on
/// the thread count.
fn engine_backend(
    run: &RunSpec,
    instance: &ProblemInstance,
    cache: &Arc<SimCache>,
    attempt: u32,
    phase: FaultPhase,
    obs: Option<&CampaignObs>,
) -> EngineBackend {
    let backend = EngineBackend::new(
        || {
            Box::new(FiniteGuard::new(instance.new_evaluator()))
                as Box<dyn AccuracyEvaluator + Send>
        },
        run.threads,
        Arc::clone(cache),
        cache_namespace(run),
    )
    .with_faults(fault_stream(run, attempt, phase));
    match obs {
        Some(obs) => backend.with_obs(obs.backend_obs(run.problem.label())),
        None => backend,
    }
}

fn resolved_instance(run: &RunSpec) -> ProblemInstance {
    let mut instance = build_seeded(run.problem, run.scale, run.run_seed);
    if let Some(lambda) = run.lambda_min {
        if let Some(opts) = instance.minplusone.as_mut() {
            opts.lambda_min = lambda;
        }
        if let Some(opts) = instance.descent.as_mut() {
            opts.lambda_min = lambda;
        }
    }
    instance
}

fn drive(
    evaluator: &mut dyn DseEvaluator,
    optimizer: OptimizerSpec,
    minplusone: Option<&MinPlusOneOptions>,
    descent: Option<&DescentOptions>,
) -> Result<OptimizationResult, OptError> {
    match optimizer {
        OptimizerSpec::Auto => {
            if let Some(opts) = minplusone {
                optimize(evaluator, opts)
            } else if let Some(opts) = descent {
                budget_error_sources(evaluator, opts)
            } else {
                unreachable!("every problem has an optimizer")
            }
        }
        OptimizerSpec::TieBreak { tolerance } => {
            let opts = minplusone.expect("validated by CampaignSpec::expand");
            optimize_with_tie_break(evaluator, opts, tolerance)
        }
    }
}

/// Identifies the variogram by the Table I pilot protocol: a pure-simulation
/// run of the same optimizer, fitted over the deduplicated `(config, λ)`
/// trajectory with the run's selection criterion and nugget. Returns the
/// model and the number of **distinct** pilot configurations (the
/// deterministic measure of pilot cost — repeat pilots across grid cells
/// are served by the shared cache).
fn pilot_model(
    run: &RunSpec,
    instance: &ProblemInstance,
    cache: &Arc<SimCache>,
    attempt: u32,
    obs: Option<&CampaignObs>,
) -> Result<(VariogramModel, u64), OptError> {
    // Tie-breaking re-simulates ties, which is a no-op distinction under
    // pure simulation; the problem's plain optimizer gives the identical
    // pilot trajectory at lower bookkeeping cost.
    let result = drive(
        &mut SimulateAll(engine_backend(
            run,
            instance,
            cache,
            attempt,
            FaultPhase::Pilot,
            obs,
        )),
        OptimizerSpec::Auto,
        instance.minplusone.as_ref(),
        instance.descent.as_ref(),
    )?;
    let (configs, values) = distinct_steps(&result.trace.steps);
    let distinct = configs.len() as u64;
    // Identified once every distinct configuration is in, the way a
    // fit-after session does.
    let (model, _) = VariogramPolicy::fit_after(configs.len()).identify(
        &configs,
        &values,
        run.metric,
        run.selection,
        nugget_variance(run.nugget),
    );
    Ok((model, distinct))
}

/// The trajectory's distinct configurations, each at its first
/// occurrence and with that occurrence's λ, in trajectory order: revisits
/// would create zero-distance pairs.
fn distinct_steps(steps: &[Step]) -> (Vec<Config>, Vec<f64>) {
    let mut seen: HashSet<&[i32]> = HashSet::with_capacity(steps.len());
    steps
        .iter()
        .filter(|step| seen.insert(&step.config))
        .map(|step| (step.config.clone(), step.lambda))
        .unzip()
}

fn variogram_policy(
    run: &RunSpec,
    instance: &ProblemInstance,
    cache: &Arc<SimCache>,
    attempt: u32,
    obs: Option<&CampaignObs>,
) -> Result<(VariogramPolicy, u64), OptError> {
    Ok(match run.variogram.policy() {
        Some(policy) => (policy, 0),
        None => {
            let (model, pilot_sims) = pilot_model(run, instance, cache, attempt, obs)?;
            (VariogramPolicy::Fixed(model), pilot_sims)
        }
    })
}

/// Runs one campaign cell to completion.
///
/// # Errors
///
/// Propagates optimizer failures ([`OptError`]) from the pilot or the
/// hybrid run; an infeasible constraint indicates a mis-specified cell and
/// should surface, not be masked.
pub fn run_single(run: &RunSpec, cache: &Arc<SimCache>) -> Result<RunRecord, OptError> {
    run_single_attempt_obs(run, cache, 0, None)
}

/// Runs one campaign cell as a specific retry attempt, with an optional
/// campaign observability bundle. The attempt number feeds the
/// fault-injection stream (each retry draws fresh faults) and nothing
/// else: a successful attempt produces the same record regardless of its
/// attempt number, because every record field derives from the run's own
/// deterministic session, never from shared scheduling state. With `obs`,
/// the run's hybrid evaluator and its backend register into the
/// campaign's shared metric registry and emit events through its tracer.
/// Metrics never influence results — the record is bit-identical with or
/// without `obs`.
///
/// # Errors
///
/// Propagates optimizer failures ([`OptError`]) from the pilot or the
/// hybrid run.
pub fn run_single_attempt_obs(
    run: &RunSpec,
    cache: &Arc<SimCache>,
    attempt: u32,
    obs: Option<&CampaignObs>,
) -> Result<RunRecord, OptError> {
    let started = Instant::now();
    let faults_at_start = obs.filter(|o| o.timing()).and_then(|_| minor_faults());
    let instance = resolved_instance(run);
    let (policy, pilot_sims) = variogram_policy(run, &instance, cache, attempt, obs)?;
    let lambda_min = instance
        .minplusone
        .as_ref()
        .map(|o| o.lambda_min)
        .or(instance.descent.as_ref().map(|o| o.lambda_min))
        .expect("every problem has an optimizer");
    let mut hybrid = HybridEvaluator::new(
        engine_backend(run, &instance, cache, attempt, FaultPhase::Hybrid, obs),
        run.hybrid_settings(policy),
    );
    if let Some(obs) = obs {
        hybrid.set_obs(Some(obs.hybrid_obs()));
    }
    let result = drive(
        &mut hybrid,
        run.optimizer,
        instance.minplusone.as_ref(),
        instance.descent.as_ref(),
    )?;
    if let Some(obs) = obs {
        if let Some(resume) = instance.resume_stats() {
            obs.record_resume_stats(run.problem.label(), &resume);
        }
        if let (Some(start), Some(now)) = (faults_at_start, minor_faults()) {
            obs.record_minor_faults(run.problem.label(), now.saturating_sub(start));
        }
    }
    let stats = hybrid.stats();
    Ok(RunRecord {
        index: run.index,
        benchmark: run.problem.label().to_string(),
        metric: run.problem.metric_label().to_string(),
        scale: run.scale.label().to_string(),
        optimizer: run.optimizer.label(),
        variogram: run.variogram.label(),
        nv: run.problem.nv(),
        d: run.distance,
        min_neighbors: run.min_neighbors,
        lambda_min,
        seed: run.run_seed,
        repeat: run.repeat,
        solution: result.solution.clone(),
        lambda: result.lambda,
        iterations: result.iterations,
        queries: stats.queries,
        simulated: stats.simulated,
        kriged: stats.kriged,
        session_cache_hits: stats.cache_hits,
        kriging_failures: stats.kriging_failures,
        gate: run.gate.label(),
        gate_rejections: stats.gate_rejections,
        p_percent: stats.interpolated_fraction() * 100.0,
        mean_neighbors: stats.mean_neighbors(),
        mean_variance: stats.mean_variance(),
        audit_mean_eps: stats.errors.mean(),
        audit_max_eps: stats.errors.max(),
        audit_count: stats.errors.count(),
        pilot_sims,
        wall_ms: Some(started.elapsed().as_secs_f64() * 1000.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CampaignSpec, OptimizerSpec, VariogramSpec};

    fn fir_run(d: f64) -> RunSpec {
        let spec = CampaignSpec {
            benchmarks: vec!["fir".to_string()],
            distances: vec![d],
            ..CampaignSpec::default()
        };
        spec.expand().unwrap().remove(0)
    }

    #[test]
    fn the_pilot_keeps_each_configuration_at_its_first_occurrence() {
        let step = |config: &[i32], lambda: f64| Step {
            config: config.to_vec(),
            lambda,
            source: krigeval_core::trace::Source::Simulated,
        };
        let steps = [
            step(&[8, 8], 1.0),
            step(&[9, 8], 2.0),
            step(&[8, 8], 1.0),
            step(&[8, 9], 3.0),
            // A repeat whose λ differs keeps the first one.
            step(&[9, 8], 7.5),
            step(&[9, 9], 4.0),
            step(&[8, 9], 3.0),
        ];
        let (configs, values) = distinct_steps(&steps);
        assert_eq!(
            configs,
            vec![vec![8, 8], vec![9, 8], vec![8, 9], vec![9, 9]]
        );
        assert_eq!(values, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(distinct_steps(&[]), (vec![], vec![]));
    }

    #[test]
    fn the_pilot_identifies_with_the_runs_selection() {
        // The pilot fits through the session's identification, so
        // leave-one-out selection reaches a Pilot run: on IIR at d = 2 it
        // picks another model than weighted SSE, and the records differ.
        let cell = |loo_select: Option<bool>| {
            let spec = CampaignSpec {
                benchmarks: vec!["iir".to_string()],
                distances: vec![2.0],
                loo_select,
                ..CampaignSpec::default()
            };
            let run = spec.expand().unwrap().remove(0);
            assert_eq!(run.variogram, VariogramSpec::Pilot);
            let mut record = run_single(&run, &Arc::new(SimCache::new())).unwrap();
            record.wall_ms = None;
            record
        };
        let (sse, loo) = (cell(None), cell(Some(true)));
        assert_eq!(sse.pilot_sims, loo.pilot_sims, "one pilot trajectory");
        assert_ne!(sse, loo);
        assert_ne!(sse.p_percent, loo.p_percent);
    }

    #[test]
    fn fir_cell_runs_and_audits() {
        let cache = Arc::new(SimCache::new());
        let record = run_single(&fir_run(3.0), &cache).unwrap();
        assert_eq!(record.benchmark, "fir64");
        assert_eq!(record.nv, 2);
        assert!(record.queries > 0);
        assert!(record.simulated > 0);
        assert!(record.pilot_sims > 0, "pilot protocol ran");
        assert!(record.lambda >= record.lambda_min);
        assert!(record.wall_ms.is_some());
    }

    #[test]
    fn shared_cache_spares_repeat_simulations() {
        let cache = Arc::new(SimCache::new());
        let first = run_single(&fir_run(3.0), &cache).unwrap();
        let before = cache.stats();
        // A second cell on the same surface (different d) repeats the pilot
        // and much of the trajectory: its simulations mostly hit the cache.
        let second = run_single(&fir_run(2.0), &cache).unwrap();
        let after = cache.stats();
        assert!(
            after.hits > before.hits,
            "no cache hits across cells: {before:?} -> {after:?}"
        );
        // The cached values are exact, so both records stand on the same
        // simulated surface.
        assert_eq!(first.benchmark, second.benchmark);
        assert_eq!(first.seed, second.seed);
    }

    #[test]
    fn fixed_linear_policy_skips_the_pilot() {
        let cache = Arc::new(SimCache::new());
        let mut run = fir_run(3.0);
        run.variogram = VariogramSpec::FixedLinear { slope: 1.0 };
        let record = run_single(&run, &cache).unwrap();
        assert_eq!(record.pilot_sims, 0);
        assert!(record.queries > 0);
    }

    #[test]
    fn tie_break_optimizer_is_accepted() {
        let cache = Arc::new(SimCache::new());
        let mut run = fir_run(3.0);
        run.optimizer = OptimizerSpec::TieBreak { tolerance: 0.5 };
        let record = run_single(&run, &cache).unwrap();
        assert!(record.optimizer.starts_with("tiebreak"));
        assert!(record.lambda >= record.lambda_min);
    }

    #[test]
    fn threaded_runs_reproduce_inline_records() {
        let inline = run_single(&fir_run(3.0), &Arc::new(SimCache::new())).unwrap();
        let mut threaded_run = fir_run(3.0);
        threaded_run.threads = 4;
        let threaded = run_single(&threaded_run, &Arc::new(SimCache::new())).unwrap();
        let strip = |mut r: RunRecord| {
            r.wall_ms = None;
            r
        };
        assert_eq!(strip(inline), strip(threaded));
    }

    #[test]
    fn lambda_override_applies() {
        let cache = Arc::new(SimCache::new());
        let mut run = fir_run(3.0);
        run.lambda_min = Some(20.0);
        let record = run_single(&run, &cache).unwrap();
        assert_eq!(record.lambda_min, 20.0);
        assert!(record.lambda >= 20.0);
    }
}
