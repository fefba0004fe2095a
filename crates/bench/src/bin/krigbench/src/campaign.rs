//! The two campaign workloads: `table1-smoke` (the CI preset of the
//! Table-I matrix) and `dse-speedup` (the paper-scale word-length kernels
//! with audit off, next to their simulate-all baseline).
//!
//! Untraced passes go through the engine's public entry point,
//! `run_specs_opts`. The traced pass cannot: the runner assembles its
//! evaluator stack privately. It rebuilds the same stack from public
//! parts with span-recording wrappers at each layer boundary, and checks
//! that every run reproduces the untraced record bit for bit.

use std::sync::Arc;
use std::time::Instant;

use krigeval_core::hybrid::{HybridEvaluator, HybridSettings, HybridStats, VariogramPolicy};
use krigeval_core::opt::descent::{budget_error_sources, DescentOptions};
use krigeval_core::opt::minplusone::{optimize, MinPlusOneOptions};
use krigeval_core::opt::{DseEvaluator, OptError, OptimizationResult, SimulateAll};
use krigeval_core::variogram::{fit_model, EmpiricalVariogram, ModelFamily};
use krigeval_core::{AccuracyEvaluator, Config, FiniteGuard, VariogramModel};
use krigeval_engine::fault::FaultPolicy;
use krigeval_engine::runner::cache_namespace;
use krigeval_engine::suite::build_seeded;
use krigeval_engine::{
    check_table_shape, run_specs_opts, summarize, CacheStats, CachedEvaluator, CampaignSpec,
    EngineBackend, ExecOptions, MatrixSpec, RunRecord, RunSpec, SimCache, VariogramSpec,
};
use serde_json::Value;

use crate::measure::process_cpu_s;
use crate::report::int;
use crate::spans::{self, now_ns, record, Layer};
use crate::timed::{TimedBackend, TimedDse, TimedSim};
use crate::{Pass, SplitMix64, Traced, EPS_SEED};

/// Which campaign workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `MatrixSpec::smoke()`: all eight benchmarks, audit on, pool of 2.
    Table1Smoke,
    /// fir/iir/fft/hevc at paper scale, audit off, plus the baseline.
    DseSpeedup,
}

/// A campaign workload and the first pass's results, which every later
/// pass (and the traced pass) must reproduce exactly.
pub struct Campaign {
    kind: Kind,
    runs: Vec<RunSpec>,
    reference: Option<Vec<RunRecord>>,
    baseline_reference: Option<Vec<Config>>,
}

/// Executor workers: one run at a time, so the in-run pool is the only
/// parallelism and a traced run is never overlapped by another.
const WORKERS: usize = 1;

impl Campaign {
    /// The CI smoke preset. The preset pins its instances (seed 0), so
    /// `seed` only permutes the run order; each benchmark has its own
    /// cache namespace, so the order changes neither results nor work.
    pub fn table1_smoke(seed: u64) -> Result<Campaign, String> {
        let mut runs = MatrixSpec::smoke().expand().map_err(|e| e.to_string())?;
        let mut rng = SplitMix64::new(seed);
        for i in (1..runs.len()).rev() {
            runs.swap(i, rng.below(i as u64 + 1) as usize);
        }
        Ok(Campaign::new(Kind::Table1Smoke, runs))
    }

    /// The deployment mode: in-session variogram fits, no audit, inline
    /// backend; `seed` is the campaign base seed of the three repeats.
    pub fn dse_speedup(seed: u64) -> Result<Campaign, String> {
        Ok(Campaign::new(Kind::DseSpeedup, dse_runs(seed, false)?))
    }

    fn new(kind: Kind, runs: Vec<RunSpec>) -> Campaign {
        Campaign {
            kind,
            runs,
            reference: None,
            baseline_reference: None,
        }
    }

    fn threads(&self) -> usize {
        self.runs.first().map_or(1, |r| r.threads)
    }

    /// Executor workers and in-run threads, for the result context.
    pub fn context(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("runs", int(self.runs.len() as u64)),
            ("workers", int(WORKERS as u64)),
            ("threads", int(self.threads() as u64)),
        ]
    }

    /// Set-up: building every run's benchmark instance once.
    pub fn setup_s(&self) -> f64 {
        let started = Instant::now();
        for run in &self.runs {
            std::hint::black_box(build_seeded(run.problem, run.scale, run.run_seed));
        }
        started.elapsed().as_secs_f64()
    }

    /// One untraced pass through `run_specs_opts`, plus (for
    /// `dse-speedup`) the simulate-all baseline over the same instances.
    pub fn pass(&mut self) -> Result<Pass, String> {
        let cpu_before = process_cpu_s()?;
        let started = Instant::now();
        let outcome = run_specs_opts(
            self.runs.clone(),
            ExecOptions {
                workers: WORKERS,
                policy: FaultPolicy::Skip,
                ..ExecOptions::default()
            },
        )
        .map_err(|e| e.to_string())?;
        let wall_s = started.elapsed().as_secs_f64();
        let cpu_s = process_cpu_s()? - cpu_before;

        let mut records = outcome.records;
        records.sort_by_key(|r| r.index);
        let mut pass = Pass {
            attempted: self.runs.len() as u64,
            failed: outcome.failures.len() as u64,
            ..Pass::default()
        };
        for failure in &outcome.failures {
            pass.problems
                .push(format!("run {} failed: {}", failure.index, failure.error));
        }
        let queries: u64 = records.iter().map(|r| r.queries).sum();
        let kriged: u64 = records.iter().map(|r| r.kriged).sum();
        pass.push("latency_ms", wall_s * 1e3);
        pass.push("sims", outcome.cache.misses as f64);
        pass.push("p_percent", 100.0 * kriged as f64 / queries.max(1) as f64);
        pass.push("wall_s", wall_s);
        pass.push("cpu_s", cpu_s);

        match self.kind {
            Kind::Table1Smoke => {
                for violation in check_table_shape(&summarize(&records)) {
                    pass.problems.push(format!("table shape: {violation}"));
                }
                pass.push("eps_mean", pooled_eps(&records));
            }
            Kind::DseSpeedup => {
                self.baseline(&records, wall_s, outcome.cache.misses, &mut pass)?;
                if self.reference.is_none() {
                    let eps = Campaign::audited_eps(&mut pass.problems)?;
                    pass.push("eps_mean", eps);
                }
            }
        }
        pass.push("failed_share", pass.failed as f64 / pass.attempted as f64);

        for record in &mut records {
            record.wall_ms = None;
        }
        match &self.reference {
            None => self.reference = Some(records),
            Some(reference) if *reference != records => pass
                .problems
                .push("records differ from the first pass".to_string()),
            Some(_) => {}
        }
        Ok(pass)
    }

    /// `eps_mean` of the deployment mode, which never computes it: the
    /// seed-[`EPS_SEED`] campaign once, untimed, with audit on (audit
    /// only observes, so it makes the same decisions).
    fn audited_eps(problems: &mut Vec<String>) -> Result<f64, String> {
        let outcome = run_specs_opts(
            dse_runs(EPS_SEED, true)?,
            ExecOptions {
                workers: WORKERS,
                policy: FaultPolicy::Skip,
                ..ExecOptions::default()
            },
        )
        .map_err(|e| e.to_string())?;
        for failure in &outcome.failures {
            problems.push(format!(
                "audited run {} failed: {}",
                failure.index, failure.error
            ));
        }
        Ok(pooled_eps(&outcome.records))
    }

    /// The simulate-all baseline: the same instances and optimizer with
    /// every query simulated through a fresh shared cache.
    fn baseline(
        &mut self,
        records: &[RunRecord],
        hybrid_wall_s: f64,
        hybrid_sims: u64,
        pass: &mut Pass,
    ) -> Result<(), String> {
        let cache = Arc::new(SimCache::new());
        let started = Instant::now();
        let mut solutions: Vec<Config> = Vec::new();
        let mut diverged = 0;
        let mut per_kernel: Vec<(&'static str, f64, f64)> = Vec::new();
        for run in &self.runs {
            let run_started = Instant::now();
            let instance = build_seeded(run.problem, run.scale, run.run_seed);
            let mut simall = SimulateAll(CachedEvaluator::new(
                FiniteGuard::new(instance.evaluator),
                Arc::clone(&cache),
                cache_namespace(run),
            ));
            let result = drive(
                &mut simall,
                instance.minplusone.as_ref(),
                instance.descent.as_ref(),
            )
            .map_err(|e| format!("baseline run {}: {e}", run.index))?;
            let simall_ms = run_started.elapsed().as_secs_f64() * 1e3;
            let hybrid = records
                .iter()
                .find(|r| r.index == run.index)
                .ok_or_else(|| format!("run {} has no hybrid record", run.index))?;
            diverged += usize::from(hybrid.solution != result.solution);
            let hybrid_ms = hybrid.wall_ms.unwrap_or(f64::NAN);
            let label = run.problem.label();
            match per_kernel.iter_mut().find(|(l, _, _)| *l == label) {
                Some(entry) => {
                    entry.1 += simall_ms;
                    entry.2 += hybrid_ms;
                }
                None => per_kernel.push((label, simall_ms, hybrid_ms)),
            }
            solutions.push(result.solution);
        }
        let simall_wall_s = started.elapsed().as_secs_f64();
        let simall_sims = cache.stats().misses;
        pass.push("simall_wall_s", simall_wall_s);
        pass.push("simall_sims", simall_sims as f64);
        pass.push("decisions_diverged", diverged as f64);
        pass.push("speedup_x", simall_wall_s / hybrid_wall_s);
        for (label, simall_ms, hybrid_ms) in per_kernel {
            pass.push(&format!("speedup_x.{label}"), simall_ms / hybrid_ms);
        }
        if hybrid_sims >= simall_sims {
            pass.problems.push(format!(
                "hybrid simulated {hybrid_sims} configurations, the baseline only {simall_sims}"
            ));
        }
        match &self.baseline_reference {
            None => self.baseline_reference = Some(solutions),
            Some(reference) if *reference != solutions => pass
                .problems
                .push("baseline solutions differ from the first pass".to_string()),
            Some(_) => {}
        }
        Ok(())
    }

    /// The traced pass: every run through the rebuilt, span-recording
    /// stack, checked against the untraced records.
    pub fn traced(&self, untraced_wall_s: f64) -> Result<Traced, String> {
        let reference = self
            .reference
            .as_ref()
            .ok_or("the traced pass needs an untraced pass first")?;
        spans::drain();
        let cache = Arc::new(SimCache::new());
        let baseline_cache = Arc::new(SimCache::new());
        let mut traced = Traced::default();
        for run in &self.runs {
            let untraced = reference
                .iter()
                .find(|r| r.index == run.index)
                .ok_or_else(|| format!("run {} has no untraced record", run.index))?;
            let root = now_ns();
            let replayed = traced_run(run, &cache)?;
            record(Layer::Run, run.problem.label(), root, 1, Vec::new());
            if let Some(field) = replayed.mismatch(untraced) {
                traced.problems.push(format!(
                    "run {} ({}): traced {field} differs from the untraced record",
                    run.index, untraced.benchmark
                ));
            }
        }
        if let Some(solutions) = &self.baseline_reference {
            for (run, solution) in self.runs.iter().zip(solutions) {
                let root = now_ns();
                let instance = build_seeded(run.problem, run.scale, run.run_seed);
                let mut simall = SimulateAll(TimedBackend::new(Box::new(inline_stack(
                    instance.evaluator,
                    run,
                    &baseline_cache,
                ))));
                let result = drive(
                    &mut simall,
                    instance.minplusone.as_ref(),
                    instance.descent.as_ref(),
                )
                .map_err(|e| format!("traced baseline run {}: {e}", run.index))?;
                record(Layer::Run, "simall", root, 1, Vec::new());
                if &result.solution != solution {
                    traced.problems.push(format!(
                        "baseline run {}: traced solution differs from the untraced one",
                        run.index
                    ));
                }
            }
        }
        traced.spans = spans::drain();
        traced.cache = merge_stats(cache.stats(), baseline_cache.stats());
        traced.threads = self.threads();
        traced.codec_ms = codec_ms(reference)?;
        traced.overhead_ratio = traced.root_wall_s() / untraced_wall_s;
        Ok(traced)
    }
}

/// The dse-speedup runs for campaign base seed `seed`.
fn dse_runs(seed: u64, audit: bool) -> Result<Vec<RunSpec>, String> {
    let spec = CampaignSpec {
        name: "krigbench-dse-speedup".to_string(),
        benchmarks: ["fir", "iir", "fft", "hevc"].map(String::from).to_vec(),
        scale: "paper".to_string(),
        distances: vec![3.0],
        min_neighbors: vec![3],
        variogram: VariogramSpec::FitAfter { min_samples: 30 },
        seed,
        repeats: 3,
        audit,
        threads: Some(1),
        ..CampaignSpec::default()
    };
    spec.expand().map_err(|e| e.to_string())
}

/// The audit error pooled over every audited interpolation of `records`.
fn pooled_eps(records: &[RunRecord]) -> f64 {
    let audited: u64 = records.iter().map(|r| r.audit_count).sum();
    let eps: f64 = records
        .iter()
        .map(|r| r.audit_mean_eps * r.audit_count as f64)
        .sum();
    eps / audited.max(1) as f64
}

fn merge_stats(a: CacheStats, b: CacheStats) -> CacheStats {
    CacheStats {
        lookups: a.lookups + b.lookups,
        hits: a.hits + b.hits,
        misses: a.misses + b.misses,
    }
}

/// The sink layer: encoding every record as a JSONL row and decoding it
/// back, checked for an exact round trip.
fn codec_ms(records: &[RunRecord]) -> Result<f64, String> {
    let started = Instant::now();
    for record in records {
        let line = serde_json::to_string(record).map_err(|e| e.to_string())?;
        let back: RunRecord = serde_json::from_str(&line).map_err(|e| e.to_string())?;
        if &back != record {
            return Err(format!("record {} does not survive JSONL", record.index));
        }
    }
    Ok(started.elapsed().as_secs_f64() * 1e3)
}

/// The runner's optimizer choice for `OptimizerSpec::Auto`.
fn drive(
    evaluator: &mut dyn DseEvaluator,
    minplusone: Option<&MinPlusOneOptions>,
    descent: Option<&DescentOptions>,
) -> Result<OptimizationResult, OptError> {
    match (minplusone, descent) {
        (Some(opts), _) => optimize(evaluator, opts),
        (None, Some(opts)) => budget_error_sources(evaluator, opts),
        (None, None) => unreachable!("every suite problem carries an optimizer"),
    }
}

/// The runner's inline stack (`threads = 1`): guard over shared cache
/// over the simulator, with the simulator timed.
fn inline_stack(
    evaluator: Box<dyn AccuracyEvaluator + Send>,
    run: &RunSpec,
    cache: &Arc<SimCache>,
) -> FiniteGuard<CachedEvaluator<TimedSim<Box<dyn AccuracyEvaluator + Send>>>> {
    FiniteGuard::new(CachedEvaluator::new(
        TimedSim::new(evaluator, run.problem.label()),
        Arc::clone(cache),
        cache_namespace(run),
    ))
}

/// The runner's backend for `run`: the worker pool when `threads > 1`
/// (one timed simulator per worker), the inline stack otherwise.
fn backend(run: &RunSpec, cache: &Arc<SimCache>) -> TimedBackend {
    if run.threads > 1 {
        let (problem, scale, seed) = (run.problem, run.scale, run.run_seed);
        TimedBackend::new(Box::new(EngineBackend::new(
            move || {
                Box::new(FiniteGuard::new(TimedSim::new(
                    build_seeded(problem, scale, seed).evaluator,
                    problem.label(),
                ))) as Box<dyn AccuracyEvaluator + Send>
            },
            run.threads,
            Arc::clone(cache),
            cache_namespace(run),
        )))
    } else {
        let instance = build_seeded(run.problem, run.scale, run.run_seed);
        TimedBackend::new(Box::new(inline_stack(instance.evaluator, run, cache)))
    }
}

/// What the traced copy of a run produced, in the fields the untraced
/// record carries.
struct Replayed {
    result: OptimizationResult,
    stats: HybridStats,
}

impl Replayed {
    /// The first record field the traced run does not reproduce bitwise.
    fn mismatch(&self, record: &RunRecord) -> Option<&'static str> {
        let (r, s) = (&self.result, &self.stats);
        let checks = [
            ("solution", r.solution == record.solution),
            ("lambda", r.lambda.to_bits() == record.lambda.to_bits()),
            ("queries", s.queries == record.queries),
            ("simulated", s.simulated == record.simulated),
            ("kriged", s.kriged == record.kriged),
            (
                "audit mean",
                s.errors.mean().to_bits() == record.audit_mean_eps.to_bits(),
            ),
            (
                "audit max",
                s.errors.max().to_bits() == record.audit_max_eps.to_bits(),
            ),
            ("audit count", s.errors.count() == record.audit_count),
        ];
        checks.iter().find(|(_, ok)| !ok).map(|(field, _)| *field)
    }
}

/// One run through the rebuilt stack: the pilot (Table-I protocol) or an
/// online policy, then the hybrid session under span-recording wrappers.
fn traced_run(run: &RunSpec, cache: &Arc<SimCache>) -> Result<Replayed, String> {
    let instance = build_seeded(run.problem, run.scale, run.run_seed);
    let failed = |e: OptError| format!("traced run {}: {e}", run.index);
    let variogram = match run.variogram {
        VariogramSpec::Pilot => {
            let start = now_ns();
            let mut pilot = SimulateAll(backend(run, cache));
            let result = drive(
                &mut pilot,
                instance.minplusone.as_ref(),
                instance.descent.as_ref(),
            )
            .map_err(failed)?;
            record(Layer::Pilot, "", start, 1, Vec::new());
            let start = now_ns();
            let mut configs: Vec<Config> = Vec::new();
            let mut values: Vec<f64> = Vec::new();
            for step in &result.trace.steps {
                if !configs.contains(&step.config) {
                    configs.push(step.config.clone());
                    values.push(step.lambda);
                }
            }
            let model = EmpiricalVariogram::from_configs(&configs, &values, run.metric)
                .and_then(|emp| fit_model(&emp, &ModelFamily::all()))
                .map(|report| report.model)
                .unwrap_or_else(|_| VariogramModel::linear(1.0));
            record(Layer::Variogram, "", start, 1, Vec::new());
            VariogramPolicy::Fixed(model)
        }
        VariogramSpec::FitAfter { min_samples } => VariogramPolicy::FitAfter {
            min_samples,
            families: ModelFamily::all().to_vec(),
            fallback: VariogramModel::linear(1.0),
        },
        other => return Err(format!("the traced pass does not rebuild {other:?}")),
    };
    let settings = HybridSettings {
        distance: run.distance,
        min_neighbors: run.min_neighbors,
        metric: run.metric,
        variogram,
        max_neighbors: run.max_neighbors,
        audit: run.audit.then(|| run.problem.audit_metric()),
        approx: run.approx,
        gate: run.gate,
        selection: run.selection,
        nugget: run.nugget,
    };
    let mut hybrid = TimedDse(HybridEvaluator::new(backend(run, cache), settings));
    let result = drive(
        &mut hybrid,
        instance.minplusone.as_ref(),
        instance.descent.as_ref(),
    )
    .map_err(failed)?;
    let stats = hybrid.0.stats().clone();
    Ok(Replayed { result, stats })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_order_is_a_seeded_permutation() {
        let a = Campaign::table1_smoke(7).unwrap();
        let b = Campaign::table1_smoke(7).unwrap();
        let c = Campaign::table1_smoke(8).unwrap();
        let order = |w: &Campaign| w.runs.iter().map(|r| r.index).collect::<Vec<_>>();
        assert_eq!(order(&a), order(&b));
        assert_ne!(order(&a), order(&c));
        let mut sorted = order(&a);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<u64>>());
    }

    #[test]
    fn dse_runs_are_the_four_kernels_three_times() {
        let w = Campaign::dse_speedup(3).unwrap();
        assert_eq!(w.runs.len(), 12);
        assert!(w.runs.iter().all(|r| r.threads == 1 && !r.audit));
        assert_eq!(w.threads(), 1);
    }
}
