//! End-to-end pipeline tests: benchmark kernel → hybrid evaluator →
//! optimizer, across crate boundaries.

use krigeval::core::hybrid::{AuditMetric, HybridEvaluator, HybridSettings};
use krigeval::core::opt::descent::{budget_error_sources, DescentOptions};
use krigeval::core::opt::minplusone::{optimize, MinPlusOneOptions};
use krigeval::core::opt::SimulateAll;
use krigeval::core::{AccuracyEvaluator, EvalError, FnEvaluator};
use krigeval::kernels::fir::FirBenchmark;
use krigeval::kernels::iir::IirBenchmark;
use krigeval::kernels::WordLengthBenchmark;
use krigeval::neural::SensitivityBenchmark;

fn fir_evaluator() -> impl AccuracyEvaluator {
    let bench = FirBenchmark::new(64, 0.2, 256, 7);
    FnEvaluator::new(2, move |w: &Vec<i32>| {
        bench.accuracy_db(w).map_err(EvalError::wrap)
    })
}

#[test]
fn fir_optimization_meets_constraint_with_pure_simulation() {
    let opts = MinPlusOneOptions::new(40.0);
    let mut ev = SimulateAll(fir_evaluator());
    let result = optimize(&mut ev, &opts).expect("feasible");
    assert!(result.lambda >= 40.0);
    assert!(result.solution.iter().all(|&w| (2..=16).contains(&w)));
}

#[test]
fn fir_optimization_with_kriging_finds_similar_solution() {
    let opts = MinPlusOneOptions::new(40.0);
    let mut pure = SimulateAll(fir_evaluator());
    let reference = optimize(&mut pure, &opts).expect("feasible");

    let mut hybrid = HybridEvaluator::new(
        fir_evaluator(),
        HybridSettings {
            distance: 4.0,
            ..HybridSettings::default()
        },
    );
    let assisted = optimize(&mut hybrid, &opts).expect("feasible");

    // The paper: the optimizer compensates for interpolation-induced
    // decision changes and "end[s] with a similar result".
    let drift: i32 = reference
        .solution
        .iter()
        .zip(&assisted.solution)
        .map(|(a, b)| (a - b).abs())
        .sum();
    assert!(drift <= 4, "solutions drifted {drift} unit steps apart");

    // The hybrid solution must be truly (simulation-verified) near-feasible.
    let mut check = fir_evaluator();
    let true_lambda = check.evaluate(&assisted.solution).expect("valid config");
    assert!(
        true_lambda >= 40.0 - 6.0,
        "hybrid solution truly at {true_lambda} dB"
    );
}

#[test]
fn iir_audit_mode_errors_stay_moderate() {
    let bench = IirBenchmark::new(8, 0.1, 512, 3);
    let ev = FnEvaluator::new(5, move |w: &Vec<i32>| {
        bench.accuracy_db(w).map_err(EvalError::wrap)
    });
    let settings = HybridSettings {
        distance: 3.0,
        audit: Some(AuditMetric::NoisePowerDb),
        ..HybridSettings::default()
    };
    let mut hybrid = HybridEvaluator::new(ev, settings);
    let opts = MinPlusOneOptions::new(45.0);
    optimize(&mut hybrid, &opts).expect("feasible");
    let stats = hybrid.stats();
    assert!(stats.queries > 20, "trajectory too short: {stats:?}");
    if stats.kriged > 0 {
        // The paper's IIR mean ε at d = 3 is 0.72 bit; stay in that regime.
        assert!(
            stats.errors.mean() < 2.5,
            "mean interpolation error {} bits",
            stats.errors.mean()
        );
    }
}

#[test]
fn sensitivity_budgeting_respects_quality_floor() {
    let bench = SensitivityBenchmark::new(32, 12, 11);
    let nv = bench.num_sources();
    let ev = FnEvaluator::new(nv, move |levels: &Vec<i32>| {
        let powers: Vec<f64> = levels.iter().map(|&l| -80.0 + 6.0 * f64::from(l)).collect();
        bench.classification_rate(&powers).map_err(EvalError::wrap)
    });
    let mut hybrid = HybridEvaluator::new(ev, HybridSettings::default());
    let opts = DescentOptions {
        lambda_min: 0.9,
        level_floor: 0,
        level_max: 10,
        max_iterations: 5_000,
    };
    let result = budget_error_sources(&mut hybrid, &opts).expect("feasible start");
    assert!(result.lambda >= 0.9);
    // At least one source must have been raised above the floor, otherwise
    // the benchmark is degenerate.
    assert!(
        result.solution.iter().any(|&l| l > 0),
        "{:?}",
        result.solution
    );
}

#[test]
fn hybrid_and_pure_agree_when_kriging_disabled() {
    // With an impossible neighbour requirement, the hybrid evaluator is a
    // pass-through and must reproduce the pure-simulation run exactly. No
    // neighbour cap can exceed that requirement, so the session runs
    // uncapped.
    let opts = MinPlusOneOptions::new(40.0);
    let mut pure = SimulateAll(fir_evaluator());
    let reference = optimize(&mut pure, &opts).expect("feasible");
    let mut hybrid = HybridEvaluator::new(
        fir_evaluator(),
        HybridSettings {
            min_neighbors: usize::MAX,
            max_neighbors: None,
            ..HybridSettings::default()
        },
    );
    let shadow = optimize(&mut hybrid, &opts).expect("feasible");
    assert_eq!(reference.solution, shadow.solution);
    assert_eq!(reference.lambda, shadow.lambda);
    assert_eq!(hybrid.stats().kriged, 0);
}
