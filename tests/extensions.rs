//! Integration tests for the reproduction's extension features: the
//! quantized-CNN word-length benchmark, surface reconstruction by kriging
//! and the DCT kernel.

use krigeval::core::hybrid::{HybridEvaluator, HybridSettings};
use krigeval::core::kriging::KrigingEstimator;
use krigeval::core::opt::minplusone::{optimize, MinPlusOneOptions};
use krigeval::core::{AccuracyEvaluator, DistanceMetric, EvalError, FnEvaluator, VariogramModel};
use krigeval::kernels::dct::DctBenchmark;
use krigeval::kernels::WordLengthBenchmark;
use krigeval::neural::QuantizedNetBenchmark;

fn dct_evaluator() -> impl AccuracyEvaluator {
    let bench = DctBenchmark::new(8, 0xDC78);
    FnEvaluator::new(4, move |w: &Vec<i32>| {
        bench.accuracy_db(w).map_err(EvalError::wrap)
    })
}

#[test]
fn dct_wordlength_optimization_end_to_end() {
    let opts = MinPlusOneOptions::new(45.0);
    let mut hybrid = HybridEvaluator::new(dct_evaluator(), HybridSettings::default());
    let result = optimize(&mut hybrid, &opts).expect("feasible");
    assert!(result.lambda >= 45.0);
    assert_eq!(result.solution.len(), 4);
}

#[test]
fn quantized_cnn_wordlength_optimization_end_to_end() {
    let bench = QuantizedNetBenchmark::new(32, 12, 0xBEE5);
    let ev = FnEvaluator::new(bench.num_variables(), move |w: &Vec<i32>| {
        bench.classification_rate(w).map_err(EvalError::wrap)
    });
    let opts = MinPlusOneOptions {
        lambda_min: 0.9,
        w_floor: 3,
        w_max: 16,
        max_iterations: 10_000,
    };
    let mut hybrid = HybridEvaluator::new(ev, HybridSettings::default());
    let result = optimize(&mut hybrid, &opts).expect("feasible");
    assert!(result.lambda >= 0.9);
    // Optimized word-lengths should be well below the 16-bit ceiling for
    // at least some registers (otherwise the benchmark is degenerate).
    assert!(
        result.solution.iter().any(|&w| w < 12),
        "{:?}",
        result.solution
    );
}

#[test]
fn ordinary_kriging_interpolates_dct_accuracy() {
    let bench = DctBenchmark::new(8, 0xDC78);
    let mut configs = Vec::new();
    let mut values = Vec::new();
    for a in (6..=14).step_by(2) {
        for b in (6..=14).step_by(2) {
            configs.push(vec![a, b, a, b]);
            values.push(bench.accuracy_db(&[a, b, a, b]).unwrap());
        }
    }
    let model = VariogramModel::exponential(0.0, 200.0, 12.0).unwrap();
    let ordinary = KrigingEstimator::new(model);
    let target = vec![9, 9, 9, 9];
    let truth = bench.accuracy_db(&[9, 9, 9, 9]).unwrap();
    let (sites, vals): (Vec<Vec<i32>>, Vec<f64>) = configs
        .iter()
        .zip(&values)
        .filter(|(c, _)| DistanceMetric::L1.eval_config(c, &target) <= 6.0)
        .map(|(c, v)| (c.clone(), *v))
        .unzip();
    let p = ordinary.predict_config(&sites, &vals, &target).unwrap();
    let err_bits = (p.value - truth).abs() / (10.0 * 2f64.log10());
    assert!(err_bits < 2.0, "ordinary kriging off by {err_bits} bits");
}

#[test]
fn kriging_reconstructs_a_kernel_surface() {
    // Figure-1-style reconstruction: measure a coarse grid, predict the
    // fine grid from it.
    let bench = DctBenchmark::new(8, 0xDC78);
    let mut sites = Vec::new();
    let mut values = Vec::new();
    for a in (6..=14).step_by(2) {
        for b in (6..=14).step_by(2) {
            sites.push(vec![f64::from(a), f64::from(b)]);
            values.push(bench.accuracy_db(&[a, b, 12, 12]).unwrap());
        }
    }
    let estimator = KrigingEstimator::new(VariogramModel::linear(3.0));
    let mut worst_bits: f64 = 0.0;
    for a in [7, 9, 11, 13] {
        for b in [7, 9, 11, 13] {
            let p = estimator
                .predict(&sites, &values, &[f64::from(a), f64::from(b)])
                .unwrap();
            let truth = bench.accuracy_db(&[a, b, 12, 12]).unwrap();
            worst_bits = worst_bits.max((p.value - truth).abs() / (10.0 * 2f64.log10()));
        }
    }
    assert!(
        worst_bits < 2.5,
        "worst reconstruction error {worst_bits} bits"
    );
}
