//! Criterion micro-benchmarks of the kriging engine itself: the
//! interpolation cost the paper reports as ~10⁻⁶ s per evaluation, as a
//! function of the neighbourhood size, plus variogram estimation/fitting.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use krigeval_core::kriging::KrigingEstimator;
use krigeval_core::variogram::{fit_model, EmpiricalVariogram, ModelFamily};
use krigeval_core::{DistanceMetric, VariogramModel};

/// A deterministic cloud of `n` 10-D integer configurations with a smooth
/// metric (the FFT benchmark's dimensionality).
fn cloud(n: usize) -> (Vec<Vec<i32>>, Vec<f64>) {
    let mut configs = Vec::with_capacity(n);
    let mut values = Vec::with_capacity(n);
    for i in 0..n {
        let config: Vec<i32> = (0..10)
            .map(|k| 6 + (((i * (k + 3)).wrapping_mul(2654435761) >> 7) % 9) as i32)
            .collect();
        let value = config.iter().map(|&w| 6.0 * f64::from(w)).sum::<f64>() / 10.0;
        configs.push(config);
        values.push(value);
    }
    (configs, values)
}

fn bench_kriging_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("kriging_predict");
    for n in [2usize, 4, 8, 16, 32] {
        let (configs, values) = cloud(n);
        let estimator = KrigingEstimator::new(VariogramModel::linear(2.0));
        let target = vec![9; 10];
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let p = estimator
                    .predict_config(black_box(&configs), black_box(&values), black_box(&target))
                    .expect("solvable system");
                black_box(p.value)
            })
        });
    }
    group.finish();
}

fn bench_variogram(c: &mut Criterion) {
    let (configs, values) = cloud(60);
    c.bench_function("empirical_variogram_60pts", |b| {
        b.iter(|| {
            let v = EmpiricalVariogram::from_configs(
                black_box(&configs),
                black_box(&values),
                DistanceMetric::L1,
            )
            .expect("non-degenerate");
            black_box(v.total_pairs())
        })
    });
    let emp = EmpiricalVariogram::from_configs(&configs, &values, DistanceMetric::L1).unwrap();
    c.bench_function("fit_model_all_families", |b| {
        b.iter(|| {
            let report = fit_model(black_box(&emp), &ModelFamily::all()).expect("fits");
            black_box(report.weighted_sse)
        })
    });
}

fn bench_hybrid_steady_state(c: &mut Criterion) {
    use krigeval_bench::steady::{steady_session, SolveProbes};
    // The kriged evaluate's solve path with warm buffers (neighbour
    // search, γ-table lookups, LDLᵀ solve, memo insert) — the steady state
    // the zero-allocation test pins. The probes walk configurations the
    // kriged-answer memo cannot answer.
    let mut hybrid = steady_session();
    let mut probes = SolveProbes::default();
    c.bench_function("hybrid_steady_state_kriged_evaluate", |b| {
        b.iter(|| {
            let out = probes.evaluate(&mut hybrid).expect("kriged");
            black_box(out.value())
        })
    });
}

fn bench_model_eval(c: &mut Criterion) {
    let models = [
        VariogramModel::linear(1.0),
        VariogramModel::spherical(0.1, 2.0, 5.0).unwrap(),
        VariogramModel::gaussian(0.1, 2.0, 5.0).unwrap(),
    ];
    c.bench_function("variogram_model_eval_x3", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for m in &models {
                acc += m.evaluate(black_box(3.7));
            }
            black_box(acc)
        })
    });
}

fn bench_neighbor_index(c: &mut Criterion) {
    use krigeval_core::neighbors::NeighborIndex;
    let (configs, values) = cloud(500);
    let mut index = NeighborIndex::new(DistanceMetric::L1);
    for (cfg, v) in configs.iter().zip(&values) {
        index.insert(cfg.clone(), *v);
    }
    let target = vec![9; 10];
    c.bench_function("neighbor_index_within_500pts", |b| {
        b.iter(|| black_box(index.within(black_box(&target), 4.0).len()))
    });
    c.bench_function("neighbor_linear_scan_500pts", |b| {
        b.iter(|| {
            let n = configs
                .iter()
                .filter(|cfg| DistanceMetric::L1.eval_config(cfg, black_box(&target)) <= 4.0)
                .count();
            black_box(n)
        })
    });
}

fn bench_oneshot_24sites(c: &mut Criterion) {
    let (configs, values) = cloud(24);
    let sites: Vec<Vec<f64>> = configs
        .iter()
        .map(|cfg| cfg.iter().map(|&x| f64::from(x)).collect())
        .collect();
    let target: Vec<f64> = vec![9.0; 10];
    let estimator = KrigingEstimator::new(VariogramModel::linear(2.0));
    c.bench_function("oneshot_kriging_predict_24sites", |b| {
        b.iter(|| {
            black_box(
                estimator
                    .predict(black_box(&sites), black_box(&values), black_box(&target))
                    .expect("solvable")
                    .value,
            )
        })
    });
}

criterion_group!(
    benches,
    bench_kriging_solve,
    bench_variogram,
    bench_hybrid_steady_state,
    bench_model_eval,
    bench_neighbor_index,
    bench_oneshot_24sites
);
criterion_main!(benches);
