//! Criterion benchmark of the end-to-end Table I cell protocol (Fast
//! scale): the hybrid-evaluator-driven optimization of the FIR benchmark,
//! plus the headline sim-vs-krige per-evaluation comparison.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use krigeval_core::kriging::KrigingEstimator;
use krigeval_core::VariogramModel;
use krigeval_engine::runner::run_single;
use krigeval_engine::{CampaignSpec, SimCache};
use krigeval_kernels::fir::FirBenchmark;
use krigeval_kernels::WordLengthBenchmark;

/// One Table I cell through the engine's runner: the pilot run, then the
/// audited hybrid run, on a fresh simulation cache each iteration.
fn bench_table1_fir_cell(c: &mut Criterion) {
    let spec = CampaignSpec {
        name: "table1".to_string(),
        benchmarks: vec!["fir".to_string()],
        scale: "fast".to_string(),
        distances: vec![3.0],
        min_neighbors: vec![3],
        ..CampaignSpec::default()
    };
    let run = spec.expand().expect("valid cell").remove(0);
    let mut group = c.benchmark_group("table1");
    group.sample_size(10);
    group.bench_function("fir_cell_fast_d3", |b| {
        b.iter(|| {
            let record = run_single(&run, &Arc::new(SimCache::new())).expect("feasible");
            black_box(record.p_percent)
        })
    });
    group.finish();
}

/// The paper's core comparison: one simulated metric evaluation vs one
/// kriging interpolation of the same quantity.
fn bench_sim_vs_krige(c: &mut Criterion) {
    let fir = FirBenchmark::new(64, 0.2, 4096, 1);
    c.bench_function("evaluate_by_simulation", |b| {
        b.iter(|| black_box(fir.noise_power(black_box(&[10, 10])).expect("valid")))
    });

    let estimator = KrigingEstimator::new(VariogramModel::linear(3.0));
    let sites = vec![vec![9, 10], vec![11, 10], vec![10, 9], vec![10, 11]];
    let values = vec![58.0, 64.0, 55.0, 62.0];
    c.bench_function("evaluate_by_kriging", |b| {
        b.iter(|| {
            let p = estimator
                .predict_config(black_box(&sites), black_box(&values), black_box(&[10, 10]))
                .expect("solvable");
            black_box(p.value)
        })
    });
}

criterion_group!(benches, bench_table1_fir_cell, bench_sim_vs_krige);
criterion_main!(benches);
