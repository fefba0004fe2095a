//! Criterion benchmarks of one simulation-based metric evaluation per
//! benchmark — the `t_o · N_o` cost kriging amortizes (paper Eq. 2).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use krigeval_kernels::fft::FftBenchmark;
use krigeval_kernels::fir::FirBenchmark;
use krigeval_kernels::hevc::HevcMcBenchmark;
use krigeval_kernels::iir::IirBenchmark;
use krigeval_kernels::WordLengthBenchmark;
use krigeval_neural::SensitivityBenchmark;

fn bench_simulations(c: &mut Criterion) {
    let fir = FirBenchmark::new(64, 0.2, 512, 1);
    c.bench_function("sim_fir64_512samples", |b| {
        b.iter(|| black_box(fir.noise_power(black_box(&[10, 10])).expect("valid")))
    });

    let iir = IirBenchmark::new(8, 0.1, 512, 2);
    c.bench_function("sim_iir8_512samples", |b| {
        b.iter(|| black_box(iir.noise_power(black_box(&[10; 5])).expect("valid")))
    });

    let fft = FftBenchmark::new(8, 3);
    c.bench_function("sim_fft64_8frames", |b| {
        b.iter(|| black_box(fft.noise_power(black_box(&[10; 10])).expect("valid")))
    });

    let hevc = HevcMcBenchmark::new(48, 9, 4);
    c.bench_function("sim_hevc_9blocks", |b| {
        b.iter(|| black_box(hevc.noise_power(black_box(&[10; 23])).expect("valid")))
    });
}

fn bench_squeezenet(c: &mut Criterion) {
    let bench = SensitivityBenchmark::new(16, 12, 5);
    // Site 0's power differs on every iteration, so no stored site input
    // serves a pass: each one is a full pass.
    let mut powers = vec![-30.0; 10];
    c.bench_function("sim_squeezenet_16imgs", |b| {
        b.iter(|| {
            powers[0] -= 1e-9;
            black_box(
                bench
                    .classification_rate(black_box(&powers))
                    .expect("valid"),
            )
        })
    });

    // A repeat of one configuration: every pass after the first resumes at
    // the logits register (site 9).
    let powers = vec![-30.0; 10];
    c.bench_function("sim_squeezenet_16imgs_resumed", |b| {
        b.iter(|| {
            black_box(
                bench
                    .classification_rate(black_box(&powers))
                    .expect("valid"),
            )
        })
    });
}

criterion_group!(benches, bench_simulations, bench_squeezenet);
criterion_main!(benches);
