//! Criterion benchmarks of one simulation-based metric evaluation per
//! benchmark — the `t_o · N_o` cost kriging amortizes (paper Eq. 2).
//!
//! The IIR, FFT and HEVC kernels and the two CNNs resume a simulation from
//! the stage states their instance stored. The plain benchmarks time full
//! passes: each iteration runs on a fresh copy, made outside the timed
//! region, whose store is empty (or, for squeezenet, at a configuration no
//! stored site input serves). The `_resumed` variants repeat one
//! configuration on one instance, so every pass after the first resumes
//! from its deepest stored state; they are reported, not gated. A CNN pass
//! runs its 16 images as one batch.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use krigeval_kernels::fft::FftBenchmark;
use krigeval_kernels::fir::FirBenchmark;
use krigeval_kernels::hevc::HevcMcBenchmark;
use krigeval_kernels::iir::IirBenchmark;
use krigeval_kernels::WordLengthBenchmark;
use krigeval_neural::{QuantizedNetBenchmark, SensitivityBenchmark};

/// Times full passes of `bench` at `w` (a fresh copy per iteration) as
/// `name`, and resumed passes as `name_resumed`.
fn full_and_resumed<B>(c: &mut Criterion, name: &str, bench: &B, w: &[i32])
where
    B: WordLengthBenchmark + Clone,
{
    c.bench_function(name, |b| {
        b.iter_batched(
            || bench.clone(),
            // The copy is returned, so its stored states are freed outside
            // the timed region.
            |fresh| {
                let power = fresh.noise_power(black_box(w)).expect("valid");
                (black_box(power), fresh)
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function(&format!("{name}_resumed"), |b| {
        b.iter(|| black_box(bench.noise_power(black_box(w)).expect("valid")))
    });
}

fn bench_simulations(c: &mut Criterion) {
    // FIR has no stage state: every pass is a full one.
    let fir = FirBenchmark::new(64, 0.2, 512, 1);
    c.bench_function("sim_fir64_512samples", |b| {
        b.iter(|| black_box(fir.noise_power(black_box(&[10, 10])).expect("valid")))
    });

    let iir = IirBenchmark::new(8, 0.1, 512, 2);
    full_and_resumed(c, "sim_iir8_512samples", &iir, &[10; 5]);

    let fft = FftBenchmark::new(8, 3);
    full_and_resumed(c, "sim_fft64_8frames", &fft, &[10; 10]);

    let hevc = HevcMcBenchmark::new(48, 9, 4);
    full_and_resumed(c, "sim_hevc_9blocks", &hevc, &[10; 23]);
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
    assert_eq!(bench.resume_stats().resumed(), 0, "a full pass resumed");

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

fn bench_quantized_cnn(c: &mut Criterion) {
    let bench = QuantizedNetBenchmark::new(16, 12, 6);
    let words = [9; 10];
    c.bench_function("sim_quantized_cnn_16imgs", |b| {
        b.iter_batched(
            || bench.clone(),
            // The copy is returned, so its stored site inputs are freed
            // outside the timed region.
            |fresh| {
                let rate = fresh.classification_rate(black_box(&words)).expect("valid");
                (black_box(rate), fresh)
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("sim_quantized_cnn_16imgs_resumed", |b| {
        b.iter(|| black_box(bench.classification_rate(black_box(&words)).expect("valid")))
    });
}

criterion_group!(
    benches,
    bench_simulations,
    bench_squeezenet,
    bench_quantized_cnn
);
criterion_main!(benches);
