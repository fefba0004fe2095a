//! Word-length optimization of a 64-point FFT (`Nv = 10`) with the
//! kriging hybrid evaluator in **audit mode**, printing a Table-I-style
//! row: the fraction of interpolated evaluations and the interpolation
//! error in equivalent bits (paper Eq. 11).
//!
//! ```text
//! cargo run --release --example fft_wordlength
//! ```

use krigeval::core::hybrid::{AuditMetric, HybridEvaluator, HybridSettings};
use krigeval::core::opt::minplusone::{optimize, MinPlusOneOptions};
use krigeval::core::report::{Table, TableRow};
use krigeval::core::{AccuracyEvaluator, EvalError, FnEvaluator};
use krigeval::kernels::fft::FftBenchmark;
use krigeval::kernels::WordLengthBenchmark;

fn fft_evaluator() -> impl AccuracyEvaluator {
    let bench = FftBenchmark::new(16, 0xFF7_0003);
    FnEvaluator::new(bench.num_variables(), move |w: &Vec<i32>| {
        bench.accuracy_db(w).map_err(EvalError::wrap)
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = MinPlusOneOptions::new(50.0); // noise below −50 dB
    let mut table = Table::new();
    for d in [2.0, 3.0, 4.0, 5.0] {
        let settings = HybridSettings {
            distance: d,
            audit: Some(AuditMetric::NoisePowerDb),
            ..HybridSettings::default()
        };
        let mut hybrid = HybridEvaluator::new(fft_evaluator(), settings);
        let result = optimize(&mut hybrid, &opts)?;
        assert!(result.lambda >= opts.lambda_min);
        table.push(TableRow::from_stats(
            "fft64",
            "noise power",
            10,
            d,
            hybrid.settings().min_neighbors,
            hybrid.stats(),
        ));
    }
    print!("{table}");
    println!("\n(compare with the FFT rows of the paper's Table I: p grows");
    println!(" from ~78 % to ~96 % with d, mean ε stays well under 1 bit)");
    Ok(())
}
