//! Surface reconstruction by kriging on the DCT kernel (extension
//! example): measure a coarse word-length grid by simulation, identify the
//! variogram, and krige every point of the full accuracy surface — the
//! Figure-1 workflow at a fraction of the simulations.
//!
//! ```text
//! cargo run --release --example dct_surface
//! ```

use krigeval::core::kriging::KrigingEstimator;
use krigeval::core::variogram::{fit_model, EmpiricalVariogram, ModelFamily};
use krigeval::core::{DistanceMetric, VariogramModel};
use krigeval::kernels::dct::DctBenchmark;
use krigeval::kernels::WordLengthBenchmark;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = DctBenchmark::with_defaults();
    // Sweep the two multiplier word-lengths; accumulators fixed wide.
    let coarse: Vec<i32> = (4..=16).step_by(3).collect();

    // 1. Simulate the coarse grid only.
    let mut configs = Vec::new();
    let mut values = Vec::new();
    for &a in &coarse {
        for &b in &coarse {
            configs.push(vec![a, b]);
            values.push(bench.accuracy_db(&[a, b, 16, 16])?);
        }
    }
    println!("simulated {} coarse configurations", configs.len());

    // 2. Identify the variogram from those measurements.
    let emp = EmpiricalVariogram::from_configs(&configs, &values, DistanceMetric::L1)?;
    let model = fit_model(&emp, &ModelFamily::all())
        .map(|r| r.model)
        .unwrap_or_else(|_| VariogramModel::linear(3.0));
    println!("identified a {} variogram", model.family_name());

    // 3. Krige the full 13×13 surface from the coarse measurements.
    let estimator = KrigingEstimator::new(model);
    let mut worst = 0.0f64;
    let mut shown = 0;
    println!("\n w_a w_b   kriged     true      err(bits)");
    for a in 4..=16 {
        for b in 4..=16 {
            let p = estimator.predict_config(&configs, &values, &[a, b])?;
            let truth = bench.accuracy_db(&[a, b, 16, 16])?;
            let err_bits = (p.value - truth).abs() / (10.0 * 2f64.log10());
            worst = worst.max(err_bits);
            if (a + b) % 7 == 0 && shown < 8 {
                println!(
                    "{a:>4} {b:>3} {:>8.2} {:>8.2} {err_bits:>10.3}",
                    p.value, truth
                );
                shown += 1;
            }
        }
    }
    println!(
        "\nreconstructed 169 points from {} simulations; worst error {worst:.2} bits",
        configs.len()
    );
    Ok(())
}
