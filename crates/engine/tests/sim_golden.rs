//! Golden bits of every simulator: the `to_bits()` of each benchmark's
//! metric over a fixed configuration set, plus an FNV-1a digest over the
//! per-image logits bits of the two CNN benchmarks (a classification rate of
//! k/48 is too coarse to notice a drifted logit).
//!
//! Simulator optimizations promise *bitwise* identical results; this file is
//! the guard. `tests/data/sim_golden.txt` was generated from the
//! pre-optimization simulators and must never be edited to make a change
//! pass. Regenerate it only when a simulator's output is meant to change:
//!
//! ```text
//! cargo test -p krigeval-engine --test sim_golden -- --ignored regenerate
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use krigeval_engine::suite::{build_seeded, level_to_db, Problem};
use krigeval_engine::Scale;
use krigeval_neural::{
    synthetic_images, MiniSqueezeNet, QuantizedNetBenchmark, SensitivityBenchmark,
};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/sim_golden.txt")
}

/// Six configurations spanning `lo..=hi` per variable: the three flat
/// corners, a stride-3 ramp, an alternating pattern and an LCG scatter.
fn configs(nv: usize, lo: i32, hi: i32) -> Vec<Vec<i32>> {
    let span = hi - lo + 1;
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let scatter = (0..nv)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            lo + ((state >> 33) % span as u64) as i32
        })
        .collect();
    vec![
        vec![lo; nv],
        vec![(lo + hi) / 2; nv],
        vec![hi; nv],
        (0..nv).map(|i| lo + (3 * i as i32) % span).collect(),
        (0..nv)
            .map(|i| if i % 2 == 0 { lo + 1 } else { hi - 1 })
            .collect(),
        scatter,
    ]
}

/// FNV-1a over the little-endian bytes of every logit's bit pattern, image
/// after image.
fn logits_digest(logits: &[Vec<f64>]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for v in logits.iter().flatten() {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

fn render() -> String {
    let mut out = String::new();
    for problem in Problem::extended() {
        let mut inst = build_seeded(problem, Scale::Fast, 0);
        let nv = inst.evaluator.num_variables();
        let (lo, hi) = match (&inst.minplusone, &inst.descent) {
            (Some(m), _) => (m.w_floor, m.w_max),
            (None, Some(d)) => (d.level_floor, d.level_max),
            (None, None) => unreachable!("every problem has an optimizer"),
        };
        for (i, config) in configs(nv, lo, hi).iter().enumerate() {
            let value = match inst.evaluator.evaluate(config) {
                Ok(v) => format!("{:016x}", v.to_bits()),
                Err(e) => format!("error {e}"),
            };
            writeln!(out, "{} metric {i} {value}", problem.label()).unwrap();
        }
    }

    // Same instances as `build_seeded(_, Scale::Fast, 0)` builds.
    let sens = SensitivityBenchmark::new(48, 12, 0x59EE_2E05);
    let mut powers: Vec<Vec<f64>> = configs(10, 0, 12)
        .iter()
        .map(|c| c.iter().map(|&l| level_to_db(l)).collect())
        .collect();
    // Disabled sources skip their draws; pin that path too.
    powers.push(
        (0..10)
            .map(|s| if s % 3 == 0 { f64::NEG_INFINITY } else { -20.0 })
            .collect(),
    );
    powers.push(vec![f64::NEG_INFINITY; 10]);
    for (i, p) in powers.iter().enumerate() {
        let digest = logits_digest(&sens.image_logits(p).unwrap());
        writeln!(out, "squeezenet logits {i} {digest:016x}").unwrap();
    }

    let quant = QuantizedNetBenchmark::new(48, 12, 0xBEE5);
    for (i, w) in configs(10, 3, 16).iter().enumerate() {
        let digest = logits_digest(&quant.image_logits(w).unwrap());
        writeln!(out, "quantized_cnn logits {i} {digest:016x}").unwrap();
    }

    // The standalone injection entry point, image by image.
    let net = MiniSqueezeNet::seeded(0x59EE_2E05);
    let images = synthetic_images(8, 12, 0x00DD_BA11);
    for (i, p) in powers.iter().enumerate() {
        let logits: Vec<Vec<f64>> = images
            .iter()
            .enumerate()
            .map(|(k, img)| net.classify_with_injection(img, p, k as u64).1)
            .collect();
        writeln!(
            out,
            "classify_with_injection logits {i} {:016x}",
            logits_digest(&logits)
        )
        .unwrap();
    }
    out
}

#[test]
fn simulators_reproduce_golden_bits() {
    let expected = std::fs::read_to_string(golden_path()).expect("golden file is committed");
    let actual = render();
    let drifted: Vec<String> = expected
        .lines()
        .zip(actual.lines())
        .filter(|(e, a)| e != a)
        .map(|(e, a)| format!("  expected {e}\n  actual   {a}"))
        .collect();
    assert!(
        drifted.is_empty() && expected.lines().count() == actual.lines().count(),
        "simulator output drifted from the golden bits ({} of {} lines):\n{}",
        drifted.len(),
        expected.lines().count(),
        drifted.join("\n")
    );
}

#[test]
#[ignore = "rewrites the golden file; run only when simulator output is meant to change"]
fn regenerate() {
    std::fs::write(golden_path(), render()).unwrap();
}
