//! Golden bits of the two CNN simulators at `Scale::Paper`: 400 images of
//! 16×16 pixels, so 8×8 and 4×4 maps after the two pools, where fast scale
//! (`sim_golden`) runs 12×12 images and 6×6 and 3×3 maps. Each line is the
//! `to_bits()` of a metric the engine's evaluator returns, or an FNV-1a
//! digest of every image's logits bits.
//!
//! The configurations are the fast-scale golden's kinds over two instance
//! seeds: flat corners, a ramp, an alternating pattern and a scatter, a
//! pattern of disabled (`−∞`) sources, a power so low that σ underflows to
//! 0, and word-lengths below `ib + 2` that clamp to it.
//! `tests/data/sim_golden_cnn_paper.txt` was generated from the per-image
//! forward pass, before the batched one, and must never be edited to make
//! a change pass. Regenerate it only when a simulator's output is meant to
//! change:
//!
//! ```text
//! cargo test --release -p krigeval-engine --test sim_golden_cnn_paper -- --ignored regenerate
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use krigeval_engine::suite::{build_seeded, level_to_db, Problem};
use krigeval_engine::Scale;
use krigeval_neural::{
    synthetic_images, MiniSqueezeNet, QuantizedNetBenchmark, SensitivityBenchmark,
};

const SEEDS: [u64; 2] = [0, 1];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/sim_golden_cnn_paper.txt")
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

/// The error-power configurations: the six level patterns in dB, then
/// every third source disabled, a σ-underflow power at sites 1, 4 and 7
/// (`10^(−7000/20)` is 0 in `f64`), and every source disabled.
fn power_configs() -> Vec<Vec<f64>> {
    let mut powers: Vec<Vec<f64>> = configs(10, 0, 12)
        .iter()
        .map(|c| c.iter().map(|&l| level_to_db(l)).collect())
        .collect();
    powers.push(
        (0..10)
            .map(|s| if s % 3 == 0 { f64::NEG_INFINITY } else { -20.0 })
            .collect(),
    );
    powers.push(
        (0..10)
            .map(|s| if s % 3 == 1 { -7000.0 } else { -26.0 })
            .collect(),
    );
    powers.push(vec![f64::NEG_INFINITY; 10]);
    powers
}

/// The word-length configurations: the six patterns over `3..=16`, then
/// every site at 2 bits and every other site at 2 bits, both below every
/// calibrated `ib + 2` and so clamped to it.
fn word_length_configs() -> Vec<Vec<i32>> {
    let mut words = configs(10, 3, 16);
    words.push(vec![2; 10]);
    words.push((0..10).map(|s| if s % 2 == 0 { 2 } else { 12 }).collect());
    words
}

fn render() -> String {
    let mut out = String::new();
    for seed in SEEDS {
        for problem in [Problem::Squeezenet, Problem::QuantizedCnn] {
            let mut inst = build_seeded(problem, Scale::Paper, seed);
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
                writeln!(out, "{} seed {seed} metric {i} {value}", problem.label()).unwrap();
            }
        }

        // Same instances as `build_seeded(_, Scale::Paper, seed)` builds.
        let sens = SensitivityBenchmark::new(400, 16, 0x59EE_2E05 ^ seed);
        for (i, p) in power_configs().iter().enumerate() {
            let digest = logits_digest(&sens.image_logits(p).unwrap());
            writeln!(out, "squeezenet seed {seed} logits {i} {digest:016x}").unwrap();
        }

        let quant = QuantizedNetBenchmark::new(400, 16, 0xBEE5 ^ seed);
        for (i, w) in word_length_configs().iter().enumerate() {
            let digest = logits_digest(&quant.image_logits(w).unwrap());
            writeln!(out, "quantized_cnn seed {seed} logits {i} {digest:016x}").unwrap();
        }
    }

    // The standalone injection entry point on 16×16 images.
    let net = MiniSqueezeNet::seeded(0x59EE_2E05);
    let images = synthetic_images(8, 16, 0x00DD_BA11);
    for (i, p) in power_configs().iter().enumerate() {
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
fn paper_scale_cnns_reproduce_golden_bits() {
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
        "paper-scale CNN output drifted from the golden bits ({} of {} lines):\n{}",
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
