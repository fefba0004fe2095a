//! Golden bits of the word-length simulators at `Scale::Paper`: the
//! `to_bits()` of each benchmark's metric over several instance seeds and
//! twenty configurations each.
//!
//! `sim_golden` pins every simulator at fast scale. Paper scale runs code
//! paths fast scale never reaches: the FIR main loop past its 63-sample
//! head over 4096 samples, 64 FFT frames and 24 HEVC blocks. The
//! deployment-mode campaigns run at this scale, so their kernels are
//! pinned here. `tests/data/sim_golden_paper.txt` was generated from the
//! simulators before their lane-parallel rewrite and must never be edited
//! to make a change pass. Regenerate it only when a simulator's output is
//! meant to change:
//!
//! ```text
//! cargo test --release -p krigeval-engine --test sim_golden_paper -- --ignored regenerate
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use krigeval_engine::suite::{build_seeded, Problem};
use krigeval_engine::Scale;

const SEEDS: [u64; 3] = [0, 1, 2];

const PROBLEMS: [Problem; 6] = [
    Problem::Fir,
    Problem::Iir,
    Problem::Fft,
    Problem::Hevc,
    Problem::Dct,
    Problem::Lms,
];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/sim_golden_paper.txt")
}

/// Twenty configurations in `lo..=hi` per variable: four flat levels,
/// two ramps, two alternating patterns and twelve LCG scatters (half of
/// them over the upper half of the range, where optimizers spend their
/// time).
fn configs(nv: usize, lo: i32, hi: i32) -> Vec<Vec<i32>> {
    let span = hi - lo + 1;
    let mid = (lo + hi) / 2;
    let mut out = vec![
        vec![lo; nv],
        vec![mid; nv],
        vec![hi - 1; nv],
        vec![hi; nv],
        (0..nv).map(|i| lo + (3 * i as i32) % span).collect(),
        (0..nv).map(|i| hi - (5 * i as i32) % span).collect(),
        (0..nv)
            .map(|i| if i % 2 == 0 { lo + 1 } else { hi - 1 })
            .collect(),
        (0..nv).map(|i| if i % 2 == 0 { hi } else { mid }).collect(),
    ];
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut draw = |base: i32, width: i32| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        base + ((state >> 33) % width as u64) as i32
    };
    for k in 0..12 {
        let (base, width) = if k % 2 == 0 {
            (lo, span)
        } else {
            (mid, hi - mid + 1)
        };
        out.push((0..nv).map(|_| draw(base, width)).collect());
    }
    out
}

fn render() -> String {
    let mut out = String::new();
    for problem in PROBLEMS {
        for seed in SEEDS {
            let mut inst = build_seeded(problem, Scale::Paper, seed);
            let nv = inst.evaluator.num_variables();
            let m = inst
                .minplusone
                .as_ref()
                .expect("every word-length problem has min+1 bounds");
            for (i, config) in configs(nv, m.w_floor, m.w_max).iter().enumerate() {
                let value = match inst.evaluator.evaluate(config) {
                    Ok(v) => format!("{:016x}", v.to_bits()),
                    Err(e) => format!("error {e}"),
                };
                writeln!(out, "{} seed {seed} metric {i} {value}", problem.label()).unwrap();
            }
        }
    }
    out
}

#[test]
fn paper_scale_simulators_reproduce_golden_bits() {
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
        "paper-scale simulator output drifted from the golden bits ({} of {} lines):\n{}",
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
