//! Benchmark harness reproducing the paper's experimental study.
//!
//! This crate glues the five benchmarks (four word-length kernels + the
//! SqueezeNet-style sensitivity benchmark) to the kriging-based hybrid
//! evaluator and the host optimizers, and regenerates the paper's figure
//! and prose experiments. Table I itself is `campaign matrix` in
//! `krigeval-engine` (one row per benchmark, `d` and `N_n,min`).
//!
//! | artifact | binary | module |
//! |----------|--------|--------|
//! | Figure 1 (FIR noise-power surface)         | `figure1` | [`figure1`] |
//! | §IV prose: per-evaluation speed-up         | `timing` | [`timing`] |
//! | §IV prose: ≈10 % decision divergence       | `decisions` | [`decisions`] |
//! | §IV prose: `N_n,min = 2` ablation + extras, FIR grid replay | `ablation` | — |
//!
//! Criterion micro-benchmarks live in `benches/`.
//!
//! Every experiment is available at two scales: [`Scale::Fast`] (seconds,
//! used by tests and CI) and [`Scale::Paper`] (the sizes the paper reports,
//! minutes).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decisions;
pub mod figure1;
pub mod steady;
pub mod timing;

// The benchmark suite and the `Scale` knob moved into `krigeval-engine`
// (the campaign engine needs them without depending on this crate); they
// are re-exported here so existing callers keep compiling unchanged.
pub use krigeval_engine::{suite, Scale};
