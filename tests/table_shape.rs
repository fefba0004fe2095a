//! Table I *shape* assertions at reduced scale: the qualitative claims of
//! the paper's evaluation must hold on every regeneration. The cells come
//! from Table I's one producer, the engine's matrix, at fast scale.

use std::sync::OnceLock;

use krigeval::core::report::TableRow;
use krigeval_engine::{check_table_shape, run_specs_opts, summarize, ExecOptions, MatrixSpec};

/// The fast matrix over d ∈ {2, 3, 5} × N_n,min ∈ {2, 3, 6}, run once
/// and shared by every test in this file.
fn rows() -> &'static [TableRow] {
    static ROWS: OnceLock<Vec<TableRow>> = OnceLock::new();
    ROWS.get_or_init(|| {
        let spec = MatrixSpec {
            name: "table-shape".to_string(),
            scale: "fast".to_string(),
            distances: vec![2.0, 3.0, 5.0],
            min_neighbors: vec![2, 3, 6],
            ..MatrixSpec::table1()
        };
        let runs = spec.expand().expect("matrix expands");
        let options = ExecOptions {
            workers: 2,
            ..ExecOptions::default()
        };
        let outcome = run_specs_opts(runs, options).expect("matrix runs");
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        let rows = summarize(&outcome.records);
        let violations = check_table_shape(&rows);
        assert!(violations.is_empty(), "{violations:?}");
        rows
    })
}

fn cell(benchmark: &str, d: f64, min_neighbors: usize) -> &'static TableRow {
    rows()
        .iter()
        .find(|r| r.benchmark == benchmark && r.d == d && r.min_neighbors == min_neighbors)
        .unwrap_or_else(|| panic!("no {benchmark} row at d = {d}, N_n,min = {min_neighbors}"))
}

#[test]
fn interpolated_fraction_grows_with_distance_on_iir() {
    let p2 = cell("iir8", 2.0, 3).p_percent;
    let p5 = cell("iir8", 5.0, 3).p_percent;
    assert!(p5 > p2, "p(d=5) = {p5} must exceed p(d=2) = {p2}");
    assert!(p2 > 10.0, "IIR at d=2 should already interpolate: {p2} %");
}

#[test]
fn interpolated_fraction_does_not_shrink_with_distance_on_fir() {
    let p2 = cell("fir64", 2.0, 3).p_percent;
    let p5 = cell("fir64", 5.0, 3).p_percent;
    assert!(p5 >= p2, "p(d=5) = {p5} < p(d=2) = {p2}");
}

#[test]
fn more_variables_means_more_interpolation() {
    // Paper: "when the number of variables ... increases, the number of
    // configurations that can be estimated increases up to 90 %".
    let p_iir = cell("iir8", 3.0, 3).p_percent;
    let p_fft = cell("fft64", 3.0, 3).p_percent;
    assert!(
        p_fft > p_iir,
        "FFT (Nv=10) at {p_fft} % should interpolate more than IIR (Nv=5) at {p_iir} %"
    );
}

#[test]
fn fft_errors_stay_sub_bit_at_small_distance() {
    // Paper FFT row at d = 2: μ ε = 0.18 bit.
    let row = cell("fft64", 2.0, 3);
    assert!(row.kriged > 0, "no interpolations at all");
    assert!(
        row.mean_eps < 1.0,
        "mean interpolation error {} bits (paper: 0.18)",
        row.mean_eps
    );
}

#[test]
fn squeezenet_relative_errors_match_paper_regime() {
    // Paper SqueezeNet row at d = 3: p = 89.31 %, μ ε = 6.51 %.
    let row = cell("squeezenet", 3.0, 3);
    assert!(row.p_percent > 50.0, "p = {} %", row.p_percent);
    assert!(
        row.mean_eps < 0.15,
        "mean relative error {} (paper: 0.065)",
        row.mean_eps
    );
}

#[test]
fn raising_nmin_reduces_interpolation() {
    // The paper's closing ablation, inverted: a *stricter* neighbour
    // requirement can only reduce the interpolated fraction.
    let loose = cell("fft64", 3.0, 2).p_percent;
    let strict = cell("fft64", 3.0, 6).p_percent;
    assert!(
        loose >= strict,
        "p(nmin=2) = {loose} < p(nmin=6) = {strict}"
    );
}
