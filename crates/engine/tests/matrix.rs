//! The full Table-I scenario matrix at smoke scale: all eight
//! benchmarks expanded by [`MatrixSpec`], executed through the
//! plan/fulfill engine backend (`threads = 2`), and the resulting
//! table pinned against the structural Table-I shape expectations.

use krigeval_core::report::Table;
use krigeval_engine::executor::{run_specs_opts, ExecOptions, Progress};
use krigeval_engine::matrix::{check_table_shape, summarize, MatrixSpec};
use krigeval_engine::suite::Problem;

#[test]
fn smoke_matrix_completes_all_eight_benchmarks_through_the_engine_backend() {
    let spec = MatrixSpec::smoke();
    let runs = spec.expand().expect("smoke matrix expands");
    assert_eq!(runs.len(), 8, "one run per benchmark at smoke scale");
    assert!(
        runs.iter().all(|r| r.threads == 2),
        "every matrix run routes through the engine backend"
    );
    // Every benchmark kriges with the paper's nugget-free system.
    assert!(runs.iter().all(|r| r.nugget.is_none()));

    let outcome = run_specs_opts(
        runs,
        ExecOptions {
            workers: 8,
            progress: Progress::Silent,
            ..ExecOptions::default()
        },
    )
    .expect("smoke matrix executes");
    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
    assert_eq!(outcome.records.len(), 8);

    let rows = summarize(&outcome.records);
    let violations = check_table_shape(&rows);
    assert!(violations.is_empty(), "{violations:?}");

    // SqueezeNet is routed through the classification-rate metric and
    // actually kriged something (p > 0) — the regression this matrix
    // exists to catch is the CNN benchmarks silently falling back to
    // pure simulation or the wrong metric label.
    let squeezenet = rows.iter().find(|r| r.benchmark == "squeezenet").unwrap();
    assert_eq!(squeezenet.metric, "class. rate");
    assert!(
        squeezenet.p_percent > 0.0,
        "squeezenet kriged nothing: p = {}",
        squeezenet.p_percent
    );

    // The one smoke cell renders one line per benchmark plus a header.
    let table = Table { rows }.to_string();
    assert_eq!(table.lines().count(), 9);
    for problem in Problem::extended() {
        assert!(
            table.contains(problem.label()),
            "table is missing {}",
            problem.label()
        );
    }
}
