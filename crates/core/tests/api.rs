//! API-contract tests: thread-safety markers, trait availability and
//! serialization of the crate's public data types (the guarantees
//! downstream users rely on implicitly).

use krigeval_core::hybrid::{HybridSettings, HybridStats, VariogramPolicy};
use krigeval_core::kriging::{KrigingEstimator, KrigingScratch, Prediction};
use krigeval_core::neighbors::NeighborIndex;
use krigeval_core::report::{Table, TableRow};
use krigeval_core::trace::{OptimizationTrace, Source, Step};
use krigeval_core::variogram::{EmpiricalVariogram, ModelFamily};
use krigeval_core::{CoreError, DistanceMetric, EvalError, VariogramModel};

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn public_types_are_send_and_sync() {
    assert_send_sync::<KrigingEstimator>();
    assert_send_sync::<KrigingScratch>();
    assert_send_sync::<Prediction>();
    assert_send_sync::<VariogramModel>();
    assert_send_sync::<EmpiricalVariogram>();
    assert_send_sync::<ModelFamily>();
    assert_send_sync::<DistanceMetric>();
    assert_send_sync::<HybridSettings>();
    assert_send_sync::<HybridStats>();
    assert_send_sync::<VariogramPolicy>();
    assert_send_sync::<NeighborIndex>();
    assert_send_sync::<OptimizationTrace>();
    assert_send_sync::<Table>();
    assert_send_sync::<TableRow>();
    assert_send_sync::<CoreError>();
    assert_send_sync::<EvalError>();
}

#[test]
fn debug_representations_are_nonempty() {
    assert!(!format!("{:?}", VariogramModel::linear(1.0)).is_empty());
    assert!(!format!("{:?}", HybridSettings::default()).is_empty());
    assert!(!format!("{:?}", HybridStats::default()).is_empty());
    assert!(!format!("{:?}", NeighborIndex::new(DistanceMetric::L1)).is_empty());
    assert!(!format!("{:?}", OptimizationTrace::new()).is_empty());
}

#[test]
fn default_settings_match_the_paper() {
    let s = HybridSettings::default();
    assert_eq!(s.distance, 3.0);
    assert_eq!(s.min_neighbors, 3); // N_n,min = 3, strict >
    assert_eq!(s.metric, DistanceMetric::L1);
    assert!(s.audit.is_none());
}

#[test]
fn trace_steps_serialize_round_trip() {
    let step = Step {
        config: vec![8, 9, 10],
        lambda: -47.5,
        source: Source::Kriged,
    };
    let json = serde_json::to_string(&step).unwrap();
    let back: Step = serde_json::from_str(&json).unwrap();
    assert_eq!(step, back);
}

#[test]
fn errors_are_std_error_compatible() {
    fn takes_error<E: std::error::Error + Send + Sync + 'static>(_: E) {}
    takes_error(CoreError::NoData);
    takes_error(EvalError::msg("x"));
}

#[test]
fn variogram_model_is_copy() {
    // Copy matters: the hybrid evaluator and harness pass models by value.
    fn assert_copy<T: Copy>() {}
    assert_copy::<VariogramModel>();
    assert_copy::<DistanceMetric>();
    assert_copy::<ModelFamily>();
}
