//! User-facing kriging estimator.

use std::cell::RefCell;

use crate::kriging::system::{solve_points_into, with_scratch};
use crate::variogram::{GammaTable, VariogramModel};
use crate::{Config, CoreError, DistanceMetric};

thread_local! {
    /// Per-thread γ-table reused across `predict_config` calls; re-targeted
    /// when the model or metric changes.
    static TABLE: RefCell<Option<GammaTable>> = const { RefCell::new(None) };
}

/// One kriging prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// The interpolated metric value `λ̂(eⁱ)` (Eq. 10).
    pub value: f64,
    /// The ordinary-kriging estimation variance (minimized by Eq. 5).
    pub variance: f64,
    /// The weights `μₖ` applied to the data values (Eq. 3); they sum to 1.
    pub weights: Vec<f64>,
}

/// Ordinary-kriging interpolator: predicts a random field `λ(·)` at an
/// arbitrary configuration from its known values at other configurations,
/// under a fixed variogram model.
///
/// This is a *stateless* solver — data sites are passed per call, because
/// the hybrid evaluator selects a different neighbour subset for every
/// query (paper Algorithms 1–2). Fit the model once with
/// [`crate::variogram::fit_model`], then reuse the estimator.
///
/// # Examples
///
/// ```
/// use krigeval_core::kriging::KrigingEstimator;
/// use krigeval_core::{DistanceMetric, VariogramModel};
///
/// # fn main() -> Result<(), krigeval_core::CoreError> {
/// let est = KrigingEstimator::new(VariogramModel::linear(1.0))
///     .with_metric(DistanceMetric::L1);
/// let sites = vec![vec![0.0], vec![10.0]];
/// let values = vec![0.0, 20.0];
/// let p = est.predict(&sites, &values, &[5.0])?;
/// assert!((p.value - 10.0).abs() < 1e-9);
/// assert!((p.weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KrigingEstimator {
    model: VariogramModel,
    metric: DistanceMetric,
}

impl KrigingEstimator {
    /// Creates an estimator with the given variogram model and the paper's
    /// default L1 metric.
    pub fn new(model: VariogramModel) -> KrigingEstimator {
        KrigingEstimator {
            model,
            metric: DistanceMetric::L1,
        }
    }

    /// Replaces the distance metric.
    #[must_use]
    pub fn with_metric(mut self, metric: DistanceMetric) -> KrigingEstimator {
        self.metric = metric;
        self
    }

    /// The variogram model in use.
    pub fn model(&self) -> &VariogramModel {
        &self.model
    }

    /// The distance metric in use.
    pub fn metric(&self) -> DistanceMetric {
        self.metric
    }

    /// Predicts the field at `target` from `values` measured at `sites`.
    ///
    /// # Errors
    ///
    /// * [`CoreError::NoData`] if `sites` is empty.
    /// * [`CoreError::DimensionMismatch`] if `sites.len() != values.len()`
    ///   or point dimensions disagree.
    /// * [`CoreError::SingularSystem`] if the system cannot be solved even
    ///   with regularization.
    pub fn predict(
        &self,
        sites: &[Vec<f64>],
        values: &[f64],
        target: &[f64],
    ) -> Result<Prediction, CoreError> {
        if sites.len() != values.len() {
            return Err(CoreError::DimensionMismatch {
                what: "kriging prediction".into(),
                detail: format!("{} sites vs {} values", sites.len(), values.len()),
            });
        }
        with_scratch(|scratch| {
            solve_points_into(scratch, sites, target, &self.model, self.metric)?;
            Ok(Prediction {
                value: scratch.interpolate(values),
                variance: scratch.variance(),
                weights: scratch.weights().to_vec(),
            })
        })
    }

    /// Predicts at an integer configuration (the optimizers' native type).
    ///
    /// Runs on the integer lattice: γ values come from a thread-local
    /// [`GammaTable`] keyed by lattice distance, skipping both the `f64`
    /// site conversion and repeated variogram evaluation. Results are
    /// bitwise identical to converting and calling
    /// [`KrigingEstimator::predict`].
    ///
    /// # Errors
    ///
    /// See [`KrigingEstimator::predict`].
    pub fn predict_config(
        &self,
        configs: &[Config],
        values: &[f64],
        target: &[i32],
    ) -> Result<Prediction, CoreError> {
        if configs.len() != values.len() {
            return Err(CoreError::DimensionMismatch {
                what: "kriging prediction".into(),
                detail: format!("{} sites vs {} values", configs.len(), values.len()),
            });
        }
        for (i, c) in configs.iter().enumerate() {
            if c.len() != target.len() {
                return Err(CoreError::DimensionMismatch {
                    what: "kriging system".into(),
                    detail: format!(
                        "site {i} has dimension {}, target has {}",
                        c.len(),
                        target.len()
                    ),
                });
            }
        }
        if configs.is_empty() {
            return Err(CoreError::NoData);
        }
        let n = configs.len();
        TABLE.with(|slot| {
            let mut slot = slot.borrow_mut();
            let table = match slot.as_mut() {
                Some(t) => {
                    if !t.matches(&self.model, self.metric) {
                        t.reset(self.model, self.metric);
                    }
                    t
                }
                None => slot.insert(GammaTable::new(self.model, self.metric)),
            };
            with_scratch(|scratch| {
                scratch.solve_with(n, |i, j| {
                    if j == n {
                        table.gamma_pair(&configs[i], target)
                    } else {
                        table.gamma_pair(&configs[i], &configs[j])
                    }
                })?;
                Ok(Prediction {
                    value: scratch.interpolate(values),
                    variance: scratch.variance(),
                    weights: scratch.weights().to_vec(),
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicts_exactly_at_data_sites() {
        let est = KrigingEstimator::new(VariogramModel::linear(0.5));
        let sites = vec![vec![0.0, 0.0], vec![3.0, 1.0], vec![1.0, 4.0]];
        let values = vec![1.0, -2.0, 5.5];
        for (s, v) in sites.iter().zip(&values) {
            let p = est.predict(&sites, &values, s).unwrap();
            assert!((p.value - v).abs() < 1e-8, "site {s:?}: {} vs {v}", p.value);
            assert!(p.variance < 1e-8);
        }
    }

    #[test]
    fn constant_field_predicts_the_constant_anywhere() {
        // Unbiasedness: weights sum to 1, so a constant field is exact.
        let est = KrigingEstimator::new(VariogramModel::exponential(0.0, 2.0, 3.0).unwrap());
        let sites = vec![vec![0.0], vec![2.0], vec![7.0]];
        let values = vec![4.2; 3];
        for target in [-3.0, 1.0, 4.5, 20.0] {
            let p = est.predict(&sites, &values, &[target]).unwrap();
            assert!((p.value - 4.2).abs() < 1e-9, "target {target}: {}", p.value);
        }
    }

    #[test]
    fn midpoint_of_two_sites_is_their_average() {
        let est = KrigingEstimator::new(VariogramModel::linear(1.0));
        let p = est
            .predict(&[vec![0.0], vec![4.0]], &[10.0, 20.0], &[2.0])
            .unwrap();
        assert!((p.value - 15.0).abs() < 1e-9);
    }

    #[test]
    fn closer_sites_get_larger_weights() {
        let est = KrigingEstimator::new(VariogramModel::linear(1.0));
        let p = est
            .predict(&[vec![1.0], vec![9.0]], &[0.0, 0.0], &[2.0])
            .unwrap();
        assert!(
            p.weights[0] > p.weights[1],
            "near weight {} <= far weight {}",
            p.weights[0],
            p.weights[1]
        );
    }

    #[test]
    fn predict_config_matches_predict() {
        let est = KrigingEstimator::new(VariogramModel::linear(1.0));
        let configs = vec![vec![8, 8], vec![10, 8], vec![8, 12]];
        let values = vec![1.0, 2.0, 3.0];
        let a = est.predict_config(&configs, &values, &[9, 9]).unwrap();
        let sites: Vec<Vec<f64>> = vec![vec![8.0, 8.0], vec![10.0, 8.0], vec![8.0, 12.0]];
        let b = est.predict(&sites, &values, &[9.0, 9.0]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn mismatched_values_rejected() {
        let est = KrigingEstimator::new(VariogramModel::linear(1.0));
        assert!(matches!(
            est.predict(&[vec![0.0]], &[1.0, 2.0], &[0.5]).unwrap_err(),
            CoreError::DimensionMismatch { .. }
        ));
    }

    #[test]
    fn metric_changes_the_prediction_geometry() {
        let est_l1 = KrigingEstimator::new(VariogramModel::linear(1.0));
        let est_linf =
            KrigingEstimator::new(VariogramModel::linear(1.0)).with_metric(DistanceMetric::Linf);
        assert_eq!(est_linf.metric(), DistanceMetric::Linf);
        let sites = vec![vec![0.0, 0.0], vec![2.0, 2.0], vec![4.0, 0.0]];
        let values = vec![0.0, 8.0, 1.0];
        let a = est_l1.predict(&sites, &values, &[1.0, 2.0]).unwrap();
        let b = est_linf.predict(&sites, &values, &[1.0, 2.0]).unwrap();
        assert_ne!(a.value, b.value);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        fn distinct_1d_sites() -> impl Strategy<Value = Vec<f64>> {
            proptest::collection::btree_set(-20i32..20, 3..8)
                .prop_map(|s| s.into_iter().map(f64::from).collect())
        }

        proptest! {
            #[test]
            fn weights_always_sum_to_one(
                xs in distinct_1d_sites(),
                target in -25.0f64..25.0,
            ) {
                let est = KrigingEstimator::new(VariogramModel::linear(1.0));
                let sites: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
                let values: Vec<f64> = xs.iter().map(|&x| x.sin()).collect();
                let p = est.predict(&sites, &values, &[target]).unwrap();
                prop_assert!((p.weights.iter().sum::<f64>() - 1.0).abs() < 1e-7);
            }

            #[test]
            fn exact_interpolation_at_sites(
                xs in distinct_1d_sites(),
            ) {
                let est = KrigingEstimator::new(
                    VariogramModel::spherical(0.0, 1.0, 10.0).unwrap());
                let sites: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
                let values: Vec<f64> = xs.iter().map(|&x| (x * 0.3).cos()).collect();
                for (s, v) in sites.iter().zip(&values) {
                    let p = est.predict(&sites, &values, s).unwrap();
                    prop_assert!((p.value - v).abs() < 1e-6);
                }
            }

            #[test]
            fn prediction_within_convex_hull_of_values_for_interior_targets(
                xs in distinct_1d_sites(),
                t in 0.2f64..0.8,
            ) {
                // With a linear variogram in 1-D, interior predictions stay
                // within [min, max] of the data (no overshoot for monotone
                // site ordering).
                let est = KrigingEstimator::new(VariogramModel::linear(1.0));
                let sites: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
                let values: Vec<f64> = xs.to_vec(); // affine field
                let lo = xs.first().copied().unwrap();
                let hi = xs.last().copied().unwrap();
                let target = lo + t * (hi - lo);
                let p = est.predict(&sites, &values, &[target]).unwrap();
                // Affine field is reproduced exactly in 1-D.
                prop_assert!((p.value - target).abs() < 1e-6,
                    "target {target}, predicted {}", p.value);
            }

            #[test]
            fn variance_is_non_negative(
                xs in distinct_1d_sites(),
                target in -25.0f64..25.0,
            ) {
                let est = KrigingEstimator::new(VariogramModel::exponential(0.0, 1.0, 5.0).unwrap());
                let sites: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
                let values: Vec<f64> = xs.iter().map(|&x| x * 0.1).collect();
                let p = est.predict(&sites, &values, &[target]).unwrap();
                prop_assert!(p.variance >= 0.0);
            }
        }
    }
}
