//! Leave-one-out cross-validation of kriging models.
//!
//! The paper selects its variogram by identification against the empirical
//! semi-variogram; this module adds the standard geostatistical
//! complement — **LOO cross-validation** — which measures the quantity the
//! DSE actually cares about (interpolation error at held-out
//! configurations) and is used by the variogram ablation experiment.

use crate::kriging::KrigingEstimator;
use crate::variogram::VariogramModel;
use crate::{Config, CoreError, DistanceMetric};

/// Aggregate leave-one-out errors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CvReport {
    /// Root-mean-square prediction error.
    pub rmse: f64,
    /// Mean absolute prediction error.
    pub mae: f64,
    /// Largest absolute prediction error.
    pub max_abs: f64,
    /// Number of sites actually predicted.
    pub predicted: usize,
    /// Sites skipped (not enough neighbours / singular system).
    pub skipped: usize,
}

/// Runs leave-one-out cross-validation: each site is predicted from the
/// remaining sites within distance `d` (or all of them if `d` is `None`).
///
/// # Errors
///
/// * [`CoreError::DimensionMismatch`] if `configs` and `values` disagree.
/// * [`CoreError::FitFailed`] if no site could be predicted at all.
///
/// # Examples
///
/// ```
/// use krigeval_core::validation::leave_one_out;
/// use krigeval_core::{DistanceMetric, VariogramModel};
///
/// # fn main() -> Result<(), krigeval_core::CoreError> {
/// let configs: Vec<Vec<i32>> = (0..8).map(|i| vec![i]).collect();
/// let values: Vec<f64> = (0..8).map(|i| 3.0 * f64::from(i)).collect();
/// let report = leave_one_out(
///     &configs,
///     &values,
///     &VariogramModel::linear(1.0),
///     DistanceMetric::L1,
///     Some(3.0),
/// )?;
/// // An affine field in 1-D is interpolated exactly at interior points.
/// assert!(report.mae < 1.0, "mae = {}", report.mae);
/// # Ok(())
/// # }
/// ```
pub fn leave_one_out(
    configs: &[Config],
    values: &[f64],
    model: &VariogramModel,
    metric: DistanceMetric,
    d: Option<f64>,
) -> Result<CvReport, CoreError> {
    if configs.len() != values.len() {
        return Err(CoreError::DimensionMismatch {
            what: "cross-validation".into(),
            detail: format!("{} configs vs {} values", configs.len(), values.len()),
        });
    }
    let estimator = KrigingEstimator::new(*model).with_metric(metric);
    let mut sum_sq = 0.0;
    let mut sum_abs = 0.0;
    let mut max_abs = 0.0f64;
    let mut predicted = 0usize;
    let mut skipped = 0usize;
    for (i, target) in configs.iter().enumerate() {
        let (sites, vals): (Vec<Config>, Vec<f64>) = configs
            .iter()
            .zip(values)
            .enumerate()
            .filter(|&(j, (c, _))| {
                j != i && d.is_none_or(|limit| metric.eval_config(c, target) <= limit)
            })
            .map(|(_, (c, v))| (c.clone(), *v))
            .unzip();
        if sites.is_empty() {
            skipped += 1;
            continue;
        }
        match estimator.predict_config(&sites, &vals, target) {
            Ok(p) => {
                let e = p.value - values[i];
                sum_sq += e * e;
                sum_abs += e.abs();
                max_abs = max_abs.max(e.abs());
                predicted += 1;
            }
            Err(_) => skipped += 1,
        }
    }
    if predicted == 0 {
        return Err(CoreError::FitFailed {
            reason: "no site could be cross-validated".into(),
        });
    }
    Ok(CvReport {
        rmse: (sum_sq / predicted as f64).sqrt(),
        mae: sum_abs / predicted as f64,
        max_abs,
        predicted,
        skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_2d(f: impl Fn(i32, i32) -> f64) -> (Vec<Config>, Vec<f64>) {
        let mut configs = Vec::new();
        let mut values = Vec::new();
        for a in 0..6 {
            for b in 0..6 {
                configs.push(vec![a, b]);
                values.push(f(a, b));
            }
        }
        (configs, values)
    }

    #[test]
    fn affine_field_cross_validates_nearly_exactly() {
        let (configs, values) = grid_2d(|a, b| 2.0 * f64::from(a) + f64::from(b));
        let report = leave_one_out(
            &configs,
            &values,
            &VariogramModel::linear(1.0),
            DistanceMetric::L1,
            Some(3.0),
        )
        .unwrap();
        assert_eq!(report.skipped, 0);
        assert!(report.rmse < 0.35, "rmse {}", report.rmse);
    }

    #[test]
    fn rougher_fields_have_larger_cv_error() {
        let (configs, smooth) = grid_2d(|a, b| f64::from(a + b));
        let (_, rough) = grid_2d(|a, b| if (a + b) % 2 == 0 { 1.0 } else { -1.0 });
        let m = VariogramModel::linear(1.0);
        let e_smooth = leave_one_out(&configs, &smooth, &m, DistanceMetric::L1, Some(3.0)).unwrap();
        let e_rough = leave_one_out(&configs, &rough, &m, DistanceMetric::L1, Some(3.0)).unwrap();
        assert!(e_rough.rmse > 3.0 * e_smooth.rmse);
    }

    #[test]
    fn mismatched_inputs_rejected() {
        assert!(matches!(
            leave_one_out(
                &[vec![0]],
                &[1.0, 2.0],
                &VariogramModel::linear(1.0),
                DistanceMetric::L1,
                None
            )
            .unwrap_err(),
            CoreError::DimensionMismatch { .. }
        ));
    }

    #[test]
    fn isolated_points_are_skipped_not_fatal() {
        // Two clusters far apart with a tight radius: the lone point far
        // from everything is skipped.
        let configs = vec![vec![0], vec![1], vec![2], vec![100]];
        let values = vec![0.0, 1.0, 2.0, 50.0];
        let report = leave_one_out(
            &configs,
            &values,
            &VariogramModel::linear(1.0),
            DistanceMetric::L1,
            Some(3.0),
        )
        .unwrap();
        assert_eq!(report.skipped, 1);
        assert_eq!(report.predicted, 3);
    }

    #[test]
    fn all_isolated_is_an_error() {
        let configs = vec![vec![0], vec![100]];
        let values = vec![0.0, 1.0];
        assert!(matches!(
            leave_one_out(
                &configs,
                &values,
                &VariogramModel::linear(1.0),
                DistanceMetric::L1,
                Some(2.0)
            )
            .unwrap_err(),
            CoreError::FitFailed { .. }
        ));
    }
}
