//! Least-squares identification of a variogram model (paper Section III-A:
//! "the semi-variogram can be computed and identified to a particular type
//! of semi-variogram").

use krigeval_linalg::{LdltWorkspace, Matrix};
use serde::{Deserialize, Serialize};

use crate::variogram::{EmpiricalVariogram, VariogramModel};
use crate::{Config, CoreError, DistanceMetric};

/// Model families [`fit_model`] can try.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelFamily {
    /// Pure nugget.
    Nugget,
    /// Linear `n + s·d`.
    Linear,
    /// Power `n + c·d^e`.
    Power,
    /// Spherical.
    Spherical,
    /// Exponential.
    Exponential,
    /// Gaussian.
    Gaussian,
}

impl ModelFamily {
    /// All families, in fitting order.
    pub fn all() -> [ModelFamily; 6] {
        [
            ModelFamily::Nugget,
            ModelFamily::Linear,
            ModelFamily::Power,
            ModelFamily::Spherical,
            ModelFamily::Exponential,
            ModelFamily::Gaussian,
        ]
    }
}

/// How a variogram identification chooses among candidate families.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelSelection {
    /// Pair-count-weighted least squares on the empirical variogram bins
    /// ([`fit_model`] — the historical criterion; the default).
    #[default]
    WeightedSse,
    /// Fast leave-one-out cross-validation ([`fit_model_loo`], in the
    /// spirit of Le Gratiet & Cannamela): each candidate is scored by its
    /// leave-one-out prediction residuals over a bounded sample of stored
    /// sites, reusing one factorization per candidate.
    LeaveOneOut,
}

/// Result of a variogram identification.
#[derive(Debug, Clone, PartialEq)]
pub struct FitReport {
    /// The best-fitting model.
    pub model: VariogramModel,
    /// Pair-count-weighted sum of squared residuals of the winner.
    pub weighted_sse: f64,
    /// Per-family selection scores for every family that produced a valid
    /// fit: the weighted SSE under [`ModelSelection::WeightedSse`], the
    /// leave-one-out residual sum of squares (∞ when that family's system
    /// was singular) under [`ModelSelection::LeaveOneOut`].
    pub candidates: Vec<(ModelFamily, f64)>,
}

/// Identifies the semi-variogram of `values` measured at `configs` (paper
/// Section III-A): the empirical variogram over unit lattice bins
/// ([`EmpiricalVariogram::from_configs`]), each of `families` fitted to
/// it, and the winner chosen by `selection`. Weighted SSE on the bins
/// ([`fit_model`]) ignores `nugget`; leave-one-out prediction over the
/// sites ([`fit_model_loo`]) adds it to every between-site γ, as the
/// session's solves will.
///
/// This is the workspace's one identification: the campaign's pilot
/// protocol and a hybrid session's fit-after policy both call it.
///
/// # Errors
///
/// As [`EmpiricalVariogram::from_configs`] for the sites, then as
/// [`fit_model`] for the families.
pub fn identify(
    configs: &[Config],
    values: &[f64],
    metric: DistanceMetric,
    selection: ModelSelection,
    nugget: f64,
    families: &[ModelFamily],
) -> Result<FitReport, CoreError> {
    let empirical = EmpiricalVariogram::from_configs(configs, values, metric)?;
    match selection {
        ModelSelection::WeightedSse => fit_model(&empirical, families),
        ModelSelection::LeaveOneOut => {
            fit_model_loo(&empirical, families, configs, values, metric, nugget)
        }
    }
}

/// Fits each requested family to the empirical variogram by
/// pair-count-weighted least squares and returns the family with the
/// smallest weighted SSE.
///
/// Bounded families (spherical/exponential/gaussian) are linear in
/// `(nugget, sill)` once the range is fixed, so the range is found by a
/// grid search between the smallest bin distance and three times the
/// largest; the power exponent is searched the same way. Negative nugget or
/// slope/sill solutions are clamped to zero and re-fit.
///
/// # Errors
///
/// * [`CoreError::FitFailed`] if `families` is empty or no family yields a
///   valid model (e.g. a single bin cannot constrain a two-parameter model —
///   the nugget and linear families always succeed, so passing them avoids
///   this).
///
/// # Examples
///
/// ```
/// use krigeval_core::variogram::{fit_model, EmpiricalVariogram, ModelFamily};
/// use krigeval_core::DistanceMetric;
///
/// # fn main() -> Result<(), krigeval_core::CoreError> {
/// // A linear field has γ(d) = d²/2: the power family should win.
/// let sites: Vec<Vec<f64>> = (0..12).map(|i| vec![f64::from(i)]).collect();
/// let values: Vec<f64> = (0..12).map(f64::from).collect();
/// let emp = EmpiricalVariogram::from_samples(&sites, &values, DistanceMetric::L1, 1.0)?;
/// let report = fit_model(&emp, &ModelFamily::all())?;
/// assert!(report.weighted_sse.is_finite());
/// # Ok(())
/// # }
/// ```
pub fn fit_model(
    empirical: &EmpiricalVariogram,
    families: &[ModelFamily],
) -> Result<FitReport, CoreError> {
    let mut candidates = Vec::new();
    let mut best: Option<(VariogramModel, f64)> = None;
    for (family, model) in fit_families(empirical, families)? {
        let sse = weighted_sse(&model, empirical);
        candidates.push((family, sse));
        if best.as_ref().is_none_or(|(_, s)| sse < *s) {
            best = Some((model, sse));
        }
    }
    let (model, weighted_sse) = best.expect("fit_families returns at least one fit");
    Ok(FitReport {
        model,
        weighted_sse,
        candidates,
    })
}

/// Every family of `families` that yields a valid model, in order, with
/// its model (shared by both selection criteria).
fn fit_families(
    empirical: &EmpiricalVariogram,
    families: &[ModelFamily],
) -> Result<Vec<(ModelFamily, VariogramModel)>, CoreError> {
    if families.is_empty() {
        return Err(CoreError::FitFailed {
            reason: "no model families requested".into(),
        });
    }
    let fitted: Vec<(ModelFamily, VariogramModel)> = families
        .iter()
        .filter_map(|&family| fit_family(empirical, family).map(|m| (family, m)))
        .collect();
    if fitted.is_empty() {
        return Err(CoreError::FitFailed {
            reason: format!(
                "no family produced a valid fit over {} bins",
                empirical.bins().len()
            ),
        });
    }
    Ok(fitted)
}

/// Estimates one family's parameters against the empirical variogram.
fn fit_family(empirical: &EmpiricalVariogram, family: ModelFamily) -> Option<VariogramModel> {
    match family {
        ModelFamily::Nugget => fit_nugget(empirical),
        ModelFamily::Linear => fit_linear(empirical),
        ModelFamily::Power => fit_power(empirical),
        ModelFamily::Spherical | ModelFamily::Exponential | ModelFamily::Gaussian => {
            fit_bounded(empirical, family)
        }
    }
}

/// Upper bound on leave-one-out sites scored per candidate family
/// (stride-sampled across the store; bounds the identification's extra
/// cost to one ≤ 41×41 factorization and 41 back-substitutions per
/// family).
const LOO_SITE_CAP: usize = 40;

/// Like [`fit_model`], but the winning family is chosen by **fast
/// leave-one-out cross-validation** over the stored sites instead of by
/// weighted SSE on the empirical bins.
///
/// Parameter estimation per family is identical to [`fit_model`]; only the
/// selection criterion changes. For each candidate the bordered
/// ordinary-kriging system of a stride-sample of at most 40 sites
/// (`LOO_SITE_CAP`) is factored **once** (Bunch–Kaufman LDLT); Dubrule's shortcut then
/// yields every leave-one-out residual from that single factorization —
/// with `K⁻¹eᵢ` giving the diagonal `(K⁻¹)ᵢᵢ` and `K⁻¹[z; 0]` the bordered
/// data solution, the residual at site `i` is
/// `eᵢ = (K⁻¹[z; 0])ᵢ / (K⁻¹)ᵢᵢ` — no refactorization per left-out point.
/// The candidate with the smallest Σeᵢ² wins; a candidate whose system is
/// singular scores ∞. `nugget` is added to every between-site γ (noisy
/// metrics), matching the prediction path the winner will serve.
///
/// Falls back to [`fit_model`]'s weighted-SSE choice when fewer than three
/// sites are available or every candidate system is singular.
///
/// # Errors
///
/// * [`CoreError::FitFailed`] if `families` is empty or no family yields a
///   valid model (as [`fit_model`]).
pub fn fit_model_loo(
    empirical: &EmpiricalVariogram,
    families: &[ModelFamily],
    configs: &[Config],
    values: &[f64],
    metric: DistanceMetric,
    nugget: f64,
) -> Result<FitReport, CoreError> {
    let fitted = fit_families(empirical, families)?;
    let len = configs.len().min(values.len());
    let step = len.div_ceil(LOO_SITE_CAP).max(1);
    let sample: Vec<usize> = (0..len).step_by(step).collect();
    let m = sample.len();
    if m < 3 {
        // Too few sites to cross-validate; use the bin criterion instead.
        return fit_model(empirical, families);
    }
    // Pairwise site distances, computed once and reused by every candidate.
    let mut dists = vec![0.0f64; m * m];
    for (i, &si) in sample.iter().enumerate() {
        for (j, &sj) in sample.iter().enumerate().skip(i + 1) {
            let d = metric.eval_config(&configs[si], &configs[sj]);
            dists[i * m + j] = d;
            dists[j * m + i] = d;
        }
    }
    let ns = m + 1;
    let mut k = vec![0.0f64; ns * ns];
    // RHS slab: m unit vectors (for diag(K⁻¹)) + the bordered data vector.
    let mut rhs = vec![0.0f64; (m + 1) * ns];
    let mut workspace = LdltWorkspace::new();
    let mut best: Option<(VariogramModel, f64)> = None;
    let mut candidates = Vec::with_capacity(fitted.len());
    for &(family, model) in &fitted {
        for i in 0..m {
            for j in 0..i {
                let g = model.evaluate(dists[i * m + j]) + nugget;
                k[i * ns + j] = g;
                k[j * ns + i] = g;
            }
            k[i * ns + i] = 0.0;
            k[i * ns + m] = 1.0;
            k[m * ns + i] = 1.0;
        }
        k[m * ns + m] = 0.0;
        let score = loo_score(&mut workspace, &k, &mut rhs, &sample, values, m);
        candidates.push((family, score));
        if score.is_finite() && best.as_ref().is_none_or(|(_, s)| score < *s) {
            best = Some((model, score));
        }
    }
    let Some((model, _)) = best else {
        // Every candidate's sampled system was singular (e.g. exact
        // replicate sites with a zero nugget): weighted SSE still ranks.
        return fit_model(empirical, families);
    };
    Ok(FitReport {
        model,
        weighted_sse: weighted_sse(&model, empirical),
        candidates,
    })
}

/// Σeᵢ² of Dubrule's leave-one-out residuals for one factored candidate;
/// ∞ when the system is singular or the residuals degenerate.
fn loo_score(
    workspace: &mut LdltWorkspace,
    k: &[f64],
    rhs: &mut [f64],
    sample: &[usize],
    values: &[f64],
    m: usize,
) -> f64 {
    let ns = m + 1;
    if workspace.factor(k, ns).is_err() {
        return f64::INFINITY;
    }
    rhs.iter_mut().for_each(|x| *x = 0.0);
    for i in 0..m {
        rhs[i * ns + i] = 1.0;
    }
    for (i, &si) in sample.iter().enumerate() {
        rhs[m * ns + i] = values[si];
    }
    // (Lagrange component of the data vector stays 0.)
    if workspace.solve_many_in_place(rhs, ns).is_err() {
        return f64::INFINITY;
    }
    let mut sum = 0.0;
    let mut scored = 0usize;
    for i in 0..m {
        let diag = rhs[i * ns + i];
        if diag.abs() > 1e-300 {
            let e = rhs[m * ns + i] / diag;
            sum += e * e;
            scored += 1;
        }
    }
    if scored == 0 || !sum.is_finite() {
        f64::INFINITY
    } else {
        sum
    }
}

/// Pair-count-weighted SSE of a model against the empirical bins.
pub fn weighted_sse(model: &VariogramModel, empirical: &EmpiricalVariogram) -> f64 {
    empirical
        .bins()
        .iter()
        .map(|b| {
            let r = model.evaluate(b.distance) - b.gamma;
            r * r * b.pairs as f64
        })
        .sum()
}

fn fit_nugget(emp: &EmpiricalVariogram) -> Option<VariogramModel> {
    let bins = emp.bins();
    let total: f64 = bins.iter().map(|b| b.pairs as f64).sum();
    let mean = bins.iter().map(|b| b.gamma * b.pairs as f64).sum::<f64>() / total;
    Some(VariogramModel::nugget(mean.max(0.0)))
}

/// Weighted LS of `gamma ≈ nugget + slope · f(d)`, clamping negatives.
fn fit_affine(emp: &EmpiricalVariogram, f: impl Fn(f64) -> f64) -> Option<(f64, f64)> {
    let bins = emp.bins();
    if bins.len() < 2 {
        // One bin cannot constrain two parameters; put everything in the
        // slope (nugget 0) so γ passes through the single point.
        let b = bins.first()?;
        let fd = f(b.distance);
        if fd <= 0.0 {
            return None;
        }
        return Some((0.0, (b.gamma / fd).max(0.0)));
    }
    let rows: Vec<Vec<f64>> = bins
        .iter()
        .map(|b| {
            let w = (b.pairs as f64).sqrt();
            vec![w, w * f(b.distance)]
        })
        .collect();
    let row_refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
    let a = Matrix::from_rows(&row_refs).ok()?;
    let rhs: Vec<f64> = bins
        .iter()
        .map(|b| (b.pairs as f64).sqrt() * b.gamma)
        .collect();
    let coef = krigeval_linalg::least_squares(&a, &rhs).ok()?;
    let (mut nugget, mut slope) = (coef[0], coef[1]);
    if nugget < 0.0 {
        // Re-fit slope with the nugget pinned at zero (1-D weighted LS).
        nugget = 0.0;
        let num: f64 = bins
            .iter()
            .map(|b| b.pairs as f64 * f(b.distance) * b.gamma)
            .sum();
        let den: f64 = bins
            .iter()
            .map(|b| b.pairs as f64 * f(b.distance) * f(b.distance))
            .sum();
        slope = if den > 0.0 { num / den } else { 0.0 };
    }
    if slope < 0.0 {
        slope = 0.0;
        let total: f64 = bins.iter().map(|b| b.pairs as f64).sum();
        nugget = (bins.iter().map(|b| b.gamma * b.pairs as f64).sum::<f64>() / total).max(0.0);
    }
    Some((nugget.max(0.0), slope.max(0.0)))
}

fn fit_linear(emp: &EmpiricalVariogram) -> Option<VariogramModel> {
    let (nugget, slope) = fit_affine(emp, |d| d)?;
    Some(VariogramModel::Linear { nugget, slope })
}

fn fit_power(emp: &EmpiricalVariogram) -> Option<VariogramModel> {
    let mut best: Option<(VariogramModel, f64)> = None;
    for step in 1..20 {
        let exponent = 0.1 * f64::from(step);
        if exponent >= 2.0 {
            break;
        }
        let Some((nugget, scale)) = fit_affine(emp, |d| d.powf(exponent)) else {
            continue;
        };
        let Ok(model) = VariogramModel::power(nugget, scale, exponent) else {
            continue;
        };
        let sse = weighted_sse(&model, emp);
        if best.as_ref().is_none_or(|(_, s)| sse < *s) {
            best = Some((model, sse));
        }
    }
    best.map(|(m, _)| m)
}

fn fit_bounded(emp: &EmpiricalVariogram, family: ModelFamily) -> Option<VariogramModel> {
    let bins = emp.bins();
    let d_min = bins.first()?.distance.max(1e-9);
    let d_max = bins.last()?.distance;
    if d_max <= d_min {
        return None;
    }
    let mut best: Option<(VariogramModel, f64)> = None;
    for step in 0..40 {
        let range = d_min + (3.0 * d_max - d_min) * f64::from(step) / 39.0;
        if range <= 0.0 {
            continue;
        }
        // With the range fixed, the model is nugget + sill · g(d).
        let g = |d: f64| -> f64 {
            match family {
                ModelFamily::Spherical => {
                    if d >= range {
                        1.0
                    } else {
                        let r = d / range;
                        1.5 * r - 0.5 * r * r * r
                    }
                }
                ModelFamily::Exponential => 1.0 - (-3.0 * d / range).exp(),
                ModelFamily::Gaussian => 1.0 - (-3.0 * d * d / (range * range)).exp(),
                _ => unreachable!("fit_bounded only handles bounded families"),
            }
        };
        let Some((nugget, sill)) = fit_affine(emp, g) else {
            continue;
        };
        // A gaussian variogram with a vanishing nugget yields notoriously
        // ill-conditioned kriging systems (its covariance is analytic);
        // standard practice is to pin a small relative nugget.
        let nugget = if family == ModelFamily::Gaussian {
            nugget.max(1e-3 * sill)
        } else {
            nugget
        };
        let model = match family {
            ModelFamily::Spherical => VariogramModel::spherical(nugget, sill, range),
            ModelFamily::Exponential => VariogramModel::exponential(nugget, sill, range),
            ModelFamily::Gaussian => VariogramModel::gaussian(nugget, sill, range),
            _ => unreachable!(),
        };
        let Ok(model) = model else { continue };
        let sse = weighted_sse(&model, emp);
        if best.as_ref().is_none_or(|(_, s)| sse < *s) {
            best = Some((model, sse));
        }
    }
    best.map(|(m, _)| m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DistanceMetric;

    fn emp_from_field(values: impl Fn(f64) -> f64, n: usize) -> EmpiricalVariogram {
        let sites: Vec<Vec<f64>> = (0..n).map(|i| vec![f64::from(i as u32)]).collect();
        let vals: Vec<f64> = (0..n).map(|i| values(f64::from(i as u32))).collect();
        EmpiricalVariogram::from_samples(&sites, &vals, DistanceMetric::L1, 1.0).unwrap()
    }

    #[test]
    fn linear_fit_recovers_slope_on_linear_variogram() {
        // Build an empirical variogram that IS linear: γ(d) = 0.5·d.
        // Use a Brownian-like construction: values = sqrt of cumulative —
        // simpler: fabricate bins via a field whose variogram we know:
        // λ(x) = x gives γ(d) = d²/2, so fit the power family instead below.
        // Here, synthesize a linear empirical variogram directly.
        let sites: Vec<Vec<f64>> = (0..40).map(|i| vec![f64::from(i)]).collect();
        // A random-walk field has a linear variogram in expectation.
        let mut acc = 0.0;
        let mut state = 88172645463325252u64;
        let vals: Vec<f64> = (0..40)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                acc += if u > 0.5 { 1.0 } else { -1.0 };
                acc
            })
            .collect();
        let emp = EmpiricalVariogram::from_samples(&sites, &vals, DistanceMetric::L1, 1.0).unwrap();
        let model = fit_linear(&emp).unwrap();
        if let VariogramModel::Linear { slope, .. } = model {
            assert!(slope > 0.0, "slope must be positive, got {slope}");
        } else {
            panic!("expected linear model");
        }
    }

    #[test]
    fn power_family_wins_on_quadratic_variogram() {
        // λ(x) = x ⇒ γ(d) = d²/2: only the power family (e → 1.9) can chase
        // a super-linear variogram.
        let emp = emp_from_field(|x| x, 12);
        let report = fit_model(&emp, &ModelFamily::all()).unwrap();
        assert_eq!(report.model.family_name(), "power");
        if let VariogramModel::Power { exponent, .. } = report.model {
            assert!(exponent > 1.5, "exponent {exponent} too small");
        }
    }

    #[test]
    fn nugget_family_wins_on_uncorrelated_field() {
        // Alternating ±1: γ(d) is flat-ish (d-parity striped, but no trend).
        let emp = emp_from_field(|x| if (x as i64) % 2 == 0 { 1.0 } else { -1.0 }, 16);
        let report = fit_model(&emp, &ModelFamily::all()).unwrap();
        // The best model must not grow without bound.
        let g_small = report.model.evaluate(1.0);
        let g_large = report.model.evaluate(15.0);
        assert!(g_large <= g_small * 4.0 + 2.5, "{:?}", report.model);
    }

    #[test]
    fn bounded_fit_plateaus_on_sine_field() {
        // A periodic field decorrelates then re-correlates; bounded models
        // should fit at least as well as linear.
        let emp = emp_from_field(|x| (x * 0.7).sin(), 30);
        let report = fit_model(&emp, &ModelFamily::all()).unwrap();
        let linear_sse = {
            let m = fit_linear(&emp).unwrap();
            weighted_sse(&m, &emp)
        };
        assert!(report.weighted_sse <= linear_sse + 1e-12);
    }

    #[test]
    fn fit_with_empty_family_list_fails() {
        let emp = emp_from_field(|x| x, 5);
        assert!(matches!(
            fit_model(&emp, &[]).unwrap_err(),
            CoreError::FitFailed { .. }
        ));
    }

    #[test]
    fn candidates_include_every_successful_family() {
        let emp = emp_from_field(|x| x + (x * 0.3).sin(), 15);
        let report = fit_model(&emp, &ModelFamily::all()).unwrap();
        assert!(report.candidates.len() >= 4, "{:?}", report.candidates);
        // The winner's SSE equals the minimum candidate SSE.
        let min = report
            .candidates
            .iter()
            .map(|(_, s)| *s)
            .fold(f64::INFINITY, f64::min);
        assert!((report.weighted_sse - min).abs() < 1e-12);
    }

    #[test]
    fn fitted_models_are_always_valid_variograms() {
        let emp = emp_from_field(|x| (x * 1.3).cos() * x.sqrt(), 25);
        let report = fit_model(&emp, &ModelFamily::all()).unwrap();
        // γ(0) = 0 and non-decreasing on a coarse grid.
        assert_eq!(report.model.evaluate(0.0), 0.0);
        let mut prev = 0.0;
        for i in 1..60 {
            let g = report.model.evaluate(f64::from(i) * 0.5);
            assert!(g + 1e-9 >= prev);
            prev = g;
        }
    }

    #[test]
    fn loo_selection_prefers_distance_aware_model_on_smooth_field() {
        // A smooth monotone field: pure nugget (predict-the-mean) must lose
        // the leave-one-out contest to any distance-aware family.
        let configs: Vec<Config> = (0..24).map(|i| vec![i, 0]).collect();
        let values: Vec<f64> = configs
            .iter()
            .map(|c| 0.7 * f64::from(c[0]) + 2.0)
            .collect();
        let sites: Vec<Vec<f64>> = configs.iter().map(|c| vec![f64::from(c[0]), 0.0]).collect();
        let emp = EmpiricalVariogram::from_samples(&sites, &values, DistanceMetric::L1, 1.0)
            .expect("empirical variogram");
        let report = fit_model_loo(
            &emp,
            &ModelFamily::all(),
            &configs,
            &values,
            DistanceMetric::L1,
            0.0,
        )
        .expect("loo fit");
        assert!(report.weighted_sse.is_finite());
        assert!(
            report.candidates.iter().any(|(_, s)| s.is_finite()),
            "{:?}",
            report.candidates
        );
        assert_ne!(report.model.family_name(), "nugget");
        // The winner is the candidate with the smallest finite LOO score.
        let (best_family, best_score) = report
            .candidates
            .iter()
            .filter(|(_, s)| s.is_finite())
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .copied()
            .expect("at least one finite candidate");
        assert!(best_score.is_finite());
        assert_eq!(fit_family(&emp, best_family), Some(report.model));
    }

    #[test]
    fn loo_selection_with_nugget_still_produces_a_model() {
        let configs: Vec<Config> = (0..16).map(|i| vec![i]).collect();
        let values: Vec<f64> = configs.iter().map(|c| f64::from(c[0]).sqrt()).collect();
        let sites: Vec<Vec<f64>> = configs.iter().map(|c| vec![f64::from(c[0])]).collect();
        let emp = EmpiricalVariogram::from_samples(&sites, &values, DistanceMetric::L1, 1.0)
            .expect("empirical variogram");
        let report = fit_model_loo(
            &emp,
            &ModelFamily::all(),
            &configs,
            &values,
            DistanceMetric::L1,
            0.05,
        )
        .expect("loo fit with nugget");
        assert!(report.weighted_sse.is_finite());
    }

    #[test]
    fn loo_with_too_few_sites_falls_back_to_weighted_sse() {
        let configs: Vec<Config> = vec![vec![0], vec![2]];
        let values = vec![0.0, 2.0];
        let sites = vec![vec![0.0], vec![2.0]];
        let emp = EmpiricalVariogram::from_samples(&sites, &values, DistanceMetric::L1, 1.0)
            .expect("empirical variogram");
        let loo = fit_model_loo(
            &emp,
            &ModelFamily::all(),
            &configs,
            &values,
            DistanceMetric::L1,
            0.0,
        )
        .expect("fallback fit");
        let sse = fit_model(&emp, &ModelFamily::all()).expect("sse fit");
        assert_eq!(loo.model, sse.model);
        assert_eq!(loo.candidates, sse.candidates);
    }

    #[test]
    fn single_bin_linear_fit_passes_through_point() {
        // Two sites, one pair: γ̂ has one bin; linear fit must go through it.
        let sites = vec![vec![0.0], vec![2.0]];
        let values = vec![0.0, 2.0];
        let emp =
            EmpiricalVariogram::from_samples(&sites, &values, DistanceMetric::L1, 1.0).unwrap();
        let model = fit_linear(&emp).unwrap();
        let bin = &emp.bins()[0];
        assert!((model.evaluate(bin.distance) - bin.gamma).abs() < 1e-12);
    }
}
