//! Assembly and solution of the ordinary-kriging system (paper Eqs. 7–10).

use std::cell::RefCell;

use krigeval_linalg::LdltWorkspace;

use crate::variogram::VariogramModel;
use crate::{CoreError, DistanceMetric};

/// Reusable workspace for ordinary-kriging solves.
///
/// All buffers — the base Γ matrix, the jittered working copy, the
/// right-hand sides, the solutions, the group solve's escalation list and
/// the [`LdltWorkspace`] — are grow-only and reused across calls, so a
/// steady-state solve, escalated through the jitter ladder or not,
/// performs **zero heap allocations**. Γ is assembled once per neighbor
/// set; regularization retries only re-add the jitter to the working copy
/// instead of re-evaluating the variogram for every entry.
///
/// The accessors ([`weights`](KrigingScratch::weights), etc.) are valid after
/// a successful [`solve_with`](KrigingScratch::solve_with) and refer to that
/// solve until the next call.
#[derive(Debug, Clone, Default)]
pub struct KrigingScratch {
    ldlt: LdltWorkspace,
    /// Base (n+1)² saddle-point matrix, row-major, jitter-free.
    base: Vec<f64>,
    /// Jittered working copy consumed by the factorization.
    work: Vec<f64>,
    /// `[γ(dᵢ, target); 1]`.
    rhs: Vec<f64>,
    /// `[μ; m]` after a successful solve.
    sol: Vec<f64>,
    /// Number of data sites of the last solve.
    n: usize,
    /// Jitter-ladder rungs retried by the last solve (0 = the jitter-free
    /// system succeeded outright).
    jitter_retries: u32,
    /// Group-solve RHS slab: `group_len` rows of `group_stride` entries,
    /// each row `[γ(dᵢ, targetₜ); 1; padding]`. Rows are padded to an
    /// 8-lane stride so every row starts cache-line aligned relative to
    /// the slab base.
    rhs_many: Vec<f64>,
    /// Group-solve solution slab, same layout as `rhs_many`; row `t` holds
    /// `[μ; m]` for target `t` after a successful group solve.
    sol_many: Vec<f64>,
    /// Per-target final jitter rung of the last group solve.
    group_retries: Vec<u32>,
    /// Per-target failure flags of the last group solve (`true` = the
    /// ladder was exhausted; the row of `sol_many` is unspecified).
    group_failed: Vec<bool>,
    /// Targets of the current group solve that the shared jitter-free
    /// factorization did not settle, in escalation order.
    pending: Vec<usize>,
    /// Number of targets in the last group solve.
    group_len: usize,
    /// Row stride of the `rhs_many`/`sol_many` slabs.
    group_stride: usize,
}

impl KrigingScratch {
    /// Creates an empty workspace.
    pub fn new() -> KrigingScratch {
        KrigingScratch::default()
    }

    /// Assembles and solves the ordinary-kriging system for `n` sites.
    ///
    /// `gamma(i, j)` must return the semi-variogram between site `i` and
    /// site `j` for `j < n`, and between site `i` and the *target* for
    /// `j == n`. It is called once per unordered site pair and once per site
    /// for the target — Γ's symmetry is exploited, unlike the previous
    /// full-matrix assembly.
    ///
    /// Singular or ill-conditioned systems (weight mass above the
    /// `16 + 2n` budget) escalate through the nugget-jitter ladder by
    /// mutating only the working copy.
    ///
    /// # Errors
    ///
    /// * [`CoreError::NoData`] if `n == 0`.
    /// * [`CoreError::SingularSystem`] if every jitter rung fails.
    /// * [`CoreError::Linalg`] on non-finite Γ entries.
    pub fn solve_with(
        &mut self,
        n: usize,
        mut gamma: impl FnMut(usize, usize) -> f64,
    ) -> Result<(), CoreError> {
        if n == 0 {
            return Err(CoreError::NoData);
        }
        let ns = n + 1;
        self.n = n;
        self.base.clear();
        self.base.resize(ns * ns, 0.0);
        for i in 0..n {
            for j in 0..i {
                let g = gamma(i, j);
                self.base[i * ns + j] = g;
                self.base[j * ns + i] = g;
            }
            // Diagonal stays 0 (γ(0) = 0); unit Lagrange border.
            self.base[i * ns + n] = 1.0;
            self.base[n * ns + i] = 1.0;
        }
        self.rhs.clear();
        for i in 0..n {
            self.rhs.push(gamma(i, n));
        }
        self.rhs.push(1.0);

        // The jitter scale follows the system's own magnitude. Beyond exact
        // singularity, near-duplicate sites in high-dimensional configuration
        // spaces produce *ill-conditioned* systems whose "solutions" carry
        // enormous oscillating weights; those interpolate garbage, so they
        // are rejected and retried with a stronger nugget jitter.
        let scale = self.rhs[..n]
            .iter()
            .fold(0.0f64, |m, g| m.max(g.abs()))
            .max(1.0);
        let weight_budget = 16.0 + 2.0 * n as f64; // Σ|μ| cap; honest weights are O(1)
        self.jitter_retries = 0;
        for (rung, jitter) in [0.0, 1e-10, 1e-6, 1e-3, 1e-1]
            .map(|j| j * scale)
            .into_iter()
            .enumerate()
        {
            self.jitter_retries = rung as u32;
            self.work.clear();
            self.work.extend_from_slice(&self.base);
            if jitter != 0.0 {
                for i in 0..n {
                    for j in 0..n {
                        if i != j {
                            self.work[i * ns + j] += jitter;
                        }
                    }
                }
            }
            match self.ldlt.factor(&self.work, ns) {
                Ok(()) => {}
                Err(krigeval_linalg::LinalgError::Singular { .. }) => continue,
                Err(e) => return Err(e.into()),
            }
            self.sol.clear();
            self.sol.extend_from_slice(&self.rhs);
            self.ldlt.solve_in_place(&mut self.sol)?;
            let l1: f64 = self.sol[..n].iter().map(|w| w.abs()).sum();
            if !l1.is_finite() || l1 > weight_budget {
                continue; // ill-conditioned: escalate the jitter
            }
            return Ok(());
        }
        Err(CoreError::SingularSystem { sites: n })
    }

    /// Assembles Γ **once** and solves it for `targets` right-hand sides
    /// sharing one neighbour set — the factor-once/solve-many batch path.
    ///
    /// `gamma(i, j)` must return the semi-variogram between site `i` and
    /// site `j` for `j < n`, and between site `i` and target `j - n` for
    /// `j >= n` (the multi-target extension of
    /// [`solve_with`](KrigingScratch::solve_with)'s convention).
    ///
    /// The jitter-free Γ is target-independent, so rung 0 of the ladder is
    /// one shared Bunch–Kaufman factorization followed by one blocked
    /// multi-RHS back-substitution. The jitter *scale* of later rungs is
    /// per-target (`max|γ(dᵢ, targetₜ)|`), so any target rejected at rung 0
    /// (singular factor, or weight mass over the `16 + 2n` budget) escalates
    /// **individually** through the remaining rungs — exactly the sequence a
    /// per-target [`solve_with`](KrigingScratch::solve_with) would run.
    /// Per-target results are therefore bitwise identical to sequential
    /// single-target solves; the parity proptests pin this.
    ///
    /// Per-target outcomes are reported through
    /// [`group_ok`](KrigingScratch::group_ok) rather than an error: one
    /// ill-conditioned target must not fail its whole group. The group
    /// accessors (`group_*`) are valid until the next solve; the
    /// single-solve accessors are invalidated.
    ///
    /// # Errors
    ///
    /// * [`CoreError::NoData`] if `n == 0`.
    /// * [`CoreError::Linalg`] on non-finite Γ entries.
    pub fn solve_group_with(
        &mut self,
        n: usize,
        targets: usize,
        mut gamma: impl FnMut(usize, usize) -> f64,
    ) -> Result<(), CoreError> {
        if n == 0 {
            return Err(CoreError::NoData);
        }
        let ns = n + 1;
        self.n = n;
        self.base.clear();
        self.base.resize(ns * ns, 0.0);
        for i in 0..n {
            for j in 0..i {
                let g = gamma(i, j);
                self.base[i * ns + j] = g;
                self.base[j * ns + i] = g;
            }
            // Diagonal stays 0 (γ(0) = 0); unit Lagrange border.
            self.base[i * ns + n] = 1.0;
            self.base[n * ns + i] = 1.0;
        }

        let stride = ns.next_multiple_of(8);
        self.group_len = targets;
        self.group_stride = stride;
        self.rhs_many.clear();
        self.rhs_many.resize(targets * stride, 0.0);
        for t in 0..targets {
            let row = &mut self.rhs_many[t * stride..t * stride + ns];
            for (i, ri) in row[..n].iter_mut().enumerate() {
                *ri = gamma(i, n + t);
            }
            row[n] = 1.0;
        }
        self.group_retries.clear();
        self.group_retries.resize(targets, 0);
        self.group_failed.clear();
        self.group_failed.resize(targets, false);
        if targets == 0 {
            return Ok(());
        }

        let weight_budget = 16.0 + 2.0 * n as f64;
        // Rung 0: one shared jitter-free factorization, all targets in one
        // blocked multi-RHS pass.
        self.work.clear();
        self.work.extend_from_slice(&self.base);
        self.sol_many.clear();
        self.sol_many.extend_from_slice(&self.rhs_many);
        self.pending.clear();
        match self.ldlt.factor(&self.work, ns) {
            Ok(()) => {
                self.ldlt.solve_many_in_place(&mut self.sol_many, stride)?;
                for t in 0..targets {
                    let sol = &self.sol_many[t * stride..t * stride + n];
                    let l1: f64 = sol.iter().map(|w| w.abs()).sum();
                    if !l1.is_finite() || l1 > weight_budget {
                        self.pending.push(t);
                    }
                }
            }
            Err(krigeval_linalg::LinalgError::Singular { .. }) => self.pending.extend(0..targets),
            Err(e) => return Err(e.into()),
        }

        // Stragglers escalate individually: each target's jitter scale is
        // its own, so later rungs cannot share a factorization.
        'target: for k in 0..self.pending.len() {
            let t = self.pending[k];
            let rhs_row = t * stride;
            let scale = self.rhs_many[rhs_row..rhs_row + n]
                .iter()
                .fold(0.0f64, |m, g| m.max(g.abs()))
                .max(1.0);
            for (rung, jitter) in [1e-10, 1e-6, 1e-3, 1e-1]
                .map(|j| j * scale)
                .into_iter()
                .enumerate()
            {
                self.work.clear();
                self.work.extend_from_slice(&self.base);
                for i in 0..n {
                    for j in 0..n {
                        if i != j {
                            self.work[i * ns + j] += jitter;
                        }
                    }
                }
                match self.ldlt.factor(&self.work, ns) {
                    Ok(()) => {}
                    Err(krigeval_linalg::LinalgError::Singular { .. }) => continue,
                    Err(e) => return Err(e.into()),
                }
                self.sol.clear();
                self.sol
                    .extend_from_slice(&self.rhs_many[rhs_row..rhs_row + ns]);
                self.ldlt.solve_in_place(&mut self.sol[..ns])?;
                let l1: f64 = self.sol[..n].iter().map(|w| w.abs()).sum();
                if !l1.is_finite() || l1 > weight_budget {
                    continue; // ill-conditioned: escalate the jitter
                }
                self.sol_many[rhs_row..rhs_row + ns].copy_from_slice(&self.sol[..ns]);
                self.group_retries[t] = rung as u32 + 1;
                continue 'target;
            }
            self.group_failed[t] = true;
        }
        Ok(())
    }

    /// Number of targets in the last group solve.
    pub fn group_len(&self) -> usize {
        self.group_len
    }

    /// Whether target `t` of the last group solve converged. When `false`,
    /// the target's accessors return unspecified values and the caller
    /// should treat it like a per-target
    /// [`CoreError::SingularSystem`].
    pub fn group_ok(&self, t: usize) -> bool {
        !self.group_failed[t]
    }

    /// The kriging weights `μ` of group target `t`.
    pub fn group_weights(&self, t: usize) -> &[f64] {
        let row = t * self.group_stride;
        &self.sol_many[row..row + self.n]
    }

    /// The Lagrange multiplier `m` of group target `t`.
    pub fn group_lagrange(&self, t: usize) -> f64 {
        self.sol_many[t * self.group_stride + self.n]
    }

    /// `γ(dᵢ, targetₜ)` of group target `t`.
    pub fn group_gamma_target(&self, t: usize) -> &[f64] {
        let row = t * self.group_stride;
        &self.rhs_many[row..row + self.n]
    }

    /// Jitter-ladder rungs target `t` escalated through (0 = solved by the
    /// shared jitter-free factorization).
    pub fn group_jitter_retries(&self, t: usize) -> u32 {
        self.group_retries[t]
    }

    /// `Σ μₖ·λ(eᵏ)` (Eq. 10) for group target `t`.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the number of weights.
    pub fn group_interpolate(&self, t: usize, values: &[f64]) -> f64 {
        assert_eq!(values.len(), self.n, "value count must match weight count");
        self.group_weights(t)
            .iter()
            .zip(values)
            .map(|(w, v)| w * v)
            .sum()
    }

    /// The ordinary-kriging variance of group target `t`, clamped at zero.
    pub fn group_variance(&self, t: usize) -> f64 {
        let v: f64 = self
            .group_weights(t)
            .iter()
            .zip(self.group_gamma_target(t))
            .map(|(w, g)| w * g)
            .sum::<f64>()
            + self.group_lagrange(t);
        v.max(0.0)
    }

    /// The kriging weights `μ` of the last successful solve.
    pub fn weights(&self) -> &[f64] {
        &self.sol[..self.n]
    }

    /// How many jitter-ladder rungs the last solve had to escalate
    /// through before succeeding (0 when the jitter-free system was
    /// well-conditioned). Valid after a successful
    /// [`solve_with`](KrigingScratch::solve_with).
    pub fn jitter_retries(&self) -> u32 {
        self.jitter_retries
    }

    /// The Lagrange multiplier `m` of the last successful solve.
    pub fn lagrange(&self) -> f64 {
        self.sol[self.n]
    }

    /// `γ(dᵢ, target)` of the last successful solve.
    pub fn gamma_target(&self) -> &[f64] {
        &self.rhs[..self.n]
    }

    /// `Σ μₖ·λ(eᵏ)` (Eq. 10) over the last solve's weights.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the number of weights.
    pub fn interpolate(&self, values: &[f64]) -> f64 {
        assert_eq!(values.len(), self.n, "value count must match weight count");
        self.weights().iter().zip(values).map(|(w, v)| w * v).sum()
    }

    /// The ordinary-kriging variance of the last solve, clamped at zero.
    pub fn variance(&self) -> f64 {
        let v: f64 = self
            .weights()
            .iter()
            .zip(self.gamma_target())
            .map(|(w, g)| w * g)
            .sum::<f64>()
            + self.lagrange();
        v.max(0.0)
    }
}

thread_local! {
    static SCRATCH: RefCell<KrigingScratch> = RefCell::new(KrigingScratch::new());
}

/// Runs `f` with this thread's shared [`KrigingScratch`].
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut KrigingScratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// Validates `sites` against `target` and solves into `scratch` using direct
/// variogram evaluation on `f64` points.
pub(crate) fn solve_points_into(
    scratch: &mut KrigingScratch,
    sites: &[Vec<f64>],
    target: &[f64],
    model: &VariogramModel,
    metric: DistanceMetric,
) -> Result<(), CoreError> {
    if sites.is_empty() {
        return Err(CoreError::NoData);
    }
    for (i, s) in sites.iter().enumerate() {
        if s.len() != target.len() {
            return Err(CoreError::DimensionMismatch {
                what: "kriging system".into(),
                detail: format!(
                    "site {i} has dimension {}, target has {}",
                    s.len(),
                    target.len()
                ),
            });
        }
    }
    let n = sites.len();
    scratch.solve_with(n, |i, j| {
        if j == n {
            model.evaluate(metric.eval(&sites[i], target))
        } else {
            model.evaluate(metric.eval(&sites[i], &sites[j]))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::kriging::{KrigingEstimator, Prediction};

    fn model() -> VariogramModel {
        VariogramModel::linear(1.0)
    }

    /// One prediction under [`model`] and L1, through the estimator's
    /// `solve_points_into`.
    fn predict(
        sites: &[Vec<f64>],
        values: &[f64],
        target: &[f64],
    ) -> Result<Prediction, CoreError> {
        KrigingEstimator::new(model()).predict(sites, values, target)
    }

    #[test]
    fn weights_sum_to_one() {
        let sites = vec![
            vec![0.0, 0.0],
            vec![2.0, 0.0],
            vec![0.0, 3.0],
            vec![4.0, 4.0],
        ];
        let p = predict(&sites, &[0.0; 4], &[1.0, 1.0]).unwrap();
        let sum: f64 = p.weights.iter().sum();
        assert!((sum - 1.0).abs() < 1e-10, "sum = {sum}");
    }

    #[test]
    fn target_on_a_site_gets_weight_one() {
        let sites = vec![vec![0.0], vec![1.0], vec![5.0]];
        let p = predict(&sites, &[0.0; 3], &[1.0]).unwrap();
        assert!((p.weights[1] - 1.0).abs() < 1e-9, "{:?}", p.weights);
        assert!(p.weights[0].abs() < 1e-9);
        assert!(p.weights[2].abs() < 1e-9);
        assert!(p.variance < 1e-9);
    }

    #[test]
    fn single_site_degenerates_to_that_value() {
        let sites = vec![vec![3.0, 3.0]];
        let p = predict(&sites, &[7.5], &[0.0, 0.0]).unwrap();
        assert!((p.weights[0] - 1.0).abs() < 1e-12);
        assert_eq!(p.value, 7.5);
        // Variance grows with distance from the lone site.
        assert!(p.variance > 0.0);
    }

    #[test]
    fn symmetric_sites_get_symmetric_weights() {
        let sites = vec![vec![-1.0], vec![1.0]];
        let p = predict(&sites, &[0.0; 2], &[0.0]).unwrap();
        assert!((p.weights[0] - 0.5).abs() < 1e-10);
        assert!((p.weights[1] - 0.5).abs() < 1e-10);
    }

    #[test]
    fn interpolate_recovers_linear_field_between_sites() {
        // Ordinary kriging with a linear variogram on a 1-D lattice is exact
        // for affine fields at interior points.
        let sites: Vec<Vec<f64>> = vec![vec![0.0], vec![2.0], vec![6.0], vec![10.0]];
        let values: Vec<f64> = sites.iter().map(|s| 3.0 + 2.0 * s[0]).collect();
        let est = predict(&sites, &values, &[4.0]).unwrap().value;
        assert!((est - 11.0).abs() < 1e-8, "est = {est}");
    }

    #[test]
    fn variance_increases_with_extrapolation_distance() {
        let sites = vec![vec![0.0], vec![1.0], vec![2.0]];
        let near = predict(&sites, &[0.0; 3], &[1.5]).unwrap();
        let far = predict(&sites, &[0.0; 3], &[8.0]).unwrap();
        assert!(far.variance > near.variance);
    }

    #[test]
    fn duplicate_sites_are_regularized_not_fatal() {
        let sites = vec![vec![1.0], vec![1.0], vec![3.0]];
        let est = predict(&sites, &[5.0, 5.0, 9.0], &[2.0]).unwrap().value;
        assert!((5.0..=9.0).contains(&est), "est = {est}");
    }

    #[test]
    fn empty_sites_rejected() {
        assert!(matches!(
            predict(&[], &[], &[0.0]).unwrap_err(),
            CoreError::NoData
        ));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let sites = vec![vec![0.0, 0.0]];
        assert!(matches!(
            predict(&sites, &[1.0], &[0.0]).unwrap_err(),
            CoreError::DimensionMismatch { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "value count")]
    fn interpolate_validates_length() {
        let sites = vec![vec![0.0], vec![1.0]];
        let mut scratch = KrigingScratch::new();
        solve_points_into(&mut scratch, &sites, &[0.5], &model(), DistanceMetric::L1).unwrap();
        let _ = scratch.interpolate(&[1.0]);
    }

    #[test]
    fn jitter_retry_reuse_matches_rebuilt_matrices() {
        // The scratch adds jitter to a cached base Γ; the pre-overhaul path
        // re-evaluated the variogram and computed `γ + jitter` entry by
        // entry for every retry. Both must agree bitwise.
        let m = model();
        let metric = DistanceMetric::L1;
        // Duplicate sites force the ladder past the jitter-free rung.
        let sites = vec![vec![1.0], vec![1.0], vec![3.0], vec![8.0]];
        let target = [2.0];
        let n = sites.len();
        let ns = n + 1;

        // Reference: rebuild the full matrix from scratch at every rung.
        let rhs: Vec<f64> = sites
            .iter()
            .map(|s| m.evaluate(metric.eval(s, &target)))
            .chain([1.0])
            .collect();
        let scale = rhs[..n]
            .iter()
            .fold(0.0f64, |acc, g| acc.max(g.abs()))
            .max(1.0);
        let budget = 16.0 + 2.0 * n as f64;
        let mut reference: Option<Vec<f64>> = None;
        for jitter in [0.0, 1e-10, 1e-6, 1e-3, 1e-1].map(|j| j * scale) {
            let mut a = vec![0.0; ns * ns];
            for i in 0..n {
                for j in 0..n {
                    if i != j {
                        a[i * ns + j] = m.evaluate(metric.eval(&sites[i], &sites[j])) + jitter;
                    }
                }
                a[i * ns + n] = 1.0;
                a[n * ns + i] = 1.0;
            }
            let mut ws = krigeval_linalg::LdltWorkspace::new();
            if ws.factor(&a, ns).is_err() {
                continue;
            }
            let mut sol = rhs.clone();
            ws.solve_in_place(&mut sol).unwrap();
            if sol[..n].iter().map(|w| w.abs()).sum::<f64>() > budget {
                continue;
            }
            reference = Some(sol);
            break;
        }
        let reference = reference.expect("reference ladder must converge");

        let mut scratch = KrigingScratch::new();
        solve_points_into(&mut scratch, &sites, &target, &m, metric).unwrap();
        assert_eq!(scratch.weights(), &reference[..n]);
        assert_eq!(scratch.lagrange().to_bits(), reference[n].to_bits());
    }

    #[test]
    fn group_solve_is_bitwise_identical_to_sequential_solves() {
        /// What the jitter-free rung does with a fixed input's targets.
        #[derive(Clone, Copy, PartialEq)]
        enum Rung0 {
            /// Some targets settle there, others escalate.
            Mixed,
            /// Γ is singular without jitter: every target escalates.
            Singular,
            /// Γ factors without jitter, yet every target's weights exceed
            /// the `16 + 2n` budget: only the budget escalates them.
            OverBudget,
        }
        let metric = DistanceMetric::L1;
        let gaussian = VariogramModel::gaussian(0.0, 1.5, 4.0).unwrap();
        let row =
            |step: f64| -> Vec<Vec<f64>> { (0..8).map(|i| vec![f64::from(i) * step]).collect() };
        let targets: Vec<Vec<f64>> = vec![vec![4.0], vec![1.5], vec![9.0], vec![2.0], vec![0.25]];
        let far: Vec<Vec<f64>> = vec![vec![4.0], vec![9.0], vec![2.0]];
        let cases = [
            (
                model(),
                vec![vec![0.0], vec![2.0], vec![6.0], vec![10.0]],
                &targets,
                Rung0::Mixed,
            ),
            // Duplicate sites force some targets past the shared rung-0
            // factorization into the per-target jitter ladder.
            (
                model(),
                vec![vec![1.0], vec![1.0], vec![3.0], vec![8.0]],
                &targets,
                Rung0::Mixed,
            ),
            // Eight near-duplicate sites x = 0, 0.01, …, 0.07 under a smooth
            // Gaussian model. Its first jittered rungs factor with weight
            // mass in the thousands; a ladder without the budget accepts
            // them and answers far off the kriged value.
            (gaussian, row(0.01), &far, Rung0::Singular),
            // The same row spread to x = 0, 0.2, …, 1.4.
            (gaussian, row(0.2), &far, Rung0::OverBudget),
        ];
        for (m, sites, targets, rung0) in &cases {
            let n = sites.len();
            let budget = 16.0 + 2.0 * n as f64;
            let gamma = |i: usize, j: usize| {
                if j < n {
                    m.evaluate(metric.eval(&sites[i], &sites[j]))
                } else {
                    m.evaluate(metric.eval(&sites[i], &targets[j - n]))
                }
            };
            let mut group = KrigingScratch::new();
            group.solve_group_with(n, targets.len(), gamma).unwrap();
            assert_eq!(group.group_len(), targets.len());
            if *rung0 != Rung0::Mixed {
                let factors = LdltWorkspace::new().factor(&group.base, n + 1).is_ok();
                assert_eq!(factors, *rung0 == Rung0::OverBudget, "sites {sites:?}");
            }
            for (t, target) in targets.iter().enumerate() {
                let mut single = KrigingScratch::new();
                solve_points_into(&mut single, sites, target, m, metric).unwrap();
                assert!(group.group_ok(t));
                let gw: Vec<u64> = group.group_weights(t).iter().map(|w| w.to_bits()).collect();
                let sw: Vec<u64> = single.weights().iter().map(|w| w.to_bits()).collect();
                assert_eq!(gw, sw, "sites {sites:?} target {target:?}");
                assert_eq!(
                    group.group_lagrange(t).to_bits(),
                    single.lagrange().to_bits()
                );
                assert_eq!(group.group_gamma_target(t), single.gamma_target());
                assert_eq!(group.group_jitter_retries(t), single.jitter_retries());
                assert_eq!(
                    group.group_variance(t).to_bits(),
                    single.variance().to_bits()
                );
                let mass: f64 = single.weights().iter().map(|w| w.abs()).sum();
                assert!(mass <= budget, "Σ|μ| = {mass} at target {target:?}");
                if *rung0 != Rung0::Mixed {
                    assert!(single.jitter_retries() > 0, "target {target:?}");
                }
            }
        }
    }

    #[test]
    fn group_solve_isolates_a_poisoned_target() {
        // A NaN right-hand side must fail only its own target, leaving the
        // other group members bitwise intact.
        let m = model();
        let metric = DistanceMetric::L1;
        let sites = vec![vec![0.0], vec![2.0], vec![6.0]];
        let n = sites.len();
        let good = [4.0];
        let mut group = KrigingScratch::new();
        group
            .solve_group_with(n, 2, |i, j| {
                if j < n {
                    m.evaluate(metric.eval(&sites[i], &sites[j]))
                } else if j == n {
                    f64::NAN // target 0 is poisoned
                } else {
                    m.evaluate(metric.eval(&sites[i], &good))
                }
            })
            .unwrap();
        assert!(!group.group_ok(0));
        assert!(group.group_ok(1));
        let mut single = KrigingScratch::new();
        solve_points_into(&mut single, &sites, &good, &m, metric).unwrap();
        assert_eq!(group.group_weights(1), single.weights());
        assert_eq!(
            group.group_lagrange(1).to_bits(),
            single.lagrange().to_bits()
        );
    }

    #[test]
    fn group_solve_edge_cases() {
        let mut scratch = KrigingScratch::new();
        assert!(matches!(
            scratch.solve_group_with(0, 3, |_, _| 0.0).unwrap_err(),
            CoreError::NoData
        ));
        // Zero targets: assembles Γ, solves nothing, reports an empty group.
        scratch.solve_group_with(2, 0, |_, _| 1.0).unwrap();
        assert_eq!(scratch.group_len(), 0);
    }

    #[test]
    fn scratch_reuse_matches_fresh_workspace() {
        // Regression for the Γ-reuse-across-jitter-retries design: a scratch
        // that has already served many solves (including regularized ones)
        // must produce bitwise-identical weights to a fresh workspace.
        let m = model();
        let cases: Vec<(Vec<Vec<f64>>, Vec<f64>)> = vec![
            (vec![vec![0.0], vec![2.0], vec![6.0], vec![10.0]], vec![4.0]),
            // Duplicate sites: forces the jitter ladder past rung 0.
            (vec![vec![1.0], vec![1.0], vec![3.0]], vec![2.0]),
            (
                vec![vec![0.0, 0.0], vec![2.0, 0.0], vec![0.0, 3.0]],
                vec![1.0, 1.0],
            ),
        ];
        let mut reused = KrigingScratch::new();
        for (sites, target) in &cases {
            // Warm the reused scratch with unrelated solves first.
            let warm = vec![vec![0.0], vec![5.0], vec![9.0], vec![13.0], vec![20.0]];
            solve_points_into(&mut reused, &warm, &[7.0], &m, DistanceMetric::L1).unwrap();

            let mut fresh = KrigingScratch::new();
            solve_points_into(&mut fresh, sites, target, &m, DistanceMetric::L1).unwrap();
            solve_points_into(&mut reused, sites, target, &m, DistanceMetric::L1).unwrap();
            assert_eq!(fresh.weights(), reused.weights());
            assert_eq!(fresh.lagrange().to_bits(), reused.lagrange().to_bits());
            assert_eq!(fresh.gamma_target(), reused.gamma_target());
        }
    }
}
