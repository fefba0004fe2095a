//! Multi-RHS parity suite: the factor-once/solve-many group solve must be
//! **bitwise identical** to single-target solves.
//!
//! [`KrigingScratch::solve_group_with`] is the only multi-target solve: the
//! hybrid evaluator's commit calls it for every neighbour-set group, and a
//! single `evaluate` is a group of one. It is pinned against sequential
//! [`KrigingScratch::solve_with`] over arbitrary neighbour-set groupings
//! (random site pools, random group partitions, duplicate sites that force
//! the jitter ladder) on every output, the variance σ² included.
//!
//! Identity, not closeness: every assertion compares `f64::to_bits`. The
//! batch path walks the same pivot sequence with the same operand order,
//! so there is no legitimate source of drift — any mismatch is a bug.

use krigeval_core::kriging::KrigingScratch;
use krigeval_core::variogram::VariogramModel;
use krigeval_core::DistanceMetric;
use proptest::prelude::*;

/// The variogram models exercised (index-picked; the vendored proptest
/// stub has no `prop_oneof!`).
fn pick_model(which: usize) -> VariogramModel {
    match which % 4 {
        0 => VariogramModel::linear(1.3),
        1 => VariogramModel::exponential(0.0, 2.0, 5.0).unwrap(),
        2 => VariogramModel::gaussian(0.05, 1.5, 4.0).unwrap(),
        _ => VariogramModel::spherical(0.2, 3.0, 6.0).unwrap(),
    }
}

fn pick_metric(which: usize) -> DistanceMetric {
    match which % 3 {
        0 => DistanceMetric::L1,
        1 => DistanceMetric::L2,
        _ => DistanceMetric::Linf,
    }
}

/// Max configuration dimension drawn; each case truncates to its own dim.
const MAX_DIM: usize = 5;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// One `solve_group_with` per group is bitwise identical — weights,
    /// Lagrange multiplier, target γ vector, interpolated value, variance
    /// and the jitter rung reached — to a fresh per-target `solve_with`,
    /// for arbitrary neighbour-set groupings over a shared site pool
    /// (duplicate pool sites routinely force the jitter ladder, covering
    /// the per-target escalation path too).
    #[test]
    fn group_solve_matches_sequential_solves_for_arbitrary_groupings(
        dim in 2usize..=MAX_DIM,
        raw_pool in proptest::collection::vec(
            proptest::collection::vec(0i32..12, MAX_DIM), 4..=14),
        values in proptest::collection::vec(-4.0f64..9.0, 14usize),
        raw_groups in proptest::collection::vec(
            (
                proptest::collection::vec(0usize..64, 1..=14),
                proptest::collection::vec(
                    proptest::collection::vec(0i32..12, MAX_DIM), 1..=6),
            ),
            1..=4,
        ),
        model_pick in 0usize..4,
        metric_pick in 0usize..3,
    ) {
        let model = pick_model(model_pick);
        let metric = pick_metric(metric_pick);
        let pool: Vec<Vec<i32>> = raw_pool
            .iter()
            .map(|s| s[..dim].to_vec())
            .collect();
        let mut group_scratch = KrigingScratch::new();
        let mut single_scratch = KrigingScratch::new();
        for (raw_positions, raw_targets) in &raw_groups {
            // Neighbour sets are position sets: draw arbitrary pool
            // indices, dedup keeping draw order (like the planner's
            // neighbour lists).
            let mut seen = vec![false; pool.len()];
            let mut neighbors: Vec<usize> = Vec::new();
            for &p in raw_positions {
                let p = p % pool.len();
                if !seen[p] {
                    seen[p] = true;
                    neighbors.push(p);
                }
            }
            let targets: Vec<Vec<i32>> =
                raw_targets.iter().map(|t| t[..dim].to_vec()).collect();
            let n = neighbors.len();
            let gamma = |i: usize, j: usize, target: &[i32]| {
                let a = &pool[neighbors[i]];
                let d = if j < n {
                    metric.eval_config(a, &pool[neighbors[j]])
                } else {
                    metric.eval_config(a, target)
                };
                model.evaluate(d)
            };
            group_scratch
                .solve_group_with(n, targets.len(), |i, j| {
                    if j < n {
                        gamma(i, j, &[])
                    } else {
                        gamma(i, n, &targets[j - n])
                    }
                })
                .expect("finite gamma never errors the group");
            prop_assert_eq!(group_scratch.group_len(), targets.len());
            let group_values: Vec<f64> =
                neighbors.iter().map(|&p| values[p]).collect();
            for (t, target) in targets.iter().enumerate() {
                let single = single_scratch.solve_with(n, |i, j| gamma(i, j, target));
                prop_assert_eq!(single.is_ok(), group_scratch.group_ok(t));
                if single.is_err() {
                    continue;
                }
                prop_assert_eq!(
                    single_scratch.jitter_retries(),
                    group_scratch.group_jitter_retries(t)
                );
                for (a, b) in single_scratch
                    .weights()
                    .iter()
                    .zip(group_scratch.group_weights(t))
                {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
                prop_assert_eq!(
                    single_scratch.lagrange().to_bits(),
                    group_scratch.group_lagrange(t).to_bits()
                );
                for (a, b) in single_scratch
                    .gamma_target()
                    .iter()
                    .zip(group_scratch.group_gamma_target(t))
                {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
                prop_assert_eq!(
                    single_scratch.interpolate(&group_values).to_bits(),
                    group_scratch.group_interpolate(t, &group_values).to_bits()
                );
                prop_assert_eq!(
                    single_scratch.variance().to_bits(),
                    group_scratch.group_variance(t).to_bits()
                );
            }
        }
    }
}
