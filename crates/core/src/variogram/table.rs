//! Lattice γ-tables: memoized variogram evaluation over integer distances.
//!
//! Word-length configurations live on an integer lattice (the paper's
//! `e = (e₀, …)` vectors), so under any of the three metrics the pairwise
//! distances take few small values that can be indexed by an integer key:
//!
//! * **L1** — the distance itself, `Σ|Δ|`, is a non-negative integer;
//! * **L∞** — likewise, `max|Δ|`;
//! * **L2** — the distance is `√(ΣΔ²)`; the *squared* distance `ΣΔ²` is the
//!   integer key and the table stores `γ(√key)`.
//!
//! A [`GammaTable`] caches `model.evaluate(distance)` per key, removing the
//! transcendental calls (exp in the exponential/Gaussian models, powf in the
//! power model) from the Γ-assembly inner loops. Lookups are **bitwise
//! identical** to direct evaluation: integer keys below 2⁵³ convert to `f64`
//! exactly, and [`DistanceMetric::eval_config`] computes the same sums over
//! exactly-representable integer terms.

use crate::variogram::VariogramModel;
use crate::DistanceMetric;

/// Keys at or above this bound bypass the table (direct evaluation) so a
/// single far-apart pair cannot balloon the backing vector.
/// [`EmpiricalVariogram::from_configs`](crate::variogram::EmpiricalVariogram::from_configs)
/// caps its dense bins at the same bound.
pub(crate) const MAX_TABLE_KEYS: u64 = 1 << 16;

/// Integer lattice key of the distance between two configurations.
///
/// L1: `Σ|Δ|`; L∞: `max|Δ|`; L2: `ΣΔ²` (the squared distance).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn lattice_key(metric: DistanceMetric, a: &[i32], b: &[i32]) -> u64 {
    assert_eq!(a.len(), b.len(), "configuration length mismatch");
    match metric {
        DistanceMetric::L1 => a
            .iter()
            .zip(b)
            .map(|(&x, &y)| (i64::from(x) - i64::from(y)).unsigned_abs())
            .sum(),
        DistanceMetric::L2 => a
            .iter()
            .zip(b)
            .map(|(&x, &y)| {
                let d = i64::from(x) - i64::from(y);
                (d * d) as u64
            })
            .sum(),
        DistanceMetric::Linf => a
            .iter()
            .zip(b)
            .map(|(&x, &y)| (i64::from(x) - i64::from(y)).unsigned_abs())
            .max()
            .unwrap_or(0),
    }
}

/// The `f64` distance a lattice key denotes — equal (bitwise) to what
/// [`DistanceMetric::eval_config`] returns for the same pair, as long as the
/// integer sums stay below 2⁵³ (always true for word-length configurations).
pub fn lattice_distance(metric: DistanceMetric, key: u64) -> f64 {
    match metric {
        DistanceMetric::L1 | DistanceMetric::Linf => key as f64,
        DistanceMetric::L2 => (key as f64).sqrt(),
    }
}

/// A per-model lookup table of `γ(d)` over integer lattice distances.
///
/// Entries are filled lazily; the backing vector is grow-only, so steady-state
/// lookups perform no heap allocation.
///
/// # Examples
///
/// ```
/// use krigeval_core::variogram::{GammaTable, VariogramModel};
/// use krigeval_core::DistanceMetric;
///
/// let model = VariogramModel::exponential(0.0, 2.0, 5.0).unwrap();
/// let mut table = GammaTable::new(model, DistanceMetric::L1);
/// let a = [8, 8, 8];
/// let b = [9, 10, 8];
/// assert_eq!(
///     table.gamma_pair(&a, &b),
///     model.evaluate(DistanceMetric::L1.eval_config(&a, &b)),
/// );
/// ```
#[derive(Debug, Clone)]
pub struct GammaTable {
    model: VariogramModel,
    metric: DistanceMetric,
    /// `values[key] = γ(lattice_distance(key))`; NaN marks an unfilled slot
    /// (every model maps finite distances to finite γ).
    values: Vec<f64>,
}

impl GammaTable {
    /// Creates an empty table for `model` under `metric`.
    pub fn new(model: VariogramModel, metric: DistanceMetric) -> GammaTable {
        GammaTable {
            model,
            metric,
            values: Vec::new(),
        }
    }

    /// `true` if the table caches exactly this model/metric pair.
    pub fn matches(&self, model: &VariogramModel, metric: DistanceMetric) -> bool {
        self.metric == metric && self.model == *model
    }

    /// Re-targets the table at a different model/metric, invalidating all
    /// cached entries but keeping the backing allocation.
    pub fn reset(&mut self, model: VariogramModel, metric: DistanceMetric) {
        self.model = model;
        self.metric = metric;
        self.values.clear();
    }

    /// The model being tabulated.
    pub fn model(&self) -> &VariogramModel {
        &self.model
    }

    /// The metric whose lattice keys index the table.
    pub fn metric(&self) -> DistanceMetric {
        self.metric
    }

    /// `γ(d(a, b))`, memoized.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn gamma_pair(&mut self, a: &[i32], b: &[i32]) -> f64 {
        self.gamma_key(lattice_key(self.metric, a, b))
    }

    /// Batched lookup: appends `γ` at each of `keys` to `out` (cleared
    /// first), one memoized table pass for a whole flat key slab.
    ///
    /// This is the slab-assembly companion of
    /// [`gamma_key`](GammaTable::gamma_key): batch callers precompute the
    /// integer lattice keys for a row-major pair slab (a tight integer
    /// loop), then fill the matching γ slab in one pass here. Values are
    /// bitwise identical to per-key [`gamma_key`](GammaTable::gamma_key)
    /// calls.
    pub fn gamma_keys_into(&mut self, keys: &[u64], out: &mut Vec<f64>) {
        out.clear();
        out.reserve(keys.len());
        for &key in keys {
            out.push(self.gamma_key(key));
        }
    }

    /// `γ` at a precomputed lattice key, memoized.
    pub fn gamma_key(&mut self, key: u64) -> f64 {
        if key >= MAX_TABLE_KEYS {
            return self.model.evaluate(lattice_distance(self.metric, key));
        }
        let k = key as usize;
        if k >= self.values.len() {
            self.values.resize(k + 1, f64::NAN);
        }
        let cached = self.values[k];
        if cached.is_nan() {
            let g = self.model.evaluate(lattice_distance(self.metric, key));
            self.values[k] = g;
            g
        } else {
            cached
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn all_models() -> Vec<VariogramModel> {
        vec![
            VariogramModel::nugget(0.7),
            VariogramModel::linear(1.3),
            VariogramModel::power(0.1, 2.0, 1.5).unwrap(),
            VariogramModel::spherical(0.2, 3.0, 6.0).unwrap(),
            VariogramModel::exponential(0.0, 2.0, 5.0).unwrap(),
            VariogramModel::gaussian(0.05, 1.5, 4.0).unwrap(),
        ]
    }

    #[test]
    fn table_is_bitwise_identical_to_direct_evaluation() {
        let mut rng = StdRng::seed_from_u64(13);
        for metric in [DistanceMetric::L1, DistanceMetric::L2, DistanceMetric::Linf] {
            for model in all_models() {
                let mut table = GammaTable::new(model, metric);
                for _ in 0..300 {
                    let dim = rng.gen_range(1..8);
                    let a: Vec<i32> = (0..dim).map(|_| rng.gen_range(-30..30)).collect();
                    let b: Vec<i32> = (0..dim).map(|_| rng.gen_range(-30..30)).collect();
                    let direct = model.evaluate(metric.eval_config(&a, &b));
                    let tabled = table.gamma_pair(&a, &b);
                    assert_eq!(
                        direct.to_bits(),
                        tabled.to_bits(),
                        "metric {metric}, model {model:?}, pair {a:?}/{b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_lookup_matches_single_lookups() {
        let mut rng = StdRng::seed_from_u64(29);
        for metric in [DistanceMetric::L1, DistanceMetric::L2, DistanceMetric::Linf] {
            for model in all_models() {
                let mut table = GammaTable::new(model, metric);
                let keys: Vec<u64> = (0..200)
                    .map(|_| rng.gen_range(0..(MAX_TABLE_KEYS + 64)))
                    .collect();
                let mut batched = Vec::new();
                table.gamma_keys_into(&keys, &mut batched);
                assert_eq!(batched.len(), keys.len());
                let mut fresh = GammaTable::new(model, metric);
                for (k, b) in keys.iter().zip(&batched) {
                    assert_eq!(fresh.gamma_key(*k).to_bits(), b.to_bits());
                }
                // The output buffer is cleared, not appended to.
                table.gamma_keys_into(&keys[..3], &mut batched);
                assert_eq!(batched.len(), 3);
            }
        }
    }

    #[test]
    fn key_zero_is_gamma_zero() {
        for metric in [DistanceMetric::L1, DistanceMetric::L2, DistanceMetric::Linf] {
            let mut table = GammaTable::new(VariogramModel::nugget(5.0), metric);
            // γ(0) = 0 for every model, including the pure nugget.
            assert_eq!(table.gamma_pair(&[3, 4], &[3, 4]), 0.0);
        }
    }

    #[test]
    fn l2_key_is_the_squared_distance() {
        assert_eq!(lattice_key(DistanceMetric::L2, &[0, 0], &[3, 4]), 25);
        assert_eq!(lattice_distance(DistanceMetric::L2, 25), 5.0);
        assert_eq!(lattice_key(DistanceMetric::L1, &[0, 0], &[3, 4]), 7);
        assert_eq!(lattice_key(DistanceMetric::Linf, &[0, 0], &[3, 4]), 4);
    }

    #[test]
    fn huge_keys_bypass_the_table() {
        let mut table = GammaTable::new(VariogramModel::linear(1.0), DistanceMetric::L2);
        // ΣΔ² far beyond MAX_TABLE_KEYS: correct value, no huge allocation.
        let a = [0, 0];
        let b = [100_000, 0];
        let expected = VariogramModel::linear(1.0).evaluate(100_000.0);
        assert_eq!(table.gamma_pair(&a, &b), expected);
        assert!(table.values.len() < MAX_TABLE_KEYS as usize);
    }

    #[test]
    fn reset_retargets_the_model() {
        let m1 = VariogramModel::linear(1.0);
        let m2 = VariogramModel::linear(2.0);
        let mut table = GammaTable::new(m1, DistanceMetric::L1);
        assert_eq!(table.gamma_key(3), 3.0);
        assert!(table.matches(&m1, DistanceMetric::L1));
        assert!(!table.matches(&m2, DistanceMetric::L1));
        assert!(!table.matches(&m1, DistanceMetric::L2));
        table.reset(m2, DistanceMetric::L1);
        assert_eq!(table.gamma_key(3), 6.0);
        assert_eq!(table.metric(), DistanceMetric::L1);
        assert_eq!(table.model(), &m2);
    }

    #[test]
    fn repeated_lookups_do_not_grow_the_backing_vector() {
        let mut table = GammaTable::new(
            VariogramModel::gaussian(0.0, 1.0, 3.0).unwrap(),
            DistanceMetric::L1,
        );
        for k in 0..64 {
            table.gamma_key(k);
        }
        let cap = table.values.capacity();
        for _ in 0..10 {
            for k in 0..64 {
                table.gamma_key(k);
            }
        }
        assert_eq!(table.values.capacity(), cap);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        lattice_key(DistanceMetric::L1, &[1, 2], &[1]);
    }
}
