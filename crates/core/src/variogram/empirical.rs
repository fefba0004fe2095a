//! Empirical semi-variogram (paper Eq. 4), batch and incremental.

use crate::variogram::table::{lattice_distance, MAX_TABLE_KEYS};
use crate::{Config, CoreError, DistanceMetric};
use std::collections::BTreeMap;

/// One distance bin of the empirical semi-variogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariogramBin {
    /// Representative distance of the bin (mean pair distance).
    pub distance: f64,
    /// The semi-variance `γ̂(d)` of Eq. 4.
    pub gamma: f64,
    /// Number of point pairs `|N(d)|` that fell in the bin.
    pub pairs: usize,
}

/// The empirical semi-variogram
/// `γ̂(d) = 1/(2|N(d)|) · Σ_{(j,k)∈N(d)} (λ(eʲ) − λ(eᵏ))²`
/// computed over all pairs of measured configurations, binned by distance.
///
/// Word-length configurations live on an integer lattice under the L1
/// metric, so with the default `bin_width = 1` every bin collects the pairs
/// at one exact lattice distance — no smoothing artefacts.
///
/// # Examples
///
/// ```
/// use krigeval_core::variogram::EmpiricalVariogram;
/// use krigeval_core::DistanceMetric;
///
/// # fn main() -> Result<(), krigeval_core::CoreError> {
/// let sites = vec![vec![0.0], vec![1.0], vec![2.0]];
/// let values = vec![0.0, 1.0, 2.0]; // linear field
/// let v = EmpiricalVariogram::from_samples(&sites, &values, DistanceMetric::L1, 1.0)?;
/// // Pairs at distance 1: (0,1), (1,2): γ = (1² + 1²)/(2·2) = 0.5.
/// let bin1 = &v.bins()[0];
/// assert_eq!(bin1.pairs, 2);
/// assert!((bin1.gamma - 0.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalVariogram {
    bins: Vec<VariogramBin>,
    metric: DistanceMetric,
}

impl EmpiricalVariogram {
    /// Computes the empirical semi-variogram of `values` sampled at `sites`.
    ///
    /// # Errors
    ///
    /// * [`CoreError::DimensionMismatch`] if `sites.len() != values.len()`
    ///   or the sites have inconsistent dimensions.
    /// * [`CoreError::FitFailed`] if fewer than two sites are given (no
    ///   pairs to measure) or `bin_width <= 0`.
    pub fn from_samples(
        sites: &[Vec<f64>],
        values: &[f64],
        metric: DistanceMetric,
        bin_width: f64,
    ) -> Result<EmpiricalVariogram, CoreError> {
        if sites.len() != values.len() {
            return Err(CoreError::DimensionMismatch {
                what: "empirical variogram".into(),
                detail: format!("{} sites vs {} values", sites.len(), values.len()),
            });
        }
        if sites.len() < 2 {
            return Err(CoreError::FitFailed {
                reason: "need at least two sites to form a pair".into(),
            });
        }
        if bin_width.is_nan() || bin_width <= 0.0 {
            return Err(CoreError::FitFailed {
                reason: format!("bin width must be positive, got {bin_width}"),
            });
        }
        let dim = sites[0].len();
        for (i, s) in sites.iter().enumerate() {
            if s.len() != dim {
                return Err(CoreError::DimensionMismatch {
                    what: "empirical variogram".into(),
                    detail: format!("site {i} has dimension {} (expected {dim})", s.len()),
                });
            }
        }

        // bin index -> (Σ squared diff, Σ distance, count)
        let mut acc: BTreeMap<u64, (f64, f64, usize)> = BTreeMap::new();
        for j in 0..sites.len() {
            for k in (j + 1)..sites.len() {
                let d = metric.eval(&sites[j], &sites[k]);
                let diff = values[j] - values[k];
                let bin = (d / bin_width).round() as u64;
                let e = acc.entry(bin).or_insert((0.0, 0.0, 0));
                e.0 += diff * diff;
                e.1 += d;
                e.2 += 1;
            }
        }
        let bins = acc
            .into_iter()
            .map(|(_, (sum_sq, sum_d, pairs))| VariogramBin {
                distance: sum_d / pairs as f64,
                gamma: sum_sq / (2.0 * pairs as f64),
                pairs,
            })
            .collect();
        Ok(EmpiricalVariogram { bins, metric })
    }

    /// Convenience constructor for integer configurations with unit bins.
    ///
    /// Runs on the integer lattice directly (no per-site `f64` conversion)
    /// via [`VariogramAccumulator`].
    ///
    /// # Errors
    ///
    /// See [`EmpiricalVariogram::from_samples`].
    pub fn from_configs(
        configs: &[Config],
        values: &[f64],
        metric: DistanceMetric,
    ) -> Result<EmpiricalVariogram, CoreError> {
        if configs.len() != values.len() {
            return Err(CoreError::DimensionMismatch {
                what: "empirical variogram".into(),
                detail: format!("{} sites vs {} values", configs.len(), values.len()),
            });
        }
        if configs.len() < 2 {
            return Err(CoreError::FitFailed {
                reason: "need at least two sites to form a pair".into(),
            });
        }
        let dim = configs[0].len();
        for (i, c) in configs.iter().enumerate() {
            if c.len() != dim {
                return Err(CoreError::DimensionMismatch {
                    what: "empirical variogram".into(),
                    detail: format!("site {i} has dimension {} (expected {dim})", c.len()),
                });
            }
        }
        let mut acc = VariogramAccumulator::new(metric);
        acc.sync(configs, values);
        acc.snapshot()
    }

    /// The distance bins, sorted by increasing distance.
    pub fn bins(&self) -> &[VariogramBin] {
        &self.bins
    }

    /// The metric the pairs were measured with.
    pub fn metric(&self) -> DistanceMetric {
        self.metric
    }

    /// Total number of pairs across all bins.
    pub fn total_pairs(&self) -> usize {
        self.bins.iter().map(|b| b.pairs).sum()
    }
}

/// Running sums of one distance bin: `(Σ squared diff, Σ distance, count)`.
type BinSums = (f64, f64, usize);

/// Incremental empirical semi-variogram over integer configurations with
/// unit bins.
///
/// Recomputing all `N·(N-1)/2` pairs each time sites arrive is O(N²) per
/// snapshot; this accumulator keeps per-bin running sums and folds in only
/// the sites appended since the last [`sync`](VariogramAccumulator::sync) —
/// O(new·N) pair updates per snapshot instead. The hybrid evaluator's one
/// identification syncs a fresh accumulator over its whole store.
///
/// The synced configurations are kept column-major, one column per
/// variable, grown by each sync. A new site's lattice keys against every
/// earlier site are computed in passes over the columns, lanes of earlier
/// sites at a time; then its pairs are added to their bins in site order.
/// Each bin below 2¹⁶ is summed in a dense vector indexed by bin, so a
/// pair costs no map lookup. The rare bins at or above 2¹⁶ (pairs more
/// than 65,535 lattice units apart) go to an ordered map, so the vector
/// never holds more than 2¹⁶ bins whatever the input. Under L1 and L∞ a
/// pair's distance is its key, so a dense bin is the key itself. Every bin
/// adds its pairs in sync order (new-site-major) wherever it is stored,
/// and the snapshot lists the bins by increasing distance.
///
/// Pair sums are accumulated in a different order than the batch
/// [`EmpiricalVariogram::from_samples`] loop (new-site-major rather than
/// low-index-major), so bin statistics agree to floating-point reassociation
/// accuracy (≈1e-15 relative), not bitwise.
///
/// # Examples
///
/// ```
/// use krigeval_core::variogram::VariogramAccumulator;
/// use krigeval_core::DistanceMetric;
///
/// let configs = vec![vec![0], vec![1], vec![2]];
/// let values = vec![0.0, 1.0, 2.0];
/// let mut acc = VariogramAccumulator::new(DistanceMetric::L1);
/// acc.sync(&configs[..2], &values[..2]); // first two sites
/// acc.sync(&configs, &values); // one new site: only 2 new pairs folded in
/// let v = acc.snapshot().unwrap();
/// assert_eq!(v.total_pairs(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct VariogramAccumulator {
    metric: DistanceMetric,
    /// Sums of the bins below [`MAX_TABLE_KEYS`], indexed by bin; grows to
    /// the largest such bin seen.
    dense: Vec<BinSums>,
    /// Sums of the bins at or above [`MAX_TABLE_KEYS`].
    sparse: BTreeMap<u64, BinSums>,
    /// The folded-in configurations, one column per variable (the length
    /// of the first configuration synced), `consumed` entries each.
    columns: Vec<Vec<i32>>,
    /// How many leading sites of the backing store have been folded in.
    consumed: usize,
}

impl VariogramAccumulator {
    /// Creates an empty accumulator for `metric` with unit bins.
    pub fn new(metric: DistanceMetric) -> VariogramAccumulator {
        VariogramAccumulator {
            metric,
            ..VariogramAccumulator::default()
        }
    }

    /// The metric pairs are measured with.
    pub fn metric(&self) -> DistanceMetric {
        self.metric
    }

    /// How many sites have been folded in so far.
    pub fn consumed(&self) -> usize {
        self.consumed
    }

    /// Drops all accumulated pairs.
    pub fn clear(&mut self) {
        self.dense.clear();
        self.sparse.clear();
        self.columns.clear();
        self.consumed = 0;
    }

    /// Folds the sites appended since the last call into the running sums.
    ///
    /// `configs`/`values` must be the same grow-only sequence across calls:
    /// the first [`consumed`](VariogramAccumulator::consumed) entries are
    /// assumed unchanged and only `configs[consumed..]` are paired (each
    /// against every earlier site).
    ///
    /// # Panics
    ///
    /// Panics if `configs` and `values` have different lengths, if the
    /// sequence shrank below what was already consumed, or if configurations
    /// have inconsistent dimensions.
    pub fn sync(&mut self, configs: &[Config], values: &[f64]) {
        assert_eq!(
            configs.len(),
            values.len(),
            "configuration and value counts must match"
        );
        assert!(
            configs.len() >= self.consumed,
            "accumulator backing store shrank ({} sites, {} consumed)",
            configs.len(),
            self.consumed
        );
        let from = self.consumed;
        if from == 0 {
            if let Some(first) = configs.first() {
                self.columns = (0..first.len())
                    .map(|_| Vec::with_capacity(configs.len()))
                    .collect();
            }
        }
        for config in &configs[from..] {
            assert_eq!(
                config.len(),
                self.columns.len(),
                "configuration length mismatch"
            );
            for (column, &w) in self.columns.iter_mut().zip(config) {
                column.push(w);
            }
        }
        let mut keys = Vec::with_capacity(configs.len());
        for j in from..configs.len() {
            self.lattice_keys(j, &mut keys);
            self.add_pairs(values[j], &values[..j], &keys);
        }
        self.consumed = configs.len();
    }

    /// Sets `keys` to the [`lattice_key`](crate::variogram::lattice_key)
    /// of site `j` against each site `k < j`, one column at a time.
    fn lattice_keys(&self, j: usize, keys: &mut Vec<u64>) {
        keys.clear();
        keys.resize(j, 0);
        for column in &self.columns {
            let (earlier, x) = (&column[..j], column[j]);
            let terms = keys.iter_mut().zip(earlier);
            match self.metric {
                DistanceMetric::L1 => terms.for_each(|(key, &w)| *key += u64::from(w.abs_diff(x))),
                DistanceMetric::L2 => terms.for_each(|(key, &w)| {
                    let d = u64::from(w.abs_diff(x));
                    *key += d * d;
                }),
                DistanceMetric::Linf => {
                    terms.for_each(|(key, &w)| *key = (*key).max(u64::from(w.abs_diff(x))))
                }
            }
        }
    }

    /// Adds the pairs of a site valued `value` with each earlier site, in
    /// order, to the sums of their bins; `keys[k]` is the pair's lattice
    /// key with the site valued `earlier[k]`.
    fn add_pairs(&mut self, value: f64, earlier: &[f64], keys: &[u64]) {
        let linear = self.metric != DistanceMetric::L2;
        for (&key, &other) in keys.iter().zip(earlier) {
            let diff = value - other;
            // Under L1 and L∞ the distance is the key, so a key below the
            // dense cap is its own bin.
            let (bin, d) = if linear && key < MAX_TABLE_KEYS {
                (key, key as f64)
            } else {
                let d = lattice_distance(self.metric, key);
                (d.round() as u64, d)
            };
            let e = if bin < MAX_TABLE_KEYS {
                let bin = bin as usize;
                if bin >= self.dense.len() {
                    self.dense.resize(bin + 1, (0.0, 0.0, 0));
                }
                &mut self.dense[bin]
            } else {
                self.sparse.entry(bin).or_insert((0.0, 0.0, 0))
            };
            e.0 += diff * diff;
            e.1 += d;
            e.2 += 1;
        }
    }

    /// Materializes the current sums as an [`EmpiricalVariogram`].
    ///
    /// # Errors
    ///
    /// [`CoreError::FitFailed`] if no pair has been accumulated yet.
    pub fn snapshot(&self) -> Result<EmpiricalVariogram, CoreError> {
        let bins: Vec<VariogramBin> = self
            .dense
            .iter()
            .chain(self.sparse.values())
            .filter(|&&(_, _, pairs)| pairs > 0)
            .map(|&(sum_sq, sum_d, pairs)| VariogramBin {
                distance: sum_d / pairs as f64,
                gamma: sum_sq / (2.0 * pairs as f64),
                pairs,
            })
            .collect();
        if bins.is_empty() {
            return Err(CoreError::FitFailed {
                reason: "need at least two sites to form a pair".into(),
            });
        }
        Ok(EmpiricalVariogram {
            bins,
            metric: self.metric,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variogram::table::lattice_key;

    #[test]
    fn pair_count_is_n_choose_2() {
        let sites: Vec<Vec<f64>> = (0..6).map(|i| vec![f64::from(i)]).collect();
        let values: Vec<f64> = (0..6).map(f64::from).collect();
        let v = EmpiricalVariogram::from_samples(&sites, &values, DistanceMetric::L1, 1.0).unwrap();
        assert_eq!(v.total_pairs(), 15);
    }

    #[test]
    fn linear_field_gives_quadratic_variogram() {
        // λ(x) = x on a 1-D lattice: γ(d) = d²/2 exactly.
        let sites: Vec<Vec<f64>> = (0..10).map(|i| vec![f64::from(i)]).collect();
        let values: Vec<f64> = (0..10).map(f64::from).collect();
        let v = EmpiricalVariogram::from_samples(&sites, &values, DistanceMetric::L1, 1.0).unwrap();
        for bin in v.bins() {
            assert!(
                (bin.gamma - bin.distance * bin.distance / 2.0).abs() < 1e-12,
                "{bin:?}"
            );
        }
    }

    #[test]
    fn constant_field_gives_zero_variogram() {
        let sites: Vec<Vec<f64>> = (0..5)
            .map(|i| vec![f64::from(i), f64::from(i * 2)])
            .collect();
        let values = vec![3.3; 5];
        let v = EmpiricalVariogram::from_samples(&sites, &values, DistanceMetric::L1, 1.0).unwrap();
        assert!(v.bins().iter().all(|b| b.gamma == 0.0));
    }

    #[test]
    fn bins_are_sorted_by_distance() {
        let sites: Vec<Vec<f64>> = (0..8).map(|i| vec![f64::from(i * i % 7)]).collect();
        let values: Vec<f64> = (0..8).map(|i| f64::from(i).sin()).collect();
        let v = EmpiricalVariogram::from_samples(&sites, &values, DistanceMetric::L1, 1.0).unwrap();
        let ds: Vec<f64> = v.bins().iter().map(|b| b.distance).collect();
        let mut sorted = ds.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(ds, sorted);
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let err = EmpiricalVariogram::from_samples(&[vec![0.0]], &[1.0], DistanceMetric::L1, 1.0)
            .unwrap_err();
        assert!(matches!(err, CoreError::FitFailed { .. }));
        let err = EmpiricalVariogram::from_samples(
            &[vec![0.0], vec![1.0]],
            &[1.0],
            DistanceMetric::L1,
            1.0,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::DimensionMismatch { .. }));
        let err = EmpiricalVariogram::from_samples(
            &[vec![0.0], vec![1.0, 2.0]],
            &[1.0, 2.0],
            DistanceMetric::L1,
            1.0,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::DimensionMismatch { .. }));
        let err = EmpiricalVariogram::from_samples(
            &[vec![0.0], vec![1.0]],
            &[1.0, 2.0],
            DistanceMetric::L1,
            0.0,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::FitFailed { .. }));
    }

    #[test]
    fn accumulator_matches_batch_on_each_prefix() {
        let configs: Vec<Config> = (0..12).map(|i| vec![i % 5, (i * 3) % 7]).collect();
        let values: Vec<f64> = (0..12).map(|i| f64::from(i).sin() * 4.0).collect();
        for metric in [DistanceMetric::L1, DistanceMetric::L2, DistanceMetric::Linf] {
            let mut acc = VariogramAccumulator::new(metric);
            for n in 1..=configs.len() {
                acc.sync(&configs[..n], &values[..n]);
                assert_eq!(acc.consumed(), n);
                if n < 2 {
                    assert!(acc.snapshot().is_err());
                    continue;
                }
                let batch =
                    EmpiricalVariogram::from_configs(&configs[..n], &values[..n], metric).unwrap();
                let inc = acc.snapshot().unwrap();
                assert_eq!(inc.bins().len(), batch.bins().len());
                for (a, b) in inc.bins().iter().zip(batch.bins()) {
                    assert_eq!(a.pairs, b.pairs);
                    assert!((a.distance - b.distance).abs() < 1e-12);
                    assert!((a.gamma - b.gamma).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn accumulator_clear_starts_over() {
        let configs = vec![vec![0], vec![2], vec![5]];
        let values = vec![1.0, 2.0, 4.0];
        let mut acc = VariogramAccumulator::new(DistanceMetric::L1);
        acc.sync(&configs, &values);
        assert_eq!(acc.snapshot().unwrap().total_pairs(), 3);
        acc.clear();
        assert_eq!(acc.consumed(), 0);
        assert!(acc.snapshot().is_err());
    }

    #[test]
    #[should_panic(expected = "shrank")]
    fn accumulator_rejects_shrinking_store() {
        let configs = vec![vec![0], vec![2], vec![5]];
        let values = vec![1.0, 2.0, 4.0];
        let mut acc = VariogramAccumulator::new(DistanceMetric::L1);
        acc.sync(&configs, &values);
        acc.sync(&configs[..1], &values[..1]);
    }

    #[test]
    fn from_configs_uses_unit_bins() {
        let configs = vec![vec![8, 8], vec![9, 8], vec![8, 9], vec![9, 9]];
        let values = vec![1.0, 2.0, 2.0, 3.0];
        let v = EmpiricalVariogram::from_configs(&configs, &values, DistanceMetric::L1).unwrap();
        // L1 distances: 1 (4 pairs), 2 (2 pairs).
        assert_eq!(v.bins().len(), 2);
        assert_eq!(v.bins()[0].pairs, 4);
        assert_eq!(v.bins()[1].pairs, 2);
        // γ(1) = (1+1+1+1)/(2·4) = 0.5; γ(2) = (4+0)/(2·2) = 1.
        assert!((v.bins()[0].gamma - 0.5).abs() < 1e-12);
        assert!((v.bins()[1].gamma - 1.0).abs() < 1e-12);
    }

    /// The accumulator's pair loop before its dense bins: every bin in
    /// an ordered map, every pair's key read from the callers' configs.
    struct MapAccumulator {
        metric: DistanceMetric,
        acc: BTreeMap<u64, (f64, f64, usize)>,
        consumed: usize,
    }

    impl MapAccumulator {
        fn sync(&mut self, configs: &[Config], values: &[f64]) {
            for j in self.consumed..configs.len() {
                for k in 0..j {
                    let key = lattice_key(self.metric, &configs[j], &configs[k]);
                    let d = lattice_distance(self.metric, key);
                    let diff = values[j] - values[k];
                    let bin = d.round() as u64;
                    let e = self.acc.entry(bin).or_insert((0.0, 0.0, 0));
                    e.0 += diff * diff;
                    e.1 += d;
                    e.2 += 1;
                }
            }
            self.consumed = configs.len();
        }

        fn bins(&self) -> Vec<VariogramBin> {
            self.acc
                .values()
                .map(|&(sum_sq, sum_d, pairs)| VariogramBin {
                    distance: sum_d / pairs as f64,
                    gamma: sum_sq / (2.0 * pairs as f64),
                    pairs,
                })
                .collect()
        }
    }

    #[test]
    fn far_apart_pairs_stay_out_of_the_dense_bins() {
        // L1 distances 1, 70,000 and 70,001: one dense bin, two past the cap.
        let configs = vec![vec![0, 0], vec![70_000, 0], vec![1, 0]];
        let values = vec![1.0, -2.5, 0.25];
        let mut dense = VariogramAccumulator::new(DistanceMetric::L1);
        let mut map = MapAccumulator {
            metric: DistanceMetric::L1,
            acc: BTreeMap::new(),
            consumed: 0,
        };
        dense.sync(&configs, &values);
        map.sync(&configs, &values);
        assert_eq!(dense.dense.len(), 2);
        assert_eq!(
            dense.sparse.keys().copied().collect::<Vec<_>>(),
            [69_999, 70_000]
        );
        assert_eq!(dense.snapshot().unwrap().bins(), map.bins());
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// `(distance, gamma, pairs)` of every bin, as bits.
        fn bin_bits(bins: &[VariogramBin]) -> Vec<(u64, u64, usize)> {
            bins.iter()
                .map(|b| (b.distance.to_bits(), b.gamma.to_bits(), b.pairs))
                .collect()
        }

        proptest! {
            // Dense bins and column-major keys change where a bin's
            // sums live and how a pair's key is computed, not the
            // order the sums are added in: every bin of every
            // snapshot keeps the map loop's bits, under each metric,
            // across interleaved syncs, at dimensions past every lane
            // width, with coordinates far enough apart that some bins
            // land at or above the dense cap. Under L1 and L∞ the
            // coordinates also span the whole `i32` range, so key
            // sums pass `u32::MAX` (L2's squares would overflow the
            // map loop's `i64` there).
            #[test]
            fn dense_bins_match_the_map_loop_bit_for_bit(
                dim in 1usize..25,
                raw in proptest::collection::vec(
                    (
                        proptest::collection::vec(
                            (0u8..5, -70_000i32..70_000, i32::MIN..=i32::MAX),
                            24usize,
                        ),
                        -50.0f64..50.0,
                    ),
                    2..40,
                ),
                sync_mask in proptest::collection::vec(0u8..3, 40usize),
            ) {
                let values: Vec<f64> = raw.iter().map(|(_, v)| *v).collect();
                let configs = |pick: fn(u8, i32, i32) -> i32| -> Vec<Config> {
                    raw.iter()
                        .map(|(c, _)| c[..dim].iter().map(|&(f, x, a)| pick(f, x, a)).collect())
                        .collect()
                };
                let near = configs(|far, x, _| if far == 0 { x } else { x % 12 });
                let wide = configs(|far, x, any| if far == 0 { any } else { x % 12 });
                let runs = [
                    (DistanceMetric::L1, &near),
                    (DistanceMetric::L2, &near),
                    (DistanceMetric::Linf, &near),
                    (DistanceMetric::L1, &wide),
                    (DistanceMetric::Linf, &wide),
                ];
                for (metric, configs) in runs {
                    let mut dense = VariogramAccumulator::new(metric);
                    let mut map = MapAccumulator { metric, acc: BTreeMap::new(), consumed: 0 };
                    for n in 1..=configs.len() {
                        if n < configs.len() && sync_mask[n - 1] != 0 {
                            continue;
                        }
                        dense.sync(&configs[..n], &values[..n]);
                        map.sync(&configs[..n], &values[..n]);
                        let expected = map.bins();
                        match dense.snapshot() {
                            Ok(v) => prop_assert_eq!(bin_bits(v.bins()), bin_bits(&expected)),
                            Err(_) => prop_assert!(expected.is_empty()),
                        }
                    }
                }
            }

            // Running accumulators, refit at random interleaving points,
            // must agree with the batch path to 1e-9 under every metric.
            #[test]
            fn interleaved_sync_matches_batch_from_samples(
                dim in 1usize..5,
                raw in proptest::collection::vec(
                    (proptest::collection::vec(-12i32..12, 4usize), -50.0f64..50.0),
                    2..25,
                ),
                refit_mask in proptest::collection::vec(0u8..2, 25usize),
            ) {
                let (configs, values): (Vec<Config>, Vec<f64>) = raw
                    .into_iter()
                    .map(|(c, v)| (c[..dim].to_vec(), v))
                    .unzip();
                for metric in [DistanceMetric::L1, DistanceMetric::L2, DistanceMetric::Linf] {
                    let mut acc = VariogramAccumulator::new(metric);
                    for n in 1..=configs.len() {
                        // Interleave: only some prefixes trigger a sync, so
                        // each sync folds in a random-size batch of sites.
                        let last = n == configs.len();
                        if !last && refit_mask.get(n - 1).copied().unwrap_or(0) == 0 {
                            continue;
                        }
                        acc.sync(&configs[..n], &values[..n]);
                        let sites: Vec<Vec<f64>> = configs[..n]
                            .iter()
                            .map(|c| c.iter().map(|&x| f64::from(x)).collect())
                            .collect();
                        let batch = EmpiricalVariogram::from_samples(
                            &sites, &values[..n], metric, 1.0);
                        let inc = acc.snapshot();
                        match (inc, batch) {
                            (Ok(inc), Ok(batch)) => {
                                prop_assert_eq!(inc.bins().len(), batch.bins().len());
                                prop_assert_eq!(inc.metric(), batch.metric());
                                for (a, b) in inc.bins().iter().zip(batch.bins()) {
                                    prop_assert_eq!(a.pairs, b.pairs);
                                    let dscale = b.distance.abs().max(1.0);
                                    let gscale = b.gamma.abs().max(1.0);
                                    prop_assert!((a.distance - b.distance).abs() / dscale < 1e-9);
                                    prop_assert!((a.gamma - b.gamma).abs() / gscale < 1e-9);
                                }
                            }
                            (Err(_), Err(_)) => {} // both degenerate (n < 2)
                            (inc, batch) => {
                                prop_assert!(
                                    false,
                                    "paths disagree at n={n}: inc {inc:?} vs batch {batch:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
