//! Empirical semi-variogram (paper Eq. 4).

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
        check_sites(sites.iter().map(Vec::len), values.len())?;
        if bin_width.is_nan() || bin_width <= 0.0 {
            return Err(CoreError::FitFailed {
                reason: format!("bin width must be positive, got {bin_width}"),
            });
        }
        let mut acc: BTreeMap<u64, BinSums> = BTreeMap::new();
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
        let bins = acc.into_values().map(VariogramBin::from_sums).collect();
        Ok(EmpiricalVariogram { bins, metric })
    }

    /// Convenience constructor for integer configurations with unit bins.
    ///
    /// Runs on the integer lattice directly, in one pass over the pairs
    /// with no per-site `f64` conversion.
    ///
    /// # Errors
    ///
    /// See [`EmpiricalVariogram::from_samples`].
    pub fn from_configs(
        configs: &[Config],
        values: &[f64],
        metric: DistanceMetric,
    ) -> Result<EmpiricalVariogram, CoreError> {
        check_sites(configs.iter().map(Vec::len), values.len())?;
        Ok(EmpiricalVariogram {
            bins: PairSums::over(configs, values, metric).bins(),
            metric,
        })
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

/// Checks that the sites, of dimensions `dims`, are as many as `values`,
/// at least two, and all of one dimension.
fn check_sites(
    dims: impl ExactSizeIterator<Item = usize> + Clone,
    values: usize,
) -> Result<(), CoreError> {
    let sites = dims.len();
    if sites != values {
        return Err(CoreError::DimensionMismatch {
            what: "empirical variogram".into(),
            detail: format!("{sites} sites vs {values} values"),
        });
    }
    if sites < 2 {
        return Err(CoreError::FitFailed {
            reason: "need at least two sites to form a pair".into(),
        });
    }
    let dim = dims.clone().next().unwrap_or(0);
    match dims.enumerate().find(|&(_, d)| d != dim) {
        Some((i, d)) => Err(CoreError::DimensionMismatch {
            what: "empirical variogram".into(),
            detail: format!("site {i} has dimension {d} (expected {dim})"),
        }),
        None => Ok(()),
    }
}

/// Running sums of one distance bin: `(Σ squared diff, Σ distance, count)`.
type BinSums = (f64, f64, usize);

impl VariogramBin {
    /// The bin whose pairs sum to `sums`.
    fn from_sums((sum_sq, sum_d, pairs): BinSums) -> VariogramBin {
        VariogramBin {
            distance: sum_d / pairs as f64,
            gamma: sum_sq / (2.0 * pairs as f64),
            pairs,
        }
    }
}

/// The per-bin pair sums of one [`EmpiricalVariogram::from_configs`] pass
/// over integer configurations, with unit bins.
///
/// The configurations are copied column-major, one column per variable.
/// Site `j`'s lattice keys against every earlier site are computed in
/// passes over the columns, lanes of earlier sites at a time; then its
/// pairs are added to their bins in site order. Each bin below 2¹⁶ is
/// summed in a dense vector indexed by bin, so a pair costs no map lookup.
/// The rare bins at or above 2¹⁶ (pairs more than 65,535 lattice units
/// apart) go to an ordered map, so the vector never holds more than 2¹⁶
/// bins whatever the input. Under L1 and L∞ a pair's distance is its key,
/// so a dense bin is the key itself. Every bin adds its pairs in the same
/// order (later-site-major) wherever it is stored, and [`PairSums::bins`]
/// lists the bins by increasing distance.
///
/// Pair sums are accumulated in a different order than the
/// [`EmpiricalVariogram::from_samples`] loop (later-site-major rather than
/// low-index-major), so bin statistics agree to floating-point
/// reassociation accuracy (≈1e-15 relative), not bitwise.
#[derive(Debug)]
struct PairSums {
    /// The metric pairs are measured with. A field rather than an
    /// argument of [`PairSums::add_pairs`]: passed by value, it made the
    /// pilot-sized pass (1,388 sites of 23 variables) about a quarter
    /// slower.
    metric: DistanceMetric,
    /// Sums of the bins below [`MAX_TABLE_KEYS`], indexed by bin; grows to
    /// the largest such bin seen.
    dense: Vec<BinSums>,
    /// Sums of the bins at or above [`MAX_TABLE_KEYS`].
    sparse: BTreeMap<u64, BinSums>,
}

impl PairSums {
    /// Sums every pair of `configs`, which must be non-empty, of one
    /// dimension and as many as `values`.
    fn over(configs: &[Config], values: &[f64], metric: DistanceMetric) -> PairSums {
        let columns: Vec<Vec<i32>> = (0..configs[0].len())
            .map(|v| configs.iter().map(|c| c[v]).collect())
            .collect();
        let mut sums = PairSums {
            metric,
            dense: Vec::new(),
            sparse: BTreeMap::new(),
        };
        let mut keys = Vec::with_capacity(configs.len());
        for j in 1..configs.len() {
            lattice_keys(metric, &columns, j, &mut keys);
            sums.add_pairs(values[j], &values[..j], &keys);
        }
        sums
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

    /// The non-empty bins, by increasing distance.
    fn bins(&self) -> Vec<VariogramBin> {
        self.dense
            .iter()
            .chain(self.sparse.values())
            .filter(|&&(_, _, pairs)| pairs > 0)
            .copied()
            .map(VariogramBin::from_sums)
            .collect()
    }
}

/// Sets `keys` to the [`lattice_key`](crate::variogram::lattice_key) of
/// site `j` against each site `k < j`, one column at a time.
fn lattice_keys(metric: DistanceMetric, columns: &[Vec<i32>], j: usize, keys: &mut Vec<u64>) {
    keys.clear();
    keys.resize(j, 0);
    for column in columns {
        let (earlier, x) = (&column[..j], column[j]);
        let terms = keys.iter_mut().zip(earlier);
        match metric {
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
    fn from_configs_matches_from_samples_on_each_prefix() {
        let configs: Vec<Config> = (0..12).map(|i| vec![i % 5, (i * 3) % 7]).collect();
        let values: Vec<f64> = (0..12).map(|i| f64::from(i).sin() * 4.0).collect();
        for metric in [DistanceMetric::L1, DistanceMetric::L2, DistanceMetric::Linf] {
            for n in 1..=configs.len() {
                let lattice = EmpiricalVariogram::from_configs(&configs[..n], &values[..n], metric);
                if n < 2 {
                    assert!(lattice.is_err());
                    continue;
                }
                let sites: Vec<Vec<f64>> = configs[..n]
                    .iter()
                    .map(|c| c.iter().map(|&x| f64::from(x)).collect())
                    .collect();
                let batch =
                    EmpiricalVariogram::from_samples(&sites, &values[..n], metric, 1.0).unwrap();
                let lattice = lattice.unwrap();
                assert_eq!(lattice.bins().len(), batch.bins().len());
                for (a, b) in lattice.bins().iter().zip(batch.bins()) {
                    assert_eq!(a.pairs, b.pairs);
                    assert!((a.distance - b.distance).abs() < 1e-12);
                    assert!((a.gamma - b.gamma).abs() < 1e-12);
                }
            }
        }
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

    /// The pair loop before dense bins: every bin in an ordered map,
    /// every pair's key read from the configurations.
    fn map_loop(metric: DistanceMetric, configs: &[Config], values: &[f64]) -> Vec<VariogramBin> {
        let mut acc: BTreeMap<u64, BinSums> = BTreeMap::new();
        for j in 0..configs.len() {
            for k in 0..j {
                let key = lattice_key(metric, &configs[j], &configs[k]);
                let d = lattice_distance(metric, key);
                let diff = values[j] - values[k];
                let bin = d.round() as u64;
                let e = acc.entry(bin).or_insert((0.0, 0.0, 0));
                e.0 += diff * diff;
                e.1 += d;
                e.2 += 1;
            }
        }
        acc.into_values().map(VariogramBin::from_sums).collect()
    }

    #[test]
    fn far_apart_pairs_stay_out_of_the_dense_bins() {
        // L1 distances 1, 70,000 and 70,001: one dense bin, two past the cap.
        let configs = vec![vec![0, 0], vec![70_000, 0], vec![1, 0]];
        let values = vec![1.0, -2.5, 0.25];
        let sums = PairSums::over(&configs, &values, DistanceMetric::L1);
        assert_eq!(sums.dense.len(), 2);
        assert_eq!(
            sums.sparse.keys().copied().collect::<Vec<_>>(),
            [69_999, 70_000]
        );
        assert_eq!(sums.bins(), map_loop(DistanceMetric::L1, &configs, &values));
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
            // prefix keeps the map loop's bits, under each metric,
            // at dimensions past every lane width, with coordinates
            // far enough apart that some bins land at or above the
            // dense cap. Under L1 and L∞ the coordinates also span
            // the whole `i32` range, so key sums pass `u32::MAX`
            // (L2's squares would overflow the map loop's `i64`
            // there).
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
                prefix_mask in proptest::collection::vec(0u8..3, 40usize),
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
                    for n in 1..=configs.len() {
                        if n < configs.len() && prefix_mask[n - 1] != 0 {
                            continue;
                        }
                        let expected = map_loop(metric, &configs[..n], &values[..n]);
                        match EmpiricalVariogram::from_configs(&configs[..n], &values[..n], metric) {
                            Ok(v) => prop_assert_eq!(bin_bits(v.bins()), bin_bits(&expected)),
                            Err(_) => prop_assert!(expected.is_empty()),
                        }
                    }
                }
            }

            // The lattice pass agrees with the f64 loop to 1e-9 on
            // random prefixes under every metric.
            #[test]
            fn from_configs_matches_from_samples(
                dim in 1usize..5,
                raw in proptest::collection::vec(
                    (proptest::collection::vec(-12i32..12, 4usize), -50.0f64..50.0),
                    2..25,
                ),
                prefix_mask in proptest::collection::vec(0u8..2, 25usize),
            ) {
                let (configs, values): (Vec<Config>, Vec<f64>) = raw
                    .into_iter()
                    .map(|(c, v)| (c[..dim].to_vec(), v))
                    .unzip();
                for metric in [DistanceMetric::L1, DistanceMetric::L2, DistanceMetric::Linf] {
                    for n in 1..=configs.len() {
                        let last = n == configs.len();
                        if !last && prefix_mask.get(n - 1).copied().unwrap_or(0) == 0 {
                            continue;
                        }
                        let sites: Vec<Vec<f64>> = configs[..n]
                            .iter()
                            .map(|c| c.iter().map(|&x| f64::from(x)).collect())
                            .collect();
                        let batch = EmpiricalVariogram::from_samples(
                            &sites, &values[..n], metric, 1.0);
                        let lattice =
                            EmpiricalVariogram::from_configs(&configs[..n], &values[..n], metric);
                        match (lattice, batch) {
                            (Ok(lattice), Ok(batch)) => {
                                prop_assert_eq!(lattice.bins().len(), batch.bins().len());
                                prop_assert_eq!(lattice.metric(), batch.metric());
                                for (a, b) in lattice.bins().iter().zip(batch.bins()) {
                                    prop_assert_eq!(a.pairs, b.pairs);
                                    let dscale = b.distance.abs().max(1.0);
                                    let gscale = b.gamma.abs().max(1.0);
                                    prop_assert!((a.distance - b.distance).abs() / dscale < 1e-9);
                                    prop_assert!((a.gamma - b.gamma).abs() / gscale < 1e-9);
                                }
                            }
                            (Err(_), Err(_)) => {} // both degenerate (n < 2)
                            (lattice, batch) => {
                                prop_assert!(
                                    false,
                                    "paths disagree at n={n}: lattice {lattice:?} vs batch {batch:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
