//! The full Table-I scenario matrix: every benchmark of the paper's
//! study (plus the repository's extensions) swept over the `d` /
//! `N_n,min` / gate grid in one entry point.
//!
//! A [`MatrixSpec`] is a thin layer over [`CampaignSpec`]: it expands to
//! one campaign over all eight benchmarks, each kriged with the paper's
//! nugget-free system, whose runs the executor takes as one flat,
//! sequentially indexed list. Every run fulfills through the
//! plan/fulfill [`crate::backend::EngineBackend`] with the matrix's
//! `threads`.
//!
//! [`summarize`] folds the resulting records into the paper's Table I:
//! one [`TableRow`] per `(benchmark, d, N_n,min)` cell, its repeats
//! pooled by count. [`check_table_shape`] pins the structural
//! expectations a healthy matrix must satisfy — every benchmark once in
//! every cell, percentages in range, audit errors finite — without
//! pinning the (scale- and seed-dependent) numbers themselves.

use krigeval_core::report::TableRow;

use crate::sink::RunRecord;
use crate::spec::{CampaignSpec, GatePolicy, OptimizerSpec, RunSpec, SpecError};
use crate::suite::Problem;

/// The Table-I scenario matrix: all eight benchmarks crossed with a
/// `d` / `N_n,min` grid under one gate policy and one in-run thread
/// count.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixSpec {
    /// Matrix name (the name of its campaign).
    pub name: String,
    /// `"fast"` or `"paper"`.
    pub scale: String,
    /// Neighbour radii `d` to sweep.
    pub distances: Vec<f64>,
    /// Minimum neighbour counts `N_n,min` to sweep.
    pub min_neighbors: Vec<usize>,
    /// Decision gate applied to every run (`None` = the paper's fixed
    /// gate).
    pub gate: Option<GatePolicy>,
    /// Threads of each run's plan/fulfill
    /// [`crate::backend::EngineBackend`] (1 = simulate on the run's own
    /// thread).
    pub threads: usize,
    /// Base seed of the campaign.
    pub seed: u64,
    /// Repeats per grid cell.
    pub repeats: u32,
    /// Audit mode (the Table I protocol re-simulates every kriged
    /// query to measure Eq. 11/12 interpolation errors).
    pub audit: bool,
}

impl MatrixSpec {
    /// The paper's Table-I grid at paper scale: `d ∈ {2,3,4,5}`,
    /// `N_n,min = 3`, fixed gate, audit on.
    pub fn table1() -> MatrixSpec {
        MatrixSpec {
            name: "matrix".to_string(),
            scale: "paper".to_string(),
            distances: vec![2.0, 3.0, 4.0, 5.0],
            min_neighbors: vec![3],
            gate: None,
            threads: 1,
            seed: 0,
            repeats: 1,
            audit: true,
        }
    }

    /// A CI-sized smoke matrix: fast scale, a single `d = 3` /
    /// `N_n,min = 2` cell, every run through the engine backend at two
    /// threads. Completes in seconds yet still touches all eight
    /// benchmarks and both metrics.
    pub fn smoke() -> MatrixSpec {
        MatrixSpec {
            name: "matrix-smoke".to_string(),
            scale: "fast".to_string(),
            distances: vec![3.0],
            min_neighbors: vec![2],
            gate: None,
            threads: 2,
            seed: 0,
            repeats: 1,
            audit: true,
        }
    }

    /// The benchmarks the matrix covers, in row order.
    pub fn problems() -> [Problem; 8] {
        Problem::extended()
    }

    /// Expands to the run list of one [`CampaignSpec`] over all eight
    /// benchmarks, in [`Problem::extended`] order (run index = JSONL row
    /// id across the whole matrix).
    ///
    /// # Errors
    ///
    /// Propagates an invalid grid (bad scale, empty grid…).
    pub fn expand(&self) -> Result<Vec<RunSpec>, SpecError> {
        CampaignSpec {
            name: self.name.clone(),
            benchmarks: MatrixSpec::problems()
                .iter()
                .map(|p| p.label().to_string())
                .collect(),
            scale: self.scale.clone(),
            optimizer: OptimizerSpec::Auto,
            distances: self.distances.clone(),
            min_neighbors: self.min_neighbors.clone(),
            seed: self.seed,
            repeats: self.repeats,
            audit: self.audit,
            threads: Some(self.threads),
            gate: self.gate,
            ..CampaignSpec::default()
        }
        .expand()
    }
}

/// Folds completed records into one [`TableRow`] per `(benchmark, d,
/// N_n,min)` cell, in first-appearance (= matrix expansion) order.
///
/// A cell's repeats pool as one session with their totals: counts add
/// up, `p` is `Σkriged / Σqueries`, `j̄` is weighted by kriged queries,
/// `με` by audited interpolations, and `max ε` is the largest. A cell of
/// one run reproduces that run's own statistics.
pub fn summarize(records: &[RunRecord]) -> Vec<TableRow> {
    let mut cells: Vec<Vec<&RunRecord>> = Vec::new();
    for r in records {
        let same_cell = |c: &&mut Vec<&RunRecord>| {
            c[0].benchmark == r.benchmark && c[0].d == r.d && c[0].min_neighbors == r.min_neighbors
        };
        match cells.iter_mut().find(same_cell) {
            Some(cell) => cell.push(r),
            None => cells.push(vec![r]),
        }
    }
    cells
        .into_iter()
        .map(|runs| {
            let sum = |f: fn(&RunRecord) -> u64| runs.iter().map(|r| f(r)).sum::<u64>();
            let (queries, kriged, audited) = (
                sum(|r| r.queries),
                sum(|r| r.kriged),
                sum(|r| r.audit_count),
            );
            // Σ(w·x) / Σw, 0 when nothing carries weight.
            let weighted = |x: fn(&RunRecord) -> f64, w: fn(&RunRecord) -> u64, total: u64| {
                if total == 0 {
                    0.0
                } else {
                    runs.iter().map(|r| x(r) * w(r) as f64).sum::<f64>() / total as f64
                }
            };
            let first = runs[0];
            TableRow {
                benchmark: first.benchmark.clone(),
                metric: first.metric.clone(),
                nv: first.nv,
                d: first.d,
                min_neighbors: first.min_neighbors,
                p_percent: if queries == 0 {
                    0.0
                } else {
                    kriged as f64 / queries as f64 * 100.0
                },
                mean_neighbors: weighted(|r| r.mean_neighbors, |r| r.kriged, kriged),
                max_eps: runs
                    .iter()
                    .map(|r| r.audit_max_eps)
                    .fold(f64::NEG_INFINITY, f64::max),
                mean_eps: weighted(|r| r.audit_mean_eps, |r| r.audit_count, audited),
                simulated: sum(|r| r.simulated),
                kriged,
                queries,
            }
        })
        .collect()
}

/// Pins the structural expectations of a healthy Table-I matrix without
/// pinning scale-dependent numbers: every benchmark exactly once in
/// every `(d, N_n,min)` cell, identity columns (metric label, `Nv`)
/// correct, `p ∈ [0, 100]`, audit errors finite and non-negative, some
/// queries and some simulations, no more simulations than queries, and
/// at least `N_n,min + 1` neighbours per interpolation. Returns the list
/// of violations (empty = healthy).
pub fn check_table_shape(rows: &[TableRow]) -> Vec<String> {
    let mut violations = Vec::new();
    let mut cells: Vec<(f64, usize)> = Vec::new();
    for row in rows {
        if !cells.contains(&(row.d, row.min_neighbors)) {
            cells.push((row.d, row.min_neighbors));
        }
    }
    for p in MatrixSpec::problems() {
        let label = p.label();
        if cells.is_empty() {
            violations.push(format!("{label}: missing from the matrix"));
        }
        for &(d, nmin) in &cells {
            let in_cell =
                |r: &&TableRow| r.benchmark == label && r.d == d && r.min_neighbors == nmin;
            match rows.iter().filter(in_cell).count() {
                1 => {}
                0 => violations.push(format!("{label}: missing from cell d={d}, nmin={nmin}")),
                n => violations.push(format!(
                    "{label}: appears {n} times in cell d={d}, nmin={nmin}"
                )),
            }
        }
    }
    for row in rows {
        let b = &row.benchmark;
        match Problem::parse(b) {
            None => violations.push(format!("{b}: not a known benchmark")),
            Some(p) => {
                if row.metric != p.metric_label() {
                    violations.push(format!(
                        "{b}: metric {:?}, expected {:?}",
                        row.metric,
                        p.metric_label()
                    ));
                }
                if row.nv != p.nv() {
                    violations.push(format!("{b}: Nv {}, expected {}", row.nv, p.nv()));
                }
            }
        }
        if !(0.0..=100.0).contains(&row.p_percent) {
            violations.push(format!("{b}: p = {}% out of range", row.p_percent));
        }
        if !row.mean_eps.is_finite() || row.mean_eps < 0.0 {
            violations.push(format!(
                "{b}: mean eps {} not finite/non-negative",
                row.mean_eps
            ));
        }
        if row.queries == 0 || row.simulated == 0 {
            violations.push(format!(
                "{b}: {} queries, {} simulated at d={}, nmin={}",
                row.queries, row.simulated, row.d, row.min_neighbors
            ));
        }
        if row.queries < row.simulated {
            violations.push(format!(
                "{b}: simulated {} exceeds queries {}",
                row.simulated, row.queries
            ));
        }
        // A kriged query has more than N_n,min neighbours (the neighbour
        // cap cannot undercut that: settings validation rejects a cap at
        // or below N_n,min).
        let least = row.min_neighbors + 1;
        if row.kriged > 0 && row.mean_neighbors < least as f64 {
            violations.push(format!(
                "{b}: j = {} below {least} at d={}, nmin={}",
                row.mean_neighbors, row.d, row.min_neighbors
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::tests::sample_record;

    #[test]
    fn matrix_expands_all_benchmarks_as_one_campaign() {
        let runs = MatrixSpec::smoke().expand().unwrap();
        assert_eq!(runs.len(), 8);
        for ((i, run), problem) in runs.iter().enumerate().zip(MatrixSpec::problems()) {
            assert_eq!(run.problem, problem, "row order");
            assert_eq!(run.index, i as u64, "sequential indexing");
            assert_eq!(run.threads, 2, "engine backend threads");
            assert_eq!(run.nugget, None, "{}: nugget-free", problem.label());
        }
        // A wider grid stays benchmark-major: each benchmark's repeats,
        // distances and N_n,min values run before the next benchmark's.
        let grid = MatrixSpec {
            distances: vec![2.0, 3.0],
            min_neighbors: vec![2, 3],
            repeats: 2,
            ..MatrixSpec::smoke()
        };
        let runs = grid.expand().unwrap();
        assert_eq!(runs.len(), 8 * 8);
        for (i, run) in runs.iter().enumerate() {
            let cell = i % 8;
            assert_eq!(run.index, i as u64);
            assert_eq!(run.problem, MatrixSpec::problems()[i / 8]);
            assert_eq!(run.repeat, (cell / 4) as u32);
            assert_eq!(run.distance, [2.0, 3.0][cell / 2 % 2]);
            assert_eq!(run.min_neighbors, [2, 3][cell % 2]);
        }
    }

    #[test]
    fn table1_grid_matches_the_paper() {
        let spec = MatrixSpec::table1();
        assert_eq!(spec.distances, vec![2.0, 3.0, 4.0, 5.0]);
        assert_eq!(spec.min_neighbors, vec![3]);
        assert_eq!(spec.scale, "paper");
        let runs = spec.expand().unwrap();
        assert_eq!(runs.len(), 8 * 4);
    }

    fn record(kriged: u64, mean_neighbors: f64, audit_count: u64, mean_eps: f64) -> RunRecord {
        RunRecord {
            simulated: 38 - kriged,
            kriged,
            p_percent: kriged as f64 / 40.0 * 100.0,
            mean_neighbors,
            audit_mean_eps: mean_eps,
            audit_max_eps: 2.0 * mean_eps,
            audit_count,
            wall_ms: None,
            ..sample_record(0)
        }
    }

    #[test]
    fn repeats_of_a_cell_pool_by_count() {
        // Two repeats of one cell; the second kriges nothing. Averaging
        // per run would give j = 2.5 (below N_n,min + 1) and eps = 0.25.
        let mut idle = record(0, 0.0, 0, 0.0);
        idle.repeat = 1;
        // A one-run cell (d = 2) must reproduce its run bit for bit.
        let mut single = record(7, 29.0 / 7.0, 6, 1.3 / 6.0);
        single.d = 2.0;
        let rows = summarize(&[record(10, 5.0, 10, 0.5), idle, single.clone()]);
        assert_eq!(rows.len(), 2, "two cells, in first-appearance order");
        let row = &rows[0];
        assert_eq!((row.d, row.min_neighbors), (3.0, 3));
        assert_eq!((row.queries, row.simulated, row.kriged), (80, 66, 10));
        assert_eq!(row.p_percent, 12.5);
        assert_eq!(row.mean_neighbors, 5.0);
        assert_eq!(row.mean_eps, 0.5);
        assert_eq!(row.max_eps, 1.0);
        let one = &rows[1];
        assert_eq!(one.d, 2.0);
        assert_eq!(one.p_percent, single.p_percent);
        assert_eq!(one.mean_neighbors, single.mean_neighbors);
        assert_eq!(one.mean_eps, single.audit_mean_eps);
        assert_eq!(one.max_eps, single.audit_max_eps);
    }

    fn healthy_cell(d: f64) -> Vec<TableRow> {
        MatrixSpec::problems()
            .iter()
            .map(|p| TableRow {
                benchmark: p.label().to_string(),
                metric: p.metric_label().to_string(),
                nv: p.nv(),
                d,
                min_neighbors: 3,
                p_percent: 50.0,
                mean_neighbors: 4.0,
                max_eps: 0.2,
                mean_eps: 0.1,
                simulated: 5,
                kriged: 5,
                queries: 10,
            })
            .collect()
    }

    #[test]
    fn shape_check_flags_structural_violations() {
        let mut rows = healthy_cell(3.0);
        assert!(check_table_shape(&rows).is_empty());
        assert_eq!(check_table_shape(&[]).len(), 8, "every benchmark missing");
        rows[0].p_percent = 120.0;
        rows[4].metric = "noise power".to_string(); // squeezenet must be class. rate
        rows[1].mean_neighbors = 3.0; // a kriged query has at least 4 neighbours
        rows[2].simulated = 0; // every run simulates something
        rows[3].queries = 0; // ...and queries something
        rows[3].simulated = 0;
        let removed = rows.pop().unwrap();
        let violations = check_table_shape(&rows);
        assert_eq!(violations.len(), 6, "{violations:?}");
        assert!(violations.iter().any(|v| v.contains("out of range")));
        assert!(violations.iter().any(|v| v.contains("class. rate")));
        assert!(violations.iter().any(|v| v.contains("below 4")));
        assert!(violations.contains(&"fft64: 10 queries, 0 simulated at d=3, nmin=3".to_string()));
        assert!(violations.contains(&"hevc_mc: 0 queries, 0 simulated at d=3, nmin=3".to_string()));
        assert!(violations
            .iter()
            .any(|v| v.contains(&removed.benchmark) && v.contains("missing")));
    }

    #[test]
    fn shape_check_wants_every_benchmark_once_in_every_cell() {
        let mut rows = healthy_cell(2.0);
        rows.extend(healthy_cell(3.0));
        assert!(check_table_shape(&rows).is_empty());
        // fir64 missing from d = 3, iir8 twice in d = 2.
        let fir = rows.iter().rposition(|r| r.benchmark == "fir64").unwrap();
        rows.remove(fir);
        rows.push(rows[1].clone());
        let violations = check_table_shape(&rows);
        assert_eq!(
            violations,
            vec![
                "fir64: missing from cell d=3, nmin=3".to_string(),
                "iir8: appears 2 times in cell d=2, nmin=3".to_string(),
            ]
        );
    }
}
