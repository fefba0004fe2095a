//! Experiment reports matching Table I's columns.

use std::fmt;

use crate::hybrid::HybridStats;

/// One row of the paper's Table I: a `(benchmark, d, N_n,min)` cell with
/// the interpolated percentage, mean neighbour count and error statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRow {
    /// Benchmark name (e.g. `"fir64"`).
    pub benchmark: String,
    /// Quality metric name (e.g. `"noise power"`).
    pub metric: String,
    /// Number of optimization variables `Nv`.
    pub nv: usize,
    /// Neighbour-search distance `d`.
    pub d: f64,
    /// Minimum neighbour count `N_n,min` (kriging needs more than this
    /// many simulated neighbours).
    pub min_neighbors: usize,
    /// Percentage of configurations interpolated instead of simulated.
    pub p_percent: f64,
    /// Mean number of simulated configurations used per interpolation `j̄`.
    pub mean_neighbors: f64,
    /// Maximum interpolation error (bits for noise power, relative
    /// otherwise).
    pub max_eps: f64,
    /// Mean interpolation error.
    pub mean_eps: f64,
    /// Number of simulated configurations.
    pub simulated: u64,
    /// Number of kriged configurations.
    pub kriged: u64,
    /// Total metric queries.
    pub queries: u64,
}

impl TableRow {
    /// Builds a row from a hybrid-evaluation session.
    pub fn from_stats(
        benchmark: impl Into<String>,
        metric: impl Into<String>,
        nv: usize,
        d: f64,
        min_neighbors: usize,
        stats: &HybridStats,
    ) -> TableRow {
        TableRow {
            benchmark: benchmark.into(),
            metric: metric.into(),
            nv,
            d,
            min_neighbors,
            p_percent: stats.interpolated_fraction() * 100.0,
            mean_neighbors: stats.mean_neighbors(),
            max_eps: stats.errors.max(),
            mean_eps: stats.errors.mean(),
            simulated: stats.simulated,
            kriged: stats.kriged,
            queries: stats.queries,
        }
    }
}

impl fmt::Display for TableRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<13} {:<13} {:>3} {:>3} {:>4} {:>8.2} {:>6.2} {:>9.3} {:>9.3} {:>6} {:>6}",
            self.benchmark,
            self.metric,
            self.nv,
            self.d,
            self.min_neighbors,
            self.p_percent,
            self.mean_neighbors,
            self.max_eps,
            self.mean_eps,
            self.simulated,
            self.kriged,
        )
    }
}

/// A full experiment table (many rows), rendered as aligned text.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    /// The rows, in presentation order.
    pub rows: Vec<TableRow>,
}

impl Table {
    /// Creates an empty table.
    pub fn new() -> Table {
        Table::default()
    }

    /// Appends a row.
    pub fn push(&mut self, row: TableRow) {
        self.rows.push(row);
    }

    /// Column header matching [`TableRow`]'s `Display` layout.
    pub fn header() -> String {
        format!(
            "{:<13} {:<13} {:>3} {:>3} {:>4} {:>8} {:>6} {:>9} {:>9} {:>6} {:>6}",
            "benchmark",
            "metric",
            "Nv",
            "d",
            "nmin",
            "p(%)",
            "j",
            "max eps",
            "mu eps",
            "sim",
            "krig"
        )
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", Table::header())?;
        for row in &self.rows {
            writeln!(f, "{row}")?;
        }
        Ok(())
    }
}

impl FromIterator<TableRow> for Table {
    fn from_iter<I: IntoIterator<Item = TableRow>>(iter: I) -> Table {
        Table {
            rows: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use krigeval_fixedpoint::metrics::ErrorStats;

    fn stats() -> HybridStats {
        let mut errors = ErrorStats::new();
        errors.record(0.2);
        errors.record(0.6);
        HybridStats {
            queries: 100,
            simulated: 40,
            kriged: 60,
            cache_hits: 0,
            kriging_failures: 0,
            gate_rejections: 0,
            neighbor_sum: 180,
            variance_sum: 0.0,
            errors,
        }
    }

    #[test]
    fn row_from_stats_computes_percentages() {
        let row = TableRow::from_stats("fir64", "noise power", 2, 3.0, 3, &stats());
        assert!((row.p_percent - 60.0).abs() < 1e-12);
        assert!((row.mean_neighbors - 3.0).abs() < 1e-12);
        assert!((row.max_eps - 0.6).abs() < 1e-12);
        assert!((row.mean_eps - 0.4).abs() < 1e-12);
    }

    #[test]
    fn display_renders_all_columns() {
        let row = TableRow::from_stats("fft64", "noise power", 10, 2.0, 3, &stats());
        let s = row.to_string();
        assert!(s.contains("fft64"));
        assert!(s.contains("60.00"));
        // A fractional radius keeps its fraction; an integer one prints bare.
        let half = TableRow::from_stats("fft64", "noise power", 10, 2.5, 3, &stats());
        assert!(half.to_string().contains(" 2.5    3 "), "{half}");
        assert!(s.contains("  2    3 "), "{s}");
    }

    #[test]
    fn table_renders_header_and_rows() {
        let table: Table = (2..=5)
            .map(|d| TableRow::from_stats("iir8", "noise power", 5, f64::from(d), 3, &stats()))
            .collect();
        let text = table.to_string();
        assert!(text.lines().count() == 5);
        assert!(text.starts_with("benchmark"));
    }
}
