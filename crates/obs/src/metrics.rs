//! Lock-cheap metrics: counters, gauges and fixed-bucket histograms.
//!
//! A [`Registry`] hands out cloneable handles backed by shared atomics.
//! Registration takes a short mutex; every subsequent update is a single
//! relaxed atomic operation, cheap enough for the kriged hot path.
//! [`Registry::snapshot`] produces a [`MetricsSnapshot`] with
//! deterministic (name-sorted) ordering that renders to JSON or to the
//! Prometheus text exposition format.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Number, Value};

/// [`Value`] from a `u64` (the stub serde has no `From` conversions).
fn json_u64(v: u64) -> Value {
    Value::Number(Number::PosInt(v))
}

/// [`Value`] from an `i64`, keeping non-negative values as `PosInt` so
/// they render identically to counters.
fn json_i64(v: i64) -> Value {
    if v < 0 {
        Value::Number(Number::NegInt(v))
    } else {
        Value::Number(Number::PosInt(v as u64))
    }
}

/// [`Value`] from an `f64`.
fn json_f64(v: f64) -> Value {
    Value::Number(Number::Float(v))
}

/// Monotonically increasing event count.
///
/// Counters record algorithmic decisions and are the only metric kind
/// covered by the cross-worker determinism contract (see crate docs).
#[derive(Clone, Debug, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed level (queue depth, in-flight jobs, …).
///
/// Gauges observe scheduling state and are **not** deterministic across
/// worker counts.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative via [`Gauge::sub`]).
    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Default microsecond bucket ladder for timing histograms: roughly
/// logarithmic from 1 µs to 1 s, plus the implicit `+Inf` bucket.
pub const DEFAULT_TIME_BUCKETS_US: [f64; 17] = [
    1.0,
    2.0,
    5.0,
    10.0,
    20.0,
    50.0,
    100.0,
    200.0,
    500.0,
    1_000.0,
    2_000.0,
    5_000.0,
    10_000.0,
    20_000.0,
    50_000.0,
    100_000.0,
    1_000_000.0,
];

#[derive(Debug)]
struct HistogramInner {
    /// Upper bounds of the finite buckets, strictly increasing. The
    /// `+Inf` bucket is implicit (recorded in `count`).
    bounds: Vec<f64>,
    /// Cumulative-style storage is done at snapshot time; these are
    /// per-bucket (non-cumulative) hit counts.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Bits of the `f64` sum of recorded values, so small values are
    /// summed as they are instead of rounded to a fixed grid.
    sum_bits: AtomicU64,
}

/// Fixed-bucket timing histogram (values in microseconds).
///
/// Timing histograms measure wall-clock behaviour and are excluded from
/// the determinism contract.
#[derive(Clone, Debug)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Histogram {
    fn with_bounds(bounds: &[f64]) -> Self {
        Histogram {
            inner: Arc::new(HistogramInner {
                bounds: bounds.to_vec(),
                buckets: bounds.iter().map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0.0f64.to_bits()),
            }),
        }
    }

    /// Records one observation of `value_us` microseconds.
    pub fn record(&self, value_us: f64) {
        let v = if value_us.is_finite() && value_us > 0.0 {
            value_us
        } else {
            0.0
        };
        for (bound, bucket) in self.inner.bounds.iter().zip(&self.inner.buckets) {
            if v <= *bound {
                bucket.fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        // A compare-and-swap loop adds `v` to the `f64` sum atomically.
        let _ = self
            .inner
            .sum_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + v).to_bits())
            });
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }
}

/// Shared state behind a cloneable [`Registry`].
#[derive(Debug, Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

/// A namespace of metrics. Cloning is cheap and all clones share state.
///
/// Handle lookup (`counter` / `gauge` / `histogram`) locks briefly and
/// is idempotent: asking twice for the same name returns handles to the
/// same underlying atomic. Callers are expected to register handles once
/// and update them lock-free afterwards.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Returns (registering on first use) the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.inner.counters.lock().expect("counter registry lock");
        map.entry(name.to_string()).or_default().clone()
    }

    /// Returns (registering on first use) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.inner.gauges.lock().expect("gauge registry lock");
        map.entry(name.to_string()).or_default().clone()
    }

    /// Returns (registering on first use) the histogram named `name`
    /// with the default microsecond bucket ladder.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, &DEFAULT_TIME_BUCKETS_US)
    }

    /// Returns (registering on first use) the histogram named `name`
    /// with explicit bucket upper bounds. If the histogram already
    /// exists its original bounds win.
    pub fn histogram_with(&self, name: &str, bounds: &[f64]) -> Histogram {
        let mut map = self
            .inner
            .histograms
            .lock()
            .expect("histogram registry lock");
        map.entry(name.to_string())
            .or_insert_with(|| Histogram::with_bounds(bounds))
            .clone()
    }

    /// Takes a point-in-time snapshot with deterministic name ordering.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .inner
            .counters
            .lock()
            .expect("counter registry lock")
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        let gauges = self
            .inner
            .gauges
            .lock()
            .expect("gauge registry lock")
            .iter()
            .map(|(name, g)| (name.clone(), g.get()))
            .collect();
        let histograms = self
            .inner
            .histograms
            .lock()
            .expect("histogram registry lock")
            .iter()
            .map(|(name, h)| {
                let inner = &h.inner;
                HistogramSnapshot {
                    name: name.clone(),
                    bounds: inner.bounds.clone(),
                    buckets: inner
                        .buckets
                        .iter()
                        .map(|b| b.load(Ordering::Relaxed))
                        .collect(),
                    count: inner.count.load(Ordering::Relaxed),
                    sum_us: f64::from_bits(inner.sum_bits.load(Ordering::Relaxed)),
                }
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// Frozen state of one histogram inside a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Finite bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) hit counts, parallel to `bounds`.
    pub buckets: Vec<u64>,
    /// Total observations (including those above the last bound).
    pub count: u64,
    /// Sum of observed values, microseconds.
    pub sum_us: f64,
}

/// Point-in-time registry state with name-sorted, deterministic ordering.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` pairs sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Histogram states sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Looks up one counter by name (`None` if it was never registered).
    /// Snapshots are small sorted vectors, so a linear scan is the right
    /// tool; this replaces the ad-hoc find-closure every consumer was
    /// writing.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Renders counters only, as a compact deterministic JSON object.
    ///
    /// This is the artifact compared across worker counts: it contains
    /// no gauges and no timings, so equal campaigns must render equal
    /// strings at any parallelism.
    pub fn counters_json(&self) -> String {
        let entries = self
            .counters
            .iter()
            .map(|(name, v)| (name.clone(), json_u64(*v)))
            .collect();
        serde_json::to_string(&Value::Object(entries)).expect("counters serialize")
    }

    /// Renders the full snapshot as pretty JSON. When `include_timing`
    /// is false, histograms (and gauges, which observe scheduling) are
    /// omitted so the artifact stays deterministic.
    pub fn to_json(&self, include_timing: bool) -> String {
        let mut root: Vec<(String, Value)> = Vec::new();
        let counters: Vec<(String, Value)> = self
            .counters
            .iter()
            .map(|(name, v)| (name.clone(), json_u64(*v)))
            .collect();
        root.push(("counters".to_string(), Value::Object(counters)));
        if include_timing {
            let gauges: Vec<(String, Value)> = self
                .gauges
                .iter()
                .map(|(name, v)| (name.clone(), json_i64(*v)))
                .collect();
            root.push(("gauges".to_string(), Value::Object(gauges)));
            let histograms: Vec<(String, Value)> = self
                .histograms
                .iter()
                .map(|h| {
                    let buckets: Vec<Value> = h
                        .bounds
                        .iter()
                        .zip(&h.buckets)
                        .map(|(bound, hits)| {
                            Value::Object(vec![
                                ("le".to_string(), json_f64(*bound)),
                                ("count".to_string(), json_u64(*hits)),
                            ])
                        })
                        .collect();
                    let body = Value::Object(vec![
                        ("buckets".to_string(), Value::Array(buckets)),
                        ("count".to_string(), json_u64(h.count)),
                        ("sum_us".to_string(), json_f64(h.sum_us)),
                    ]);
                    (h.name.clone(), body)
                })
                .collect();
            root.push(("histograms".to_string(), Value::Object(histograms)));
        }
        serde_json::to_string_pretty(&Value::Object(root)).expect("snapshot serializes")
    }

    /// Renders the full snapshot in the Prometheus text exposition
    /// format (histograms use cumulative `_bucket{le=...}` series).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        }
        for h in &self.histograms {
            out.push_str(&format!("# TYPE {} histogram\n", h.name));
            let mut cumulative = 0u64;
            for (bound, hits) in h.bounds.iter().zip(&h.buckets) {
                cumulative += hits;
                out.push_str(&format!(
                    "{}_bucket{{le=\"{}\"}} {}\n",
                    h.name,
                    format_bound(*bound),
                    cumulative
                ));
            }
            out.push_str(&format!(
                "{}_bucket{{le=\"+Inf\"}} {}\n{}_sum {}\n{}_count {}\n",
                h.name, h.count, h.name, h.sum_us, h.name, h.count
            ));
        }
        out
    }
}

/// Formats a bucket bound without a trailing `.0` on integral values,
/// matching common Prometheus client output.
fn format_bound(bound: f64) -> String {
    if bound.fract() == 0.0 && bound.abs() < 1e15 {
        format!("{}", bound as i64)
    } else {
        format!("{bound}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_state_across_clones() {
        let registry = Registry::new();
        let a = registry.counter("hits_total");
        let b = registry.counter("hits_total");
        a.inc();
        b.add(2);
        assert_eq!(registry.counter("hits_total").get(), 3);
    }

    #[test]
    fn snapshot_orders_names_deterministically() {
        let registry = Registry::new();
        registry.counter("zeta_total").inc();
        registry.counter("alpha_total").add(5);
        registry.gauge("depth").set(-2);
        let snap = registry.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["alpha_total", "zeta_total"]);
        assert_eq!(snap.gauges, vec![("depth".to_string(), -2)]);
        assert_eq!(snap.counters_json(), r#"{"alpha_total":5,"zeta_total":1}"#);
    }

    #[test]
    fn histogram_buckets_and_prometheus_render() {
        let registry = Registry::new();
        let h = registry.histogram_with("latency_us", &[1.0, 10.0, 100.0]);
        for v in [0.5, 3.0, 4.0, 50.0, 5_000.0] {
            h.record(v);
        }
        let snap = registry.snapshot();
        let hist = &snap.histograms[0];
        assert_eq!(hist.buckets, vec![1, 2, 1]);
        assert_eq!(hist.count, 5);
        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE latency_us histogram"));
        assert!(text.contains("latency_us_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("latency_us_bucket{le=\"10\"} 3\n"));
        assert!(text.contains("latency_us_bucket{le=\"100\"} 4\n"));
        assert!(text.contains("latency_us_bucket{le=\"+Inf\"} 5\n"));
        assert!(text.contains("latency_us_count 5\n"));
    }

    #[test]
    fn histogram_sums_keep_small_values() {
        let registry = Registry::new();
        let h = registry.histogram_with("variance", &[1e-6, 1e-3, 1.0]);
        for _ in 0..10 {
            h.record(3e-4);
        }
        let sum = registry.snapshot().histograms[0].sum_us;
        assert!((sum - 3e-3).abs() <= 1e-15, "sum {sum}");
    }

    #[test]
    fn histogram_registration_is_idempotent() {
        let registry = Registry::new();
        let a = registry.histogram_with("t_us", &[1.0, 2.0]);
        let b = registry.histogram_with("t_us", &[99.0]);
        a.record(1.5);
        assert_eq!(b.count(), 1);
        assert_eq!(registry.snapshot().histograms[0].bounds, vec![1.0, 2.0]);
    }

    #[test]
    fn json_export_gates_timing_sections() {
        let registry = Registry::new();
        registry.counter("queries_total").inc();
        registry.histogram("plan_us").record(4.0);
        let snap = registry.snapshot();
        let quiet = snap.to_json(false);
        assert!(quiet.contains("queries_total"));
        assert!(!quiet.contains("plan_us"));
        let timed = snap.to_json(true);
        assert!(timed.contains("plan_us"));
        assert!(timed.contains("histograms"));
    }
}
