//! Metric definitions, the result file, and `krigbench compare`.

use std::collections::BTreeMap;

use serde_json::{Number, Value};

use crate::measure::median;
use crate::spans::{fold, Layer};
use crate::Traced;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, counts of work).
    Lower,
    /// Larger is better (kriged share, throughput).
    Higher,
}

impl Better {
    fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: its unit, direction, and the bound by which its
/// median may worsen before `compare` calls it a regression. The bound
/// is the larger of `bound × |baseline|` and `floor` (in the metric's
/// unit); `None` reports the metric without gating it.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Relative regression bound.
    pub bound: Option<f64>,
    /// Absolute regression bound.
    pub floor: f64,
}

/// A metric the driver gates: `bound` is the one in `BENCHMARK.json`.
const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
        floor: 0.0,
    }
}

/// A timing: lower is better, within [`TIMING_BOUND`] or, for times in
/// seconds, 20 ms, whichever is larger.
const fn timing(name: &'static str, unit: &'static str) -> Def {
    let floor = if matches!(unit.as_bytes(), b"s") {
        0.02
    } else {
        0.0
    };
    Def {
        name,
        unit,
        better: Better::Lower,
        bound: Some(TIMING_BOUND),
        floor,
    }
}

/// A metric that must not move at all for a given seed.
const fn exact(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(0.0),
        floor: 0.0,
    }
}

/// A metric reported without a bound.
const fn reported(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
        floor: 0.0,
    }
}

/// Relative bound of every timing. Timings on a shared two-core host
/// drift by 10–15% between runs minutes apart (see README.md), so a
/// tighter bound would flag the benchmark's own noise.
const TIMING_BOUND: f64 = 0.25;

/// The metrics every workload reports, exactly as `BENCHMARK.json`'s
/// `end_to_end` lists them (a unit test holds the two equal), so the
/// driver and `compare` gate them alike. `latency_ms` is the time a user
/// waits for one answer: a whole campaign for the campaign workloads, one
/// `evaluate` round trip (median) for serve-explore. `eps_mean` is the
/// mean error of the kriged answers against simulation (Eq. 11/12).
///
/// `sims` and `p_percent` are exact for a given seed but move between
/// seeds, and the driver compares runs of different seeds; `eps_mean` is
/// measured on fixed inputs ([`crate::EPS_SEED`]). Each of the three has
/// the smallest of 0.02, 0.05, 0.1, 0.15, 0.2 and 0.25 that is at least
/// three times the largest spread across ten seeds measured on any
/// workload (README.md lists the spreads).
pub const END_TO_END: [Def; 5] = [
    gated("setup_s", "s", Better::Lower, TIMING_BOUND),
    gated("latency_ms", "ms", Better::Lower, TIMING_BOUND),
    gated("sims", "count", Better::Lower, 0.2),
    gated("p_percent", "%", Better::Higher, 0.02),
    gated("eps_mean", "eps", Better::Lower, 0.02),
];

/// Workload-specific end-to-end metrics (result file and `compare` only).
pub const EXTENDED: [Def; 13] = [
    timing("wall_s", "s"),
    timing("cpu_s", "s"),
    timing("simall_wall_s", "s"),
    exact("simall_sims", "count", Better::Lower),
    exact("decisions_diverged", "count", Better::Lower),
    // A faster simulator lowers the speed-up, so it is reported, not gated.
    reported("speedup_x", "x", Better::Higher),
    // The tail of a closed loop on two shared cores moves by 30% (p90)
    // to 2x (p99) between passes with scheduler stalls; only the median
    // round trip (`latency_ms`) is steady enough to gate.
    reported("rtt_p90_us", "us", Better::Lower),
    reported("rtt_p99_us", "us", Better::Lower),
    Def {
        name: "throughput_rps",
        unit: "1/s",
        better: Better::Higher,
        bound: Some(TIMING_BOUND),
        floor: 0.0,
    },
    timing("kriged_rtt_p50_us", "us"),
    timing("simulated_rtt_p50_us", "us"),
    reported("shared_cache_hit_ratio", "ratio", Better::Higher),
    exact("failed_share", "ratio", Better::Lower),
];

/// The definition of metric `name` (`speedup_x.<kernel>` shares
/// `speedup_x`'s).
pub fn def(name: &str) -> Option<Def> {
    let base = name.split('.').next().unwrap_or(name);
    END_TO_END
        .iter()
        .chain(EXTENDED.iter())
        .find(|d| d.name == base)
        .copied()
}

/// The per-layer metrics every traced pass reports, with units and
/// directions, in the order `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str, Better); 19] = [
    ("simulate.calls", "count", Better::Lower),
    ("simulate.self_ms", "ms", Better::Lower),
    ("simulate.busy_ms", "ms", Better::Lower),
    ("simulate.ms_per_call", "ms", Better::Lower),
    ("backend.jobs", "count", Better::Lower),
    ("backend.self_ms", "ms", Better::Lower),
    ("backend.parallel_efficiency", "ratio", Better::Higher),
    ("cache.lookups", "count", Better::Lower),
    ("cache.hit_ratio", "ratio", Better::Higher),
    ("hybrid.calls", "count", Better::Lower),
    ("hybrid.queries", "count", Better::Lower),
    ("hybrid.kriged", "count", Better::Higher),
    ("hybrid.plan.self_ms", "ms", Better::Lower),
    ("hybrid.commit.self_ms", "ms", Better::Lower),
    ("hybrid.call_us_p50", "us", Better::Lower),
    ("opt.self_ms", "ms", Better::Lower),
    ("codec.self_ms", "ms", Better::Lower),
    ("trace.wall_ms", "ms", Better::Lower),
    ("trace.overhead_ratio", "ratio", Better::Lower),
];

/// Largest tolerated `|attributed / root − 1|` of any traced run.
pub const ATTRIBUTION_TOLERANCE: f64 = 0.02;

/// Folds a traced pass into named layer metrics (the `PER_LAYER` set
/// first, then workload-specific breakdowns) and reports any run whose
/// layer self-times do not sum to its wall clock.
pub fn layer_metrics(traced: &Traced) -> (Vec<(String, f64, &'static str)>, Vec<String>) {
    let f = fold(&traced.spans);
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut hybrid_calls: Vec<f64> = f.hybrid_call_ns.iter().map(|&n| n as f64 / 1e3).collect();
    hybrid_calls.sort_by(f64::total_cmp);
    let sim_calls = f.calls(Layer::Simulate);
    let mut out: Vec<(String, f64, &'static str)> = vec![
        ("simulate.calls".into(), sim_calls as f64, "count"),
        ("simulate.self_ms".into(), f.self_ms(Layer::Simulate), "ms"),
        ("simulate.busy_ms".into(), f.busy_ms(Layer::Simulate), "ms"),
        (
            "simulate.ms_per_call".into(),
            f.busy_ms(Layer::Simulate) / sim_calls.max(1) as f64,
            "ms",
        ),
        ("backend.jobs".into(), f.fulfill_items as f64, "count"),
        ("backend.self_ms".into(), f.self_ms(Layer::Fulfill), "ms"),
        (
            "backend.parallel_efficiency".into(),
            f.busy_ms(Layer::Simulate) / (f.busy_ms(Layer::Fulfill) * traced.threads as f64),
            "ratio",
        ),
        ("cache.lookups".into(), traced.cache.lookups as f64, "count"),
        (
            "cache.hit_ratio".into(),
            traced.cache.hits as f64 / traced.cache.lookups.max(1) as f64,
            "ratio",
        ),
        (
            "hybrid.calls".into(),
            f.calls(Layer::Hybrid) as f64,
            "count",
        ),
        ("hybrid.queries".into(), f.hybrid_queries as f64, "count"),
        ("hybrid.kriged".into(), f.hybrid_kriged as f64, "count"),
        ("hybrid.plan.self_ms".into(), ms(f.plan_ns), "ms"),
        ("hybrid.commit.self_ms".into(), ms(f.commit_ns), "ms"),
        ("hybrid.call_us_p50".into(), median(&hybrid_calls), "us"),
        ("opt.self_ms".into(), f.self_ms(Layer::Run), "ms"),
        ("codec.self_ms".into(), traced.codec_ms, "ms"),
        ("trace.wall_ms".into(), ms(f.root_ns), "ms"),
        (
            "trace.overhead_ratio".into(),
            traced.overhead_ratio,
            "ratio",
        ),
        // Breakdowns that exist on some workloads only.
        (
            "trace.attributed_ratio".into(),
            f.attributed_ratio(),
            "ratio",
        ),
        ("hybrid.audit.sims".into(), f.audit_sims as f64, "count"),
        ("hybrid.audit.ms".into(), ms(f.audit_ns), "ms"),
        ("opt.pilot_ms".into(), f.busy_ms(Layer::Pilot), "ms"),
        (
            "variogram.fit.calls".into(),
            f.calls(Layer::Variogram) as f64,
            "count",
        ),
        (
            "variogram.fit.self_ms".into(),
            f.self_ms(Layer::Variogram),
            "ms",
        ),
    ];
    for (label, t) in &f.simulate_by_label {
        out.push((format!("simulate.{label}.calls"), t.calls as f64, "count"));
        out.push((format!("simulate.{label}.self_ms"), ms(t.self_ns), "ms"));
        out.push((
            format!("simulate.{label}.ms_per_call"),
            ms(t.busy_ns) / t.calls.max(1) as f64,
            "ms",
        ));
    }
    for (name, value) in &traced.extra {
        out.push((
            name.clone(),
            *value,
            if name.ends_with("_us_p50") {
                "us"
            } else {
                "ratio"
            },
        ));
    }
    let mut problems = Vec::new();
    if f.worst_attribution_error > ATTRIBUTION_TOLERANCE {
        problems.push(format!(
            "layer self-times of a traced run miss its wall clock by {:.2}%",
            100.0 * f.worst_attribution_error
        ));
    }
    if f.roots == 0 {
        problems.push("the traced pass recorded no runs".to_string());
    }
    (out, problems)
}

/// A JSON number (`null` when not finite).
pub fn num(x: f64) -> Value {
    Value::Number(Number::Float(x))
}

/// A JSON integer.
pub fn int(x: u64) -> Value {
    Value::Number(Number::PosInt(x))
}

/// A JSON object from `(key, value)` pairs.
pub fn obj<K: Into<String>>(entries: Vec<(K, Value)>) -> Value {
    Value::Object(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// The result-file entry of one end-to-end metric: median, raw samples,
/// unit, direction and bound.
pub fn metric_entry(name: &str, samples: &[f64]) -> Value {
    let d = def(name);
    obj(vec![
        ("median", num(median(samples))),
        ("unit", Value::String(d.map_or("", |d| d.unit).to_string())),
        (
            "better",
            Value::String(d.map_or("lower", |d| d.better.label()).to_string()),
        ),
        ("bound", d.and_then(|d| d.bound).map_or(Value::Null, num)),
        ("floor", num(d.map_or(0.0, |d| d.floor))),
        (
            "samples",
            Value::Array(samples.iter().map(|&x| num(x)).collect()),
        ),
    ])
}

/// The median of every metric of every workload in a result file;
/// `None` where the file holds `null` (a value that was not finite).
fn medians(file: &Value) -> BTreeMap<(String, String), Option<f64>> {
    let mut out = BTreeMap::new();
    for (workload, entry) in workloads(file) {
        let Some(metrics) = entry.get("metrics").and_then(Value::as_object) else {
            continue;
        };
        for (name, m) in metrics {
            let median = m.get("median").and_then(Value::as_f64);
            out.insert((workload.clone(), name.clone()), median);
        }
    }
    out
}

fn workloads(file: &Value) -> &[(String, Value)] {
    file.get("workloads")
        .and_then(Value::as_object)
        .unwrap_or_default()
}

/// `krigbench compare A B` on two result files; see [`compare_results`].
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    Ok(compare_results(&load(a_path)?, &load(b_path)?))
}

/// Prints one row per workload × metric of A and returns whether B
/// passed: every workload of B passed its own checks (`correct`), every
/// gated metric A measured is measured in B too, and each stayed within
/// its bound (`failed_share` is gated exactly, so any rise fails).
pub fn compare_results(a: &Value, b: &Value) -> bool {
    let mut ok = true;
    for (workload, entry) in workloads(b) {
        if entry.get("correct").and_then(Value::as_bool) != Some(true) {
            ok = false;
            let problems: Vec<&str> = entry
                .get("problems")
                .and_then(Value::as_array)
                .unwrap_or_default()
                .iter()
                .filter_map(Value::as_str)
                .collect();
            println!("{workload}: B failed its checks: {}", problems.join("; "));
        }
    }
    let (a, b) = (medians(a), medians(b));
    println!(
        "{:<14} {:<24} {:>14} {:>14} {:>9} {:>7} verdict",
        "workload", "metric", "A", "B", "delta", "bound"
    );
    for ((workload, name), va) in &a {
        let Some(d) = def(name) else {
            continue;
        };
        let bound = d
            .bound
            .map_or("-".to_string(), |x| format!("{:.0}%", 100.0 * x));
        let vb = b.get(&(workload.clone(), name.clone())).copied().flatten();
        let (Some(va), Some(vb)) = (*va, vb) else {
            // A gated metric A measured must not go missing in B.
            let lost = va.is_some() && d.bound.is_some();
            ok &= !lost;
            let show = |v: Option<f64>| v.map_or("null".to_string(), |v| format!("{v:.6}"));
            println!(
                "{workload:<14} {name:<24} {:>14} {:>14} {:>9} {bound:>7} {}",
                show(*va),
                show(vb),
                "-",
                if lost { "MISSING" } else { "report" }
            );
            continue;
        };
        let worse_by = match d.better {
            Better::Lower => vb - va,
            Better::Higher => va - vb,
        };
        let verdict = match d.bound {
            None => "report",
            Some(bound) if worse_by > (bound * va.abs()).max(d.floor) => {
                ok = false;
                "WORSE"
            }
            Some(_) if worse_by < 0.0 => "better",
            Some(_) => "ok",
        };
        let delta = if va == 0.0 { 0.0 } else { (vb - va) / va.abs() };
        println!(
            "{workload:<14} {name:<24} {va:>14.6} {vb:>14.6} {:>8.2}% {bound:>7} {verdict}",
            100.0 * delta
        );
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A result file as `--out` writes it, through its JSON text: one
    /// dse-speedup workload with the given `(metric, median)` pairs.
    fn file(correct: bool, metrics: &[(&str, f64)]) -> Value {
        let metrics = metrics
            .iter()
            .map(|&(name, x)| (name, metric_entry(name, &[x])))
            .collect();
        let problems = if correct {
            Vec::new()
        } else {
            vec![Value::String("records differ from the first pass".into())]
        };
        let value = obj(vec![(
            "workloads",
            obj(vec![(
                "dse-speedup",
                obj(vec![
                    ("correct", Value::Bool(correct)),
                    ("problems", Value::Array(problems)),
                    ("metrics", obj(metrics)),
                ]),
            )]),
        )]);
        serde_json::from_str(&serde_json::to_string(&value).unwrap()).unwrap()
    }

    /// A passing file: set-up, campaign wall, failed share, sims, ε.
    fn base(setup: f64, wall: f64, failed: f64, sims: f64, eps: f64) -> Value {
        file(
            true,
            &[
                ("setup_s", setup),
                ("wall_s", wall),
                ("failed_share", failed),
                ("sims", sims),
                ("eps_mean", eps),
                ("speedup_x.fir64", 1.0),
            ],
        )
    }

    #[test]
    fn compare_accepts_noise_within_the_bound() {
        let a = base(0.5, 10.0, 0.0, 100.0, 0.2);
        assert!(compare_results(&a, &base(0.6, 12.0, 0.0, 110.0, 0.203)));
        assert!(compare_results(&a, &base(0.4, 8.0, 0.0, 90.0, 0.1)));
    }

    #[test]
    fn compare_rejects_regressions_and_new_failures() {
        let a = base(0.5, 10.0, 0.0, 100.0, 0.2);
        assert!(!compare_results(&a, &base(0.7, 10.0, 0.0, 100.0, 0.2)));
        assert!(!compare_results(&a, &base(0.5, 13.0, 0.0, 100.0, 0.2)));
        assert!(!compare_results(&a, &base(0.5, 10.0, 0.01, 100.0, 0.2)));
        assert!(!compare_results(&a, &base(0.5, 10.0, 0.0, 125.0, 0.2)));
        // Kriging more but worse is a regression in accuracy.
        assert!(!compare_results(&a, &base(0.5, 10.0, 0.0, 90.0, 0.21)));
    }

    #[test]
    fn compare_rejects_a_result_that_failed_its_checks() {
        let a = base(0.5, 10.0, 0.0, 100.0, 0.2);
        let mut b = base(0.5, 10.0, 0.0, 100.0, 0.2);
        assert!(compare_results(&a, &b));
        let Value::Object(top) = &mut b else {
            unreachable!()
        };
        let Value::Object(workloads) = &mut top[0].1 else {
            unreachable!()
        };
        let Value::Object(entry) = &mut workloads[0].1 else {
            unreachable!()
        };
        entry.retain(|(k, _)| k != "correct");
        assert!(!compare_results(&a, &b), "a missing flag is not a pass");
        let failed = file(false, &[("setup_s", 0.5)]);
        assert!(!compare_results(&file(true, &[("setup_s", 0.5)]), &failed));
    }

    #[test]
    fn compare_rejects_a_gated_metric_missing_or_null_in_b() {
        let a = file(true, &[("setup_s", 0.5), ("sims", 100.0)]);
        assert!(!compare_results(&a, &file(true, &[("setup_s", 0.5)])));
        assert!(!compare_results(
            &a,
            &file(true, &[("setup_s", 0.5), ("sims", f64::NAN)])
        ));
        // An ungated metric, or one A could not measure either, may go.
        let a = file(
            true,
            &[("sims", 100.0), ("speedup_x", 2.0), ("eps_mean", f64::NAN)],
        );
        assert!(compare_results(&a, &file(true, &[("sims", 100.0)])));
    }

    #[test]
    fn small_times_are_judged_against_the_absolute_floor() {
        // 15 ms worse is 50% of a 30 ms wall, but inside the 20 ms floor;
        // 25 ms worse is not. The driver's own metrics have no floor.
        let wall = |x: f64| file(true, &[("wall_s", x)]);
        assert!(compare_results(&wall(0.030), &wall(0.045)));
        assert!(!compare_results(&wall(0.030), &wall(0.055)));
        assert!(END_TO_END.iter().all(|d| d.floor == 0.0));
    }

    #[test]
    fn kernel_speedups_share_the_ungated_definition() {
        assert_eq!(def("speedup_x.hevc_mc").unwrap().bound, None);
        assert!(def("no_such_metric").is_none());
    }

    #[test]
    fn end_to_end_is_what_benchmark_json_gates() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let json: Value = serde_json::from_str(&text).unwrap();
        let listed = json.get("end_to_end").and_then(Value::as_array).unwrap();
        assert_eq!(listed.len(), END_TO_END.len());
        for (entry, d) in listed.iter().zip(&END_TO_END) {
            let field = |k: &str| entry.get(k).and_then(Value::as_str).unwrap();
            assert_eq!(field("name"), d.name);
            assert_eq!(field("unit"), d.unit, "{}", d.name);
            assert_eq!(field("better"), d.better.label(), "{}", d.name);
            let bound = entry.get("bound").and_then(Value::as_f64);
            assert_eq!(bound, d.bound, "{}", d.name);
        }
        let per_layer = json.get("per_layer").and_then(Value::as_array).unwrap();
        let names: Vec<&str> = per_layer
            .iter()
            .filter_map(|e| e.get("name").and_then(Value::as_str))
            .collect();
        let ours: Vec<&str> = PER_LAYER.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(names, ours);
    }
}
