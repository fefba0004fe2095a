//! `krigbench` — end-to-end and per-layer benchmark of the krigeval
//! hybrid kriging/simulation evaluator.
//!
//! ```text
//! krigbench [--workload NAME|all] [--seed N] [--seconds S]
//!           [--trace 0|1] [--out RESULTS.json] [--spans SPANS.jsonl]
//! krigbench compare A.json B.json
//! ```
//!
//! Workloads (see README.md for why each was chosen):
//!
//! * `table1-smoke`: the Table-I matrix CI preset through `run_specs_opts`;
//! * `dse-speedup`: paper-scale fir/iir/fft/hevc, audit off, against
//!   their simulate-all baseline;
//! * `serve-explore`: two closed-loop clients probing around an optimum
//!   through the evaluation server.
//!
//! `--seconds S` runs passes (round-robin over the selected workloads)
//! until S seconds have elapsed; without it, table1-smoke and
//! dse-speedup run 3 passes and serve-explore 5. Every end-to-end metric
//! is the median over passes. `--trace 1` adds one traced pass per
//! workload and reports per-layer metrics. The last line of standard
//! output is one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`; the exit code is 0 only when every output check passed.

mod campaign;
mod measure;
mod report;
mod serve;
mod spans;
mod timed;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use krigeval_engine::CacheStats;
use serde_json::Value;

use crate::campaign::Campaign;
use crate::measure::median;
use crate::report::{int, num, obj, END_TO_END, PER_LAYER};
use crate::serve::Serve;
use crate::spans::Span;

/// Every workload, in round-robin order.
const WORKLOADS: [&str; 3] = ["table1-smoke", "dse-speedup", "serve-explore"];

/// Set-up repetitions before each pass of a workload whose passes do not
/// set up themselves. Spreading them over the run lets the median see the
/// host's typical state rather than one moment of it.
const SETUPS_PER_PASS: usize = 3;

/// Seed of the inputs `eps_mean` is measured on, whatever `--seed` is.
/// The kriging error of one campaign or frame stream moves by 10–20%
/// between seeds (the model sees other samples), which would hide an
/// accuracy regression; on fixed inputs it is exact for each commit.
pub const EPS_SEED: u64 = 0;

/// A small, fast, seedable generator (SplitMix64) for workload inputs.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// What one pass of a workload measured and checked.
#[derive(Debug, Default)]
pub struct Pass {
    /// Metric values of this pass.
    pub values: Vec<(String, f64)>,
    /// Operations attempted (runs, or frames).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Output checks that failed.
    pub problems: Vec<String>,
}

impl Pass {
    /// Records a metric value.
    pub fn push(&mut self, name: &str, value: f64) {
        self.values.push((name.to_string(), value));
    }
}

/// What one traced pass recorded.
#[derive(Debug, Default)]
pub struct Traced {
    /// Every span of the pass.
    pub spans: Vec<Span>,
    /// Counters of the caches the traced stack used.
    pub cache: CacheStats,
    /// Simulation threads per backend.
    pub threads: usize,
    /// Time spent encoding and decoding the workload's outputs.
    pub codec_ms: f64,
    /// Traced wall over the same work untraced.
    pub overhead_ratio: f64,
    /// Workload-specific layer metrics.
    pub extra: Vec<(String, f64)>,
    /// Output checks that failed.
    pub problems: Vec<String>,
}

impl Traced {
    /// Summed wall clock of the traced roots, in seconds.
    pub fn root_wall_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.layer == spans::Layer::Run)
            .map(|s| (s.end - s.start) as f64 / 1e9)
            .sum()
    }
}

enum Workload {
    Campaign(Campaign),
    Serve(Serve),
}

impl Workload {
    fn build(name: &str, seed: u64) -> Result<Workload, String> {
        match name {
            "table1-smoke" => Campaign::table1_smoke(seed).map(Workload::Campaign),
            "dse-speedup" => Campaign::dse_speedup(seed).map(Workload::Campaign),
            "serve-explore" => Ok(Workload::Serve(Serve::new(seed))),
            other => unreachable!("the parser admits only known workloads, not {other:?}"),
        }
    }

    fn context(&self) -> Vec<(&'static str, Value)> {
        match self {
            Workload::Campaign(c) => c.context(),
            Workload::Serve(s) => s.context(),
        }
    }

    /// Set-up samples taken before a pass (serve-explore sets up, and
    /// reports `setup_s`, inside every pass instead).
    fn setup_samples(&self) -> Vec<f64> {
        match self {
            Workload::Campaign(c) => (0..SETUPS_PER_PASS).map(|_| c.setup_s()).collect(),
            Workload::Serve(_) => Vec::new(),
        }
    }

    fn pass(&mut self) -> Result<Pass, String> {
        match self {
            Workload::Campaign(c) => c.pass(),
            Workload::Serve(s) => s.pass(),
        }
    }

    fn traced(&self, medians: &BTreeMap<String, f64>) -> Result<Traced, String> {
        match self {
            Workload::Campaign(c) => {
                // The traced pass also replays the baseline when there is one.
                let untraced = medians.get("wall_s").copied().unwrap_or(f64::NAN)
                    + medians.get("simall_wall_s").copied().unwrap_or(0.0);
                c.traced(untraced)
            }
            Workload::Serve(s) => s.traced(medians),
        }
    }
}

/// Everything measured for one workload.
struct Tally {
    name: &'static str,
    workload: Workload,
    samples: BTreeMap<String, Vec<f64>>,
    order: Vec<String>,
    passes: usize,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    layers: Vec<(String, f64, &'static str)>,
}

impl Tally {
    fn add(&mut self, name: &str, value: f64) {
        if !self.samples.contains_key(name) {
            self.order.push(name.to_string());
        }
        self.samples
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    fn medians(&self) -> BTreeMap<String, f64> {
        self.samples
            .iter()
            .map(|(k, v)| (k.clone(), median(v)))
            .collect()
    }

    fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }
}

struct Options {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: Option<String>,
    spans: Option<String>,
}

const USAGE: &str = "usage: krigbench [--workload NAME|all] [--seed N] [--seconds S] \
                     [--trace 0|1] [--out RESULTS.json] [--spans SPANS.jsonl]\n       \
                     krigbench compare A.json B.json";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workloads: WORKLOADS.to_vec(),
        seed: 0,
        seconds: None,
        trace: false,
        out: None,
        spans: None,
    };
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| -> Result<&String, String> {
            args.get(i + 1)
                .ok_or_else(|| format!("{} needs a value\n{USAGE}", args[i]))
        };
        let bad = |i: usize| format!("bad value for {}\n{USAGE}", args[i]);
        match args[i].as_str() {
            "--workload" => {
                let name = value(i)?.as_str();
                opts.workloads = if name == "all" {
                    WORKLOADS.to_vec()
                } else {
                    vec![WORKLOADS
                        .iter()
                        .find(|w| **w == name)
                        .copied()
                        .ok_or_else(|| {
                            format!(
                                "unknown workload {name:?}; expected one of {WORKLOADS:?} or all"
                            )
                        })?]
                };
            }
            "--seed" => opts.seed = value(i)?.parse().map_err(|_| bad(i))?,
            "--seconds" => {
                let s: f64 = value(i)?.parse().map_err(|_| bad(i))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad(i));
                }
                opts.seconds = Some(s);
            }
            "--trace" => {
                opts.trace = match value(i)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(i)),
                }
            }
            "--out" => opts.out = Some(value(i)?.clone()),
            "--spans" => opts.spans = Some(value(i)?.clone()),
            "-h" | "--help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
        i += 2;
    }
    Ok(opts)
}

/// Passes per workload when `--seconds` is not given.
fn default_passes(name: &str) -> usize {
    if name == "serve-explore" {
        5
    } else {
        3
    }
}

fn run(opts: &Options) -> Result<Vec<Tally>, String> {
    let mut tallies: Vec<Tally> = Vec::new();
    for &name in &opts.workloads {
        tallies.push(Tally {
            name,
            workload: Workload::build(name, opts.seed)?,
            samples: BTreeMap::new(),
            order: Vec::new(),
            passes: 0,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            layers: Vec::new(),
        });
    }
    // Passes of different workloads interleave round-robin, so slow drift
    // of the host affects every workload alike.
    let started = Instant::now();
    loop {
        let mut ran = false;
        for tally in &mut tallies {
            let due = match opts.seconds {
                Some(s) => tally.passes == 0 || started.elapsed().as_secs_f64() < s,
                None => tally.passes < default_passes(tally.name),
            };
            if !due {
                continue;
            }
            for s in tally.workload.setup_samples() {
                tally.add("setup_s", s);
            }
            let pass = tally.workload.pass()?;
            tally.passes += 1;
            tally.attempted += pass.attempted;
            tally.failed += pass.failed;
            tally.problems.extend(pass.problems);
            for (name, value) in pass.values {
                tally.add(&name, value);
            }
            ran = true;
        }
        if !ran {
            break;
        }
    }
    if opts.trace {
        let mut all_spans: Vec<Span> = Vec::new();
        for tally in &mut tallies {
            let traced = tally.workload.traced(&tally.medians())?;
            let (layers, problems) = report::layer_metrics(&traced);
            tally.layers = layers;
            tally.problems.extend(problems);
            tally.problems.extend(traced.problems);
            all_spans.extend(traced.spans);
        }
        if let Some(path) = &opts.spans {
            std::fs::write(path, spans::to_jsonl(&all_spans))
                .map_err(|e| format!("{path}: {e}"))?;
        }
    }
    Ok(tallies)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn results_file(opts: &Options, tallies: &[Tally]) -> Value {
    let workloads = tallies
        .iter()
        .map(|t| {
            let mut context = vec![("passes", int(t.passes as u64))];
            context.extend(t.workload.context());
            let metrics = t
                .order
                .iter()
                .map(|name| (name.clone(), report::metric_entry(name, &t.samples[name])))
                .collect();
            let layers = t
                .layers
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        obj(vec![
                            ("value", num(*value)),
                            ("unit", Value::String(unit.to_string())),
                        ]),
                    )
                })
                .collect();
            (
                t.name,
                obj(vec![
                    ("context", obj(context)),
                    ("correct", Value::Bool(t.correct())),
                    ("attempted", int(t.attempted)),
                    ("failed", int(t.failed)),
                    (
                        "problems",
                        Value::Array(t.problems.iter().cloned().map(Value::String).collect()),
                    ),
                    ("metrics", Value::Object(metrics)),
                    ("layers", Value::Object(layers)),
                ]),
            )
        })
        .collect();
    obj(vec![
        ("tool", Value::String("krigbench".to_string())),
        (
            "context",
            obj(vec![
                ("nproc", int(nproc() as u64)),
                ("seed", int(opts.seed)),
                ("seconds", opts.seconds.map_or(Value::Null, num)),
                ("trace", Value::Bool(opts.trace)),
            ]),
        ),
        ("workloads", obj(workloads)),
    ])
}

/// The summary line: end-to-end medians untraced, per-layer values
/// traced. Names are prefixed with the workload when several ran.
fn summary_line(opts: &Options, tallies: &[Tally]) -> Value {
    let prefix = |t: &Tally, name: &str| {
        if tallies.len() == 1 {
            name.to_string()
        } else {
            format!("{}/{name}", t.name)
        }
    };
    let entry = |value: f64, unit: &str| {
        obj(vec![
            ("value", num(value)),
            ("unit", Value::String(unit.to_string())),
        ])
    };
    let mut metrics: Vec<(String, Value)> = Vec::new();
    for t in tallies {
        if opts.trace {
            for (name, unit, _) in PER_LAYER {
                let value = t
                    .layers
                    .iter()
                    .find(|(n, _, _)| n == name)
                    .map_or(f64::NAN, |(_, v, _)| *v);
                metrics.push((prefix(t, name), entry(value, unit)));
            }
        } else {
            for d in &END_TO_END {
                let value = t.samples.get(d.name).map_or(f64::NAN, |s| median(s));
                metrics.push((prefix(t, d.name), entry(value, d.unit)));
            }
        }
    }
    obj(vec![
        ("correct", Value::Bool(tallies.iter().all(Tally::correct))),
        ("attempted", int(tallies.iter().map(|t| t.attempted).sum())),
        ("failed", int(tallies.iter().map(|t| t.failed).sum())),
        ("metrics", Value::Object(metrics)),
    ])
}

fn print_table(tallies: &[Tally]) {
    for t in tallies {
        println!("== {} ({} passes, nproc {})", t.name, t.passes, nproc());
        for name in &t.order {
            let unit = report::def(name).map_or("", |d| d.unit);
            let samples = &t.samples[name];
            println!(
                "  {name:<26} {:>14.6} {unit:<6} (median of {})",
                median(samples),
                samples.len()
            );
        }
        for (name, value, unit) in &t.layers {
            println!("  {name:<40} {value:>14.6} {unit}");
        }
        for problem in &t.problems {
            eprintln!("krigbench: {}: {problem}", t.name);
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        if args.len() != 3 {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
        return match report::compare(&args[1], &args[2]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => {
                eprintln!("krigbench compare: a metric got worse beyond its bound");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("krigbench compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let tallies = match run(&opts) {
        Ok(tallies) => tallies,
        Err(e) => {
            eprintln!("krigbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_table(&tallies);
    if let Some(path) = &opts.out {
        let text = serde_json::to_string_pretty(&results_file(&opts, &tallies))
            .expect("result values always serialize");
        if let Err(e) = std::fs::write(path, text + "\n") {
            eprintln!("krigbench: {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "{}",
        serde_json::to_string(&summary_line(&opts, &tallies)).expect("summary always serializes")
    );
    if tallies.iter().all(Tally::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
