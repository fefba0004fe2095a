//! Ablations: the paper's `N_n,min = 2` experiment, two of our own
//! (distance metric, variogram family), and the FIR grid replay.
//!
//! ```text
//! ablation [--scale fast|paper] [--sweep nmin|metric|variogram|grid]
//!          [--bench fir|iir|fft|hevc|squeezenet] [--workers 4]
//! ```
//!
//! The nmin, metric and variogram sweeps are `krigeval-engine` campaigns
//! (default benchmark: fft) executed on a worker pool; cells that share a
//! benchmark surface also share simulations through the engine's
//! memo-cache. The grid sweep is FIR only and runs in-process.

use std::process::ExitCode;

use krigeval_bench::suite::{build, Problem};
use krigeval_bench::Scale;
use krigeval_core::hybrid::{HybridEvaluator, HybridSettings, VariogramPolicy};
use krigeval_core::report::{Table, TableRow};
use krigeval_core::variogram::{fit_model, EmpiricalVariogram, ModelFamily};
use krigeval_core::{DistanceMetric, VariogramModel};
use krigeval_engine::{
    run_campaign, run_specs, summarize, CampaignSpec, Progress, RunRecord, VariogramSpec,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Paper;
    let mut sweep = String::from("nmin");
    let mut bench: Option<Problem> = None;
    let mut workers = 4usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = if args[i] == "fast" {
                    Scale::Fast
                } else {
                    Scale::Paper
                };
            }
            "--sweep" => {
                i += 1;
                sweep = args[i].clone();
            }
            "--bench" => {
                i += 1;
                match Problem::parse(&args[i]) {
                    Some(p) => bench = Some(p),
                    None => {
                        eprintln!("unknown benchmark: {}", args[i]);
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--workers" => {
                i += 1;
                workers = args[i].parse().unwrap_or(4);
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    let problem = bench.unwrap_or(Problem::Fft);
    let result = match sweep.as_str() {
        "nmin" => sweep_nmin(problem, scale, workers),
        "metric" => sweep_metric(problem, scale, workers),
        "variogram" => sweep_variogram(problem, scale, workers),
        "grid" if bench.is_some_and(|p| p != Problem::Fir) => {
            eprintln!("--sweep grid replays the FIR surface only");
            return ExitCode::FAILURE;
        }
        "grid" => sweep_grid(scale),
        other => {
            eprintln!("unknown sweep: {other} (expected nmin|metric|variogram|grid)");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ablation failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn base_spec(problem: Problem, scale: Scale, name: &str) -> CampaignSpec {
    CampaignSpec {
        name: name.to_string(),
        benchmarks: vec![problem.label().to_string()],
        scale: scale.label().to_string(),
        distances: vec![3.0],
        ..CampaignSpec::default()
    }
}

/// The paper's closing ablation: `N_n,min ∈ {2, 3, 4}` at d = 3 — one
/// campaign with a `min_neighbors` axis.
fn sweep_nmin(
    problem: Problem,
    scale: Scale,
    workers: usize,
) -> Result<(), Box<dyn std::error::Error>> {
    let spec = CampaignSpec {
        min_neighbors: vec![2, 3, 4],
        ..base_spec(problem, scale, "ablation-nmin")
    };
    let outcome = run_campaign(&spec, workers, Progress::Silent)?;
    print!(
        "{}",
        Table {
            rows: summarize(&outcome.records),
        }
    );
    Ok(())
}

/// One row per run (each its own one-run cell), its metric column
/// replaced by the sweep's label.
fn labelled(records: &[RunRecord], labels: &[&str]) -> Table {
    records
        .iter()
        .zip(labels)
        .map(|(record, label)| TableRow {
            metric: label.to_string(),
            ..summarize(std::slice::from_ref(record)).remove(0)
        })
        .collect()
}

/// Our ablation: the L1/L2/L∞ configuration distances. Three one-cell
/// campaigns merged into a single parallel batch (the engine's online
/// fit-after policy matches the sequential ablation's default settings).
fn sweep_metric(
    problem: Problem,
    scale: Scale,
    workers: usize,
) -> Result<(), Box<dyn std::error::Error>> {
    let mut runs = Vec::new();
    for metric in ["l1", "l2", "linf"] {
        let spec = CampaignSpec {
            metric: metric.to_string(),
            variogram: VariogramSpec::FitAfter { min_samples: 10 },
            ..base_spec(problem, scale, "ablation-metric")
        };
        for mut run in spec.expand()? {
            run.index = runs.len() as u64;
            runs.push(run);
        }
    }
    let outcome = run_specs(runs, workers, Progress::Silent)?;
    print!("{}", labelled(&outcome.records, &["L1", "L2", "Linf"]));
    Ok(())
}

/// Our ablation: fixed variogram families instead of automatic fitting.
fn sweep_variogram(
    problem: Problem,
    scale: Scale,
    workers: usize,
) -> Result<(), Box<dyn std::error::Error>> {
    let policies: Vec<(&str, VariogramSpec)> = vec![
        ("auto", VariogramSpec::FitAfter { min_samples: 10 }),
        ("linear", VariogramSpec::FixedLinear { slope: 3.0 }),
        (
            "spherical",
            VariogramSpec::Fixed {
                model: VariogramModel::spherical(0.0, 100.0, 8.0)?,
            },
        ),
        (
            "exponential",
            VariogramSpec::Fixed {
                model: VariogramModel::exponential(0.0, 100.0, 8.0)?,
            },
        ),
        (
            "gaussian",
            VariogramSpec::Fixed {
                model: VariogramModel::gaussian(0.0, 100.0, 8.0)?,
            },
        ),
    ];
    let mut runs = Vec::new();
    let mut labels = Vec::new();
    for (name, variogram) in policies {
        let spec = CampaignSpec {
            variogram,
            ..base_spec(problem, scale, "ablation-variogram")
        };
        for mut run in spec.expand()? {
            run.index = runs.len() as u64;
            runs.push(run);
            labels.push(name);
        }
    }
    let outcome = run_specs(runs, workers, Progress::Silent)?;
    print!("{}", labelled(&outcome.records, &labels));
    Ok(())
}

/// FIR **surface replay**: streams the full Figure 1 grid
/// (`(w_add, w_mpy) ∈ [2, 16]²`, row-major) through the hybrid evaluator
/// instead of an optimizer trajectory, at d ∈ {2..5} and `N_n,min = 3`.
///
/// With `Nv = 2` the min+1 trajectory is dominated by its two phase-1
/// descent lines, where at most two simulated neighbours lie within
/// `d ≤ 3`, so the strict `N_n > 3` rule cannot krige there. The paper's
/// 33–53 % FIR interpolation at `d ∈ {2, 3}` needs a denser recorded set,
/// and the paper measures exactly such a set for FIR: the Figure 1
/// surface. The variogram is identified once, from the surface itself.
fn sweep_grid(scale: Scale) -> Result<(), Box<dyn std::error::Error>> {
    let problem = Problem::Fir;
    let grid: Vec<Vec<i32>> = (2..=16)
        .flat_map(|w_add| (2..=16).map(move |w_mpy| vec![w_add, w_mpy]))
        .collect();
    let mut pilot = build(problem, scale).evaluator;
    let values = grid
        .iter()
        .map(|config| pilot.evaluate(config))
        .collect::<Result<Vec<f64>, _>>()?;
    let model = EmpiricalVariogram::from_configs(&grid, &values, DistanceMetric::L1)
        .and_then(|emp| fit_model(&emp, &ModelFamily::all()))
        .map_or(VariogramModel::linear(1.0), |report| report.model);
    let mut table = Table::new();
    for d in [2.0, 3.0, 4.0, 5.0] {
        let settings = HybridSettings {
            distance: d,
            min_neighbors: 3,
            variogram: VariogramPolicy::Fixed(model),
            audit: Some(problem.audit_metric()),
            ..HybridSettings::default()
        };
        let mut hybrid = HybridEvaluator::new(build(problem, scale).evaluator, settings);
        for config in &grid {
            hybrid.evaluate(config)?;
        }
        let stats = hybrid.stats();
        let (metric, nv) = (problem.metric_label(), problem.nv());
        table.push(TableRow::from_stats("fir64(grid)", metric, nv, d, 3, stats));
    }
    print!("{table}");
    Ok(())
}
