//! Declarative campaign descriptions and their expansion into runs.
//!
//! A [`CampaignSpec`] is the serializable description of an experiment
//! grid: which benchmarks, which optimizer, which `d` / `N_n,min` /
//! `λ_min` values to sweep, the variogram policy, the distance metric and
//! the seed. [`CampaignSpec::expand`] turns it into the flat, ordered list
//! of [`RunSpec`]s the executor consumes; the expansion order (benchmark →
//! repeat → d → N_n,min → λ_min) is part of the format, because run
//! indices identify rows in the JSONL output.

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

pub use krigeval_core::hybrid::{ApproxSettings, GatePolicy, NuggetPolicy};
pub use krigeval_core::ModelSelection;

use krigeval_core::hybrid::VariogramPolicy;
use krigeval_core::variogram::ModelFamily;
use krigeval_core::{DistanceMetric, VariogramModel};

use crate::fault::{FaultConfig, FaultPolicy};
use crate::suite::Problem;
use crate::Scale;

/// Which optimizer drives the design-space exploration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OptimizerSpec {
    /// Pick the problem's canonical optimizer: min+1 for word-length
    /// problems, steepest-descent budgeting for the sensitivity problem.
    Auto,
    /// Force plain min+1 (word-length problems only).
    MinPlusOne,
    /// min+1 with tie-break-by-simulation in the refine phase: kriged
    /// candidates within `tolerance` of the best are re-simulated before
    /// the greedy choice commits.
    TieBreak {
        /// Tie window in metric units (dB or rate).
        tolerance: f64,
    },
    /// Force steepest-descent error budgeting (sensitivity problem only).
    Descent,
}

impl OptimizerSpec {
    /// Short label for records and progress lines.
    pub fn label(&self) -> String {
        match self {
            OptimizerSpec::Auto => "auto".to_string(),
            OptimizerSpec::MinPlusOne => "minplusone".to_string(),
            OptimizerSpec::TieBreak { tolerance } => format!("tiebreak({tolerance})"),
            OptimizerSpec::Descent => "descent".to_string(),
        }
    }
}

/// How each run obtains its variogram model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum VariogramSpec {
    /// The Table I protocol: a pure-simulation **pilot** run of the same
    /// optimizer identifies the model once, then the hybrid run uses it as
    /// fixed. Pilot simulations go through the shared campaign cache, so
    /// sweeping `d` repeats the pilot at near-zero cost.
    Pilot,
    /// Identify online, once `min_samples` simulations have accumulated
    /// (the hybrid evaluator's own fit-after policy).
    FitAfter {
        /// Simulations required before the first identification.
        min_samples: usize,
    },
    /// Skip identification entirely: a fixed linear model `γ(d) = s·d`.
    FixedLinear {
        /// Slope `s`.
        slope: f64,
    },
    /// Skip identification entirely: an arbitrary fixed model (used by the
    /// variogram-family ablation to force spherical/exponential/Gaussian
    /// fits).
    Fixed {
        /// The model every run uses verbatim.
        model: VariogramModel,
    },
}

impl VariogramSpec {
    /// Parses the spelling `campaign --variogram` and a serve `hello`
    /// share: `pilot`, `fixed-linear:SLOPE`, `fit-after:N`, or
    /// `spherical|exponential|gaussian:NUGGET:SILL:RANGE`.
    ///
    /// # Errors
    ///
    /// Names the unknown policy, the missing argument or the bad number.
    pub fn parse(text: &str) -> Result<VariogramSpec, String> {
        let mut parts = text.split(':');
        let head = parts.next().unwrap_or_default();
        let args: Vec<&str> = parts.collect();
        let arg = |i: usize| -> Result<&str, String> {
            args.get(i)
                .copied()
                .ok_or_else(|| format!("variogram {head} needs more arguments"))
        };
        match head {
            "pilot" => Ok(VariogramSpec::Pilot),
            "fixed-linear" => Ok(VariogramSpec::FixedLinear {
                slope: arg(0)?.parse().map_err(|_| "bad variogram slope")?,
            }),
            "fit-after" => Ok(VariogramSpec::FitAfter {
                min_samples: arg(0)?.parse().map_err(|_| "bad variogram sample count")?,
            }),
            family @ ("spherical" | "exponential" | "gaussian") => {
                let num = |i: usize| -> Result<f64, String> {
                    arg(i)?
                        .parse()
                        .map_err(|_| format!("bad {family} parameter"))
                };
                let (nugget, sill, range) = (num(0)?, num(1)?, num(2)?);
                let model = match family {
                    "spherical" => VariogramModel::spherical(nugget, sill, range),
                    "exponential" => VariogramModel::exponential(nugget, sill, range),
                    _ => VariogramModel::gaussian(nugget, sill, range),
                }
                .map_err(|e| e.to_string())?;
                Ok(VariogramSpec::Fixed { model })
            }
            other => Err(format!("unknown variogram policy {other:?}")),
        }
    }

    /// The hybrid evaluator's policy for this spec, or `None` for
    /// [`VariogramSpec::Pilot`], whose model comes from a pilot run. The
    /// online policy fits every [`ModelFamily`] and falls back to
    /// `γ(d) = d` if the fit fails.
    pub fn policy(&self) -> Option<VariogramPolicy> {
        let families = ModelFamily::all().to_vec();
        let fallback = VariogramModel::linear(1.0);
        Some(match *self {
            VariogramSpec::Pilot => return None,
            VariogramSpec::FitAfter { min_samples } => VariogramPolicy::FitAfter {
                min_samples,
                families,
                fallback,
            },
            VariogramSpec::FixedLinear { slope } => {
                VariogramPolicy::Fixed(VariogramModel::linear(slope))
            }
            VariogramSpec::Fixed { model } => VariogramPolicy::Fixed(model),
        })
    }

    /// Short label for records and progress lines.
    pub fn label(&self) -> String {
        match self {
            VariogramSpec::Pilot => "pilot".to_string(),
            VariogramSpec::FitAfter { min_samples } => format!("fit({min_samples})"),
            VariogramSpec::FixedLinear { slope } => format!("linear({slope})"),
            VariogramSpec::Fixed { model } => {
                use krigeval_core::VariogramModel as M;
                let family = match model {
                    M::Nugget { .. } => "nugget",
                    M::Linear { .. } => "linear",
                    M::Power { .. } => "power",
                    M::Spherical { .. } => "spherical",
                    M::Exponential { .. } => "exponential",
                    M::Gaussian { .. } => "gaussian",
                    _ => "other",
                };
                format!("fixed({family})")
            }
        }
    }
}

/// A declarative experiment campaign: the cross product of benchmarks,
/// repeats, distances, neighbour minima and constraints, under one
/// optimizer / variogram / metric policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Campaign name (recorded in the JSONL summary).
    pub name: String,
    /// Benchmark names, as accepted by `Problem::parse` (e.g. `"fir"`).
    pub benchmarks: Vec<String>,
    /// `"fast"` or `"paper"`.
    pub scale: String,
    /// Which optimizer drives each run.
    pub optimizer: OptimizerSpec,
    /// Neighbour radii `d` to sweep (the paper uses `{2, 3, 4, 5}`).
    pub distances: Vec<f64>,
    /// Minimum neighbour counts `N_n,min` to sweep (the paper uses 3, and
    /// 2 in the closing ablation).
    pub min_neighbors: Vec<usize>,
    /// Accuracy constraints `λ_min` to sweep; empty keeps each problem's
    /// canonical constraint.
    pub lambda_min: Vec<f64>,
    /// Variogram identification policy.
    pub variogram: VariogramSpec,
    /// Configuration distance metric: `"l1"` (paper), `"l2"` or `"linf"`.
    pub metric: String,
    /// Base seed; repeat `r` perturbs it so repeated runs see independent
    /// benchmark inputs, and `seed = 0, repeats = 1` reproduces the
    /// repository's canonical instances.
    pub seed: u64,
    /// Number of repeats per grid cell (different derived seeds).
    pub repeats: u32,
    /// Audit mode: re-simulate every kriged query and record Eq. 11/12
    /// errors (the Table I protocol).
    pub audit: bool,
    /// In-run evaluation threads: each run's planned simulation batches fan
    /// out over this many threads of its plan/fulfill `EngineBackend`. At
    /// `1` (the default) the backend spawns no thread and simulates on the
    /// run's own. Orthogonal to the executor's `--workers` (runs in
    /// parallel); results and counters are identical for any value.
    /// `None` (and absent-from-older-spec-files) means 1.
    pub threads: Option<usize>,
    /// Cap on neighbours per kriging system; `0` means unlimited.
    pub max_neighbors: usize,
    /// What to do when a run fails; `None` means fail fast (the strict
    /// historical behaviour). Absent from older spec files.
    pub on_error: Option<FaultPolicy>,
    /// Deterministic fault injection for chaos testing; `None` (the
    /// production value) injects nothing. Absent from older spec files.
    pub faults: Option<FaultConfig>,
    /// Opt-in approximate (screened-neighbour) prediction with a
    /// leave-one-out accuracy gate; `None` (the default) keeps the exact,
    /// bitwise-pinned path. Absent from older spec files.
    pub approx: Option<ApproxSettings>,
    /// Kriged-vs-simulate decision gate; `None` (and absent from older
    /// spec files) means [`GatePolicy::Fixed`], the bitwise-pinned
    /// historical behaviour.
    pub gate: Option<GatePolicy>,
    /// Select the variogram family by fast leave-one-out cross-validation
    /// instead of weighted least squares; `None`/`false` keeps the
    /// historical weighted-SSE selection. Absent from older spec files.
    pub loo_select: Option<bool>,
    /// Nugget (measurement-noise) policy for noisy metrics; `None` (and
    /// absent from older spec files) kriges with the exact `γ(0) = 0`
    /// interpolating system.
    pub nugget: Option<NuggetPolicy>,
}

impl Default for CampaignSpec {
    fn default() -> CampaignSpec {
        CampaignSpec {
            name: "table1".to_string(),
            benchmarks: vec!["fir".to_string(), "iir".to_string()],
            scale: "fast".to_string(),
            optimizer: OptimizerSpec::Auto,
            distances: vec![2.0, 3.0, 4.0, 5.0],
            min_neighbors: vec![3],
            lambda_min: Vec::new(),
            variogram: VariogramSpec::Pilot,
            metric: "l1".to_string(),
            seed: 0,
            repeats: 1,
            audit: true,
            threads: None,
            max_neighbors: 32,
            on_error: None,
            faults: None,
            approx: None,
            gate: None,
            loo_select: None,
            nugget: None,
        }
    }
}

/// One fully-resolved run: a single cell of the campaign grid.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Position in the campaign's expansion order (row index in the
    /// JSONL output).
    pub index: u64,
    /// The benchmark problem.
    pub problem: Problem,
    /// Experiment scale.
    pub scale: Scale,
    /// Optimizer choice.
    pub optimizer: OptimizerSpec,
    /// Neighbour radius `d`.
    pub distance: f64,
    /// Minimum neighbour count `N_n,min`.
    pub min_neighbors: usize,
    /// Constraint override; `None` keeps the problem's canonical `λ_min`.
    pub lambda_min: Option<f64>,
    /// Variogram policy.
    pub variogram: VariogramSpec,
    /// Configuration distance metric.
    pub metric: DistanceMetric,
    /// Derived seed for this run's benchmark instance (base seed ⊕ repeat
    /// hash). Runs sharing `(problem, scale, run_seed)` simulate identical
    /// surfaces and therefore share cache entries.
    pub run_seed: u64,
    /// Which repeat this run belongs to.
    pub repeat: u32,
    /// Audit mode.
    pub audit: bool,
    /// Threads of the run's `EngineBackend` (1 = simulate on the run's own
    /// thread).
    pub threads: usize,
    /// Neighbour cap (`None` = unlimited).
    pub max_neighbors: Option<usize>,
    /// Deterministic fault injection (chaos testing only; `None` in
    /// production).
    pub fault: Option<FaultConfig>,
    /// Opt-in approximate prediction settings (`None` = exact path).
    pub approx: Option<ApproxSettings>,
    /// Kriged-vs-simulate decision gate.
    pub gate: GatePolicy,
    /// Variogram-family selection criterion.
    pub selection: ModelSelection,
    /// Nugget policy (`None` = exact interpolating system).
    pub nugget: Option<NuggetPolicy>,
}

/// A malformed campaign specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    message: String,
}

impl SpecError {
    fn new(message: impl Into<String>) -> SpecError {
        SpecError {
            message: message.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid campaign spec: {}", self.message)
    }
}

impl Error for SpecError {}

impl CampaignSpec {
    /// Expands the grid into the ordered run list.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] for unknown benchmark / scale / metric names,
    /// empty sweep axes, zero repeats, non-finite or non-positive
    /// distances, or an optimizer incompatible with a selected benchmark.
    pub fn expand(&self) -> Result<Vec<RunSpec>, SpecError> {
        let scale = Scale::parse(&self.scale)
            .ok_or_else(|| SpecError::new(format!("unknown scale {:?}", self.scale)))?;
        let metric = parse_metric(&self.metric).map_err(SpecError::new)?;
        if self.benchmarks.is_empty() {
            return Err(SpecError::new("no benchmarks selected"));
        }
        if self.distances.is_empty() {
            return Err(SpecError::new("no distances selected"));
        }
        if self.min_neighbors.is_empty() {
            return Err(SpecError::new("no min_neighbors selected"));
        }
        if self.repeats == 0 {
            return Err(SpecError::new("repeats must be at least 1"));
        }
        for &d in &self.distances {
            if !d.is_finite() || d <= 0.0 {
                return Err(SpecError::new(format!("invalid distance {d}")));
            }
        }
        for &n in &self.min_neighbors {
            if n == 0 {
                return Err(SpecError::new("min_neighbors must be at least 1"));
            }
        }
        if let Some(GatePolicy::Variance { threshold }) = self.gate {
            if threshold.is_nan() || threshold <= 0.0 {
                return Err(SpecError::new(format!(
                    "invalid gate variance threshold {threshold}"
                )));
            }
        }
        if let Some(NuggetPolicy::Fixed { value }) = self.nugget {
            if !value.is_finite() || value < 0.0 {
                return Err(SpecError::new(format!("invalid nugget {value}")));
            }
        }
        let threads = self.threads.unwrap_or(1).max(1);
        if let Some(faults) = &self.faults {
            // Rates must be valid; any `threads` value is fine. Fault
            // fates are content-addressed (a pure function of the fault
            // seed, the run's surface identity and the configuration
            // words), so in-run threading — which reorders evaluations
            // but not content — composes with active injection.
            faults.validate().map_err(SpecError::new)?;
        }
        if let Some(approx) = &self.approx {
            if approx.screen_to == 0 {
                return Err(SpecError::new("approx.screen_to must be at least 1"));
            }
            if !approx.epsilon.is_finite() || approx.epsilon <= 0.0 {
                return Err(SpecError::new(format!(
                    "invalid approx.epsilon {}",
                    approx.epsilon
                )));
            }
            if approx.loo_samples == 0 {
                return Err(SpecError::new("approx.loo_samples must be at least 1"));
            }
            if approx.check_every == 0 {
                return Err(SpecError::new("approx.check_every must be at least 1"));
            }
        }
        let mut problems = Vec::new();
        for name in &self.benchmarks {
            let p = Problem::parse(name).ok_or_else(|| {
                SpecError::new(format!(
                    "unknown benchmark {name:?} (expected one of: {}, or an alias such as \
                     fir64, iir8, fft64, hevc_mc, cnn, qcnn, dct8x8)",
                    Problem::accepted_names().join(", ")
                ))
            })?;
            match self.optimizer {
                OptimizerSpec::Descent if p != Problem::Squeezenet => {
                    return Err(SpecError::new(format!(
                        "descent optimizer requires the sensitivity problem, got {name:?}"
                    )));
                }
                OptimizerSpec::MinPlusOne | OptimizerSpec::TieBreak { .. }
                    if p == Problem::Squeezenet =>
                {
                    return Err(SpecError::new(
                        "min+1 optimizers cannot drive the sensitivity problem",
                    ));
                }
                _ => {}
            }
            problems.push(p);
        }
        let mut runs = Vec::new();
        for &problem in &problems {
            for repeat in 0..self.repeats {
                let run_seed = derive_seed(self.seed, repeat);
                for &distance in &self.distances {
                    for &min_neighbors in &self.min_neighbors {
                        let lambdas: Vec<Option<f64>> = if self.lambda_min.is_empty() {
                            vec![None]
                        } else {
                            self.lambda_min.iter().map(|&l| Some(l)).collect()
                        };
                        for lambda_min in lambdas {
                            runs.push(RunSpec {
                                index: runs.len() as u64,
                                problem,
                                scale,
                                optimizer: self.optimizer,
                                distance,
                                min_neighbors,
                                lambda_min,
                                variogram: self.variogram,
                                metric,
                                run_seed,
                                repeat,
                                audit: self.audit,
                                threads,
                                max_neighbors: if self.max_neighbors == 0 {
                                    None
                                } else {
                                    Some(self.max_neighbors)
                                },
                                fault: self.faults,
                                approx: self.approx,
                                gate: self.gate.unwrap_or(GatePolicy::Fixed),
                                selection: if self.loo_select.unwrap_or(false) {
                                    ModelSelection::LeaveOneOut
                                } else {
                                    ModelSelection::WeightedSse
                                },
                                nugget: self.nugget,
                            });
                        }
                    }
                }
            }
        }
        Ok(runs)
    }

    /// Parses a spec from its JSON representation.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] on malformed JSON or missing fields.
    pub fn from_json(json: &str) -> Result<CampaignSpec, SpecError> {
        serde_json::from_str(json).map_err(|e| SpecError::new(e.to_string()))
    }

    /// Serializes the spec as pretty JSON (the `campaign template` output).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec serialization cannot fail")
    }
}

/// Derives the per-repeat seed. Repeat 0 keeps the base seed untouched so
/// `seed = 0` reproduces the canonical instances; later repeats mix the
/// repeat index through splitmix64-style odd multipliers to decorrelate.
fn derive_seed(base: u64, repeat: u32) -> u64 {
    if repeat == 0 {
        base
    } else {
        base ^ (u64::from(repeat)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// Parses a distance-metric name, in any case: `l1`, `l2`, or `linf`
/// (alias `loo`). The spelling `campaign --metric`, a spec's `metric`
/// field and a serve `hello` share.
///
/// # Errors
///
/// Names the unknown metric.
pub fn parse_metric(name: &str) -> Result<DistanceMetric, String> {
    match name.to_ascii_lowercase().as_str() {
        "l1" => Ok(DistanceMetric::L1),
        "l2" => Ok(DistanceMetric::L2),
        "linf" | "loo" => Ok(DistanceMetric::Linf),
        other => Err(format!("unknown metric {other:?}")),
    }
}

/// Parses a kriged-vs-simulate gate: `fixed`, `variance` (threshold 1.0)
/// or `variance:T`. The spelling `campaign --gate` and a serve `hello`
/// share.
///
/// # Errors
///
/// Names the unknown gate or the bad threshold.
pub fn parse_gate(text: &str) -> Result<GatePolicy, String> {
    match text {
        "fixed" => Ok(GatePolicy::Fixed),
        "variance" => Ok(GatePolicy::Variance { threshold: 1.0 }),
        other => match other.strip_prefix("variance:") {
            Some(t) => t
                .parse()
                .map(|threshold| GatePolicy::Variance { threshold })
                .map_err(|_| format!("bad gate variance threshold {t:?}")),
            None => Err(format!("unknown gate {other:?}")),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variogram_spellings_parse_and_bad_ones_say_why() {
        for (text, label) in [
            ("pilot", "pilot"),
            ("fit-after:12", "fit(12)"),
            ("fixed-linear:0.5", "linear(0.5)"),
            ("spherical:0:1:2", "fixed(spherical)"),
            ("exponential:0:1:2", "fixed(exponential)"),
            ("gaussian:0:1:2", "fixed(gaussian)"),
        ] {
            assert_eq!(VariogramSpec::parse(text).unwrap().label(), label);
        }
        assert_eq!(VariogramSpec::Pilot.policy(), None);
        for (text, error) in [
            ("fit-after", "variogram fit-after needs more arguments"),
            ("fit-after:x", "bad variogram sample count"),
            ("fixed-linear:x", "bad variogram slope"),
            ("gaussian:0:1:x", "bad gaussian parameter"),
            ("kriging", "unknown variogram policy \"kriging\""),
            ("refit:8:4", "unknown variogram policy \"refit\""),
        ] {
            assert_eq!(VariogramSpec::parse(text).unwrap_err(), error, "{text}");
        }
        assert!(VariogramSpec::parse("spherical:0:-1:2").is_err());
    }

    #[test]
    fn metric_names_parse_in_any_case() {
        for (name, metric) in [
            ("l1", DistanceMetric::L1),
            ("L1", DistanceMetric::L1),
            ("l2", DistanceMetric::L2),
            ("linf", DistanceMetric::Linf),
            ("LOO", DistanceMetric::Linf),
        ] {
            assert_eq!(parse_metric(name), Ok(metric), "{name}");
        }
        assert_eq!(
            parse_metric("Hamming"),
            Err("unknown metric \"hamming\"".to_string())
        );
    }

    #[test]
    fn gate_spellings_parse_and_bad_ones_say_why() {
        for (text, gate) in [
            ("fixed", GatePolicy::Fixed),
            ("variance", GatePolicy::Variance { threshold: 1.0 }),
            ("variance:2.5", GatePolicy::Variance { threshold: 2.5 }),
        ] {
            assert_eq!(parse_gate(text), Ok(gate), "{text}");
        }
        for (text, error) in [
            ("variance:x", "bad gate variance threshold \"x\""),
            ("Fixed", "unknown gate \"Fixed\""),
            ("sigma:1", "unknown gate \"sigma:1\""),
        ] {
            assert_eq!(parse_gate(text), Err(error.to_string()), "{text}");
        }
    }

    #[test]
    fn default_spec_expands_in_documented_order() {
        let spec = CampaignSpec::default();
        let runs = spec.expand().unwrap();
        // 2 benchmarks × 1 repeat × 4 distances × 1 nmin × 1 lambda.
        assert_eq!(runs.len(), 8);
        assert_eq!(runs[0].problem, Problem::Fir);
        assert_eq!(runs[0].distance, 2.0);
        assert_eq!(runs[3].distance, 5.0);
        assert_eq!(runs[4].problem, Problem::Iir);
        for (i, r) in runs.iter().enumerate() {
            assert_eq!(r.index, i as u64);
        }
    }

    #[test]
    fn lambda_sweep_multiplies_runs() {
        let spec = CampaignSpec {
            benchmarks: vec!["fir".to_string()],
            distances: vec![3.0],
            lambda_min: vec![20.0, 28.0, 35.0],
            ..CampaignSpec::default()
        };
        let runs = spec.expand().unwrap();
        assert_eq!(runs.len(), 3);
        assert_eq!(runs[1].lambda_min, Some(28.0));
    }

    #[test]
    fn repeats_derive_distinct_seeds() {
        let spec = CampaignSpec {
            benchmarks: vec!["fir".to_string()],
            distances: vec![3.0],
            repeats: 3,
            seed: 7,
            ..CampaignSpec::default()
        };
        let runs = spec.expand().unwrap();
        assert_eq!(runs.len(), 3);
        assert_eq!(runs[0].run_seed, 7, "repeat 0 keeps the base seed");
        assert_ne!(runs[1].run_seed, runs[0].run_seed);
        assert_ne!(runs[2].run_seed, runs[1].run_seed);
    }

    #[test]
    fn unknown_benchmark_error_lists_accepted_names() {
        let bad = CampaignSpec {
            benchmarks: vec!["warp".to_string()],
            ..CampaignSpec::default()
        };
        let message = bad.expand().unwrap_err().to_string();
        assert!(
            message.contains("\"warp\""),
            "names the offender: {message}"
        );
        for name in Problem::accepted_names() {
            assert!(
                message.contains(name),
                "error must list {name:?}: {message}"
            );
        }
    }

    #[test]
    fn every_accepted_name_and_label_round_trips() {
        // label() -> parse() must be the identity for all eight problems,
        // and the names the error message advertises must all parse.
        for (problem, name) in Problem::extended().iter().zip(Problem::accepted_names()) {
            assert_eq!(Problem::parse(problem.label()), Some(*problem));
            assert_eq!(Problem::parse(name), Some(*problem));
            let spec = CampaignSpec {
                benchmarks: vec![name.to_string()],
                distances: vec![3.0],
                ..CampaignSpec::default()
            };
            let runs = spec.expand().unwrap();
            assert_eq!(runs.len(), 1);
            assert_eq!(runs[0].problem, *problem);
        }
    }

    #[test]
    fn expand_rejects_bad_specs() {
        let bad_bench = CampaignSpec {
            benchmarks: vec!["warp".to_string()],
            ..CampaignSpec::default()
        };
        assert!(bad_bench.expand().is_err());
        let bad_scale = CampaignSpec {
            scale: "huge".to_string(),
            ..CampaignSpec::default()
        };
        assert!(bad_scale.expand().is_err());
        let bad_metric = CampaignSpec {
            metric: "manhattan?".to_string(),
            ..CampaignSpec::default()
        };
        assert!(bad_metric.expand().is_err());
        let no_d = CampaignSpec {
            distances: Vec::new(),
            ..CampaignSpec::default()
        };
        assert!(no_d.expand().is_err());
        let descent_on_fir = CampaignSpec {
            benchmarks: vec!["fir".to_string()],
            optimizer: OptimizerSpec::Descent,
            ..CampaignSpec::default()
        };
        assert!(descent_on_fir.expand().is_err());
        let minplusone_on_cnn = CampaignSpec {
            benchmarks: vec!["squeezenet".to_string()],
            optimizer: OptimizerSpec::MinPlusOne,
            ..CampaignSpec::default()
        };
        assert!(minplusone_on_cnn.expand().is_err());
    }

    #[test]
    fn expand_rejects_edge_cases_with_actionable_messages() {
        let zero_repeats = CampaignSpec {
            repeats: 0,
            ..CampaignSpec::default()
        };
        assert_eq!(
            zero_repeats.expand().unwrap_err().to_string(),
            "invalid campaign spec: repeats must be at least 1"
        );
        let no_benchmarks = CampaignSpec {
            benchmarks: Vec::new(),
            ..CampaignSpec::default()
        };
        assert_eq!(
            no_benchmarks.expand().unwrap_err().to_string(),
            "invalid campaign spec: no benchmarks selected"
        );
        let no_nmin = CampaignSpec {
            min_neighbors: Vec::new(),
            ..CampaignSpec::default()
        };
        assert_eq!(
            no_nmin.expand().unwrap_err().to_string(),
            "invalid campaign spec: no min_neighbors selected"
        );
        for bad_d in [-3.0, 0.0, f64::NAN, f64::INFINITY] {
            let spec = CampaignSpec {
                distances: vec![2.0, bad_d],
                ..CampaignSpec::default()
            };
            let message = spec.expand().unwrap_err().to_string();
            assert!(
                message.starts_with("invalid campaign spec: invalid distance"),
                "d = {bad_d}: {message}"
            );
        }
    }

    #[test]
    fn expand_validates_fault_rates() {
        let bad_rate = CampaignSpec {
            faults: Some(FaultConfig {
                panic_rate: 1.5,
                ..FaultConfig::default()
            }),
            ..CampaignSpec::default()
        };
        let message = bad_rate.expand().unwrap_err().to_string();
        assert!(
            message.contains("panic_rate must be in [0, 1]"),
            "{message}"
        );
        let good = CampaignSpec {
            faults: Some(FaultConfig {
                error_rate: 0.01,
                seed: 5,
                ..FaultConfig::default()
            }),
            on_error: Some(FaultPolicy::Retry { max: 2 }),
            ..CampaignSpec::default()
        };
        let runs = good.expand().unwrap();
        assert_eq!(runs[0].fault, good.faults, "faults propagate to each run");
    }

    #[test]
    fn specs_without_failure_fields_still_parse() {
        // Spec files written before the fault-policy and approx fields
        // existed must keep loading; the absent fields default to the
        // strict, exact-path behaviour.
        let legacy = CampaignSpec::default();
        let mut json = legacy.to_json();
        json = json
            .lines()
            .filter(|line| {
                !line.contains("on_error")
                    && !line.contains("faults")
                    && !line.contains("approx")
                    && !line.contains("\"gate\"")
                    && !line.contains("loo_select")
                    && !line.contains("nugget")
            })
            .collect::<Vec<_>>()
            .join("\n")
            // The field before the removed trailing pairs must not keep a
            // dangling comma.
            .replace("\"max_neighbors\": 32,", "\"max_neighbors\": 32");
        let back = CampaignSpec::from_json(&json).unwrap();
        assert_eq!(back.on_error, None);
        assert_eq!(back.faults, None);
        assert_eq!(back.approx, None);
        assert_eq!(back.gate, None);
        assert_eq!(back.loo_select, None);
        assert_eq!(back.nugget, None);
        assert_eq!(back, legacy);
        let run = &back.expand().unwrap()[0];
        assert_eq!(run.gate, GatePolicy::Fixed);
        assert_eq!(run.selection, ModelSelection::WeightedSse);
        assert_eq!(run.nugget, None);
    }

    #[test]
    fn expand_validates_gate_and_nugget_knobs() {
        for bad in [f64::NAN, 0.0, -1.0] {
            let spec = CampaignSpec {
                gate: Some(GatePolicy::Variance { threshold: bad }),
                ..CampaignSpec::default()
            };
            let message = spec.expand().unwrap_err().to_string();
            assert!(
                message.contains("gate variance threshold"),
                "threshold {bad}: {message}"
            );
        }
        for bad in [f64::NAN, f64::INFINITY, -0.5] {
            let spec = CampaignSpec {
                nugget: Some(NuggetPolicy::Fixed { value: bad }),
                ..CampaignSpec::default()
            };
            let message = spec.expand().unwrap_err().to_string();
            assert!(
                message.contains("invalid nugget"),
                "nugget {bad}: {message}"
            );
        }
        let zero_nmin = CampaignSpec {
            min_neighbors: vec![3, 0],
            ..CampaignSpec::default()
        };
        assert_eq!(
            zero_nmin.expand().unwrap_err().to_string(),
            "invalid campaign spec: min_neighbors must be at least 1"
        );
        let good = CampaignSpec {
            gate: Some(GatePolicy::Variance { threshold: 2.5 }),
            loo_select: Some(true),
            nugget: Some(NuggetPolicy::Fixed { value: 0.25 }),
            ..CampaignSpec::default()
        };
        let run = &good.expand().unwrap()[0];
        assert_eq!(run.gate, GatePolicy::Variance { threshold: 2.5 });
        assert_eq!(run.selection, ModelSelection::LeaveOneOut);
        assert_eq!(run.nugget, Some(NuggetPolicy::Fixed { value: 0.25 }));
        // A spec file names a fixed nugget only; any other spelling is a
        // parse error.
        for bad in ["\"Estimate\"", "\"auto\""] {
            let json = CampaignSpec::default()
                .to_json()
                .replace("\"nugget\": null", &format!("\"nugget\": {bad}"));
            let message = CampaignSpec::from_json(&json).unwrap_err().to_string();
            assert!(
                message.contains("unknown variant"),
                "nugget {bad}: {message}"
            );
        }
    }

    #[test]
    fn specs_without_threads_default_to_inline() {
        let legacy = CampaignSpec::default();
        let json = legacy
            .to_json()
            .lines()
            .filter(|line| !line.contains("\"threads\""))
            .collect::<Vec<_>>()
            .join("\n");
        let back = CampaignSpec::from_json(&json).unwrap();
        assert_eq!(back.threads, None);
        assert_eq!(back.expand().unwrap()[0].threads, 1);
        assert_eq!(back, legacy);
    }

    #[test]
    fn threads_compose_with_active_faults() {
        // Historical behaviour rejected `threads > 1` with active fault
        // rates (fault streams were keyed on the serial call order).
        // Fates are content-addressed now, so the combination expands
        // cleanly and both settings reach every run.
        let spec = CampaignSpec {
            threads: Some(4),
            faults: Some(FaultConfig {
                error_rate: 0.01,
                seed: 5,
                ..FaultConfig::default()
            }),
            on_error: Some(FaultPolicy::Retry { max: 2 }),
            ..CampaignSpec::default()
        };
        let runs = spec.expand().unwrap();
        assert_eq!(runs[0].threads, 4);
        assert_eq!(runs[0].fault, spec.faults);
        // Invalid rates are still rejected, threaded or not.
        let bad = CampaignSpec {
            threads: Some(4),
            faults: Some(FaultConfig {
                error_rate: 1.5,
                ..FaultConfig::default()
            }),
            ..CampaignSpec::default()
        };
        assert!(bad
            .expand()
            .unwrap_err()
            .to_string()
            .contains("error_rate must be in [0, 1]"));
        // Inactive fault config (all rates zero) stays fine too.
        let inactive = CampaignSpec {
            threads: Some(4),
            faults: Some(FaultConfig::default()),
            ..CampaignSpec::default()
        };
        let runs = inactive.expand().unwrap();
        assert_eq!(runs[0].threads, 4);
    }

    #[test]
    fn spec_json_roundtrip_is_lossless() {
        let spec = CampaignSpec {
            optimizer: OptimizerSpec::TieBreak { tolerance: 0.5 },
            variogram: VariogramSpec::FitAfter { min_samples: 12 },
            lambda_min: vec![30.0],
            repeats: 2,
            seed: 42,
            ..CampaignSpec::default()
        };
        let json = spec.to_json();
        let back = CampaignSpec::from_json(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn from_json_reports_missing_fields() {
        let err = CampaignSpec::from_json("{\"name\": \"x\"}").unwrap_err();
        assert!(err.to_string().contains("invalid campaign spec"));
    }
}
