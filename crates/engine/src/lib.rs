//! `krigeval-engine` — parallel campaign engine for the kriging-based
//! error-evaluation experiments.
//!
//! The paper's experimental study is a grid of *runs*: each run picks a
//! benchmark kernel, an optimizer, a neighbour radius `d`, a minimum
//! neighbour count `N_n,min`, a variogram policy and an accuracy constraint
//! `λ_min`, then drives the optimizer through the hybrid
//! kriging/simulation evaluator and records the session statistics (one
//! Table I cell). This crate packages that grid as a declarative
//! [`spec::CampaignSpec`], executes its expansion on a fixed worker pool
//! ([`executor::run_campaign`]), shares exact simulation results between
//! runs through a concurrent memo-cache ([`cache::SimCache`]), and emits
//! one JSON line per run plus a campaign summary ([`sink`]). The
//! [`matrix`] module is Table I itself: all eight benchmarks over the
//! `d` / `N_n,min` grid, folded into one row per cell.
//!
//! Determinism: every run is a pure function of its [`spec::RunSpec`]
//! (fixed seeds, deterministic simulators, deterministic kriging), and the
//! shared cache only memoizes values those simulators would have produced
//! anyway — so campaign results are byte-identical across worker counts
//! and repeated runs (timing fields excluded; see [`sink::SinkOptions`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cache;
pub mod executor;
pub mod fault;
pub mod matrix;
pub mod obs;
pub mod runner;
pub mod shard;
pub mod sink;
pub mod spec;
pub mod suite;

/// Experiment scale: full paper-sized instances or reduced fast instances
/// (same code paths, smaller inputs) for tests and smoke runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Reduced instance sizes for quick runs and CI.
    Fast,
    /// The paper's instance sizes.
    #[default]
    Paper,
}

impl Scale {
    /// Parses `"fast"` / `"paper"` (as accepted by CLI flags and specs).
    pub fn parse(name: &str) -> Option<Scale> {
        match name.to_ascii_lowercase().as_str() {
            "fast" => Some(Scale::Fast),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// Lowercase label (inverse of [`Scale::parse`]).
    pub fn label(&self) -> &'static str {
        match self {
            Scale::Fast => "fast",
            Scale::Paper => "paper",
        }
    }
}

pub use backend::EngineBackend;
pub use cache::{CacheStats, CachedEvaluator, SimCache};
pub use executor::{
    parallel_map, run_campaign, run_specs, run_specs_opts, CampaignOutcome, EngineError,
    ExecOptions, Progress, RunError,
};
pub use fault::{FaultConfig, FaultFate, FaultPhase, FaultPolicy, FaultStream};
pub use matrix::{check_table_shape, summarize, MatrixSpec};
pub use obs::{BackendObs, CampaignObs};
pub use shard::{
    merge_shards, parse_shard, render_shard, shard_of, shard_runs, spec_digest, MergeError,
    ShardFile, ShardManifest,
};
pub use sink::{
    is_compressed_path, load_journal, read_artifact_text, write_jsonl, write_jsonl_full,
    write_rows, FailureRecord, JournalError, JournalErrorRecord, JournalWriter, RunRecord,
    SinkOptions, SummaryRecord,
};
pub use spec::{CampaignSpec, OptimizerSpec, RunSpec, SpecError, VariogramSpec};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parse_roundtrips() {
        for s in [Scale::Fast, Scale::Paper] {
            assert_eq!(Scale::parse(s.label()), Some(s));
        }
        assert_eq!(Scale::parse("huge"), None);
        assert_eq!(Scale::default(), Scale::Paper);
    }
}
