//! Engine-layer observability: metric sets and trace wiring for the
//! campaign executor and the parallel fulfillment backend.
//!
//! Two bundles of pre-registered handles keep the hot paths allocation-
//! and lock-free:
//!
//! * [`CampaignObs`] — executor-level counters (`engine_*`): run
//!   completions, failures, retries, journal writes and journal
//!   **errors** (the silently-swallowed failure class this layer was
//!   built to expose), plus resume bookkeeping. Carries the campaign's
//!   single [`Tracer`], so executor events (`run_done`, `run_failed`,
//!   `journal_error`, `resume`) and the per-run hybrid events share one
//!   monotonic sequence stream.
//!   With timing enabled it also carries the resumable benchmarks'
//!   checkpoint resume counts as gauges (`engine_checkpoint_*`, see
//!   [`CampaignObs::record_resume_stats`]) and each benchmark's minor
//!   page faults (`engine_minor_faults_*`, see
//!   [`CampaignObs::record_minor_faults`]).
//! * [`BackendObs`] — worker-pool counters (`backend_*`): batches, jobs,
//!   shared-cache hits and real simulator evaluations, plus
//!   scheduling-only gauges/histograms (queue depth, queue wait, fulfill
//!   latency, and each benchmark's µs per real simulator call,
//!   `backend_simulate_us_*`). Every campaign run fulfills through an
//!   [`crate::backend::EngineBackend`], so these appear for every run, at
//!   every thread count.
//!
//! # Determinism contract
//!
//! Counters in both bundles mirror algorithmic decisions that are a pure
//! function of the campaign spec: per-run work is deterministic, cache
//! hit **totals** are deterministic (`hits = lookups − distinct`, pinned
//! by the in-flight dedup protocol), and failed/retried attempt counts
//! derive from deterministic fault streams. Counter snapshots therefore
//! compare bitwise-equal across worker counts. Gauges and histograms
//! observe scheduling and wall-clock; they are exported only with timing
//! enabled and carry no cross-worker guarantee. Trace events have
//! deterministic *fields* but completion-order (scheduling-dependent)
//! sequence numbers.

use krigeval_core::hybrid::HybridObs;
use krigeval_fixedpoint::ResumeStats;
use krigeval_obs::{Counter, Gauge, Histogram, Registry, Tracer};

/// Pre-registered executor metrics plus the campaign-wide tracer.
///
/// Construct once per campaign and pass by reference through
/// [`crate::executor::ExecOptions::obs`]; the executor and (via
/// [`CampaignObs::hybrid_obs`] / [`CampaignObs::backend_obs`]) every
/// run's evaluator stack share the same registry and sequence stream.
pub struct CampaignObs {
    registry: Registry,
    tracer: Tracer,
    timing: bool,
    /// Runs that completed successfully.
    pub(crate) runs_completed: Counter,
    /// Runs that failed permanently (skipped rows and fatal failures).
    pub(crate) runs_failed: Counter,
    /// Retry attempts granted to transient failures.
    pub(crate) run_retries: Counter,
    /// Attempts that ended in a caught panic.
    pub(crate) run_panics: Counter,
    /// Attempts that ended in a structured run error.
    pub(crate) run_errors: Counter,
    /// Journal lines written successfully.
    pub(crate) journal_writes: Counter,
    /// Journal writes that failed (the headline bugfix metric: these
    /// were previously dropped on stderr and lost).
    pub(crate) journal_errors: Counter,
    /// Rows replayed from a resume journal instead of re-executed.
    pub(crate) resume_rows: Counter,
    /// Runs owned (and not already journalled) by a `campaign shard`
    /// invocation.
    pub(crate) shard_runs: Counter,
    /// Shard files consumed by a `campaign merge`.
    pub(crate) merge_shards: Counter,
    /// Rows (runs + failures) reassembled by a `campaign merge`.
    pub(crate) merge_rows: Counter,
    /// Per-run wall clock (scheduling-dependent; timing only).
    pub(crate) run_wall_us: Histogram,
}

impl std::fmt::Debug for CampaignObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignObs")
            .field("tracer", &self.tracer)
            .field("timing", &self.timing)
            .finish_non_exhaustive()
    }
}

impl CampaignObs {
    /// Registers the executor metric set (`engine_*`) in `registry` and
    /// pairs it with `tracer` (the campaign's single sequence stream).
    pub fn new(registry: &Registry, tracer: Tracer) -> CampaignObs {
        CampaignObs {
            registry: registry.clone(),
            tracer,
            timing: false,
            runs_completed: registry.counter("engine_runs_completed_total"),
            runs_failed: registry.counter("engine_runs_failed_total"),
            run_retries: registry.counter("engine_run_retries_total"),
            run_panics: registry.counter("engine_run_panics_total"),
            run_errors: registry.counter("engine_run_errors_total"),
            journal_writes: registry.counter("engine_journal_writes_total"),
            journal_errors: registry.counter("engine_journal_errors_total"),
            resume_rows: registry.counter("engine_resume_rows_total"),
            shard_runs: registry.counter("engine_shard_runs_total"),
            merge_shards: registry.counter("engine_merge_shards_total"),
            merge_rows: registry.counter("engine_merge_rows_total"),
            run_wall_us: registry.histogram("engine_run_wall_us"),
        }
    }

    /// Enables (or disables) wall-clock histograms in the derived
    /// per-run bundles (and timing fields on emitted events' sinks).
    #[must_use]
    pub fn with_timing(mut self, timing: bool) -> CampaignObs {
        self.timing = timing;
        self
    }

    /// The registry every derived bundle registers into.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The campaign's tracer (shared sequence stream).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Whether wall-clock histograms are recorded.
    pub fn timing(&self) -> bool {
        self.timing
    }

    /// A hybrid-evaluator bundle sharing this campaign's registry and
    /// tracer (handles are idempotent: every run updates the same
    /// campaign-wide `hybrid_*` counters).
    pub fn hybrid_obs(&self) -> HybridObs {
        HybridObs::new(&self.registry, self.tracer.clone()).with_timing(self.timing)
    }

    /// A worker-pool bundle sharing this campaign's registry and tracer,
    /// for a backend simulating `benchmark`. With timing enabled, it times
    /// each real simulator call into `backend_simulate_us_{benchmark}`.
    pub fn backend_obs(&self, benchmark: &str) -> BackendObs {
        let mut obs = BackendObs::new(&self.registry, self.tracer.clone()).with_timing(self.timing);
        if self.timing {
            obs.simulate_us = Some(
                self.registry
                    .histogram(&format!("backend_simulate_us_{benchmark}")),
            );
        }
        obs
    }

    /// Adds one run's checkpoint resume counts to its benchmark's
    /// `engine_checkpoint_*_{benchmark}` gauges: simulations, resumed
    /// simulations, stages skipped, and resumed simulations by the stages
    /// they skipped (`resumed_site{k}`: resumed at site or stage `k`; for
    /// hevc_mc, `k` of its four filter passes skipped).
    /// Which simulations resume depends on which worker ran which job, so
    /// the counts are timing-only gauges, recorded only with timing
    /// enabled, and never join the deterministic counter snapshot.
    pub fn record_resume_stats(&self, benchmark: &str, stats: &ResumeStats) {
        if !self.timing {
            return;
        }
        let add = |what: &str, n: u64| {
            self.registry
                .gauge(&format!("engine_checkpoint_{what}_{benchmark}"))
                .add(i64::try_from(n).unwrap_or(i64::MAX));
        };
        add("simulations", stats.simulations());
        add("resumed", stats.resumed());
        add("stages_skipped", stats.stages_skipped());
        for (site, &n) in stats.started_at.iter().enumerate().skip(1) {
            add(&format!("resumed_site{site}"), n);
        }
    }

    /// Adds `faults`, the minor page faults the process took over one run
    /// of `benchmark` (see [`minor_faults`]), to its
    /// `engine_minor_faults_{benchmark}` gauge. Runs that overlap on other
    /// executor workers fault into the same process count, so the count is
    /// a run's own only at one executor worker; it is a timing-only gauge,
    /// recorded only with timing enabled.
    pub fn record_minor_faults(&self, benchmark: &str, faults: u64) {
        if self.timing {
            self.registry
                .gauge(&format!("engine_minor_faults_{benchmark}"))
                .add(i64::try_from(faults).unwrap_or(i64::MAX));
        }
    }

    /// Records `rows` journal rows replayed by a resume (counter plus a
    /// `resume` trace event).
    pub fn record_resume(&self, rows: u64) {
        self.resume_rows.add(rows);
        self.tracer.emit("resume", vec![("rows", rows.into())]);
    }

    /// Records one `campaign shard` invocation: which partition slot this
    /// process owns and how many runs it will execute.
    pub fn record_shard(&self, index: u64, of: u64, runs: u64) {
        self.shard_runs.add(runs);
        self.tracer.emit(
            "shard",
            vec![
                ("index", index.into()),
                ("of", of.into()),
                ("runs", runs.into()),
            ],
        );
    }

    /// Records one `campaign merge`: how many shard files were consumed
    /// and how many rows the reassembled artifact carries.
    pub fn record_merge(&self, shards: u64, rows: u64) {
        self.merge_shards.add(shards);
        self.merge_rows.add(rows);
        self.tracer.emit(
            "merge",
            vec![("shards", shards.into()), ("rows", rows.into())],
        );
    }
}

/// The minor page faults this process has taken so far, from
/// `/proc/self/stat`; `None` where that file is absent or unreadable.
pub fn minor_faults() -> Option<u64> {
    parse_minor_faults(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// Field 10 (`minflt`) of a `/proc/<pid>/stat` line. The command name,
/// field 2, is parenthesized and may itself hold spaces and parentheses,
/// so the fields are counted from after its last `)`: field 3 first.
fn parse_minor_faults(stat: &str) -> Option<u64> {
    stat.rsplit_once(')')?
        .1
        .split_whitespace()
        .nth(10 - 3)?
        .parse()
        .ok()
}

/// Pre-registered worker-pool metrics for
/// [`crate::backend::EngineBackend`].
pub struct BackendObs {
    pub(crate) tracer: Tracer,
    pub(crate) timing: bool,
    /// Fulfilled batches.
    pub(crate) batches: Counter,
    /// Simulation jobs across all batches.
    pub(crate) jobs: Counter,
    /// Jobs answered by the shared simulation cache (total is
    /// deterministic: `hits = lookups − distinct`).
    pub(crate) cache_hits: Counter,
    /// Real simulator invocations (cache misses).
    pub(crate) evaluations: Counter,
    /// Jobs currently enqueued (scheduling-dependent).
    pub(crate) queue_depth: Gauge,
    /// Wall-clock per fulfilled batch (timing only).
    pub(crate) fulfill_us: Histogram,
    /// Enqueue-to-dequeue wait per job (timing only).
    pub(crate) queue_wait_us: Histogram,
    /// Wall-clock per real simulator call of the backend's benchmark
    /// (`backend_simulate_us_<benchmark>`); registered only with timing
    /// enabled, by [`CampaignObs::backend_obs`].
    pub(crate) simulate_us: Option<Histogram>,
}

impl std::fmt::Debug for BackendObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackendObs")
            .field("tracer", &self.tracer)
            .field("timing", &self.timing)
            .finish_non_exhaustive()
    }
}

impl BackendObs {
    /// Registers the worker-pool metric set (`backend_*`) in `registry`.
    pub fn new(registry: &Registry, tracer: Tracer) -> BackendObs {
        BackendObs {
            tracer,
            timing: false,
            batches: registry.counter("backend_batches_total"),
            jobs: registry.counter("backend_jobs_total"),
            cache_hits: registry.counter("backend_sim_cache_hits_total"),
            evaluations: registry.counter("backend_evaluations_total"),
            queue_depth: registry.gauge("backend_queue_depth"),
            fulfill_us: registry.histogram("backend_fulfill_us"),
            queue_wait_us: registry.histogram("backend_queue_wait_us"),
            simulate_us: None,
        }
    }

    /// Enables (or disables) the wall-clock histograms.
    #[must_use]
    pub fn with_timing(mut self, timing: bool) -> BackendObs {
        self.timing = timing;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use krigeval_obs::RingSink;

    #[test]
    fn campaign_obs_registers_engine_counters() {
        let registry = Registry::new();
        let obs = CampaignObs::new(&registry, Tracer::disabled());
        obs.runs_completed.inc();
        obs.journal_errors.add(2);
        let snap = registry.snapshot();
        let get = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
        };
        assert_eq!(get("engine_runs_completed_total"), Some(1));
        assert_eq!(get("engine_journal_errors_total"), Some(2));
        assert_eq!(get("engine_runs_failed_total"), Some(0));
    }

    #[test]
    fn derived_bundles_share_registry_and_sequence_stream() {
        let registry = Registry::new();
        let ring = Arc::new(RingSink::new(8));
        let obs = CampaignObs::new(&registry, Tracer::new(vec![ring.clone()]));
        obs.record_resume(3);
        let hybrid = obs.hybrid_obs();
        hybrid.tracer().emit("query", vec![]);
        let backend = obs.backend_obs("fir64");
        backend.tracer.emit("batch_fulfill", vec![]);
        let seqs: Vec<u64> = ring.snapshot().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2], "one sequence stream across layers");
        let snap = registry.snapshot();
        assert!(snap
            .counters
            .iter()
            .any(|(n, _)| n == "hybrid_queries_total"));
        assert!(snap
            .counters
            .iter()
            .any(|(n, _)| n == "backend_batches_total"));
        assert_eq!(
            snap.counters
                .iter()
                .find(|(n, _)| n == "engine_resume_rows_total")
                .map(|(_, v)| *v),
            Some(3)
        );
    }

    #[test]
    fn shard_and_merge_events_hit_their_counters() {
        let registry = Registry::new();
        let ring = Arc::new(RingSink::new(8));
        let obs = CampaignObs::new(&registry, Tracer::new(vec![ring.clone()]));
        obs.record_shard(1, 3, 5);
        obs.record_merge(3, 14);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("engine_shard_runs_total"), Some(5));
        assert_eq!(snap.counter("engine_merge_shards_total"), Some(3));
        assert_eq!(snap.counter("engine_merge_rows_total"), Some(14));
        let names: Vec<String> = ring.snapshot().iter().map(|e| e.name.to_string()).collect();
        assert_eq!(names, vec!["shard", "merge"]);
    }

    #[test]
    fn resume_counts_are_timing_only_gauges() {
        let mut squeezenet = ResumeStats {
            started_at: vec![0; 10],
        };
        squeezenet.started_at[0] = 2;
        squeezenet.started_at[3] = 5;
        // hevc_mc: one full pass, four that skipped three filter passes.
        let hevc = ResumeStats {
            started_at: vec![1, 0, 0, 4, 0],
        };
        let registry = Registry::new();
        let untimed = CampaignObs::new(&registry, Tracer::disabled());
        untimed.record_resume_stats("squeezenet", &squeezenet);
        untimed.record_minor_faults("squeezenet", 1_200);
        assert!(registry.snapshot().gauges.is_empty());

        let obs = CampaignObs::new(&registry, Tracer::disabled()).with_timing(true);
        obs.record_resume_stats("squeezenet", &squeezenet);
        obs.record_resume_stats("squeezenet", &squeezenet);
        obs.record_resume_stats("hevc_mc", &hevc);
        obs.record_minor_faults("squeezenet", 1_200);
        obs.record_minor_faults("squeezenet", 300);
        let snap = registry.snapshot();
        let gauge = |name: &str| snap.gauges.iter().find(|(n, _)| n == name).map(|g| g.1);
        assert_eq!(gauge("engine_checkpoint_simulations_squeezenet"), Some(14));
        assert_eq!(gauge("engine_checkpoint_resumed_squeezenet"), Some(10));
        assert_eq!(
            gauge("engine_checkpoint_resumed_site3_squeezenet"),
            Some(10)
        );
        assert_eq!(
            gauge("engine_checkpoint_stages_skipped_squeezenet"),
            Some(30)
        );
        assert_eq!(gauge("engine_checkpoint_simulations_hevc_mc"), Some(5));
        assert_eq!(gauge("engine_checkpoint_resumed_hevc_mc"), Some(4));
        assert_eq!(gauge("engine_checkpoint_resumed_site3_hevc_mc"), Some(4));
        assert_eq!(gauge("engine_checkpoint_resumed_site4_hevc_mc"), Some(0));
        assert_eq!(gauge("engine_checkpoint_resumed_site5_hevc_mc"), None);
        assert_eq!(gauge("engine_checkpoint_stages_skipped_hevc_mc"), Some(12));
        assert_eq!(gauge("engine_minor_faults_squeezenet"), Some(1_500));
        assert_eq!(gauge("engine_minor_faults_hevc_mc"), None);
        assert!(!snap.counters_json().contains("checkpoint"));
        assert!(!snap.counters_json().contains("faults"));
    }

    #[test]
    fn simulation_times_are_a_timing_only_histogram_per_benchmark() {
        use crate::executor::{run_specs_opts, ExecOptions};
        use crate::spec::CampaignSpec;

        let snapshot = |timing: bool| {
            let registry = Registry::new();
            let obs = CampaignObs::new(&registry, Tracer::disabled()).with_timing(timing);
            let runs = CampaignSpec {
                benchmarks: vec!["iir".to_string()],
                distances: vec![2.0, 3.0],
                ..CampaignSpec::default()
            }
            .expand()
            .unwrap();
            let options = ExecOptions {
                obs: Some(&obs),
                ..ExecOptions::default()
            };
            assert_eq!(run_specs_opts(runs, options).unwrap().records.len(), 2);
            registry.snapshot()
        };
        let untimed = snapshot(false);
        assert!(untimed
            .histograms
            .iter()
            .all(|h| !h.name.starts_with("backend_simulate_us")));

        let timed = snapshot(true);
        let simulations = timed.counter("backend_evaluations_total").unwrap();
        assert!(simulations > 0);
        let names: Vec<&str> = timed
            .histograms
            .iter()
            .map(|h| h.name.as_str())
            .filter(|n| n.starts_with("backend_simulate_us"))
            .collect();
        assert_eq!(names, ["backend_simulate_us_iir8"]);
        let histogram = timed
            .histograms
            .iter()
            .find(|h| h.name == names[0])
            .unwrap();
        assert_eq!(histogram.count, simulations);
        assert!(histogram.sum_us > 0.0);
        assert_eq!(timed.counters_json(), untimed.counters_json());
    }

    #[test]
    fn minor_faults_are_read_after_the_command_name() {
        let stat = "4242 (a) b (c)) S 1 4242 4242 0 -1 4194560 7311 0 12 0 30 4 0 0 20";
        assert_eq!(parse_minor_faults(stat), Some(7311));
        assert_eq!(parse_minor_faults("4242 (cut short) S 1 2"), None);
        assert_eq!(parse_minor_faults("no command name"), None);
        if std::path::Path::new("/proc/self/stat").exists() {
            let before = minor_faults().expect("a readable stat file");
            // Touch fresh pages; the count never goes down.
            let pages = vec![1u8; 1 << 22];
            std::hint::black_box(&pages);
            assert!(minor_faults().expect("a readable stat file") >= before);
        }
    }

    #[test]
    fn timing_flag_propagates_to_derived_bundles() {
        let registry = Registry::new();
        let obs = CampaignObs::new(&registry, Tracer::disabled()).with_timing(true);
        assert!(obs.backend_obs("fir64").timing);
    }
}
