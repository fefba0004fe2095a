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
//!   [`CampaignObs::record_resume_stats`]).
//! * [`BackendObs`] — worker-pool counters (`backend_*`): batches, jobs,
//!   shared-cache hits, real simulator evaluations and transient-failure
//!   retries, plus scheduling-only gauges/histograms (queue depth,
//!   queue wait, fulfill latency).
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

    /// A worker-pool bundle sharing this campaign's registry and tracer.
    pub fn backend_obs(&self) -> BackendObs {
        BackendObs::new(&self.registry, self.tracer.clone()).with_timing(self.timing)
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
    /// Transient-failure retries inside the pool's compute loop.
    pub(crate) retries: Counter,
    /// Jobs currently enqueued (scheduling-dependent).
    pub(crate) queue_depth: Gauge,
    /// Wall-clock per fulfilled batch (timing only).
    pub(crate) fulfill_us: Histogram,
    /// Enqueue-to-dequeue wait per job (timing only).
    pub(crate) queue_wait_us: Histogram,
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
            retries: registry.counter("backend_retries_total"),
            queue_depth: registry.gauge("backend_queue_depth"),
            fulfill_us: registry.histogram("backend_fulfill_us"),
            queue_wait_us: registry.histogram("backend_queue_wait_us"),
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
        let backend = obs.backend_obs();
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
        CampaignObs::new(&registry, Tracer::disabled())
            .record_resume_stats("squeezenet", &squeezenet);
        assert!(registry.snapshot().gauges.is_empty());

        let obs = CampaignObs::new(&registry, Tracer::disabled()).with_timing(true);
        obs.record_resume_stats("squeezenet", &squeezenet);
        obs.record_resume_stats("squeezenet", &squeezenet);
        obs.record_resume_stats("hevc_mc", &hevc);
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
        assert!(!snap.counters_json().contains("checkpoint"));
    }

    #[test]
    fn timing_flag_propagates_to_derived_bundles() {
        let registry = Registry::new();
        let obs = CampaignObs::new(&registry, Tracer::disabled()).with_timing(true);
        assert!(obs.backend_obs().timing);
    }
}
