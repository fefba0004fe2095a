//! Multi-threaded campaign executor.
//!
//! A fixed pool of worker threads (scoped, no detached threads) pulls run
//! indices from a shared atomic counter — the simplest work queue that
//! balances the heavily skewed per-cell costs — and executes each cell
//! via [`crate::runner::run_single_attempt_obs`] against one shared
//! [`SimCache`]. Results land in their pre-assigned slots, so the record
//! order (and, with timing off, the JSONL bytes) is independent of
//! worker count and scheduling.
//!
//! # Failure containment
//!
//! Every attempt runs inside `catch_unwind`: a panicking simulation
//! becomes a structured [`RunError::Panicked`] instead of tearing down
//! the worker (the cache's pending markers are cleaned by its own drop
//! guard, so waiters never wedge). What happens next is the campaign's
//! [`FaultPolicy`]: fail fast (the strict default), skip the run with a
//! tagged failure row, or retry transient failures with deterministic
//! attempt-counted backoff — never wall-clock, so retried campaigns
//! remain reproducible. Completed rows stream to an optional
//! [`JournalWriter`] (flush per line) for crash-resume.
//!
//! Journal writes are subject to the same policy: a failed write aborts
//! a fail-fast campaign with [`EngineError::Journal`], and under
//! skip/retry it is recorded in [`CampaignOutcome::journal_errors`] (and
//! serialized as a tagged `"journal_error"` row) so a silently
//! incomplete crash journal can never masquerade as a complete one.
//!
//! Progress lines and journal-failure notices go through one
//! line-atomic [`LineWriter`] (stderr by default, injectable via
//! [`ExecOptions::progress_out`]) so concurrent workers cannot tear
//! each other's lines. When an [`ExecOptions::obs`] bundle is attached
//! the executor also counts completions, failures, retries, panics and
//! journal activity, and emits `run_done` / `run_failed` /
//! `journal_error` trace events.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use krigeval_core::opt::OptError;
use krigeval_obs::LineWriter;

use crate::cache::{CacheStats, SimCache};
use crate::fault::FaultPolicy;
use crate::obs::CampaignObs;
use crate::runner::run_single_attempt_obs;
use crate::sink::{
    FailureRecord, JournalErrorRecord, JournalWriter, RunRecord, SinkOptions, SummaryRecord,
};
use crate::spec::{CampaignSpec, RunSpec, SpecError};

/// Progress reporting for a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Progress {
    /// No live output.
    #[default]
    Silent,
    /// One stderr line per completed run with live sims/kriges/cache
    /// statistics.
    Stderr,
}

/// Everything a finished campaign produced.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// Completed records, sorted by run index.
    pub records: Vec<RunRecord>,
    /// Runs that failed permanently under a skip/retry policy, sorted by
    /// run index (always empty under fail-fast).
    pub failures: Vec<FailureRecord>,
    /// Journal writes that failed under a skip/retry policy, sorted by
    /// run index (always empty under fail-fast, which aborts instead).
    pub journal_errors: Vec<JournalErrorRecord>,
    /// Aggregate shared-cache counters.
    pub cache: CacheStats,
    /// Worker threads used.
    pub workers: usize,
    /// Campaign wall-clock in milliseconds.
    pub wall_ms: f64,
}

impl CampaignOutcome {
    /// Builds the campaign summary trailer, optionally carrying timing.
    pub fn summary(&self, name: &str, include_timing: bool) -> SummaryRecord {
        SummaryRecord::from_records(
            name,
            &self.records,
            &self.failures,
            self.cache,
            self.workers,
            include_timing.then_some(self.wall_ms),
        )
    }
}

/// Why one run failed: a structured optimizer error, or a panic caught
/// at the run boundary.
#[derive(Debug)]
pub enum RunError {
    /// The optimizer (or an evaluation underneath it) returned an error.
    Opt(OptError),
    /// The run panicked; the payload's message, when it carried one.
    Panicked {
        /// Panic payload rendered to text (`"opaque panic payload"` for
        /// non-string payloads).
        message: String,
    },
}

impl RunError {
    /// Whether a retry could plausibly succeed: panics and evaluation
    /// errors are transient (under fault injection they *are* — the next
    /// attempt draws a fresh stream — and organically they usually
    /// indicate an environmental hiccup); infeasible constraints and
    /// non-convergence are properties of the cell and retrying them
    /// wastes deterministic work on a deterministic failure.
    pub fn is_transient(&self) -> bool {
        match self {
            RunError::Panicked { .. } => true,
            RunError::Opt(OptError::Eval(_)) => true,
            RunError::Opt(_) => false,
        }
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Opt(e) => write!(f, "{e}"),
            RunError::Panicked { message } => write!(f, "run panicked: {message}"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Opt(e) => Some(e),
            RunError::Panicked { .. } => None,
        }
    }
}

impl From<OptError> for RunError {
    fn from(e: OptError) -> RunError {
        RunError::Opt(e)
    }
}

/// A campaign-level failure.
#[derive(Debug)]
pub enum EngineError {
    /// The spec did not expand to a valid run list.
    Spec(SpecError),
    /// A run failed; carries the expansion index of the failing cell.
    Run {
        /// Index of the failing run in the expansion.
        index: u64,
        /// The run error.
        source: RunError,
    },
    /// A journal write failed under the fail-fast policy. The run itself
    /// completed, but continuing would leave the crash journal silently
    /// incomplete — the exact failure mode this error exists to surface.
    Journal {
        /// Expansion index of the run whose journal line was lost.
        index: u64,
        /// The I/O error, rendered.
        message: String,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            // `SpecError`'s Display already carries the "invalid campaign
            // spec" prefix; repeating it here doubled the message.
            EngineError::Spec(e) => write!(f, "{e}"),
            EngineError::Run { index, source } => write!(f, "run {index} failed: {source}"),
            EngineError::Journal { index, message } => write!(
                f,
                "journal write failed for run {index}: {message} \
                 (aborting under fail-fast; use on_error skip/retry to \
                 tolerate journal loss)"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<SpecError> for EngineError {
    fn from(e: SpecError) -> EngineError {
        EngineError::Spec(e)
    }
}

/// One completed run's progress line. Rendered to a `String` so the
/// caller can hand the whole line to a [`LineWriter`] atomically —
/// per-field `eprintln!` from concurrent workers interleaved torn lines
/// at 4+ workers.
fn progress_text(done: usize, total: usize, record: &RunRecord, cache: CacheStats) -> String {
    format!(
        "[{done}/{total}] {} d={} nmin={} rep={}: N_λ={} sim={} krig={} p={:.1}% \
         cache {}h/{}l ({:.0} ms)",
        record.benchmark,
        record.d,
        record.min_neighbors,
        record.repeat,
        record.queries,
        record.simulated,
        record.kriged,
        record.p_percent,
        cache.hits,
        cache.lookups,
        record.wall_ms.unwrap_or(0.0),
    )
}

/// One permanently-failed run's progress line.
fn failure_text(done: usize, total: usize, failure: &FailureRecord) -> String {
    format!(
        "[{done}/{total}] {} d={} rep={}: FAILED after {} attempt(s): {}",
        failure.benchmark, failure.d, failure.repeat, failure.attempts, failure.error,
    )
}

/// Execution options for [`run_specs_opts`]: worker count, progress
/// reporting, the failure policy, and an optional crash journal that
/// receives every completed row (flushed per line, in completion
/// order).
#[derive(Debug, Default)]
pub struct ExecOptions<'a> {
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Progress reporting.
    pub progress: Progress,
    /// What to do when a run fails.
    pub policy: FaultPolicy,
    /// Crash journal. Write failures follow `policy`: fail-fast aborts
    /// the campaign with [`EngineError::Journal`]; skip/retry records
    /// the loss in [`CampaignOutcome::journal_errors`].
    pub journal: Option<&'a JournalWriter>,
    /// Serialization options for journal lines (keep timing off for
    /// byte-identical resume).
    pub journal_options: SinkOptions,
    /// Line-atomic writer for progress lines and journal-failure
    /// notices; stderr when unset. Injectable so tests can capture the
    /// stream and callers can redirect it.
    pub progress_out: Option<&'a LineWriter>,
    /// Campaign observability bundle: when set, the executor counts
    /// completions / failures / retries / panics / journal activity into
    /// its registry and emits `run_done` / `run_failed` /
    /// `journal_error` events through its tracer.
    pub obs: Option<&'a CampaignObs>,
}

/// Runs every cell of `spec` on `workers` threads and collects the
/// records in expansion order, honouring the spec's own `on_error`
/// policy (fail fast when unset).
///
/// The outcome is deterministic in everything except wall-clock fields:
/// a fixed spec yields identical records for any worker count.
///
/// # Errors
///
/// Returns [`EngineError::Spec`] if the spec is invalid, or the
/// lowest-index [`EngineError::Run`] failure (remaining queued work is
/// abandoned once a failure is observed).
pub fn run_campaign(
    spec: &CampaignSpec,
    workers: usize,
    progress: Progress,
) -> Result<CampaignOutcome, EngineError> {
    let runs = spec.expand()?;
    run_specs_opts(
        runs,
        ExecOptions {
            workers,
            progress,
            policy: spec.on_error.unwrap_or_default(),
            ..ExecOptions::default()
        },
    )
}

/// Runs an explicit list of [`RunSpec`]s under the strict fail-fast
/// policy (the engine half of [`run_campaign`]; useful for callers that
/// post-process the expansion).
///
/// # Errors
///
/// Returns the lowest-index [`EngineError::Run`] failure, if any.
pub fn run_specs(
    runs: Vec<RunSpec>,
    workers: usize,
    progress: Progress,
) -> Result<CampaignOutcome, EngineError> {
    run_specs_opts(
        runs,
        ExecOptions {
            workers,
            progress,
            ..ExecOptions::default()
        },
    )
}

/// One run's terminal state inside the worker pool. The record is
/// boxed so the slot vector stays failure-variant-sized.
enum RunOutcome {
    Done(Box<RunRecord>),
    Skipped(FailureRecord),
    Fatal(RunError),
    /// The run completed but its journal write failed under fail-fast;
    /// carries the run's expansion index (which can differ from its slot
    /// position on resume-filtered runs).
    JournalFatal {
        index: u64,
        message: String,
    },
}

/// Applies the campaign failure policy to one journal write result.
///
/// A failed write is counted, traced as a `journal_error` event, and
/// reported through the line writer; it then either demands a fail-fast
/// abort (`Some(message)` is returned) or is queued as a tagged
/// [`JournalErrorRecord`] for the final output. This is the fix for the
/// executor's original sin of printing journal errors and dropping them.
fn journal_outcome(
    result: std::io::Result<()>,
    index: u64,
    fail_fast: bool,
    obs: Option<&CampaignObs>,
    out: &LineWriter,
    journal_errors: &Mutex<Vec<JournalErrorRecord>>,
) -> Option<String> {
    match result {
        Ok(()) => {
            if let Some(obs) = obs {
                obs.journal_writes.inc();
            }
            None
        }
        Err(e) => {
            let message = e.to_string();
            if let Some(obs) = obs {
                obs.journal_errors.inc();
                obs.tracer().emit(
                    "journal_error",
                    vec![("index", index.into()), ("error", message.as_str().into())],
                );
            }
            out.line(&format!("journal write failed for run {index}: {message}"));
            if fail_fast {
                Some(message)
            } else {
                journal_errors
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(JournalErrorRecord {
                        index,
                        error: message,
                    });
                None
            }
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Deterministic backoff: attempt-counted cooperative yields, never
/// wall-clock. The point is to let a transient resource hiccup clear
/// without introducing a timing dependency — sleeping would make retry
/// schedules differ across machines while changing no result.
fn backoff(attempt: u32) {
    for _ in 0..(1u32 << attempt.min(6)) {
        std::thread::yield_now();
    }
}

/// Runs an explicit list of [`RunSpec`]s with full control over policy
/// and journaling. See the module docs for the failure-containment
/// contract.
///
/// # Errors
///
/// Under [`FaultPolicy::FailFast`], returns the lowest-index
/// [`EngineError::Run`] failure. Under skip/retry policies run failures
/// land in [`CampaignOutcome::failures`] instead and only spec-level
/// problems error.
pub fn run_specs_opts(
    runs: Vec<RunSpec>,
    options: ExecOptions<'_>,
) -> Result<CampaignOutcome, EngineError> {
    let started = Instant::now();
    let workers = options.workers.max(1);
    let total = runs.len();
    let cache = Arc::new(SimCache::new());
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let slots: Mutex<Vec<Option<RunOutcome>>> = Mutex::new((0..total).map(|_| None).collect());
    let journal_errs: Mutex<Vec<JournalErrorRecord>> = Mutex::new(Vec::new());
    let max_retries = options.policy.max_retries();
    let fail_fast = options.policy == FaultPolicy::FailFast;
    let show_progress = progress_on(options.progress);
    // One line-atomic writer shared by all workers: progress lines and
    // journal-failure notices emit whole lines under its internal lock.
    let default_out;
    let out: &LineWriter = match options.progress_out {
        Some(out) => out,
        None => {
            default_out = LineWriter::stderr();
            &default_out
        }
    };

    std::thread::scope(|scope| {
        for _ in 0..workers.min(total.max(1)) {
            scope.spawn(|| loop {
                if failed.load(Ordering::Relaxed) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    break;
                }
                let run = &runs[i];
                let mut attempt: u32 = 0;
                let outcome = loop {
                    // The catch_unwind boundary turns a panicking
                    // simulation into a structured error; the cache's own
                    // drop guard has already cleared any pending marker
                    // by the time the unwind reaches us.
                    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        run_single_attempt_obs(run, &cache, attempt, options.obs)
                    }));
                    let error = match caught {
                        Ok(Ok(record)) => break RunOutcome::Done(Box::new(record)),
                        Ok(Err(e)) => {
                            if let Some(obs) = options.obs {
                                obs.run_errors.inc();
                            }
                            RunError::Opt(e)
                        }
                        Err(payload) => {
                            if let Some(obs) = options.obs {
                                obs.run_panics.inc();
                            }
                            RunError::Panicked {
                                message: panic_message(payload),
                            }
                        }
                    };
                    if error.is_transient() && attempt < max_retries {
                        if let Some(obs) = options.obs {
                            obs.run_retries.inc();
                        }
                        attempt += 1;
                        backoff(attempt);
                        continue;
                    }
                    break if fail_fast {
                        RunOutcome::Fatal(error)
                    } else {
                        RunOutcome::Skipped(FailureRecord::from_run(run, &error, attempt + 1))
                    };
                };
                let outcome = match outcome {
                    RunOutcome::Done(record) => {
                        let fatal = options.journal.and_then(|journal| {
                            journal_outcome(
                                journal.record(&record, options.journal_options),
                                run.index,
                                fail_fast,
                                options.obs,
                                out,
                                &journal_errs,
                            )
                        });
                        if let Some(message) = fatal {
                            failed.store(true, Ordering::Relaxed);
                            RunOutcome::JournalFatal {
                                index: run.index,
                                message,
                            }
                        } else {
                            if let Some(obs) = options.obs {
                                obs.runs_completed.inc();
                                if obs.timing() {
                                    obs.run_wall_us
                                        .record(record.wall_ms.unwrap_or(0.0) * 1000.0);
                                }
                                obs.tracer().emit(
                                    "run_done",
                                    vec![
                                        ("index", record.index.into()),
                                        ("benchmark", record.benchmark.as_str().into()),
                                        ("d", record.d.into()),
                                        ("queries", record.queries.into()),
                                        ("simulated", record.simulated.into()),
                                        ("kriged", record.kriged.into()),
                                        ("wall_ms", record.wall_ms.unwrap_or(0.0).into()),
                                    ],
                                );
                            }
                            if show_progress {
                                let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                                out.line(&progress_text(finished, total, &record, cache.stats()));
                            }
                            RunOutcome::Done(record)
                        }
                    }
                    RunOutcome::Skipped(failure) => {
                        // `fatal` is always None here: Skipped only
                        // exists under skip/retry, where journal losses
                        // queue instead of aborting.
                        let fatal = options.journal.and_then(|journal| {
                            journal_outcome(
                                journal.failure(&failure, options.journal_options),
                                run.index,
                                fail_fast,
                                options.obs,
                                out,
                                &journal_errs,
                            )
                        });
                        debug_assert!(fatal.is_none());
                        if let Some(obs) = options.obs {
                            obs.runs_failed.inc();
                            obs.tracer().emit(
                                "run_failed",
                                vec![
                                    ("index", failure.index.into()),
                                    ("benchmark", failure.benchmark.as_str().into()),
                                    ("d", failure.d.into()),
                                    ("attempts", failure.attempts.into()),
                                    ("error", failure.error.as_str().into()),
                                    ("fatal", false.into()),
                                ],
                            );
                        }
                        if show_progress {
                            let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                            out.line(&failure_text(finished, total, &failure));
                        }
                        RunOutcome::Skipped(failure)
                    }
                    RunOutcome::Fatal(error) => {
                        failed.store(true, Ordering::Relaxed);
                        if let Some(obs) = options.obs {
                            obs.runs_failed.inc();
                            obs.tracer().emit(
                                "run_failed",
                                vec![
                                    ("index", run.index.into()),
                                    ("error", error.to_string().into()),
                                    ("fatal", true.into()),
                                ],
                            );
                        }
                        RunOutcome::Fatal(error)
                    }
                    RunOutcome::JournalFatal { .. } => {
                        unreachable!("the attempt loop never constructs JournalFatal")
                    }
                };
                // Poison recovery: writing an Option into a pre-sized Vec
                // slot cannot leave the Vec inconsistent, so a panicking
                // peer (only possible outside catch_unwind, i.e. a bug)
                // must not cascade into losing everyone else's results.
                slots.lock().unwrap_or_else(|e| e.into_inner())[i] = Some(outcome);
            });
        }
    });

    let mut records = Vec::with_capacity(total);
    let mut failures = Vec::new();
    for (i, slot) in slots
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
        .into_iter()
        .enumerate()
    {
        match slot {
            Some(RunOutcome::Done(record)) => records.push(*record),
            Some(RunOutcome::Skipped(failure)) => failures.push(failure),
            Some(RunOutcome::Fatal(source)) => {
                return Err(EngineError::Run {
                    index: i as u64,
                    source,
                })
            }
            Some(RunOutcome::JournalFatal { index, message }) => {
                return Err(EngineError::Journal { index, message })
            }
            // Abandoned after a fatal failure elsewhere; the error slot
            // below (or above) is reported instead.
            None => continue,
        }
    }
    let mut journal_errors = journal_errs.into_inner().unwrap_or_else(|e| e.into_inner());
    journal_errors.sort_by_key(|e| e.index);
    Ok(CampaignOutcome {
        records,
        failures,
        journal_errors,
        cache: cache.stats(),
        workers,
        wall_ms: started.elapsed().as_secs_f64() * 1000.0,
    })
}

fn progress_on(progress: Progress) -> bool {
    progress == Progress::Stderr
}

/// Applies `f` to every item on a fixed worker pool, preserving input
/// order in the output. This is the engine's generic escape hatch for
/// bespoke experiment loops (e.g. the decision-divergence study) that do
/// not fit the campaign grid.
pub fn parallel_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.max(1).min(items.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let f = &f;
            let next = &next;
            let slots = &slots;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let out = f(&items[i]);
                slots.lock().expect("map slots poisoned")[i] = Some(out);
            });
        }
    });
    slots
        .into_inner()
        .expect("map slots poisoned")
        .into_iter()
        .map(|slot| slot.expect("every index was processed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> CampaignSpec {
        CampaignSpec {
            benchmarks: vec!["fir".to_string()],
            distances: vec![2.0, 3.0],
            ..CampaignSpec::default()
        }
    }

    #[test]
    fn campaign_runs_all_cells_in_order() {
        let outcome = run_campaign(&small_spec(), 2, Progress::Silent).unwrap();
        assert_eq!(outcome.records.len(), 2);
        assert_eq!(outcome.records[0].index, 0);
        assert_eq!(outcome.records[0].d, 2.0);
        assert_eq!(outcome.records[1].index, 1);
        assert_eq!(outcome.records[1].d, 3.0);
        assert!(outcome.cache.hits > 0, "cells share the pilot simulations");
    }

    #[test]
    fn records_do_not_depend_on_worker_count() {
        let one = run_campaign(&small_spec(), 1, Progress::Silent).unwrap();
        let four = run_campaign(&small_spec(), 4, Progress::Silent).unwrap();
        let strip = |mut r: RunRecord| {
            r.wall_ms = None;
            r
        };
        let a: Vec<RunRecord> = one.records.into_iter().map(strip).collect();
        let b: Vec<RunRecord> = four.records.into_iter().map(strip).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_spec_is_rejected() {
        let spec = CampaignSpec {
            benchmarks: vec!["nope".to_string()],
            ..CampaignSpec::default()
        };
        assert!(matches!(
            run_campaign(&spec, 1, Progress::Silent),
            Err(EngineError::Spec(_))
        ));
    }

    #[test]
    fn summary_reflects_outcome() {
        let outcome = run_campaign(&small_spec(), 2, Progress::Silent).unwrap();
        let summary = outcome.summary("table1", false);
        assert_eq!(summary.runs, 2);
        assert_eq!(summary.sim_cache_hits, outcome.cache.hits);
        assert!(summary.wall_ms.is_none());
        assert!(outcome.summary("table1", true).wall_ms.is_some());
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..37).collect();
        let out = parallel_map(&items, 4, |&x| x * x);
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<u64>>());
        assert_eq!(
            parallel_map::<u64, u64, _>(&[], 4, |&x| x),
            Vec::<u64>::new()
        );
    }
}
