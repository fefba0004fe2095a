//! JSONL result sink: one line per run plus a campaign summary line.
//!
//! Lines are objects tagged with a `"type"` field (`"run"` /
//! `"failed"` / `"journal_error"` / `"summary"`) so consumers can
//! stream-filter them.
//! Records are written in run-index order regardless of completion
//! order, and all scheduling-dependent quantities (wall-clock, worker
//! count, shared-cache counters) live in fields nulled by default —
//! with [`SinkOptions::include_timing`] off, a fixed-seed campaign
//! serializes byte-identically across runs, worker counts **and
//! journal resumes** (a resumed campaign re-executes only part of the
//! work, so anything measuring execution rather than results must stay
//! out of the deterministic output).
//!
//! The same serialization doubles as the **crash journal**: a
//! [`JournalWriter`] appends each completed line (in completion order)
//! with an immediate flush, and [`load_journal`] parses a possibly
//! truncated journal back into records so an interrupted campaign can
//! resume from where it stopped.

use std::error::Error;
use std::fmt;
use std::fs::OpenOptions;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;

use krigeval_flate::DeflateWriter;
use serde::{Deserialize, Serialize, Value};

use crate::cache::CacheStats;
use crate::executor::RunError;
use crate::spec::RunSpec;

/// One completed run: the resolved grid cell plus the outcome and the
/// hybrid session statistics (the raw material of a Table I row).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Position in the campaign expansion (stable row id).
    pub index: u64,
    /// Benchmark label (e.g. `"fir64"`).
    pub benchmark: String,
    /// Metric label (e.g. `"noise power"`).
    pub metric: String,
    /// `"fast"` or `"paper"`.
    pub scale: String,
    /// Optimizer label.
    pub optimizer: String,
    /// Variogram policy label.
    pub variogram: String,
    /// Number of optimization variables `Nv`.
    pub nv: usize,
    /// Neighbour radius `d`.
    pub d: f64,
    /// Minimum neighbour count `N_n,min`.
    pub min_neighbors: usize,
    /// Effective accuracy constraint `λ_min`.
    pub lambda_min: f64,
    /// Derived seed of this run's benchmark instance.
    pub seed: u64,
    /// Repeat index within the campaign.
    pub repeat: u32,
    /// Final configuration `w_res`.
    pub solution: Vec<i32>,
    /// Metric value at the solution (as the optimizer saw it).
    pub lambda: f64,
    /// Greedy iterations performed.
    pub iterations: u64,
    /// Total metric queries `N_λ`.
    pub queries: u64,
    /// Queries answered by simulation.
    pub simulated: u64,
    /// Queries answered by kriging.
    pub kriged: u64,
    /// Queries answered from the session's exact-duplicate store.
    pub session_cache_hits: u64,
    /// Kriging attempts that fell back to simulation.
    pub kriging_failures: u64,
    /// Decision-gate label (`"fixed"` or `"variance(τ)"`).
    pub gate: String,
    /// Converged solves rejected by the decision gate (simulated instead).
    pub gate_rejections: u64,
    /// Interpolated percentage `p(%)`.
    pub p_percent: f64,
    /// Mean neighbours per interpolation `j̄`.
    pub mean_neighbors: f64,
    /// Mean kriging variance `σ̄²` over accepted interpolations.
    pub mean_variance: f64,
    /// Audit-mode mean interpolation error (Eq. 11/12 units).
    pub audit_mean_eps: f64,
    /// Audit-mode max interpolation error.
    pub audit_max_eps: f64,
    /// Number of audited interpolations.
    pub audit_count: u64,
    /// Simulator calls spent on the variogram pilot run (0 for online
    /// identification policies). Distinct configurations only — repeat
    /// pilot queries are served by the campaign cache.
    pub pilot_sims: u64,
    /// Wall-clock milliseconds (scheduling-dependent; `None` unless
    /// [`SinkOptions::include_timing`] is set).
    pub wall_ms: Option<f64>,
}

/// A run that failed permanently (after any retries) under a
/// non-fail-fast [`crate::fault::FaultPolicy`]. Serialized as a tagged
/// `"failed"` JSONL row so downstream tables can tell "no result"
/// apart from "never ran". Every field is deterministic for a fixed
/// spec and fault seed — failed rows replay byte-identically from a
/// resume journal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureRecord {
    /// Position in the campaign expansion (stable row id, shared with
    /// [`RunRecord::index`]).
    pub index: u64,
    /// Benchmark label.
    pub benchmark: String,
    /// `"fast"` or `"paper"`.
    pub scale: String,
    /// Neighbour radius `d`.
    pub d: f64,
    /// Minimum neighbour count `N_n,min`.
    pub min_neighbors: usize,
    /// Derived seed of this run's benchmark instance.
    pub seed: u64,
    /// Repeat index within the campaign.
    pub repeat: u32,
    /// Human-readable description of the final error.
    pub error: String,
    /// Attempts consumed (1 = no retries granted or needed).
    pub attempts: u32,
}

impl FailureRecord {
    /// Distils a run's final error into its failure row.
    pub fn from_run(run: &RunSpec, error: &RunError, attempts: u32) -> FailureRecord {
        FailureRecord {
            index: run.index,
            benchmark: run.problem.label().to_string(),
            scale: run.scale.label().to_string(),
            d: run.distance,
            min_neighbors: run.min_neighbors,
            seed: run.run_seed,
            repeat: run.repeat,
            error: error.to_string(),
            attempts,
        }
    }
}

/// A journal write that failed for an otherwise-completed row under a
/// non-fail-fast policy. Serialized as a tagged `"journal_error"` JSONL
/// row so the loss is visible in the final output instead of vanishing
/// on stderr (under fail-fast the campaign aborts with
/// [`crate::executor::EngineError::Journal`] instead). The row's run
/// still appears as its normal `"run"` / `"failed"` line — only the
/// crash-resume journal missed it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalErrorRecord {
    /// Index of the run whose journal line was lost.
    pub index: u64,
    /// The I/O error, rendered.
    pub error: String,
}

/// The campaign-level trailer record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SummaryRecord {
    /// Campaign name from the spec.
    pub name: String,
    /// Number of runs completed.
    pub runs: u64,
    /// Number of runs that failed permanently (skip / retry policies).
    pub failed: u64,
    /// Worker threads used (informational; does not affect results).
    pub workers: usize,
    /// Shared-cache lookups across all runs.
    pub sim_cache_lookups: u64,
    /// Shared-cache hits across all runs (deterministic in total even
    /// though per-run attribution is not).
    pub sim_cache_hits: u64,
    /// Shared-cache misses == distinct simulations performed.
    pub sim_cache_misses: u64,
    /// Sum of per-run metric queries.
    pub total_queries: u64,
    /// Sum of per-run simulated counts.
    pub total_simulated: u64,
    /// Sum of per-run kriged counts.
    pub total_kriged: u64,
    /// Campaign wall-clock milliseconds (`None` unless timing is on).
    pub wall_ms: Option<f64>,
}

impl SummaryRecord {
    /// Builds the trailer from completed records, failure rows and cache
    /// counters.
    pub fn from_records(
        name: impl Into<String>,
        records: &[RunRecord],
        failures: &[FailureRecord],
        cache: CacheStats,
        workers: usize,
        wall_ms: Option<f64>,
    ) -> SummaryRecord {
        SummaryRecord {
            name: name.into(),
            runs: records.len() as u64,
            failed: failures.len() as u64,
            workers,
            sim_cache_lookups: cache.lookups,
            sim_cache_hits: cache.hits,
            sim_cache_misses: cache.misses,
            total_queries: records.iter().map(|r| r.queries).sum(),
            total_simulated: records.iter().map(|r| r.simulated).sum(),
            total_kriged: records.iter().map(|r| r.kriged).sum(),
            wall_ms,
        }
    }
}

/// Output options for [`write_jsonl`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkOptions {
    /// Include scheduling-dependent fields (wall-clock, worker count).
    /// These are inherently nondeterministic across invocations, so this
    /// defaults to off; byte-identical output across runs and worker
    /// counts holds only when it stays off.
    pub include_timing: bool,
}

fn tagged(tag: &str, record_value: Value) -> Value {
    let mut fields = vec![("type".to_string(), Value::String(tag.to_string()))];
    match record_value {
        Value::Object(entries) => fields.extend(entries),
        other => fields.push(("value".to_string(), other)),
    }
    Value::Object(fields)
}

fn strip_scheduling(value: &mut Value) {
    if let Value::Object(entries) = value {
        for (key, v) in entries.iter_mut() {
            // Wall-clock, the worker count and the shared-cache counters
            // are execution metadata: they vary across machines,
            // invocations and (for the cache counters) journal resumes —
            // a resumed campaign does not redo the cached simulations of
            // the runs it replays — while the results do not, so the
            // deterministic output nulls them all.
            if matches!(
                key.as_str(),
                "wall_ms" | "workers" | "sim_cache_lookups" | "sim_cache_hits" | "sim_cache_misses"
            ) {
                *v = Value::Null;
            }
        }
    }
}

pub(crate) fn render_line(tag: &str, value: Value, options: SinkOptions) -> io::Result<String> {
    let mut line = tagged(tag, value);
    if !options.include_timing {
        strip_scheduling(&mut line);
    }
    serde_json::to_string(&line).map_err(io::Error::other)
}

/// Writes the campaign as JSON lines: run and failure records merged in
/// index order, then the summary.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_jsonl(
    out: &mut dyn Write,
    records: &[RunRecord],
    failures: &[FailureRecord],
    summary: &SummaryRecord,
    options: SinkOptions,
) -> io::Result<()> {
    write_jsonl_full(out, records, failures, &[], summary, options)
}

/// [`write_jsonl`] plus tagged `"journal_error"` rows (sorted by index,
/// placed between the merged run/failure stream and the summary). With
/// no journal errors the output is byte-identical to [`write_jsonl`].
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_jsonl_full(
    out: &mut dyn Write,
    records: &[RunRecord],
    failures: &[FailureRecord],
    journal_errors: &[JournalErrorRecord],
    summary: &SummaryRecord,
    options: SinkOptions,
) -> io::Result<()> {
    write_rows(out, records, failures, options)?;
    for journal_error in journal_errors {
        let text = render_line("journal_error", journal_error.serialize_to_value(), options)?;
        writeln!(out, "{text}")?;
    }
    let text = render_line("summary", summary.serialize_to_value(), options)?;
    writeln!(out, "{text}")?;
    Ok(())
}

/// Writes only the merged row stream: run and failure records
/// interleaved in index order, no trailer. This is the row body shared
/// by the finalized campaign output ([`write_jsonl_full`] adds journal
/// errors and the summary) and by finalized shard artifacts
/// ([`crate::shard::render_shard`] prepends the manifest line) — one
/// renderer, so a merged set of shards is byte-identical to the
/// single-process output by construction.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_rows(
    out: &mut dyn Write,
    records: &[RunRecord],
    failures: &[FailureRecord],
    options: SinkOptions,
) -> io::Result<()> {
    // Merge the two sorted-by-index streams so each campaign row appears
    // at its expansion position whether it succeeded or failed.
    let (mut r, mut f) = (0, 0);
    while r < records.len() || f < failures.len() {
        let run_next = match (records.get(r), failures.get(f)) {
            (Some(rec), Some(fail)) => rec.index <= fail.index,
            (Some(_), None) => true,
            _ => false,
        };
        let text = if run_next {
            r += 1;
            render_line("run", records[r - 1].serialize_to_value(), options)?
        } else {
            f += 1;
            render_line("failed", failures[f - 1].serialize_to_value(), options)?
        };
        writeln!(out, "{text}")?;
    }
    Ok(())
}

/// Renders records to a JSONL string (convenience over [`write_jsonl`]).
///
/// # Panics
///
/// Never panics: writing to a `Vec<u8>` cannot fail and records are
/// always serializable.
pub fn to_jsonl_string(
    records: &[RunRecord],
    failures: &[FailureRecord],
    summary: &SummaryRecord,
    options: SinkOptions,
) -> String {
    to_jsonl_string_full(records, failures, &[], summary, options)
}

/// Renders records plus journal-error rows to a JSONL string
/// (convenience over [`write_jsonl_full`]).
///
/// # Panics
///
/// Never panics: writing to a `Vec<u8>` cannot fail and records are
/// always serializable.
pub fn to_jsonl_string_full(
    records: &[RunRecord],
    failures: &[FailureRecord],
    journal_errors: &[JournalErrorRecord],
    summary: &SummaryRecord,
    options: SinkOptions,
) -> String {
    let mut buf = Vec::new();
    write_jsonl_full(
        &mut buf,
        records,
        failures,
        journal_errors,
        summary,
        options,
    )
    .expect("in-memory write cannot fail");
    String::from_utf8(buf).expect("JSON output is UTF-8")
}

/// An append-only, flush-per-line crash journal shared by campaign
/// workers.
///
/// Each completed run (or permanent failure) is serialized as exactly
/// the JSONL line the final output would contain and flushed before the
/// executor moves on, so a killed campaign leaves a journal of every
/// finished row — in completion order, which is fine because rows carry
/// their index. A torn final line (the process died mid-write) is
/// tolerated by [`load_journal`].
pub struct JournalWriter {
    out: Mutex<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for JournalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JournalWriter").finish_non_exhaustive()
    }
}

impl JournalWriter {
    /// Opens `path` truncated (a fresh campaign).
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create(path: impl AsRef<Path>) -> io::Result<JournalWriter> {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(JournalWriter::from_writer(file))
    }

    /// Opens `path` truncated as a **compressed** journal: every line is
    /// DEFLATE-compressed and each flush ends on a sync-flush block
    /// boundary, so the flush-per-line crash-journal contract holds on
    /// the compressed bytes too. The stream is intentionally never
    /// finished — read it back with the tail-tolerant decoder
    /// ([`read_artifact_text`] does).
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create_compressed(path: impl AsRef<Path>) -> io::Result<JournalWriter> {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(JournalWriter::from_writer(DeflateWriter::new(file)))
    }

    /// Opens `path` for appending (a resumed campaign keeps extending
    /// the existing journal).
    ///
    /// # Errors
    ///
    /// Propagates file-open errors.
    pub fn append(path: impl AsRef<Path>) -> io::Result<JournalWriter> {
        let file = OpenOptions::new().append(true).create(true).open(path)?;
        Ok(JournalWriter::from_writer(file))
    }

    /// Wraps any writer (tests journal into memory buffers).
    pub fn from_writer(out: impl Write + Send + 'static) -> JournalWriter {
        JournalWriter {
            out: Mutex::new(Box::new(out)),
        }
    }

    fn write_line(&self, text: &str) -> io::Result<()> {
        // Poison recovery: a writer panicking mid-line could at worst
        // leave a torn line, which load_journal tolerates; later lines
        // remain valid because each write starts at a line boundary
        // only after a successful earlier write.
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        writeln!(out, "{text}")?;
        out.flush()
    }

    /// Appends one completed run.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors (the executor applies the campaign failure
    /// policy to them: fail-fast aborts, skip/retry tags the loss as a
    /// `journal_error` row).
    pub fn record(&self, record: &RunRecord, options: SinkOptions) -> io::Result<()> {
        self.write_line(&render_line("run", record.serialize_to_value(), options)?)
    }

    /// Appends one permanent failure.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn failure(&self, failure: &FailureRecord, options: SinkOptions) -> io::Result<()> {
        self.write_line(&render_line(
            "failed",
            failure.serialize_to_value(),
            options,
        )?)
    }

    /// Appends one pre-rendered JSONL line verbatim (shard manifests —
    /// [`crate::shard::ShardManifest::render`] — go through here so a
    /// shard journal starts with its identity header before any row
    /// lands).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn line(&self, text: &str) -> io::Result<()> {
        self.write_line(text)
    }
}

/// A malformed non-terminal journal line: a torn or corrupt line
/// **mid-file** means the journal cannot be trusted as a crash record
/// (only the final line may legitimately be torn), so it is surfaced as
/// a typed error instead of being silently dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalError {
    /// 1-based line number among the journal's non-empty lines.
    pub line: usize,
    /// What was wrong with the line.
    pub message: String,
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "journal line {}: {}", self.line, self.message)
    }
}

impl Error for JournalError {}

/// Parses a journal (or finalized output file) back into run and
/// failure records, each sorted by index. `"summary"` lines are
/// ignored — a resume recomputes the summary from the merged records. A
/// malformed **final** line is tolerated (the writing process was
/// killed mid-line); a malformed line anywhere else is a typed
/// [`JournalError`], never silently dropped.
///
/// # Errors
///
/// Returns the first non-terminal malformed line as a [`JournalError`].
pub fn load_journal(text: &str) -> Result<(Vec<RunRecord>, Vec<FailureRecord>), JournalError> {
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let mut records: Vec<RunRecord> = Vec::new();
    let mut failures: Vec<FailureRecord> = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let last = i + 1 == lines.len();
        let parsed: Result<Value, _> = serde_json::from_str(line);
        let value = match parsed {
            Ok(v) => v,
            Err(_) if last => break, // torn tail from a killed writer
            Err(e) => {
                return Err(JournalError {
                    line: i + 1,
                    message: e.to_string(),
                })
            }
        };
        let tag = value.get("type").and_then(Value::as_str).unwrap_or("");
        let entry = match tag {
            "run" => RunRecord::deserialize_from_value(&value)
                .map(|r| records.push(r))
                .map_err(|e| e.to_string()),
            "failed" => FailureRecord::deserialize_from_value(&value)
                .map(|f| failures.push(f))
                .map_err(|e| e.to_string()),
            // A summary is recomputed on resume; a journal_error row
            // flags a historical journal miss whose run row (if any)
            // stands on its own; a shard manifest header identifies the
            // file, not a row (per-shard resume revalidates it before
            // loading the journal).
            "summary" | "journal_error" | "shard" => Ok(()),
            other => Err(format!("unknown record type {other:?}")),
        };
        if let Err(message) = entry {
            if last {
                break;
            }
            return Err(JournalError {
                line: i + 1,
                message,
            });
        }
    }
    records.sort_by_key(|r| r.index);
    failures.sort_by_key(|f| f.index);
    Ok((records, failures))
}

/// Whether `path` names a compressed (`.z`) artifact. This extension is
/// the read-side detection key: `campaign run --resume`, `shard`, and
/// `merge` all route `.z` inputs through the tail-tolerant DEFLATE
/// decoder.
pub fn is_compressed_path(path: &Path) -> bool {
    path.extension().is_some_and(|ext| ext == "z")
}

/// Reads an artifact file as text, transparently decompressing `.z`
/// files with the **tail-tolerant** decoder so a compressed crash
/// journal with a torn tail yields the prefix of complete sync-flushed
/// lines, mirroring the plain-text torn-final-line contract. A decoded
/// prefix that ends mid-UTF-8-sequence is truncated to its valid
/// prefix; mid-file corruption (not truncation) is still an error, and
/// so is a stream that decodes past [`krigeval_flate::MAX_OUTPUT`].
///
/// # Errors
///
/// Propagates I/O errors; corrupt or oversized DEFLATE data surfaces as
/// [`io::ErrorKind::InvalidData`].
pub fn read_artifact_text(path: &Path) -> io::Result<String> {
    if !is_compressed_path(path) {
        return std::fs::read_to_string(path);
    }
    let raw = std::fs::read(path)?;
    let prefix = krigeval_flate::inflate_tail_tolerant(&raw)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    match String::from_utf8(prefix.data) {
        Ok(text) => Ok(text),
        Err(e) => {
            let valid = e.utf8_error().valid_up_to();
            let mut bytes = e.into_bytes();
            bytes.truncate(valid);
            Ok(String::from_utf8(bytes).expect("truncated at a UTF-8 boundary"))
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A plausible fir64 record with a wall time, shared by the engine's
    /// unit tests.
    pub(crate) fn sample_record(index: u64) -> RunRecord {
        RunRecord {
            index,
            benchmark: "fir64".to_string(),
            metric: "noise power".to_string(),
            scale: "fast".to_string(),
            optimizer: "auto".to_string(),
            variogram: "pilot".to_string(),
            nv: 2,
            d: 3.0,
            min_neighbors: 3,
            lambda_min: 28.0,
            seed: 0,
            repeat: 0,
            solution: vec![9, 8],
            lambda: 28.4,
            iterations: 7,
            queries: 40,
            simulated: 30,
            kriged: 8,
            session_cache_hits: 2,
            kriging_failures: 0,
            gate: "fixed".to_string(),
            gate_rejections: 0,
            p_percent: 20.0,
            mean_neighbors: 4.5,
            mean_variance: 0.6,
            audit_mean_eps: 0.2,
            audit_max_eps: 0.8,
            audit_count: 8,
            pilot_sims: 25,
            wall_ms: Some(12.5),
        }
    }

    fn sample_failure(index: u64) -> FailureRecord {
        FailureRecord {
            index,
            benchmark: "fir64".to_string(),
            scale: "fast".to_string(),
            d: 3.0,
            min_neighbors: 3,
            seed: 0,
            repeat: 0,
            error: "injected transient error (config [3, 1], attempt 0)".to_string(),
            attempts: 3,
        }
    }

    #[test]
    fn jsonl_lines_are_tagged_and_ordered() {
        let records = vec![sample_record(0), sample_record(2)];
        let failures = vec![sample_failure(1)];
        let summary = SummaryRecord::from_records(
            "t",
            &records,
            &failures,
            CacheStats {
                lookups: 100,
                hits: 40,
                misses: 60,
            },
            4,
            None,
        );
        let text = to_jsonl_string(
            &records,
            &failures,
            &summary,
            SinkOptions {
                include_timing: true,
            },
        );
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("{\"type\":\"run\",\"index\":0,"));
        assert!(lines[1].starts_with("{\"type\":\"failed\",\"index\":1,"));
        assert!(lines[2].starts_with("{\"type\":\"run\",\"index\":2,"));
        assert!(lines[3].starts_with("{\"type\":\"summary\","));
        assert!(lines[3].contains("\"sim_cache_hits\":40"));
        assert!(lines[3].contains("\"failed\":1"));
    }

    #[test]
    fn timing_is_stripped_unless_requested() {
        let records = vec![sample_record(0)];
        let summary = SummaryRecord::from_records(
            "t",
            &records,
            &[],
            CacheStats {
                lookups: 9,
                hits: 4,
                misses: 5,
            },
            1,
            Some(99.0),
        );
        let quiet = to_jsonl_string(&records, &[], &summary, SinkOptions::default());
        assert!(quiet.contains("\"wall_ms\":null"));
        assert!(quiet.contains("\"workers\":null"));
        // Shared-cache counters measure execution (and change across
        // journal resumes), so the deterministic output nulls them too.
        assert!(quiet.contains("\"sim_cache_lookups\":null"));
        assert!(quiet.contains("\"sim_cache_hits\":null"));
        assert!(quiet.contains("\"sim_cache_misses\":null"));
        assert!(!quiet.contains("12.5"));
        let timed = to_jsonl_string(
            &records,
            &[],
            &summary,
            SinkOptions {
                include_timing: true,
            },
        );
        assert!(timed.contains("\"wall_ms\":12.5"));
        assert!(timed.contains("\"wall_ms\":99.0"));
        assert!(timed.contains("\"sim_cache_hits\":4"));
    }

    #[test]
    fn run_record_json_roundtrip() {
        let r = sample_record(3);
        let json = serde_json::to_string(&r).unwrap();
        let back: RunRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        let f = sample_failure(5);
        let json = serde_json::to_string(&f).unwrap();
        let back: FailureRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn summary_totals_sum_over_records() {
        let records = vec![sample_record(0), sample_record(1)];
        let s = SummaryRecord::from_records("x", &records, &[], CacheStats::default(), 2, None);
        assert_eq!(s.runs, 2);
        assert_eq!(s.failed, 0);
        assert_eq!(s.total_queries, 80);
        assert_eq!(s.total_simulated, 60);
        assert_eq!(s.total_kriged, 16);
    }

    #[test]
    fn journal_roundtrips_through_load() {
        let buf = SharedBuf::default();
        let journal = {
            let journal = JournalWriter::from_writer(buf.clone());
            // Completion order is scrambled on purpose: rows carry their
            // index, load re-sorts.
            journal
                .record(&sample_record(2), SinkOptions::default())
                .unwrap();
            journal
                .failure(&sample_failure(1), SinkOptions::default())
                .unwrap();
            journal
                .record(&sample_record(0), SinkOptions::default())
                .unwrap();
            journal
        };
        drop(journal);
        let text = buf.contents();
        let (records, failures) = load_journal(&text).unwrap();
        assert_eq!(
            records.iter().map(|r| r.index).collect::<Vec<_>>(),
            vec![0, 2]
        );
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].index, 1);
        // Timing was stripped on write.
        assert!(records.iter().all(|r| r.wall_ms.is_none()));
    }

    #[test]
    fn load_journal_tolerates_a_torn_tail_only() {
        let good = {
            let buf = SharedBuf::default();
            let journal = JournalWriter::from_writer(buf.clone());
            journal
                .record(&sample_record(0), SinkOptions::default())
                .unwrap();
            buf.contents()
        };
        let torn = format!("{good}{{\"type\":\"run\",\"index\":1,\"bench");
        let (records, failures) = load_journal(&torn).unwrap();
        assert_eq!(records.len(), 1);
        assert!(failures.is_empty());
        let mid_corruption = format!("not json at all\n{good}");
        let err = load_journal(&mid_corruption).unwrap_err();
        assert_eq!(err.line, 1);
        let unknown = format!("{{\"type\":\"mystery\"}}\n{good}");
        let err = load_journal(&unknown).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("unknown record type"));
    }

    #[test]
    fn torn_line_mid_file_is_a_typed_error_not_a_silent_drop() {
        // A row torn in the MIDDLE of a journal means the file cannot be
        // trusted as a crash record; it must surface as a JournalError
        // carrying the offending line number, never be skipped.
        let good = {
            let buf = SharedBuf::default();
            let journal = JournalWriter::from_writer(buf.clone());
            for i in 0..3 {
                journal
                    .record(&sample_record(i), SinkOptions::default())
                    .unwrap();
            }
            buf.contents()
        };
        let lines: Vec<&str> = good.lines().collect();
        assert_eq!(lines.len(), 3);
        // Tear line 2 of 3 (only the final line may legitimately be torn).
        let torn_mid = format!("{}\n{}\n{}\n", lines[0], &lines[1][..20], lines[2]);
        let err = load_journal(&torn_mid).unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(format!("{err}"), format!("journal line 2: {}", err.message));
        // Binary garbage mid-file (e.g. a NUL-padded sector after a
        // power loss) is likewise typed, not dropped.
        let garbage = format!("{}\n\u{0}\u{0}\u{0}\u{0}\n{}\n", lines[0], lines[2]);
        let err = load_journal(&garbage).unwrap_err();
        assert_eq!(err.line, 2);
        // The same contract holds through the compressed reader: decode
        // then parse, so a mid-stream tear still surfaces.
        let compressed = krigeval_flate::compress(torn_mid.as_bytes());
        let decoded = krigeval_flate::inflate_tail_tolerant(&compressed).unwrap();
        let text = String::from_utf8(decoded.data).unwrap();
        assert_eq!(load_journal(&text).unwrap_err().line, 2);
    }

    #[test]
    fn journal_error_rows_sit_between_records_and_summary() {
        let records = vec![sample_record(0)];
        let summary =
            SummaryRecord::from_records("t", &records, &[], CacheStats::default(), 1, None);
        let journal_errors = vec![JournalErrorRecord {
            index: 0,
            error: "disk full".to_string(),
        }];
        let text = to_jsonl_string_full(
            &records,
            &[],
            &journal_errors,
            &summary,
            SinkOptions::default(),
        );
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"type\":\"run\","));
        assert_eq!(
            lines[1],
            "{\"type\":\"journal_error\",\"index\":0,\"error\":\"disk full\"}"
        );
        assert!(lines[2].starts_with("{\"type\":\"summary\","));
        // No journal errors → byte-identical to the plain writer.
        let plain = to_jsonl_string(&records, &[], &summary, SinkOptions::default());
        let full = to_jsonl_string_full(&records, &[], &[], &summary, SinkOptions::default());
        assert_eq!(plain, full);
        // load_journal tolerates the new tag.
        let (loaded, failures) = load_journal(&text).unwrap();
        assert_eq!(loaded.len(), 1);
        assert!(failures.is_empty());
    }

    #[test]
    fn load_journal_ignores_summary_lines() {
        let records = vec![sample_record(0)];
        let summary =
            SummaryRecord::from_records("t", &records, &[], CacheStats::default(), 1, None);
        let text = to_jsonl_string(&records, &[], &summary, SinkOptions::default());
        let (loaded, failures) = load_journal(&text).unwrap();
        assert_eq!(loaded.len(), 1);
        assert!(failures.is_empty());
    }

    /// A cloneable in-memory writer so tests can journal and then read
    /// back what was written.
    #[derive(Clone, Default)]
    struct SharedBuf(std::sync::Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn contents(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
}
