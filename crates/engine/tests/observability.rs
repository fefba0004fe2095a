//! Integration tests for the engine observability layer.
//!
//! Pins the two executor bugfixes this layer exists to make visible —
//! silently-swallowed journal write failures and torn concurrent
//! progress lines — plus the counter/event wiring between the executor
//! and the campaign obs bundle.

use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use krigeval_engine::executor::{run_specs_opts, EngineError, ExecOptions, Progress};
use krigeval_engine::fault::FaultPolicy;
use krigeval_engine::obs::CampaignObs;
use krigeval_engine::sink::{to_jsonl_string_full, JournalWriter, SinkOptions};
use krigeval_engine::spec::{CampaignSpec, RunSpec};
use krigeval_obs::{LineWriter, Registry, RingSink, Tracer};

fn fir_runs(distances: &[f64]) -> Vec<RunSpec> {
    CampaignSpec {
        benchmarks: vec!["fir".to_string()],
        distances: distances.to_vec(),
        ..CampaignSpec::default()
    }
    .expand()
    .unwrap()
}

/// A journal sink whose every write fails, simulating a full or yanked
/// disk under the campaign.
struct FailingWriter;

impl Write for FailingWriter {
    fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
        Err(io::Error::other("disk full"))
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// An in-memory writer shared with the test body, so concurrent worker
/// output can be inspected after the campaign.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn text(&self) -> String {
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

/// The headline regression: a journal write failure under the strict
/// default policy must abort the campaign, not scroll past on stderr
/// while the crash journal silently loses rows.
#[test]
fn journal_failure_aborts_under_fail_fast() {
    let journal = JournalWriter::from_writer(FailingWriter);
    let buf = SharedBuf::default();
    let notices = LineWriter::from_writer(Box::new(buf.clone()));
    let err = run_specs_opts(
        fir_runs(&[2.0, 3.0]),
        ExecOptions {
            workers: 2,
            journal: Some(&journal),
            progress_out: Some(&notices),
            ..ExecOptions::default()
        },
    )
    .unwrap_err();
    match &err {
        EngineError::Journal { message, .. } => {
            assert!(message.contains("disk full"), "{message}")
        }
        other => panic!("expected EngineError::Journal, got: {other}"),
    }
    assert!(err.to_string().contains("journal write failed"), "{err}");
    assert!(
        buf.text().contains("journal write failed for run"),
        "the failure is still reported on the notice stream: {:?}",
        buf.text()
    );
}

/// Under a skip policy the campaign survives journal loss, but the loss
/// must be visible: counted, traced, and tagged into the final output.
#[test]
fn journal_failure_is_tagged_and_counted_under_skip() {
    let registry = Registry::new();
    let ring = Arc::new(RingSink::new(64));
    let obs = CampaignObs::new(&registry, Tracer::new(vec![ring.clone()]));
    let journal = JournalWriter::from_writer(FailingWriter);
    let notices = LineWriter::from_writer(Box::<SharedBuf>::default());
    let outcome = run_specs_opts(
        fir_runs(&[2.0, 3.0]),
        ExecOptions {
            workers: 2,
            policy: FaultPolicy::Skip,
            journal: Some(&journal),
            progress_out: Some(&notices),
            obs: Some(&obs),
            ..ExecOptions::default()
        },
    )
    .unwrap();

    // The runs themselves completed; only the journal lines were lost.
    assert_eq!(outcome.records.len(), 2);
    assert!(outcome.failures.is_empty());
    assert_eq!(outcome.journal_errors.len(), 2);
    assert_eq!(outcome.journal_errors[0].index, 0);
    assert_eq!(outcome.journal_errors[1].index, 1);
    assert!(outcome.journal_errors[0].error.contains("disk full"));

    // Counted...
    let snapshot = registry.snapshot();
    let counter = |name: &str| {
        snapshot
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    assert_eq!(counter("engine_journal_errors_total"), 2);
    assert_eq!(counter("engine_journal_writes_total"), 0);
    assert_eq!(counter("engine_runs_completed_total"), 2);
    assert_eq!(counter("engine_runs_failed_total"), 0);

    // ...traced...
    let journal_events: Vec<String> = ring
        .snapshot()
        .iter()
        .filter(|e| e.name == "journal_error")
        .map(|e| e.render_json(false))
        .collect();
    assert_eq!(journal_events.len(), 2, "{journal_events:?}");
    assert!(journal_events[0].contains("\"error\":\"disk full\""));

    // ...and tagged into the finalized JSONL between rows and summary.
    let summary = outcome.summary("t", false);
    let text = to_jsonl_string_full(
        &outcome.records,
        &outcome.failures,
        &outcome.journal_errors,
        &summary,
        SinkOptions::default(),
    );
    assert!(
        text.contains("{\"type\":\"journal_error\",\"index\":0,\"error\":\"disk full\"}"),
        "{text}"
    );
}

/// A healthy journal keeps the happy-path counters intact.
#[test]
fn successful_journal_writes_are_counted() {
    let registry = Registry::new();
    let obs = CampaignObs::new(&registry, Tracer::disabled());
    let journal = JournalWriter::from_writer(Box::<SharedBuf>::default());
    let outcome = run_specs_opts(
        fir_runs(&[2.0, 3.0]),
        ExecOptions {
            workers: 2,
            journal: Some(&journal),
            obs: Some(&obs),
            ..ExecOptions::default()
        },
    )
    .unwrap();
    assert_eq!(outcome.records.len(), 2);
    assert!(outcome.journal_errors.is_empty());
    let snapshot = registry.snapshot();
    let counter = |name: &str| {
        snapshot
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    assert_eq!(counter("engine_journal_writes_total"), 2);
    assert_eq!(counter("engine_journal_errors_total"), 0);
}

/// Attaching observability must not perturb the campaign output: the
/// finalized JSONL renders byte-identical with obs on or off, at any
/// worker count (timing excluded, as always).
#[test]
fn obs_does_not_change_campaign_output_bytes() {
    let render = |obs: Option<&CampaignObs>, workers: usize| {
        let outcome = run_specs_opts(
            fir_runs(&[2.0, 3.0]),
            ExecOptions {
                workers,
                obs,
                ..ExecOptions::default()
            },
        )
        .unwrap();
        let summary = outcome.summary("t", false);
        to_jsonl_string_full(
            &outcome.records,
            &outcome.failures,
            &outcome.journal_errors,
            &summary,
            SinkOptions::default(),
        )
    };
    let plain = render(None, 1);
    let registry = Registry::new();
    let obs = CampaignObs::new(&registry, Tracer::disabled());
    for workers in [1, 4] {
        assert_eq!(
            plain,
            render(Some(&obs), workers),
            "obs at {workers} workers changed the JSONL bytes"
        );
    }
}

/// A campaign's counter snapshot does not depend on `threads`: every run
/// fulfills through the engine backend, so a one-thread run registers the
/// same `backend_*` counters, with the same totals, as a two-thread one.
#[test]
fn counters_do_not_depend_on_in_run_threads() {
    let counters = |threads: usize| {
        let registry = Registry::new();
        let obs = CampaignObs::new(&registry, Tracer::disabled());
        let runs = CampaignSpec {
            benchmarks: vec!["fir".to_string(), "iir".to_string()],
            distances: vec![2.0, 3.0],
            threads: Some(threads),
            ..CampaignSpec::default()
        }
        .expand()
        .unwrap();
        let outcome = run_specs_opts(
            runs,
            ExecOptions {
                workers: 2,
                obs: Some(&obs),
                ..ExecOptions::default()
            },
        )
        .unwrap();
        assert_eq!(outcome.records.len(), 4);
        registry.snapshot().counters_json()
    };
    let one = counters(1);
    assert!(one.contains("\"backend_jobs_total\""), "{one}");
    assert_eq!(one, counters(2));
}

/// Progress from four concurrent workers must arrive as whole lines —
/// the old per-worker `eprintln!` interleaved fragments under load.
#[test]
fn progress_lines_are_not_torn_at_four_workers() {
    let buf = SharedBuf::default();
    let out = LineWriter::from_writer(Box::new(buf.clone()));
    let runs = fir_runs(&[2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5]);
    let total = runs.len();
    let outcome = run_specs_opts(
        runs,
        ExecOptions {
            workers: 4,
            progress: Progress::Stderr,
            progress_out: Some(&out),
            ..ExecOptions::default()
        },
    )
    .unwrap();
    assert_eq!(outcome.records.len(), total);
    let text = buf.text();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), total, "one whole line per run:\n{text}");
    for line in &lines {
        assert!(
            line.starts_with('[') && line.contains("] fir64 d=") && line.contains("cache "),
            "torn or malformed progress line: {line:?}"
        );
    }
    // Every completion ordinal appears exactly once.
    for i in 1..=total {
        let prefix = format!("[{i}/{total}]");
        assert_eq!(
            lines.iter().filter(|l| l.starts_with(&prefix)).count(),
            1,
            "expected exactly one {prefix} line:\n{text}"
        );
    }
}
