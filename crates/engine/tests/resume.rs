//! Journal-based resume: an interrupted campaign, continued from its
//! crash journal, must produce byte-identical finalized output to an
//! uninterrupted execution — while re-executing only the missing runs.
//!
//! Two layers are covered: the library path (`load_journal` +
//! `run_specs_opts` with an appending `JournalWriter`, the same calls
//! `campaign run --resume` makes) and the CLI binary end-to-end
//! (truncate a journal as a killed process would leave it, re-invoke
//! with `--resume`, diff the bytes).

use std::collections::HashSet;

use krigeval_engine::sink::{read_artifact_text, to_jsonl_string};
use krigeval_engine::{
    load_journal, run_campaign, run_specs_opts, CampaignSpec, ExecOptions, FaultConfig,
    JournalWriter, Progress, ShardManifest, SinkOptions, SummaryRecord,
};

fn spec() -> CampaignSpec {
    CampaignSpec {
        name: "resume".to_string(),
        benchmarks: vec!["fir".to_string(), "iir".to_string()],
        distances: vec![2.0, 3.0],
        ..CampaignSpec::default()
    }
}

/// The first line of a `campaign run` journal over [`spec`]: the
/// manifest of slot 0 of 1.
fn manifest() -> String {
    ShardManifest::new(&spec(), 0, 1, 4).render()
}

/// The `campaign run` arguments of [`spec`], writing to `out`.
fn cli_args(out: &std::path::Path) -> Vec<String> {
    [
        "run",
        "--benchmarks",
        "fir,iir",
        "--d",
        "2,3",
        "--name",
        "resume",
        "--workers",
        "2",
        "--quiet",
        "--out",
    ]
    .into_iter()
    .map(str::to_string)
    .chain([out.display().to_string()])
    .collect()
}

/// The uninterrupted campaign's finalized JSONL (the reference bytes).
fn uninterrupted_jsonl() -> String {
    let outcome = run_campaign(&spec(), 2, Progress::Silent).expect("campaign runs");
    to_jsonl_string(
        &outcome.records,
        &outcome.failures,
        &outcome.summary("resume", false),
        SinkOptions::default(),
    )
}

#[test]
fn resumed_campaign_is_byte_identical_and_only_runs_the_remainder() {
    let expected = uninterrupted_jsonl();

    // Phase 1: run the full campaign with a journal, then keep only the
    // first K lines — exactly what a process killed mid-campaign leaves
    // behind (journal lines are flushed whole, in completion order).
    let buf = SharedBuf::default();
    {
        let journal = JournalWriter::from_writer(buf.clone());
        let runs = spec().expand().expect("valid spec");
        run_specs_opts(
            runs,
            ExecOptions {
                workers: 2,
                journal: Some(&journal),
                ..ExecOptions::default()
            },
        )
        .expect("first execution");
    }
    let full_journal = buf.contents();
    assert_eq!(full_journal.lines().count(), 4, "one journal line per run");
    let torn: String = full_journal
        .lines()
        .take(2)
        .map(|l| format!("{l}\n"))
        .collect();

    // Phase 2: load the torn journal and execute only the missing runs,
    // appending to the same journal (as `campaign run --resume` does).
    let (mut records, mut failures) = load_journal(&torn).expect("journal parses");
    assert_eq!(records.len(), 2, "2 of 4 rows survived the kill");
    let done: HashSet<u64> = records.iter().map(|r| r.index).collect();
    let runs: Vec<_> = spec()
        .expand()
        .expect("valid spec")
        .into_iter()
        .filter(|r| !done.contains(&r.index))
        .collect();
    assert_eq!(runs.len(), 2, "only the remainder is re-executed");

    let resumed_buf = SharedBuf::default();
    let outcome = {
        let journal = JournalWriter::from_writer(resumed_buf.clone());
        run_specs_opts(
            runs,
            ExecOptions {
                workers: 2,
                journal: Some(&journal),
                ..ExecOptions::default()
            },
        )
        .expect("resumed execution")
    };
    let resumed: Vec<u64> = outcome.records.iter().map(|r| r.index).collect();
    assert_eq!(outcome.records.len(), 2);
    assert!(resumed.iter().all(|i| !done.contains(i)));
    assert_eq!(
        resumed_buf.contents().lines().count(),
        2,
        "the resumed half journals exactly the re-executed runs"
    );

    // Phase 3: merge and finalize — byte-identical to never crashing.
    records.extend(outcome.records.iter().cloned());
    records.sort_by_key(|r| r.index);
    failures.extend(outcome.failures.iter().cloned());
    failures.sort_by_key(|f| f.index);
    let summary = SummaryRecord::from_records(
        "resume",
        &records,
        &failures,
        outcome.cache,
        outcome.workers,
        None,
    );
    let merged = to_jsonl_string(&records, &failures, &summary, SinkOptions::default());
    assert_eq!(merged, expected);
}

#[test]
fn resume_replays_failed_rows_without_retrying_them() {
    // A journalled `failed` row is a terminal verdict: resume must not
    // re-execute that cell. Seed the journal with a fabricated failure
    // for index 1 and completed rows for 0 and 2; only index 3 remains.
    let full = uninterrupted_jsonl();
    let runs_only: Vec<&str> = full
        .lines()
        .filter(|l| l.contains("\"type\":\"run\""))
        .collect();
    let failed_line = concat!(
        "{\"type\":\"failed\",\"index\":1,\"benchmark\":\"iir8\",\"scale\":\"fast\",",
        "\"d\":2.0,\"min_neighbors\":3,\"seed\":0,\"repeat\":0,",
        "\"error\":\"injected transient error (run 1, attempt 0, call 3)\",\"attempts\":1}"
    );
    let journal = format!("{}\n{}\n{}\n", runs_only[0], failed_line, runs_only[2]);
    let (records, failures) = load_journal(&journal).expect("journal parses");
    let done: HashSet<u64> = records
        .iter()
        .map(|r| r.index)
        .chain(failures.iter().map(|f| f.index))
        .collect();
    assert_eq!(done.len(), 3);
    let remainder: Vec<u64> = spec()
        .expand()
        .expect("valid spec")
        .into_iter()
        .filter(|r| !done.contains(&r.index))
        .map(|r| r.index)
        .collect();
    assert_eq!(remainder, vec![3], "the failed row is not re-run");
}

#[test]
fn cli_resume_is_byte_identical_end_to_end() {
    let bin = env!("CARGO_BIN_EXE_campaign");
    let dir = std::env::temp_dir().join(format!("krigeval-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let reference = dir.join("reference.jsonl");
    let resumed = dir.join("resumed.jsonl");

    // Reference: one uninterrupted execution, finalized in place.
    let status = std::process::Command::new(bin)
        .args(cli_args(&reference))
        .status()
        .expect("campaign binary runs");
    assert!(status.success());
    let expected = std::fs::read_to_string(&reference).expect("reference output");

    // "Kill" a campaign after 2 of 4 rows: a journal starts with the
    // manifest of slot 0 of 1 and carries each row as the finalized file
    // does, so the manifest, 2 rows and a torn final line (which
    // load_journal discards) reproduce the on-disk state of a
    // mid-campaign crash.
    let torn: String = std::iter::once(manifest())
        .chain(
            expected
                .lines()
                .filter(|l| l.contains("\"type\":\"run\""))
                .take(2)
                .map(str::to_string),
        )
        .map(|l| format!("{l}\n"))
        .collect::<String>()
        + "{\"type\":\"run\",\"index\":9,\"torn";
    std::fs::write(&resumed, torn).expect("write torn journal");

    let status = std::process::Command::new(bin)
        .args(cli_args(&resumed))
        .arg("--resume")
        .status()
        .expect("campaign binary resumes");
    assert!(status.success());
    let actual = std::fs::read_to_string(&resumed).expect("resumed output");
    assert_eq!(actual, expected, "resume diverged from uninterrupted run");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_compressed_resume_is_byte_identical_and_keeps_the_manifest_first() {
    let bin = env!("CARGO_BIN_EXE_campaign");
    let dir = std::env::temp_dir().join(format!("krigeval-resume-z-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let reference = dir.join("reference.jsonl.z");
    let status = std::process::Command::new(bin)
        .args(cli_args(&reference))
        .arg("--compress")
        .status()
        .expect("campaign binary runs");
    assert!(status.success());
    let expected = std::fs::read(&reference).expect("reference artifact");
    let rows: Vec<String> = read_artifact_text(&reference)
        .expect("decodes")
        .lines()
        .filter(|l| l.contains("\"type\":\"run\""))
        .take(2)
        .map(str::to_string)
        .collect();

    // A compressed journal killed after 2 of 4 rows: its sync-flushed
    // stream is never finished.
    let killed_journal = |path: &std::path::Path, manifest: &str| {
        let journal = JournalWriter::create_compressed(path).expect("journal");
        for line in std::iter::once(manifest).chain(rows.iter().map(String::as_str)) {
            journal.line(line).expect("journal line");
        }
    };
    let resumed = dir.join("resumed.jsonl.z");
    killed_journal(&resumed, &manifest());
    let status = std::process::Command::new(bin)
        .args(cli_args(&resumed))
        .args(["--compress", "--resume"])
        .status()
        .expect("campaign binary resumes");
    assert!(status.success());
    assert_eq!(
        std::fs::read(&resumed).expect("resumed artifact"),
        expected,
        "compressed resume diverged from the uninterrupted run"
    );

    // A resume rewrites a compressed journal, manifest first: one whose
    // next run fails fast stops before it finishes the artifact, and
    // leaves the rewritten journal for the next resume.
    let faulty = CampaignSpec {
        faults: Some(FaultConfig {
            panic_rate: 0.0,
            error_rate: 1.0,
            nan_rate: 0.0,
            seed: 7,
        }),
        ..spec()
    };
    let spec_path = dir.join("faulty.json");
    std::fs::write(&spec_path, faulty.to_json()).expect("write spec");
    let faulty_manifest = ShardManifest::new(&faulty, 0, 1, 4).render();
    let aborted = dir.join("aborted.jsonl.z");
    killed_journal(&aborted, &faulty_manifest);
    let output = std::process::Command::new(bin)
        .arg("run")
        .arg("--spec")
        .arg(&spec_path)
        .args([
            "--workers",
            "1",
            "--quiet",
            "--compress",
            "--resume",
            "--out",
        ])
        .arg(&aborted)
        .output()
        .expect("campaign binary resumes");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        !output.status.success() && stderr.contains("injected transient error"),
        "the resume runs, and its next run fails fast: {stderr}"
    );
    let rewritten = read_artifact_text(&aborted).expect("rewritten journal decodes");
    let journal: String = std::iter::once(faulty_manifest.as_str())
        .chain(rows.iter().map(String::as_str))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(rewritten, journal, "the manifest stays the first line");

    std::fs::remove_dir_all(&dir).ok();
}

/// A cloneable in-memory writer standing in for the journal file.
#[derive(Clone, Default)]
struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}
