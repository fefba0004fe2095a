//! The campaign binary's exit code must reflect lost rows and refused
//! journals.
//!
//! Under `--on-error skip` a failed run becomes a tagged JSONL row and
//! the campaign keeps going — correct for the artifact, but the process
//! used to exit 0 anyway, so scripted callers (CI, sweeps) never noticed
//! the data was incomplete. These tests pin the contract: clean campaign
//! → exit 0; any failed run or lost journal write → nonzero exit *and*
//! the partial artifact is still emitted; a `--resume` on a file that is
//! not this invocation's journal → nonzero exit, the file untouched.

use std::path::Path;
use std::process::Command;

use krigeval_engine::{CampaignSpec, FaultConfig, FaultPolicy, ShardManifest};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_campaign")
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("krigeval-exitcode-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn clean_campaign_exits_zero() {
    let dir = temp_dir("clean");
    let out = dir.join("out.jsonl");
    let status = Command::new(bin())
        .args([
            "run",
            "--benchmarks",
            "fir",
            "--d",
            "2",
            "--workers",
            "1",
            "--quiet",
            "--out",
        ])
        .arg(&out)
        .status()
        .expect("campaign binary runs");
    assert!(status.success(), "clean campaign must exit 0: {status}");
    assert!(std::fs::read_to_string(&out)
        .expect("artifact written")
        .contains("\"type\":\"summary\""));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn skipped_failures_exit_nonzero_but_still_emit_the_artifact() {
    let dir = temp_dir("faulty");
    let spec_path = dir.join("spec.json");
    let out = dir.join("out.jsonl");
    // error_rate 1.0 fails every run deterministically; skip keeps the
    // campaign going so every row lands as a tagged failure.
    let spec = CampaignSpec {
        name: "exitcode".to_string(),
        benchmarks: vec!["fir".to_string()],
        distances: vec![2.0, 3.0],
        on_error: Some(FaultPolicy::Skip),
        faults: Some(FaultConfig {
            panic_rate: 0.0,
            error_rate: 1.0,
            nan_rate: 0.0,
            seed: 7,
        }),
        ..CampaignSpec::default()
    };
    std::fs::write(&spec_path, format!("{}\n", spec.to_json())).expect("write spec");

    let output = Command::new(bin())
        .args(["run", "--spec"])
        .arg(&spec_path)
        .args(["--workers", "1", "--quiet", "--out"])
        .arg(&out)
        .output()
        .expect("campaign binary runs");
    assert!(
        !output.status.success(),
        "a campaign that lost rows must exit nonzero"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("incomplete"),
        "the lost-row summary must print even under --quiet; stderr:\n{stderr}"
    );
    // The partial artifact is still written: failure rows plus a summary.
    let artifact = std::fs::read_to_string(&out).expect("artifact written");
    assert!(
        artifact.contains("\"type\":\"failed\""),
        "failure rows must be journalled: {artifact}"
    );
    assert!(artifact.contains("\"type\":\"summary\""));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merged_shards_with_failed_rows_exit_nonzero_but_still_emit_the_artifact() {
    // The single-process contract above must survive sharding: when the
    // shards a merge reassembles carry failed rows, `campaign merge`
    // exits nonzero with the same `incomplete` summary line — scripted
    // callers see the data loss no matter how the campaign was split.
    let dir = temp_dir("merge");
    let spec_path = dir.join("spec.json");
    let spec = CampaignSpec {
        name: "exitcode-merge".to_string(),
        benchmarks: vec!["fir".to_string()],
        distances: vec![2.0, 3.0],
        on_error: Some(FaultPolicy::Skip),
        faults: Some(FaultConfig {
            panic_rate: 0.0,
            error_rate: 1.0,
            nan_rate: 0.0,
            seed: 7,
        }),
        ..CampaignSpec::default()
    };
    std::fs::write(&spec_path, format!("{}\n", spec.to_json())).expect("write spec");

    let shards: Vec<std::path::PathBuf> = (0..2)
        .map(|i| dir.join(format!("shard{i}.jsonl")))
        .collect();
    for (i, shard) in shards.iter().enumerate() {
        let output = Command::new(bin())
            .args(["shard", "--spec"])
            .arg(&spec_path)
            .args(["--index", &i.to_string(), "--of", "2"])
            .args(["--workers", "1", "--quiet", "--out"])
            .arg(shard)
            .output()
            .expect("campaign binary runs");
        assert!(
            !output.status.success(),
            "a shard that lost rows must itself exit nonzero"
        );
        assert!(
            String::from_utf8_lossy(&output.stderr).contains("incomplete"),
            "the shard prints the incomplete summary under --quiet"
        );
    }

    let out = dir.join("merged.jsonl");
    let mut cmd = Command::new(bin());
    cmd.arg("merge");
    for shard in &shards {
        cmd.arg(shard);
    }
    let output = cmd
        .args(["--quiet", "--out"])
        .arg(&out)
        .output()
        .expect("campaign binary runs");
    assert!(
        !output.status.success(),
        "a merge that reassembles failed rows must exit nonzero"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("incomplete"),
        "the merge prints the incomplete summary under --quiet; stderr:\n{stderr}"
    );
    let artifact = std::fs::read_to_string(&out).expect("artifact written");
    assert!(
        artifact.contains("\"type\":\"failed\""),
        "failure rows survive the merge: {artifact}"
    );
    assert!(artifact.contains("\"type\":\"summary\""));
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `campaign run ARGS --resume --out JOURNAL`, which must exit
/// nonzero, name the journal on stderr and leave its bytes as they were.
fn assert_resume_refused(journal: &Path, args: &[&str]) {
    let before = std::fs::read(journal).expect("journal");
    let output = Command::new(bin())
        .arg("run")
        .args(args)
        .args(["--workers", "1", "--quiet", "--resume", "--out"])
        .arg(journal)
        .output()
        .expect("campaign binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "{args:?} must be refused");
    assert!(
        stderr.contains(&journal.display().to_string()),
        "{args:?}: the refusal names the file: {stderr}"
    );
    assert_eq!(
        std::fs::read(journal).expect("journal"),
        before,
        "{args:?}: a refused journal is left unchanged"
    );
}

#[test]
fn resume_refuses_another_campaigns_journal_and_leaves_it_unchanged() {
    let dir = temp_dir("foreign");
    let full = dir.join("full.jsonl");
    let fir = ["--benchmarks", "fir", "--d", "2,3"];
    let status = Command::new(bin())
        .arg("run")
        .args(fir)
        .args(["--workers", "1", "--quiet", "--out"])
        .arg(&full)
        .status()
        .expect("campaign binary runs");
    assert!(status.success());
    let expected = std::fs::read_to_string(&full).expect("artifact");

    // The journal of the fir campaign, killed after its first row.
    let spec = CampaignSpec {
        benchmarks: vec!["fir".to_string()],
        distances: vec![2.0, 3.0],
        ..CampaignSpec::default()
    };
    let row = expected.lines().next().expect("first row");
    let journal = dir.join("journal.jsonl");
    let text = format!("{}\n{row}\n", ShardManifest::new(&spec, 0, 1, 2).render());
    std::fs::write(&journal, text).expect("write journal");

    // Another campaign, and the same grid under another fault policy or
    // thread count: the digest covers the whole spec.
    for args in [
        &["--benchmarks", "iir", "--d", "5"][..],
        &["--benchmarks", "fir", "--d", "2,3", "--on-error", "skip"],
        &["--benchmarks", "fir", "--d", "2,3", "--threads", "2"],
    ] {
        assert_resume_refused(&journal, args);
    }
    // The journal's own campaign resumes it.
    let status = Command::new(bin())
        .arg("run")
        .args(fir)
        .args(["--workers", "1", "--quiet", "--resume", "--out"])
        .arg(&journal)
        .status()
        .expect("campaign binary runs");
    assert!(status.success());
    assert_eq!(std::fs::read_to_string(&journal).unwrap(), expected);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_refuses_a_finished_artifact() {
    let dir = temp_dir("finished");
    let out = dir.join("j.jsonl");
    let status = Command::new(bin())
        .args(["run", "--benchmarks", "fir", "--d", "2", "--quiet", "--out"])
        .arg(&out)
        .status()
        .expect("campaign binary runs");
    assert!(status.success());
    // Neither another campaign nor its own may continue a finished run:
    // its first line is a row, not a manifest.
    assert_resume_refused(&out, &["--benchmarks", "iir", "--d", "5"]);
    assert_resume_refused(&out, &["--benchmarks", "fir", "--d", "2"]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn matrix_rejects_the_flags_it_would_drop() {
    // `matrix` fixes the benchmark list and each benchmark's kriging
    // policy, so a flag that would change either must fail before any
    // run: dropping it would report a table the caller did not ask for.
    let dir = temp_dir("matrix-flags");
    let spec_path = dir.join("spec.json");
    let spec = format!("{}\n", CampaignSpec::default().to_json());
    std::fs::write(&spec_path, spec).expect("write spec");
    let spec_arg = spec_path.to_str().expect("utf-8 temp path");
    for args in [
        vec![
            "--benchmarks",
            "fir",
            "--variogram",
            "fit-after:10",
            "--metric",
            "linf",
        ],
        vec!["--spec", spec_arg],
        vec!["--lambda", "-50"],
        vec!["--metric", "l2"],
        vec!["--variogram", "pilot"],
        vec!["--optimizer", "minplusone"],
        vec!["--max-neighbors", "8"],
        vec!["--approx", "4"],
        vec!["--approx-epsilon", "0.1"],
        vec!["--loo-select"],
        vec!["--nugget", "0.25"],
        vec!["--resume"],
        vec!["--index", "0"],
        vec!["--of", "2"],
    ] {
        let output = Command::new(bin())
            .args([
                "matrix", "--scale", "fast", "--d", "3", "--nmin", "2", "--quiet",
            ])
            .args(&args)
            .output()
            .expect("campaign binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!output.status.success(), "{args:?} must be rejected");
        assert!(
            stderr.contains(&format!("matrix does not take {}", args[0])),
            "{args:?}: stderr:\n{stderr}"
        );
        assert!(output.stdout.is_empty(), "{args:?}: nothing runs");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn matrix_smoke_rejects_the_grid_flags_it_fixes() {
    // `--smoke` is one fixed cell, so a grid flag next to it would be
    // dropped: `--smoke --scale paper --d 5 --nmin 4` used to run the
    // fast d = 3, N_n,min = 2 cell and exit 0.
    for args in [
        vec!["--name", "grid"],
        vec!["--scale", "paper"],
        vec!["--d", "5"],
        vec!["--nmin", "4"],
        vec!["--gate", "variance"],
        vec!["--threads", "1"],
        vec!["--seed", "7"],
        vec!["--repeats", "2"],
        vec!["--no-audit"],
    ] {
        let output = Command::new(bin())
            .args(["matrix", "--smoke", "--quiet"])
            .args(&args)
            .output()
            .expect("campaign binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!output.status.success(), "{args:?} must be rejected");
        assert!(
            stderr.contains(&format!("matrix --smoke does not take {}", args[0])),
            "{args:?}: stderr:\n{stderr}"
        );
        assert!(output.stdout.is_empty(), "{args:?}: nothing runs");
    }
}

#[test]
fn run_rejects_the_partition_flags() {
    // `run` is slot 0 of 1: `run --index 1 --of 2` used to print every
    // row and exit 0, where the caller asked for half the campaign.
    for args in [vec!["--index", "1", "--of", "2"], vec!["--of", "2"]] {
        let output = Command::new(bin())
            .args(["run", "--benchmarks", "fir", "--d", "2,3", "--quiet"])
            .args(&args)
            .output()
            .expect("campaign binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!output.status.success(), "{args:?} must be rejected");
        assert!(
            stderr.contains(&format!("run does not take {}", args[0])),
            "{args:?}: stderr:\n{stderr}"
        );
        assert!(output.stdout.is_empty(), "{args:?}: nothing runs");
    }
}

#[test]
fn run_rejects_the_refit_variogram() {
    let output = Command::new(bin())
        .args(["run", "--benchmarks", "fir", "--d", "2", "--quiet"])
        .args(["--variogram", "refit:8:4"])
        .output()
        .expect("campaign binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "stderr:\n{stderr}");
    assert!(
        stderr.contains("unknown variogram policy \"refit\""),
        "stderr:\n{stderr}"
    );
    assert!(output.stdout.is_empty(), "nothing runs");
}
