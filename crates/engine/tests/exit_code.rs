//! The campaign binary's exit code must reflect lost rows.
//!
//! Under `--on-error skip` a failed run becomes a tagged JSONL row and
//! the campaign keeps going — correct for the artifact, but the process
//! used to exit 0 anyway, so scripted callers (CI, sweeps) never noticed
//! the data was incomplete. These tests pin the contract: clean campaign
//! → exit 0; any failed run or lost journal write → nonzero exit *and*
//! the partial artifact is still emitted.

use std::process::Command;

use krigeval_engine::{CampaignSpec, FaultConfig, FaultPolicy};

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
        vec!["--variance-threshold", "2"],
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
