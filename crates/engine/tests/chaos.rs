//! Chaos suite: seeded fault injection against real campaigns.
//!
//! These tests exercise the full containment stack — injected panics,
//! transient errors and NaNs flowing through `catch_unwind`, the
//! poison-safe shared cache, retry/skip policies and the tagged
//! failure rows — and pin the determinism contract: runs that
//! *succeed* under injection produce byte-identical JSONL to a
//! fault-free campaign, across worker counts and repeated executions.
//!
//! The fault seed and rates below were chosen empirically (every fault
//! fate is content-addressed — a pure function of `(seed, surface,
//! attempt, phase, config)` with no call ordering anywhere — so the
//! outcome split is a constant): seed 7 at 0.2% per fault class makes
//! 3 of the 6 fir cells fail under `skip` while `retry:5` recovers
//! everything. Because the addressing is order-free, injection also
//! composes with in-run threading (`threads: 4` below) and process
//! sharding without perturbing a single fate.

use krigeval_engine::{
    run_campaign, CampaignSpec, EngineError, FaultConfig, FaultPolicy, Progress, RunRecord,
    SinkOptions,
};

/// Quiet the default panic hook for injected panics: the chaos
/// campaigns deliberately panic many times, and each would otherwise
/// dump a banner (plus optional backtrace) to stderr. Real,
/// non-injected panics still report normally.
fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.starts_with("injected panic"));
            if !injected {
                default_hook(info);
            }
        }));
    });
}

fn spec(policy: FaultPolicy, faults: Option<FaultConfig>) -> CampaignSpec {
    CampaignSpec {
        name: "chaos".to_string(),
        benchmarks: vec!["fir".to_string()],
        distances: vec![2.0, 3.0, 4.0],
        repeats: 2,
        on_error: Some(policy),
        faults,
        ..CampaignSpec::default()
    }
}

/// The pinned storm: all three fault classes active at once.
fn storm() -> FaultConfig {
    FaultConfig {
        panic_rate: 0.002,
        error_rate: 0.002,
        nan_rate: 0.002,
        seed: 7,
    }
}

fn jsonl(spec: &CampaignSpec, workers: usize) -> String {
    let outcome = run_campaign(spec, workers, Progress::Silent).expect("campaign completes");
    krigeval_engine::sink::to_jsonl_string(
        &outcome.records,
        &outcome.failures,
        &outcome.summary("chaos", false),
        SinkOptions::default(),
    )
}

fn strip_wall(records: &[RunRecord]) -> Vec<RunRecord> {
    records
        .iter()
        .cloned()
        .map(|mut r| {
            r.wall_ms = None;
            r
        })
        .collect()
}

#[test]
fn skip_policy_survives_the_storm_and_tags_failures() {
    silence_injected_panics();
    let outcome = run_campaign(&spec(FaultPolicy::Skip, Some(storm())), 2, Progress::Silent)
        .expect("skip policy never aborts the campaign");
    assert_eq!(outcome.records.len(), 3, "3 of 6 cells survive seed 7");
    assert_eq!(outcome.failures.len(), 3, "3 of 6 cells fail under seed 7");
    // Records and failures partition the expansion.
    let mut indices: Vec<u64> = outcome
        .records
        .iter()
        .map(|r| r.index)
        .chain(outcome.failures.iter().map(|f| f.index))
        .collect();
    indices.sort_unstable();
    assert_eq!(indices, vec![0, 1, 2, 3, 4, 5]);
    for failure in &outcome.failures {
        // Panics and transient errors carry the injector's message;
        // injected NaNs surface as the FiniteGuard's rejection (the
        // guard converts them before they can reach the hybrid store).
        assert!(
            failure.error.contains("injected") || failure.error.contains("non-finite metric"),
            "failure carries a recognizable cause: {}",
            failure.error
        );
        assert_eq!(failure.attempts, 1, "skip grants no retries");
    }
    // The JSONL stream tags the failed rows so consumers can filter.
    let text = jsonl(&spec(FaultPolicy::Skip, Some(storm())), 2);
    assert_eq!(text.matches("\"type\":\"failed\"").count(), 3);
    assert_eq!(text.matches("\"type\":\"run\"").count(), 3);
    assert!(text.contains("\"failed\":3"), "summary counts the failures");
}

#[test]
fn surviving_records_match_the_fault_free_campaign() {
    silence_injected_panics();
    let clean = run_campaign(&spec(FaultPolicy::FailFast, None), 2, Progress::Silent)
        .expect("fault-free campaign");
    let stormy = run_campaign(&spec(FaultPolicy::Skip, Some(storm())), 2, Progress::Silent)
        .expect("storm campaign");
    assert!(
        !stormy.records.is_empty(),
        "the assertion below is non-vacuous"
    );
    let clean_records = strip_wall(&clean.records);
    for record in strip_wall(&stormy.records) {
        let reference = clean_records
            .iter()
            .find(|r| r.index == record.index)
            .expect("every surviving index exists fault-free");
        // An attempt that survives its draws made exactly the
        // fault-free call sequence, so the whole record — solution,
        // λ, query/sim/krige counts, audit stats — is identical.
        assert_eq!(&record, reference);
    }
}

#[test]
fn chaos_output_is_byte_identical_across_workers_and_executions() {
    silence_injected_panics();
    let base = spec(FaultPolicy::Skip, Some(storm()));
    let sequential = jsonl(&base, 1);
    let parallel = jsonl(&base, 4);
    assert_eq!(
        sequential, parallel,
        "worker count leaked into chaos output"
    );
    assert_eq!(sequential, jsonl(&base, 4), "re-execution diverged");
}

#[test]
fn chaos_composes_with_in_run_threading() {
    silence_injected_panics();
    // The historical spec-level rejection of `threads > 1` with active
    // faults existed because fates were keyed on a serial call counter.
    // Content-addressed fates make the combination legal *and* exact:
    // the same storm at `threads: 4` (batches fanned out over a
    // four-thread pool, completion order nondeterministic) must
    // reproduce the one-thread pool's JSONL byte for byte — same
    // survivors, same failures, same messages.
    let inline = spec(FaultPolicy::Skip, Some(storm()));
    let mut threaded = spec(FaultPolicy::Skip, Some(storm()));
    threaded.threads = Some(4);
    let a = jsonl(&inline, 2);
    let b = jsonl(&threaded, 2);
    assert_eq!(a, b, "in-run threading leaked into chaos output");
    // And under retries: every recovered cell matches the fault-free
    // campaign regardless of the thread count.
    let mut threaded_retry = spec(FaultPolicy::Retry { max: 5 }, Some(storm()));
    threaded_retry.threads = Some(4);
    assert_eq!(
        jsonl(&threaded_retry, 2),
        jsonl(&spec(FaultPolicy::FailFast, None), 2),
        "threaded retries diverged from the fault-free baseline"
    );
}

#[test]
fn retry_policy_recovers_every_transient_fault() {
    silence_injected_panics();
    // Retries draw fresh fault streams, so with 5 extra attempts every
    // cell eventually sees a clean run — and a clean run's record is
    // byte-identical to the fault-free campaign's, so the *entire*
    // serialized output matches.
    let recovered = jsonl(&spec(FaultPolicy::Retry { max: 5 }, Some(storm())), 2);
    let clean = jsonl(&spec(FaultPolicy::FailFast, None), 2);
    assert_eq!(recovered, clean);
    assert_eq!(recovered.matches("\"type\":\"run\"").count(), 6);
    assert!(recovered.contains("\"failed\":0"));
}

#[test]
fn fail_fast_aborts_on_the_first_injected_fault() {
    silence_injected_panics();
    let certain_panic = FaultConfig {
        panic_rate: 1.0,
        error_rate: 0.0,
        nan_rate: 0.0,
        seed: 0,
    };
    let err = run_campaign(
        &spec(FaultPolicy::FailFast, Some(certain_panic)),
        2,
        Progress::Silent,
    )
    .expect_err("fail-fast surfaces the fault");
    match err {
        EngineError::Run { index, source } => {
            assert_eq!(index, 0, "lowest failing index is reported");
            assert!(
                source.to_string().contains("injected panic"),
                "panic payload survives catch_unwind: {source}"
            );
        }
        other => panic!("expected a run failure, got {other}"),
    }
}
