//! `campaign` — declarative experiment campaigns over the kriging engine.
//!
//! ```text
//! campaign template                 # print a spec template (JSON) to stdout
//! campaign run [OPTIONS]           # execute a campaign, emit JSONL
//! campaign matrix [OPTIONS]        # the full Table-I scenario matrix: all
//!                                  # eight benchmarks through the engine
//! campaign shard [OPTIONS]         # execute one shard of a campaign
//! campaign merge FILES [OPTIONS]   # reassemble shard files into one JSONL
//! campaign decode IN [OPTIONS]     # decompress a .z artifact to plain text
//! campaign compare [OPTIONS]       # sequential vs parallel wall-clock
//! ```
//!
//! Common options:
//!
//! ```text
//! --spec FILE        load a CampaignSpec from a JSON file
//! --benchmarks LIST  comma-separated (fir,iir,fft,hevc,dct,lms,cnn,squeezenet)
//! --scale S          fast | paper            (default fast)
//! --d LIST           neighbour radii          (default 2,3,4,5)
//! --nmin LIST        minimum neighbour counts (default 3)
//! --lambda LIST      λ_min sweep (empty = canonical per benchmark)
//! --metric M         l1 | l2 | linf           (default l1)
//! --variogram V      pilot | fixed-linear:SLOPE | fit-after:N
//!                    | spherical:N:S:R | exponential:N:S:R | gaussian:N:S:R
//! --optimizer O      auto | tiebreak:TOL
//! --seed N           base seed                (default 0)
//! --repeats N        repeats per cell with derived seeds (default 1)
//! --workers N        worker threads, one run per worker (default 4)
//! --threads N        in-run evaluation threads: each run's planned
//!                    simulation batches fan out over N threads of the
//!                    engine backend (default 1: the backend simulates on
//!                    the run's own thread; results and counters are
//!                    identical for any value, including under active
//!                    fault injection — fault fates are content-addressed,
//!                    not call-ordered)
//! --approx N         opt-in approximate prediction: screen kriging
//!                    systems to the N closest neighbours (N must exceed
//!                    every --nmin), gated by a
//!                    leave-one-out accuracy check at the variogram fit
//!                    and as the store grows (off by default; the exact
//!                    path stays bitwise pinned)
//! --approx-epsilon E accuracy bound of the approximate path (default
//!                    0.05); a sampled leave-one-out deviation above E
//!                    rejects the approximation until revalidated
//! --gate G           kriged-vs-simulate decision gate: fixed (default,
//!                    bitwise-pinned historical behaviour) or
//!                    variance[:T] — reject any converged solve whose
//!                    kriging variance σ² exceeds T (default 1.0) and
//!                    simulate instead
//! --loo-select       pick the variogram family by fast leave-one-out
//!                    cross-validation (one factorization per family)
//!                    instead of weighted least squares
//! --nugget T         noisy-metric support: a fixed nugget variance
//!                    τ² = T ≥ 0 added to every between-site
//!                    semi-variogram value; off by default (exact
//!                    interpolating system)
//! --out FILE         write JSONL to FILE instead of stdout
//! --compress         DEFLATE-compress the artifact (journal and final
//!                    output); requires --out ending in .z — the
//!                    extension is how resume/shard/merge detect
//!                    compressed inputs. The journal stays crash-safe:
//!                    every line ends on a sync-flush block boundary,
//!                    and determinism is defined on the *uncompressed*
//!                    stream (campaign decode recovers it bit-exactly)
//! --on-error P       fail-fast | skip | retry:N  (default fail-fast;
//!                    overrides the spec's on_error field)
//! --resume           continue an interrupted campaign from the journal
//!                    in --out if it starts with this invocation's
//!                    manifest: rows already journalled are replayed,
//!                    only the missing runs execute (requires --out)
//! --timing           include wall-clock fields in the JSONL (off keeps
//!                    output byte-identical across worker counts and
//!                    resumes)
//! --metrics-out FILE write a campaign metrics snapshot on completion:
//!                    Prometheus text format when FILE ends in .prom,
//!                    JSON otherwise (counters only unless --timing)
//! --trace-out FILE   stream structured trace events (query decisions,
//!                    run completions, journal errors, ...) to FILE as
//!                    JSONL; wall-clock fields included only with
//!                    --timing
//! --quiet            suppress stderr progress lines
//! ```
//!
//! `shard`-only options (`run` rejects them):
//!
//! ```text
//! --index I          this process's shard index (0-based, required)
//! --of N             total number of shards (required)
//! ```
//!
//! `matrix`-only options:
//!
//! ```text
//! --smoke            the CI preset: fast scale, a single d=3 / N_n,min=2
//!                    cell, every run through the engine backend at two
//!                    threads (rejects the grid flags it fixes)
//! ```
//!
//! `campaign matrix` is the repository's Table I. It expands **all eight
//! benchmarks** (fir, iir, fft, hevc, squeezenet, quantized_cnn, dct,
//! lms) over the `--d` / `--nmin` grid as one campaign, executes the
//! whole matrix through one shared cache, and emits one Table-I row per
//! `(benchmark, d, N_n,min)` cell, its `--repeats` pooled by count.
//! It reads `--scale`, `--d`, `--nmin`, `--gate`, `--threads`, `--seed`,
//! `--repeats`, `--no-audit`, `--name` and `--on-error`, and rejects the
//! flags that would set what the matrix fixes (`--spec`, `--benchmarks`,
//! `--metric`, `--variogram`, `--nugget`, ...).
//! Structural violations of the Table-I shape (a benchmark missing from
//! a cell, out-of-range percentage, wrong metric routing) are reported
//! on stderr and exit nonzero.
//!
//! `run` and `shard` are one execution path: `shard --index I --of N`
//! executes the runs whose expansion index `i` satisfies `i % N == I`
//! (the same residue-class partition at any `N`), and `run` is slot
//! 0 of 1. With `--out` (which `shard` requires) the file is a
//! flush-per-line journal that starts with the slot's manifest: campaign
//! name, slot, and a digest of the whole spec, `threads` and `on_error`
//! included. On success the finished artifact (rows plus summary for
//! `run`, manifest plus rows for `shard`) is written beside the journal
//! and renamed over it, so a kill at any moment leaves a resumable
//! journal or the artifact. `--resume` refuses a file whose first line
//! is not this invocation's manifest (another campaign's or slot's
//! journal, a finished artifact, a journal from before manifests),
//! naming it and leaving it unchanged. `merge` takes the shard files as
//! positional arguments, validates them up front (same campaign, same
//! partition, no gaps, no overlaps, no truncation — typed errors name
//! the offending file) and emits the single-process byte-identical
//! JSONL: because fault fates are content-addressed and deterministic
//! output carries no scheduling fields, `merge` of `N` shards reproduces
//! `campaign run` byte for byte. `merge` always emits deterministic
//! (timing-off) output.

use std::collections::HashSet;
use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use krigeval_core::report::Table;
use krigeval_engine::executor::{run_campaign, run_specs_opts, ExecOptions, Progress};
use krigeval_engine::fault::FaultPolicy;
use krigeval_engine::matrix::{check_table_shape, summarize, MatrixSpec};
use krigeval_engine::obs::CampaignObs;
use krigeval_engine::shard::{
    merge_shards, parse_manifest, parse_shard, render_shard, shard_runs, ShardManifest,
};
use krigeval_engine::sink::{
    load_journal, read_artifact_text, to_jsonl_string_full, JournalWriter, SinkOptions,
};
use krigeval_engine::spec::{parse_gate, CampaignSpec, NuggetPolicy, OptimizerSpec, VariogramSpec};
use krigeval_engine::{CacheStats, FailureRecord, RunRecord, SummaryRecord};
use krigeval_obs::{JsonlSink, Registry, Tracer};

fn fail(message: &str) -> ExitCode {
    eprintln!("campaign: {message}");
    eprintln!("run `campaign help` for usage");
    ExitCode::FAILURE
}

fn parse_list<T: std::str::FromStr>(value: &str, flag: &str) -> Result<Vec<T>, String> {
    value
        .split(',')
        .filter(|part| !part.is_empty())
        .map(|part| {
            part.trim()
                .parse::<T>()
                .map_err(|_| format!("bad value {part:?} for {flag}"))
        })
        .collect()
}

fn parse_optimizer(value: &str) -> Result<OptimizerSpec, String> {
    let (head, arg) = match value.split_once(':') {
        Some((h, a)) => (h, Some(a)),
        None => (value, None),
    };
    match head {
        "auto" => Ok(OptimizerSpec::Auto),
        "tiebreak" => Ok(OptimizerSpec::TieBreak {
            tolerance: arg
                .unwrap_or("0.0")
                .parse()
                .map_err(|_| "bad tie tolerance".to_string())?,
        }),
        other => Err(format!("unknown optimizer {other:?}")),
    }
}

struct Cli {
    spec: CampaignSpec,
    workers: usize,
    out: Option<String>,
    timing: bool,
    quiet: bool,
    resume: bool,
    /// DEFLATE-compress the journal and final artifact (`--out` must
    /// end in `.z`).
    compress: bool,
    /// `matrix`: use the CI smoke preset instead of the grid flags.
    smoke: bool,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    /// `shard`: this process's partition slot (`--index`).
    shard_index: Option<u64>,
    /// `shard`: the partition arity (`--of`).
    shard_of: Option<u64>,
    /// Positional arguments (`merge`: the shard files).
    inputs: Vec<String>,
    /// Every flag given, in order.
    flags: Vec<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        spec: CampaignSpec::default(),
        workers: 4,
        out: None,
        timing: false,
        quiet: false,
        resume: false,
        compress: false,
        smoke: false,
        metrics_out: None,
        trace_out: None,
        shard_index: None,
        shard_of: None,
        inputs: Vec::new(),
        flags: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag.starts_with('-') {
            cli.flags.push(flag.clone());
        }
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--spec" => {
                let path = value()?;
                let text =
                    fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
                cli.spec = CampaignSpec::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
            }
            "--benchmarks" => cli.spec.benchmarks = parse_list(value()?, "--benchmarks")?,
            "--scale" => cli.spec.scale = value()?.to_string(),
            "--d" => cli.spec.distances = parse_list(value()?, "--d")?,
            "--nmin" => cli.spec.min_neighbors = parse_list(value()?, "--nmin")?,
            "--lambda" => cli.spec.lambda_min = parse_list(value()?, "--lambda")?,
            "--metric" => cli.spec.metric = value()?.to_string(),
            "--variogram" => cli.spec.variogram = VariogramSpec::parse(value()?)?,
            "--optimizer" => cli.spec.optimizer = parse_optimizer(value()?)?,
            "--seed" => cli.spec.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--repeats" => cli.spec.repeats = value()?.parse().map_err(|_| "bad --repeats")?,
            "--max-neighbors" => {
                cli.spec.max_neighbors = value()?.parse().map_err(|_| "bad --max-neighbors")?
            }
            "--approx" => {
                let screen_to = value()?.parse().map_err(|_| "bad --approx")?;
                let mut approx = cli.spec.approx.unwrap_or_default();
                approx.screen_to = screen_to;
                cli.spec.approx = Some(approx);
            }
            "--approx-epsilon" => {
                let epsilon = value()?.parse().map_err(|_| "bad --approx-epsilon")?;
                let mut approx = cli.spec.approx.unwrap_or_default();
                approx.epsilon = epsilon;
                cli.spec.approx = Some(approx);
            }
            "--gate" => cli.spec.gate = Some(parse_gate(value()?)?),
            "--loo-select" => cli.spec.loo_select = Some(true),
            "--nugget" => {
                cli.spec.nugget = Some(NuggetPolicy::Fixed {
                    value: value()?.parse().map_err(|_| "bad --nugget")?,
                });
            }
            "--name" => cli.spec.name = value()?.to_string(),
            "--no-audit" => cli.spec.audit = false,
            "--workers" => cli.workers = value()?.parse().map_err(|_| "bad --workers")?,
            "--threads" => cli.spec.threads = Some(value()?.parse().map_err(|_| "bad --threads")?),
            "--out" => cli.out = Some(value()?.to_string()),
            "--on-error" => cli.spec.on_error = Some(FaultPolicy::parse(value()?)?),
            "--resume" => cli.resume = true,
            "--compress" => cli.compress = true,
            "--smoke" => cli.smoke = true,
            "--timing" => cli.timing = true,
            "--metrics-out" => cli.metrics_out = Some(value()?.to_string()),
            "--trace-out" => cli.trace_out = Some(value()?.to_string()),
            "--quiet" => cli.quiet = true,
            "--index" => cli.shard_index = Some(value()?.parse().map_err(|_| "bad --index")?),
            "--of" => cli.shard_of = Some(value()?.parse().map_err(|_| "bad --of")?),
            other if !other.starts_with('-') => cli.inputs.push(other.to_string()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    // The `.z` extension is the read-side detection key for compressed
    // artifacts, so it must track the write-side flag both ways.
    if cli.compress {
        match cli.out.as_deref() {
            Some(path) if path.ends_with(".z") => {}
            Some(path) => {
                return Err(format!(
                    "--compress requires --out ending in .z (got {path:?})"
                ))
            }
            None => return Err("--compress requires --out".to_string()),
        }
    } else if cli.out.as_deref().is_some_and(|p| p.ends_with(".z")) {
        return Err(
            "write .z artifacts with --compress (the extension marks compressed files)".to_string(),
        );
    }
    Ok(cli)
}

/// Writes `text` to `--out`, or to stdout without it.
fn emit(cli: &Cli, text: &str) -> Result<(), String> {
    match &cli.out {
        Some(path) => write_artifact(cli, path, text),
        None => {
            print!("{text}");
            std::io::stdout().flush().map_err(|e| e.to_string())
        }
    }
}

/// Writes `text` to `path`, DEFLATE-compressed under `--compress` (a
/// finished stream: `campaign decode` recovers the text bit-exactly with
/// the strict decoder).
fn write_artifact(cli: &Cli, path: &str, text: &str) -> Result<(), String> {
    let written = if cli.compress {
        fs::write(path, krigeval_flate::compress(text.as_bytes()))
    } else {
        fs::write(path, text)
    };
    written.map_err(|e| format!("cannot write {path}: {e}"))
}

/// Removes a torn trailing partial line (no final newline — the writer
/// was killed mid-write) from an uncompressed journal before `--resume`
/// appends to it; appending after a tear would otherwise weld the new
/// row onto the partial line, turning a tolerated torn *tail* into a
/// corrupt line **mid-file** that the next resume rejects.
fn trim_torn_tail(path: &str, text: &str) -> Result<(), String> {
    let keep = match text.rfind('\n') {
        Some(last_newline) if last_newline + 1 < text.len() => last_newline + 1,
        None if !text.is_empty() => 0,
        _ => return Ok(()), // ends on a line boundary (or empty)
    };
    let file = fs::OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| format!("cannot open journal {path}: {e}"))?;
    file.set_len(keep as u64)
        .map_err(|e| format!("cannot trim torn journal tail in {path}: {e}"))
}

/// Reads the journal `--resume` continues (a compressed `.z` journal is
/// decoded, a torn sync-flushed tail included) and its rows, once its
/// first line is this invocation's `manifest`. Another campaign's or
/// another slot's journal, a finished artifact and a journal without a
/// manifest are refused before anything writes to the file.
fn read_journal(
    path: &str,
    manifest: &ShardManifest,
) -> Result<(String, Vec<RunRecord>, Vec<FailureRecord>), String> {
    let text = read_artifact_text(Path::new(path))
        .map_err(|e| format!("cannot read journal {path}: {e}"))?;
    let found = parse_manifest(path, &text)
        .map_err(|e| format!("cannot resume: {e}; a journal starts with its manifest"))?;
    if found != *manifest {
        return Err(format!(
            "cannot resume: {path}: existing manifest does not match this invocation \
             (found {}, expected {})",
            found.render(),
            manifest.render()
        ));
    }
    let (records, failures) = load_journal(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok((text, records, failures))
}

/// Starts the journal at `path`: the manifest, then the rows a resume
/// replays (none on a fresh start). They go to a file beside `path` that
/// is then renamed over it, so `path` never holds a journal without its
/// manifest.
fn create_journal(
    cli: &Cli,
    path: &str,
    manifest: &ShardManifest,
    records: &[RunRecord],
    failures: &[FailureRecord],
    options: SinkOptions,
) -> Result<JournalWriter, String> {
    let tmp = format!("{path}.tmp");
    let journal = if cli.compress {
        JournalWriter::create_compressed(&tmp)
    } else {
        JournalWriter::create(&tmp)
    }
    .map_err(|e| format!("cannot create {path}: {e}"))?;
    let write = |r: std::io::Result<()>| r.map_err(|e| format!("cannot write journal {path}: {e}"));
    write(journal.line(&manifest.render()))?;
    for record in records {
        write(journal.record(record, options))?;
    }
    for failure in failures {
        write(journal.failure(failure, options))?;
    }
    write(fs::rename(&tmp, path))?;
    Ok(journal)
}

/// Observability setup shared by `run`, `shard` and `merge`: one
/// registry and one tracer for the whole invocation, built only when
/// requested — the default path carries no obs bookkeeping at all.
fn build_obs(cli: &Cli) -> Result<(Registry, Option<CampaignObs>), String> {
    let registry = Registry::new();
    let tracer = match &cli.trace_out {
        Some(path) => {
            let sink = JsonlSink::create(Path::new(path), cli.timing)
                .map_err(|e| format!("cannot create trace file {path}: {e}"))?;
            Tracer::new(vec![Arc::new(sink)])
        }
        None => Tracer::disabled(),
    };
    let obs = (cli.metrics_out.is_some() || cli.trace_out.is_some())
        .then(|| CampaignObs::new(&registry, tracer).with_timing(cli.timing));
    Ok((registry, obs))
}

/// Writes the final metrics snapshot to `--metrics-out` (Prometheus text
/// when the path ends in `.prom`, JSON otherwise).
fn write_metrics(cli: &Cli, registry: &Registry) -> Result<(), String> {
    let Some(path) = &cli.metrics_out else {
        return Ok(());
    };
    let snapshot = registry.snapshot();
    let mut text = if path.ends_with(".prom") {
        snapshot.to_prometheus()
    } else {
        snapshot.to_json(cli.timing)
    };
    if !text.ends_with('\n') {
        text.push('\n');
    }
    fs::write(path, text).map_err(|e| format!("cannot write metrics to {path}: {e}"))
}

/// The partition slot of the campaign's expansion an invocation executes.
/// It decides only the finished artifact's shape.
#[derive(Clone, Copy)]
enum Slot {
    /// `campaign run`: slot 0 of 1, finished as rows plus the summary.
    Run,
    /// `campaign shard --index I --of N`: finished as manifest plus rows.
    Shard { index: u64, of: u64 },
}

impl Slot {
    /// The slot a `run` invocation names: slot 0 of 1, so the partition
    /// flags would be dropped.
    fn run(cli: &Cli) -> Result<Slot, String> {
        match cli
            .flags
            .iter()
            .find(|f| matches!(f.as_str(), "--index" | "--of"))
        {
            Some(flag) => Err(format!("run does not take {flag}")),
            None => Ok(Slot::Run),
        }
    }

    /// The slot a `shard` invocation names.
    fn shard(cli: &Cli) -> Result<Slot, String> {
        let index = cli
            .shard_index
            .ok_or_else(|| "shard needs --index (this process's shard, 0-based)".to_string())?;
        let of = cli
            .shard_of
            .ok_or_else(|| "shard needs --of (the total number of shards)".to_string())?;
        if of == 0 {
            return Err("--of must be at least 1".to_string());
        }
        if index >= of {
            return Err(format!("--index {index} is out of range for --of {of}"));
        }
        if cli.out.is_none() {
            return Err("shard needs --out (the shard artifact to write)".to_string());
        }
        Ok(Slot::Shard { index, of })
    }
}

/// Runs slot `I` of `N` of the campaign's expansion, the one path of
/// `run` and `shard`: check and replay the journal (`--resume`), start or
/// continue it, execute the slot's remaining runs, then finish the
/// artifact.
fn execute(cli: &Cli, slot: Slot) -> Result<ExitCode, String> {
    let (index, of) = match slot {
        Slot::Run => (0, 1),
        Slot::Shard { index, of } => (index, of),
    };
    let name = &cli.spec.name;
    let progress = if cli.quiet {
        Progress::Silent
    } else {
        Progress::Stderr
    };
    let options = SinkOptions {
        include_timing: cli.timing,
    };
    let (registry, obs) = build_obs(cli)?;
    let all_runs = cli.spec.expand().map_err(|e| e.to_string())?;
    let total = all_runs.len() as u64;
    let manifest = ShardManifest::new(&cli.spec, index, of, total);

    // Resume: replay the journalled rows, execute only the remainder.
    let (resume_text, mut records, mut failures) = match (&cli.out, cli.resume) {
        (Some(path), true) => read_journal(path, &manifest)?,
        (None, true) => return Err("--resume needs --out (the journal to continue)".to_string()),
        (_, false) => (String::new(), Vec::new(), Vec::new()),
    };
    let done: HashSet<u64> = records
        .iter()
        .map(|r| r.index)
        .chain(failures.iter().map(|f| f.index))
        .collect();
    let runs: Vec<_> = shard_runs(all_runs, index, of)
        .into_iter()
        .filter(|r| !done.contains(&r.index))
        .collect();
    if let Some(obs) = &obs {
        if cli.resume {
            obs.record_resume(done.len() as u64);
        }
        if let Slot::Shard { .. } = slot {
            obs.record_shard(index, of, runs.len() as u64);
        }
    }
    if !cli.quiet {
        match slot {
            Slot::Run if cli.resume => eprintln!(
                "resuming {name:?}: {} of {total} rows journalled, {} to run",
                done.len(),
                runs.len()
            ),
            Slot::Run => {}
            Slot::Shard { .. } => eprintln!(
                "shard {index} of {of} for {name:?}: {} of {total} rows owned, {} to run",
                done.len() + runs.len(),
                runs.len()
            ),
        }
    }

    // With --out, stream every completed row to the journal so a killed
    // campaign can resume. An uncompressed journal is appended to; a
    // compressed one is rewritten from the replayed rows, since a raw
    // DEFLATE stream with a possibly-torn tail cannot be appended to in
    // place.
    let journal = match &cli.out {
        Some(path) if cli.resume && !cli.compress => {
            trim_torn_tail(path, &resume_text)?;
            Some(JournalWriter::append(path).map_err(|e| format!("cannot append {path}: {e}"))?)
        }
        Some(path) => Some(create_journal(
            cli, path, &manifest, &records, &failures, options,
        )?),
        None => None,
    };
    let outcome = run_specs_opts(
        runs,
        ExecOptions {
            workers: cli.workers,
            progress,
            policy: cli.spec.on_error.unwrap_or_default(),
            journal: journal.as_ref(),
            journal_options: options,
            progress_out: None,
            obs: obs.as_ref(),
        },
    )
    .map_err(|e| e.to_string())?;
    drop(journal);

    records.extend(outcome.records.iter().cloned());
    records.sort_by_key(|r| r.index);
    failures.extend(outcome.failures.iter().cloned());
    failures.sort_by_key(|f| f.index);
    let summary = SummaryRecord::from_records(
        name,
        &records,
        &failures,
        outcome.cache,
        outcome.workers,
        cli.timing.then_some(outcome.wall_ms),
    );
    let text = match slot {
        Slot::Run => to_jsonl_string_full(
            &records,
            &failures,
            &outcome.journal_errors,
            &summary,
            options,
        ),
        Slot::Shard { .. } => render_shard(&manifest, &records, &failures, options),
    };
    // The finished artifact replaces the journal through a file beside
    // it and a rename, so a kill at any moment leaves either the
    // resumable journal or the whole artifact.
    match &cli.out {
        Some(path) => {
            let tmp = format!("{path}.tmp");
            write_artifact(cli, &tmp, &text)?;
            fs::rename(&tmp, path).map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        None => emit(cli, &text)?,
    }
    write_metrics(cli, &registry)?;
    if !cli.quiet {
        match slot {
            Slot::Run => {
                eprintln!(
                    "campaign {name:?}: {} runs ({} failed) on {} workers in {:.0} ms; \
                     sims {} / kriges {}; shared cache {} hits / {} lookups",
                    records.len(),
                    failures.len(),
                    outcome.workers,
                    outcome.wall_ms,
                    summary.total_simulated,
                    summary.total_kriged,
                    outcome.cache.hits,
                    outcome.cache.lookups,
                );
                if obs.is_some() {
                    print_obs_summary(&registry, &records);
                }
            }
            Slot::Shard { .. } => eprintln!(
                "shard {index} of {of} for {name:?}: {} runs ({} failed) on {} workers in {:.0} ms",
                records.len(),
                failures.len(),
                outcome.workers,
                outcome.wall_ms,
            ),
        }
    }
    // Lost rows — failed runs kept by the skip policy, or journal writes
    // that never landed — make the artifact incomplete. It is still
    // emitted, but the exit code must say so; this line is printed even
    // under --quiet because a silent success here is the bug.
    if !failures.is_empty() || !outcome.journal_errors.is_empty() {
        let which = match slot {
            Slot::Run => String::new(),
            Slot::Shard { .. } => format!(" shard {index} of {of}"),
        };
        eprintln!(
            "campaign {name:?}{which}: incomplete — {} run(s) failed, {} journal write(s) lost",
            failures.len(),
            outcome.journal_errors.len()
        );
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// The `obs:` lines `run` prints with `--metrics-out` or `--trace-out`.
fn print_obs_summary(registry: &Registry, records: &[RunRecord]) {
    let snapshot = registry.snapshot();
    let counter = |name: &str| snapshot.counter(name).unwrap_or(0);
    eprintln!(
        "obs: runs {} ok / {} failed | journal {} writes / {} errors | \
         hybrid {} queries ({} sim, {} krig, {} cached) | retries {}",
        counter("engine_runs_completed_total"),
        counter("engine_runs_failed_total"),
        counter("engine_journal_writes_total"),
        counter("engine_journal_errors_total"),
        counter("hybrid_queries_total"),
        counter("hybrid_simulated_total"),
        counter("hybrid_kriged_total"),
        counter("hybrid_cache_hits_total"),
        counter("engine_run_retries_total"),
    );
    // Gate decisions and the kriging-variance level, aggregated over the
    // campaign: σ̄² is the kriged-query-weighted mean of the per-run means.
    let kriged_weight: u64 = records.iter().map(|r| r.kriged).sum();
    let mean_variance = if kriged_weight == 0 {
        0.0
    } else {
        records
            .iter()
            .map(|r| r.mean_variance * r.kriged as f64)
            .sum::<f64>()
            / kriged_weight as f64
    };
    eprintln!(
        "obs: gate rejections {} | mean kriging variance {:.6}",
        counter("hybrid_gate_rejections_total"),
        mean_variance,
    );
}

fn cmd_merge(cli: &Cli) -> Result<ExitCode, String> {
    if cli.inputs.is_empty() {
        return Err("merge needs the shard files as positional arguments".to_string());
    }
    let (registry, obs) = build_obs(cli)?;
    let mut shards = Vec::new();
    for path in &cli.inputs {
        // Compressed (`.z`) and plain shard files can be mixed freely;
        // the merge validates and reassembles the *uncompressed* rows
        // either way, so the merged artifact is byte-identical to the
        // single-process uncompressed output.
        let text =
            read_artifact_text(Path::new(path)).map_err(|e| format!("cannot read {path}: {e}"))?;
        shards.push(parse_shard(path.as_str(), &text).map_err(|e| e.to_string())?);
    }
    let (records, failures) = merge_shards(&shards).map_err(|e| e.to_string())?;
    let name = shards[0].manifest.name.clone();
    if let Some(obs) = &obs {
        obs.record_merge(shards.len() as u64, (records.len() + failures.len()) as u64);
    }
    // The merged artifact is always the deterministic (timing-off) form:
    // scheduling ran in other processes, so there is nothing truthful to
    // put in the timing fields — and byte-identity with the
    // single-process deterministic output is the whole point.
    let summary =
        SummaryRecord::from_records(&name, &records, &failures, CacheStats::default(), 1, None);
    emit(
        cli,
        &to_jsonl_string_full(&records, &failures, &[], &summary, SinkOptions::default()),
    )?;
    write_metrics(cli, &registry)?;
    if !cli.quiet {
        eprintln!(
            "merged {} shards of {:?}: {} runs ({} failed)",
            shards.len(),
            name,
            records.len(),
            failures.len(),
        );
    }
    // Failed rows carried by the shards make the merged artifact
    // incomplete, exactly as they would a single-process run (printed
    // even under --quiet).
    if !failures.is_empty() {
        eprintln!(
            "campaign {name:?}: incomplete — {} run(s) failed, 0 journal write(s) lost",
            failures.len(),
        );
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// Flags `matrix` would otherwise drop: the matrix fixes the benchmark
/// list and the kriging policy, and runs in one process.
const NOT_FOR_MATRIX: &str = "--spec --benchmarks --lambda --metric --variogram --optimizer \
     --max-neighbors --approx --approx-epsilon --loo-select --nugget --resume --index --of";

/// The grid flags, which `--smoke` fixes and would otherwise drop.
const NOT_FOR_SMOKE: &str = "--name --scale --d --nmin --gate --threads --seed --repeats \
     --no-audit";

fn cmd_matrix(cli: &Cli) -> Result<ExitCode, String> {
    let listed = |list: &str, f: &String| list.split_whitespace().any(|n| n == f.as_str());
    if let Some(flag) = cli.flags.iter().find(|f| listed(NOT_FOR_MATRIX, f)) {
        return Err(format!("matrix does not take {flag}"));
    }
    if cli.smoke {
        if let Some(flag) = cli.flags.iter().find(|f| listed(NOT_FOR_SMOKE, f)) {
            return Err(format!("matrix --smoke does not take {flag}"));
        }
    }
    let spec = if cli.smoke {
        MatrixSpec::smoke()
    } else {
        // The grid flags (--scale, --d, --nmin, --gate, --threads,
        // --seed, --repeats, --no-audit) parameterize the matrix; the
        // benchmark list is fixed — all eight, that is the point.
        MatrixSpec {
            name: cli.spec.name.clone(),
            scale: cli.spec.scale.clone(),
            distances: cli.spec.distances.clone(),
            min_neighbors: cli.spec.min_neighbors.clone(),
            gate: cli.spec.gate,
            threads: cli.spec.threads.unwrap_or(1),
            seed: cli.spec.seed,
            repeats: cli.spec.repeats,
            audit: cli.spec.audit,
        }
    };
    let progress = if cli.quiet {
        Progress::Silent
    } else {
        Progress::Stderr
    };
    let (registry, obs) = build_obs(cli)?;
    let runs = spec.expand().map_err(|e| e.to_string())?;
    let total = runs.len();
    let outcome = run_specs_opts(
        runs,
        ExecOptions {
            workers: cli.workers,
            progress,
            policy: cli.spec.on_error.unwrap_or_default(),
            journal: None,
            journal_options: SinkOptions {
                include_timing: cli.timing,
            },
            progress_out: None,
            obs: obs.as_ref(),
        },
    )
    .map_err(|e| e.to_string())?;
    let table = Table {
        rows: summarize(&outcome.records),
    };
    emit(cli, &table.to_string())?;
    write_metrics(cli, &registry)?;
    if !cli.quiet {
        eprintln!(
            "matrix {:?}: {} of {total} runs ({} failed) in {} rows on {} workers \
             (threads {}) in {:.0} ms",
            spec.name,
            outcome.records.len(),
            outcome.failures.len(),
            table.rows.len(),
            outcome.workers,
            spec.threads,
            outcome.wall_ms,
        );
    }
    // The Table-I shape expectations are part of the contract: a matrix
    // that silently dropped a benchmark or routed SqueezeNet through the
    // wrong metric must not exit 0 (printed even under --quiet).
    let violations = check_table_shape(&table.rows);
    if !violations.is_empty() || !outcome.failures.is_empty() {
        for violation in &violations {
            eprintln!("matrix shape violation: {violation}");
        }
        eprintln!(
            "matrix {:?}: incomplete — {} run(s) failed, {} shape violation(s)",
            spec.name,
            outcome.failures.len(),
            violations.len()
        );
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_decode(cli: &Cli) -> Result<ExitCode, String> {
    let [input] = cli.inputs.as_slice() else {
        return Err("decode needs exactly one compressed artifact as a positional argument".into());
    };
    let raw = fs::read(input).map_err(|e| format!("cannot read {input}: {e}"))?;
    let prefix =
        krigeval_flate::inflate_tail_tolerant(&raw).map_err(|e| format!("{input}: {e}"))?;
    if !prefix.complete && !cli.quiet {
        eprintln!(
            "{input}: stream is not finished (a live or torn journal); \
             decoded the {}-byte prefix of complete blocks",
            prefix.data.len()
        );
    }
    match &cli.out {
        Some(path) => {
            fs::write(path, &prefix.data).map_err(|e| format!("cannot write {path}: {e}"))?
        }
        None => {
            let mut stdout = std::io::stdout();
            stdout
                .write_all(&prefix.data)
                .and_then(|()| stdout.flush())
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(cli: &Cli) -> Result<(), String> {
    let parallel_workers = cli.workers.max(2);
    eprintln!("sequential baseline (1 worker)...");
    let seq = run_campaign(&cli.spec, 1, Progress::Silent).map_err(|e| e.to_string())?;
    eprintln!("parallel run ({parallel_workers} workers)...");
    let par =
        run_campaign(&cli.spec, parallel_workers, Progress::Silent).map_err(|e| e.to_string())?;
    let strip = |records: &[RunRecord]| -> Vec<RunRecord> {
        records
            .iter()
            .cloned()
            .map(|mut r| {
                r.wall_ms = None;
                r
            })
            .collect()
    };
    let identical = strip(&seq.records) == strip(&par.records);
    let speedup = seq.wall_ms / par.wall_ms.max(1e-9);
    let text = format!(
        "runs: {}\nsequential: {:.0} ms\nparallel ({} workers): {:.0} ms\n\
         speedup: {:.2}x\ncache hits (parallel): {} / {} lookups\n\
         records identical across worker counts: {}\n",
        seq.records.len(),
        seq.wall_ms,
        parallel_workers,
        par.wall_ms,
        speedup,
        par.cache.hits,
        par.cache.lookups,
        identical,
    );
    emit(cli, &text)?;
    if !identical {
        return Err("parallel records diverged from the sequential baseline".to_string());
    }
    Ok(())
}

const HELP: &str =
    "usage: campaign <template|run|matrix|shard|merge|decode|compare|help> [options]\n\
see the module docs (crates/engine/src/bin/campaign.rs) for the option list\n";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => return fail("missing subcommand"),
    };
    if matches!(command, "help" | "--help" | "-h") {
        print!("{HELP}");
        return ExitCode::SUCCESS;
    }
    let cli = match parse_cli(rest) {
        Ok(cli) => cli,
        Err(e) => return fail(&e),
    };
    let result = match command {
        "template" => emit(&cli, &format!("{}\n", cli.spec.to_json())).map(|()| ExitCode::SUCCESS),
        "run" => Slot::run(&cli).and_then(|slot| execute(&cli, slot)),
        "matrix" => cmd_matrix(&cli),
        "shard" => Slot::shard(&cli).and_then(|slot| execute(&cli, slot)),
        "merge" => cmd_merge(&cli),
        "decode" => cmd_decode(&cli),
        "compare" => cmd_compare(&cli).map(|()| ExitCode::SUCCESS),
        other => return fail(&format!("unknown subcommand {other:?}")),
    };
    match result {
        Ok(code) => code,
        Err(e) => fail(&e),
    }
}
