//! Perf smoke: re-measures the kriging hot paths with plain `Instant`
//! loops and writes `BENCH_kriging.json` (repo root) with before/after
//! numbers, so the optimization work stays pinned to a tracked baseline.
//!
//! ```text
//! perfsmoke [--out PATH] [--skip-table1] [--workers N]
//! ```
//!
//! "Before" values are frozen measurements from the pre-overhaul commit
//! (one-shot dense-LU solves, allocating query path) taken on the same
//! container; "after" is measured live. CI runs this with
//! `--skip-table1` as a cheap regression smoke; a full run also times
//! the fast-scale Table I seven times and writes the median with each
//! run's time beside it.

use std::cell::RefCell;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use krigeval_bench::steady::{steady_session, SolveProbes};
use krigeval_bench::suite::{build_seeded, Problem};
use krigeval_bench::Scale;
use krigeval_core::kriging::{KrigingEstimator, KrigingScratch};
use krigeval_core::opt::minplusone::optimize;
use krigeval_core::variogram::EmpiricalVariogram;
use krigeval_core::{
    Config, DistanceMetric, HybridEvaluator, HybridObs, HybridSettings, VariogramModel,
};
use krigeval_engine::matrix::{check_table_shape, summarize, MatrixSpec};
use krigeval_engine::shard::{merge_shards, parse_shard, render_shard, shard_runs, ShardManifest};
use krigeval_engine::sink::to_jsonl_string_full;
use krigeval_engine::spec::GatePolicy;
use krigeval_engine::{
    run_campaign, run_specs_opts, CampaignSpec, EngineBackend, ExecOptions, FaultConfig,
    FaultPolicy, Progress, RunRecord, SimCache, SinkOptions,
};
use krigeval_fixedpoint::CheckpointStore;
use krigeval_obs::{Registry, Tracer};
use krigeval_serve::protocol::{HelloParams, Request, Response};
use krigeval_serve::server::{Server, ServerConfig};
use serde_json::{Number, Value};

/// Frozen medians (µs unless noted), measured with the same loops at the
/// last commit before the hot-path rewrite, except where a constant says
/// otherwise.
mod baseline {
    /// `KrigingEstimator::predict_config`, 16 sites, 10-D.
    pub const KRIGING_SOLVE_N16_US: f64 = 12.575;
    /// Same, 32 sites.
    pub const KRIGING_SOLVE_N32_US: f64 = 60.9;
    /// `KrigingEstimator::predict` over 24 f64 sites.
    pub const ONESHOT_PREDICT_24_US: f64 = 31.165;
    /// Per-query factored prediction (assemble + factor + solve per
    /// target), 24 sites, 10-D — measured on this container immediately
    /// before the multi-RHS batch path landed. The batch-of-24 metric is
    /// gated against this: factoring Γ once must at least halve the
    /// per-prediction cost.
    pub const PER_QUERY_PREDICT_24_US: f64 = 7.780;
    /// Fast-scale Table I (fir, iir, fft, hevc and squeezenet at
    /// d ∈ {2..5}, `N_n,min = 3`) on 4 workers, wall clock (seconds):
    /// the median of seven runs on a 2-vCPU host after the checkpoint
    /// store's eviction index and the column-major pilot variogram (the
    /// pre-overhaul 28.141 s let the 1.25x gate pass a 60x slowdown).
    pub const TABLE1_FAST_WALL_S: f64 = 0.472;
}

/// The criterion bench's deterministic 10-D cloud, duplicated here so the
/// smoke numbers are comparable with `benches/kriging.rs`.
fn cloud(n: usize) -> (Vec<Config>, Vec<f64>) {
    let mut configs = Vec::with_capacity(n);
    let mut values = Vec::with_capacity(n);
    for i in 0..n {
        let config: Config = (0..10)
            .map(|k| 6 + (((i * (k + 3)).wrapping_mul(2654435761) >> 7) % 9) as i32)
            .collect();
        let value = config.iter().map(|&w| 6.0 * f64::from(w)).sum::<f64>() / 10.0;
        configs.push(config);
        values.push(value);
    }
    (configs, values)
}

/// Median of `batches` timed batches of `iters` calls, in µs per call.
fn measure_us(mut routine: impl FnMut(), iters: usize, batches: usize) -> f64 {
    for _ in 0..iters {
        routine(); // warm-up: fault in code and grow scratch buffers
    }
    median(
        (0..batches)
            .map(|_| time_batch_us(&mut routine, iters))
            .collect(),
    )
}

/// One timed batch of `iters` calls, in µs per call.
fn time_batch_us(routine: &mut impl FnMut(), iters: usize) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        routine();
    }
    start.elapsed().as_secs_f64() * 1e6 / iters as f64
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_unstable_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The medians of an interleaved measurement ([`measure_pair_us`]).
struct Pair {
    /// `a`'s median, µs per call.
    a_us: f64,
    /// `b`'s median, µs per call.
    b_us: f64,
    /// The median over pairs of `b / a`: what the ratio gates read.
    ratio: f64,
}

/// Interleaved variant of [`measure_us`] for ratio gates: timed batches
/// of `a` and `b` alternate, so every batch runs right after one of the
/// other side and clock-frequency and host-load drift hit both sides
/// equally. Any two adjacent batches form a pair, so the side that runs
/// first alternates from pair to pair (`a₀b₀`, `b₀a₁`, `a₁b₁`, ...), and
/// each pair gives one ratio `b / a`. A ratio gate reads their median,
/// which a drift between pairs leaves alone.
fn measure_pair_us(mut a: impl FnMut(), mut b: impl FnMut(), iters: usize, batches: usize) -> Pair {
    for _ in 0..iters {
        a();
        b();
    }
    let mut a_samples = Vec::with_capacity(batches);
    let mut b_samples = Vec::with_capacity(batches);
    for _ in 0..batches {
        a_samples.push(time_batch_us(&mut a, iters));
        b_samples.push(time_batch_us(&mut b, iters));
    }
    let a_first = a_samples.iter().zip(&b_samples).map(|(a, b)| b / a);
    let b_first = b_samples.iter().zip(&a_samples[1..]).map(|(b, a)| b / a);
    let ratios = a_first.chain(b_first).collect();
    Pair {
        a_us: median(a_samples),
        b_us: median(b_samples),
        ratio: median(ratios),
    }
}

fn num(v: f64) -> Value {
    Value::Number(Number::Float(v))
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn metric(before: Option<f64>, after: f64) -> Value {
    match before {
        Some(b) => obj(vec![
            ("before", num(b)),
            ("after", num(after)),
            ("speedup", num(b / after)),
        ]),
        None => obj(vec![("before", Value::Null), ("after", num(after))]),
    }
}

fn kriging_solve_us(n: usize) -> f64 {
    let (configs, values) = cloud(n);
    let estimator = KrigingEstimator::new(VariogramModel::linear(2.0));
    let target = vec![9; 10];
    measure_us(
        || {
            let p = estimator
                .predict_config(&configs, &values, &target)
                .expect("solvable system");
            std::hint::black_box(p.value);
        },
        2048,
        15,
    )
}

fn oneshot_predict_24_us() -> f64 {
    let (configs, values) = cloud(24);
    let sites: Vec<Vec<f64>> = configs
        .iter()
        .map(|cfg| cfg.iter().map(|&x| f64::from(x)).collect())
        .collect();
    let estimator = KrigingEstimator::new(VariogramModel::linear(2.0));
    let target: Vec<f64> = vec![9.0; 10];
    measure_us(
        || {
            let p = estimator
                .predict(&sites, &values, &target)
                .expect("solvable system");
            std::hint::black_box(p.value);
        },
        2048,
        15,
    )
}

/// Batch-of-24 shared-neighbour predictions through the production group
/// solve, [`KrigingScratch::solve_group_with`]: one Γ assembly, one
/// Bunch–Kaufman factorization and one blocked 24-RHS solve, reported as
/// µs **per prediction** so it is directly comparable with the frozen
/// per-query number (which re-assembles and re-factors for every target).
///
/// Measured in two interleaved flavours and returned as
/// `(value_only, with_variance, ratio)`: the first reads every target's
/// value (`group_interpolate`), the second also reads its kriging variance
/// σ² (`group_variance`) — exactly what the variance gate consumes per
/// decision. σ² is a byproduct of the same bordered solve that produces
/// the weights, so surfacing it must be (near) free: the median per-pair
/// ratio of the two is gated at ≤1.05x.
fn multi_rhs_predict_us() -> (f64, f64, f64) {
    let (configs, values) = cloud(24);
    let sites: Vec<Vec<f64>> = configs
        .iter()
        .map(|cfg| cfg.iter().map(|&x| f64::from(x)).collect())
        .collect();
    // 24 distinct targets interleaved through the cloud's bounding box.
    let targets: Vec<Vec<f64>> = (0..24)
        .map(|t| (0..10).map(|k| 6.5 + ((t + k) % 9) as f64 * 0.5).collect())
        .collect();
    let model = VariogramModel::linear(2.0);
    let n = sites.len();
    let gamma = |i: usize, j: usize| {
        let other = if j < n { &sites[j] } else { &targets[j - n] };
        model.evaluate(DistanceMetric::L1.eval(&sites[i], other))
    };
    // Both sides solve in one shared scratch, so where its buffers happen
    // to land in memory cannot favour either side of the ratio.
    let scratch = RefCell::new(KrigingScratch::new());
    let pair = measure_pair_us(
        || {
            let mut scratch = scratch.borrow_mut();
            scratch
                .solve_group_with(n, targets.len(), gamma)
                .expect("solvable system");
            for t in 0..targets.len() {
                std::hint::black_box(scratch.group_interpolate(t, &values));
            }
        },
        || {
            let mut scratch = scratch.borrow_mut();
            scratch
                .solve_group_with(n, targets.len(), gamma)
                .expect("solvable system");
            for t in 0..targets.len() {
                std::hint::black_box(scratch.group_interpolate(t, &values));
                std::hint::black_box(scratch.group_variance(t));
            }
        },
        256,
        15,
    );
    (pair.a_us / 24.0, pair.b_us / 24.0, pair.ratio)
}

/// Screened (n=16) vs exact (n=64) solve cost on one 64-site system —
/// the per-query saving the opt-in approximate path buys when its
/// leave-one-out validation accepts. Returns `(exact_us, screened_us)`.
fn approx_predict_n64_us() -> (f64, f64) {
    let (configs, values) = cloud(64);
    let estimator = KrigingEstimator::new(VariogramModel::linear(2.0));
    let target = vec![9; 10];
    let exact = measure_us(
        || {
            let p = estimator
                .predict_config(&configs, &values, &target)
                .expect("solvable system");
            std::hint::black_box(p.value);
        },
        512,
        15,
    );
    let screened = measure_us(
        || {
            let p = estimator
                .predict_config(&configs[..16], &values[..16], &target)
                .expect("solvable system");
            std::hint::black_box(p.value);
        },
        512,
        15,
    );
    (exact, screened)
}

/// A deterministic trajectory shaped like a min+1 run over `nv`
/// variables: from a minimal configuration, each step simulates the
/// `nv` neighbours `w + e_i` and moves to the one with the lowest noise
/// power, until `sites` configurations are simulated.
fn minplusone_trajectory(sites: usize, nv: usize) -> (Vec<Config>, Vec<f64>) {
    let noise_db = |w: &[i32]| {
        let power: f64 = w
            .iter()
            .enumerate()
            .map(|(i, &wi)| (1 + i * 7 % 5) as f64 * (-2.0 * f64::from(wi)).exp2())
            .sum();
        10.0 * power.log10()
    };
    let mut w = vec![4; nv];
    let mut configs = vec![w.clone()];
    let mut values = vec![noise_db(&w)];
    while configs.len() < sites {
        let mut best = (f64::INFINITY, 0);
        for i in 0..nv.min(sites - configs.len()) {
            let mut neighbour = w.clone();
            neighbour[i] += 1;
            let value = noise_db(&neighbour);
            if value < best.0 {
                best = (value, i);
            }
            configs.push(neighbour);
            values.push(value);
        }
        w[best.1] += 1;
    }
    (configs, values)
}

/// The pilot variogram of table1-smoke's largest run: `from_configs`
/// over a min+1 trajectory of 1,388 configurations of 23 variables, the
/// size of hevc_mc's fast-scale pilot, in ms.
fn variogram_pilot_ms() -> f64 {
    let (configs, values) = minplusone_trajectory(1388, 23);
    measure_us(
        || {
            let v = EmpiricalVariogram::from_configs(&configs, &values, DistanceMetric::L1)
                .expect("non-degenerate");
            std::hint::black_box(v.total_pairs());
        },
        1,
        11,
    ) / 1e3
}

/// An evicting insert into a full checkpoint store of 10 and of 1,000
/// hevc_mc-sized stage states (336 `f64`s under a six-word key: a
/// fast-scale hevc_mc store holds about 775 entries at its 2 MiB cap),
/// timed in interleaved batches; `(10, 1000)` in µs per insert.
fn checkpoint_insert_full_us() -> (f64, f64) {
    const LEN: usize = 336;
    let insert_into_full = |entries: u64| {
        let store = CheckpointStore::new(1, entries as usize * (6 * 8 + LEN * 8));
        for key in 0..entries {
            store.insert(&[key, 0, 1, 2, 3, 4], vec![0.0f64; LEN]);
        }
        let mut key = entries;
        move || {
            key += 1;
            store.insert(&[key, 0, 1, 2, 3, 4], vec![0.0; LEN]);
        }
    };
    let pair = measure_pair_us(insert_into_full(10), insert_into_full(1000), 2000, 15);
    (pair.a_us, pair.b_us)
}

/// The kriged evaluate's solve path: a steady-state session queried at
/// configurations the kriged-answer memo cannot answer (see
/// [`krigeval_bench::steady`]), so each evaluate searches neighbours,
/// solves a nine-neighbour system and keeps the answer.
fn hybrid_steady_state_us() -> f64 {
    let mut hybrid = steady_session();
    let mut probes = SolveProbes::default();
    measure_us(
        || {
            let out = probes.evaluate(&mut hybrid).expect("kriged evaluate");
            std::hint::black_box(out.value());
        },
        4096,
        15,
    )
}

/// Observability overhead on the kriged hot path: two identical
/// steady-state sessions, one with a full metrics bundle attached
/// (registry counters plus a disabled tracer — the configuration every
/// `--metrics-out` campaign runs with), timed in interleaved batches so
/// frequency drift hits both sides equally. Returns the `(base,
/// with_obs)` pair in µs per evaluate, first on the solve path, then on
/// the recalled path (one probe re-queried at an unchanged state,
/// answered by the memo).
fn hybrid_obs_overhead_us() -> (Pair, Pair) {
    let registry = Registry::new();
    let mut base = steady_session();
    let mut with_obs = steady_session();
    with_obs.set_obs(Some(HybridObs::new(&registry, Tracer::disabled())));
    let (mut base_probes, mut obs_probes) = (SolveProbes::default(), SolveProbes::default());
    let solve = measure_pair_us(
        || {
            let out = base_probes.evaluate(&mut base).expect("kriged evaluate");
            std::hint::black_box(out.value());
        },
        || {
            let out = obs_probes.evaluate(&mut with_obs).expect("kriged evaluate");
            std::hint::black_box(out.value());
        },
        4096,
        15,
    );
    let probe = base_probes.probe().clone();
    let recalled = measure_pair_us(
        || {
            let out = base.evaluate(&probe).expect("kriged evaluate");
            std::hint::black_box(out.value());
        },
        || {
            let out = with_obs.evaluate(&probe).expect("kriged evaluate");
            std::hint::black_box(out.value());
        },
        4096,
        15,
    );
    (solve, recalled)
}

/// End-to-end min+1 on the paper-scale IIR-8 instance through the hybrid
/// evaluator. `workers = None` drives the inline backend (the evaluator
/// itself); `Some(n)` drives the engine backend's worker pool over a fresh
/// shared cache. Pool construction happens outside the timer — in a
/// campaign it amortizes over many runs, and what this measures is the
/// plan/fulfill fan-out cost. Median of 3 fresh sessions, milliseconds.
/// Wall-clock speedup at 4 workers requires 4 host cores; on fewer the
/// pool can only break even, so the enforced gate is the 1-worker
/// overhead bound and the JSON records `host_cores` alongside the
/// timings so the speedup number is interpretable.
fn minplusone_iir8_ms(workers: Option<usize>) -> f64 {
    let run = || {
        let instance = build_seeded(Problem::Iir, Scale::Paper, 0);
        let options = instance.minplusone.expect("iir is a word-length problem");
        let result = match workers {
            None => {
                let mut hybrid =
                    HybridEvaluator::new(instance.evaluator, HybridSettings::default());
                let start = Instant::now();
                let result = optimize(&mut hybrid, &options).expect("min+1 converges");
                (start.elapsed(), result)
            }
            Some(n) => {
                let backend = EngineBackend::new(
                    || build_seeded(Problem::Iir, Scale::Paper, 0).evaluator,
                    n,
                    Arc::new(SimCache::new()),
                    "perfsmoke",
                );
                let mut hybrid = HybridEvaluator::new(backend, HybridSettings::default());
                let start = Instant::now();
                let result = optimize(&mut hybrid, &options).expect("min+1 converges");
                (start.elapsed(), result)
            }
        };
        std::hint::black_box(result.1.lambda);
        result.0.as_secs_f64() * 1e3
    };
    let mut samples: Vec<f64> = (0..3).map(|_| run()).collect();
    samples.sort_unstable_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Wall-clock budget for one kriged round trip against a local `krigeval
/// serve` instance: socket + frame codec + dispatch + a memo-recalled
/// kriged answer. Loopback TCP with `TCP_NODELAY` costs tens of µs; 5 ms
/// leaves an order-of-magnitude margin for a loaded CI host while still
/// catching an accidental sync sleep or per-request allocation storm in
/// the serve path.
const SERVER_RTT_BUDGET_US: f64 = 5_000.0;

/// Ceiling of `server_roundtrip.first_frame_ms`. The accept thread
/// blocks in `accept`, so the first `ping` is answered in well under a
/// millisecond; an accept loop that polls adds up to its poll interval
/// (25 ms before the blocking acceptor).
const FIRST_FRAME_BUDGET_MS: f64 = 10.0;

/// Fresh servers [`first_frame_ms`] starts; it reports their median.
const FIRST_FRAME_SERVERS: usize = 9;

/// How long [`first_frame_ms`] leaves a fresh server idle before it
/// connects: long enough for the accept thread to reach its wait. A
/// connect made at once can beat the thread's first `accept` call, and
/// so pass a polling acceptor without a poll.
const FIRST_FRAME_IDLE_MS: u64 = 2;

/// Ceiling of `checkpoint_insert_full_ratio`.
const CHECKPOINT_INSERT_RATIO_BUDGET: f64 = 3.0;

/// Round-trip latency of a single kriged evaluate against an in-process
/// `krigeval-serve` server over real loopback TCP: median µs per
/// request/response frame pair on a warm session. The timed probe is
/// re-queried at an unchanged session state, so after its first solve the
/// kriged-answer memo answers it: this is the wire plus the recalled path.
fn server_roundtrip_us() -> f64 {
    let server = Server::start(ServerConfig {
        threads: 1,
        max_inflight: 4,
        ..ServerConfig::default()
    })
    .expect("start server");
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut roundtrip = |request: &Request| -> Response {
        let mut line = request.to_line();
        line.push('\n');
        writer.write_all(line.as_bytes()).expect("send frame");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("recv frame");
        Response::from_line(reply.trim()).expect("parse frame")
    };

    // Warm a session into its kriging steady state: identify the
    // variogram from a 30-point seed grid on the first two word-lengths,
    // then probe just outside it — close enough for neighbors, never
    // stored, so every timed request is answered kriged (recalled after
    // the first solve).
    let nv = match roundtrip(&Request::Hello(HelloParams {
        benchmark: "iir8".to_string(),
        variogram: Some("fit-after:30".to_string()),
        ..HelloParams::default()
    })) {
        Response::Session { nv, .. } => nv as usize,
        other => panic!("expected session frame, got {}", other.to_line()),
    };
    let seed_grid: Vec<Vec<i32>> = (4..10)
        .flat_map(|a| {
            (4..9).map(move |b| {
                let mut config = vec![8; nv];
                config[0] = a;
                config[1] = b;
                config
            })
        })
        .collect();
    match roundtrip(&Request::EvaluateBatch { configs: seed_grid }) {
        Response::Values { outcomes } => assert_eq!(outcomes.len(), 30),
        other => panic!("expected values frame, got {}", other.to_line()),
    }
    let mut probe = vec![8; nv];
    probe[0] = 10;
    probe[1] = 6;
    let evaluate = Request::Evaluate {
        config: probe.clone(),
    };
    match roundtrip(&evaluate) {
        Response::Value(outcome) => assert_eq!(
            outcome.source, "kriged",
            "probe must take the kriged-hit path"
        ),
        other => panic!("expected value frame, got {}", other.to_line()),
    }

    let rtt = measure_us(
        || match roundtrip(&evaluate) {
            Response::Value(outcome) => {
                std::hint::black_box(outcome.value);
            }
            other => panic!("expected value frame, got {}", other.to_line()),
        },
        256,
        11,
    );
    drop(reader);
    drop(writer);
    server.join().expect("drain server");
    rtt
}

/// Milliseconds from `connect` to the `pong` answering a `ping` on a
/// server's first connection, made [`FIRST_FRAME_IDLE_MS`] after
/// `Server::start`: the median over [`FIRST_FRAME_SERVERS`] fresh
/// servers. The drain after each is not timed.
fn first_frame_ms() -> f64 {
    let mut samples: Vec<f64> = (0..FIRST_FRAME_SERVERS)
        .map(|_| {
            let server = Server::start(ServerConfig::default()).expect("start server");
            std::thread::sleep(Duration::from_millis(FIRST_FRAME_IDLE_MS));
            let started = Instant::now();
            let mut stream = TcpStream::connect(server.addr()).expect("connect");
            stream.set_nodelay(true).expect("nodelay");
            let mut frame = Request::Ping.to_line();
            frame.push('\n');
            stream.write_all(frame.as_bytes()).expect("send ping");
            let mut reply = String::new();
            BufReader::new(&stream)
                .read_line(&mut reply)
                .expect("recv pong");
            let ms = started.elapsed().as_secs_f64() * 1e3;
            assert_eq!(Response::from_line(reply.trim()), Ok(Response::Pong));
            drop(stream);
            server.join().expect("drain server");
            ms
        })
        .collect();
    samples.sort_unstable_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Wall time of the process-sharding round trip on a fast chaos
/// campaign: execute 3 shards (serially, in-process — what a CI matrix
/// does across jobs), then parse + merge the shard artifacts back into
/// the single-process JSONL. Returns `(shard_ms, merge_ms)`: total
/// execution wall for the three shards and the reassembly cost alone.
/// Transient faults (errors only, so the bench log stays quiet) are
/// active to keep the measured path the one CI exercises.
fn shard_merge_wall_ms() -> (f64, f64) {
    let spec = CampaignSpec {
        name: "perfshard".to_string(),
        benchmarks: vec!["fir".to_string()],
        distances: vec![2.0, 3.0, 4.0],
        repeats: 2,
        on_error: Some(FaultPolicy::Skip),
        faults: Some(FaultConfig {
            panic_rate: 0.0,
            error_rate: 0.002,
            nan_rate: 0.002,
            seed: 7,
        }),
        ..CampaignSpec::default()
    };
    let runs = spec.expand().expect("valid spec");
    let total = runs.len() as u64;

    let start = Instant::now();
    let mut artifacts = Vec::new();
    for index in 0..3u64 {
        let manifest = ShardManifest::new(&spec, index, 3, total);
        let outcome = run_specs_opts(
            shard_runs(runs.clone(), index, 3),
            ExecOptions {
                workers: 2,
                progress: Progress::Silent,
                policy: FaultPolicy::Skip,
                journal: None,
                journal_options: SinkOptions::default(),
                progress_out: None,
                obs: None,
            },
        )
        .expect("shard completes under skip");
        artifacts.push(render_shard(
            &manifest,
            &outcome.records,
            &outcome.failures,
            SinkOptions::default(),
        ));
    }
    let shard_ms = start.elapsed().as_secs_f64() * 1e3;

    let start = Instant::now();
    let shards: Vec<_> = artifacts
        .iter()
        .enumerate()
        .map(|(i, text)| parse_shard(format!("shard{i}.jsonl"), text).expect("shard parses"))
        .collect();
    let (records, failures) = merge_shards(&shards).expect("shards merge");
    std::hint::black_box(records.len() + failures.len());
    let merge_ms = start.elapsed().as_secs_f64() * 1e3;
    (shard_ms, merge_ms)
}

/// DEFLATE compression ratio and streaming throughput over a real
/// campaign artifact: the corpus is the finalized JSONL of a fast fir
/// chaos campaign, tiled to ~1 MiB so the window-scanning matcher sees
/// the long-range redundancy a multi-thousand-row journal has. Returns
/// `(ratio, encode_mib_s, decode_mib_s)` where ratio is
/// `compressed / plain` (smaller is better).
fn deflate_metrics() -> (f64, f64, f64) {
    let spec = CampaignSpec {
        name: "perfflate".to_string(),
        benchmarks: vec!["fir".to_string()],
        distances: vec![2.0, 3.0, 4.0],
        repeats: 2,
        ..CampaignSpec::default()
    };
    let outcome = run_specs_opts(
        spec.expand().expect("valid spec"),
        ExecOptions {
            workers: 2,
            progress: Progress::Silent,
            ..ExecOptions::default()
        },
    )
    .expect("corpus campaign completes");
    let summary = krigeval_engine::SummaryRecord::from_records(
        &spec.name,
        &outcome.records,
        &outcome.failures,
        krigeval_engine::CacheStats::default(),
        2,
        None,
    );
    let artifact = to_jsonl_string_full(
        &outcome.records,
        &outcome.failures,
        &[],
        &summary,
        SinkOptions::default(),
    );
    let mut corpus = String::new();
    while corpus.len() < 1 << 20 {
        corpus.push_str(&artifact);
    }
    let plain = corpus.as_bytes();
    let compressed = krigeval_flate::compress(plain);
    let ratio = compressed.len() as f64 / plain.len() as f64;
    let mib = plain.len() as f64 / (1024.0 * 1024.0);
    let encode_us = measure_us(
        || {
            let out = krigeval_flate::compress(plain);
            std::hint::black_box(out.len());
        },
        4,
        11,
    );
    let decode_us = measure_us(
        || {
            let out = krigeval_flate::inflate(&compressed).expect("own stream inflates");
            std::hint::black_box(out.len());
        },
        4,
        11,
    );
    (ratio, mib / (encode_us * 1e-6), mib / (decode_us * 1e-6))
}

/// Wall clock of the full eight-benchmark Table-I scenario matrix at
/// smoke scale through the engine backend — the same configuration the
/// CI matrix step runs — with the summary shape-checked so the number
/// only lands in the JSON when the matrix actually held its contract.
fn matrix_smoke_wall_s(workers: usize) -> f64 {
    let spec = MatrixSpec::smoke();
    let runs = spec.expand().expect("smoke matrix expands");
    let start = Instant::now();
    let outcome = run_specs_opts(
        runs,
        ExecOptions {
            workers,
            progress: Progress::Silent,
            ..ExecOptions::default()
        },
    )
    .expect("smoke matrix completes");
    let wall = start.elapsed().as_secs_f64();
    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
    let violations = check_table_shape(&summarize(&outcome.records));
    assert!(violations.is_empty(), "{violations:?}");
    wall
}

/// Measured (not gated) effect of the adaptive decision modes on one
/// Table-I-shaped fast campaign: the audited d-sweep runs once with the
/// fixed gate (today's default decision policy), then again with the
/// variance gate plus LOO-CV model selection, the σ² threshold
/// self-calibrated from the fixed sweep's own mean accepted variance —
/// roughly half the would-be interpolations sit above it, so the gate
/// has real rejections to show. Returns the JSON entry for the
/// `adaptive_gate` metric and logs the p/ε̄ deltas.
fn adaptive_gate_entry(problem: &str, workers: usize) -> Value {
    fn campaign(
        problem: &str,
        gate: Option<GatePolicy>,
        loo: bool,
        workers: usize,
    ) -> Vec<RunRecord> {
        let spec = CampaignSpec {
            name: format!("perfsmoke-gate-{problem}"),
            benchmarks: vec![problem.to_string()],
            gate,
            loo_select: loo.then_some(true),
            ..CampaignSpec::default()
        };
        let runs = spec.expand().expect("valid spec");
        run_specs_opts(
            runs,
            ExecOptions {
                workers,
                progress: Progress::Silent,
                policy: FaultPolicy::FailFast,
                journal: None,
                journal_options: SinkOptions::default(),
                progress_out: None,
                obs: None,
            },
        )
        .expect("gate campaign completes")
        .records
    }
    /// `(p_percent, audit_mean_eps, mean_variance, gate_rejections)`
    /// aggregated over the sweep: p from the raw query/kriged counters,
    /// ε̄ weighted by audit count, σ̄² weighted by kriged count.
    fn summarize(records: &[RunRecord]) -> (f64, f64, f64, u64) {
        let queries: u64 = records.iter().map(|r| r.queries).sum();
        let kriged: u64 = records.iter().map(|r| r.kriged).sum();
        let p = if queries > 0 {
            100.0 * kriged as f64 / queries as f64
        } else {
            0.0
        };
        let audits: u64 = records.iter().map(|r| r.audit_count).sum();
        let eps = if audits > 0 {
            records
                .iter()
                .map(|r| r.audit_mean_eps * r.audit_count as f64)
                .sum::<f64>()
                / audits as f64
        } else {
            0.0
        };
        let variance = if kriged > 0 {
            records
                .iter()
                .map(|r| r.mean_variance * r.kriged as f64)
                .sum::<f64>()
                / kriged as f64
        } else {
            0.0
        };
        let rejections: u64 = records.iter().map(|r| r.gate_rejections).sum();
        (p, eps, variance, rejections)
    }
    let fixed = campaign(problem, None, false, workers);
    let (p_fixed, eps_fixed, var_fixed, _) = summarize(&fixed);
    let threshold = if var_fixed > 0.0 { var_fixed } else { 1.0 };
    let adaptive = campaign(
        problem,
        Some(GatePolicy::Variance { threshold }),
        true,
        workers,
    );
    let (p_adaptive, eps_adaptive, var_adaptive, rejections) = summarize(&adaptive);
    eprintln!(
        "  adaptive gate {problem:<4} p {p_fixed:>6.2}% -> {p_adaptive:>6.2}%, \
         audit eps {eps_fixed:.4} -> {eps_adaptive:.4}, \
         rejections {rejections} (threshold {threshold:.4})"
    );
    obj(vec![
        ("variance_threshold", num(threshold)),
        (
            "fixed",
            obj(vec![
                ("p_percent", num(p_fixed)),
                ("audit_mean_eps", num(eps_fixed)),
                ("mean_variance", num(var_fixed)),
            ]),
        ),
        (
            "variance_loo",
            obj(vec![
                ("p_percent", num(p_adaptive)),
                ("audit_mean_eps", num(eps_adaptive)),
                ("mean_variance", num(var_adaptive)),
                ("gate_rejections", Value::Number(Number::PosInt(rejections))),
            ]),
        ),
    ])
}

/// Runs of the fast-scale Table-I campaign per measurement: its baseline
/// is the median of seven, so the gate takes the median of seven too.
const TABLE1_RUNS: usize = 7;

/// Wall clocks, in run order, of [`TABLE1_RUNS`] runs of the fast-scale
/// Table-I campaign: the paper's five benchmarks over d ∈ {2..5} at
/// `N_n,min = 3`, pilot variogram, audit on.
fn table1_fast_wall_s(workers: usize) -> Vec<f64> {
    let spec = CampaignSpec {
        name: "table1".to_string(),
        benchmarks: Problem::all()
            .iter()
            .map(|p| p.label().to_string())
            .collect(),
        scale: Scale::Fast.label().to_string(),
        distances: vec![2.0, 3.0, 4.0, 5.0],
        min_neighbors: vec![3],
        ..CampaignSpec::default()
    };
    (0..TABLE1_RUNS)
        .map(|_| {
            let start = Instant::now();
            let outcome =
                run_campaign(&spec, workers, Progress::Silent).expect("table1 fast campaign");
            std::hint::black_box(outcome.records.len());
            start.elapsed().as_secs_f64()
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_kriging.json".to_string();
    let mut skip_table1 = false;
    let mut workers = 4usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_path = args[i].clone();
            }
            "--skip-table1" => skip_table1 = true,
            "--workers" => {
                i += 1;
                workers = args[i].parse().expect("--workers takes a number");
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: perfsmoke [--out PATH] [--skip-table1] [--workers N]");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!("perfsmoke: measuring kriging hot paths ({host_cores} host cores) ...");
    let n16 = kriging_solve_us(16);
    eprintln!("  kriging solve n=16        {n16:>10.3} us");
    let n32 = kriging_solve_us(32);
    eprintln!("  kriging solve n=32        {n32:>10.3} us");
    let oneshot = oneshot_predict_24_us();
    eprintln!("  one-shot predict 24 sites {oneshot:>10.3} us");
    let (multi_rhs, variance_pred, variance_ratio) = multi_rhs_predict_us();
    eprintln!("  multi-RHS predict (24)    {multi_rhs:>10.3} us/prediction");
    eprintln!(
        "  multi-RHS + variance (24) {variance_pred:>10.3} us/prediction (x{variance_ratio:.3})"
    );
    let (approx_exact, approx_screened) = approx_predict_n64_us();
    eprintln!(
        "  approx predict n=64       {approx_screened:>10.3} us (exact {approx_exact:.3} us)"
    );
    let pilot_ms = variogram_pilot_ms();
    eprintln!("  pilot variogram 1388x23   {pilot_ms:>10.3} ms");
    let (insert_small, insert_large) = checkpoint_insert_full_us();
    let insert_ratio = insert_large / insert_small;
    eprintln!(
        "  evicting insert @1000     {insert_large:>10.3} us \
         (@10 {insert_small:.3} us, x{insert_ratio:.2})"
    );
    let hybrid = hybrid_steady_state_us();
    eprintln!("  hybrid kriged evaluate    {hybrid:>10.3} us");
    let (obs, recalled) = hybrid_obs_overhead_us();
    let (obs_base, obs_with, obs_ratio) = (obs.a_us, obs.b_us, obs.ratio);
    let (recalled_base, recalled_obs) = (recalled.a_us, recalled.b_us);
    eprintln!(
        "  kriged evaluate + obs     {obs_with:>10.3} us (base {obs_base:.3} us, x{obs_ratio:.3})"
    );
    let recalled_obs_ns = (recalled_obs - recalled_base) * 1e3;
    eprintln!(
        "  recalled kriged evaluate  {recalled_base:>10.3} us (obs +{recalled_obs_ns:.1} ns)"
    );
    let mp_serial = minplusone_iir8_ms(None);
    eprintln!("  min+1 iir8 inline         {mp_serial:>10.3} ms");
    let mp_engine1 = minplusone_iir8_ms(Some(1));
    eprintln!("  min+1 iir8 engine @1      {mp_engine1:>10.3} ms");
    let mp_engine4 = minplusone_iir8_ms(Some(4));
    eprintln!("  min+1 iir8 engine @4      {mp_engine4:>10.3} ms");
    let server_rtt = server_roundtrip_us();
    eprintln!("  serve kriged RTT          {server_rtt:>10.3} us");
    let first_frame = first_frame_ms();
    eprintln!("  serve first frame         {first_frame:>10.3} ms");
    let (shard_ms, merge_ms) = shard_merge_wall_ms();
    eprintln!("  3-shard chaos campaign    {shard_ms:>10.3} ms");
    eprintln!("  shard merge               {merge_ms:>10.3} ms");
    let (deflate_ratio, encode_mib_s, decode_mib_s) = deflate_metrics();
    eprintln!(
        "  deflate journal corpus    ratio {deflate_ratio:.3}, \
         encode {encode_mib_s:.1} MiB/s, decode {decode_mib_s:.1} MiB/s"
    );
    let gate_fir = adaptive_gate_entry("fir", workers);
    let gate_iir = adaptive_gate_entry("iir", workers);
    // The matrix rides the same skip flag as table1: CI runs `campaign
    // matrix --smoke` as its own job step, so the perfsmoke regression
    // smoke stays cheap; the committed JSON carries both wall times.
    let matrix = if skip_table1 {
        None
    } else {
        eprintln!("  smoke matrix ({workers} workers) ...");
        let s = matrix_smoke_wall_s(workers);
        eprintln!("  smoke matrix wall         {s:>10.3} s");
        Some(s)
    };
    let table1 = if skip_table1 {
        None
    } else {
        eprintln!("  table1 fast campaign ({workers} workers, {TABLE1_RUNS} runs) ...");
        let samples = table1_fast_wall_s(workers);
        let mut sorted = samples.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        let median = sorted[TABLE1_RUNS / 2];
        eprintln!("  table1 fast wall (median) {median:>10.3} s");
        Some((median, samples))
    };

    let mut metrics = vec![
        (
            "kriging_solve_n16_us",
            metric(Some(baseline::KRIGING_SOLVE_N16_US), n16),
        ),
        (
            "kriging_solve_n32_us",
            metric(Some(baseline::KRIGING_SOLVE_N32_US), n32),
        ),
        (
            "oneshot_predict_24sites_us",
            metric(Some(baseline::ONESHOT_PREDICT_24_US), oneshot),
        ),
        (
            "multi_rhs_predict_us",
            metric(Some(baseline::PER_QUERY_PREDICT_24_US), multi_rhs),
        ),
        (
            "variance_predict_us",
            obj(vec![
                ("value_only_us", num(multi_rhs)),
                ("with_variance_us", num(variance_pred)),
                ("overhead_ratio", num(variance_ratio)),
            ]),
        ),
        (
            "approx_predict_n64_us",
            obj(vec![
                ("exact_us", num(approx_exact)),
                ("screened_us", num(approx_screened)),
                ("speedup", num(approx_exact / approx_screened)),
            ]),
        ),
        ("variogram_pilot_1388x23_ms", metric(None, pilot_ms)),
        (
            "checkpoint_insert_full_ratio",
            obj(vec![
                ("insert_10_entries_us", num(insert_small)),
                ("insert_1000_entries_us", num(insert_large)),
                ("ratio", num(insert_ratio)),
                ("budget", num(CHECKPOINT_INSERT_RATIO_BUDGET)),
            ]),
        ),
        ("hybrid_steady_state_evaluate_us", metric(None, hybrid)),
        (
            "observability",
            obj(vec![
                ("kriged_evaluate_base_us", num(obs_base)),
                ("kriged_evaluate_obs_us", num(obs_with)),
                ("overhead_ratio", num(obs_ratio)),
            ]),
        ),
        (
            "recalled_kriged_evaluate",
            obj(vec![
                ("evaluate_us", num(recalled_base)),
                ("evaluate_obs_us", num(recalled_obs)),
                ("obs_cost_ns", num(recalled_obs_ns)),
            ]),
        ),
        (
            "minplusone_iir8_end_to_end",
            obj(vec![
                ("serial_inline_ms", num(mp_serial)),
                ("engine_1worker_ms", num(mp_engine1)),
                ("engine_4workers_ms", num(mp_engine4)),
                ("speedup_4workers", num(mp_serial / mp_engine4)),
                ("overhead_1worker", num(mp_engine1 / mp_serial)),
                (
                    "host_cores",
                    Value::Number(Number::PosInt(host_cores as u64)),
                ),
            ]),
        ),
        (
            "server_roundtrip",
            obj(vec![
                ("kriged_rtt_us", num(server_rtt)),
                ("budget_us", num(SERVER_RTT_BUDGET_US)),
                ("first_frame_ms", num(first_frame)),
                ("first_frame_budget_ms", num(FIRST_FRAME_BUDGET_MS)),
            ]),
        ),
        (
            "shard_merge",
            obj(vec![
                ("shards", Value::Number(Number::PosInt(3))),
                ("shard_wall_ms", num(shard_ms)),
                ("merge_wall_ms", num(merge_ms)),
            ]),
        ),
        (
            "deflate_journal",
            obj(vec![
                ("compression_ratio", num(deflate_ratio)),
                ("encode_mib_s", num(encode_mib_s)),
                ("decode_mib_s", num(decode_mib_s)),
            ]),
        ),
        (
            "adaptive_gate",
            obj(vec![("fir", gate_fir), ("iir", gate_iir)]),
        ),
    ];
    if let Some(s) = matrix {
        metrics.push(("matrix_smoke_wall_s", metric(None, s)));
    }
    if let Some((median, samples)) = &table1 {
        metrics.push((
            "table1_fast_wall_s",
            obj(vec![
                ("before", num(baseline::TABLE1_FAST_WALL_S)),
                ("after", num(*median)),
                ("speedup", num(baseline::TABLE1_FAST_WALL_S / median)),
                (
                    "samples",
                    Value::Array(samples.iter().copied().map(num).collect()),
                ),
            ]),
        ));
    }

    let doc = obj(vec![
        ("tool", Value::String("perfsmoke".to_string())),
        (
            "baseline_note",
            Value::String(
                "frozen medians from the pre-overhaul commit (dense one-shot LU \
                 solves), same container, release profile; \
                 table1_fast_wall_s: the median of seven runs of the current campaign"
                    .to_string(),
            ),
        ),
        (
            "units",
            Value::String("microseconds unless the key says otherwise".to_string()),
        ),
        ("metrics", obj(metrics)),
    ]);
    let rendered = serde_json::to_string_pretty(&doc).expect("serialize");
    std::fs::write(&out_path, rendered + "\n").expect("write BENCH_kriging.json");
    eprintln!("perfsmoke: wrote {out_path}");

    // Regression gate: the headline criterion from the issue — the n=16
    // solve must hold at least a 2x margin over the frozen baseline.
    let required = baseline::KRIGING_SOLVE_N16_US / 2.0;
    if n16 > required {
        eprintln!("perfsmoke: FAIL kriging solve n=16 is {n16:.3} us (budget {required:.3} us)");
        std::process::exit(1);
    }
    // Second gate: the engine backend at 1 worker stays on the caller's
    // thread, so it may not cost more than a modest cache-hashing overhead
    // over the inline backend.
    let backend_budget = mp_serial * 1.3;
    if mp_engine1 > backend_budget {
        eprintln!(
            "perfsmoke: FAIL engine backend @1 worker is {mp_engine1:.3} ms \
             (inline {mp_serial:.3} ms, budget {backend_budget:.3} ms)"
        );
        std::process::exit(1);
    }
    // Third gate: attaching the metrics bundle may not slow the kriged
    // hot path by more than 8% — obs is meant to be always-on-able. The
    // budget was 3% before the variance gate landed; the bundle now also
    // records every accepted prediction's σ² into the
    // `hybrid_kriging_variance` histogram (a 12-bucket scan plus three
    // relaxed atomic adds per kriged evaluate, measured at ~3% of the
    // ~1.2 us evaluate), so the cap moved with the added work while
    // still catching a per-evaluate allocation or lock regression. It
    // times the solve path and reads the median per-pair ratio; the
    // recalled path is reported ungated, since a ratio over a ~0.1 us
    // memo hit mostly measures the bundle's fixed per-query cost.
    if obs_ratio > 1.08 {
        eprintln!(
            "perfsmoke: FAIL observability overhead is x{obs_ratio:.3} on the kriged \
             evaluate (median per-pair ratio; medians {obs_with:.3} us vs {obs_base:.3} us \
             base, budget x1.080)"
        );
        std::process::exit(1);
    }
    // Fourth gate: one kriged evaluate through the full server stack
    // (loopback TCP + frame codec + session dispatch) must stay
    // interactive.
    if server_rtt > SERVER_RTT_BUDGET_US {
        eprintln!(
            "perfsmoke: FAIL serve kriged round trip is {server_rtt:.3} us \
             (budget {SERVER_RTT_BUDGET_US:.3} us)"
        );
        std::process::exit(1);
    }
    // A fresh server answers its first frame without waiting out a poll.
    if first_frame > FIRST_FRAME_BUDGET_MS {
        eprintln!(
            "perfsmoke: FAIL serve first frame is {first_frame:.3} ms after connect \
             (budget {FIRST_FRAME_BUDGET_MS:.3} ms)"
        );
        std::process::exit(1);
    }
    // Fifth gate: the factor-once/solve-many group solve must hold at
    // least a 2x per-prediction margin over the per-query factored
    // baseline — the headline criterion of the multi-RHS work.
    let multi_rhs_budget = baseline::PER_QUERY_PREDICT_24_US / 2.0;
    if multi_rhs > multi_rhs_budget {
        eprintln!(
            "perfsmoke: FAIL multi-RHS predict is {multi_rhs:.3} us/prediction \
             (per-query baseline {:.3} us, budget {multi_rhs_budget:.3} us)",
            baseline::PER_QUERY_PREDICT_24_US
        );
        std::process::exit(1);
    }
    // New with the variance gate: reading σ² out of the batch path —
    // what the variance gate does on every decision — may cost at most
    // 5% over the value-only batch. σ² falls out of the same bordered
    // solve as the weights, so a bigger gap means the prediction path
    // started recomputing something per target. It reads the median
    // per-pair ratio.
    if variance_ratio > 1.05 {
        eprintln!(
            "perfsmoke: FAIL multi-RHS predict with variance readout costs \
             x{variance_ratio:.3} (median per-pair ratio; medians {variance_pred:.3} vs \
             value-only {multi_rhs:.3} us/prediction, budget x1.050)"
        );
        std::process::exit(1);
    }
    // Sixth gate: the screened (approx-path) solve must actually be
    // cheaper than the exact n=64 solve it stands in for — 2x margin on
    // an O(n^3) cut of 64 -> 16 sites is very conservative.
    if approx_screened * 2.0 > approx_exact {
        eprintln!(
            "perfsmoke: FAIL screened n=64 predict is {approx_screened:.3} us \
             vs exact {approx_exact:.3} us (must hold a 2x margin)"
        );
        std::process::exit(1);
    }
    // Seventh gate (always on, unlike the table1 gate below): the kriged
    // steady-state evaluate's solve path (neighbour search, nine-neighbour
    // solve, memo insert) is the hot path every campaign spends its time
    // in; CI runs with --skip-table1, so this is what catches a silent
    // end-to-end slowdown there. Budget is ~2.4x the 1.26 us measured on
    // a 1-core container — microbench noise on a loaded host stays well
    // inside it, a real regression does not.
    const HYBRID_STEADY_STATE_BUDGET_US: f64 = 3.0;
    if hybrid > HYBRID_STEADY_STATE_BUDGET_US {
        eprintln!(
            "perfsmoke: FAIL hybrid kriged evaluate is {hybrid:.3} us \
             (budget {HYBRID_STEADY_STATE_BUDGET_US:.3} us)"
        );
        std::process::exit(1);
    }
    // An evicting insert into a full store of 1,000 entries may cost at
    // most 3x one into a store of 10: eviction is O(log n), while a scan
    // for the least recently used entry read about 30x here.
    if insert_ratio > CHECKPOINT_INSERT_RATIO_BUDGET {
        eprintln!(
            "perfsmoke: FAIL evicting checkpoint insert is {insert_large:.3} us at 1000 \
             entries vs {insert_small:.3} us at 10 (x{insert_ratio:.2}, budget \
             x{CHECKPOINT_INSERT_RATIO_BUDGET:.1})"
        );
        std::process::exit(1);
    }
    // DEFLATE gates, deliberately conservative: a JSONL journal corpus
    // compresses to roughly a quarter of its size under the
    // fixed-Huffman greedy matcher, so a 0.5 ratio ceiling only fires if
    // the encoder degenerates to (near) stored blocks; the throughput
    // floors sit an order of magnitude under the measured release-build
    // numbers and exist to catch an accidental quadratic match loop, not
    // host-load noise.
    if deflate_ratio > 0.5 {
        eprintln!(
            "perfsmoke: FAIL deflate journal ratio is {deflate_ratio:.3} \
             (budget 0.500 — encoder has stopped finding matches)"
        );
        std::process::exit(1);
    }
    if encode_mib_s < 5.0 {
        eprintln!(
            "perfsmoke: FAIL deflate encode throughput is {encode_mib_s:.1} MiB/s \
             (floor 5.0 MiB/s)"
        );
        std::process::exit(1);
    }
    if decode_mib_s < 10.0 {
        eprintln!(
            "perfsmoke: FAIL deflate decode throughput is {decode_mib_s:.1} MiB/s \
             (floor 10.0 MiB/s)"
        );
        std::process::exit(1);
    }
    // When the matrix is measured, hold its wall clock under a generous
    // ceiling: the smoke matrix is the CI-facing entry point, and a
    // pathological regression there (a benchmark falling back to pure
    // simulation, say) shows up as a multiple of the ~30 s it takes on
    // this container.
    if let Some(s) = matrix {
        const MATRIX_SMOKE_BUDGET_S: f64 = 120.0;
        if s > MATRIX_SMOKE_BUDGET_S {
            eprintln!(
                "perfsmoke: FAIL smoke matrix wall is {s:.3} s \
                 (budget {MATRIX_SMOKE_BUDGET_S:.3} s)"
            );
            std::process::exit(1);
        }
    }
    // Eighth gate: when table1 is measured, the median of its seven wall
    // clocks (the baseline's statistic) may not creep past 1.25x its
    // baseline, so an end-to-end slowdown of that size is a hard failure
    // instead of a silently committed number, while one slow run on a
    // noisy host is not.
    if let Some((median, _)) = table1 {
        let budget = baseline::TABLE1_FAST_WALL_S * 1.25;
        if median > budget {
            eprintln!(
                "perfsmoke: FAIL table1 fast wall median is {median:.3} s \
                 (baseline {:.3} s, budget {budget:.3} s)",
                baseline::TABLE1_FAST_WALL_S
            );
            std::process::exit(1);
        }
    }
    eprintln!("perfsmoke: ok (n=16 solve {n16:.3} us <= budget {required:.3} us)");
}
