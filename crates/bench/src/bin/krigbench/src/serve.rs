//! The `serve-explore` workload: a designer probing "what if" around an
//! optimum through the evaluation server.
//!
//! Each pass starts an in-process server with the default configuration
//! on loopback and opens two closed-loop client connections (one thread
//! each) on the same `hevc` surface, so they share the backend pool and
//! the simulation cache. Each client runs `optimize` (the warm-up, part
//! of set-up), then sends its seeded stream of single-query `evaluate`
//! frames, each the optimum moved by one or two ±1 steps.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use krigeval_core::hybrid::{AuditMetric, HybridEvaluator, HybridSettings};
use krigeval_core::opt::minplusone::{optimize, MinPlusOneOptions};
use krigeval_core::opt::DseEvaluator;
use krigeval_core::trace::Source;
use krigeval_core::{AccuracyEvaluator, Config, FiniteGuard};
use krigeval_engine::suite::{build_seeded, Problem};
use krigeval_engine::{EngineBackend, Scale, SimCache};
use krigeval_obs::{Registry, Tracer};
use krigeval_serve::{
    BackendPool, HelloParams, OutcomeFrame, Request, Response, Server, ServerConfig, Session,
    StatsFrame,
};
use serde_json::Value;

use crate::measure::{median, percentile, process_cpu_s};
use crate::report::int;
use crate::spans::{self, now_ns, record, Layer};
use crate::timed::{TimedBackend, TimedDse, TimedSim};
use crate::{Pass, SplitMix64, Traced, EPS_SEED};

/// Concurrent client connections (one thread each).
const CLIENTS: usize = 2;
/// `evaluate` frames each client sends per pass.
const FRAMES: usize = 50_000;
/// The surface every session opens.
const PROBLEM: Problem = Problem::Hevc;
/// A reply slower than this means the server is wedged.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// How one `evaluate` frame was answered, bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Answer {
    kriged: bool,
    bits: u64,
}

impl Answer {
    fn of_frame(frame: &OutcomeFrame) -> Answer {
        Answer {
            kriged: frame.source == "kriged",
            bits: frame.value.to_bits(),
        }
    }
}

/// The workload, plus the first pass's streams and answers, which later
/// passes and the traced replay must reproduce.
pub struct Serve {
    seed: u64,
    bounds: (i32, i32),
    streams: Vec<Vec<Config>>,
    reference: Vec<Vec<Answer>>,
}

fn hello() -> HelloParams {
    HelloParams {
        benchmark: "hevc".to_string(),
        ..HelloParams::default()
    }
}

fn canonical_options() -> MinPlusOneOptions {
    build_seeded(PROBLEM, Scale::Fast, 0)
        .minplusone
        .expect("hevc is a word-length problem")
}

/// Client `client`'s frames: the optimum moved by one or two seeded ±1
/// steps, each step reflected back inside `[floor, ceil]`.
pub fn stream(
    seed: u64,
    client: u64,
    optimum: &[i32],
    (floor, ceil): (i32, i32),
    frames: usize,
) -> Vec<Config> {
    let mut rng = SplitMix64::new(seed ^ (client + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..frames)
        .map(|_| {
            let mut config = optimum.to_vec();
            for _ in 0..1 + rng.below(2) {
                let v = rng.below(config.len() as u64) as usize;
                let step = if rng.below(2) == 0 { -1 } else { 1 };
                let moved = config[v] + step;
                config[v] = if (floor..=ceil).contains(&moved) {
                    moved
                } else {
                    config[v] - step
                };
            }
            config
        })
        .collect()
}

/// One line-delimited JSON connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(READ_TIMEOUT)))
            .map_err(|e| format!("socket options: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("socket: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
        })
    }

    fn call(&mut self, request: &Request) -> Result<Response, String> {
        let mut frame = request.to_line();
        frame.push('\n');
        self.writer
            .write_all(frame.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => Response::from_line(self.line.trim_end()).map_err(|e| format!("reply: {e}")),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    fn stats(&mut self) -> Result<StatsFrame, String> {
        match self.call(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(format!("stats answered with {other:?}")),
        }
    }
}

/// What one client saw in one pass.
#[derive(Default)]
struct ClientRun {
    stream: Vec<Config>,
    answers: Vec<Answer>,
    rtt_us: Vec<f64>,
    failed: u64,
    problem: Option<String>,
    stats_before: Option<StatsFrame>,
    stats_after: Option<StatsFrame>,
}

fn open_session(addr: SocketAddr) -> Result<(Conn, Config), String> {
    let mut conn = Conn::open(addr)?;
    match conn.call(&Request::Hello(hello()))? {
        Response::Session { .. } => {}
        other => return Err(format!("hello answered with {other:?}")),
    }
    match conn.call(&Request::Optimize)? {
        Response::Optimum { solution, .. } => Ok((conn, solution)),
        other => Err(format!("optimize answered with {other:?}")),
    }
}

/// One client: set-up, then its frames, in step with the other client
/// and the timing thread through `barrier` (set-up done, go, done).
/// Every failure still reaches each barrier, so no thread can wedge.
fn client(
    addr: SocketAddr,
    id: usize,
    seed: u64,
    bounds: (i32, i32),
    barrier: &Barrier,
) -> ClientRun {
    let mut run = ClientRun::default();
    let mut conn = match open_session(addr) {
        Ok((conn, optimum)) => {
            run.stream = stream(seed, id as u64, &optimum, bounds, FRAMES);
            Some(conn)
        }
        Err(e) => {
            run.problem = Some(e);
            run.failed = FRAMES as u64;
            None
        }
    };
    barrier.wait();
    if id == 0 {
        run.stats_before = conn.as_mut().and_then(|c| c.stats().ok());
    }
    barrier.wait();
    if let Some(c) = conn.as_mut() {
        for (i, config) in run.stream.iter().enumerate() {
            let started = Instant::now();
            let reply = c.call(&Request::Evaluate {
                config: config.clone(),
            });
            run.rtt_us.push(started.elapsed().as_secs_f64() * 1e6);
            match reply {
                Ok(Response::Value(frame)) => run.answers.push(Answer::of_frame(&frame)),
                Ok(other) => {
                    run.failed += 1;
                    run.problem.get_or_insert(format!("frame {i}: {other:?}"));
                }
                Err(e) => {
                    run.failed += (run.stream.len() - i) as u64;
                    run.problem.get_or_insert(format!("frame {i}: {e}"));
                    break;
                }
            }
        }
    }
    barrier.wait();
    if id == 0 {
        run.stats_after = conn.as_mut().and_then(|c| c.stats().ok());
    }
    run
}

/// The backend a server session gets: a one-worker pool (the default
/// server config) on the shared cache, optionally timing the simulator.
fn session_backend(cache: &Arc<SimCache>, timed: bool) -> EngineBackend {
    EngineBackend::new(
        move || {
            let sim = build_seeded(PROBLEM, Scale::Fast, 0).evaluator;
            if timed {
                Box::new(FiniteGuard::new(TimedSim::new(sim, PROBLEM.label())))
                    as Box<dyn AccuracyEvaluator + Send>
            } else {
                Box::new(FiniteGuard::new(sim))
            }
        },
        ServerConfig::default().threads,
        Arc::clone(cache),
        format!("{}/{}/{:016x}", PROBLEM.label(), Scale::Fast.label(), 0),
    )
}

/// The interpolation error of Eq. 11 or 12 in the units of `metric`, as
/// the hybrid's audit mode computes it.
fn audit_error(metric: AuditMetric, estimate: f64, real: f64) -> f64 {
    match metric {
        AuditMetric::NoisePowerDb => (estimate - real).abs() / (10.0 * 2f64.log10()),
        AuditMetric::Relative => (estimate - real).abs() / real.abs().max(f64::MIN_POSITIVE),
    }
}

/// `eps_mean`: both clients' seed-[`EPS_SEED`] streams replayed in
/// process through `Session` (the server's own evaluation path), and the
/// mean error of every kriged frame against the simulator, each distinct
/// configuration simulated once. A simulated frame must equal the
/// simulator's value bit for bit; a mismatch is reported in `problems`.
fn reference_eps(bounds: (i32, i32), problems: &mut Vec<String>) -> Result<f64, String> {
    let pool = BackendPool::new(
        ServerConfig::default().threads,
        Registry::new(),
        Tracer::disabled(),
    );
    let mut sim = FiniteGuard::new(build_seeded(PROBLEM, Scale::Fast, 0).evaluator);
    let mut truth: BTreeMap<Config, f64> = BTreeMap::new();
    let (mut sum, mut kriged, mut wrong) = (0.0, 0u64, 0u64);
    for client in 0..CLIENTS as u64 {
        let mut session = Session::open(client + 1, &hello(), &pool).map_err(|e| e.message)?;
        let optimum = session.optimize().map_err(|e| e.message)?.solution;
        for config in stream(EPS_SEED, client, &optimum, bounds, FRAMES) {
            let frame = session.evaluate(&config).map_err(|e| e.message)?;
            let real = match truth.get(&config) {
                Some(&real) => real,
                None => {
                    let real = sim.evaluate(&config).map_err(|e| e.to_string())?;
                    truth.insert(config, real);
                    real
                }
            };
            if frame.source == "kriged" {
                sum += audit_error(PROBLEM.audit_metric(), frame.value, real);
                kriged += 1;
            } else if frame.value.to_bits() != real.to_bits() {
                wrong += 1;
            }
        }
    }
    if wrong > 0 {
        problems.push(format!(
            "{wrong} simulated frames differ from the simulator's value"
        ));
    }
    Ok(sum / kriged.max(1) as f64)
}

/// Replays one client through a session-equivalent hybrid evaluator: the
/// warm-up `optimize`, then every frame, each answer compared with the
/// `Session` replay's. Records a root span over the frames only and
/// returns their wall clock and whether any answer differed.
fn replay<D: DseEvaluator>(
    hybrid: &mut D,
    stream: &[Config],
    expected: &[OutcomeFrame],
) -> Result<(f64, bool), String> {
    optimize(hybrid, &canonical_options()).map_err(|e| e.to_string())?;
    spans::drain(); // the warm-up is set-up, not part of the root
    let root = now_ns();
    let started = Instant::now();
    let mut mismatch = false;
    for (config, outcome) in stream.iter().zip(expected) {
        let (value, source) = hybrid.query(config).map_err(|e| e.to_string())?;
        mismatch |= value.to_bits() != outcome.value.to_bits()
            || (source == Source::Kriged) != (outcome.source == "kriged");
    }
    let wall_s = started.elapsed().as_secs_f64();
    record(Layer::Run, "serve", root, 1, Vec::new());
    Ok((wall_s, mismatch))
}

impl Serve {
    /// The workload for `seed` (which seeds the frame streams only; the
    /// sessions open the canonical `hevc` instance).
    pub fn new(seed: u64) -> Serve {
        let opts = canonical_options();
        Serve {
            seed,
            bounds: (opts.w_floor, opts.w_max),
            streams: Vec::new(),
            reference: Vec::new(),
        }
    }

    /// Client count, frames and server threads, for the result context.
    pub fn context(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("clients", int(CLIENTS as u64)),
            ("frames_per_client", int(FRAMES as u64)),
            ("threads", int(ServerConfig::default().threads as u64)),
        ]
    }

    /// One pass: a fresh server, two sessions, both streams.
    pub fn pass(&mut self) -> Result<Pass, String> {
        let started = Instant::now();
        let server = Server::start(ServerConfig::default()).map_err(|e| format!("server: {e}"))?;
        let addr = server.addr();
        let barrier = Barrier::new(CLIENTS + 1);
        let (seed, bounds) = (self.seed, self.bounds);
        let (setup_s, wall_s, cpu_s, runs) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|id| {
                    let barrier = &barrier;
                    scope.spawn(move || client(addr, id, seed, bounds, barrier))
                })
                .collect();
            barrier.wait();
            let setup_s = started.elapsed().as_secs_f64();
            barrier.wait();
            let timer = Instant::now();
            let cpu_before = process_cpu_s();
            barrier.wait();
            let wall_s = timer.elapsed().as_secs_f64();
            let cpu_s = process_cpu_s().and_then(|after| cpu_before.map(|b| after - b));
            let runs: Vec<ClientRun> = handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect();
            (setup_s, wall_s, cpu_s, runs)
        });
        let report = server.join().map_err(|e| format!("server join: {e}"))?;

        let mut pass = Pass {
            attempted: (CLIENTS * FRAMES) as u64,
            failed: runs.iter().map(|r| r.failed).sum::<u64>() + report.overloaded,
            ..Pass::default()
        };
        pass.problems
            .extend(runs.iter().filter_map(|r| r.problem.clone()));
        let answers: Vec<Answer> = runs.iter().flat_map(|r| r.answers.clone()).collect();
        let rtts: Vec<f64> = runs.iter().flat_map(|r| r.rtt_us.clone()).collect();
        let rtt_of = |kriged: bool| -> Vec<f64> {
            runs.iter()
                .flat_map(|r| r.answers.iter().zip(&r.rtt_us))
                .filter(|(a, _)| a.kriged == kriged)
                .map(|(_, &t)| t)
                .collect()
        };
        let kriged = answers.iter().filter(|a| a.kriged).count();
        let (before, after) = (runs[0].stats_before.as_ref(), runs[0].stats_after.as_ref());
        let misses = |s: &StatsFrame| s.shared_cache_lookups - s.shared_cache_hits;
        let (sims, hit_ratio) = match (before, after) {
            (Some(b), Some(a)) => {
                if a.queries - b.queries != FRAMES as u64 {
                    pass.problems.push(format!(
                        "session counted {} queries for {FRAMES} frames",
                        a.queries - b.queries
                    ));
                }
                (
                    (misses(a) - misses(b)) as f64,
                    a.shared_cache_hits as f64 / a.shared_cache_lookups.max(1) as f64,
                )
            }
            _ => {
                pass.problems.push("stats frames missing".to_string());
                (f64::NAN, f64::NAN)
            }
        };
        pass.push("setup_s", setup_s);
        pass.push("latency_ms", median(&rtts) / 1e3);
        pass.push("sims", sims);
        pass.push(
            "p_percent",
            100.0 * kriged as f64 / answers.len().max(1) as f64,
        );
        pass.push("wall_s", wall_s);
        pass.push("cpu_s", cpu_s?);
        pass.push("rtt_p90_us", percentile(&rtts, 90.0));
        pass.push("rtt_p99_us", percentile(&rtts, 99.0));
        pass.push("throughput_rps", answers.len() as f64 / wall_s);
        pass.push("kriged_rtt_p50_us", median(&rtt_of(true)));
        pass.push("simulated_rtt_p50_us", median(&rtt_of(false)));
        pass.push("shared_cache_hit_ratio", hit_ratio);
        pass.push("failed_share", pass.failed as f64 / pass.attempted as f64);

        let answers: Vec<Vec<Answer>> = runs.iter().map(|r| r.answers.clone()).collect();
        if self.reference.is_empty() && pass.failed == 0 {
            self.streams = runs.into_iter().map(|r| r.stream).collect();
            self.reference = answers;
            let eps = reference_eps(bounds, &mut pass.problems)?;
            pass.push("eps_mean", eps);
        } else if answers != self.reference {
            pass.problems
                .push("answers differ from the first pass".to_string());
        }
        Ok(pass)
    }

    /// The traced pass, in process: the streams replayed through
    /// `Session` (the server's own evaluation path, checked against the
    /// wire answers), the frame codec timed on the same frames, then
    /// replays through the rebuilt stack, bare and span-recording
    /// (checked against the `Session` replay).
    pub fn traced(&self, medians: &BTreeMap<String, f64>) -> Result<Traced, String> {
        if self.reference.is_empty() {
            return Err("the traced pass needs a clean untraced pass first".to_string());
        }
        let mut traced = Traced::default();
        let pool = BackendPool::new(
            ServerConfig::default().threads,
            Registry::new(),
            Tracer::disabled(),
        );
        let mut session_us: Vec<f64> = Vec::new();
        let mut frames: Vec<Vec<OutcomeFrame>> = Vec::new();
        for (id, (stream, reference)) in self.streams.iter().zip(&self.reference).enumerate() {
            let mut session =
                Session::open(id as u64 + 1, &hello(), &pool).map_err(|e| e.message)?;
            session.optimize().map_err(|e| e.message)?;
            let mut outcomes = Vec::with_capacity(stream.len());
            for config in stream {
                let t = Instant::now();
                outcomes.push(session.evaluate(config).map_err(|e| e.message)?);
                session_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
            let replayed: Vec<Answer> = outcomes.iter().map(Answer::of_frame).collect();
            if &replayed != reference {
                traced.problems.push(format!(
                    "client {id}: the in-process replay differs from the wire answers"
                ));
            }
            frames.push(outcomes);
        }

        let mut codec_us: Vec<f64> = Vec::new();
        for (stream, outcomes) in self.streams.iter().zip(&frames) {
            for (config, outcome) in stream.iter().zip(outcomes) {
                let t = Instant::now();
                let request = Request::Evaluate {
                    config: config.clone(),
                };
                let request_back = Request::from_line(&request.to_line());
                let response = Response::Value(outcome.clone());
                let response_back = Response::from_line(&response.to_line());
                codec_us.push(t.elapsed().as_secs_f64() * 1e6);
                if request_back.ok() != Some(request) || response_back.ok() != Some(response) {
                    return Err("a frame does not survive its codec round trip".to_string());
                }
            }
        }

        // The rebuilt stack runs twice per client, bare and with the span
        // wrappers, so the overhead ratio compares identical work.
        let (bare_cache, timed_cache) = (Arc::new(SimCache::new()), Arc::new(SimCache::new()));
        let (mut bare_wall_s, mut timed_wall_s) = (0.0, 0.0);
        let mut all_spans = Vec::new();
        for (id, (stream, outcomes)) in self.streams.iter().zip(&frames).enumerate() {
            let mut bare = HybridEvaluator::new(
                session_backend(&bare_cache, false),
                HybridSettings::default(),
            );
            let (bare_s, bare_mismatch) = replay(&mut bare, stream, outcomes)?;
            spans::drain();
            let mut timed = TimedDse(HybridEvaluator::new(
                TimedBackend::new(Box::new(session_backend(&timed_cache, true))),
                HybridSettings::default(),
            ));
            let (timed_s, timed_mismatch) = replay(&mut timed, stream, outcomes)?;
            all_spans.extend(spans::drain());
            bare_wall_s += bare_s;
            timed_wall_s += timed_s;
            if bare_mismatch || timed_mismatch {
                traced.problems.push(format!(
                    "client {id}: the rebuilt stack's replay differs from the Session replay"
                ));
            }
        }
        all_spans.sort_by_key(|s| s.start);
        traced.spans = all_spans;
        traced.cache = timed_cache.stats();
        traced.threads = 1;
        traced.codec_ms = codec_us.iter().sum::<f64>() / 1e3;
        traced.overhead_ratio = timed_wall_s / bare_wall_s;

        let session_p50 = median(&session_us);
        let codec_p50 = median(&codec_us);
        let rtt_p50 = medians.get("latency_ms").copied().unwrap_or(f64::NAN) * 1e3;
        traced.extra = vec![
            ("serve.session_evaluate_us_p50".to_string(), session_p50),
            ("serve.codec_us_p50".to_string(), codec_p50),
            (
                "serve.socket_us_p50".to_string(),
                rtt_p50 - session_p50 - codec_p50,
            ),
        ];
        Ok(traced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audit_error_units() {
        // 3.0103 dB of noise power is one equivalent bit (Eq. 11).
        let bits = audit_error(AuditMetric::NoisePowerDb, 63.0103, 60.0);
        assert!((bits - 1.0).abs() < 1e-4, "{bits}");
        let relative = audit_error(AuditMetric::Relative, 0.9, 1.0);
        assert!((relative - 0.1).abs() < 1e-12);
    }

    #[test]
    fn stream_is_seeded_and_stays_in_bounds() {
        let opts = canonical_options();
        let bounds = (opts.w_floor, opts.w_max);
        // An optimum on both edges of the box exercises the reflection.
        let mut optimum = vec![opts.w_floor; PROBLEM.nv()];
        optimum[1] = opts.w_max;
        let a = stream(11, 0, &optimum, bounds, 2000);
        assert_eq!(a, stream(11, 0, &optimum, bounds, 2000));
        assert_ne!(a, stream(12, 0, &optimum, bounds, 2000));
        assert_ne!(a, stream(11, 1, &optimum, bounds, 2000));
        for config in &a {
            assert_eq!(config.len(), optimum.len());
            assert!(config
                .iter()
                .all(|&w| (opts.w_floor..=opts.w_max).contains(&w)));
            let moved: i32 = config
                .iter()
                .zip(&optimum)
                .map(|(c, o)| (c - o).abs())
                .sum();
            assert!(moved <= 2, "{config:?} is {moved} steps away");
        }
        assert!(a.iter().any(|c| c != &optimum));
    }
}
