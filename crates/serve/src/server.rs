//! The TCP server: connection lifecycle, admission control, graceful
//! drain, and the Prometheus metrics side-port.
//!
//! One OS thread per connection reads line-delimited [`Request`] frames
//! and answers each with one [`Response`] frame; concurrency comes from
//! multiple connections, which share one [`BackendPool`] (worker pools +
//! simulation cache) through their sessions.
//!
//! # Backpressure
//!
//! Work-bearing requests (`evaluate`, `evaluate_batch`, `optimize`) pass
//! a bounded admission counter. When `max_inflight` of them are already
//! running, the server **sheds** the new request immediately with a typed
//! [`Response::Overloaded`] frame — it never queues blind, so a client
//! always learns its fate within one round trip and can back off.
//!
//! # Drain
//!
//! A `shutdown` frame (or [`Server::shutdown`], which the CLI wires to
//! `SIGINT`) flips the drain flag: the accept loop stops admitting
//! connections, requests already executing run to completion and their
//! responses are written, and every frame that arrives afterwards is
//! answered with a typed `shutting_down` error during a short grace
//! window before the sockets close. [`Server::join`] then flushes the
//! metrics snapshot (when configured) and returns a final report.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use krigeval_obs::{Counter, Gauge, Histogram, JsonlSink, Registry, Tracer};

use crate::protocol::{codes, Request, Response, PROTOCOL_VERSION};
use crate::session::{BackendPool, Session};

/// How long a connection keeps answering late frames with typed
/// `shutting_down` rejections after the drain begins, before closing.
pub const DEFAULT_DRAIN_GRACE_MS: u64 = 500;

/// Suggested client backoff carried in `overloaded` frames.
const RETRY_MS: u64 = 25;

/// Poll interval of the nonblocking accept loops and idle connection
/// reads; bounds how quickly every thread observes the drain flag.
const POLL_MS: u64 = 25;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address of the evaluation port (`127.0.0.1:0` picks a free
    /// port; see [`Server::addr`]).
    pub addr: String,
    /// Bind address of the `GET /metrics` side-port; `None` disables it.
    pub metrics_addr: Option<String>,
    /// Worker threads per [`BackendPool`] backend.
    pub threads: usize,
    /// Maximum concurrently open sessions; further `hello`s get `busy`.
    pub max_sessions: usize,
    /// Bound on concurrently executing work requests; the excess is shed
    /// with `overloaded` frames.
    pub max_inflight: usize,
    /// Write a final metrics snapshot here on [`Server::join`]
    /// (Prometheus text when the path ends in `.prom`, JSON otherwise; a
    /// trailing `.z` — `metrics.prom.z`, `metrics.json.z` — requests a
    /// raw-DEFLATE-compressed snapshot, format chosen from the inner
    /// extension).
    pub metrics_out: Option<String>,
    /// Stream trace events to this JSONL file.
    pub trace_out: Option<String>,
    /// Grace window for typed late-request rejections during drain.
    pub drain_grace_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            metrics_addr: None,
            threads: 1,
            max_sessions: 64,
            max_inflight: 8,
            metrics_out: None,
            trace_out: None,
            drain_grace_ms: DEFAULT_DRAIN_GRACE_MS,
        }
    }
}

/// Pre-registered server metrics (`serve_*`): per-request-type counters,
/// the in-flight/queue-depth and session gauges, and a request-latency
/// histogram.
struct ServeObs {
    requests: Counter,
    hello: Counter,
    evaluate: Counter,
    evaluate_batch: Counter,
    optimize: Counter,
    snapshot: Counter,
    stats: Counter,
    ping: Counter,
    shutdown: Counter,
    errors: Counter,
    overloaded: Counter,
    rejected: Counter,
    sessions_opened: Counter,
    sessions_gauge: Gauge,
    inflight_gauge: Gauge,
    request_us: Histogram,
}

impl ServeObs {
    fn new(registry: &Registry) -> ServeObs {
        ServeObs {
            requests: registry.counter("serve_requests_total"),
            hello: registry.counter("serve_hello_requests_total"),
            evaluate: registry.counter("serve_evaluate_requests_total"),
            evaluate_batch: registry.counter("serve_evaluate_batch_requests_total"),
            optimize: registry.counter("serve_optimize_requests_total"),
            snapshot: registry.counter("serve_snapshot_requests_total"),
            stats: registry.counter("serve_stats_requests_total"),
            ping: registry.counter("serve_ping_requests_total"),
            shutdown: registry.counter("serve_shutdown_requests_total"),
            errors: registry.counter("serve_errors_total"),
            overloaded: registry.counter("serve_overloaded_total"),
            rejected: registry.counter("serve_drain_rejected_total"),
            sessions_opened: registry.counter("serve_sessions_opened_total"),
            sessions_gauge: registry.gauge("serve_sessions"),
            inflight_gauge: registry.gauge("serve_inflight"),
            request_us: registry.histogram("serve_request_us"),
        }
    }

    fn count_request(&self, request: &Request) {
        self.requests.inc();
        match request {
            Request::Hello(_) => self.hello.inc(),
            Request::Evaluate { .. } => self.evaluate.inc(),
            Request::EvaluateBatch { .. } => self.evaluate_batch.inc(),
            Request::Optimize => self.optimize.inc(),
            Request::Snapshot => self.snapshot.inc(),
            Request::Stats => self.stats.inc(),
            Request::Ping => self.ping.inc(),
            Request::Shutdown => self.shutdown.inc(),
        }
    }
}

struct Shared {
    config: ServerConfig,
    drain: AtomicBool,
    halt_metrics: AtomicBool,
    inflight: AtomicUsize,
    active_sessions: AtomicUsize,
    next_session: AtomicU64,
    registry: Registry,
    pool: BackendPool,
    obs: ServeObs,
}

impl Shared {
    fn draining(&self) -> bool {
        self.drain.load(Ordering::Acquire)
    }

    /// Bounded admission for work requests: `Ok(permit)` holds one of the
    /// `max_inflight` slots, `Err(occupied)` reports the load that caused
    /// the shed.
    fn try_admit(self: &Arc<Shared>) -> Result<InflightPermit, usize> {
        let admitted = self
            .inflight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < self.config.max_inflight).then_some(n + 1)
            });
        match admitted {
            Ok(previous) => {
                self.obs.inflight_gauge.set((previous + 1) as i64);
                Ok(InflightPermit {
                    shared: Arc::clone(self),
                })
            }
            Err(occupied) => Err(occupied),
        }
    }
}

/// RAII slot of the bounded work queue.
struct InflightPermit {
    shared: Arc<Shared>,
}

impl Drop for InflightPermit {
    fn drop(&mut self) {
        let previous = self.shared.inflight.fetch_sub(1, Ordering::AcqRel);
        self.shared
            .obs
            .inflight_gauge
            .set(previous.saturating_sub(1) as i64);
    }
}

/// Final accounting returned by [`Server::join`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerReport {
    /// Total frames served (including rejections).
    pub requests: u64,
    /// Sessions opened over the server's lifetime.
    pub sessions: u64,
    /// Work requests shed with `overloaded` frames.
    pub overloaded: u64,
    /// Frames rejected with `shutting_down` during the drain.
    pub drain_rejected: u64,
}

/// Handle to request a drain from another thread (e.g. a signal watcher).
#[derive(Clone)]
pub struct ShutdownHandle {
    shared: Arc<Shared>,
}

impl ShutdownHandle {
    /// Begins the graceful drain (idempotent).
    pub fn shutdown(&self) {
        self.shared.drain.store(true, Ordering::Release);
    }

    /// Whether the drain has begun.
    pub fn is_draining(&self) -> bool {
        self.shared.draining()
    }
}

/// A running `krigeval serve` instance.
pub struct Server {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    metrics_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds the listeners and starts serving in background threads.
    ///
    /// # Errors
    ///
    /// Returns the bind/configuration I/O error.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let metrics_listener = match &config.metrics_addr {
            Some(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let metrics_addr = match &metrics_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };
        let registry = Registry::new();
        let tracer = match &config.trace_out {
            Some(path) => {
                let sink = JsonlSink::create(Path::new(path), false)?;
                Tracer::new(vec![Arc::new(sink)])
            }
            None => Tracer::disabled(),
        };
        let pool = BackendPool::new(config.threads, registry.clone(), tracer);
        let obs = ServeObs::new(&registry);
        let shared = Arc::new(Shared {
            config,
            drain: AtomicBool::new(false),
            halt_metrics: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            active_sessions: AtomicUsize::new(0),
            next_session: AtomicU64::new(1),
            registry: registry.clone(),
            pool,
            obs,
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, &listener))
        };
        let metrics_thread = metrics_listener.map(|listener| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || metrics_loop(&shared, &listener))
        });
        Ok(Server {
            addr,
            metrics_addr,
            shared,
            accept: Some(accept),
            metrics_thread,
        })
    }

    /// The bound evaluation address (with the OS-assigned port when the
    /// config asked for port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound metrics address, when the side-port is enabled.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The server's metric registry (shared with every backend and
    /// session bundle).
    pub fn registry(&self) -> &Registry {
        &self.shared.registry
    }

    /// A cloneable handle that can trigger the drain from any thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Begins the graceful drain (idempotent).
    pub fn shutdown(&self) {
        self.shared.drain.store(true, Ordering::Release);
    }

    /// Whether the drain has begun (via frame, handle, or signal).
    pub fn is_draining(&self) -> bool {
        self.shared.draining()
    }

    /// Drains (if not already draining), waits for every connection to
    /// complete, stops the metrics port, flushes the configured metrics
    /// snapshot, and returns the final report.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of the final metrics-snapshot write.
    pub fn join(mut self) -> std::io::Result<ServerReport> {
        self.shutdown();
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        self.shared.halt_metrics.store(true, Ordering::Release);
        if let Some(handle) = self.metrics_thread.take() {
            let _ = handle.join();
        }
        let snapshot = self.shared.registry.snapshot();
        if let Some(path) = &self.shared.config.metrics_out {
            let inner = path.strip_suffix(".z").unwrap_or(path);
            let mut text = if inner.ends_with(".prom") {
                snapshot.to_prometheus()
            } else {
                snapshot.to_json(true)
            };
            if !text.ends_with('\n') {
                text.push('\n');
            }
            if path.ends_with(".z") {
                std::fs::write(path, krigeval_flate::compress(text.as_bytes()))?;
            } else {
                std::fs::write(path, text)?;
            }
        }
        let counter = |name: &str| {
            snapshot
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, v)| *v)
        };
        Ok(ServerReport {
            requests: counter("serve_requests_total"),
            sessions: counter("serve_sessions_opened_total"),
            overloaded: counter("serve_overloaded_total"),
            drain_rejected: counter("serve_drain_rejected_total"),
        })
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.draining() {
                    // Refused at the door: the socket closes immediately;
                    // established connections get typed rejections instead.
                    drop(stream);
                    continue;
                }
                let shared = Arc::clone(shared);
                connections.push(std::thread::spawn(move || {
                    handle_connection(&shared, stream)
                }));
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shared.draining() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(POLL_MS));
            }
            Err(_) => {
                if shared.draining() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(POLL_MS));
            }
        }
        connections.retain(|h| !h.is_finished());
    }
    for handle in connections {
        let _ = handle.join();
    }
}

/// Longest request frame a connection may send, in bytes without the
/// newline. The largest frame the protocol accepts — an `evaluate_batch`
/// of [`MAX_BATCH`](crate::session::MAX_BATCH) configurations of the
/// widest benchmark (23 variables), every value `i32::MIN` — is about
/// 1.1 MiB; a longer line is answered with a `bad_request` frame and the
/// connection closes.
pub const MAX_FRAME_BYTES: usize = 2 << 20;

/// Splits line-delimited frames out of a nonblocking-ish (read-timeout)
/// stream, holding at most one frame of [`MAX_FRAME_BYTES`] plus one read.
struct LineReader<R> {
    stream: R,
    buf: Vec<u8>,
    /// Leading bytes of `buf` already searched for a newline, so each
    /// byte is scanned once however many reads a frame takes.
    scanned: usize,
}

enum ReadStep {
    Line(String),
    Idle,
    Closed,
    /// The frame being read exceeds [`MAX_FRAME_BYTES`].
    Oversized,
}

impl<R: Read> LineReader<R> {
    fn new(stream: R) -> LineReader<R> {
        LineReader {
            stream,
            buf: Vec::new(),
            scanned: 0,
        }
    }

    fn step(&mut self) -> ReadStep {
        loop {
            if let Some(offset) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                let end = self.scanned + offset;
                self.scanned = 0;
                if end > MAX_FRAME_BYTES {
                    return ReadStep::Oversized;
                }
                let text = String::from_utf8_lossy(&self.buf[..end]).trim().to_string();
                self.buf.drain(..=end);
                if text.is_empty() {
                    continue; // blank keep-alive line
                }
                return ReadStep::Line(text);
            }
            self.scanned = self.buf.len();
            if self.buf.len() > MAX_FRAME_BYTES {
                return ReadStep::Oversized;
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return ReadStep::Closed,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return ReadStep::Idle
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return ReadStep::Closed,
            }
        }
    }
}

fn write_frame(stream: &mut TcpStream, response: &Response) -> bool {
    let mut line = response.to_line();
    line.push('\n');
    stream.write_all(line.as_bytes()).is_ok()
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(POLL_MS)));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = LineReader::new(stream);
    let mut session: Option<Session> = None;
    // Once the drain flag is observed, late frames are answered with typed
    // rejections until the grace window ends, then the socket closes.
    let mut drain_deadline: Option<Instant> = None;
    loop {
        if shared.draining() && drain_deadline.is_none() {
            drain_deadline =
                Some(Instant::now() + Duration::from_millis(shared.config.drain_grace_ms));
        }
        if let Some(deadline) = drain_deadline {
            if Instant::now() >= deadline {
                break;
            }
        }
        match reader.step() {
            ReadStep::Line(line) => {
                let response = dispatch(shared, &mut session, &line);
                if !write_frame(&mut writer, &response) {
                    break;
                }
            }
            ReadStep::Idle => {}
            ReadStep::Closed => break,
            ReadStep::Oversized => {
                shared.obs.requests.inc();
                shared.obs.errors.inc();
                let message = format!("frame exceeds {MAX_FRAME_BYTES} bytes");
                let _ = write_frame(&mut writer, &Response::error(codes::BAD_REQUEST, message));
                break;
            }
        }
    }
    if session.is_some() {
        let remaining = shared
            .active_sessions
            .fetch_sub(1, Ordering::AcqRel)
            .saturating_sub(1);
        shared.obs.sessions_gauge.set(remaining as i64);
    }
}

fn dispatch(shared: &Arc<Shared>, session: &mut Option<Session>, line: &str) -> Response {
    let started = Instant::now();
    let request = match Request::from_line(line) {
        Ok(request) => request,
        Err(e) => {
            shared.obs.requests.inc();
            shared.obs.errors.inc();
            return Response::error(codes::BAD_REQUEST, e.to_string());
        }
    };
    shared.obs.count_request(&request);
    let response = dispatch_parsed(shared, session, request);
    if matches!(response, Response::Error { .. }) {
        shared.obs.errors.inc();
    }
    shared
        .obs
        .request_us
        .record(started.elapsed().as_secs_f64() * 1e6);
    response
}

fn dispatch_parsed(
    shared: &Arc<Shared>,
    session: &mut Option<Session>,
    request: Request,
) -> Response {
    if shared.draining() {
        return match request {
            // Shutdown stays idempotent during the drain.
            Request::Shutdown => Response::Draining,
            _ => {
                shared.obs.rejected.inc();
                Response::error(codes::SHUTTING_DOWN, "server is draining; no new work")
            }
        };
    }
    match request {
        Request::Ping => Response::Pong,
        Request::Shutdown => {
            shared.drain.store(true, Ordering::Release);
            Response::Draining
        }
        Request::Hello(params) => {
            if session.is_some() {
                return Response::error(
                    codes::BAD_REQUEST,
                    "this connection already carries a session",
                );
            }
            let admitted =
                shared
                    .active_sessions
                    .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                        (n < shared.config.max_sessions).then_some(n + 1)
                    });
            if admitted.is_err() {
                return Response::error(
                    codes::BUSY,
                    format!("session table full ({} active)", shared.config.max_sessions),
                );
            }
            let id = shared.next_session.fetch_add(1, Ordering::Relaxed);
            match Session::open(id, &params, &shared.pool) {
                Ok(opened) => {
                    shared.obs.sessions_opened.inc();
                    shared
                        .obs
                        .sessions_gauge
                        .set(shared.active_sessions.load(Ordering::Acquire) as i64);
                    let frame = Response::Session {
                        session: opened.id(),
                        benchmark: opened.benchmark().to_string(),
                        nv: opened.nv() as u64,
                        protocol: PROTOCOL_VERSION,
                        workers: opened.workers() as u64,
                    };
                    *session = Some(opened);
                    frame
                }
                Err(e) => {
                    let remaining = shared
                        .active_sessions
                        .fetch_sub(1, Ordering::AcqRel)
                        .saturating_sub(1);
                    shared.obs.sessions_gauge.set(remaining as i64);
                    Response::error(e.code, e.message)
                }
            }
        }
        Request::Evaluate { .. } | Request::EvaluateBatch { .. } | Request::Optimize => {
            let Some(open) = session.as_mut() else {
                return Response::error(codes::NO_SESSION, "send a hello frame first");
            };
            let permit = match shared.try_admit() {
                Ok(permit) => permit,
                Err(occupied) => {
                    shared.obs.overloaded.inc();
                    return Response::Overloaded {
                        inflight: occupied as u64,
                        capacity: shared.config.max_inflight as u64,
                        retry_ms: RETRY_MS,
                    };
                }
            };
            let response = match request {
                Request::Evaluate { config } => match open.evaluate(&config) {
                    Ok(outcome) => Response::Value(outcome),
                    Err(e) => Response::error(e.code, e.message),
                },
                Request::EvaluateBatch { configs } => match open.evaluate_batch(&configs) {
                    Ok(outcomes) => Response::Values { outcomes },
                    Err(e) => Response::error(e.code, e.message),
                },
                Request::Optimize => match open.optimize() {
                    Ok(result) => Response::Optimum {
                        solution: result.solution,
                        lambda: result.lambda,
                        iterations: result.iterations,
                    },
                    Err(e) => Response::error(e.code, e.message),
                },
                _ => unreachable!("outer match admits only work requests"),
            };
            drop(permit);
            response
        }
        Request::Snapshot => match session.as_ref() {
            Some(open) => Response::Snapshot {
                snapshot: open.snapshot(),
            },
            None => Response::error(codes::NO_SESSION, "send a hello frame first"),
        },
        Request::Stats => match session.as_ref() {
            Some(open) => {
                let stats = open.stats();
                let cache = shared.pool.cache_stats();
                Response::Stats(crate::protocol::StatsFrame {
                    queries: stats.queries,
                    simulated: stats.simulated,
                    kriged: stats.kriged,
                    cache_hits: stats.cache_hits,
                    kriging_failures: stats.kriging_failures,
                    sessions: shared.active_sessions.load(Ordering::Acquire) as u64,
                    backends: shared.pool.len() as u64,
                    shared_cache_lookups: cache.lookups,
                    shared_cache_hits: cache.hits,
                })
            }
            None => Response::error(codes::NO_SESSION, "send a hello frame first"),
        },
    }
}

// ---------------------------------------------------------------------------
// Metrics side-port: a deliberately tiny HTTP/1.1 responder
// ---------------------------------------------------------------------------

fn metrics_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => serve_metrics_request(shared, stream),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // The metrics port keeps answering during the drain (so the
                // final state is scrapeable) and stops only at join time.
                if shared.halt_metrics.load(Ordering::Acquire) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(POLL_MS));
            }
            Err(_) => {
                if shared.halt_metrics.load(Ordering::Acquire) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(POLL_MS));
            }
        }
    }
}

fn serve_metrics_request(shared: &Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    // Read until the end of the request head; the responder ignores bodies.
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") && buf.len() < 16 * 1024 {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, body) = if method == "GET" && (path == "/metrics" || path == "/metrics/") {
        ("200 OK", shared.registry.snapshot().to_prometheus())
    } else {
        ("404 Not Found", "not found\n".to_string())
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
}

#[cfg(test)]
mod tests {
    use std::io::{BufRead, BufReader};

    use krigeval_engine::suite::Problem;

    use super::*;
    use crate::session::MAX_BATCH;

    /// A stream that hands out its bytes `piece` at a time, with an idle
    /// poll before every piece.
    struct Trickle {
        data: Vec<u8>,
        at: usize,
        piece: usize,
        idle: bool,
    }

    impl Read for Trickle {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            self.idle = !self.idle;
            if self.idle {
                return Err(ErrorKind::WouldBlock.into());
            }
            let n = self.piece.min(out.len()).min(self.data.len() - self.at);
            out[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    #[test]
    fn frames_split_across_many_reads_are_reassembled() {
        let configs = vec!["[7,8]"; 100_000].join(",");
        let long = format!("{{\"type\":\"evaluate_batch\",\"configs\":[{configs}]}}");
        let data = format!("{{\"type\":\"ping\"}}\n\n{long}\r\n{{\"type\":\"stats\"}}\n");
        let mut reader = LineReader::new(Trickle {
            data: data.into_bytes(),
            at: 0,
            piece: 61,
            idle: false,
        });
        let mut lines = Vec::new();
        loop {
            match reader.step() {
                ReadStep::Line(line) => lines.push(line),
                ReadStep::Idle => {}
                ReadStep::Closed => break,
                ReadStep::Oversized => panic!("no frame here is oversized"),
            }
        }
        let expected = ["{\"type\":\"ping\"}", &long, "{\"type\":\"stats\"}"];
        assert_eq!(lines, expected);
    }

    #[test]
    fn the_largest_accepted_frame_fits_under_the_cap() {
        let widest = Problem::extended().iter().map(Problem::nv).max().unwrap();
        let line = Request::EvaluateBatch {
            configs: vec![vec![i32::MIN; widest]; MAX_BATCH],
        }
        .to_line();
        assert!(line.len() < MAX_FRAME_BYTES, "{} bytes", line.len());
    }

    #[test]
    fn an_oversized_frame_gets_a_typed_error_then_the_connection_closes() {
        let server = Server::start(ServerConfig::default()).expect("start server");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        stream
            .write_all(&vec![b'x'; MAX_FRAME_BYTES + 1])
            .expect("send");
        let mut reader = BufReader::new(stream);
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("recv");
        match Response::from_line(reply.trim()).expect("parse reply") {
            Response::Error { code, .. } => assert_eq!(code, codes::BAD_REQUEST),
            other => panic!("expected an error frame, got {}", other.to_line()),
        }
        reply.clear();
        assert_eq!(reader.read_line(&mut reply).expect("recv"), 0, "closed");
        server.shutdown();
        server.join().expect("join");
    }
}
