//! End-to-end tests of the evaluation server over real TCP sockets:
//! session sharing, bounded-admission load shedding, graceful drain,
//! every path that wakes the blocked accept threads, and the Prometheus
//! metrics side-port.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use krigeval_serve::protocol::{codes, HelloParams, Request, Response};
use krigeval_serve::server::{Server, ServerConfig};

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn send_raw(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send newline");
    }

    fn recv(&mut self) -> Response {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "server closed the connection unexpectedly");
        Response::from_line(line.trim()).expect("parse response frame")
    }

    fn roundtrip(&mut self, request: &Request) -> Response {
        self.send_raw(&request.to_line());
        self.recv()
    }

    fn hello(&mut self, benchmark: &str) -> (u64, usize) {
        let frame = self.roundtrip(&Request::Hello(HelloParams {
            benchmark: benchmark.to_string(),
            ..HelloParams::default()
        }));
        match frame {
            Response::Session { session, nv, .. } => (session, nv as usize),
            other => panic!("expected session frame, got {}", other.to_line()),
        }
    }
}

fn scrape(addr: std::net::SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect metrics");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("send scrape");
    let mut body = String::new();
    stream.read_to_string(&mut body).expect("read scrape");
    body
}

fn start(mutate: impl FnOnce(&mut ServerConfig)) -> Server {
    let mut config = ServerConfig {
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    };
    mutate(&mut config);
    Server::start(config).expect("start server")
}

#[test]
fn four_sessions_share_one_backend_and_cache() {
    let server = start(|c| {
        c.threads = 2;
        c.max_inflight = 8;
    });
    let addr = server.addr();

    let barrier = Arc::new(Barrier::new(4));
    let workers: Vec<_> = (0..4)
        .map(|k| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                let (_, nv) = client.hello("fir64");
                barrier.wait();
                // Every session asks for the same config: one simulation,
                // three shared-cache answers server-wide.
                let shared = match client.roundtrip(&Request::Evaluate {
                    config: vec![6; nv],
                }) {
                    Response::Value(outcome) => outcome.value,
                    other => panic!("expected value frame, got {}", other.to_line()),
                };
                // Plus one private config so each evaluator does real work.
                let private = match client.roundtrip(&Request::Evaluate {
                    config: vec![5 + k; nv],
                }) {
                    Response::Value(outcome) => outcome.value,
                    other => panic!("expected value frame, got {}", other.to_line()),
                };
                (shared, private)
            })
        })
        .collect();
    let results: Vec<(f64, f64)> = workers.into_iter().map(|h| h.join().unwrap()).collect();
    let first = results[0].0;
    assert!(first.is_finite());
    for (shared, _) in &results {
        assert_eq!(
            shared.to_bits(),
            first.to_bits(),
            "sessions disagreed on the same config"
        );
    }

    let mut observer = Client::connect(addr);
    observer.hello("fir64");
    match observer.roundtrip(&Request::Stats) {
        Response::Stats(stats) => {
            assert_eq!(stats.backends, 1, "fir64 sessions must share one backend");
            assert!(
                stats.shared_cache_hits >= 3,
                "expected >=3 shared-cache hits, got {}",
                stats.shared_cache_hits
            );
        }
        other => panic!("expected stats frame, got {}", other.to_line()),
    }

    let body = scrape(server.metrics_addr().unwrap());
    assert!(
        body.contains("serve_requests_total"),
        "scrape body:\n{body}"
    );
    assert!(body.contains("serve_sessions_opened_total"));
    drop(observer);
    let report = server.join().expect("join");
    assert_eq!(report.sessions, 5);
    assert_eq!(report.overloaded, 0);
}

#[test]
fn zero_capacity_sheds_every_work_request_with_typed_frames() {
    let server = start(|c| c.max_inflight = 0);
    let mut client = Client::connect(server.addr());
    let (_, nv) = client.hello("fir64");

    for _ in 0..3 {
        match client.roundtrip(&Request::Evaluate {
            config: vec![6; nv],
        }) {
            Response::Overloaded {
                inflight,
                capacity,
                retry_ms,
            } => {
                assert_eq!(capacity, 0);
                assert_eq!(inflight, 0);
                assert!(retry_ms > 0, "shed frames must carry a backoff hint");
            }
            other => panic!("expected overloaded frame, got {}", other.to_line()),
        }
    }
    // Control-plane frames are never shed.
    assert!(matches!(client.roundtrip(&Request::Ping), Response::Pong));
    assert!(matches!(
        client.roundtrip(&Request::Stats),
        Response::Stats(_)
    ));

    let body = scrape(server.metrics_addr().unwrap());
    assert!(
        body.contains("serve_overloaded_total 3"),
        "scrape body:\n{body}"
    );
    drop(client);
    let report = server.join().expect("join");
    assert_eq!(report.overloaded, 3);
}

#[test]
fn saturated_queue_recovers_with_client_backoff() {
    let server = start(|c| {
        c.threads = 1;
        c.max_inflight = 1;
    });
    let addr = server.addr();
    let barrier = Arc::new(Barrier::new(4));
    let workers: Vec<_> = (0..4)
        .map(|k| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                let (_, nv) = client.hello("iir8");
                barrier.wait();
                let mut sheds = 0u32;
                for step in 0..3 {
                    loop {
                        match client.roundtrip(&Request::Evaluate {
                            config: vec![4 + k + step; nv],
                        }) {
                            Response::Value(outcome) => {
                                assert!(outcome.value.is_finite());
                                break;
                            }
                            Response::Overloaded { retry_ms, .. } => {
                                sheds += 1;
                                assert!(sheds < 10_000, "livelocked on overloaded frames");
                                std::thread::sleep(Duration::from_millis(retry_ms.min(5)));
                            }
                            other => panic!("unexpected frame {}", other.to_line()),
                        }
                    }
                }
            })
        })
        .collect();
    for handle in workers {
        handle.join().unwrap();
    }
    server.join().expect("join");
}

#[test]
fn graceful_drain_completes_inflight_and_rejects_late_requests() {
    let out = std::env::temp_dir().join(format!(
        "krigeval_serve_metrics_{}.prom",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&out);
    let server = start(|c| {
        c.drain_grace_ms = 3_000;
        c.metrics_out = Some(out.to_string_lossy().into_owned());
    });
    let addr = server.addr();

    let mut a = Client::connect(addr);
    let (_, nv) = a.hello("fir64");
    let mut b = Client::connect(addr);
    b.hello("fir64");

    // One write, three frames: the server must answer them in order, so
    // the evaluate ahead of the shutdown completes (in-flight work) and
    // the one behind it gets a typed rejection (late work).
    let pipelined = format!(
        "{}\n{}\n{}",
        Request::Evaluate {
            config: vec![7; nv]
        }
        .to_line(),
        Request::Shutdown.to_line(),
        Request::Evaluate {
            config: vec![8; nv]
        }
        .to_line(),
    );
    a.send_raw(&pipelined);
    match a.recv() {
        Response::Value(outcome) => assert!(outcome.value.is_finite()),
        other => panic!("in-flight evaluate must complete, got {}", other.to_line()),
    }
    assert!(matches!(a.recv(), Response::Draining));
    match a.recv() {
        Response::Error { code, .. } => assert_eq!(code, codes::SHUTTING_DOWN),
        other => panic!("late evaluate must be rejected, got {}", other.to_line()),
    }

    // Another established connection is rejected the same way...
    match b.roundtrip(&Request::Evaluate {
        config: vec![7; nv],
    }) {
        Response::Error { code, .. } => assert_eq!(code, codes::SHUTTING_DOWN),
        other => panic!("expected shutting_down, got {}", other.to_line()),
    }
    // ...shutdown stays idempotent during the drain...
    assert!(matches!(
        b.roundtrip(&Request::Shutdown),
        Response::Draining
    ));
    // ...and the metrics side-port still answers so the final state is
    // observable while connections wind down.
    let metrics_addr = server.metrics_addr().unwrap();
    let body = scrape(metrics_addr);
    assert!(body.contains("serve_drain_rejected_total"), "body:\n{body}");

    // Brand-new connections get no service: the accept loop either drops
    // them immediately (EOF) or has already stopped listening.
    if let Ok(fresh) = TcpStream::connect(addr) {
        fresh
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut fresh = BufReader::new(fresh);
        let mut line = String::new();
        match fresh.read_line(&mut line) {
            Ok(0) => {}
            Ok(_) => panic!("drained server served a new connection: {line}"),
            Err(_) => {}
        }
    }

    drop(a);
    drop(b);
    let report = server.join().expect("join");
    assert!(
        report.drain_rejected >= 2,
        "expected >=2 drain rejections, got {}",
        report.drain_rejected
    );
    let flushed = std::fs::read_to_string(&out).expect("metrics_out must be flushed on join");
    assert!(flushed.contains("serve_requests_total"));
    assert!(flushed.contains("serve_drain_rejected_total"));
    let _ = std::fs::remove_file(&out);
}

#[test]
fn protocol_errors_are_typed_not_fatal() {
    let server = start(|c| c.max_sessions = 1);
    let mut client = Client::connect(server.addr());

    // Work before hello.
    match client.roundtrip(&Request::Stats) {
        Response::Error { code, .. } => assert_eq!(code, codes::NO_SESSION),
        other => panic!("expected no_session, got {}", other.to_line()),
    }
    // Garbage line.
    client.send_raw("this is not json");
    match client.recv() {
        Response::Error { code, .. } => assert_eq!(code, codes::BAD_REQUEST),
        other => panic!("expected bad_request, got {}", other.to_line()),
    }
    // Unknown benchmark.
    match client.roundtrip(&Request::Hello(HelloParams {
        benchmark: "nope".to_string(),
        ..HelloParams::default()
    })) {
        Response::Error { code, .. } => assert_eq!(code, codes::BAD_REQUEST),
        other => panic!("expected bad_request, got {}", other.to_line()),
    }
    // The failed hello must not leak a session slot: this one still fits
    // under max_sessions = 1.
    client.hello("fir64");
    // Second hello on a live session.
    match client.roundtrip(&Request::Hello(HelloParams {
        benchmark: "fir64".to_string(),
        ..HelloParams::default()
    })) {
        Response::Error { code, .. } => assert_eq!(code, codes::BAD_REQUEST),
        other => panic!("expected bad_request, got {}", other.to_line()),
    }
    // A second connection's hello exceeds the session cap.
    let mut crowded = Client::connect(server.addr());
    match crowded.roundtrip(&Request::Hello(HelloParams {
        benchmark: "fir64".to_string(),
        ..HelloParams::default()
    })) {
        Response::Error { code, .. } => assert_eq!(code, codes::BUSY),
        other => panic!("expected busy, got {}", other.to_line()),
    }
    // The surviving session still works after all those errors.
    let nv = match client.roundtrip(&Request::Stats) {
        Response::Stats(_) => 17,
        other => panic!("expected stats frame, got {}", other.to_line()),
    };
    let _ = nv;
    drop(crowded);
    drop(client);
    server.join().expect("join");
}

#[test]
fn snapshot_rides_the_wire() {
    let server = start(|c| c.max_inflight = 4);
    let mut client = Client::connect(server.addr());
    let (_, nv) = client.hello("iir8");
    for w in 5..9 {
        match client.roundtrip(&Request::Evaluate {
            config: vec![w; nv],
        }) {
            Response::Value(_) => {}
            other => panic!("expected value frame, got {}", other.to_line()),
        }
    }
    match client.roundtrip(&Request::Snapshot) {
        Response::Snapshot { snapshot } => {
            assert_eq!(snapshot.configs.len(), 4);
            assert_eq!(snapshot.values.len(), 4);
            assert_eq!(snapshot.stats.queries, 4);
        }
        other => panic!("expected snapshot frame, got {}", other.to_line()),
    }
    drop(client);
    server.join().expect("join");
}

#[test]
fn every_matrix_benchmark_opens_a_session_and_evaluates_over_the_wire() {
    // The full Table-I matrix vocabulary, each with its Nv: a hello for
    // every benchmark must succeed over the wire, report the right
    // dimension, and evaluate a mid-range configuration.
    let server = start(|c| {
        c.threads = 2;
        c.max_sessions = 16;
    });
    let addr = server.addr();
    let benchmarks: [(&str, usize); 8] = [
        ("fir", 2),
        ("iir", 5),
        ("fft", 10),
        ("hevc", 23),
        ("squeezenet", 10),
        ("quantized_cnn", 10),
        ("dct", 4),
        ("lms", 3),
    ];
    for (benchmark, expected_nv) in benchmarks {
        let mut client = Client::connect(addr);
        let frame = client.roundtrip(&Request::Hello(HelloParams {
            benchmark: benchmark.to_string(),
            ..HelloParams::default()
        }));
        let nv = match frame {
            Response::Session { nv, .. } => nv as usize,
            other => panic!(
                "{benchmark}: expected session frame, got {}",
                other.to_line()
            ),
        };
        assert_eq!(nv, expected_nv, "{benchmark}: Nv over the wire");
        let config = vec![6; nv];
        match client.roundtrip(&Request::Evaluate { config }) {
            Response::Value(outcome) => {
                assert!(
                    outcome.value.is_finite(),
                    "{benchmark}: non-finite metric value"
                );
            }
            other => panic!("{benchmark}: expected value frame, got {}", other.to_line()),
        }
    }
    let report = server.join().expect("join");
    assert_eq!(report.sessions, 8);
}

#[test]
fn metrics_snapshot_with_z_suffix_is_deflate_compressed() {
    let out = std::env::temp_dir().join(format!(
        "krigeval_serve_metrics_{}.json.z",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&out);
    let server = start(|c| {
        c.metrics_out = Some(out.to_string_lossy().into_owned());
    });
    let mut client = Client::connect(server.addr());
    let (_, nv) = client.hello("fir64");
    match client.roundtrip(&Request::Evaluate {
        config: vec![6; nv],
    }) {
        Response::Value(outcome) => assert!(outcome.value.is_finite()),
        other => panic!("expected value frame, got {}", other.to_line()),
    }
    assert!(matches!(
        client.roundtrip(&Request::Shutdown),
        Response::Draining
    ));
    drop(client);
    server.join().expect("join");

    // The snapshot is raw DEFLATE; decoding it yields the same JSON the
    // plain path would have written.
    let raw = std::fs::read(&out).expect("metrics_out must be flushed on join");
    let decoded = krigeval_flate::inflate(&raw).expect("snapshot is a complete DEFLATE stream");
    let text = String::from_utf8(decoded).expect("snapshot is UTF-8");
    assert!(text.contains("serve_requests_total"), "snapshot:\n{text}");
    assert!(
        text.trim_start().starts_with('{'),
        "inner .json suffix selects JSON format"
    );
    let _ = std::fs::remove_file(&out);
}

/// Runs `body` on its own thread and fails the test if it has not
/// returned within 10 s, so a missed wake fails instead of hanging the
/// suite.
fn under_watchdog(body: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let thread = std::thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    match finished.recv_timeout(Duration::from_secs(10)) {
        Ok(()) => thread.join().expect("body thread"),
        Err(RecvTimeoutError::Disconnected) => {
            if let Err(panic) = thread.join() {
                std::panic::resume_unwind(panic);
            }
        }
        Err(RecvTimeoutError::Timeout) => panic!("no return within 10 s: a missed wake"),
    }
}

#[test]
fn join_returns_on_a_server_that_never_saw_a_connection() {
    under_watchdog(|| {
        // Bound to loopback, and to the unspecified address, which the
        // wake reaches through loopback.
        for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
            let server = Server::start(ServerConfig {
                addr: addr.to_string(),
                ..ServerConfig::default()
            })
            .expect("start server");
            let report = server.join().expect("join");
            assert_eq!(report.requests, 0, "{addr}");
        }
    });
}

#[test]
fn a_shutdown_frame_stops_admitting_connections_and_join_returns() {
    under_watchdog(|| {
        let server = Server::start(ServerConfig::default()).expect("start server");
        let addr = server.addr();
        let mut client = Client::connect(addr);
        assert!(matches!(
            client.roundtrip(&Request::Shutdown),
            Response::Draining
        ));
        // The woken acceptor closes the listener: a fresh connection is
        // refused, or reset or closed unserved, never left waiting.
        if let Ok(fresh) = TcpStream::connect(addr) {
            fresh
                .set_read_timeout(Some(Duration::from_secs(5)))
                .expect("read timeout");
            let mut line = String::new();
            match BufReader::new(fresh).read_line(&mut line) {
                Ok(n) => assert_eq!(n, 0, "a drained server served a new connection: {line}"),
                Err(e) => assert!(
                    !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
                    "a connection made after the drain was left waiting"
                ),
            }
        }
        drop(client);
        let report = server.join().expect("join");
        assert_eq!(report.requests, 1);
    });
}

#[test]
fn a_shutdown_handle_on_another_thread_ends_an_idle_server() {
    under_watchdog(|| {
        let server = Server::start(ServerConfig::default()).expect("start server");
        let handle = server.shutdown_handle();
        std::thread::spawn(move || handle.shutdown())
            .join()
            .expect("shutdown thread");
        assert!(server.is_draining());
        server.join().expect("join");
    });
}

#[test]
fn is_draining_reads_false_until_a_frame_or_a_handle_begins_the_drain() {
    under_watchdog(|| {
        let by_frame = Server::start(ServerConfig::default()).expect("start server");
        assert!(!by_frame.is_draining(), "a fresh server is not draining");
        let mut client = Client::connect(by_frame.addr());
        assert!(matches!(client.roundtrip(&Request::Ping), Response::Pong));
        assert!(!by_frame.is_draining(), "a served frame begins no drain");
        assert!(matches!(
            client.roundtrip(&Request::Shutdown),
            Response::Draining
        ));
        assert!(
            by_frame.is_draining(),
            "the `draining` answer follows the drain"
        );
        drop(client);
        by_frame.join().expect("join");

        let by_handle = Server::start(ServerConfig::default()).expect("start server");
        assert!(!by_handle.is_draining(), "a fresh server is not draining");
        by_handle.shutdown_handle().shutdown();
        assert!(by_handle.is_draining());
        by_handle.join().expect("join");
    });
}

#[test]
fn join_returns_with_an_idle_metrics_side_port() {
    under_watchdog(|| {
        let server = start(|_| {});
        assert!(server.metrics_addr().is_some());
        server.join().expect("join");
    });
}
