//! `krigeval` — CLI front-end for the evaluation server.
//!
//! * `krigeval serve` runs the server until `SIGINT` or a client sends a
//!   `shutdown` frame, then drains gracefully and exits as soon as the
//!   drain is done.
//! * `krigeval probe` is a self-contained smoke client: it opens a
//!   session, evaluates a small batch, scrapes `/metrics`, and drains
//!   the server — CI uses it as the end-to-end health check.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use krigeval_serve::protocol::{HelloParams, Request, Response};
use krigeval_serve::server::{Server, ServerConfig};

/// Routes `SIGINT` into the graceful drain through a self-pipe: the
/// handler writes one byte, and a watcher thread blocked on the other end
/// calls `ShutdownHandle::shutdown`.
#[cfg(unix)]
mod sigint {
    use std::io::Read;
    use std::os::fd::IntoRawFd;
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::{AtomicI32, Ordering};

    use krigeval_serve::server::ShutdownHandle;

    /// The pipe's write end, once `install` has run; it stays open for the
    /// life of the process.
    static PIPE: AtomicI32 = AtomicI32::new(-1);

    /// Async-signal-safe handler: an atomic load and one `write`.
    #[allow(unsafe_code)]
    extern "C" fn on_sigint(_signum: i32) {
        let byte = 1u8;
        // SAFETY: `write` is async-signal-safe and reads one byte from
        // `byte`, which outlives the call. The descriptor is the open
        // write end `install` stored (Release, paired with this Acquire)
        // before it installed this handler.
        unsafe {
            ffi::write(PIPE.load(Ordering::Acquire), &byte, 1);
        }
    }

    // Minimal libc surface; avoids depending on the libc crate.
    #[allow(unsafe_code)]
    mod ffi {
        pub type SigHandler = extern "C" fn(i32);
        extern "C" {
            pub fn signal(signum: i32, handler: SigHandler) -> isize;
            pub fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        }
    }

    const SIGINT: i32 = 2;
    /// `signal`'s failure value, `(sighandler_t) -1`.
    const SIG_ERR: isize = -1;

    /// Registers the handler and returns the pipe's read end, which holds
    /// one byte per `SIGINT` from now on. The write end is nonblocking, so
    /// a burst of signals cannot block the handler.
    #[allow(unsafe_code)]
    pub fn install() -> std::io::Result<UnixStream> {
        let (reader, writer) = UnixStream::pair()?;
        writer.set_nonblocking(true)?;
        PIPE.store(writer.into_raw_fd(), Ordering::Release);
        // SAFETY: `on_sigint` has the handler signature and does only
        // async-signal-safe work.
        let previous = unsafe { ffi::signal(SIGINT, on_sigint) };
        if previous == SIG_ERR {
            return Err(std::io::Error::last_os_error());
        }
        Ok(reader)
    }

    /// Begins the drain through `handle` when the first `SIGINT` arrives,
    /// on a thread that blocks on the pipe until then. The thread is not
    /// joined: without a `SIGINT` it blocks until the process exits.
    pub fn watch(mut pipe: UnixStream, handle: ShutdownHandle) {
        std::thread::spawn(move || {
            if pipe.read_exact(&mut [0u8]).is_ok() {
                handle.shutdown();
            }
        });
    }
}

#[cfg(not(unix))]
mod sigint {
    use krigeval_serve::server::ShutdownHandle;

    pub fn install() -> std::io::Result<()> {
        Ok(())
    }

    pub fn watch(_pipe: (), _handle: ShutdownHandle) {}
}

fn usage() -> String {
    "usage: krigeval <command> [options]\n\
     \n\
     commands:\n\
     \x20 serve    run the evaluation server\n\
     \x20 probe    smoke-test a running server and drain it\n\
     \n\
     serve options:\n\
     \x20 --addr HOST:PORT          evaluation port (default 127.0.0.1:7171)\n\
     \x20 --metrics-addr HOST:PORT  Prometheus side-port (off by default)\n\
     \x20 --threads N               engine workers per backend (default 1)\n\
     \x20 --max-sessions N          concurrent session cap (default 64)\n\
     \x20 --max-inflight N          concurrent work cap before shedding (default 8)\n\
     \x20 --drain-grace-ms MS       typed-rejection window during drain (default 500)\n\
     \x20 --metrics-out PATH        write final metrics snapshot on exit\n\
     \x20                           (.prom = Prometheus text, .z suffix = DEFLATE)\n\
     \x20 --trace-out PATH          stream trace events to a JSONL file\n\
     \x20 --quiet                   suppress status lines\n\
     \n\
     probe options:\n\
     \x20 --addr HOST:PORT          server to probe (default 127.0.0.1:7171)\n\
     \x20 --metrics-addr HOST:PORT  also scrape GET /metrics from here\n\
     \x20 --benchmark NAME          session benchmark (default fir64)\n\
     \x20 --no-shutdown             leave the server running afterwards\n"
        .to_string()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("probe") => cmd_probe(&args[1..]),
        Some("--help" | "-h" | "help") => {
            print!("{}", usage());
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`\n\n{}", usage())),
        None => Err(usage()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{}", message.trim_end());
            ExitCode::FAILURE
        }
    }
}

fn take_value(args: &[String], i: &mut usize, flag: &str) -> Result<String, String> {
    *i += 1;
    args.get(*i)
        .cloned()
        .ok_or_else(|| format!("{flag} requires a value"))
}

fn parse_num<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: invalid value `{value}`"))
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7171".to_string(),
        ..ServerConfig::default()
    };
    let mut quiet = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => config.addr = take_value(args, &mut i, "--addr")?,
            "--metrics-addr" => {
                config.metrics_addr = Some(take_value(args, &mut i, "--metrics-addr")?);
            }
            "--threads" => {
                config.threads = parse_num(&take_value(args, &mut i, "--threads")?, "--threads")?;
            }
            "--max-sessions" => {
                config.max_sessions = parse_num(
                    &take_value(args, &mut i, "--max-sessions")?,
                    "--max-sessions",
                )?;
            }
            "--max-inflight" => {
                config.max_inflight = parse_num(
                    &take_value(args, &mut i, "--max-inflight")?,
                    "--max-inflight",
                )?;
            }
            "--drain-grace-ms" => {
                config.drain_grace_ms = parse_num(
                    &take_value(args, &mut i, "--drain-grace-ms")?,
                    "--drain-grace-ms",
                )?;
            }
            "--metrics-out" => {
                config.metrics_out = Some(take_value(args, &mut i, "--metrics-out")?);
            }
            "--trace-out" => {
                config.trace_out = Some(take_value(args, &mut i, "--trace-out")?);
            }
            "--quiet" => quiet = true,
            other => return Err(format!("unknown serve option `{other}`\n\n{}", usage())),
        }
        i += 1;
    }
    // Installed before binding: a SIGINT once the port is up drains.
    let interrupts =
        sigint::install().map_err(|e| format!("cannot install the SIGINT handler: {e}"))?;
    let server = Server::start(config).map_err(|e| format!("failed to start server: {e}"))?;
    if !quiet {
        eprintln!("krigeval serve: listening on {}", server.addr());
        if let Some(addr) = server.metrics_addr() {
            eprintln!("krigeval serve: metrics on http://{addr}/metrics");
        }
    }
    sigint::watch(interrupts, server.shutdown_handle());
    server.wait_for_drain();
    if !quiet {
        eprintln!("krigeval serve: draining...");
    }
    let report = server.join().map_err(|e| format!("drain failed: {e}"))?;
    if !quiet {
        eprintln!(
            "krigeval serve: done ({} requests, {} sessions, {} shed, {} drain-rejected)",
            report.requests, report.sessions, report.overloaded, report.drain_rejected
        );
    }
    Ok(())
}

/// A tiny line-oriented client used by `probe` (and handy as example code
/// for writing real clients).
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str, timeout: Duration) -> Result<Client, String> {
        let deadline = Instant::now() + timeout;
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    stream
                        .set_nodelay(true)
                        .map_err(|e| format!("set_nodelay: {e}"))?;
                    let reader = BufReader::new(
                        stream
                            .try_clone()
                            .map_err(|e| format!("clone stream: {e}"))?,
                    );
                    return Ok(Client {
                        reader,
                        writer: stream,
                    });
                }
                Err(e) if Instant::now() < deadline => {
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(e) => return Err(format!("connect {addr}: {e}")),
            }
        }
    }

    fn roundtrip(&mut self, request: &Request) -> Result<Response, String> {
        let mut line = request.to_line();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        let n = self
            .reader
            .read_line(&mut reply)
            .map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".to_string());
        }
        Response::from_line(reply.trim()).map_err(|e| format!("bad response frame: {e}"))
    }
}

fn scrape_metrics(addr: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: krigeval\r\nConnection: close\r\n\r\n")
        .map_err(|e| format!("send: {e}"))?;
    let mut body = String::new();
    stream
        .read_to_string(&mut body)
        .map_err(|e| format!("recv: {e}"))?;
    Ok(body)
}

fn cmd_probe(args: &[String]) -> Result<(), String> {
    let mut addr = "127.0.0.1:7171".to_string();
    let mut metrics_addr: Option<String> = None;
    let mut benchmark = "fir64".to_string();
    let mut shutdown = true;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = take_value(args, &mut i, "--addr")?,
            "--metrics-addr" => metrics_addr = Some(take_value(args, &mut i, "--metrics-addr")?),
            "--benchmark" => benchmark = take_value(args, &mut i, "--benchmark")?,
            "--no-shutdown" => shutdown = false,
            other => return Err(format!("unknown probe option `{other}`\n\n{}", usage())),
        }
        i += 1;
    }

    let mut client = Client::connect(&addr, Duration::from_secs(10))?;
    let hello = Request::Hello(HelloParams {
        benchmark: benchmark.clone(),
        ..HelloParams::default()
    });
    let nv = match client.roundtrip(&hello)? {
        Response::Session { session, nv, .. } => {
            println!("probe: session {session} on {benchmark} (nv={nv})");
            nv as usize
        }
        other => return Err(format!("expected session frame, got: {}", other.to_line())),
    };

    let configs: Vec<Vec<i32>> = (0..3).map(|k| vec![6 + k; nv]).collect();
    match client.roundtrip(&Request::EvaluateBatch { configs })? {
        Response::Values { outcomes } => {
            for (k, outcome) in outcomes.iter().enumerate() {
                println!(
                    "probe: batch[{k}] source={} value={:.6e}",
                    outcome.source, outcome.value
                );
            }
            if outcomes.len() != 3 {
                return Err(format!("expected 3 outcomes, got {}", outcomes.len()));
            }
        }
        other => return Err(format!("expected values frame, got: {}", other.to_line())),
    }

    match client.roundtrip(&Request::Stats)? {
        Response::Stats(stats) => println!(
            "probe: stats queries={} simulated={} kriged={} backends={}",
            stats.queries, stats.simulated, stats.kriged, stats.backends
        ),
        other => return Err(format!("expected stats frame, got: {}", other.to_line())),
    }

    if let Some(maddr) = &metrics_addr {
        let body = scrape_metrics(maddr)?;
        if !body.contains("serve_requests_total") {
            return Err(format!(
                "metrics scrape from {maddr} is missing serve_requests_total:\n{body}"
            ));
        }
        println!("probe: metrics scrape ok ({} bytes)", body.len());
    }

    if shutdown {
        match client.roundtrip(&Request::Shutdown)? {
            Response::Draining => println!("probe: server draining"),
            other => return Err(format!("expected draining frame, got: {}", other.to_line())),
        }
    }
    println!("probe: ok");
    Ok(())
}
