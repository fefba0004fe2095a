//! The `krigeval serve` process exits with its drain: a `SIGINT` and a
//! client's `shutdown` frame each end it with exit 0, under a 10 s
//! watchdog, so a CLI that never reaches `join` fails instead of hanging.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStderr, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::time::Duration;

use krigeval_serve::protocol::{Request, Response};

/// Starts `krigeval serve` on a free loopback port and returns the child,
/// the bound address read off its "listening on" line, and its stderr.
fn start() -> (Child, String, BufReader<ChildStderr>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_krigeval"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stderr(Stdio::piped())
        .spawn()
        .expect("krigeval starts");
    let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
    let mut line = String::new();
    stderr.read_line(&mut line).expect("status line");
    let addr = line
        .trim()
        .strip_prefix("krigeval serve: listening on ")
        .unwrap_or_else(|| panic!("unexpected status line {line:?}"))
        .to_string();
    (child, addr, stderr)
}

/// Sends signal `signum` to process `pid`.
#[cfg(unix)]
fn signal(pid: u32, signum: i32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    let pid = i32::try_from(pid).expect("pid fits an i32");
    // SAFETY: `kill` takes two integers and reads no memory of this
    // process.
    #[allow(unsafe_code)]
    let sent = unsafe { kill(pid, signum) };
    assert_eq!(sent, 0, "kill({pid}, {signum})");
}

/// Waits for `child` to exit and returns its status and the rest of its
/// stderr; kills it and fails the test if it is still running after 10 s.
fn exit_within_10_s(mut child: Child, mut stderr: BufReader<ChildStderr>) -> (ExitStatus, String) {
    let pid = child.id();
    let (done, exited) = mpsc::channel();
    std::thread::spawn(move || {
        let mut rest = String::new();
        let _ = stderr.read_to_string(&mut rest);
        let _ = done.send((child.wait().expect("wait"), rest));
    });
    exited
        .recv_timeout(Duration::from_secs(10))
        .unwrap_or_else(|_| {
            #[cfg(unix)]
            signal(pid, 9);
            panic!("krigeval serve (pid {pid}) did not exit within 10 s");
        })
}

#[cfg(unix)]
#[test]
fn sigint_ends_the_server_with_exit_zero() {
    const SIGINT: i32 = 2;
    let (child, _addr, stderr) = start();
    signal(child.id(), SIGINT);
    let (status, rest) = exit_within_10_s(child, stderr);
    assert!(status.success(), "{status}; stderr:\n{rest}");
    assert!(rest.contains("krigeval serve: done"), "stderr:\n{rest}");
}

#[test]
fn a_shutdown_frame_ends_the_server_with_exit_zero() {
    let (child, addr, stderr) = start();
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    writeln!(stream, "{}", Request::Shutdown.to_line()).expect("send shutdown");
    let mut reply = String::new();
    BufReader::new(&stream)
        .read_line(&mut reply)
        .expect("reply");
    assert_eq!(Response::from_line(reply.trim()), Ok(Response::Draining));
    drop(stream);
    let (status, rest) = exit_within_10_s(child, stderr);
    assert!(status.success(), "{status}; stderr:\n{rest}");
    assert!(rest.contains("krigeval serve: done"), "stderr:\n{rest}");
}
