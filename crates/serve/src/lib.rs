//! `krigeval-serve` — a long-lived kriging evaluation server.
//!
//! Offline campaigns pay the full surrogate warm-up cost on every
//! invocation; interactive tooling (design-space explorers, notebooks,
//! CI probes) wants to ask many small questions against a *warm* model.
//! This crate keeps the hybrid simulate-or-krige evaluator of
//! [`krigeval_core`] resident behind a TCP socket speaking newline-
//! delimited JSON frames:
//!
//! ```text
//! client:  {"type":"hello","benchmark":"fir64","scale":"fast"}
//! server:  {"type":"session","session":1,"benchmark":"fir64","nv":17,...}
//! client:  {"type":"evaluate","config":[8,8,8,...]}
//! server:  {"type":"value","source":"kriged","value":3.1e-5,...}
//! ```
//!
//! # Architecture
//!
//! * [`protocol`] — the wire frames: internally-tagged request/response
//!   enums with hand-rolled, unknown-field-tolerant serde.
//! * [`session`] — per-connection evaluator state. Each session owns a
//!   private `HybridEvaluator` (its kriging model never mixes with other
//!   sessions') while every session shares one [`session::BackendPool`]:
//!   one engine worker pool **per benchmark surface** and one global
//!   simulation cache, so identical configs simulate once server-wide.
//! * [`server`] — connection lifecycle: bounded admission with typed
//!   `overloaded` shed frames, graceful drain on `shutdown`/`SIGINT`
//!   (in-flight work completes, late frames get typed rejections), and
//!   a `GET /metrics` Prometheus side-port.
//!
//! # Determinism caveat
//!
//! A single session replayed against a fresh server reproduces its
//! values bitwise — evaluation order within a session is the client's
//! order, and the shared cache stores *simulated* values only, which are
//! themselves deterministic per config. Cross-session **statistics**
//! (cache hit counts, which session paid for a simulation) depend on
//! arrival order and are not reproducible; the offline plan/fulfill
//! campaign path remains the reference for byte-identical artifacts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod protocol;
pub mod server;
pub mod session;

pub use protocol::{HelloParams, OutcomeFrame, Request, Response, StatsFrame, PROTOCOL_VERSION};
pub use server::{Server, ServerConfig, ServerReport, ShutdownHandle};
pub use session::{BackendPool, Optimizer, Session, SessionError, SharedBackend};
