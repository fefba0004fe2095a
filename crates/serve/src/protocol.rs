//! The `krigeval serve` wire protocol: line-delimited JSON frames.
//!
//! Every frame is one JSON object on one line, tagged by a `"type"` field
//! (serde's internally-tagged representation). Clients send [`Request`]
//! frames; the server answers each with exactly one [`Response`] frame, in
//! request order. The vendored serde derive only covers externally-tagged
//! enums, so both enums implement their serde by hand over the
//! [`serde_json::Value`] tree — which also makes the protocol's
//! forward-compatibility rule explicit: **unknown fields are ignored**
//! (a newer client may send extra fields to an older server), while an
//! unknown `"type"` is a hard error answered with a `bad_request` frame.
//!
//! Missing optional fields deserialize as `None`; `Serialize` omits `None`
//! fields entirely, so the wire stays minimal and the round trip is exact.
//!
//! The two frames that make up nearly all traffic, `evaluate` requests and
//! `value` answers, skip the tree: [`Request::to_line`] and
//! [`Response::to_line`] print them directly, byte for byte as the tree
//! path would, and `from_line` reads the exact shape `to_line` prints in
//! one pass. Any other spelling of them takes the tree path, which keeps
//! the accepted frames and the error messages the same.

use krigeval_core::SessionSnapshot;
use serde::{DeError, Deserialize, Serialize};
use serde_json::{Number, Value};

/// Protocol revision carried in the `session` frame. Bumped whenever a
/// frame's meaning (not merely its optional-field set) changes.
pub const PROTOCOL_VERSION: u64 = 1;

/// Machine-readable error codes carried by [`Response::Error`].
pub mod codes {
    /// Malformed frame: bad JSON, unknown `type`, or invalid field values.
    pub const BAD_REQUEST: &str = "bad_request";
    /// A session frame arrived before a successful `hello`.
    pub const NO_SESSION: &str = "no_session";
    /// The simulation or kriging evaluation itself failed.
    pub const EVAL_FAILED: &str = "eval_failed";
    /// The server is draining; the request was not admitted.
    pub const SHUTTING_DOWN: &str = "shutting_down";
    /// The request names a feature this server does not provide.
    pub const UNSUPPORTED: &str = "unsupported";
    /// The session table is full (`max_sessions` reached).
    pub const BUSY: &str = "busy";
}

/// Parameters of the `hello` frame. Only `benchmark` is required; every
/// other field defaults to the hybrid evaluator's canonical settings, so
/// `{"type":"hello","benchmark":"fir"}` is a complete session request.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HelloParams {
    /// Benchmark name, as accepted by the campaign CLI (`fir`, `iir`, ...).
    pub benchmark: String,
    /// `"fast"` (default) or `"paper"`.
    pub scale: Option<String>,
    /// Benchmark input seed (default 0 — the canonical instance).
    pub seed: Option<u64>,
    /// Neighbour-search radius `d` (default 3).
    pub d: Option<f64>,
    /// Minimum neighbour count `N_n,min` (default 3).
    pub min_neighbors: Option<usize>,
    /// Cap on neighbours per kriging system (default 32; 0 = unlimited).
    pub max_neighbors: Option<usize>,
    /// Distance metric: `"l1"` (default), `"l2"` or `"linf"`.
    pub metric: Option<String>,
    /// Variogram policy, campaign CLI syntax: `fit-after:N`,
    /// `fixed-linear:SLOPE` or `FAMILY:NUGGET:SILL:RANGE`.
    /// Default `fit-after:10` (the hybrid evaluator's canonical policy).
    pub variogram: Option<String>,
    /// Accuracy-constraint override for `optimize` (default: the
    /// benchmark's canonical `λ_min`).
    pub lambda_min: Option<f64>,
    /// Kriged-vs-simulate decision gate, campaign CLI syntax: `"fixed"`
    /// (default), `"variance:T"` (reject solves with kriging variance
    /// above `T`) or `"variance"` (`T` = 1).
    pub gate: Option<String>,
    /// Variogram-family selection: `"sse"` (default, weighted least
    /// squares) or `"loo"` (fast leave-one-out cross-validation).
    pub selection: Option<String>,
    /// Fixed nugget variance `τ² ≥ 0` for noisy metrics, as a number.
    /// Default: exact interpolation.
    pub nugget: Option<String>,
}

/// A client request frame.
//
// `Hello` dwarfs the other variants (HelloParams is a dozen optional
// knobs), but a `Request` lives only from frame parse to dispatch —
// one at a time per connection — so boxing it would trade an
// allocation per hello for nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open a session on this connection.
    Hello(HelloParams),
    /// Evaluate one configuration through the hybrid evaluator.
    Evaluate {
        /// The configuration (length must equal the benchmark's `Nv`).
        config: Vec<i32>,
    },
    /// Evaluate a batch through the plan/fulfill/commit path.
    EvaluateBatch {
        /// The configurations, evaluated all-or-nothing.
        configs: Vec<Vec<i32>>,
    },
    /// Run the benchmark's canonical optimizer over this session.
    Optimize,
    /// Capture the session state for later resumption.
    Snapshot,
    /// Session and server statistics.
    Stats,
    /// Liveness check.
    Ping,
    /// Begin a graceful server drain.
    Shutdown,
}

/// How a single evaluation was answered, as carried on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct OutcomeFrame {
    /// `"simulated"` or `"kriged"`.
    pub source: String,
    /// The metric value.
    pub value: f64,
    /// Kriging variance (kriged outcomes only).
    pub variance: Option<f64>,
    /// Neighbour count of the kriging system (kriged outcomes only).
    pub neighbors: Option<u64>,
}

/// The `stats` response payload: the session's counters plus the shared
/// server-side state every session rides on.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsFrame {
    /// Session metric queries `N_λ`.
    pub queries: u64,
    /// Session queries answered by simulation.
    pub simulated: u64,
    /// Session queries answered by kriging.
    pub kriged: u64,
    /// Session exact-duplicate cache hits.
    pub cache_hits: u64,
    /// Session kriging attempts that fell back to simulation.
    pub kriging_failures: u64,
    /// Currently open sessions on the server.
    pub sessions: u64,
    /// Distinct `EngineBackend` pools alive (one per benchmark surface).
    pub backends: u64,
    /// Lookups in the shared simulation cache (all sessions).
    pub shared_cache_lookups: u64,
    /// Hits in the shared simulation cache (all sessions).
    pub shared_cache_hits: u64,
}

/// A server response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `hello` succeeded; the connection now carries a session.
    Session {
        /// Server-unique session id.
        session: u64,
        /// Canonical benchmark label (e.g. `fir64`).
        benchmark: String,
        /// Number of optimization variables `Nv`.
        nv: u64,
        /// Protocol revision ([`PROTOCOL_VERSION`]).
        protocol: u64,
        /// Threads that simulate in the session's shared backend pool,
        /// the fulfilling thread included.
        workers: u64,
    },
    /// Answer to `evaluate`.
    Value(OutcomeFrame),
    /// Answer to `evaluate_batch`, outcomes in request order.
    Values {
        /// One outcome per requested configuration.
        outcomes: Vec<OutcomeFrame>,
    },
    /// Answer to `optimize`.
    Optimum {
        /// The optimized configuration.
        solution: Vec<i32>,
        /// Metric value at the solution.
        lambda: f64,
        /// Greedy iterations performed.
        iterations: u64,
    },
    /// Answer to `snapshot`.
    Snapshot {
        /// The session state, resumable via `HybridEvaluator::resume`.
        snapshot: SessionSnapshot,
    },
    /// Answer to `stats`.
    Stats(StatsFrame),
    /// Answer to `ping`.
    Pong,
    /// Answer to `shutdown`: the drain has begun (idempotent).
    Draining,
    /// The request failed; the session (if any) is unchanged.
    Error {
        /// One of [`codes`].
        code: String,
        /// Human-readable detail.
        message: String,
    },
    /// Load-shed: the bounded work queue is full. Retry after `retry_ms`.
    Overloaded {
        /// Work requests in flight when this one arrived.
        inflight: u64,
        /// The queue bound (`max_inflight`).
        capacity: u64,
        /// Suggested client backoff in milliseconds.
        retry_ms: u64,
    },
}

impl Response {
    /// Convenience constructor for an error frame.
    pub fn error(code: &str, message: impl Into<String>) -> Response {
        Response::Error {
            code: code.to_string(),
            message: message.into(),
        }
    }
}

// ---------------------------------------------------------------------------
// Serialization plumbing
// ---------------------------------------------------------------------------

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn tagged(tag: &str, mut fields: Vec<(&str, Value)>) -> Value {
    let mut entries = vec![("type", Value::String(tag.to_string()))];
    entries.append(&mut fields);
    obj(entries)
}

/// Pushes `(key, value)` only when the optional field is present, keeping
/// absent options off the wire entirely.
fn push_opt<T: Serialize>(fields: &mut Vec<(&str, Value)>, key: &'static str, v: &Option<T>) {
    if let Some(v) = v {
        fields.push((key, v.serialize_to_value()));
    }
}

fn num_u64(v: u64) -> Value {
    Value::Number(Number::PosInt(v))
}

/// The entries of a JSON object, in order.
type Entries = [(String, Value)];

/// Ordered-object lookup that treats an explicit `null` as absent, so
/// `{"seed":null}` and a missing `seed` deserialize identically.
fn field<'a>(entries: &'a Entries, key: &str) -> Option<&'a Value> {
    entries
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .filter(|v| !matches!(v, Value::Null))
}

fn required<T: Deserialize>(entries: &Entries, key: &str, ty: &str) -> Result<T, DeError> {
    match field(entries, key) {
        Some(v) => T::deserialize_from_value(v),
        None => Err(DeError::missing_field(key, ty)),
    }
}

fn optional<T: Deserialize>(entries: &Entries, key: &str) -> Result<Option<T>, DeError> {
    match field(entries, key) {
        Some(v) => T::deserialize_from_value(v).map(Some),
        None => Ok(None),
    }
}

fn entries_and_tag<'a>(value: &'a Value, ty: &str) -> Result<(&'a Entries, String), DeError> {
    match value {
        Value::Object(entries) => {
            let tag: String = required(entries, "type", ty)?;
            Ok((entries, tag))
        }
        _ => Err(DeError::expected("object", ty)),
    }
}

impl Serialize for HelloParams {
    fn serialize_to_value(&self) -> Value {
        let mut fields = vec![("benchmark", Value::String(self.benchmark.clone()))];
        push_opt(&mut fields, "scale", &self.scale);
        push_opt(&mut fields, "seed", &self.seed);
        push_opt(&mut fields, "d", &self.d);
        push_opt(&mut fields, "min_neighbors", &self.min_neighbors);
        push_opt(&mut fields, "max_neighbors", &self.max_neighbors);
        push_opt(&mut fields, "metric", &self.metric);
        push_opt(&mut fields, "variogram", &self.variogram);
        push_opt(&mut fields, "lambda_min", &self.lambda_min);
        push_opt(&mut fields, "gate", &self.gate);
        push_opt(&mut fields, "selection", &self.selection);
        push_opt(&mut fields, "nugget", &self.nugget);
        obj(fields)
    }
}

impl Deserialize for HelloParams {
    fn deserialize_from_value(value: &Value) -> Result<Self, DeError> {
        let entries = match value {
            Value::Object(entries) => entries,
            _ => return Err(DeError::expected("object", "HelloParams")),
        };
        Ok(HelloParams {
            benchmark: required(entries, "benchmark", "HelloParams")?,
            scale: optional(entries, "scale")?,
            seed: optional(entries, "seed")?,
            d: optional(entries, "d")?,
            min_neighbors: optional(entries, "min_neighbors")?,
            max_neighbors: optional(entries, "max_neighbors")?,
            metric: optional(entries, "metric")?,
            variogram: optional(entries, "variogram")?,
            lambda_min: optional(entries, "lambda_min")?,
            gate: optional(entries, "gate")?,
            selection: optional(entries, "selection")?,
            nugget: optional(entries, "nugget")?,
        })
    }
}

impl Serialize for Request {
    fn serialize_to_value(&self) -> Value {
        match self {
            Request::Hello(params) => {
                let inner = match params.serialize_to_value() {
                    Value::Object(entries) => entries,
                    _ => unreachable!("HelloParams serializes to an object"),
                };
                let mut entries = vec![("type".to_string(), Value::String("hello".to_string()))];
                entries.extend(inner);
                Value::Object(entries)
            }
            Request::Evaluate { config } => {
                tagged("evaluate", vec![("config", config.serialize_to_value())])
            }
            Request::EvaluateBatch { configs } => tagged(
                "evaluate_batch",
                vec![("configs", configs.serialize_to_value())],
            ),
            Request::Optimize => tagged("optimize", vec![]),
            Request::Snapshot => tagged("snapshot", vec![]),
            Request::Stats => tagged("stats", vec![]),
            Request::Ping => tagged("ping", vec![]),
            Request::Shutdown => tagged("shutdown", vec![]),
        }
    }
}

impl Deserialize for Request {
    fn deserialize_from_value(value: &Value) -> Result<Self, DeError> {
        let (entries, tag) = entries_and_tag(value, "Request")?;
        match tag.as_str() {
            "hello" => Ok(Request::Hello(HelloParams::deserialize_from_value(value)?)),
            "evaluate" => Ok(Request::Evaluate {
                config: required(entries, "config", "evaluate")?,
            }),
            "evaluate_batch" => Ok(Request::EvaluateBatch {
                configs: required(entries, "configs", "evaluate_batch")?,
            }),
            "optimize" => Ok(Request::Optimize),
            "snapshot" => Ok(Request::Snapshot),
            "stats" => Ok(Request::Stats),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(DeError::unknown_variant(other, "Request")),
        }
    }
}

impl Serialize for OutcomeFrame {
    fn serialize_to_value(&self) -> Value {
        let mut fields = vec![
            ("source", Value::String(self.source.clone())),
            ("value", self.value.serialize_to_value()),
        ];
        push_opt(&mut fields, "variance", &self.variance);
        push_opt(&mut fields, "neighbors", &self.neighbors);
        obj(fields)
    }
}

impl Deserialize for OutcomeFrame {
    fn deserialize_from_value(value: &Value) -> Result<Self, DeError> {
        let entries = match value {
            Value::Object(entries) => entries,
            _ => return Err(DeError::expected("object", "OutcomeFrame")),
        };
        Ok(OutcomeFrame {
            source: required(entries, "source", "OutcomeFrame")?,
            value: required(entries, "value", "OutcomeFrame")?,
            variance: optional(entries, "variance")?,
            neighbors: optional(entries, "neighbors")?,
        })
    }
}

impl Serialize for StatsFrame {
    fn serialize_to_value(&self) -> Value {
        obj(vec![
            ("queries", num_u64(self.queries)),
            ("simulated", num_u64(self.simulated)),
            ("kriged", num_u64(self.kriged)),
            ("cache_hits", num_u64(self.cache_hits)),
            ("kriging_failures", num_u64(self.kriging_failures)),
            ("sessions", num_u64(self.sessions)),
            ("backends", num_u64(self.backends)),
            ("shared_cache_lookups", num_u64(self.shared_cache_lookups)),
            ("shared_cache_hits", num_u64(self.shared_cache_hits)),
        ])
    }
}

impl Deserialize for StatsFrame {
    fn deserialize_from_value(value: &Value) -> Result<Self, DeError> {
        let entries = match value {
            Value::Object(entries) => entries,
            _ => return Err(DeError::expected("object", "StatsFrame")),
        };
        Ok(StatsFrame {
            queries: required(entries, "queries", "StatsFrame")?,
            simulated: required(entries, "simulated", "StatsFrame")?,
            kriged: required(entries, "kriged", "StatsFrame")?,
            cache_hits: required(entries, "cache_hits", "StatsFrame")?,
            kriging_failures: required(entries, "kriging_failures", "StatsFrame")?,
            sessions: required(entries, "sessions", "StatsFrame")?,
            backends: required(entries, "backends", "StatsFrame")?,
            shared_cache_lookups: required(entries, "shared_cache_lookups", "StatsFrame")?,
            shared_cache_hits: required(entries, "shared_cache_hits", "StatsFrame")?,
        })
    }
}

impl Serialize for Response {
    fn serialize_to_value(&self) -> Value {
        match self {
            Response::Session {
                session,
                benchmark,
                nv,
                protocol,
                workers,
            } => tagged(
                "session",
                vec![
                    ("session", num_u64(*session)),
                    ("benchmark", Value::String(benchmark.clone())),
                    ("nv", num_u64(*nv)),
                    ("protocol", num_u64(*protocol)),
                    ("workers", num_u64(*workers)),
                ],
            ),
            Response::Value(outcome) => {
                let inner = match outcome.serialize_to_value() {
                    Value::Object(entries) => entries,
                    _ => unreachable!("OutcomeFrame serializes to an object"),
                };
                let mut entries = vec![("type".to_string(), Value::String("value".to_string()))];
                entries.extend(inner);
                Value::Object(entries)
            }
            Response::Values { outcomes } => {
                tagged("values", vec![("outcomes", outcomes.serialize_to_value())])
            }
            Response::Optimum {
                solution,
                lambda,
                iterations,
            } => tagged(
                "optimum",
                vec![
                    ("solution", solution.serialize_to_value()),
                    ("lambda", lambda.serialize_to_value()),
                    ("iterations", num_u64(*iterations)),
                ],
            ),
            Response::Snapshot { snapshot } => tagged(
                "snapshot",
                vec![("snapshot", snapshot.serialize_to_value())],
            ),
            Response::Stats(stats) => {
                let inner = match stats.serialize_to_value() {
                    Value::Object(entries) => entries,
                    _ => unreachable!("StatsFrame serializes to an object"),
                };
                let mut entries = vec![("type".to_string(), Value::String("stats".to_string()))];
                entries.extend(inner);
                Value::Object(entries)
            }
            Response::Pong => tagged("pong", vec![]),
            Response::Draining => tagged("draining", vec![]),
            Response::Error { code, message } => tagged(
                "error",
                vec![
                    ("code", Value::String(code.clone())),
                    ("message", Value::String(message.clone())),
                ],
            ),
            Response::Overloaded {
                inflight,
                capacity,
                retry_ms,
            } => tagged(
                "overloaded",
                vec![
                    ("inflight", num_u64(*inflight)),
                    ("capacity", num_u64(*capacity)),
                    ("retry_ms", num_u64(*retry_ms)),
                ],
            ),
        }
    }
}

impl Deserialize for Response {
    fn deserialize_from_value(value: &Value) -> Result<Self, DeError> {
        let (entries, tag) = entries_and_tag(value, "Response")?;
        match tag.as_str() {
            "session" => Ok(Response::Session {
                session: required(entries, "session", "session")?,
                benchmark: required(entries, "benchmark", "session")?,
                nv: required(entries, "nv", "session")?,
                protocol: required(entries, "protocol", "session")?,
                workers: required(entries, "workers", "session")?,
            }),
            "value" => Ok(Response::Value(OutcomeFrame::deserialize_from_value(
                value,
            )?)),
            "values" => Ok(Response::Values {
                outcomes: required(entries, "outcomes", "values")?,
            }),
            "optimum" => Ok(Response::Optimum {
                solution: required(entries, "solution", "optimum")?,
                lambda: required(entries, "lambda", "optimum")?,
                iterations: required(entries, "iterations", "optimum")?,
            }),
            "snapshot" => Ok(Response::Snapshot {
                snapshot: required(entries, "snapshot", "snapshot")?,
            }),
            "stats" => Ok(Response::Stats(StatsFrame::deserialize_from_value(value)?)),
            "pong" => Ok(Response::Pong),
            "draining" => Ok(Response::Draining),
            "error" => Ok(Response::Error {
                code: required(entries, "code", "error")?,
                message: required(entries, "message", "error")?,
            }),
            "overloaded" => Ok(Response::Overloaded {
                inflight: required(entries, "inflight", "overloaded")?,
                capacity: required(entries, "capacity", "overloaded")?,
                retry_ms: required(entries, "retry_ms", "overloaded")?,
            }),
            other => Err(DeError::unknown_variant(other, "Response")),
        }
    }
}

// ---------------------------------------------------------------------------
// Direct codec of the two hot frames
// ---------------------------------------------------------------------------
//
// Nearly every frame of an exploration session is an `evaluate` request or
// its `value` answer, so these two skip the `Value` tree. The printer
// writes the bytes the `Value` path prints, through the vendored
// serde_json's own number and string writers. The reader answers only a
// line in exactly the shape the printer writes, reading its numbers with
// the parser's own scanner, and returns `None` ("not mine") on anything
// else: whitespace, reordered, duplicate or escaped keys, another number
// spelling. The `Value` path then decides, so the accepted frames and
// every error message stay the `Value` path's.

const EVALUATE_HEAD: &str = r#"{"type":"evaluate","config":["#;
const VALUE_HEAD: &str = r#"{"type":"value","source":"#;

/// An integer as the `Value` path numbers it.
fn int_number(v: i64) -> Number {
    u64::try_from(v).map_or(Number::NegInt(v), Number::PosInt)
}

fn print_evaluate(config: &[i32]) -> String {
    // At most 11 bytes per element plus its comma.
    let mut out = String::with_capacity(EVALUATE_HEAD.len() + 12 * config.len() + 2);
    out.push_str(EVALUATE_HEAD);
    for (i, &v) in config.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        serde_json::write_number(&mut out, &int_number(v.into()));
    }
    out.push_str("]}");
    out
}

fn print_value(frame: &OutcomeFrame) -> String {
    let mut out = String::with_capacity(128);
    out.push_str(VALUE_HEAD);
    serde_json::write_string(&mut out, &frame.source);
    out.push_str(r#","value":"#);
    serde_json::write_number(&mut out, &Number::Float(frame.value));
    if let Some(variance) = frame.variance {
        out.push_str(r#","variance":"#);
        serde_json::write_number(&mut out, &Number::Float(variance));
    }
    if let Some(neighbors) = frame.neighbors {
        out.push_str(r#","neighbors":"#);
        serde_json::write_number(&mut out, &Number::PosInt(neighbors));
    }
    out.push('}');
    out
}

/// One pass over a line in the direct printer's shape. Every method
/// answers `None` as soon as the line leaves that shape.
struct Direct<'a> {
    line: &'a str,
    pos: usize,
}

impl<'a> Direct<'a> {
    fn eat(&mut self, literal: &str) -> bool {
        let found = self.line[self.pos..].starts_with(literal);
        if found {
            self.pos += literal.len();
        }
        found
    }

    fn expect(&mut self, literal: &str) -> Option<()> {
        self.eat(literal).then_some(())
    }

    fn end(&self) -> Option<()> {
        (self.pos == self.line.len()).then_some(())
    }

    fn number(&mut self) -> Option<Number> {
        let (number, end) = serde_json::scan_number(self.line.as_bytes(), self.pos).ok()?;
        self.pos = end;
        Some(number)
    }

    /// An integer as the printer spells one: no leading zero, no `-0`.
    fn integer(&mut self) -> Option<i64> {
        let start = self.pos;
        let number = self.number()?;
        let sign = usize::from(self.line.as_bytes()[start] == b'-');
        if self.line.as_bytes()[start + sign] == b'0' && self.pos - start > 1 {
            return None;
        }
        match number {
            Number::PosInt(v) => i64::try_from(v).ok(),
            Number::NegInt(v) => Some(v),
            Number::Float(_) => None,
        }
    }

    /// A string without escapes (the printer escapes no source it writes).
    fn plain_string(&mut self) -> Option<&'a str> {
        self.expect("\"")?;
        let rest = &self.line[self.pos..];
        let len = rest.find(['"', '\\'])?;
        self.pos += len;
        self.expect("\"")?;
        Some(&rest[..len])
    }
}

/// Reads `{"type":"evaluate","config":[…]}` as [`print_evaluate`] writes it.
fn read_evaluate(line: &str) -> Option<Request> {
    let mut d = Direct { line, pos: 0 };
    d.expect(EVALUATE_HEAD)?;
    // Each element takes at least two bytes, a digit and a separator.
    let mut config = Vec::with_capacity((line.len() - d.pos) / 2);
    if !d.eat("]") {
        loop {
            config.push(i32::try_from(d.integer()?).ok()?);
            if !d.eat(",") {
                d.expect("]")?;
                break;
            }
        }
    }
    d.expect("}")?;
    d.end()?;
    Some(Request::Evaluate { config })
}

/// Reads `{"type":"value",…}` as [`print_value`] writes it.
fn read_value(line: &str) -> Option<Response> {
    let mut d = Direct { line, pos: 0 };
    d.expect(VALUE_HEAD)?;
    let source = d.plain_string()?.to_string();
    d.expect(r#","value":"#)?;
    let value = d.number()?.as_f64();
    let variance = if d.eat(r#","variance":"#) {
        Some(d.number()?.as_f64())
    } else {
        None
    };
    let neighbors = if d.eat(r#","neighbors":"#) {
        Some(u64::try_from(d.integer()?).ok()?)
    } else {
        None
    };
    d.expect("}")?;
    d.end()?;
    Some(Response::Value(OutcomeFrame {
        source,
        value,
        variance,
        neighbors,
    }))
}

impl Request {
    /// Renders the frame as one JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Request::Evaluate { config } => print_evaluate(config),
            _ => serde_json::to_string(self).expect("request frames always serialize"),
        }
    }

    /// Parses a frame from one JSON line.
    ///
    /// # Errors
    ///
    /// Returns the underlying JSON or shape error (the server answers
    /// these with a `bad_request` frame).
    pub fn from_line(line: &str) -> Result<Request, serde_json::Error> {
        read_evaluate(line).map_or_else(|| serde_json::from_str(line), Ok)
    }
}

impl Response {
    /// Renders the frame as one JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Response::Value(frame) => print_value(frame),
            _ => serde_json::to_string(self).expect("response frames always serialize"),
        }
    }

    /// Parses a frame from one JSON line.
    ///
    /// # Errors
    ///
    /// Returns the underlying JSON or shape error.
    pub fn from_line(line: &str) -> Result<Response, serde_json::Error> {
        read_value(line).map_or_else(|| serde_json::from_str(line), Ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_hello_parses_with_defaults() {
        let req = Request::from_line(r#"{"type":"hello","benchmark":"fir"}"#).unwrap();
        assert_eq!(
            req,
            Request::Hello(HelloParams {
                benchmark: "fir".to_string(),
                ..HelloParams::default()
            })
        );
    }

    #[test]
    fn unknown_fields_are_ignored() {
        let req = Request::from_line(r#"{"type":"ping","future_field":{"nested":[1,2]}}"#).unwrap();
        assert_eq!(req, Request::Ping);
        let resp = Response::from_line(r#"{"type":"pong","ts":123}"#).unwrap();
        assert_eq!(resp, Response::Pong);
    }

    #[test]
    fn explicit_null_equals_absent() {
        let a = Request::from_line(r#"{"type":"hello","benchmark":"fir","seed":null}"#).unwrap();
        let b = Request::from_line(r#"{"type":"hello","benchmark":"fir"}"#).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn unknown_type_is_rejected() {
        assert!(Request::from_line(r#"{"type":"warp"}"#).is_err());
        assert!(Response::from_line(r#"{"type":"warp"}"#).is_err());
        assert!(Request::from_line("not json").is_err());
        assert!(Request::from_line(r#"{"benchmark":"fir"}"#).is_err());
    }

    #[test]
    fn overloaded_frame_round_trips() {
        let frame = Response::Overloaded {
            inflight: 8,
            capacity: 8,
            retry_ms: 50,
        };
        let line = frame.to_line();
        assert!(line.contains(r#""type":"overloaded""#), "{line}");
        assert_eq!(Response::from_line(&line).unwrap(), frame);
    }

    #[test]
    fn printed_hot_frames_take_the_direct_path() {
        let request = Request::Evaluate {
            config: vec![i32::MIN, -1, 0, 7, i32::MAX],
        };
        assert_eq!(read_evaluate(&request.to_line()), Some(request));
        assert_eq!(
            read_evaluate(r#"{"type":"evaluate","config":[]}"#),
            Some(Request::Evaluate { config: vec![] })
        );
        for frame in [
            OutcomeFrame {
                source: "kriged".to_string(),
                value: -0.25,
                variance: Some(1e-300),
                neighbors: Some(9),
            },
            OutcomeFrame {
                source: "simulated".to_string(),
                value: 3e16,
                variance: None,
                neighbors: None,
            },
        ] {
            let response = Response::Value(frame);
            assert_eq!(read_value(&response.to_line()), Some(response));
        }
    }

    #[test]
    fn other_spellings_are_left_to_the_value_path() {
        for line in [
            r#"{"type":"evaluate", "config":[1]}"#,
            r#"{"config":[1],"type":"evaluate"}"#,
            r#"{"type":"evaluate","config":[1],"x":0}"#,
            r#"{"type":"evaluate","config":[1],"config":[2]}"#,
            r#"{"\u0074ype":"evaluate","config":[1]}"#,
            r#"{"type":"evaluate","config":[8.0,007,-0]}"#,
            r#"{"type":"evaluate","config":[2147483648]}"#,
            r#"{"type":"evaluate","config":[+1]}"#,
            r#"{"type":"evaluate","config":[1]} "#,
        ] {
            assert_eq!(read_evaluate(line), None, "{line}");
            assert_eq!(
                Request::from_line(line),
                serde_json::from_str::<Request>(line),
                "{line}"
            );
        }
        assert_eq!(
            Request::from_line(r#"{"type":"evaluate","config":[8.0,007,-0]}"#),
            Ok(Request::Evaluate {
                config: vec![8, 7, 0]
            })
        );
        for line in [
            r#"{"type":"value","source":"krig\u0065d","value":1.5}"#,
            r#"{"type":"value","source":"kriged","value":.5}"#,
            r#"{"type":"value","source":"kriged","value":null}"#,
            r#"{"type":"value","source":"kriged","value":1.5,"neighbors":-1}"#,
            r#"{"type":"value","source":"kriged","value":1.5,"neighbors":03}"#,
            r#"{"type":"value","value":1.5,"source":"kriged"}"#,
        ] {
            assert_eq!(read_value(line), None, "{line}");
            assert_eq!(
                Response::from_line(line),
                serde_json::from_str::<Response>(line),
                "{line}"
            );
        }
    }

    #[test]
    fn error_frame_round_trips() {
        let frame = Response::error(codes::SHUTTING_DOWN, "draining");
        let line = frame.to_line();
        assert!(line.contains(r#""code":"shutting_down""#), "{line}");
        assert_eq!(Response::from_line(&line).unwrap(), frame);
    }
}
