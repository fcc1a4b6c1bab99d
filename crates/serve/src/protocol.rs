//! The versioned newline-delimited JSON wire protocol.
//!
//! One request per line, one response line per request, in order:
//!
//! ```text
//! → {"v":1,"id":"q1","op":"plan","params":{"machine":"bgl:64",
//!      "parent":{"nx":286,"ny":307,"dx_km":24.0},
//!      "nests":[{"nx":150,"ny":150,"r":3,"ox":10,"oy":12}],
//!      "strategy":"concurrent","alloc":"huffman","mapping":"partition"}}
//! ← {"v":1,"id":"q1","ok":true,"result":{...}}
//! ← {"v":1,"ok":false,"error":{"kind":"overloaded","message":"..."}}
//! ```
//!
//! Ops: `predict`, `plan`, `compare`, `execute`, `stats`, `trace`,
//! `shutdown`. The version
//! field `v` is mandatory and must equal `PROTOCOL_VERSION`; unknown
//! *fields* are tolerated (forward compatibility), unknown *ops* and
//! malformed values are rejected with a typed error. Lines longer than
//! [`MAX_LINE_BYTES`] are rejected with kind `oversized` without buffering
//! the excess (the reader discards until the next newline).
//!
//! Error kinds are a closed set ([`ErrorKind`]); `overloaded` (bounded
//! request queue full), `rate_limited` (per-client token bucket empty),
//! `deadline_exceeded` (the request's deadline passed before a worker
//! reached it) and `shutting_down` (drain in progress) are the
//! backpressure signals — clients should retry elsewhere/later, never
//! queue unboundedly on the server.
//!
//! Two optional request fields drive those semantics: `client` (a caller
//! identity string the per-client rate limiter keys on; requests without
//! one are exempt) and `deadline_ms` (a per-request deadline in
//! milliseconds from arrival, overriding the server default).

pub use nestwx_core::vocab::parse_machine;
use nestwx_core::vocab::{self, VocabError};
use nestwx_core::{AllocPolicy, MappingKind, Scenario, Strategy};
use nestwx_grid::{Domain, NestSpec};
use nestwx_netsim::IoMode;
use serde_json::Value;
use std::fmt;
use std::io::{self, Read};
use std::str::FromStr;

/// Wire protocol version carried in every request/response (`"v"`).
pub(crate) const PROTOCOL_VERSION: u64 = 1;

/// Maximum accepted request-line length in bytes (newline included).
/// Longer lines are answered with an `oversized` error and skipped.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Cap on `execute` parent iterations — a fleet run is real simulation
/// work on the server; unbounded iteration counts would be a trivial DoS.
pub(crate) const MAX_EXECUTE_ITERATIONS: u32 = 1000;

/// Cap on `execute` fleet workers (each is a thread pair plus a socket).
pub(crate) const MAX_EXECUTE_WORKERS: u32 = 8;

/// The seven server endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// Relative execution-time prediction for a nest set.
    Predict,
    /// Full plan: predict → allocate → map (cached).
    Plan,
    /// Sequential-vs-planned simulation comparison (cached).
    Compare,
    /// Multi-process fleet execution of the scenario (uncached).
    Execute,
    /// Live server metrics snapshot.
    Stats,
    /// Drain of the flight recorder's recent request spans.
    Trace,
    /// Graceful drain-then-exit.
    Shutdown,
}

impl Endpoint {
    /// All endpoints, in protocol documentation order.
    pub const ALL: [Endpoint; 7] = [
        Endpoint::Predict,
        Endpoint::Plan,
        Endpoint::Compare,
        Endpoint::Execute,
        Endpoint::Stats,
        Endpoint::Trace,
        Endpoint::Shutdown,
    ];

    /// The wire token (`"op"` value).
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Endpoint::Predict => "predict",
            Endpoint::Plan => "plan",
            Endpoint::Compare => "compare",
            Endpoint::Execute => "execute",
            Endpoint::Stats => "stats",
            Endpoint::Trace => "trace",
            Endpoint::Shutdown => "shutdown",
        }
    }

    /// Parses a wire token.
    pub(crate) fn from_name(s: &str) -> Option<Endpoint> {
        Endpoint::ALL.into_iter().find(|e| e.name() == s)
    }
}

/// Typed error kinds — the closed set of `error.kind` strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The line was not a valid JSON request object.
    Malformed,
    /// The line exceeded [`MAX_LINE_BYTES`].
    Oversized,
    /// `v` missing or not equal to `PROTOCOL_VERSION`.
    UnsupportedVersion,
    /// Syntactically valid JSON but semantically invalid request.
    BadRequest,
    /// The bounded request queue is full — retry later.
    Overloaded,
    /// The request's deadline passed before a worker reached it.
    DeadlineExceeded,
    /// The per-client token bucket is empty — slow down and retry.
    RateLimited,
    /// The server is draining after a shutdown request.
    ShuttingDown,
    /// Planning/prediction/simulation failed for this scenario.
    Failed,
    /// A fleet worker process was lost mid-execution (disconnect or
    /// frame timeout); the run was aborted with no partial result.
    WorkerLost,
    /// Unexpected server-side failure (worker died, channel closed).
    Internal,
}

impl ErrorKind {
    /// The wire token (`error.kind`).
    pub(crate) fn as_str(&self) -> &'static str {
        match self {
            ErrorKind::Malformed => "malformed",
            ErrorKind::Oversized => "oversized",
            ErrorKind::UnsupportedVersion => "unsupported_version",
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::RateLimited => "rate_limited",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::Failed => "failed",
            ErrorKind::WorkerLost => "worker_lost",
            ErrorKind::Internal => "internal",
        }
    }
}

/// A typed protocol error: kind + human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Error classification (closed set).
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl ProtoError {
    /// Convenience constructor.
    pub(crate) fn new(kind: ErrorKind, message: impl Into<String>) -> ProtoError {
        ProtoError {
            kind,
            message: message.into(),
        }
    }

    /// A `bad_request` error.
    pub(crate) fn bad_request(message: impl Into<String>) -> ProtoError {
        ProtoError::new(ErrorKind::BadRequest, message)
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind.as_str(), self.message)
    }
}

impl std::error::Error for ProtoError {}

/// Scenario text outside the shared vocabulary is the client's mistake.
impl From<VocabError> for ProtoError {
    fn from(e: VocabError) -> ProtoError {
        ProtoError::bad_request(e.0)
    }
}

/// Scenario-shaped parameters shared by `plan` and `compare`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioParams {
    /// Machine spec token, e.g. `"bgl:64"`.
    pub machine: String,
    /// Parent domain.
    pub parent: Domain,
    /// Nest list (at least one).
    pub nests: Vec<NestSpec>,
    /// Execution strategy (default concurrent).
    pub strategy: Strategy,
    /// Allocation policy (default huffman).
    pub alloc: AllocPolicy,
    /// Mapping kind (default partition).
    pub mapping: MappingKind,
    /// Optional history output (mode, interval).
    pub io: Option<(IoMode, u32)>,
}

impl ScenarioParams {
    /// Resolves the wire-level parameters into a cacheable [`Scenario`]
    /// (instantiates the machine model; domain validity is checked later
    /// by the planner).
    pub fn to_scenario(&self) -> Result<Scenario, ProtoError> {
        Ok(Scenario {
            machine: parse_machine(&self.machine)?,
            parent: self.parent.clone(),
            nests: self.nests.clone(),
            strategy: self.strategy,
            alloc: self.alloc,
            mapping: self.mapping,
            io_mode: self.io.map(|(m, _)| m).unwrap_or(IoMode::None),
            output_interval: self.io.map(|(_, every)| every),
        })
    }
}

/// `predict` parameters: a machine and the nests to rank.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictParams {
    /// Machine spec token, e.g. `"bgl:64"`.
    pub machine: String,
    /// Nests whose relative execution times are requested.
    pub nests: Vec<NestSpec>,
}

/// A parsed request body.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// Relative-time prediction.
    Predict(PredictParams),
    /// Execution plan.
    Plan(ScenarioParams),
    /// Strategy comparison over `iterations` parent iterations.
    Compare {
        /// Scenario to compare.
        params: ScenarioParams,
        /// Parent iterations to simulate.
        iterations: u32,
    },
    /// Fleet execution: run the scenario's model across socket-connected
    /// worker processes and return the merged simulation report.
    Execute {
        /// Scenario to execute.
        params: ScenarioParams,
        /// Parent iterations to run.
        iterations: u32,
        /// Fleet worker count.
        workers: u32,
    },
    /// Metrics snapshot.
    Stats,
    /// Flight-recorder span drain.
    Trace,
    /// Graceful shutdown.
    Shutdown,
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Optional client correlation id, echoed in the response.
    pub id: Option<String>,
    /// Optional caller identity the per-client rate limiter keys on
    /// (requests without one are exempt from rate limiting).
    pub client: Option<String>,
    /// Optional per-request deadline in milliseconds from arrival,
    /// overriding the server's default.
    pub deadline_ms: Option<u64>,
    /// Opt-in `explain` block on `plan`/`compare` responses (per-nest
    /// predicted vs allocated share, hop histogram). Off by default so
    /// cached plan bytes stay byte-identical for plain requests.
    pub explain: bool,
    /// The operation.
    pub body: RequestBody,
}

impl Request {
    /// A request with neither client identity nor deadline — the common
    /// construction in tests and embedding code.
    pub fn new(id: Option<String>, body: RequestBody) -> Request {
        Request {
            id,
            client: None,
            deadline_ms: None,
            explain: false,
            body,
        }
    }

    /// The endpoint this request targets.
    pub(crate) fn endpoint(&self) -> Endpoint {
        match &self.body {
            RequestBody::Predict(_) => Endpoint::Predict,
            RequestBody::Plan(_) => Endpoint::Plan,
            RequestBody::Compare { .. } => Endpoint::Compare,
            RequestBody::Execute { .. } => Endpoint::Execute,
            RequestBody::Stats => Endpoint::Stats,
            RequestBody::Trace => Endpoint::Trace,
            RequestBody::Shutdown => Endpoint::Shutdown,
        }
    }

    /// Serializes the request as one wire line (no trailing newline).
    /// Always writes every knob explicitly, so
    /// `Request::parse_line(r.to_json_line())` round-trips exactly.
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(128);
        s.push_str("{\"v\":");
        s.push_str(&PROTOCOL_VERSION.to_string());
        if let Some(id) = &self.id {
            s.push_str(",\"id\":");
            serde::write_escaped_str(id, &mut s);
        }
        if let Some(client) = &self.client {
            s.push_str(",\"client\":");
            serde::write_escaped_str(client, &mut s);
        }
        if let Some(deadline_ms) = self.deadline_ms {
            s.push_str(&format!(",\"deadline_ms\":{deadline_ms}"));
        }
        if self.explain {
            s.push_str(",\"explain\":true");
        }
        s.push_str(",\"op\":\"");
        s.push_str(self.endpoint().name());
        s.push('"');
        match &self.body {
            RequestBody::Predict(p) => {
                s.push_str(",\"params\":{\"machine\":");
                serde::write_escaped_str(&p.machine, &mut s);
                s.push_str(",\"nests\":");
                write_nests(&p.nests, &mut s);
                s.push('}');
            }
            RequestBody::Plan(p) => {
                s.push_str(",\"params\":");
                write_scenario_params(p, None, None, &mut s);
            }
            RequestBody::Compare { params, iterations } => {
                s.push_str(",\"params\":");
                write_scenario_params(params, Some(*iterations), None, &mut s);
            }
            RequestBody::Execute {
                params,
                iterations,
                workers,
            } => {
                s.push_str(",\"params\":");
                write_scenario_params(params, Some(*iterations), Some(*workers), &mut s);
            }
            RequestBody::Stats | RequestBody::Trace | RequestBody::Shutdown => {}
        }
        s.push('}');
        s
    }

    /// Parses one wire line into a request, classifying failures.
    pub fn parse_line(line: &str) -> Result<Request, ProtoError> {
        let v = serde_json::from_str(line)
            .map_err(|e| ProtoError::new(ErrorKind::Malformed, format!("invalid JSON: {e}")))?;
        let Value::Object(_) = &v else {
            return Err(ProtoError::new(
                ErrorKind::Malformed,
                "request must be a JSON object",
            ));
        };
        match field(&v, "v").and_then(Value::as_u64) {
            Some(PROTOCOL_VERSION) => {}
            Some(other) => {
                return Err(ProtoError::new(
                    ErrorKind::UnsupportedVersion,
                    format!("protocol version {other} not supported (this server speaks v{PROTOCOL_VERSION})"),
                ))
            }
            None => {
                return Err(ProtoError::new(
                    ErrorKind::UnsupportedVersion,
                    "missing integer protocol version field 'v'",
                ))
            }
        }
        let id = match field(&v, "id") {
            None => None,
            Some(Value::String(s)) => Some(s.clone()),
            Some(_) => return Err(ProtoError::bad_request("'id' must be a string")),
        };
        let client = match field(&v, "client") {
            None => None,
            Some(Value::String(s)) => Some(s.clone()),
            Some(_) => return Err(ProtoError::bad_request("'client' must be a string")),
        };
        let deadline_ms = match field(&v, "deadline_ms") {
            None => None,
            Some(v) => {
                let ms = v.as_u64().ok_or_else(|| {
                    ProtoError::bad_request("'deadline_ms' must be an unsigned integer")
                })?;
                if ms == 0 {
                    return Err(ProtoError::bad_request("'deadline_ms' must be ≥ 1"));
                }
                Some(ms)
            }
        };
        let explain = match field(&v, "explain") {
            None => false,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| ProtoError::bad_request("'explain' must be a boolean"))?,
        };
        let op = field(&v, "op")
            .and_then(Value::as_str)
            .ok_or_else(|| ProtoError::bad_request("missing string field 'op'"))?;
        let endpoint = Endpoint::from_name(op).ok_or_else(|| {
            ProtoError::bad_request(format!(
                "unknown op '{op}' (predict|plan|compare|execute|stats|trace|shutdown)"
            ))
        })?;
        let params = field(&v, "params");
        let body = match endpoint {
            Endpoint::Stats => RequestBody::Stats,
            Endpoint::Trace => RequestBody::Trace,
            Endpoint::Shutdown => RequestBody::Shutdown,
            Endpoint::Predict => {
                let p = params_object(params)?;
                RequestBody::Predict(PredictParams {
                    machine: parse_machine_field(p)?,
                    nests: parse_nests(p)?,
                })
            }
            Endpoint::Plan => RequestBody::Plan(parse_scenario_params(params_object(params)?)?),
            Endpoint::Compare => {
                let p = params_object(params)?;
                let iterations = match field(p, "iterations") {
                    None => 5,
                    Some(v) => u32_value(v, "iterations")?,
                };
                if iterations == 0 {
                    return Err(ProtoError::bad_request("'iterations' must be ≥ 1"));
                }
                RequestBody::Compare {
                    params: parse_scenario_params(p)?,
                    iterations,
                }
            }
            Endpoint::Execute => {
                let p = params_object(params)?;
                let iterations = match field(p, "iterations") {
                    None => 5,
                    Some(v) => u32_value(v, "iterations")?,
                };
                if iterations == 0 || iterations > MAX_EXECUTE_ITERATIONS {
                    return Err(ProtoError::bad_request(format!(
                        "'iterations' must be in 1..={MAX_EXECUTE_ITERATIONS}"
                    )));
                }
                let workers = match field(p, "workers") {
                    None => 2,
                    Some(v) => u32_value(v, "workers")?,
                };
                if workers == 0 || workers > MAX_EXECUTE_WORKERS {
                    return Err(ProtoError::bad_request(format!(
                        "'workers' must be in 1..={MAX_EXECUTE_WORKERS}"
                    )));
                }
                RequestBody::Execute {
                    params: parse_scenario_params(p)?,
                    iterations,
                    workers,
                }
            }
        };
        Ok(Request {
            id,
            client,
            deadline_ms,
            explain,
            body,
        })
    }
}

// ---------------------------------------------------------------------------
// Request serialization helpers (manual, so integers stay integers on the
// wire — the dynamic `Value` path would render every number as a float).
// ---------------------------------------------------------------------------

fn write_nests(nests: &[NestSpec], s: &mut String) {
    s.push('[');
    for (i, n) in nests.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"nx\":{},\"ny\":{},\"r\":{},\"ox\":{},\"oy\":{}",
            n.nx, n.ny, n.refine_ratio, n.offset.0, n.offset.1
        ));
        if let Some(k) = n.parent_nest {
            s.push_str(&format!(",\"in\":{k}"));
        }
        s.push('}');
    }
    s.push(']');
}

fn write_scenario_params(
    p: &ScenarioParams,
    iterations: Option<u32>,
    workers: Option<u32>,
    s: &mut String,
) {
    s.push_str("{\"machine\":");
    serde::write_escaped_str(&p.machine, s);
    s.push_str(&format!(
        ",\"parent\":{{\"nx\":{},\"ny\":{},\"dx_km\":",
        p.parent.nx, p.parent.ny
    ));
    serde::write_f64(p.parent.dx_km, s);
    s.push_str("},\"nests\":");
    write_nests(&p.nests, s);
    s.push_str(",\"strategy\":\"");
    s.push_str(Strategy::token(p.strategy));
    s.push_str("\",\"alloc\":\"");
    s.push_str(AllocPolicy::token(p.alloc));
    s.push_str("\",\"mapping\":\"");
    s.push_str(MappingKind::token(p.mapping));
    s.push('"');
    if let Some((mode, every)) = p.io {
        s.push_str(&format!(
            ",\"io\":{{\"mode\":\"{}\",\"interval\":{every}}}",
            vocab::io_mode_token(mode)
        ));
    }
    if let Some(iters) = iterations {
        s.push_str(&format!(",\"iterations\":{iters}"));
    }
    if let Some(w) = workers {
        s.push_str(&format!(",\"workers\":{w}"));
    }
    s.push('}');
}

// ---------------------------------------------------------------------------
// Request parsing helpers
// ---------------------------------------------------------------------------

/// `get` that treats JSON `null` as absent.
fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.get(key).filter(|x| !x.is_null())
}

fn params_object(params: Option<&Value>) -> Result<&Value, ProtoError> {
    match params {
        Some(v @ Value::Object(_)) => Ok(v),
        Some(_) => Err(ProtoError::bad_request("'params' must be an object")),
        None => Err(ProtoError::bad_request("missing 'params' object")),
    }
}

fn u32_value(v: &Value, what: &str) -> Result<u32, ProtoError> {
    v.as_u64()
        .and_then(|n| u32::try_from(n).ok())
        .ok_or_else(|| ProtoError::bad_request(format!("'{what}' must be an unsigned integer")))
}

fn req_u32(obj: &Value, key: &str, what: &str) -> Result<u32, ProtoError> {
    field(obj, key)
        .ok_or_else(|| ProtoError::bad_request(format!("missing '{key}' in {what}")))
        .and_then(|v| u32_value(v, key))
}

fn parse_machine_field(p: &Value) -> Result<String, ProtoError> {
    field(p, "machine")
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| ProtoError::bad_request("missing string field 'machine'"))
}

fn parse_nests(p: &Value) -> Result<Vec<NestSpec>, ProtoError> {
    let arr = field(p, "nests")
        .and_then(Value::as_array)
        .ok_or_else(|| ProtoError::bad_request("missing array field 'nests'"))?;
    if arr.is_empty() {
        return Err(ProtoError::bad_request("'nests' must not be empty"));
    }
    arr.iter()
        .enumerate()
        .map(|(i, n)| {
            let what = format!("nests[{i}]");
            let nx = req_u32(n, "nx", &what)?;
            let ny = req_u32(n, "ny", &what)?;
            let r = req_u32(n, "r", &what)?;
            let ox = req_u32(n, "ox", &what)?;
            let oy = req_u32(n, "oy", &what)?;
            let parent_nest = match field(n, "in") {
                None => None,
                Some(v) => Some(
                    v.as_u64()
                        .and_then(|k| usize::try_from(k).ok())
                        .ok_or_else(|| {
                            ProtoError::bad_request(format!("'{what}.in' must be a nest index"))
                        })?,
                ),
            };
            Ok(NestSpec {
                nx,
                ny,
                refine_ratio: r,
                offset: (ox, oy),
                parent_nest,
            })
        })
        .collect()
}

/// An optional token field: absent means `default`; a non-string reads
/// as the empty token, which no table holds.
fn token_field<T: FromStr<Err = VocabError>>(
    p: &Value,
    key: &str,
    default: T,
) -> Result<T, ProtoError> {
    match field(p, key) {
        None => Ok(default),
        Some(v) => Ok(v.as_str().unwrap_or_default().parse()?),
    }
}

fn parse_scenario_params(p: &Value) -> Result<ScenarioParams, ProtoError> {
    let parent = field(p, "parent")
        .ok_or_else(|| ProtoError::bad_request("missing object field 'parent'"))?;
    let dx_km = field(parent, "dx_km")
        .and_then(Value::as_f64)
        .ok_or_else(|| ProtoError::bad_request("missing number field 'parent.dx_km'"))?;
    let io = match field(p, "io") {
        None => None,
        Some(io) => {
            let mode = field(io, "mode")
                .and_then(Value::as_str)
                .ok_or_else(|| ProtoError::bad_request("missing string field 'io.mode'"))?;
            // "No output" is the absent 'io' field on the wire.
            let mode = match vocab::parse_io_mode(mode)? {
                IoMode::None => {
                    return Err(ProtoError::bad_request(
                        "'io.mode' none: omit the 'io' field instead",
                    ))
                }
                mode => mode,
            };
            let every = req_u32(io, "interval", "io")?;
            if every == 0 {
                return Err(ProtoError::bad_request("'io.interval' must be ≥ 1"));
            }
            Some((mode, every))
        }
    };
    Ok(ScenarioParams {
        machine: parse_machine_field(p)?,
        parent: vocab::parent(
            req_u32(parent, "nx", "parent")?,
            req_u32(parent, "ny", "parent")?,
            dx_km,
        )?,
        nests: parse_nests(p)?,
        strategy: token_field(p, "strategy", Strategy::Concurrent)?,
        alloc: token_field(p, "alloc", AllocPolicy::HuffmanSplitTree)?,
        mapping: token_field(p, "mapping", MappingKind::Partition)?,
        io,
    })
}

// ---------------------------------------------------------------------------
// Response lines
// ---------------------------------------------------------------------------

/// Builds a success response line around an already-serialized result
/// (no trailing newline). Splicing the raw result string is what makes
/// cached responses byte-identical to freshly computed ones.
pub fn response_ok_line(id: Option<&str>, result_json: &str) -> String {
    let mut s = String::with_capacity(result_json.len() + 32);
    s.push_str("{\"v\":1");
    if let Some(id) = id {
        s.push_str(",\"id\":");
        serde::write_escaped_str(id, &mut s);
    }
    s.push_str(",\"ok\":true,\"result\":");
    s.push_str(result_json);
    s.push('}');
    s
}

/// Builds an error response line (no trailing newline).
pub(crate) fn response_err_line(id: Option<&str>, e: &ProtoError) -> String {
    let mut s = String::with_capacity(64 + e.message.len());
    s.push_str("{\"v\":1");
    if let Some(id) = id {
        s.push_str(",\"id\":");
        serde::write_escaped_str(id, &mut s);
    }
    s.push_str(",\"ok\":false,\"error\":{\"kind\":\"");
    s.push_str(e.kind.as_str());
    s.push_str("\",\"message\":");
    serde::write_escaped_str(&e.message, &mut s);
    s.push_str("}}");
    s
}

// ---------------------------------------------------------------------------
// Capped line reader
// ---------------------------------------------------------------------------

/// One read outcome from a [`LineReader`].
#[derive(Debug, PartialEq, Eq)]
pub enum Line {
    /// A complete line within the cap (newline stripped).
    Data(String),
    /// The line exceeded the cap; `discarded` bytes were dropped so far
    /// (the reader keeps discarding until the terminating newline before
    /// returning further data lines).
    Oversized {
        /// Bytes dropped before reporting.
        discarded: usize,
    },
    /// End of stream.
    Eof,
}

/// The capped line splitter behind both [`LineReader`] and the event
/// loop's connections: bytes go in with [`LineBuf::push`], lines come out
/// of [`LineBuf::take_line`]. It never holds more than the cap: an oversized
/// line is reported once, as soon as it is known, and its remainder is
/// discarded through the next newline, so a hostile client cannot balloon
/// server memory.
pub(crate) struct LineBuf {
    buf: Vec<u8>,
    /// Searched prefix of `buf` known to hold no newline.
    scanned: usize,
    skipping: bool,
    max: usize,
}

impl LineBuf {
    /// An empty buffer with a per-line cap of `max` bytes.
    pub(crate) fn new(max: usize) -> LineBuf {
        LineBuf {
            buf: Vec::new(),
            scanned: 0,
            skipping: false,
            max,
        }
    }

    /// Appends bytes read from the peer.
    pub(crate) fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// True when no bytes are buffered.
    pub(crate) fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Pops the next complete line, or `None` when more bytes are needed.
    /// Oversized lines surface exactly once with the discarded byte count,
    /// then resync at the next newline. With `at_eof` a final unterminated
    /// line is accepted (clients may close right after the last request).
    pub(crate) fn take_line(&mut self, at_eof: bool) -> Option<Line> {
        if self.skipping {
            if let Some(i) = self.buf.iter().position(|&b| b == b'\n') {
                self.buf.drain(..=i);
                self.scanned = 0;
                self.skipping = false;
            } else {
                self.buf.clear();
                self.scanned = 0;
                return None;
            }
        }
        if let Some(off) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
            let i = self.scanned + off;
            self.scanned = 0;
            if i > self.max {
                self.buf.drain(..=i);
                return Some(Line::Oversized { discarded: i });
            }
            let line: Vec<u8> = self.buf.drain(..=i).collect();
            return Some(Line::Data(String::from_utf8_lossy(&line[..i]).into_owned()));
        }
        self.scanned = self.buf.len();
        if self.buf.len() > self.max {
            let discarded = self.buf.len();
            self.buf.clear();
            self.scanned = 0;
            self.skipping = true;
            return Some(Line::Oversized { discarded });
        }
        if at_eof && !self.buf.is_empty() {
            let text = String::from_utf8_lossy(&self.buf).into_owned();
            self.buf.clear();
            self.scanned = 0;
            return Some(Line::Data(text));
        }
        None
    }
}

/// A blocking newline-delimited reader over a `LineBuf`: the same cap,
/// oversized-line skip and unterminated-tail rules as the event loop.
pub struct LineReader<R> {
    inner: R,
    lines: LineBuf,
}

impl<R: Read> LineReader<R> {
    /// Wraps `inner` with a per-line cap of `max` bytes.
    pub fn new(inner: R, max: usize) -> LineReader<R> {
        LineReader {
            inner,
            lines: LineBuf::new(max),
        }
    }

    /// Reads the next line. I/O errors (including read timeouts, surfaced
    /// as `WouldBlock`/`TimedOut`) pass through; buffered partial data
    /// survives across calls.
    pub fn next_line(&mut self) -> io::Result<Line> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(line) = self.lines.take_line(false) {
                return Ok(line);
            }
            let n = self.inner.read(&mut chunk)?;
            if n == 0 {
                return Ok(self.lines.take_line(true).unwrap_or(Line::Eof));
            }
            self.lines.push(&chunk[..n]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn line_reader_splits_and_caps() {
        let data = b"short\nanother\n".to_vec();
        let mut r = LineReader::new(Cursor::new(data), 16);
        assert_eq!(r.next_line().unwrap(), Line::Data("short".into()));
        assert_eq!(r.next_line().unwrap(), Line::Data("another".into()));
        assert_eq!(r.next_line().unwrap(), Line::Eof);
    }

    #[test]
    fn line_reader_rejects_oversized_then_recovers() {
        let mut data = vec![b'x'; 100];
        data.push(b'\n');
        data.extend_from_slice(b"ok\n");
        let mut r = LineReader::new(Cursor::new(data), 16);
        assert!(matches!(r.next_line().unwrap(), Line::Oversized { .. }));
        assert_eq!(r.next_line().unwrap(), Line::Data("ok".into()));
        assert_eq!(r.next_line().unwrap(), Line::Eof);
    }

    #[test]
    fn line_reader_reports_oversized_before_newline_arrives() {
        // 100 bytes, no newline yet: the reader must report without
        // waiting for the line to end (the server responds immediately).
        let data = vec![b'y'; 100];
        let mut r = LineReader::new(Cursor::new(data), 16);
        assert!(matches!(
            r.next_line().unwrap(),
            Line::Oversized { discarded: 100 }
        ));
        assert_eq!(r.next_line().unwrap(), Line::Eof);
    }

    #[test]
    fn line_reader_accepts_unterminated_final_line() {
        let mut r = LineReader::new(Cursor::new(b"tail".to_vec()), 16);
        assert_eq!(r.next_line().unwrap(), Line::Data("tail".into()));
        assert_eq!(r.next_line().unwrap(), Line::Eof);
    }

    #[test]
    fn parse_rejects_wrong_version_and_ops() {
        let e = Request::parse_line("{\"op\":\"plan\"}").unwrap_err();
        assert_eq!(e.kind, ErrorKind::UnsupportedVersion);
        let e = Request::parse_line("{\"v\":2,\"op\":\"plan\"}").unwrap_err();
        assert_eq!(e.kind, ErrorKind::UnsupportedVersion);
        let e = Request::parse_line("{\"v\":1,\"op\":\"frobnicate\"}").unwrap_err();
        assert_eq!(e.kind, ErrorKind::BadRequest);
        let e = Request::parse_line("not json at all").unwrap_err();
        assert_eq!(e.kind, ErrorKind::Malformed);
        let e = Request::parse_line("[1,2,3]").unwrap_err();
        assert_eq!(e.kind, ErrorKind::Malformed);
        let e = Request::parse_line("{\"v\":1,\"id\":7,\"op\":\"stats\"}").unwrap_err();
        assert_eq!(e.kind, ErrorKind::BadRequest);
    }

    #[test]
    fn stats_and_shutdown_need_no_params() {
        let r = Request::parse_line("{\"v\":1,\"op\":\"stats\"}").unwrap();
        assert_eq!(r.body, RequestBody::Stats);
        let r = Request::parse_line("{\"v\":1,\"id\":\"x\",\"op\":\"shutdown\"}").unwrap();
        assert_eq!(r.body, RequestBody::Shutdown);
        assert_eq!(r.id.as_deref(), Some("x"));
    }

    #[test]
    fn client_and_deadline_fields_round_trip() {
        let mut r = Request::new(Some("q".into()), RequestBody::Stats);
        r.client = Some("tenant-a".into());
        r.deadline_ms = Some(250);
        let line = r.to_json_line();
        assert!(line.contains("\"client\":\"tenant-a\""), "{line}");
        assert!(line.contains("\"deadline_ms\":250"), "{line}");
        assert_eq!(Request::parse_line(&line).unwrap(), r);
        // Absent fields parse back as None.
        let bare = Request::parse_line("{\"v\":1,\"op\":\"stats\"}").unwrap();
        assert_eq!(bare.client, None);
        assert_eq!(bare.deadline_ms, None);
    }

    #[test]
    fn bad_client_or_deadline_is_bad_request() {
        let e = Request::parse_line("{\"v\":1,\"client\":7,\"op\":\"stats\"}").unwrap_err();
        assert_eq!(e.kind, ErrorKind::BadRequest);
        let e = Request::parse_line("{\"v\":1,\"deadline_ms\":0,\"op\":\"stats\"}").unwrap_err();
        assert_eq!(e.kind, ErrorKind::BadRequest);
        let e =
            Request::parse_line("{\"v\":1,\"deadline_ms\":\"soon\",\"op\":\"stats\"}").unwrap_err();
        assert_eq!(e.kind, ErrorKind::BadRequest);
    }

    #[test]
    fn trace_needs_no_params_and_round_trips() {
        let r = Request::parse_line("{\"v\":1,\"op\":\"trace\"}").unwrap();
        assert_eq!(r.body, RequestBody::Trace);
        assert_eq!(r.endpoint(), Endpoint::Trace);
        let r = Request::new(Some("t1".into()), RequestBody::Trace);
        assert_eq!(r.to_json_line(), "{\"v\":1,\"id\":\"t1\",\"op\":\"trace\"}");
        assert_eq!(Request::parse_line(&r.to_json_line()).unwrap(), r);
        assert_eq!(Endpoint::from_name("trace"), Some(Endpoint::Trace));
    }

    #[test]
    fn explain_field_round_trips_and_defaults_off() {
        // Absent → false, and serialization omits it, so pre-explain
        // request lines are byte-identical.
        let bare = Request::new(None, RequestBody::Stats);
        assert!(!bare.explain);
        assert_eq!(bare.to_json_line(), "{\"v\":1,\"op\":\"stats\"}");
        let parsed = Request::parse_line("{\"v\":1,\"op\":\"stats\"}").unwrap();
        assert!(!parsed.explain);
        // explain:false parses but re-serializes without the field.
        let parsed = Request::parse_line("{\"v\":1,\"explain\":false,\"op\":\"stats\"}").unwrap();
        assert!(!parsed.explain);
        // explain:true round-trips exactly.
        let mut r = Request::new(Some("p".into()), RequestBody::Stats);
        r.explain = true;
        let line = r.to_json_line();
        assert!(line.contains("\"explain\":true"), "{line}");
        assert_eq!(Request::parse_line(&line).unwrap(), r);
    }

    #[test]
    fn non_boolean_explain_is_bad_request() {
        for line in [
            "{\"v\":1,\"explain\":1,\"op\":\"stats\"}",
            "{\"v\":1,\"explain\":\"yes\",\"op\":\"plan\"}",
        ] {
            let e = Request::parse_line(line).unwrap_err();
            assert_eq!(e.kind, ErrorKind::BadRequest, "{line}");
        }
        // null is treated as absent, like every other optional knob.
        let r = Request::parse_line("{\"v\":1,\"explain\":null,\"op\":\"stats\"}").unwrap();
        assert!(!r.explain);
    }

    #[test]
    fn response_lines_embed_raw_results() {
        assert_eq!(
            response_ok_line(Some("q"), "{\"a\":1}"),
            "{\"v\":1,\"id\":\"q\",\"ok\":true,\"result\":{\"a\":1}}"
        );
        let e = ProtoError::new(ErrorKind::Overloaded, "queue full");
        let line = response_err_line(None, &e);
        let v = serde_json::from_str(&line).unwrap();
        assert_eq!(v["ok"].as_bool(), Some(false));
        assert_eq!(v["error"]["kind"].as_str(), Some("overloaded"));
    }
}
