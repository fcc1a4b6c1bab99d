//! `nestwx-serve` — a concurrent planning service.
//!
//! Turns the planner into a long-running daemon: a std-only event-driven
//! TCP server speaking a versioned newline-delimited JSON protocol
//! ([`protocol`]), with
//!
//! - a **nonblocking readiness loop** (`event_loop`) multiplexing
//!   thousands of connections onto a small reader set — no thread per
//!   connection, no external poll crate ([`conn`]);
//! - a **bounded job queue** and worker pool — overload produces a typed
//!   `overloaded` error immediately instead of unbounded buffering
//!   ([`server`]);
//! - a **sharded LRU plan cache** keyed by the canonical scenario encoding
//!   from `nestwx-core`, serving byte-identical results on hits
//!   ([`cache`]), fronted per-reader by a raw-line hot cache that answers
//!   repeated hit lines without parsing JSON;
//! - **per-request deadlines** with exactly-once cancellation and
//!   **per-client token-bucket rate limits** with weighted endpoint costs
//!   ([`limits`]);
//! - one fitted predictor per machine, shared by every `predict` and
//!   `plan` job through the server's own bounded
//!   [`nestwx_core::PredictorStore`];
//! - per-endpoint latency histograms (`nestwx-obs` [`nestwx_obs::LogHistogram`])
//!   behind a `stats` endpoint, and graceful drain-then-exit shutdown with
//!   a [`DrainReport`] that proves nothing leaked ([`metrics`], [`server`]).
//!
//! ```no_run
//! use nestwx_serve::{spawn, Client, Request, RequestBody, ServeConfig};
//!
//! let handle = spawn(ServeConfig::default()).unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let resp = client
//!     .call(&Request::new(Some("1".into()), RequestBody::Stats))
//!     .unwrap();
//! assert!(resp.ok());
//! handle.shutdown();
//! assert!(handle.wait().clean());
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod conn;
pub mod disk;
pub(crate) mod event_loop;
pub mod flight;
pub mod keys;
pub mod limits;
pub mod metrics;
pub mod protocol;
pub mod queue;
pub mod reply;
pub mod server;
pub mod sync;

pub use cache::{CacheStats, PlanCache};
pub use client::{Client, Response};
pub use conn::{Conn, Gone};
pub use disk::{DiskCache, DiskStats};
pub use flight::{FlightRecorder, FlightStats, RequestSpan, SpanPath, SpanRing, TraceEnvelope};
pub use keys::PLAN_FORMAT_VERSION;
pub use limits::{CancelToken, RateLimiter, MICRO};
pub use metrics::{EndpointStats, LimitGauges, LimitStats, Metrics, QueueStats, StatsSnapshot};
pub use protocol::{
    parse_machine, Endpoint, ErrorKind, Line, LineReader, PredictParams, ProtoError, Request,
    RequestBody, ScenarioParams, MAX_EXECUTE_ITERATIONS, MAX_EXECUTE_WORKERS, MAX_LINE_BYTES,
    PROTOCOL_VERSION,
};
pub use queue::{BoundedQueue, PushError};
pub use reply::{Completion, Outcome, Reply};
pub use server::{render_plan, spawn, DrainReport, ServeConfig, ServerHandle};
