//! The reply plumbing between workers and the event loop.
//!
//! A worker answers a job through its [`Reply`]: it renders the response
//! line and posts a [`Completion`] to the event-loop reader that owns the
//! connection. A `Completion` carries only connection/sequence numbers and
//! the finished response line — never a socket — so this module stays free
//! of I/O handles (lint rule NW-S003 runs on it).

use crate::protocol::{response_err_line, response_ok_line, ProtoError};
use std::sync::mpsc::Sender;

/// The result a worker sends back: the rendered result JSON, or a typed
/// error.
pub type Outcome = Result<String, ProtoError>;

/// A finished response headed back to an event-loop reader. Identifies the
/// connection and pipeline slot by number only; the reader that owns the
/// socket splices `line` into the connection's in-order response queue.
pub struct Completion {
    /// Connection number within the owning reader.
    pub conn: u64,
    /// Pipeline sequence number within the connection.
    pub seq: u64,
    /// The full response line (no trailing newline).
    pub line: String,
    /// Whether the response is a success (`ok:true`).
    pub ok: bool,
    /// Flight-recorder stage: queue wait in µs (0 when not recorded).
    pub wait_us: u32,
    /// Flight-recorder stage: worker compute in µs (0 when not recorded).
    pub work_us: u32,
}

/// Where a worker's answer goes: one pipeline slot of one event-loop
/// connection.
pub struct Reply {
    /// The owning reader's completion channel.
    pub tx: Sender<Completion>,
    /// Connection number within that reader.
    pub conn: u64,
    /// Pipeline sequence number within the connection.
    pub seq: u64,
    /// Request correlation id to echo.
    pub id: Option<String>,
}

impl Reply {
    /// Renders the response line (echoing `id`) and posts it to the owning
    /// reader with the worker-measured flight-recorder stages (queue wait /
    /// compute, µs). The stages ride the [`Completion`] only — they never
    /// touch the response line, so recorded and unrecorded responses stay
    /// byte-identical. Send failures are ignored: a reader that is already
    /// gone needs no answer.
    pub fn send(self, outcome: Outcome, wait_us: u32, work_us: u32) {
        let line = match &outcome {
            Ok(result) => response_ok_line(self.id.as_deref(), result),
            Err(e) => response_err_line(self.id.as_deref(), e),
        };
        let _ = self.tx.send(Completion {
            conn: self.conn,
            seq: self.seq,
            line,
            ok: outcome.is_ok(),
            wait_us,
            work_us,
        });
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    #[test]
    fn reply_renders_response_lines() {
        let (tx, rx) = channel();
        Reply {
            tx: tx.clone(),
            conn: 3,
            seq: 9,
            id: Some("q1".into()),
        }
        .send(Ok("{\"a\":1}".into()), 0, 0);
        let c = rx.recv().unwrap();
        assert_eq!((c.conn, c.seq, c.ok), (3, 9, true));
        assert_eq!(
            c.line,
            "{\"v\":1,\"id\":\"q1\",\"ok\":true,\"result\":{\"a\":1}}"
        );
        Reply {
            tx,
            conn: 3,
            seq: 10,
            id: None,
        }
        .send(
            Err(ProtoError::new(
                crate::protocol::ErrorKind::DeadlineExceeded,
                "too late",
            )),
            0,
            0,
        );
        let c = rx.recv().unwrap();
        assert!(!c.ok);
        assert!(
            c.line.contains("\"kind\":\"deadline_exceeded\""),
            "{}",
            c.line
        );
    }
}
