//! Typed fleet failures.

use std::fmt;

/// A halo-exchange failure. `Closed` and `Timeout` are how worker loss
/// surfaces: the driver maps them to a typed `worker_lost` error instead
/// of hanging or reporting a partial run as complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The counterpart disconnected or dropped its endpoint.
    Closed(String),
    /// The counterpart stayed silent past the transport's deadline.
    Timeout(String),
    /// The counterpart sent something structurally invalid.
    Protocol(String),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Closed(d) => write!(f, "transport closed: {d}"),
            TransportError::Timeout(d) => write!(f, "transport timeout: {d}"),
            TransportError::Protocol(d) => write!(f, "transport protocol error: {d}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// A fleet run failure. The coordinator never returns a partial
/// `SimReport`: any of these means the run produced *no* report, and
/// `WorkerLost` in particular is raised only after every surviving worker
/// has been sent `Abort` and drained — the no-hang guarantee the
/// robustness tests pin down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// A worker disconnected, timed out, or sent garbage mid-run.
    WorkerLost {
        /// The lost worker's slot.
        slot: usize,
        /// What happened (transport detail).
        reason: String,
    },
    /// The handshake failed (version mismatch, bad greeting, or not enough
    /// workers connected before the deadline).
    Handshake(String),
    /// The scenario could not be planned or modeled.
    Plan(String),
    /// Listener/socket setup failed.
    Io(String),
}

impl FleetError {
    /// The stable error-kind token (`worker_lost` …) clients match on.
    pub fn kind(&self) -> &'static str {
        match self {
            FleetError::WorkerLost { .. } => "worker_lost",
            FleetError::Handshake(_) => "handshake",
            FleetError::Plan(_) => "plan",
            FleetError::Io(_) => "io",
        }
    }

    /// Wraps a transport failure on `slot`'s connection.
    pub(crate) fn lost(slot: usize, err: &TransportError) -> FleetError {
        FleetError::WorkerLost {
            slot,
            reason: err.to_string(),
        }
    }
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::WorkerLost { slot, reason } => {
                write!(f, "worker_lost: slot {slot}: {reason}")
            }
            FleetError::Handshake(d) => write!(f, "handshake: {d}"),
            FleetError::Plan(d) => write!(f, "plan: {d}"),
            FleetError::Io(d) => write!(f, "io: {d}"),
        }
    }
}

impl std::error::Error for FleetError {}
