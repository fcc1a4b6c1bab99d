//! Pluggable halo transport: the parent↔nest coupling split across an
//! ownership boundary.
//!
//! The coupled iteration moves exactly two kinds of halo data: boundary
//! rings down (parent → nest, after the parent step) and feedback cells up
//! (nest → parent, after the nest's `r` sub-steps). [`HaloHost`] is the
//! parent-owner's side of that exchange and [`HaloLink`] the nest-owner's;
//! [`drive_parent`] and [`drive_nests`] run the two halves of the coupled
//! loop against those traits, so the same arithmetic executes whether the
//! counterpart lives in this process or in another one behind a socket
//! (`nestwx-fleet`'s transport). Because
//! [`BoundaryData`]/[`FeedbackData`] cross the boundary as exact f64 bit
//! patterns, a distributed run is bitwise identical to
//! [`crate::runtime::run_iterations`] — the invariant
//! [`crate::report::SimReport`] digests witness.

use crate::model::{NestState, NestedModel};
use crate::nest::{
    apply_feedback, collect_feedback, interpolate_boundary, BoundaryData, FeedbackData,
};
use crate::runtime::step_parallel;
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

/// The parent-owner's side: pushes boundary rings to whichever worker owns
/// each nest and collects that nest's feedback. Implementations route by
/// nest index and may buffer out-of-order arrivals; `recv_feedback` must
/// return the feedback for exactly `(nest, iteration)`.
pub trait HaloHost {
    /// Sends nest `nest`'s boundary ring for `iteration`.
    fn send_boundary(
        &mut self,
        nest: usize,
        iteration: u64,
        bc: &BoundaryData,
    ) -> Result<(), TransportError>;

    /// Receives nest `nest`'s feedback for `iteration`.
    fn recv_feedback(
        &mut self,
        nest: usize,
        iteration: u64,
    ) -> Result<FeedbackData, TransportError>;
}

/// The nest-owner's side: receives boundary rings for its owned nests and
/// returns their feedback.
pub trait HaloLink {
    /// Receives nest `nest`'s boundary ring for `iteration`.
    fn recv_boundary(
        &mut self,
        nest: usize,
        iteration: u64,
    ) -> Result<BoundaryData, TransportError>;

    /// Sends nest `nest`'s feedback for `iteration`.
    fn send_feedback(
        &mut self,
        nest: usize,
        iteration: u64,
        fb: &FeedbackData,
    ) -> Result<(), TransportError>;
}

/// Runs the parent-owner half of `iterations` coupled iterations: step the
/// parent, send every nest's boundary, then apply every nest's feedback in
/// sibling order — the same order [`NestedModel::apply_feedbacks`] uses,
/// so the parent state is independent of which worker answers first.
pub fn drive_parent<H: HaloHost>(
    model: &mut NestedModel,
    iterations: u64,
    threads: usize,
    host: &mut H,
) -> Result<(), TransportError> {
    for iter in 0..iterations {
        step_parallel(&mut model.parent, threads);
        for (idx, nest) in model.nests.iter().enumerate() {
            let bc = interpolate_boundary(&model.parent, &nest.geo);
            host.send_boundary(idx, iter, &bc)?;
        }
        for idx in 0..model.nests.len() {
            let fb = host.recv_feedback(idx, iter)?;
            apply_feedback(&mut model.parent, &fb);
        }
        model.iterations += 1;
    }
    Ok(())
}

/// Runs the nest-owner half over `owned` (global nest index, state) pairs:
/// per iteration and owned nest, receive the boundary, solve the `r`
/// sub-steps (recursing into children), and send the feedback.
pub fn drive_nests<L: HaloLink>(
    owned: &mut [(usize, NestState)],
    iterations: u64,
    link: &mut L,
) -> Result<(), TransportError> {
    for iter in 0..iterations {
        for (idx, nest) in owned.iter_mut() {
            let bc = link.recv_boundary(*idx, iter)?;
            NestedModel::solve_nest(nest, &bc, 1);
            let fb = collect_feedback(&nest.solver, &nest.geo);
            link.send_feedback(*idx, iter, &fb)?;
        }
    }
    Ok(())
}
