//! Pluggable halo transport: the parent↔nest coupling split across an
//! ownership boundary.
//!
//! The coupled iteration moves exactly two kinds of halo data: boundary
//! rings down (parent → nest, after the parent step) and feedback cells up
//! (nest → parent, after the nest's `r` sub-steps). [`HaloHost`] is the
//! parent-owner's side of that exchange and [`HaloLink`] the nest-owner's;
//! [`drive_parent`] and [`drive_nests`] run the two halves of the coupled
//! loop against those traits, so the same arithmetic executes whether the
//! counterpart lives on another thread ([`channel_transport`]) or in
//! another process behind a socket (`nestwx-fleet`'s transport). Because
//! [`BoundaryData`]/[`FeedbackData`] cross the boundary as exact f64 bit
//! patterns, a distributed run is bitwise identical to
//! [`crate::runtime::run_iterations`] — the invariant
//! [`crate::report::SimReport`] digests witness.

use crate::model::{NestState, NestedModel};
use crate::nest::{
    apply_feedback, collect_feedback, interpolate_boundary, BoundaryData, FeedbackData,
};
use crate::runtime::step_parallel;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::mpsc;
use std::time::Duration;

/// How long a channel transport waits for its counterpart before giving
/// up — generous, because an in-process peer that stays silent this long
/// has died, not stalled.
const CHANNEL_RECV_TIMEOUT: Duration = Duration::from_secs(30);

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

type Cells = Vec<(isize, isize, f64, f64, f64)>;

/// The in-process transport: a pair of mpsc channels carrying the halo
/// cells between two threads of one process.
pub struct ChannelHost {
    down: mpsc::Sender<(usize, u64, Cells)>,
    up: mpsc::Receiver<(usize, u64, Cells)>,
    pending: BTreeMap<(u64, usize), Cells>,
}

/// The nest-owner end of [`channel_transport`].
pub struct ChannelLink {
    down: mpsc::Receiver<(usize, u64, Cells)>,
    up: mpsc::Sender<(usize, u64, Cells)>,
    pending: BTreeMap<(u64, usize), Cells>,
}

/// Builds a connected in-process transport pair: the [`ChannelHost`] drives
/// the parent on one thread, the [`ChannelLink`] the nests on another.
pub fn channel_transport() -> (ChannelHost, ChannelLink) {
    let (down_tx, down_rx) = mpsc::channel();
    let (up_tx, up_rx) = mpsc::channel();
    (
        ChannelHost {
            down: down_tx,
            up: up_rx,
            pending: BTreeMap::new(),
        },
        ChannelLink {
            down: down_rx,
            up: up_tx,
            pending: BTreeMap::new(),
        },
    )
}

/// Drains `rx` until `(iteration, nest)` is available, buffering anything
/// that arrives ahead of it.
fn recv_keyed(
    rx: &mpsc::Receiver<(usize, u64, Cells)>,
    pending: &mut BTreeMap<(u64, usize), Cells>,
    nest: usize,
    iteration: u64,
    what: &str,
) -> Result<Cells, TransportError> {
    loop {
        if let Some(cells) = pending.remove(&(iteration, nest)) {
            return Ok(cells);
        }
        match rx.recv_timeout(CHANNEL_RECV_TIMEOUT) {
            Ok((n, it, cells)) => {
                pending.insert((it, n), cells);
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                return Err(TransportError::Timeout(format!(
                    "waiting for {what} of nest {nest} iteration {iteration}"
                )))
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Err(TransportError::Closed(format!(
                    "counterpart gone while waiting for {what} of nest {nest}"
                )))
            }
        }
    }
}

impl HaloHost for ChannelHost {
    fn send_boundary(
        &mut self,
        nest: usize,
        iteration: u64,
        bc: &BoundaryData,
    ) -> Result<(), TransportError> {
        self.down
            .send((nest, iteration, bc.cells().to_vec()))
            .map_err(|_| TransportError::Closed(format!("sending boundary of nest {nest}")))
    }

    fn recv_feedback(
        &mut self,
        nest: usize,
        iteration: u64,
    ) -> Result<FeedbackData, TransportError> {
        recv_keyed(&self.up, &mut self.pending, nest, iteration, "feedback")
            .map(FeedbackData::from_cells)
    }
}

impl HaloLink for ChannelLink {
    fn recv_boundary(
        &mut self,
        nest: usize,
        iteration: u64,
    ) -> Result<BoundaryData, TransportError> {
        recv_keyed(&self.down, &mut self.pending, nest, iteration, "boundary")
            .map(BoundaryData::from_cells)
    }

    fn send_feedback(
        &mut self,
        nest: usize,
        iteration: u64,
        fb: &FeedbackData,
    ) -> Result<(), TransportError> {
        self.up
            .send((nest, iteration, fb.cells().to_vec()))
            .map_err(|_| TransportError::Closed(format!("sending feedback of nest {nest}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nest::NestGeometry;
    use crate::report::SimReport;

    fn model() -> NestedModel {
        let geos = [
            NestGeometry {
                ratio: 3,
                offset: (4, 4),
                nx: 18,
                ny: 18,
            },
            NestGeometry {
                ratio: 2,
                offset: (20, 20),
                nx: 10,
                ny: 10,
            },
        ];
        let mut m = NestedModel::new(32, 32, 3000.0, 100.0, &geos);
        m.add_child_nest(
            0,
            NestGeometry {
                ratio: 2,
                offset: (3, 3),
                nx: 8,
                ny: 8,
            },
        );
        m.add_depression(8.0, 8.0, -4.0, 2.5);
        m.add_depression(23.0, 23.0, -6.0, 3.0);
        m
    }

    #[test]
    fn channel_transport_matches_in_process_bitwise() {
        const ITERS: u64 = 4;
        // Reference: the plain coupled loop.
        let mut reference = model();
        for _ in 0..ITERS {
            reference.step_coupled();
        }

        // Distributed: parent on this thread, nests on another, halos over
        // the channel transport.
        let mut parent_side = model();
        let owned: Vec<(usize, NestState)> =
            parent_side.nests.iter().cloned().enumerate().collect();
        let (mut host, mut link) = channel_transport();
        let nest_thread = std::thread::spawn(move || {
            let mut owned = owned;
            drive_nests(&mut owned, ITERS, &mut link)?;
            Ok::<_, TransportError>(owned)
        });
        drive_parent(&mut parent_side, ITERS, 1, &mut host).expect("parent side");
        let owned = nest_thread.join().expect("join").expect("nest side");

        // Parent state bitwise identical.
        assert_eq!(parent_side.parent, reference.parent);
        // Nest states bitwise identical.
        for (idx, nest) in &owned {
            assert_eq!(nest, &reference.nests[*idx], "nest {idx} diverged");
        }
        // And the assembled report equals the reference report byte for byte.
        let reassembled = SimReport::assemble(
            ITERS,
            7,
            crate::report::solver_digest(&parent_side.parent),
            owned
                .iter()
                .map(|(i, n)| crate::report::NestReport::from_nest(*i, n, ITERS))
                .collect(),
        );
        assert_eq!(
            reassembled.to_json(),
            SimReport::from_model(&reference, 7).to_json()
        );
    }

    #[test]
    fn dropped_link_surfaces_closed() {
        let mut m = model();
        let (mut host, link) = channel_transport();
        drop(link);
        let err = drive_parent(&mut m, 1, 1, &mut host).unwrap_err();
        assert!(matches!(err, TransportError::Closed(_)), "{err}");
    }
}
