//! The fleet worker: owns a subset of level-1 nests and exchanges halos
//! with the coordinator over one framed connection.
//!
//! A worker is stateless until its `Assign` arrives: it rebuilds the full
//! model deterministically (see [`crate::scenario::build_model`]), keeps
//! only its owned nests, and then runs the nest half of the coupled loop
//! over a `SocketLink`. Boundary frames for different nests may arrive in
//! any order relative to the order the loop asks for them, so the link
//! buffers out-of-order frames keyed `(iteration, nest)`.

use crate::error::{FleetError, TransportError};
use crate::frame::{decode_cells, encode_cells, HaloCell, Tag};
use crate::net::FrameConn;
use crate::scenario::build_model;
use crate::wire::{to_payload, Assign, Done, Hello, SideObs, FLEET_WIRE_VERSION};
use nestwx_miniwrf::nest::{collect_feedback, BoundaryData, FeedbackData};
use nestwx_miniwrf::{NestReport, NestState, NestedModel};
use nestwx_obs::{clock, LogHistogram};
use std::collections::BTreeMap;
use std::time::Duration;

/// Halo transport over a framed socket, worker side.
pub(crate) struct SocketLink<'a> {
    conn: &'a mut FrameConn,
    /// Out-of-order boundary frames, keyed `(iteration, nest)`.
    pending: BTreeMap<(u64, usize), Vec<HaloCell>>,
    frame_timeout: Duration,
    recv_wait: LogHistogram,
    wait_s: f64,
    /// Set when the coordinator aborted the run; the worker exits cleanly.
    aborted: bool,
}

impl<'a> SocketLink<'a> {
    /// Wraps a handshaken connection.
    pub(crate) fn new(conn: &'a mut FrameConn, frame_timeout: Duration) -> SocketLink<'a> {
        SocketLink {
            conn,
            pending: BTreeMap::new(),
            frame_timeout,
            recv_wait: LogHistogram::new(),
            wait_s: 0.0,
            aborted: false,
        }
    }

    /// Whether the coordinator told this worker to stop mid-run.
    pub(crate) fn aborted(&self) -> bool {
        self.aborted
    }

    /// Drains the wait-attribution the link accumulated.
    pub(crate) fn wait_obs(&self) -> (&LogHistogram, f64) {
        (&self.recv_wait, self.wait_s)
    }

    /// Receives nest `nest`'s boundary ring for `iteration`, buffering
    /// frames for other nests.
    fn recv_boundary(
        &mut self,
        nest: usize,
        iteration: u64,
    ) -> Result<BoundaryData, TransportError> {
        let start = clock::now();
        let key = (iteration, nest);
        let cells = loop {
            if let Some(cells) = self.pending.remove(&key) {
                break cells;
            }
            let deadline = start + self.frame_timeout;
            let (tag, payload) = self.conn.wait_frame(deadline)?;
            match tag {
                Tag::Boundary => {
                    let (got_nest, got_iter, cells) = decode_cells(&payload)
                        .map_err(|e| TransportError::Protocol(e.to_string()))?;
                    self.pending.insert((got_iter, got_nest as usize), cells);
                }
                Tag::Abort => {
                    self.aborted = true;
                    return Err(TransportError::Closed("coordinator aborted the run".into()));
                }
                Tag::Error => {
                    return Err(TransportError::Protocol(format!(
                        "coordinator error: {}",
                        String::from_utf8_lossy(&payload)
                    )))
                }
                other => {
                    return Err(TransportError::Protocol(format!(
                        "expected Boundary, got {other:?}"
                    )))
                }
            }
        };
        let waited = clock::since(start);
        self.recv_wait.record_duration(waited);
        self.wait_s += waited.as_secs_f64();
        Ok(BoundaryData::from_cells(cells))
    }

    /// Sends nest `nest`'s feedback for `iteration`.
    fn send_feedback(
        &mut self,
        nest: usize,
        iteration: u64,
        fb: &FeedbackData,
    ) -> Result<(), TransportError> {
        let payload = encode_cells(nest as u32, iteration, fb.cells());
        self.conn.queue(Tag::Feedback, &payload);
        // Opportunistic flush: drive_nests immediately blocks on the next
        // boundary anyway, and wait_frame keeps flushing, but pushing bytes
        // now overlaps the send with the coordinator's feedback wait.
        self.conn.flush()?;
        Ok(())
    }
}

/// Runs the nest-owner half over `owned` (global nest index, state) pairs:
/// per iteration and owned nest, receive the boundary, solve the `r`
/// sub-steps (recursing into children), and send the feedback.
fn drive_nests(
    owned: &mut [(usize, NestState)],
    iterations: u64,
    link: &mut SocketLink<'_>,
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

/// Runs the whole worker protocol on a connected socket: `Hello` →
/// `Assign` → halo loop → `Done`. Returns `Ok(())` both on normal
/// completion and on a coordinator-initiated `Abort` (the failure is the
/// coordinator's to report); anything else is a typed error.
pub fn run_worker(conn: &mut FrameConn, frame_timeout: Duration) -> Result<(), FleetError> {
    conn.queue(
        Tag::Hello,
        &to_payload(&Hello {
            version: FLEET_WIRE_VERSION,
        }),
    );
    conn.flush_fully(clock::deadline_after(frame_timeout))
        .map_err(|e| FleetError::Handshake(e.to_string()))?;
    let (tag, payload) = conn
        .wait_frame(clock::deadline_after(frame_timeout))
        .map_err(|e| FleetError::Handshake(e.to_string()))?;
    let assign: Assign = match tag {
        Tag::Assign => {
            Assign::decode(&payload).map_err(|e| FleetError::Handshake(e.to_string()))?
        }
        Tag::Abort => return Ok(()),
        Tag::Error => {
            return Err(FleetError::Handshake(format!(
                "coordinator rejected handshake: {}",
                String::from_utf8_lossy(&payload)
            )))
        }
        other => {
            return Err(FleetError::Handshake(format!(
                "expected Assign, got {other:?}"
            )))
        }
    };

    // Rebuild the full model so owned nests initialize exactly as the
    // in-process run would, then keep only the owned ones.
    let model = build_model(&assign.parent, &assign.nests);
    let mut owned: Vec<(usize, NestState)> = assign
        .owned
        .iter()
        .map(|&g| (g as usize, model.nests[g as usize].clone()))
        .collect();
    drop(model);

    let run_start = clock::now();
    let (result, wait_hist, wait_s, aborted) = {
        let mut link = SocketLink::new(conn, frame_timeout);
        let result = drive_nests(&mut owned, assign.iterations, &mut link);
        let (hist, wait_s) = link.wait_obs();
        (result, hist.clone(), wait_s, link.aborted())
    };
    if aborted {
        return Ok(());
    }
    result.map_err(|e| FleetError::Io(e.to_string()))?;
    let run_s = clock::since(run_start).as_secs_f64();

    let nests: Vec<NestReport> = owned
        .iter()
        .map(|(g, nest)| NestReport::from_nest(*g, nest, assign.iterations))
        .collect();
    let done = Done {
        slot: assign.slot,
        nests,
        obs: SideObs {
            bytes_in: conn.bytes_in,
            bytes_out: conn.bytes_out,
            frames_in: conn.frames_in,
            frames_out: conn.frames_out,
            recv_wait: wait_hist.summary().into(),
            compute_s: (run_s - wait_s).max(0.0),
            wait_s,
        },
    };
    conn.queue(Tag::Done, &to_payload(&done));
    conn.flush_fully(clock::deadline_after(frame_timeout))
        .map_err(|e| FleetError::Io(e.to_string()))?;
    Ok(())
}
