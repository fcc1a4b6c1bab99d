//! The fleet coordinator: owns the parent domain, partitions the nests
//! across workers, and merges their reports.
//!
//! The coordinator is the only participant that steps the parent. It
//! drives [`drive_parent`] against a [`SocketHost`] that routes each
//! nest's halo traffic to the worker owning it; feedbacks are applied in
//! sibling order regardless of arrival order, so the merged run is
//! bitwise identical to the in-process one (the invariant the
//! determinism tests pin at 1/2/4 workers).
//!
//! Failure discipline: any transport error mid-run aborts the whole
//! fleet — every surviving worker is sent `Abort` and drained — and the
//! run returns a typed [`FleetError::WorkerLost`]. A partial run never
//! yields a `SimReport`.

use crate::error::FleetError;
use crate::frame::{decode_cells, encode_cells, HaloCell, Tag};
use crate::net::{accept_n, bind_listener, connect, FrameConn};
use crate::scenario::{build_model, nest_weights, partition_nests};
use crate::summary::{FleetSummary, WorkerRow};
use crate::wire::{to_payload, Assign, Done, Hello, SideObs, FLEET_WIRE_VERSION};
use crate::worker::run_worker;
use nestwx_grid::{Domain, NestSpec};
use nestwx_miniwrf::nest::{BoundaryData, FeedbackData};
use nestwx_miniwrf::{drive_parent, solver_digest, NestReport, SimReport, TransportError};
use nestwx_obs::{clock, LogHistogram};
use std::collections::BTreeMap;
use std::time::Duration;

/// Fleet sizing and deadline knobs. [`FleetConfig::from_env`] reads only
/// the two budgets from the environment, which is how a spawned
/// `fleet-worker` child gets them; the worker count is set by
/// `nestwx fleet --workers` or the serve `execute` request's `workers`.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Worker processes (default 2).
    pub workers: usize,
    /// Threads for the coordinator's parent step (1 keeps the parent step
    /// identical to `run_iterations`'s serial reference; `step_parallel`
    /// is bitwise-stable for any value).
    pub threads: usize,
    /// How long workers get to connect + greet
    /// (`NESTWX_FLEET_CONNECT_TIMEOUT_MS`, default 10 s).
    pub connect_timeout: Duration,
    /// Per-frame silence budget mid-run
    /// (`NESTWX_FLEET_FRAME_TIMEOUT_MS`, default 30 s).
    pub frame_timeout: Duration,
}

impl FleetConfig {
    /// The defaults, with the two `NESTWX_FLEET_*_TIMEOUT_MS` budgets.
    pub fn from_env() -> FleetConfig {
        FleetConfig {
            workers: 2,
            threads: 1,
            connect_timeout: Duration::from_millis(nestwx_core::env_usize(
                "NESTWX_FLEET_CONNECT_TIMEOUT_MS",
                10_000,
            ) as u64),
            frame_timeout: Duration::from_millis(nestwx_core::env_usize(
                "NESTWX_FLEET_FRAME_TIMEOUT_MS",
                30_000,
            ) as u64),
        }
    }
}

type Cells = Vec<HaloCell>;

/// Halo transport over framed sockets, coordinator side: routes each
/// nest's traffic to its owning worker's connection and buffers
/// out-of-order feedback keyed `(iteration, nest)`.
pub struct SocketHost {
    conns: Vec<FrameConn>,
    /// Global level-1 nest index → owning slot.
    owner: Vec<usize>,
    pending: BTreeMap<(u64, usize), Cells>,
    /// `Done` frames that arrive while still waiting on feedbacks.
    done: Vec<Option<Done>>,
    frame_timeout: Duration,
    recv_wait: LogHistogram,
    wait_s: f64,
    /// Slot whose connection produced the last transport error.
    last_error_slot: Option<usize>,
}

impl SocketHost {
    /// Builds a host over handshaken connections and the nest→slot map.
    pub fn new(conns: Vec<FrameConn>, owner: Vec<usize>, frame_timeout: Duration) -> SocketHost {
        let slots = conns.len();
        SocketHost {
            conns,
            owner,
            pending: BTreeMap::new(),
            done: vec![None; slots],
            frame_timeout,
            recv_wait: LogHistogram::new(),
            wait_s: 0.0,
            last_error_slot: None,
        }
    }

    /// The slot that caused the most recent transport error, if known.
    pub fn last_error_slot(&self) -> Option<usize> {
        self.last_error_slot
    }

    /// Dispatches one received frame from `slot`.
    fn take_frame(
        &mut self,
        slot: usize,
        tag: Tag,
        payload: Vec<u8>,
    ) -> Result<(), TransportError> {
        match tag {
            Tag::Feedback => {
                let (nest, iter, cells) =
                    decode_cells(&payload).map_err(|e| TransportError::Protocol(e.to_string()))?;
                self.pending.insert((iter, nest as usize), cells);
                Ok(())
            }
            Tag::Done => {
                let done =
                    Done::decode(&payload).map_err(|e| TransportError::Protocol(e.to_string()))?;
                self.done[slot] = Some(done);
                Ok(())
            }
            Tag::Error => Err(TransportError::Protocol(format!(
                "worker {slot} error: {}",
                String::from_utf8_lossy(&payload)
            ))),
            other => Err(TransportError::Protocol(format!(
                "worker {slot}: unexpected {other:?} frame mid-run"
            ))),
        }
    }

    /// Pumps every connection once, dispatching complete frames. Returns
    /// whether anything progressed.
    fn pump_all(&mut self) -> Result<bool, TransportError> {
        let mut progressed = false;
        for slot in 0..self.conns.len() {
            let pumped = self.conns[slot].pump().inspect_err(|_| {
                self.last_error_slot = Some(slot);
            })?;
            progressed |= pumped;
            loop {
                let frame = self.conns[slot].next_frame().inspect_err(|_| {
                    self.last_error_slot = Some(slot);
                })?;
                match frame {
                    Some((tag, payload)) => {
                        self.take_frame(slot, tag, payload).inspect_err(|_| {
                            self.last_error_slot = Some(slot);
                        })?;
                        progressed = true;
                    }
                    None => break,
                }
            }
        }
        Ok(progressed)
    }

    /// Pumps all connections until `check` finds what the caller waits for,
    /// blocking on `blamed_slot`'s socket whenever a round made no progress.
    fn wait_until<T>(
        &mut self,
        blamed_slot: usize,
        what: &str,
        mut check: impl FnMut(&mut SocketHost) -> Option<T>,
    ) -> Result<T, TransportError> {
        let start = clock::now();
        let deadline = start + self.frame_timeout;
        loop {
            if let Some(found) = check(self) {
                let waited = clock::since(start);
                self.recv_wait.record_duration(waited);
                self.wait_s += waited.as_secs_f64();
                return Ok(found);
            }
            let progressed = self.pump_all()?;
            if let Some(found) = check(self) {
                let waited = clock::since(start);
                self.recv_wait.record_duration(waited);
                self.wait_s += waited.as_secs_f64();
                return Ok(found);
            }
            // Every decodable frame is dispatched after a pump, so an
            // EOF'd source connection can never produce what we wait for.
            if self.conns[blamed_slot].is_eof() {
                self.last_error_slot = Some(blamed_slot);
                return Err(TransportError::Closed(format!(
                    "worker {blamed_slot} disconnected before sending its {what}"
                )));
            }
            if clock::expired(deadline) {
                self.last_error_slot = Some(blamed_slot);
                return Err(TransportError::Timeout(format!(
                    "no {what} from worker {blamed_slot} within {:?}",
                    self.frame_timeout
                )));
            }
            if !progressed {
                // Block on the connection the answer must come from; any
                // other slot's frames wait in the kernel until the next
                // pump. Queued output anywhere bounds the block to a slice.
                let idle = !self.conns.iter().any(FrameConn::has_pending_output);
                self.conns[blamed_slot]
                    .wait_readable(deadline, idle)
                    .inspect_err(|_| {
                        self.last_error_slot = Some(blamed_slot);
                    })?;
            }
        }
    }

    /// Waits for `slot`'s `Done`, pumping all connections meanwhile.
    pub fn wait_done(&mut self, slot: usize) -> Result<Done, TransportError> {
        self.wait_until(slot, "completion report", |host| host.done[slot].take())
    }

    /// Sends `Abort` to every worker and drains best-effort — called on
    /// the failure path so surviving workers exit instead of hanging on a
    /// boundary that will never come.
    pub fn abort_all(&mut self) {
        let deadline = clock::deadline_after(Duration::from_millis(500));
        for conn in &mut self.conns {
            conn.queue(Tag::Abort, b"");
            let _ = conn.flush_fully(deadline);
        }
    }

    /// Consumes the host, returning its connections and wait attribution.
    fn into_parts(self) -> (Vec<FrameConn>, LogHistogram, f64) {
        (self.conns, self.recv_wait, self.wait_s)
    }
}

impl nestwx_miniwrf::HaloHost for SocketHost {
    fn send_boundary(
        &mut self,
        nest: usize,
        iteration: u64,
        bc: &BoundaryData,
    ) -> Result<(), TransportError> {
        let slot = self.owner[nest];
        let payload = encode_cells(nest as u32, iteration, bc.cells());
        self.conns[slot].queue(Tag::Boundary, &payload);
        self.conns[slot].flush().inspect_err(|_| {
            self.last_error_slot = Some(slot);
        })?;
        Ok(())
    }

    fn recv_feedback(
        &mut self,
        nest: usize,
        iteration: u64,
    ) -> Result<FeedbackData, TransportError> {
        let slot = self.owner[nest];
        let key = (iteration, nest);
        self.wait_until(slot, "feedback", move |host| host.pending.remove(&key))
            .map(FeedbackData::from_cells)
    }
}

/// The merged result of a fleet run: the deterministic report plus the
/// observability envelope.
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// Deterministic simulation report — bitwise identical across fleet
    /// sizes and to the in-process run.
    pub report: SimReport,
    /// Wall-clock observability (socket traffic, stall attribution).
    pub summary: FleetSummary,
}

/// Runs the whole coordinator protocol over already-accepted connections:
/// handshake, assign, drive the parent, gather `Done`s, merge the report.
///
/// `ranks` is the scenario's rank count, recorded in the report;
/// `partitions` are `(domain, ranks)` pairs from a compiled plan (empty
/// falls back to fine-cell work weights).
pub fn run_coordinator(
    parent: &Domain,
    nests: &[NestSpec],
    iterations: u64,
    ranks: u64,
    partitions: &[(usize, u64)],
    mut conns: Vec<FrameConn>,
    config: &FleetConfig,
) -> Result<FleetRun, FleetError> {
    if conns.is_empty() {
        return Err(FleetError::Plan("a fleet needs at least one worker".into()));
    }
    let started = clock::now();
    let workers = conns.len() as u32;
    // Handshake: every worker greets with the wire version before any
    // binary traffic flows.
    for (slot, conn) in conns.iter_mut().enumerate() {
        let deadline = clock::deadline_after(config.connect_timeout);
        let (tag, payload) = conn
            .wait_frame(deadline)
            .map_err(|e| FleetError::Handshake(format!("worker {slot}: {e}")))?;
        if tag != Tag::Hello {
            return Err(FleetError::Handshake(format!(
                "worker {slot}: expected Hello, got {tag:?}"
            )));
        }
        let hello = Hello::decode(&payload)
            .map_err(|e| FleetError::Handshake(format!("worker {slot}: {e}")))?;
        if hello.version != FLEET_WIRE_VERSION {
            conn.queue(
                Tag::Error,
                format!("version mismatch: want {FLEET_WIRE_VERSION}").as_bytes(),
            );
            let _ = conn.flush_fully(clock::deadline_after(Duration::from_millis(500)));
            return Err(FleetError::Handshake(format!(
                "worker {slot} speaks wire version {} (want {FLEET_WIRE_VERSION})",
                hello.version
            )));
        }
    }

    let mut model = build_model(parent, nests);
    let weights = nest_weights(nests, partitions);
    let groups = partition_nests(&weights, conns.len());
    let mut owner = vec![0usize; model.nests.len()];
    for (slot, group) in groups.iter().enumerate() {
        for &nest in group {
            owner[nest] = slot;
        }
    }
    for (slot, conn) in conns.iter_mut().enumerate() {
        let assign = Assign {
            parent: parent.clone(),
            nests: nests.to_vec(),
            iterations,
            slot: slot as u32,
            owned: groups[slot].iter().map(|&n| n as u32).collect(),
            workers,
        };
        conn.queue(Tag::Assign, &to_payload(&assign));
        conn.flush_fully(clock::deadline_after(config.connect_timeout))
            .map_err(|e| FleetError::Handshake(format!("worker {slot}: {e}")))?;
    }

    let mut host = SocketHost::new(conns, owner, config.frame_timeout);
    if let Err(e) = drive_parent(&mut model, iterations, config.threads, &mut host) {
        let slot = host.last_error_slot().unwrap_or(0);
        host.abort_all();
        return Err(FleetError::lost(slot, &e));
    }

    // Gather every worker's Done (some may already be buffered).
    let mut rows: Vec<WorkerRow> = Vec::with_capacity(groups.len());
    let mut nest_reports: Vec<NestReport> = Vec::with_capacity(model.nests.len());
    for (slot, group) in groups.iter().enumerate() {
        let done = match host.wait_done(slot) {
            Ok(done) => done,
            Err(e) => {
                let blamed = host.last_error_slot().unwrap_or(slot);
                host.abort_all();
                return Err(FleetError::lost(blamed, &e));
            }
        };
        if done.slot as usize != slot
            || !done.nests.iter().map(|n| n.nest).eq(group.iter().copied())
        {
            host.abort_all();
            return Err(FleetError::lost(
                slot,
                &TransportError::Protocol(format!(
                    "worker {slot} reported nests {:?}, expected {group:?}",
                    done.nests.iter().map(|n| n.nest).collect::<Vec<_>>(),
                )),
            ));
        }
        nest_reports.extend(done.nests.iter().cloned());
        rows.push(WorkerRow {
            slot: slot as u32,
            nests: group.iter().map(|&n| n as u32).collect(),
            obs: done.obs,
        });
    }
    nest_reports.sort_by_key(|n| n.nest);

    let report = SimReport::assemble(
        iterations,
        ranks,
        solver_digest(&model.parent),
        nest_reports,
    );
    let elapsed_s = clock::since(started).as_secs_f64();
    let (conns, recv_wait, wait_s) = host.into_parts();
    let coordinator = SideObs {
        bytes_in: conns.iter().map(|c| c.bytes_in).sum(),
        bytes_out: conns.iter().map(|c| c.bytes_out).sum(),
        frames_in: conns.iter().map(|c| c.frames_in).sum(),
        frames_out: conns.iter().map(|c| c.frames_out).sum(),
        recv_wait: recv_wait.summary().into(),
        compute_s: (elapsed_s - wait_s).max(0.0),
        wait_s,
    };
    let summary = FleetSummary::new(&report, workers, coordinator, rows, elapsed_s);
    Ok(FleetRun { report, summary })
}

/// Runs a complete fleet inside one process: binds a loopback listener,
/// spawns `config.workers` worker threads that connect and speak the full
/// socket protocol, and coordinates them. This is what the serve `execute`
/// endpoint calls, and what the determinism tests compare against worker
/// processes — the wire path is identical either way.
pub fn execute_in_process(
    parent: &Domain,
    nests: &[NestSpec],
    iterations: u64,
    ranks: u64,
    partitions: &[(usize, u64)],
    config: &FleetConfig,
) -> Result<FleetRun, FleetError> {
    let (listener, addr) =
        bind_listener("127.0.0.1:0").map_err(|e| FleetError::Io(e.to_string()))?;
    let mut joins = Vec::with_capacity(config.workers);
    for _ in 0..config.workers {
        let addr = addr.clone();
        let connect_timeout = config.connect_timeout;
        let frame_timeout = config.frame_timeout;
        joins.push(std::thread::spawn(move || -> Result<(), FleetError> {
            let mut conn = connect(&addr, clock::deadline_after(connect_timeout))
                .map_err(|e| FleetError::Io(e.to_string()))?;
            run_worker(&mut conn, frame_timeout)
        }));
    }
    let accepted = accept_n(
        &listener,
        config.workers,
        clock::deadline_after(config.connect_timeout),
    )
    .map_err(|e| FleetError::Handshake(e.to_string()));
    let result = accepted.and_then(|conns| {
        run_coordinator(parent, nests, iterations, ranks, partitions, conns, config)
    });
    for join in joins {
        // Worker failures matter only if the coordinator also failed — on
        // the success path every worker already sent a valid Done.
        let _ = join.join();
    }
    result
}
