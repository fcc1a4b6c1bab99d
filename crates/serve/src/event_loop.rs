//! The nonblocking readiness loop.
//!
//! Each reader thread multiplexes its connections through repeated
//! *passes* over a poll registry (the connection map) — std-only, no
//! `epoll` binding, no external deps:
//!
//! 1. **accept** — reader 0 owns the nonblocking listener; new
//!    connections are adopted locally or handed off round-robin to the
//!    other readers through a channel;
//! 2. **completions** — worker answers arrive on the reader's completion
//!    channel and fill their connection's in-order response slot;
//! 3. **pump** — every connection's socket is drained without blocking
//!    and complete request lines are processed: a raw-line **hot cache**
//!    answers repeated cache-hit lines without even parsing JSON,
//!    `stats`/`shutdown` and plan-cache hits are answered inline, and
//!    misses become queued jobs carrying a cancellation token and an
//!    optional deadline;
//! 4. **deadline sweep** — expired in-flight requests are claimed away
//!    from the workers and answered `deadline_exceeded` immediately;
//! 5. **flush & reap** — in-order responses are written as far as each
//!    socket accepts, and finished/dead/idle/over-lifetime connections
//!    are dropped.
//!
//! An idle reader first spin-yields (cheap when traffic is bursty), then
//! parks on its completion channel with a short timeout — the one event
//! source that cannot be polled — so sweeps still run every millisecond
//! or so.
//!
//! Per-client **rate limiting** happens before any work is done for a
//! request: each parsed request carrying a `client` field is charged an
//! endpoint-weighted cost (`compare` > `plan` > `predict`; control-plane
//! ops are free) against that client's token bucket, and a request the
//! bucket cannot cover is answered `rate_limited` without touching the
//! cache or the queue.

use crate::conn::Conn;
use crate::flight::{dur_us, RequestSpan, SpanPath};
use crate::keys;
use crate::limits::CancelToken;
use crate::protocol::{
    parse_machine, response_err_line, response_ok_line, Endpoint, ErrorKind, Line, ProtoError,
    Request, RequestBody, ScenarioParams, MAX_LINE_BYTES,
};
use crate::queue::PushError;
use crate::reply::{Completion, Outcome, Reply};
use crate::server::{
    deadline_exceeded, render_stats, render_trace, shutting_down, Job, ServerState, Work,
};
use crate::sync::Ordering;
use nestwx_grid::DomainFeatures;
use nestwx_obs::clock;
use std::collections::BTreeMap;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Raw-line hot cache entries per reader; the map is cleared (not
/// LRU-scanned) when full — repopulation from the plan cache is one
/// request per line.
const HOT_CACHE_CAP: usize = 8192;

/// Empty passes before an idle reader stops yield-spinning and parks.
const SPIN_PASSES: u32 = 64;

/// Park timeout — bounds deadline/idle sweep latency while idle.
const PARK: Duration = Duration::from_millis(1);

/// The channel pair wiring one reader into the server: workers send
/// [`Completion`]s to `completions_tx`; reader 0 hands accepted sockets
/// to `handoff_tx`. The receivers are `Option` so `spawn` can move them
/// into the reader thread while keeping the senders cloneable.
pub(crate) struct ReaderChannels {
    pub(crate) completions_tx: Sender<Completion>,
    pub(crate) completions_rx: Option<Receiver<Completion>>,
    pub(crate) handoff_tx: Sender<TcpStream>,
    pub(crate) handoff_rx: Option<Receiver<TcpStream>>,
}

/// One hot-cache entry: everything needed to answer a previously-seen
/// request line without parsing it, while still charging the rate
/// limiter and counting the plan-cache hit.
struct HotEntry {
    key: String,
    digest: u64,
    response: String,
    endpoint: Endpoint,
    client: Option<String>,
    cost: u64,
    id: Option<String>,
}

/// One in-flight request with a deadline, swept each pass.
struct DeadlineEntry {
    at: Instant,
    cancel: CancelToken,
    id: Option<String>,
    endpoint: Endpoint,
    started: Instant,
}

/// Reader-side half of a worker-path flight span, registered when a job
/// is submitted and finished when its completion (or deadline expiry)
/// arrives. Only populated while recording is on.
struct SpanSeed {
    /// Arrival time (µs since server epoch).
    ts_us: u64,
    /// Arrival → parse done (µs).
    parse_us: u32,
    endpoint: Endpoint,
}

/// When one request line arrived, on both of the reader's timelines, and
/// what parsing it cost — what every answer path needs to record latency
/// and stamp a flight span.
#[derive(Clone, Copy)]
struct Arrival {
    now: Instant,
    /// µs since the server epoch (0 when neither the rate limiter nor the
    /// recorder needs it).
    now_us: u64,
    /// Arrival → parse done (µs); 0 on the hot path and when not recording.
    parse_us: u32,
}

/// Saturating µs delta on the epoch timeline.
fn delta_us(start_us: u64, end_us: u64) -> u32 {
    end_us.saturating_sub(start_us).min(u32::MAX as u64) as u32
}

/// Token-bucket cost of one request, by endpoint — weighted fairness: a
/// simulation-backed `compare` spends four times what a `predict` does,
/// and the control plane (`stats`/`shutdown`) is never shed.
fn endpoint_cost(e: Endpoint) -> u64 {
    match e {
        Endpoint::Predict => 1,
        Endpoint::Plan => 2,
        Endpoint::Compare => 4,
        // A fleet execution spins up worker threads and sockets and runs
        // the real model — by far the most expensive request.
        Endpoint::Execute => 8,
        Endpoint::Stats | Endpoint::Trace | Endpoint::Shutdown => 0,
    }
}

fn overloaded() -> ProtoError {
    ProtoError::new(ErrorKind::Overloaded, "request queue full, retry later")
}

fn rate_limited() -> ProtoError {
    ProtoError::new(
        ErrorKind::RateLimited,
        "client token bucket empty, retry later",
    )
}

/// Runs one reader until shutdown completes. `listener` is `Some` only
/// for reader 0; `handoffs` holds every reader's handoff sender (again
/// only on reader 0), indexed by reader.
pub(crate) fn run_reader(
    state: Arc<ServerState>,
    idx: usize,
    listener: Option<TcpListener>,
    handoffs: Vec<Sender<TcpStream>>,
    handoff_rx: Receiver<TcpStream>,
    completions_tx: Sender<Completion>,
    completions_rx: Receiver<Completion>,
) {
    let idle = Duration::from_millis(state.cfg.idle_ms);
    let lifetime = Duration::from_millis(state.cfg.lifetime_ms);
    let default_deadline =
        (state.cfg.deadline_ms > 0).then(|| Duration::from_millis(state.cfg.deadline_ms));
    let rate_on = state.cfg.rate > 0;
    let flight_on = state.flight.enabled();
    let mut reader = ReaderLoop {
        state,
        idx,
        listener,
        handoffs,
        handoff_rx,
        completions_tx,
        completions_rx,
        conns: BTreeMap::new(),
        next_conn: 0,
        rr: 0,
        hot: BTreeMap::new(),
        deadlines: BTreeMap::new(),
        seeds: BTreeMap::new(),
        inflight: 0,
        idle,
        lifetime,
        default_deadline,
        rate_on,
        flight_on,
    };
    reader.run();
}

struct ReaderLoop {
    state: Arc<ServerState>,
    idx: usize,
    listener: Option<TcpListener>,
    handoffs: Vec<Sender<TcpStream>>,
    handoff_rx: Receiver<TcpStream>,
    completions_tx: Sender<Completion>,
    completions_rx: Receiver<Completion>,
    conns: BTreeMap<u64, Conn<TcpStream>>,
    next_conn: u64,
    rr: usize,
    hot: BTreeMap<String, HotEntry>,
    deadlines: BTreeMap<(u64, u64), DeadlineEntry>,
    /// Flight-span halves of submitted worker jobs, finished when the
    /// completion (or a winning deadline sweep) arrives.
    seeds: BTreeMap<(u64, u64), SpanSeed>,
    /// Jobs submitted whose completions have not yet arrived (deadline
    /// sweeps that win the claim race count as the completion).
    inflight: u64,
    idle: Duration,
    lifetime: Duration,
    default_deadline: Option<Duration>,
    rate_on: bool,
    /// Cached `state.flight.enabled()` — checked before every clock read
    /// the recorder would need.
    flight_on: bool,
}

impl ReaderLoop {
    fn run(&mut self) {
        let mut spin: u32 = 0;
        loop {
            let now = clock::now();
            let mut events = 0usize;
            events += self.accept(now);
            events += self.adopt_handoffs(now);
            events += self.drain_completions();
            events += self.pump_conns(now);
            self.sweep_deadlines(now);
            events += self.flush_and_reap(now);
            if self.state.is_shutdown() && self.conns.is_empty() && self.inflight == 0 {
                // Sockets still parked in the handoff channel were counted
                // live at accept; close them out before exiting.
                while let Ok(s) = self.handoff_rx.try_recv() {
                    drop(s);
                    self.state.live_conns.fetch_sub(1, Ordering::Relaxed);
                }
                break;
            }
            if events > 0 {
                spin = 0;
                continue;
            }
            spin = spin.saturating_add(1);
            if spin < SPIN_PASSES {
                std::thread::yield_now();
                continue;
            }
            // Park on the completion channel — the only wake source that
            // polling cannot observe for free — with a timeout short
            // enough to keep deadline/idle sweeps timely.
            if let Ok(c) = self.completions_rx.recv_timeout(PARK) {
                self.apply_completion(c);
                spin = 0;
            }
        }
    }

    // -- accept & handoff ---------------------------------------------------

    fn accept(&mut self, now: Instant) -> usize {
        if self.listener.is_none() {
            return 0;
        }
        let mut n = 0;
        // Not a `while let`: the listener borrow must end before the body
        // calls `adopt(&mut self)`.
        #[allow(clippy::while_let_loop)]
        loop {
            let accepted = match &self.listener {
                Some(l) => l.accept(),
                None => break,
            };
            match accepted {
                Ok((stream, _)) => {
                    n += 1;
                    if self.state.is_shutdown() {
                        continue;
                    }
                    let _ = stream.set_nonblocking(true);
                    if self.state.live_conns.load(Ordering::Relaxed) >= self.state.cfg.max_conns {
                        self.state
                            .metrics
                            .rejected_conns
                            .fetch_add(1, Ordering::Relaxed);
                        // Best effort: one overloaded line, then close.
                        let e = ProtoError::new(ErrorKind::Overloaded, "connection limit reached");
                        let mut s = stream;
                        let _ = s.write((response_err_line(None, &e) + "\n").as_bytes());
                        continue;
                    }
                    self.state
                        .metrics
                        .accepted_conns
                        .fetch_add(1, Ordering::Relaxed);
                    self.state.live_conns.fetch_add(1, Ordering::Relaxed);
                    let _ = stream.set_nodelay(true);
                    let route = if self.handoffs.len() > 1 {
                        self.rr % self.handoffs.len()
                    } else {
                        self.idx
                    };
                    self.rr = self.rr.wrapping_add(1);
                    if route == self.idx {
                        self.adopt(stream, now);
                    } else {
                        match self.handoffs[route].send(stream) {
                            Ok(()) => {}
                            // A reader that died can't adopt — keep the
                            // connection here rather than dropping it.
                            Err(back) => self.adopt(back.0, now),
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        n
    }

    fn adopt(&mut self, stream: TcpStream, now: Instant) {
        let id = self.next_conn;
        self.next_conn += 1;
        self.conns.insert(
            id,
            Conn::new(stream, id, MAX_LINE_BYTES, now, self.idle, self.lifetime),
        );
    }

    fn adopt_handoffs(&mut self, now: Instant) -> usize {
        let mut n = 0;
        while let Ok(stream) = self.handoff_rx.try_recv() {
            self.adopt(stream, now);
            n += 1;
        }
        n
    }

    // -- completions --------------------------------------------------------

    fn drain_completions(&mut self) -> usize {
        let mut n = 0;
        while let Ok(c) = self.completions_rx.try_recv() {
            self.apply_completion(c);
            n += 1;
        }
        n
    }

    fn apply_completion(&mut self, c: Completion) {
        self.deadlines.remove(&(c.conn, c.seq));
        let stages = Some((c.wait_us, c.work_us));
        self.finish((c.conn, c.seq), c.line, SpanPath::Worker, c.ok, stages);
    }

    /// Finishes a submitted job — answered by a worker's completion or by
    /// the deadline sweep: fills its pipeline slot and completes the
    /// flight span seeded at submit. `stages` are the worker-measured
    /// (wait, work) µs; the sweep has none and charges everything after
    /// the parse to the wait.
    fn finish(
        &mut self,
        key: (u64, u64),
        line: String,
        path: SpanPath,
        ok: bool,
        stages: Option<(u32, u32)>,
    ) {
        self.inflight = self.inflight.saturating_sub(1);
        // Counted whether or not the connection is still here: the
        // response was generated; delivery to a vanished client is not
        // owed (matches requests_total for a clean drain).
        self.state
            .metrics
            .responses_total
            .fetch_add(1, Ordering::Relaxed);
        let span = self.seeds.remove(&key).map(|seed| {
            let total_us = delta_us(seed.ts_us, clock::micros_since(self.state.epoch));
            let (wait_us, work_us) = stages.unwrap_or((total_us.saturating_sub(seed.parse_us), 0));
            RequestSpan::queued(
                seed.ts_us,
                seed.endpoint,
                path,
                ok,
                seed.parse_us,
                wait_us,
                work_us,
                total_us,
            )
        });
        if let Some(conn) = self.conns.get_mut(&key.0) {
            conn.fill_slot(key.1, line);
            if let Some(span) = span {
                Self::queue_span(&self.state, self.idx, conn, span);
            }
        } else if let Some(span) = span {
            // The connection vanished before delivery — the span still
            // counts, with the write edge left unrecorded.
            self.state.flight.record(self.idx, span);
        }
    }

    /// Queues a span on its connection so its write edge can be stamped
    /// once the outbox drains; a span evicted by the per-connection cap is
    /// recorded immediately (unwritten).
    fn queue_span(state: &ServerState, idx: usize, conn: &mut Conn<TcpStream>, span: RequestSpan) {
        if let Some(evicted) = conn.push_span(span) {
            state.flight.record(idx, evicted);
        }
    }

    // -- request processing -------------------------------------------------

    fn pump_conns(&mut self, now: Instant) -> usize {
        let mut events = 0;
        let now_us = if self.rate_on || self.flight_on {
            clock::micros_since(self.state.epoch)
        } else {
            0
        };
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            let Some(mut conn) = self.conns.remove(&id) else {
                continue;
            };
            if conn.fill(now) {
                events += 1;
            }
            while let Some(line) = conn.next_line() {
                events += 1;
                match line {
                    Line::Eof => break,
                    Line::Oversized { discarded } => self.answer_oversized(&mut conn, discarded),
                    Line::Data(text) => {
                        if text.trim().is_empty() {
                            continue;
                        }
                        self.handle_line(&mut conn, text, now, now_us);
                    }
                }
            }
            self.conns.insert(id, conn);
        }
        events
    }

    fn answer_oversized(&mut self, conn: &mut Conn<TcpStream>, discarded: usize) {
        let m = &self.state.metrics;
        m.requests_total.fetch_add(1, Ordering::Relaxed);
        m.protocol_errors.fetch_add(1, Ordering::Relaxed);
        let e = ProtoError::new(
            ErrorKind::Oversized,
            format!("line exceeds {MAX_LINE_BYTES} bytes ({discarded} discarded)"),
        );
        conn.push_done(response_err_line(None, &e));
        m.responses_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Answers one request on the reader itself: records the outcome under
    /// its endpoint, renders the response line and queues it in request
    /// order. `slot` is a pipeline slot already reserved for the request
    /// (the queue refused the job after the reservation), `None` otherwise.
    fn answer(
        &self,
        conn: &mut Conn<TcpStream>,
        slot: Option<u64>,
        id: Option<&str>,
        endpoint: Endpoint,
        outcome: &Outcome,
        at: Arrival,
    ) {
        self.state
            .metrics
            .endpoint(endpoint)
            .record(clock::since(at.now), outcome.is_ok());
        let line = match outcome {
            Ok(result) => response_ok_line(id, result),
            Err(e) => {
                if matches!(
                    e.kind,
                    ErrorKind::BadRequest | ErrorKind::UnsupportedVersion
                ) {
                    self.state
                        .metrics
                        .protocol_errors
                        .fetch_add(1, Ordering::Relaxed);
                }
                response_err_line(id, e)
            }
        };
        self.queue_answer(conn, slot, line, endpoint, outcome.is_ok(), at);
    }

    /// Queues an already rendered and recorded inline answer, plus (while
    /// recording) its inline-path flight span.
    fn queue_answer(
        &self,
        conn: &mut Conn<TcpStream>,
        slot: Option<u64>,
        line: String,
        endpoint: Endpoint,
        ok: bool,
        at: Arrival,
    ) {
        match slot {
            Some(seq) => {
                conn.fill_slot(seq, line);
            }
            None => conn.push_done(line),
        }
        self.state
            .metrics
            .responses_total
            .fetch_add(1, Ordering::Relaxed);
        if self.flight_on {
            let total_us = dur_us(clock::since(at.now));
            let span = RequestSpan::queued(
                at.now_us,
                endpoint,
                SpanPath::Inline,
                ok,
                at.parse_us,
                0,
                total_us.saturating_sub(at.parse_us),
                total_us,
            );
            Self::queue_span(&self.state, self.idx, conn, span);
        }
    }

    fn handle_line(&mut self, conn: &mut Conn<TcpStream>, line: String, now: Instant, now_us: u64) {
        self.state
            .metrics
            .requests_total
            .fetch_add(1, Ordering::Relaxed);
        let mut at = Arrival {
            now,
            now_us,
            parse_us: 0,
        };
        // Hot path: a raw line seen before whose answer comes from the
        // plan cache — charge the limiter, count the cache hit, splice
        // the precomposed response; no JSON touched.
        let mut charged = false;
        if let Some(entry) = self.hot.get(&line) {
            if self.rate_on {
                if let Some(client) = &entry.client {
                    if !self.state.limiter.try_charge(client, entry.cost, now_us) {
                        self.state.metrics.rate_shed.fetch_add(1, Ordering::Relaxed);
                        let shed = Err(rate_limited());
                        self.answer(conn, None, entry.id.as_deref(), entry.endpoint, &shed, at);
                        return;
                    }
                    charged = true;
                }
            }
            if self.state.cache.get(&entry.key, entry.digest).is_some() {
                let latency = clock::since(now);
                self.state
                    .metrics
                    .endpoint(entry.endpoint)
                    .record(latency, true);
                conn.push_done(entry.response.clone());
                self.state
                    .metrics
                    .responses_total
                    .fetch_add(1, Ordering::Relaxed);
                // Cheap fast-path variant: recorded straight to the ring
                // (no JSON was parsed, no write edge is tracked).
                if self.flight_on {
                    let total_us = dur_us(latency);
                    self.state.flight.record(
                        self.idx,
                        RequestSpan::queued(
                            now_us,
                            entry.endpoint,
                            SpanPath::Hot,
                            true,
                            0,
                            0,
                            total_us,
                            total_us,
                        ),
                    );
                }
                return;
            }
            // The cached plan was evicted since this entry was made: drop
            // it and take the slow path (already charged above).
            self.hot.remove(&line);
        }
        // Slow path: parse, limit, dispatch.
        let req = match Request::parse_line(&line) {
            Ok(r) => r,
            Err(e) => {
                let m = &self.state.metrics;
                m.protocol_errors.fetch_add(1, Ordering::Relaxed);
                conn.push_done(response_err_line(None, &e));
                m.responses_total.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        let endpoint = req.endpoint();
        let id = req.id.as_deref();
        // Arrival → parse done, charged to the span's parse stage.
        if self.flight_on {
            at.parse_us = dur_us(clock::since(now));
        }
        if self.rate_on && !charged {
            if let Some(client) = &req.client {
                let cost = endpoint_cost(endpoint);
                if cost > 0 && !self.state.limiter.try_charge(client, cost, now_us) {
                    self.state.metrics.rate_shed.fetch_add(1, Ordering::Relaxed);
                    self.answer(conn, None, id, endpoint, &Err(rate_limited()), at);
                    return;
                }
            }
        }
        match &req.body {
            RequestBody::Stats => {
                self.answer(conn, None, id, endpoint, &render_stats(&self.state), at)
            }
            // The trace answer's own span lands after the drain it
            // answered, so it shows up in the *next* trace — by design,
            // not a leak.
            RequestBody::Trace => {
                self.answer(conn, None, id, endpoint, &render_trace(&self.state), at)
            }
            RequestBody::Shutdown => {
                self.state.trigger_shutdown();
                let outcome = Ok("{\"draining\":true}".to_string());
                self.answer(conn, None, id, endpoint, &outcome, at);
            }
            RequestBody::Plan(p) => self.submit_scenario(conn, &req, p, None, line, at),
            RequestBody::Compare { params, iterations } => {
                self.submit_scenario(conn, &req, params, Some(*iterations), line, at)
            }
            // No cache fast path for a fleet execution: every `execute`
            // is real work whose obs envelope must describe *this* run,
            // so caching would be a lie.
            RequestBody::Execute {
                params,
                iterations,
                workers,
            } => match params.to_scenario() {
                Ok(scenario) => {
                    let work = Work::Execute {
                        scenario,
                        iterations: *iterations,
                        workers: *workers,
                    };
                    self.submit(conn, &req, work, at)
                }
                Err(e) => self.answer(conn, None, id, endpoint, &Err(e), at),
            },
            RequestBody::Predict(p) => match parse_machine(&p.machine) {
                Ok(machine) => {
                    let work = Work::Predict {
                        machine,
                        machine_spec: p.machine.clone(),
                        features: p.nests.iter().map(DomainFeatures::from).collect(),
                    };
                    self.submit(conn, &req, work, at)
                }
                Err(e) => self.answer(conn, None, id, endpoint, &Err(e.into()), at),
            },
        }
    }

    fn deadline_for(&self, req: &Request, now: Instant) -> Option<Instant> {
        match req.deadline_ms {
            Some(ms) => Some(now + Duration::from_millis(ms)),
            None => self.default_deadline.map(|d| now + d),
        }
    }

    /// Answers a `plan`/`compare` (`iterations` set) from the plan cache
    /// when it can, and submits it to the workers when it cannot.
    fn submit_scenario(
        &mut self,
        conn: &mut Conn<TcpStream>,
        req: &Request,
        params: &ScenarioParams,
        iterations: Option<u32>,
        raw_line: String,
        at: Arrival,
    ) {
        let endpoint = req.endpoint();
        let scenario = match params.to_scenario() {
            Ok(s) => s,
            Err(e) => {
                self.answer(conn, None, req.id.as_deref(), endpoint, &Err(e), at);
                return;
            }
        };
        let key = match iterations {
            None => keys::plan_key(&scenario),
            Some(n) => keys::compare_key(&scenario, n),
        };
        let digest = keys::key_digest(&key);
        // Hits are answered on the reader — they never occupy queue
        // capacity, which is what keeps a hot working set fast even while
        // the workers grind cold scenarios. Explain requests skip this
        // fast path (and the hot cache): their responses carry a block
        // the cached bytes don't, and the worker's *counted* cache read
        // keeps the hit/miss counters truthful.
        if !req.explain {
            if let Some(hit) = self.state.cache.get(&key, digest) {
                self.state
                    .metrics
                    .endpoint(endpoint)
                    .record(clock::since(at.now), true);
                let response = response_ok_line(req.id.as_deref(), &hit);
                if self.hot.len() >= HOT_CACHE_CAP {
                    self.hot.clear();
                }
                self.hot.insert(
                    raw_line,
                    HotEntry {
                        key,
                        digest,
                        response: response.clone(),
                        endpoint,
                        client: req.client.clone(),
                        cost: endpoint_cost(endpoint),
                        id: req.id.clone(),
                    },
                );
                self.queue_answer(conn, None, response, endpoint, true, at);
                return;
            }
        }
        let explain = req.explain;
        let work = match iterations {
            None => Work::Plan {
                scenario,
                key,
                digest,
                explain,
            },
            Some(iterations) => Work::Compare {
                scenario,
                iterations,
                key,
                digest,
                explain,
            },
        };
        self.submit(conn, req, work, at);
    }

    /// The one way a request reaches the workers: reserve its pipeline
    /// slot, push the job, and book it — or answer the typed refusal
    /// (`shutting_down` while draining, `overloaded` when the queue is
    /// full) in its place.
    fn submit(&mut self, conn: &mut Conn<TcpStream>, req: &Request, work: Work, at: Arrival) {
        let endpoint = req.endpoint();
        let id = req.id.as_deref();
        if self.state.is_shutdown() {
            self.answer(conn, None, id, endpoint, &Err(shutting_down()), at);
            return;
        }
        let deadline = self.deadline_for(req, at.now);
        let cancel = CancelToken::new();
        let seq = conn.reserve_slot();
        let job = Job {
            work,
            cancel: cancel.clone(),
            deadline,
            started: at.now,
            reply: Reply {
                tx: self.completions_tx.clone(),
                conn: conn.id,
                seq,
                id: req.id.clone(),
            },
        };
        match self.state.queue.push(job) {
            Ok(()) => self.track((conn.id, seq), cancel, req, deadline, at),
            Err(refused) => {
                let e = match refused {
                    PushError::Full => overloaded(),
                    PushError::Closed => shutting_down(),
                };
                self.answer(conn, Some(seq), id, endpoint, &Err(e), at);
            }
        }
    }

    /// Books a successfully submitted job: one more in-flight completion,
    /// a flight-span seed for the eventual completion, plus a deadline
    /// registry entry when the request has one.
    fn track(
        &mut self,
        key: (u64, u64),
        cancel: CancelToken,
        req: &Request,
        deadline: Option<Instant>,
        at: Arrival,
    ) {
        let endpoint = req.endpoint();
        self.inflight += 1;
        if self.flight_on {
            self.seeds.insert(
                key,
                SpanSeed {
                    ts_us: at.now_us,
                    parse_us: at.parse_us,
                    endpoint,
                },
            );
        }
        if let Some(deadline) = deadline {
            self.deadlines.insert(
                key,
                DeadlineEntry {
                    at: deadline,
                    cancel,
                    id: req.id.clone(),
                    endpoint,
                    started: at.now,
                },
            );
        }
    }

    // -- sweeps -------------------------------------------------------------

    fn sweep_deadlines(&mut self, now: Instant) {
        if self.deadlines.is_empty() {
            return;
        }
        let expired: Vec<(u64, u64)> = self
            .deadlines
            .iter()
            .filter(|(_, e)| now >= e.at)
            .map(|(k, _)| *k)
            .collect();
        for key in expired {
            let Some(entry) = self.deadlines.remove(&key) else {
                continue;
            };
            if !entry.cancel.claim() {
                // A worker won the race — its completion is in flight and
                // will finish the span seed.
                continue;
            }
            let m = &self.state.metrics;
            m.deadline_expired.fetch_add(1, Ordering::Relaxed);
            m.endpoint(entry.endpoint)
                .record(clock::since(entry.started), false);
            let line = response_err_line(entry.id.as_deref(), &deadline_exceeded());
            self.finish(key, line, SpanPath::Deadline, false, None);
        }
    }

    fn flush_and_reap(&mut self, now: Instant) -> usize {
        let mut events = 0;
        let shutting = self.state.is_shutdown();
        let mut gone: Vec<u64> = Vec::new();
        for (id, conn) in self.conns.iter_mut() {
            events += conn.flush(now);
            // Write-complete edge: once the outbox is empty, every
            // response whose span is still pending has reached the
            // socket — stamp and record them.
            if self.flight_on && conn.has_pending_spans() && conn.output_drained() {
                let done_us = clock::micros_since(self.state.epoch);
                for mut s in conn.take_pending_spans() {
                    s.write_us = delta_us(s.ts_us.saturating_add(s.total_us as u64), done_us);
                    s.written = true;
                    self.state.flight.record(self.idx, s);
                }
            }
            if conn.gone(now).is_some() || (shutting && conn.output_drained()) {
                gone.push(*id);
            }
        }
        for id in gone {
            if let Some(mut conn) = self.conns.remove(&id) {
                // Spans still pending at reap never reached the client —
                // record them with the write edge unset.
                for s in conn.take_pending_spans() {
                    self.state.flight.record(self.idx, s);
                }
            }
            self.state.live_conns.fetch_sub(1, Ordering::Relaxed);
            events += 1;
        }
        events
    }
}
