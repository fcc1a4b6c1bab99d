//! The concurrent planning server.
//!
//! Threading model (all std, no async runtime):
//!
//! - a small set of **reader** threads (`event_loop`) run a
//!   nonblocking readiness loop: reader 0 owns the listener and accepts
//!   (round-robin handoff when more readers are configured), every reader
//!   multiplexes its connections — draining sockets, splitting pipelined
//!   request lines, answering `stats`/`shutdown` and cache hits inline,
//!   enforcing per-client rate limits and per-request deadlines, and
//!   flushing in-order responses — without ever blocking on one peer;
//! - a fixed pool of **worker** threads pops jobs from the bounded queue
//!   — one `Job` per queued request, whatever the endpoint. Each job
//!   carries a [`CancelToken`]; the worker must *claim* it before
//!   computing, so a job already answered by the deadline sweep is
//!   skipped, never double-executed.
//!
//! Backpressure is explicit and typed: `overloaded` when the bounded queue
//! is full, `rate_limited` when a client's token bucket is empty,
//! `deadline_exceeded` when a request expired before a worker reached it,
//! `shutting_down` during drain — the server never buffers unboundedly.
//! Shutdown is graceful: the flag flips, the queue closes, workers drain
//! everything already accepted, readers flush every owed response and
//! exit once nothing is in flight, and [`ServerHandle::wait`] joins every
//! thread before reporting the final [`DrainReport`].

use crate::cache::PlanCache;
use crate::disk::{DiskCache, DiskStats};
use crate::event_loop::{self, ReaderChannels};
use crate::flight::{dur_us, FlightRecorder};
use crate::limits::{CancelToken, RateLimiter};
use crate::metrics::{LimitGauges, Metrics, StatsSnapshot};
use crate::protocol::{Endpoint, ErrorKind, ProtoError};
use crate::queue::BoundedQueue;
use crate::reply::{Outcome, Reply};
use crate::sync::{AtomicBool, AtomicUsize, Ordering};
use nestwx_core::strategy::{AllocPolicy, MappingKind, Strategy};
use nestwx_core::{compare_strategies, ExecutionPlan, Planner, PredictorStore, Scenario};
use nestwx_grid::DomainFeatures;
use nestwx_netsim::Machine;
use nestwx_obs::clock;
use nestwx_predict::PredictError;
use serde::Serialize;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// Server tuning knobs. `ServeConfig::new` gives the built-in defaults,
/// and `nestwx serve` has exactly one flag per field (README "`nestwx
/// serve` flags"). All limit knobs (deadline, rate, idle, lifetime)
/// default to 0 = off, so an unconfigured server behaves permissively.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Bind address, e.g. `"127.0.0.1:7878"` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads (default 4).
    pub workers: usize,
    /// Event-loop reader threads (default 1).
    pub readers: usize,
    /// Bounded job-queue depth (default 64).
    pub queue_depth: usize,
    /// Plan-cache capacity in entries (default 256).
    pub cache_capacity: usize,
    /// Maximum concurrent connections (default 64).
    pub max_conns: usize,
    /// Default per-request deadline in ms, 0 = none (the default);
    /// requests may override with their own `deadline_ms` field.
    pub deadline_ms: u64,
    /// Per-client token-bucket refill rate in tokens/second, 0 = rate
    /// limiting off (the default).
    pub rate: u64,
    /// Token-bucket capacity in tokens (default 8).
    pub burst: u64,
    /// Maximum tracked rate-limit clients, LRU-evicted beyond this
    /// (default 1024).
    pub client_cap: usize,
    /// Maximum cached per-machine predictors, LRU-evicted beyond this
    /// (default 64).
    pub predictors: usize,
    /// Idle connection cap in ms, 0 = none (the default).
    pub idle_ms: u64,
    /// Connection lifetime cap in ms, 0 = none (the default).
    pub lifetime_ms: u64,
    /// Disk plan-cache directory, `None` = memory-only (the default).
    /// When set, cache misses consult the disk store shared with
    /// `nestwx sweep` before planning, so a warm sweep pre-heats the
    /// in-memory shards, and fresh results are persisted for the next
    /// process. The directory always flows through this config — never
    /// an ambient path (lint NW-D006).
    pub cache_dir: Option<std::path::PathBuf>,
    /// Flight recorder on/off (default on). Recording is passive —
    /// response bytes are identical either way.
    pub trace: bool,
    /// Per-reader span-ring capacity in spans (default 4096).
    pub trace_ring: usize,
    /// Slow-request log threshold in µs, 0 = slow log off (the default).
    pub trace_slow_us: u64,
}

impl ServeConfig {
    /// A config for `addr` with the built-in defaults.
    pub fn new(addr: impl Into<String>) -> ServeConfig {
        ServeConfig {
            addr: addr.into(),
            workers: 4,
            readers: 1,
            queue_depth: 64,
            cache_capacity: 256,
            max_conns: 64,
            deadline_ms: 0,
            rate: 0,
            burst: 8,
            client_cap: 1024,
            predictors: 64,
            idle_ms: 0,
            lifetime_ms: 0,
            cache_dir: None,
            trace: true,
            trace_ring: 4096,
            trace_slow_us: 0,
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig::new("127.0.0.1:0")
    }
}

// ---------------------------------------------------------------------------
// Jobs (the bounded queue itself lives in `crate::queue`)
// ---------------------------------------------------------------------------

/// One queued request: what to compute, and everything the worker needs
/// to answer it exactly once.
pub(crate) struct Job {
    pub(crate) work: Work,
    /// Claim on the right to answer, raced with the deadline sweep.
    pub(crate) cancel: CancelToken,
    pub(crate) deadline: Option<Instant>,
    /// Arrival instant, for endpoint latency and the queue-wait stage.
    pub(crate) started: Instant,
    pub(crate) reply: Reply,
}

/// The endpoint-specific part of a [`Job`].
pub(crate) enum Work {
    Plan {
        scenario: Scenario,
        key: String,
        digest: u64,
        explain: bool,
    },
    Compare {
        scenario: Scenario,
        iterations: u32,
        key: String,
        digest: u64,
        explain: bool,
    },
    Predict {
        machine: Machine,
        /// Machine spec string from the request (echoed in the result).
        machine_spec: String,
        /// Features of the nests to rank.
        features: Vec<DomainFeatures>,
    },
    /// Fleet execution: uncached, always computed (the result is a real
    /// simulation run whose obs envelope describes *this* execution).
    Execute {
        scenario: Scenario,
        iterations: u32,
        workers: u32,
    },
}

impl Work {
    fn endpoint(&self) -> Endpoint {
        match self {
            Work::Plan { .. } => Endpoint::Plan,
            Work::Compare { .. } => Endpoint::Compare,
            Work::Predict { .. } => Endpoint::Predict,
            Work::Execute { .. } => Endpoint::Execute,
        }
    }

    fn compute(&self, state: &ServerState) -> Outcome {
        match self {
            Work::Plan {
                scenario,
                key,
                digest,
                explain,
            } => {
                let fresh = |planned: Option<&ExecutionPlan>| match planned {
                    Some(plan) => render_plan(scenario, plan),
                    None => render_plan(scenario, &plan_scenario(state, scenario)?),
                };
                cached_or_fresh(state, scenario, key, *digest, *explain, fresh)
            }
            Work::Compare {
                scenario,
                iterations,
                key,
                digest,
                explain,
            } => {
                let fresh =
                    |_: Option<&ExecutionPlan>| render_compare(state, scenario, *iterations);
                cached_or_fresh(state, scenario, key, *digest, *explain, fresh)
            }
            Work::Predict {
                machine,
                machine_spec,
                features,
            } => state
                .predictors
                .get(machine)
                .and_then(|predictor| predictor.relative_times(features))
                .map_err(prediction_failed)
                .and_then(|times| render_predict(machine_spec, times)),
            Work::Execute {
                scenario,
                iterations,
                workers,
            } => compute_execute(state, scenario, *iterations, *workers),
        }
    }
}

// ---------------------------------------------------------------------------
// Shared state
// ---------------------------------------------------------------------------

pub(crate) struct ServerState {
    pub(crate) cfg: ServeConfig,
    pub(crate) queue: BoundedQueue<Job>,
    pub(crate) cache: PlanCache,
    /// Disk-persisted plan store, engaged when `cfg.cache_dir` is set.
    pub(crate) disk: Option<DiskCache>,
    pub(crate) metrics: Metrics,
    /// One fitted predictor per machine value, shared by every plan and
    /// predict job; LRU-bounded at [`ServeConfig::predictors`] entries.
    /// The server's own store (not the process-wide one), so the
    /// `predictors_cached` / `predictor_evictions` gauges describe it alone.
    pub(crate) predictors: PredictorStore,
    /// Per-client token buckets (engaged only when `cfg.rate > 0`).
    pub(crate) limiter: RateLimiter,
    /// The request flight recorder (per-reader span rings + slow log).
    pub(crate) flight: FlightRecorder,
    pub(crate) shutdown: AtomicBool,
    pub(crate) live_conns: AtomicUsize,
    /// Server start instant: the rate limiter's time origin.
    pub(crate) epoch: Instant,
}

impl ServerState {
    pub(crate) fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Flips the shutdown flag once and closes the queue (workers drain
    /// and exit; readers notice within one park timeout).
    pub(crate) fn trigger_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue.close();
    }

    /// The scenario's planner, with the predictor pre-resolved from the
    /// server's store when the policy needs one. Every store fits with
    /// `nestwx_core::PROFILE_SEED`, so the plans are the bytes a direct
    /// `Planner::plan` produces.
    fn planner_with_predictor(&self, scenario: &Scenario) -> Result<Planner, ProtoError> {
        let planner = scenario.planner();
        if scenario.alloc != AllocPolicy::HuffmanSplitTree {
            return Ok(planner);
        }
        self.predictors
            .get(&scenario.machine)
            .map(|predictor| planner.with_predictor(predictor))
            .map_err(prediction_failed)
    }

    /// The rendered result under `key`: memory first, then the disk store
    /// a sweep (or an earlier process) may have filled. A disk hit
    /// pre-heats the in-memory shard so subsequent identical requests are
    /// answered without touching disk. `counted` selects the lookup that
    /// moves the hit/miss counters — for requests the reader has not
    /// already counted.
    fn cached(&self, key: &str, digest: u64, counted: bool) -> Option<Arc<str>> {
        let memory = if counted {
            self.cache.get(key, digest)
        } else {
            self.cache.peek(key, digest)
        };
        if memory.is_some() {
            return memory;
        }
        let hit = self.disk.as_ref()?.get(key)?;
        self.cache.insert(key.to_string(), digest, Arc::clone(&hit));
        Some(hit)
    }

    /// Caches a freshly rendered result in memory and, when a disk store
    /// is configured, persists it for the next process.
    fn store(&self, key: &str, digest: u64, result: &str) {
        self.cache
            .insert(key.to_string(), digest, Arc::from(result));
        if let Some(disk) = &self.disk {
            // Persistence is best-effort: a full disk must not fail a request
            // the server just computed an answer for.
            let _ = disk.put(key, result);
        }
    }

    /// Disk-cache counters for `stats` snapshots (zeros when disabled).
    pub(crate) fn disk_stats(&self) -> DiskStats {
        self.disk.as_ref().map(DiskCache::stats).unwrap_or_default()
    }

    /// The live limit gauges for `stats` snapshots.
    pub(crate) fn limit_gauges(&self) -> LimitGauges {
        LimitGauges {
            clients_tracked: self.limiter.clients_tracked() as u64,
            rate_evictions: self.limiter.evictions(),
            predictors_cached: self.predictors.len() as u64,
            predictor_evictions: self.predictors.evictions(),
        }
    }
}

// ---------------------------------------------------------------------------
// Result rendering (the JSON that gets cached and spliced into responses)
// ---------------------------------------------------------------------------

#[derive(Serialize)]
struct GridOut {
    px: u32,
    py: u32,
}

#[derive(Serialize)]
struct PartitionOut {
    nest: u64,
    x: u32,
    y: u32,
    w: u32,
    h: u32,
    ranks: u64,
}

#[derive(Serialize)]
struct PlanResult {
    machine: String,
    ranks: u32,
    grid: GridOut,
    strategy: String,
    alloc: String,
    mapping: String,
    predicted_ratios: Vec<f64>,
    partitions: Vec<PartitionOut>,
}

#[derive(Serialize)]
struct CompareResult {
    machine: String,
    iterations: u32,
    default_s_per_iter: f64,
    planned_s_per_iter: f64,
    improvement_pct: f64,
    mpi_wait_improvement_pct: f64,
    io_improvement_pct: f64,
    hops_reduction_pct: f64,
}

#[derive(Serialize)]
struct PredictResult {
    machine: String,
    relative_times: Vec<f64>,
}

pub(crate) fn internal(msg: impl Into<String>) -> ProtoError {
    ProtoError::new(ErrorKind::Internal, msg)
}

fn failed(msg: impl Into<String>) -> ProtoError {
    ProtoError::new(ErrorKind::Failed, msg)
}

/// A fit or query failure, worded as `PlanError::Predict` prints it.
fn prediction_failed(e: PredictError) -> ProtoError {
    failed(format!("prediction: {e}"))
}

pub(crate) fn shutting_down() -> ProtoError {
    ProtoError::new(ErrorKind::ShuttingDown, "server is draining")
}

pub(crate) fn deadline_exceeded() -> ProtoError {
    ProtoError::new(
        ErrorKind::DeadlineExceeded,
        "deadline expired before the request was served",
    )
}

/// Renders a plan into the exact result JSON the server caches and
/// splices into responses. Public so the sweep engine produces plan bytes
/// structurally identical to served ones — byte-identity between a
/// sweep-warmed disk entry and fresh planning is enforced by construction,
/// not by parallel implementations drifting apart.
pub fn render_plan(scenario: &Scenario, plan: &ExecutionPlan) -> Result<String, ProtoError> {
    let result = PlanResult {
        machine: scenario.machine.name.clone(),
        ranks: plan.machine.ranks(),
        grid: GridOut {
            px: plan.grid.px,
            py: plan.grid.py,
        },
        strategy: Strategy::token(scenario.strategy).to_string(),
        alloc: AllocPolicy::token(scenario.alloc).to_string(),
        mapping: MappingKind::token(scenario.mapping).to_string(),
        predicted_ratios: plan.predicted_ratios.clone(),
        partitions: plan
            .partitions
            .iter()
            .map(|p| PartitionOut {
                nest: p.domain as u64,
                x: p.rect.x0,
                y: p.rect.y0,
                w: p.rect.w,
                h: p.rect.h,
                ranks: p.rect.area(),
            })
            .collect(),
    };
    serde_json::to_string(&result).map_err(|e| internal(format!("render: {e:?}")))
}

pub(crate) fn render_predict(
    machine_spec: &str,
    relative_times: Vec<f64>,
) -> Result<String, ProtoError> {
    serde_json::to_string(&PredictResult {
        machine: machine_spec.to_string(),
        relative_times,
    })
    .map_err(|e| internal(format!("render: {e:?}")))
}

pub(crate) fn render_stats(state: &ServerState) -> Outcome {
    let snapshot = state.metrics.snapshot(
        state.queue.stats(),
        state.cache.stats(),
        state.live_conns.load(Ordering::Relaxed) as u64,
        state.limit_gauges(),
        state.disk_stats(),
        state.flight.stats(),
    );
    serde_json::to_string(&snapshot).map_err(|e| internal(format!("render: {e:?}")))
}

/// Renders the `trace` response: drains the flight recorder into the
/// versioned `nestwx-obs-serve-summary` envelope. Draining is destructive
/// — each span is reported exactly once across concurrent drains.
pub(crate) fn render_trace(state: &ServerState) -> Outcome {
    serde_json::to_string(&state.flight.envelope()).map_err(|e| internal(format!("render: {e:?}")))
}

// ---------------------------------------------------------------------------
// The opt-in `explain` block
// ---------------------------------------------------------------------------

#[derive(Serialize)]
struct ExplainNest {
    nest: u64,
    ranks: u64,
    predicted_share: f64,
    alloc_share: f64,
}

#[derive(Serialize)]
struct HopHist {
    edges: u64,
    max_hops: u64,
    counts: Vec<u64>,
}

#[derive(Serialize)]
struct ExplainOut {
    predicted_s_per_iter: f64,
    nests: Vec<ExplainNest>,
    hops: HopHist,
}

/// Renders the `explain` block for a plan: per-nest predicted vs
/// allocated rank share, the predicted seconds/iteration, and the hop
/// histogram of every cross-partition neighbor edge under the plan's
/// mapping (empty for sequential plans, which have no partitions).
pub(crate) fn render_explain(plan: &ExecutionPlan) -> Result<String, ProtoError> {
    let report = plan
        .simulate(1)
        .map_err(|e| ProtoError::new(ErrorKind::Failed, e.to_string()))?;
    let total_ranks = (plan.grid.px as f64) * (plan.grid.py as f64);
    let nests: Vec<ExplainNest> = plan
        .partitions
        .iter()
        .map(|p| ExplainNest {
            nest: p.domain as u64,
            ranks: p.rect.area(),
            predicted_share: plan.predicted_ratios.get(p.domain).copied().unwrap_or(0.0),
            alloc_share: p.rect.area() as f64 / total_ranks,
        })
        .collect();
    let rects: Vec<nestwx_grid::Rect> = plan.partitions.iter().map(|p| p.rect).collect();
    let edges = nestwx_topo::mapping::cross_partition_edges(&plan.grid, &rects);
    let mut counts: Vec<u64> = Vec::new();
    for (a, b) in &edges {
        let h = plan.mapping.hops(*a, *b) as usize;
        if counts.len() <= h {
            counts.resize(h + 1, 0);
        }
        counts[h] += 1;
    }
    let out = ExplainOut {
        predicted_s_per_iter: report.total_time,
        nests,
        hops: HopHist {
            edges: edges.len() as u64,
            max_hops: counts.len().saturating_sub(1) as u64,
            counts,
        },
    };
    serde_json::to_string(&out).map_err(|e| internal(format!("render: {e:?}")))
}

/// Splices an `explain` block into an already-rendered result object.
/// The cached bytes stay pure — the block is appended per-response, so
/// explain-off responses are byte-identical to pre-explain behavior.
fn with_explain(result: &str, explain_json: &str) -> String {
    match result.strip_suffix('}') {
        Some(head) => format!("{head},\"explain\":{explain_json}}}"),
        None => result.to_string(),
    }
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn worker_loop(state: Arc<ServerState>) {
    while let Some(job) = state.queue.pop() {
        if !job.cancel.claim() {
            // The deadline sweep already answered this request.
            continue;
        }
        // Flight-recorder stages: queue wait is measured at claim,
        // compute around the work. Gated so an unrecorded server
        // takes no extra clock reads.
        let flight_on = state.flight.enabled();
        let wait_us = if flight_on {
            dur_us(clock::since(job.started))
        } else {
            0
        };
        let t0 = flight_on.then(clock::now);
        let outcome = if job.deadline.is_some_and(clock::expired) {
            state
                .metrics
                .deadline_expired
                .fetch_add(1, Ordering::Relaxed);
            Err(deadline_exceeded())
        } else {
            job.work.compute(&state)
        };
        state
            .metrics
            .endpoint(job.work.endpoint())
            .record(clock::since(job.started), outcome.is_ok());
        let work_us = t0.map(|t| dur_us(clock::since(t))).unwrap_or(0);
        job.reply.send(outcome, wait_us, work_us);
    }
}

fn plan_scenario(state: &ServerState, scenario: &Scenario) -> Result<ExecutionPlan, ProtoError> {
    state
        .planner_with_predictor(scenario)?
        .plan(&scenario.parent, &scenario.nests)
        .map_err(|e| failed(e.to_string()))
}

/// The one lookup chain both cacheable endpoints answer through: memory →
/// disk → `fresh` (then stored). The cache holds *pure* result bytes; an
/// `explain` block is spliced per-response from a freshly computed plan
/// (deterministic, so it describes the cached bytes exactly), which
/// `fresh` receives so `plan` need not compute it twice.
///
/// Explained requests bypass the reader's cache fast path entirely (the
/// reader never counted a lookup), so their lookup here is the counted
/// one — cache hit/miss figures stay truthful. For every other request
/// the reader already counted the miss, and this is the uncounted
/// re-check: an identical request may have been computed while this one
/// waited in the queue.
fn cached_or_fresh(
    state: &ServerState,
    scenario: &Scenario,
    key: &str,
    digest: u64,
    explain: bool,
    fresh: impl FnOnce(Option<&ExecutionPlan>) -> Outcome,
) -> Outcome {
    let plan = explain
        .then(|| plan_scenario(state, scenario))
        .transpose()?;
    let result = match state.cached(key, digest, explain) {
        Some(hit) => hit.to_string(),
        None => {
            let result = fresh(plan.as_ref())?;
            state.store(key, digest, &result);
            result
        }
    };
    match plan {
        Some(plan) => Ok(with_explain(&result, &render_explain(&plan)?)),
        None => Ok(result),
    }
}

/// Computes and renders a fresh compare result.
fn render_compare(state: &ServerState, scenario: &Scenario, iterations: u32) -> Outcome {
    let planner = state.planner_with_predictor(scenario)?;
    let cmp = compare_strategies(&planner, &scenario.parent, &scenario.nests, iterations)
        .map_err(|e| failed(e.to_string()))?;
    serde_json::to_string(&CompareResult {
        machine: scenario.machine.name.clone(),
        iterations,
        default_s_per_iter: cmp.default_run.per_iteration(),
        planned_s_per_iter: cmp.planned_run.per_iteration(),
        improvement_pct: cmp.improvement_pct(),
        mpi_wait_improvement_pct: cmp.mpi_wait_improvement_pct(),
        io_improvement_pct: cmp.io_improvement_pct(),
        hops_reduction_pct: cmp.hops_reduction_pct(),
    })
    .map_err(|e| internal(format!("render: {e:?}")))
}

/// Total-cell ceiling for `execute` scenarios: the parent plus every
/// nest's fine grid. A fleet run holds real field state and steps it, so
/// the endpoint refuses scenarios that would monopolize a worker thread.
const MAX_EXECUTE_CELLS: u64 = 1_000_000;

/// Runs the scenario across an in-process socket fleet and renders the
/// merged report plus its obs envelope. The plan is computed first (same
/// planner path as `plan`) both to validate the scenario and to derive
/// the rank weights that drive nest → worker ownership.
fn compute_execute(
    state: &ServerState,
    scenario: &Scenario,
    iterations: u32,
    workers: u32,
) -> Outcome {
    let cells = scenario.parent.nx as u64 * scenario.parent.ny as u64
        + scenario
            .nests
            .iter()
            .map(|n| n.nx as u64 * n.ny as u64)
            .sum::<u64>();
    if cells > MAX_EXECUTE_CELLS {
        return Err(ProtoError::new(
            ErrorKind::Failed,
            format!("scenario too large to execute ({cells} cells > {MAX_EXECUTE_CELLS})"),
        ));
    }
    let plan = plan_scenario(state, scenario)?;
    let partitions: Vec<(usize, u64)> = plan
        .partitions
        .iter()
        .map(|p| (p.domain, p.rect.area()))
        .collect();
    let ranks = plan.machine.ranks() as u64;
    let cfg = nestwx_fleet::FleetConfig {
        workers: workers as usize,
        ..nestwx_fleet::FleetConfig::from_env()
    };
    let run = nestwx_fleet::execute_in_process(
        &scenario.parent,
        &scenario.nests,
        iterations as u64,
        ranks,
        &partitions,
        &cfg,
    )
    .map_err(|e| match e {
        nestwx_fleet::FleetError::WorkerLost { .. } => {
            ProtoError::new(ErrorKind::WorkerLost, e.to_string())
        }
        other => ProtoError::new(ErrorKind::Failed, other.to_string()),
    })?;
    let fleet_json =
        serde_json::to_string(&run.summary).map_err(|e| internal(format!("render: {e:?}")))?;
    let mut s = String::with_capacity(256 + fleet_json.len());
    s.push_str("{\"machine\":");
    serde::write_escaped_str(&scenario.machine.name, &mut s);
    s.push_str(&format!(",\"workers\":{workers}"));
    s.push_str(",\"report\":");
    s.push_str(&run.report.to_json());
    s.push_str(",\"fleet\":");
    s.push_str(&fleet_json);
    s.push('}');
    Ok(s)
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

/// What remained when the server finished draining — all zeros (and
/// balanced request/response totals) on a clean exit. Deadline-expired and
/// rate-shed requests are *answered* (typed errors), so they appear in the
/// informational counters here, never as residuals.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct DrainReport {
    /// Request lines received over the server's lifetime.
    pub requests_total: u64,
    /// Response lines generated over the server's lifetime (delivery is
    /// attempted; a vanished client does not skew the balance).
    pub responses_total: u64,
    /// Jobs left in the queue after the workers exited (always 0: workers
    /// drain the queue before exiting).
    pub queue_residual: u64,
    /// Connections still open after the readers joined (always 0).
    pub live_conns: u64,
    /// Requests answered with `deadline_exceeded` (informational).
    pub deadline_expired: u64,
    /// Requests answered with `rate_limited` (informational).
    pub rate_shed: u64,
}

impl DrainReport {
    /// True when nothing leaked: every thread joined, every accepted
    /// request was answered (typed errors included), nothing left queued.
    pub fn clean(&self) -> bool {
        self.queue_residual == 0
            && self.live_conns == 0
            && self.requests_total == self.responses_total
    }
}

/// A running server: its bound address plus the join handles.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    readers: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actually bound address (resolves `:0` port requests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Triggers a graceful shutdown (same as a `shutdown` request).
    pub fn shutdown(&self) {
        self.state.trigger_shutdown();
    }

    /// Blocks until the server has fully drained — readers and workers all
    /// joined — and reports what was left. Call after
    /// [`ServerHandle::shutdown`] or once a client sent `shutdown`.
    pub fn wait(mut self) -> DrainReport {
        for r in self.readers.drain(..) {
            let _ = r.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        DrainReport {
            requests_total: self.state.metrics.requests_total.load(Ordering::Relaxed),
            responses_total: self.state.metrics.responses_total.load(Ordering::Relaxed),
            queue_residual: self.state.queue.depth() as u64,
            live_conns: self.state.live_conns.load(Ordering::Relaxed) as u64,
            deadline_expired: self.state.metrics.deadline_expired.load(Ordering::Relaxed),
            rate_shed: self.state.metrics.rate_shed.load(Ordering::Relaxed),
        }
    }

    /// A point-in-time stats snapshot — the same content the `stats`
    /// endpoint renders, for embedding tests and benches.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        self.state.metrics.snapshot(
            self.state.queue.stats(),
            self.state.cache.stats(),
            self.state.live_conns.load(Ordering::Relaxed) as u64,
            self.state.limit_gauges(),
            self.state.disk_stats(),
            self.state.flight.stats(),
        )
    }

    /// Drains the flight recorder into its envelope — the same content the
    /// `trace` endpoint renders, for embedding tests and benches.
    pub fn trace_envelope(&self) -> crate::flight::TraceEnvelope {
        self.state.flight.envelope()
    }
}

/// Binds and spawns the server: reader set plus worker pool. Returns once
/// the listener is bound — requests can be sent immediately.
pub fn spawn(cfg: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let n_workers = cfg.workers.max(1);
    let n_readers = cfg.readers.max(1);
    let disk = match &cfg.cache_dir {
        Some(dir) => Some(DiskCache::open(dir)?),
        None => None,
    };
    let state = Arc::new(ServerState {
        queue: BoundedQueue::new(cfg.queue_depth),
        cache: PlanCache::new(cfg.cache_capacity),
        disk,
        metrics: Metrics::default(),
        predictors: PredictorStore::new(cfg.predictors),
        limiter: RateLimiter::new(cfg.rate, cfg.burst, cfg.client_cap),
        flight: FlightRecorder::new(cfg.trace, n_readers, cfg.trace_ring, cfg.trace_slow_us),
        shutdown: AtomicBool::new(false),
        live_conns: AtomicUsize::new(0),
        epoch: clock::now(),
        cfg,
    });
    let workers = (0..n_workers)
        .map(|i| {
            let st = Arc::clone(&state);
            thread::Builder::new()
                .name(format!("nestwx-serve-worker-{i}"))
                .spawn(move || worker_loop(st))
        })
        .collect::<io::Result<Vec<_>>>()?;
    // Per-reader channel pairs: completions (workers → reader) and
    // connection handoffs (reader 0 → reader i).
    let mut channels: Vec<ReaderChannels> = (0..n_readers)
        .map(|_| {
            let (completions_tx, completions_rx) = mpsc::channel();
            let (handoff_tx, handoff_rx) = mpsc::channel();
            ReaderChannels {
                completions_tx,
                completions_rx: Some(completions_rx),
                handoff_tx,
                handoff_rx: Some(handoff_rx),
            }
        })
        .collect();
    let handoff_txs: Vec<_> = channels.iter().map(|c| c.handoff_tx.clone()).collect();
    let mut listener = Some(listener);
    let readers = channels
        .iter_mut()
        .enumerate()
        .map(|(i, ch)| {
            let st = Arc::clone(&state);
            let listener = listener.take();
            let handoffs = if i == 0 {
                handoff_txs.clone()
            } else {
                Vec::new()
            };
            let completions_tx = ch.completions_tx.clone();
            let completions_rx = ch.completions_rx.take();
            let handoff_rx = ch.handoff_rx.take();
            thread::Builder::new()
                .name(format!("nestwx-serve-reader-{i}"))
                .spawn(move || {
                    if let (Some(crx), Some(hrx)) = (completions_rx, handoff_rx) {
                        event_loop::run_reader(st, i, listener, handoffs, hrx, completions_tx, crx);
                    }
                })
        })
        .collect::<io::Result<Vec<_>>>()?;
    Ok(ServerHandle {
        addr,
        state,
        readers,
        workers,
    })
}
