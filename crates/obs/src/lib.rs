//! Step-level observability for the `nestwx` workspace (`nestwx-obs`).
//!
//! A near-zero-overhead metrics/tracing facade with two tiers:
//!
//! * **Counter core (always on):** producers accumulate plain counters —
//!   compute seconds, halo-wait seconds, bytes moved, link hops, contention
//!   stalls — and hand the per-step deltas to a [`Recorder`] as
//!   [`StepMetrics`] records. Recording is a handful of adds plus one ring
//!   push per *step* (thousands of messages), so the measured cost (the
//!   ledger's `obs.counter_overhead_pct`) is within run-to-run noise of an
//!   unobserved replay. With no recorder attached the producers skip even
//!   that.
//! * **Span mode (feature `spans`):** named durations ([`SpanEvent`])
//!   are stored and exported alongside the step records. Without the
//!   feature, [`Recorder::span`] compiles to a no-op.
//!
//! Recorded data exports two ways: [`Recorder::summary_json`] (aggregate
//! totals plus per-nest breakdowns) and [`Recorder::chrome_trace_json`]
//! (Chrome `trace_event` JSON for `chrome://tracing` / Perfetto).
//!
//! The facade is deliberately passive: it never feeds back into producer
//! state, so an instrumented simulation produces **bitwise identical**
//! results with observation on or off (enforced by `nestwx-netsim`'s
//! `tests/obs_equivalence.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod clock;
pub mod hist;
pub mod ring;
pub mod serve;
pub mod span;
pub mod timeline;
pub mod trace;

pub use analyze::{AnalysisReport, LinkLoad, LinkUtil, NestAnalysis, NetDetail, RankShare};
pub use hist::{HistSummary, LogHistogram};
pub use ring::StepRing;
pub use serve::{SERVE_SCHEMA, SERVE_VERSION};
pub use span::{SpanEvent, SPANS_ENABLED};
pub use timeline::{FrameMeta, Timeline, TimelineConfig};

use serde::Serialize;
use std::io::Write;
use std::path::Path;

/// Which schedule phase a step record belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum StepPhase {
    /// Parent-domain halo step over the full grid.
    Parent,
    /// Level-1 nest halo step (one nest, or a lockstep multi-nest step).
    Nest,
    /// Second-level child nest halo step.
    Child,
    /// History-output phase (no halo counters).
    Io,
}

/// Counters of one simulated step — the per-step delta of every quantity
/// the paper's time-breakdown tables are built from.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StepMetrics {
    /// Monotone step counter (1-based; unchanged for [`StepPhase::Io`]).
    pub step: u64,
    /// Schedule phase.
    pub phase: StepPhase,
    /// Nest index for single-nest steps, `-1` for the parent, lockstep
    /// multi-nest steps and I/O.
    pub nest: i32,
    /// Domains advanced by this (possibly lockstep) step.
    pub domains: u32,
    /// Seconds when the step began. The network simulator records the
    /// *earliest* readiness among the step's ranks before it runs (a step
    /// starts with its first rank, not its last).
    pub start: f64,
    /// Seconds when the step ended (the simulator: the latest readiness
    /// among those ranks afterwards).
    pub end: f64,
    /// Σ over ranks of compute seconds in this step.
    pub compute: f64,
    /// Σ over ranks of halo MPI_Wait seconds in this step.
    pub halo_wait: f64,
    /// Payload bytes moved.
    pub bytes: f64,
    /// Point-to-point messages sent.
    pub messages: u64,
    /// Aggregate network transfers (a transfer batches the messages of one
    /// neighbour exchange).
    pub transfers: u64,
    /// Torus links traversed.
    pub hops: u64,
    /// Seconds message heads spent queued behind busy links.
    pub stall: f64,
}

impl StepMetrics {
    /// Mean hops per transfer in this step.
    pub fn avg_hops(&self) -> f64 {
        if self.transfers == 0 {
            0.0
        } else {
            self.hops as f64 / self.transfers as f64
        }
    }
}

/// Per-nest aggregate (single-nest steps only; lockstep multi-nest steps
/// cannot be attributed and are excluded).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct NestBreakdown {
    /// Steps recorded for this nest.
    pub steps: u64,
    /// Σ wall-clock (simulated) seconds of those steps.
    pub time: f64,
    /// Σ compute seconds.
    pub compute: f64,
    /// Σ halo MPI_Wait seconds.
    pub halo_wait: f64,
}

/// Whole-run aggregate counters. Unlike the ring, totals always cover
/// every recorded step.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct ObsSummary {
    /// Halo steps recorded (I/O phases excluded).
    pub steps: u64,
    /// Σ compute seconds over ranks and steps.
    pub compute: f64,
    /// Σ halo MPI_Wait seconds — the paper's MPI_Wait metric, rebuilt from
    /// per-step deltas instead of the simulator's internal accumulator.
    pub halo_wait: f64,
    /// Σ payload bytes.
    pub bytes: f64,
    /// Σ point-to-point messages.
    pub messages: u64,
    /// Σ aggregate transfers.
    pub transfers: u64,
    /// Σ torus link hops.
    pub hops: u64,
    /// Σ contention-stall seconds.
    pub stall: f64,
    /// Σ seconds of recorded I/O phases.
    pub io_time: f64,
    /// Per-nest breakdowns, indexed by nest.
    pub per_nest: Vec<NestBreakdown>,
}

impl ObsSummary {
    /// Mean hops per transfer — the paper's "average number of hops"
    /// (Fig. 12b), from recorded metrics.
    pub fn avg_hops(&self) -> f64 {
        if self.transfers == 0 {
            0.0
        } else {
            self.hops as f64 / self.transfers as f64
        }
    }
}

/// Recorder configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Most recent steps kept in the ring buffer (totals always cover the
    /// whole run).
    pub ring_capacity: usize,
    /// Per-rank timeline recording; `None` keeps the counter-only tier.
    pub timeline: Option<TimelineConfig>,
    /// Per-link busy accounting and message-latency histograms in the
    /// network model.
    pub net_detail: bool,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            ring_capacity: 65536,
            timeline: None,
            net_detail: false,
        }
    }
}

impl ObsConfig {
    /// Counter-only configuration (64 Ki most recent steps retained, no
    /// per-rank or per-link detail).
    pub fn counters() -> Self {
        Self::default()
    }

    /// Full detail: counters plus per-rank timelines and per-link network
    /// recording, with default bounds.
    pub fn detailed() -> Self {
        Self::default()
            .with_timeline(TimelineConfig::default())
            .with_net_detail(true)
    }

    /// Retain at most `n` recent steps.
    pub fn with_ring_capacity(mut self, n: usize) -> Self {
        self.ring_capacity = n;
        self
    }

    /// Enables per-rank timeline recording with the given bounds.
    pub fn with_timeline(mut self, cfg: TimelineConfig) -> Self {
        self.timeline = Some(cfg);
        self
    }

    /// Enables or disables per-link network recording.
    pub fn with_net_detail(mut self, on: bool) -> Self {
        self.net_detail = on;
        self
    }
}

/// Collects [`StepMetrics`] into running totals plus a recent-steps ring,
/// optional per-rank timelines and histograms, and (with the `spans`
/// feature) span events.
#[derive(Debug, Clone)]
pub struct Recorder {
    ring: StepRing,
    summary: ObsSummary,
    step_hist: LogHistogram,
    wait_hist: LogHistogram,
    timeline: Option<Timeline>,
    net: Option<NetDetail>,
    last_end: f64,
    #[cfg(feature = "spans")]
    spans: Vec<SpanEvent>,
}

impl Recorder {
    /// A fresh recorder.
    pub fn new(config: ObsConfig) -> Recorder {
        Recorder {
            ring: StepRing::new(config.ring_capacity),
            summary: ObsSummary::default(),
            step_hist: LogHistogram::new(),
            wait_hist: LogHistogram::new(),
            timeline: config.timeline.map(Timeline::new),
            net: None,
            last_end: 0.0,
            #[cfg(feature = "spans")]
            spans: Vec::new(),
        }
    }

    /// Forgets everything recorded (for replaying a simulation).
    pub fn clear(&mut self) {
        self.ring.clear();
        self.summary = ObsSummary::default();
        self.step_hist.clear();
        self.wait_hist.clear();
        if let Some(tl) = &mut self.timeline {
            tl.clear();
        }
        self.net = None;
        self.last_end = 0.0;
        #[cfg(feature = "spans")]
        self.spans.clear();
    }

    /// Records one step's counters.
    pub fn record_step(&mut self, m: StepMetrics) {
        let s = &mut self.summary;
        self.last_end = self.last_end.max(m.end);
        if m.phase == StepPhase::Io {
            s.io_time += m.end - m.start;
        } else {
            self.step_hist.record(m.end - m.start);
            s.steps += 1;
            s.compute += m.compute;
            s.halo_wait += m.halo_wait;
            s.bytes += m.bytes;
            s.messages += m.messages;
            s.transfers += m.transfers;
            s.hops += m.hops;
            s.stall += m.stall;
            if m.nest >= 0 {
                let idx = m.nest as usize;
                if s.per_nest.len() <= idx {
                    s.per_nest.resize(idx + 1, NestBreakdown::default());
                }
                let pn = &mut s.per_nest[idx];
                pn.steps += 1;
                pn.time += m.end - m.start;
                pn.compute += m.compute;
                pn.halo_wait += m.halo_wait;
            }
        }
        self.ring.push(m);
    }

    /// True when per-rank timeline recording is enabled (producers use
    /// this to decide whether to capture per-rank values at all).
    pub fn wants_ranks(&self) -> bool {
        self.timeline.is_some()
    }

    /// Records the per-rank resolution of one step: `active` yields the
    /// participating global ranks, `compute_of`/`wait_of` their compute and
    /// halo-wait seconds. No-op unless the timeline was configured.
    #[allow(clippy::too_many_arguments)]
    pub fn record_rank_step<I, C, W>(
        &mut self,
        nranks: u32,
        step: u64,
        nest: i32,
        start: f64,
        end: f64,
        active: I,
        compute_of: C,
        wait_of: W,
    ) where
        I: IntoIterator<Item = u32> + Clone,
        C: Fn(u32) -> f64,
        W: Fn(u32) -> f64,
    {
        if let Some(tl) = &mut self.timeline {
            for g in active.clone() {
                self.wait_hist.record(wait_of(g));
            }
            tl.record_step(nranks, step, nest, start, end, active, compute_of, wait_of);
        }
    }

    /// Installs the network model's per-link recordings (link busy seconds,
    /// message-latency histogram, torus dims for decoding link ids).
    pub fn set_net_detail(&mut self, net: NetDetail) {
        self.net = Some(net);
    }

    /// Distribution of per-step wall-clock durations (non-I/O steps).
    pub fn hist_step_time(&self) -> &LogHistogram {
        &self.step_hist
    }

    /// Distribution of per-rank halo MPI_Wait seconds (populated only when
    /// the timeline is enabled).
    pub fn hist_rank_wait(&self) -> &LogHistogram {
        &self.wait_hist
    }

    /// The per-rank timeline, when configured.
    pub fn timeline(&self) -> Option<&Timeline> {
        self.timeline.as_ref()
    }

    /// The network model's per-link recordings, when installed.
    pub fn net_detail(&self) -> Option<&NetDetail> {
        self.net.as_ref()
    }

    /// Latest simulated end time seen across all recorded phases.
    pub fn last_end(&self) -> f64 {
        self.last_end
    }

    /// Runs the imbalance / link-utilization analysis over everything
    /// recorded so far.
    pub fn analysis(&self) -> AnalysisReport {
        analyze::compute(
            &self.summary,
            self.timeline.as_ref(),
            self.net.as_ref(),
            self.last_end,
        )
    }

    /// Records a span (no-op unless the `spans` feature is enabled).
    /// `ts_us` / `dur_us` are microseconds on the trace timeline.
    #[inline]
    pub fn span(&mut self, name: &str, tid: u32, ts_us: f64, dur_us: f64) {
        #[cfg(feature = "spans")]
        self.spans.push(SpanEvent {
            name: name.to_owned(),
            ts: ts_us,
            dur: dur_us,
            tid,
        });
        #[cfg(not(feature = "spans"))]
        {
            let _ = (name, tid, ts_us, dur_us);
        }
    }

    /// Span events stored so far (always empty without the `spans`
    /// feature).
    pub fn spans(&self) -> &[SpanEvent] {
        #[cfg(feature = "spans")]
        {
            &self.spans
        }
        #[cfg(not(feature = "spans"))]
        {
            &[]
        }
    }

    /// The retained recent steps, oldest → newest.
    pub fn steps(&self) -> impl Iterator<Item = &StepMetrics> {
        self.ring.iter()
    }

    /// The underlying ring buffer.
    pub fn ring(&self) -> &StepRing {
        &self.ring
    }

    /// Whole-run totals.
    pub fn summary(&self) -> &ObsSummary {
        &self.summary
    }

    /// Everything recorded, as pretty JSON in the versioned
    /// `nestwx-obs-run-summary` envelope (see DESIGN.md "Summary JSON
    /// schema"): whole-run totals, ring retention (including the dropped
    /// count, so truncated traces are detectable), histogram summaries,
    /// timeline shape, and the analysis report.
    pub fn summary_json(&self) -> String {
        let run = RunSummary {
            schema: SUMMARY_SCHEMA.to_owned(),
            version: SUMMARY_VERSION,
            summary: self.summary.clone(),
            ring: RingInfo {
                capacity: self.ring.capacity() as u64,
                retained: self.ring.len() as u64,
                dropped: self.ring.dropped(),
                steps: self.ring.to_vec(),
            },
            hists: HistsOut {
                step_time: self.step_hist.summary(),
                rank_mpi_wait: self.wait_hist.summary(),
                msg_latency: self.net.as_ref().map(|n| n.msg_latency.summary()),
            },
            timeline: self.timeline.as_ref().map(|tl| TimelineInfo {
                nranks: tl.nranks(),
                lanes: tl.lanes(),
                rank_stride: tl.rank_stride(),
                step_stride: tl.step_stride(),
                frames: tl.frames() as u64,
                recorded_steps: tl.recorded_steps(),
                decimations: tl.decimations(),
            }),
            analysis: self.analysis(),
        };
        serde_json::to_string_pretty(&run).expect("summary serialization cannot fail")
    }

    /// The retained steps (plus spans, if stored) as Chrome `trace_event`
    /// JSON for `chrome://tracing`.
    pub fn chrome_trace_json(&self) -> String {
        trace::chrome_trace_json(self.ring.iter(), self.spans())
    }

    /// Writes [`Recorder::chrome_trace_json`] to `path`.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.chrome_trace_json().as_bytes())
    }
}

/// `schema` tag of the summary-JSON envelope.
pub const SUMMARY_SCHEMA: &str = "nestwx-obs-run-summary";
/// Current version of the summary-JSON envelope. Version 1 was the bare
/// [`ObsSummary`] object (PR 2); version 2 wraps it in the envelope.
pub const SUMMARY_VERSION: u64 = 2;

/// `schema` tag of the `nestwx sweep` summary envelope (emitted by
/// `nestwx-sweep`, consumed by `nestwx obs report`).
pub const SWEEP_SCHEMA: &str = "nestwx-obs-sweep-summary";
/// Current version of the sweep summary envelope.
pub const SWEEP_VERSION: u64 = 1;

/// `schema` tag of the fleet summary envelope (emitted by `nestwx-fleet`
/// coordinators, consumed by `nestwx obs report`).
pub const FLEET_SCHEMA: &str = "nestwx-obs-fleet-summary";
/// Current version of the fleet summary envelope.
pub const FLEET_VERSION: u64 = 1;

/// The summary-JSON envelope (what [`Recorder::summary_json`] emits).
#[derive(Debug, Clone, Serialize)]
pub struct RunSummary {
    /// Always [`SUMMARY_SCHEMA`].
    pub schema: String,
    /// Always [`SUMMARY_VERSION`].
    pub version: u64,
    /// Whole-run aggregate counters.
    pub summary: ObsSummary,
    /// Ring retention state and the retained steps.
    pub ring: RingInfo,
    /// Histogram percentile summaries.
    pub hists: HistsOut,
    /// Timeline shape; `null` when timelines were off.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub timeline: Option<TimelineInfo>,
    /// Imbalance / link-utilization analysis.
    pub analysis: AnalysisReport,
}

/// Ring-buffer retention block of the envelope. `dropped > 0` means the
/// retained steps are a truncated suffix of the run.
#[derive(Debug, Clone, Serialize)]
pub struct RingInfo {
    /// Ring capacity.
    pub capacity: u64,
    /// Steps currently retained.
    pub retained: u64,
    /// Steps overwritten (lost) because the ring was full.
    pub dropped: u64,
    /// The retained steps, oldest → newest.
    pub steps: Vec<StepMetrics>,
}

/// Histogram block of the envelope.
#[derive(Debug, Clone, Serialize)]
pub struct HistsOut {
    /// Per-step wall-clock durations (non-I/O steps).
    pub step_time: HistSummary,
    /// Per-rank halo MPI_Wait seconds (zero-count unless timelines were
    /// on).
    pub rank_mpi_wait: HistSummary,
    /// Message injection-to-delivery latency; `null` without net detail.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub msg_latency: Option<HistSummary>,
}

/// Timeline-shape block of the envelope (the columns stay in memory; the
/// JSON carries only the bounds actually reached).
#[derive(Debug, Clone, Serialize)]
pub struct TimelineInfo {
    /// Producer's total rank count.
    pub nranks: u32,
    /// Sampled lanes.
    pub lanes: u32,
    /// Rank sampling stride.
    pub rank_stride: u32,
    /// Recorded steps per frame after decimation.
    pub step_stride: u64,
    /// Frames held.
    pub frames: u64,
    /// Total steps recorded into the timeline.
    pub recorded_steps: u64,
    /// Times the frame buffer was decimated.
    pub decimations: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(step: u64, phase: StepPhase, nest: i32) -> StepMetrics {
        StepMetrics {
            step,
            phase,
            nest,
            domains: 1,
            start: step as f64,
            end: step as f64 + 0.5,
            compute: 1.0,
            halo_wait: 0.25,
            bytes: 100.0,
            messages: 2,
            transfers: 2,
            hops: 6,
            stall: 0.01,
        }
    }

    #[test]
    fn totals_accumulate_and_split_per_nest() {
        let mut rec = Recorder::new(ObsConfig::counters());
        rec.record_step(metrics(1, StepPhase::Parent, -1));
        rec.record_step(metrics(2, StepPhase::Nest, 1));
        rec.record_step(metrics(3, StepPhase::Nest, 1));
        rec.record_step(metrics(3, StepPhase::Io, -1));
        let s = rec.summary();
        assert_eq!(s.steps, 3);
        assert_eq!(s.messages, 6);
        assert_eq!(s.halo_wait, 0.75);
        assert_eq!(s.io_time, 0.5);
        assert_eq!(s.per_nest.len(), 2);
        assert_eq!(s.per_nest[0].steps, 0);
        assert_eq!(s.per_nest[1].steps, 2);
        assert_eq!(s.per_nest[1].halo_wait, 0.5);
        assert_eq!(s.avg_hops(), 3.0);
    }

    #[test]
    fn clear_resets_everything() {
        let mut rec = Recorder::new(ObsConfig::counters());
        rec.record_step(metrics(1, StepPhase::Parent, -1));
        rec.span("x", 0, 0.0, 1.0);
        rec.clear();
        assert_eq!(rec.summary(), &ObsSummary::default());
        assert_eq!(rec.steps().count(), 0);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn summary_json_parses() {
        let mut rec = Recorder::new(ObsConfig::counters());
        rec.record_step(metrics(1, StepPhase::Nest, 0));
        let v = serde_json::from_str(&rec.summary_json()).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str().unwrap(), SUMMARY_SCHEMA);
        assert_eq!(v.get("version").unwrap().as_u64().unwrap(), SUMMARY_VERSION);
        let s = v.get("summary").unwrap();
        assert_eq!(s.get("steps").unwrap().as_u64().unwrap(), 1);
        assert_eq!(s.get("hops").unwrap().as_u64().unwrap(), 6);
        let ring = v.get("ring").unwrap();
        assert_eq!(ring.get("dropped").unwrap().as_u64().unwrap(), 0);
        assert_eq!(ring.get("retained").unwrap().as_u64().unwrap(), 1);
        // Counter-only config: no timeline block, no msg_latency.
        assert!(v.get("timeline").is_none());
        assert!(v.get("hists").unwrap().get("msg_latency").is_none());
        assert!(v.get("analysis").is_some());
    }

    #[test]
    fn summary_json_reports_ring_drops_and_detail_blocks() {
        let mut rec = Recorder::new(ObsConfig::detailed().with_ring_capacity(2));
        for i in 1..=5u64 {
            rec.record_step(metrics(i, StepPhase::Nest, 0));
            rec.record_rank_step(
                4,
                i,
                0,
                i as f64,
                i as f64 + 0.5,
                0..4u32,
                |g| 0.1 * (g + 1) as f64,
                |_| 0.05,
            );
        }
        let v = serde_json::from_str(&rec.summary_json()).unwrap();
        let ring = v.get("ring").unwrap();
        assert_eq!(ring.get("dropped").unwrap().as_u64().unwrap(), 3);
        assert_eq!(ring.get("retained").unwrap().as_u64().unwrap(), 2);
        let tl = v.get("timeline").unwrap();
        assert_eq!(tl.get("nranks").unwrap().as_u64().unwrap(), 4);
        assert_eq!(tl.get("recorded_steps").unwrap().as_u64().unwrap(), 5);
        let hists = v.get("hists").unwrap();
        let wait = hists.get("rank_mpi_wait").unwrap();
        assert_eq!(wait.get("count").unwrap().as_u64().unwrap(), 20);
        let analysis = v.get("analysis").unwrap();
        assert!(analysis.get("overall_imbalance").unwrap().as_f64().unwrap() > 1.0);
    }

    #[test]
    fn span_storage_matches_feature() {
        let mut rec = Recorder::new(ObsConfig::counters());
        rec.span("probe", 3, 10.0, 5.0);
        assert_eq!(rec.spans().len(), usize::from(SPANS_ENABLED));
    }
}
