//! Request-scoped flight recorder.
//!
//! Every request the event loop answers gets a [`RequestSpan`]: lifecycle
//! timestamps (arrival → parse → queue wait → worker/cache work → response
//! queued → socket write-complete) measured through [`nestwx_obs::clock`]
//! and stored in a bounded per-reader [`SpanRing`]. Recording is passive —
//! response bytes are byte-identical with the recorder on or off (enforced
//! by `tests/integration.rs`) — and allocation-free on the hot path: rings
//! are pre-sized at startup and spans are `Copy`.
//!
//! The `trace` protocol endpoint drains all rings into a versioned
//! `nestwx-obs-serve-summary` envelope ([`FlightRecorder::envelope`]),
//! rendered by `nestwx obs report|top|diff` and convertible to Chrome
//! `trace_event` JSON by `nestwx_obs::serve::serve_chrome_trace`.
//!
//! Drop accounting is exact: a ring overwrite bumps the ring's local drop
//! counter under the same lock as the push, and [`SpanRing::drain`] takes
//! both the spans and that counter atomically, so concurrent `trace`
//! drains can never double-count a drop (model-checked in `tests/loom.rs`).

use crate::protocol::Endpoint;
use crate::sync::{lock_unpoisoned, AtomicU64, Mutex, Ordering};
use nestwx_obs::{SERVE_SCHEMA, SERVE_VERSION};
use serde::Serialize;
use std::collections::BTreeMap;

/// Capacity of the slow-request log ring.
const SLOW_CAP: usize = 256;

/// Most spans one `trace` envelope serializes (newest kept). The response
/// is a single protocol line that must stay under
/// [`crate::protocol::MAX_LINE_BYTES`] — clients discard oversized lines —
/// so the span arrays are capped at serialization time and the summary
/// reports how many drained spans were omitted (`spans_truncated`).
/// Worst-case span ≈ 200 bytes: (192 + 32) × 200 ≈ 45 KiB, comfortably
/// under the 64 KiB line cap with the summary block and response wrapper.
pub const ENVELOPE_SPANS_MAX: usize = 192;

/// Most slow-log entries one `trace` envelope serializes (newest kept).
pub const ENVELOPE_SLOW_MAX: usize = 32;

/// Saturates a duration into span microseconds (`u32` ≈ 71 minutes, far
/// beyond any request deadline).
pub(crate) fn dur_us(d: std::time::Duration) -> u32 {
    d.as_micros().min(u32::MAX as u128) as u32
}

/// Which lifecycle path answered the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanPath {
    /// Raw-line hot-cache hit: answered by the reader without JSON parsing.
    Hot,
    /// Answered inline by the reader (control endpoints, cache hits on the
    /// slow path, rate sheds, scenario rejections, overload responses).
    Inline,
    /// Full round-trip through the worker pool.
    Worker,
    /// Expired by the reader's deadline sweep before a worker answered.
    Deadline,
}

impl SpanPath {
    /// Wire name of the path (stable envelope vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            SpanPath::Hot => "hot",
            SpanPath::Inline => "inline",
            SpanPath::Worker => "worker",
            SpanPath::Deadline => "deadline",
        }
    }
}

/// One request's lifecycle record. All durations are microseconds,
/// saturated into `u32` (~71 minutes — far beyond any deadline cap);
/// `ts_us` is the arrival time on the server-epoch microsecond timeline.
#[derive(Debug, Clone, Copy)]
pub struct RequestSpan {
    /// Arrival time (µs since the server epoch).
    pub ts_us: u64,
    /// Endpoint that handled the request.
    pub endpoint: Endpoint,
    /// Which lifecycle path answered it.
    pub path: SpanPath,
    /// Whether the response was an `ok` response.
    pub ok: bool,
    /// Time spent parsing the request line (0 on the hot path).
    pub parse_us: u32,
    /// Queue wait: submit → worker claim (0 for inline paths).
    pub wait_us: u32,
    /// Compute/render time (worker compute, or inline render).
    pub work_us: u32,
    /// Arrival → response queued on the connection.
    pub total_us: u32,
    /// Response queued → socket write observed complete (0 if the
    /// connection died first; see `written`).
    pub write_us: u32,
    /// Whether the write-complete edge was observed before the
    /// connection went away.
    pub written: bool,
}

impl RequestSpan {
    /// A span whose response has just been queued: stages as measured,
    /// write edge not yet observed.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn queued(
        ts_us: u64,
        endpoint: Endpoint,
        path: SpanPath,
        ok: bool,
        parse_us: u32,
        wait_us: u32,
        work_us: u32,
        total_us: u32,
    ) -> Self {
        RequestSpan {
            ts_us,
            endpoint,
            path,
            ok,
            parse_us,
            wait_us,
            work_us,
            total_us,
            write_us: 0,
            written: false,
        }
    }

    /// A minimal span for tests and model checking.
    pub fn probe(ts_us: u64) -> Self {
        RequestSpan {
            ts_us,
            endpoint: Endpoint::Stats,
            path: SpanPath::Inline,
            ok: true,
            parse_us: 0,
            wait_us: 0,
            work_us: 0,
            total_us: 0,
            write_us: 0,
            written: true,
        }
    }
}

struct RingInner {
    buf: Vec<RequestSpan>,
    head: usize,
    dropped: u64,
}

/// Bounded span ring. One per reader thread plus one slow-request log;
/// pushes overwrite the oldest entry once full and count the drop under
/// the same lock, so push/drain interleavings keep `spans seen + drops
/// reported == pushes` exact.
pub struct SpanRing {
    cap: usize,
    inner: Mutex<RingInner>,
}

impl SpanRing {
    /// A ring holding at most `cap` spans (clamped to ≥ 1). The buffer is
    /// pre-allocated here so the request path never allocates.
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        SpanRing {
            cap,
            inner: Mutex::new(RingInner {
                buf: Vec::with_capacity(cap),
                head: 0,
                dropped: 0,
            }),
        }
    }

    /// Pushes a span, overwriting (and drop-counting) the oldest entry if
    /// the ring is full. Returns `true` if a span was dropped.
    pub fn push(&self, span: RequestSpan) -> bool {
        let mut g = lock_unpoisoned(&self.inner);
        if g.buf.len() < self.cap {
            g.buf.push(span);
            false
        } else {
            let head = g.head;
            g.buf[head] = span;
            g.head = (head + 1) % self.cap;
            g.dropped += 1;
            true
        }
    }

    /// Takes every buffered span (oldest first) together with the number
    /// of drops since the last drain, and resets both. The two are read
    /// and cleared under one lock acquisition: concurrent drains partition
    /// the spans and the drop count exactly, never duplicating either.
    pub fn drain(&self) -> (Vec<RequestSpan>, u64) {
        let mut g = lock_unpoisoned(&self.inner);
        let head = g.head;
        let mut out = Vec::with_capacity(g.buf.len());
        out.extend_from_slice(&g.buf[head..]);
        out.extend_from_slice(&g.buf[..head]);
        g.buf.clear();
        g.head = 0;
        let dropped = g.dropped;
        g.dropped = 0;
        (out, dropped)
    }

    /// Number of spans currently buffered.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.inner).buf.len()
    }

    /// Whether the ring holds no spans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Counter snapshot of the recorder, embedded in the `stats` envelope.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct FlightStats {
    /// Whether recording is enabled (`NESTWX_SERVE_TRACE`).
    pub recording: bool,
    /// Number of per-reader rings.
    pub rings: u64,
    /// Capacity of each per-reader ring.
    pub ring_capacity: u64,
    /// Spans recorded since startup (cumulative, survives drains).
    pub recorded: u64,
    /// Spans dropped to ring overwrites since startup (cumulative).
    pub dropped: u64,
    /// Spans above the slow threshold since startup (cumulative).
    pub slow_total: u64,
    /// Slow-log latency threshold in µs (0 = slow log off).
    pub slow_threshold_us: u64,
}

/// Everything one drain produced.
pub struct Drained {
    /// All buffered spans across readers, ordered by arrival time.
    pub spans: Vec<RequestSpan>,
    /// The slow-request log (spans whose total latency crossed the
    /// threshold), oldest first.
    pub slow: Vec<RequestSpan>,
    /// Ring drops since the previous drain.
    pub dropped: u64,
}

/// The serve-side flight recorder: per-reader span rings, a slow-request
/// log, and cumulative counters. Shared via `ServerState`; readers record
/// into their own ring (index = reader id) so the hot path contends only
/// with `trace` drains.
pub struct FlightRecorder {
    enabled: bool,
    slow_us: u64,
    ring_cap: usize,
    rings: Vec<SpanRing>,
    slow: SpanRing,
    recorded: AtomicU64,
    dropped_total: AtomicU64,
    slow_total: AtomicU64,
}

impl FlightRecorder {
    /// A recorder with one ring of `ring_cap` spans per reader. `slow_us`
    /// of 0 disables the slow-request log.
    pub fn new(enabled: bool, readers: usize, ring_cap: usize, slow_us: u64) -> Self {
        let readers = readers.max(1);
        FlightRecorder {
            enabled,
            slow_us,
            ring_cap: ring_cap.max(1),
            rings: (0..readers).map(|_| SpanRing::new(ring_cap)).collect(),
            slow: SpanRing::new(SLOW_CAP),
            recorded: AtomicU64::new(0),
            dropped_total: AtomicU64::new(0),
            slow_total: AtomicU64::new(0),
        }
    }

    /// Whether spans should be built at all (checked before any clock
    /// reads on the request path).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records one finished span into reader `reader`'s ring. No-op when
    /// recording is disabled.
    pub fn record(&self, reader: usize, span: RequestSpan) {
        if !self.enabled {
            return;
        }
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let ring = &self.rings[reader % self.rings.len()];
        if ring.push(span) {
            self.dropped_total.fetch_add(1, Ordering::Relaxed);
        }
        if self.slow_us > 0 && u64::from(span.total_us) >= self.slow_us {
            self.slow_total.fetch_add(1, Ordering::Relaxed);
            self.slow.push(span);
        }
    }

    /// Drains every reader ring (merged oldest-first) and the slow log.
    pub fn drain(&self) -> Drained {
        let mut spans = Vec::new();
        let mut dropped = 0u64;
        for ring in &self.rings {
            let (mut part, d) = ring.drain();
            spans.append(&mut part);
            dropped += d;
        }
        spans.sort_by_key(|s| s.ts_us);
        let (slow, _) = self.slow.drain();
        Drained {
            spans,
            slow,
            dropped,
        }
    }

    /// Cumulative counter snapshot for the `stats` envelope.
    pub fn stats(&self) -> FlightStats {
        FlightStats {
            recording: self.enabled,
            rings: self.rings.len() as u64,
            ring_capacity: self.ring_cap as u64,
            recorded: self.recorded.load(Ordering::Relaxed),
            dropped: self.dropped_total.load(Ordering::Relaxed),
            slow_total: self.slow_total.load(Ordering::Relaxed),
            slow_threshold_us: self.slow_us,
        }
    }

    /// Drains the recorder into the versioned `nestwx-obs-serve-summary`
    /// envelope served by the `trace` endpoint.
    pub fn envelope(&self) -> TraceEnvelope {
        let d = self.drain();
        let mut by_path = PathCounts {
            hot: 0,
            inline: 0,
            worker: 0,
            deadline: 0,
        };
        let mut by_op: BTreeMap<&'static str, u64> = BTreeMap::new();
        for e in Endpoint::ALL {
            by_op.insert(e.name(), 0);
        }
        for s in &d.spans {
            match s.path {
                SpanPath::Hot => by_path.hot += 1,
                SpanPath::Inline => by_path.inline += 1,
                SpanPath::Worker => by_path.worker += 1,
                SpanPath::Deadline => by_path.deadline += 1,
            }
            if let Some(n) = by_op.get_mut(s.endpoint.name()) {
                *n += 1;
            }
        }
        let stats = self.stats();
        // The envelope is one protocol line: serialize only the newest
        // spans so the response always fits MAX_LINE_BYTES, and say how
        // many were cut. The by_path/by_op aggregates above still cover
        // every drained span — only the sample arrays are bounded.
        let spans_cut = d.spans.len().saturating_sub(ENVELOPE_SPANS_MAX);
        let slow_cut = d.slow.len().saturating_sub(ENVELOPE_SLOW_MAX);
        TraceEnvelope {
            schema: SERVE_SCHEMA,
            version: SERVE_VERSION,
            summary: TraceSummary {
                recording: stats.recording,
                readers: stats.rings,
                ring_capacity: stats.ring_capacity,
                drained: d.spans.len() as u64,
                dropped: d.dropped,
                recorded_total: stats.recorded,
                dropped_total: stats.dropped,
                slow_total: stats.slow_total,
                slow_threshold_us: stats.slow_threshold_us,
                spans_truncated: spans_cut as u64,
                slow_truncated: slow_cut as u64,
                by_path,
                by_op,
            },
            spans: d.spans[spans_cut..]
                .iter()
                .map(SpanOut::from_span)
                .collect(),
            slow: d.slow[slow_cut..].iter().map(SpanOut::from_span).collect(),
        }
    }
}

/// Span counts per lifecycle path in one drain.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct PathCounts {
    /// Raw-line hot-cache hits.
    pub hot: u64,
    /// Inline reader responses.
    pub inline: u64,
    /// Worker round-trips.
    pub worker: u64,
    /// Deadline-sweep expiries.
    pub deadline: u64,
}

/// Aggregate block of the serve-summary envelope.
#[derive(Debug, Clone, Serialize)]
pub struct TraceSummary {
    /// Whether recording is enabled.
    pub recording: bool,
    /// Number of per-reader rings.
    pub readers: u64,
    /// Capacity of each per-reader ring.
    pub ring_capacity: u64,
    /// Spans returned by this drain.
    pub drained: u64,
    /// Ring drops since the previous drain.
    pub dropped: u64,
    /// Cumulative spans recorded since startup.
    pub recorded_total: u64,
    /// Cumulative ring drops since startup.
    pub dropped_total: u64,
    /// Cumulative slow-threshold crossings since startup.
    pub slow_total: u64,
    /// Slow-log threshold in µs (0 = off).
    pub slow_threshold_us: u64,
    /// Drained spans omitted from the `spans` array to keep the response
    /// under the protocol line cap (the oldest are cut; `by_path`/`by_op`
    /// still count every drained span).
    pub spans_truncated: u64,
    /// Slow-log entries omitted from the `slow` array, same rule.
    pub slow_truncated: u64,
    /// Drained span counts by lifecycle path.
    pub by_path: PathCounts,
    /// Drained span counts by endpoint.
    pub by_op: BTreeMap<&'static str, u64>,
}

/// One span as serialized into the envelope.
#[derive(Debug, Clone, Serialize)]
pub struct SpanOut {
    /// Arrival time (µs since server epoch).
    pub ts_us: u64,
    /// Endpoint name.
    pub op: &'static str,
    /// Lifecycle path name.
    pub path: &'static str,
    /// Whether the response was `ok`.
    pub ok: bool,
    /// Parse time (µs).
    pub parse_us: u32,
    /// Queue wait (µs).
    pub wait_us: u32,
    /// Compute/render time (µs).
    pub work_us: u32,
    /// Arrival → response queued (µs).
    pub total_us: u32,
    /// Response queued → write complete (µs).
    pub write_us: u32,
    /// Whether write-complete was observed.
    pub written: bool,
}

impl SpanOut {
    fn from_span(s: &RequestSpan) -> Self {
        SpanOut {
            ts_us: s.ts_us,
            op: s.endpoint.name(),
            path: s.path.name(),
            ok: s.ok,
            parse_us: s.parse_us,
            wait_us: s.wait_us,
            work_us: s.work_us,
            total_us: s.total_us,
            write_us: s.write_us,
            written: s.written,
        }
    }
}

/// The full `trace` response document (schema `nestwx-obs-serve-summary`).
#[derive(Debug, Clone, Serialize)]
pub struct TraceEnvelope {
    /// Always [`SERVE_SCHEMA`].
    pub schema: &'static str,
    /// Always [`SERVE_VERSION`].
    pub version: u64,
    /// Aggregate counters for this drain.
    pub summary: TraceSummary,
    /// Drained spans, ordered by arrival time — at most
    /// [`ENVELOPE_SPANS_MAX`], newest kept (see `summary.spans_truncated`).
    pub spans: Vec<SpanOut>,
    /// Slow-request log entries — at most [`ENVELOPE_SLOW_MAX`], newest
    /// kept (see `summary.slow_truncated`).
    pub slow: Vec<SpanOut>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wraps_and_counts_drops() {
        let ring = SpanRing::new(3);
        for ts in 0..3 {
            assert!(!ring.push(RequestSpan::probe(ts)));
        }
        // Fourth push evicts ts=0.
        assert!(ring.push(RequestSpan::probe(3)));
        let (spans, dropped) = ring.drain();
        assert_eq!(dropped, 1);
        let ts: Vec<u64> = spans.iter().map(|s| s.ts_us).collect();
        assert_eq!(ts, vec![1, 2, 3]);
        // Drain resets both the buffer and the drop counter.
        let (spans, dropped) = ring.drain();
        assert!(spans.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn ring_preserves_arrival_order_across_wrap() {
        let ring = SpanRing::new(4);
        for ts in 0..10 {
            ring.push(RequestSpan::probe(ts));
        }
        let (spans, dropped) = ring.drain();
        assert_eq!(dropped, 6);
        let ts: Vec<u64> = spans.iter().map(|s| s.ts_us).collect();
        assert_eq!(ts, vec![6, 7, 8, 9]);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = FlightRecorder::new(false, 2, 16, 0);
        rec.record(0, RequestSpan::probe(1));
        assert_eq!(rec.stats().recorded, 0);
        assert!(rec.drain().spans.is_empty());
    }

    #[test]
    fn recorder_merges_rings_in_arrival_order() {
        let rec = FlightRecorder::new(true, 2, 16, 0);
        rec.record(0, RequestSpan::probe(5));
        rec.record(1, RequestSpan::probe(2));
        rec.record(0, RequestSpan::probe(9));
        let d = rec.drain();
        let ts: Vec<u64> = d.spans.iter().map(|s| s.ts_us).collect();
        assert_eq!(ts, vec![2, 5, 9]);
        assert_eq!(d.dropped, 0);
        let stats = rec.stats();
        assert_eq!(stats.recorded, 3);
        assert_eq!(stats.dropped, 0);
    }

    #[test]
    fn slow_log_captures_threshold_crossers() {
        let rec = FlightRecorder::new(true, 1, 16, 100);
        let mut fast = RequestSpan::probe(1);
        fast.total_us = 99;
        let mut slow = RequestSpan::probe(2);
        slow.total_us = 100;
        rec.record(0, fast);
        rec.record(0, slow);
        let d = rec.drain();
        assert_eq!(d.spans.len(), 2);
        assert_eq!(d.slow.len(), 1);
        assert_eq!(d.slow[0].ts_us, 2);
        assert_eq!(rec.stats().slow_total, 1);
    }

    #[test]
    fn envelope_counts_paths_and_ops() {
        let rec = FlightRecorder::new(true, 1, 16, 0);
        let mut hot = RequestSpan::probe(1);
        hot.path = SpanPath::Hot;
        hot.endpoint = Endpoint::Plan;
        let mut worker = RequestSpan::probe(2);
        worker.path = SpanPath::Worker;
        worker.endpoint = Endpoint::Plan;
        rec.record(0, hot);
        rec.record(0, worker);
        let env = rec.envelope();
        assert_eq!(env.schema, nestwx_obs::SERVE_SCHEMA);
        assert_eq!(env.version, nestwx_obs::SERVE_VERSION);
        assert_eq!(env.summary.drained, 2);
        assert_eq!(env.summary.by_path.hot, 1);
        assert_eq!(env.summary.by_path.worker, 1);
        assert_eq!(env.summary.by_op["plan"], 2);
        assert_eq!(env.summary.by_op["predict"], 0);
        assert_eq!(env.spans.len(), 2);
        assert_eq!(env.spans[0].path, "hot");
        // A second drain starts empty but keeps cumulative counters.
        let env = rec.envelope();
        assert_eq!(env.summary.drained, 0);
        assert_eq!(env.summary.recorded_total, 2);
    }

    #[test]
    fn envelope_truncates_to_newest_and_counts_the_cut() {
        let rec = FlightRecorder::new(true, 1, ENVELOPE_SPANS_MAX + 50, 1);
        for ts in 0..(ENVELOPE_SPANS_MAX as u64 + 50) {
            let mut s = RequestSpan::probe(ts);
            s.total_us = 1; // everything crosses the slow threshold too
            rec.record(0, s);
        }
        let env = rec.envelope();
        assert_eq!(env.summary.drained, ENVELOPE_SPANS_MAX as u64 + 50);
        assert_eq!(env.summary.spans_truncated, 50);
        assert_eq!(env.spans.len(), ENVELOPE_SPANS_MAX);
        // The newest spans survive the cut.
        assert_eq!(env.spans[0].ts_us, 50);
        assert_eq!(
            env.spans.last().unwrap().ts_us,
            ENVELOPE_SPANS_MAX as u64 + 49
        );
        // Slow log: all 242 spans crossed the threshold (under SLOW_CAP),
        // and the envelope keeps the newest ENVELOPE_SLOW_MAX of them.
        assert_eq!(env.slow.len(), ENVELOPE_SLOW_MAX);
        assert_eq!(
            env.summary.slow_truncated,
            (ENVELOPE_SPANS_MAX + 50 - ENVELOPE_SLOW_MAX) as u64
        );
        // Aggregates still cover every drained span.
        assert_eq!(env.summary.by_path.inline, ENVELOPE_SPANS_MAX as u64 + 50);
    }

    /// The `trace` response is one protocol line; clients drop oversized
    /// lines on the floor, so a worst-case envelope must stay under
    /// [`crate::protocol::MAX_LINE_BYTES`] with room for the response
    /// wrapper.
    #[test]
    fn worst_case_envelope_fits_one_protocol_line() {
        let rec = FlightRecorder::new(true, 4, 4096, 1);
        for i in 0..(4 * 4096u64 + SLOW_CAP as u64) {
            let span = RequestSpan {
                ts_us: u64::MAX,
                endpoint: Endpoint::Compare,
                path: SpanPath::Deadline,
                ok: false,
                parse_us: u32::MAX,
                wait_us: u32::MAX,
                work_us: u32::MAX,
                total_us: u32::MAX,
                write_us: u32::MAX,
                written: false,
            };
            rec.record((i % 4) as usize, span);
        }
        let json = serde_json::to_string(&rec.envelope()).expect("serialize");
        assert!(
            json.len() + 1024 < crate::protocol::MAX_LINE_BYTES,
            "worst-case trace envelope is {} bytes — too close to the {}-byte line cap",
            json.len(),
            crate::protocol::MAX_LINE_BYTES
        );
    }
}
