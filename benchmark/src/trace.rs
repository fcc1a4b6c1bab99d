//! The harness's own in-memory span recorder.
//!
//! One span per call the harness makes into a layer function:
//! `{name, op, parent, start_ns, end_ns}`. Spans of one operation share
//! `op`; `parent` is the span that caused this one. Everything stays in
//! memory until the run ends, then goes out as Chrome `trace_event` JSON.
//! A span's layer is the part of its name before the first `.`.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span inside its [`Tracer`]; `NONE` for "no parent" and for
/// every span handed out while tracing is off.
pub type SpanId = u32;
pub const NONE: SpanId = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: SpanId,
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            tid: 0,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span. With tracing off this reads no clock and stores
    /// nothing, so the untraced run pays one branch per call site.
    #[inline]
    pub fn begin(&mut self, name: &'static str, op: u64, parent: SpanId) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            tid: self.tid,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as SpanId
    }

    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if id != NONE {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Times `f` under a span.
    #[inline]
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: SpanId,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, op, parent);
        let r = f();
        self.end(id);
        r
    }

    /// Records a child interval the program under test measured itself
    /// (e.g. `PhaseTimings`), placed `offset_ns` after its parent's start
    /// and clipped to its parent's end, so a tree's self times still sum
    /// to its root.
    pub fn child_interval(
        &mut self,
        name: &'static str,
        parent: SpanId,
        offset_ns: u64,
        dur_ns: u64,
    ) {
        if parent == NONE {
            return;
        }
        let p = &self.spans[parent as usize];
        let start_ns = (p.start_ns + offset_ns).min(p.end_ns);
        let (op, tid, end_ns) = (p.op, p.tid, (start_ns + dur_ns).min(p.end_ns));
        self.spans.push(Span {
            name,
            op,
            parent,
            tid,
            start_ns,
            end_ns,
        });
    }

    /// A tracer for another thread of the same run: same clock origin,
    /// its own span list. Fold it back with [`Tracer::merge`].
    pub fn fork(&self, tid: u32) -> Tracer {
        Tracer {
            enabled: self.enabled,
            epoch: self.epoch,
            tid,
            spans: Vec::new(),
        }
    }

    /// Appends a forked tracer's spans; its root spans become children of
    /// `parent`.
    pub fn merge(&mut self, other: Tracer, parent: SpanId) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = if s.parent == NONE {
                parent
            } else {
                s.parent + base
            };
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover (overlapping children are counted once; a child
/// is clipped to its parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NONE {
            let p = &spans[s.parent as usize];
            let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if b > a {
                children[s.parent as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals folded out of a span list.
#[derive(Debug, Default, Clone)]
pub struct NameStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub durs_ns: Vec<u64>,
}

impl NameStats {
    pub fn median_us(&self) -> f64 {
        let mut d = self.durs_ns.clone();
        d.sort_unstable();
        d.get(d.len() / 2).map_or(0.0, |&ns| ns as f64 / 1e3)
    }
}

pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += self_ns;
        e.durs_ns.push(s.dur_ns());
    }
    out
}

/// Self time per layer, in nanoseconds.
pub fn self_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer()).or_insert(0) += self_ns;
    }
    out
}

/// At most this many spans go into the trace file; the rest are counted
/// in its `dropped` field (the per-layer rows always cover every span).
pub const TRACE_FILE_SPANS: usize = 50_000;

/// Chrome `trace_event` JSON for the first [`TRACE_FILE_SPANS`] spans.
pub fn chrome_trace_json(workload: &str, spans: &[Span]) -> String {
    use std::fmt::Write as _;
    let kept = spans.len().min(TRACE_FILE_SPANS);
    let mut s = String::with_capacity(kept * 120 + 128);
    let _ = write!(
        s,
        "{{\"workload\":\"{workload}\",\"spans\":{},\"dropped\":{},\"traceEvents\":[",
        spans.len(),
        spans.len() - kept
    );
    for (i, sp) in spans[..kept].iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let parent = if sp.parent == NONE {
            -1
        } else {
            i64::from(sp.parent)
        };
        let _ = write!(
            s,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"id\":{i},\"op\":{},\"parent\":{parent}}}}}",
            sp.name,
            sp.layer(),
            sp.start_ns as f64 / 1e3,
            sp.dur_ns() as f64 / 1e3,
            sp.tid,
            sp.op,
        );
    }
    s.push_str("]}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 1,
            parent,
            tid: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span("op", NONE, 0, 100),       // 0: root
            span("core.plan", 0, 10, 50),   // 1: child of root
            span("predict.fit", 1, 15, 30), // 2: grandchild
            span("topo.map", 1, 30, 45),    // 3: grandchild, sibling of 2
            span("netsim.run", 0, 60, 90),  // 4: child of root, sibling of 1
        ];
        assert_eq!(self_times(&spans), vec![30, 10, 15, 15, 30]);
        let layers = self_by_layer(&spans);
        assert_eq!(layers["op"], 30);
        assert_eq!(layers["core"], 10);
        assert_eq!(layers["netsim"], 30);
        // Self times of a tree always sum to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped() {
        let spans = vec![
            span("batch", NONE, 0, 100),
            span("serve.rtt", 0, 10, 60), // two client threads overlap
            span("serve.rtt", 0, 40, 80),
            span("serve.rtt", 0, 90, 130), // runs past its parent: clipped
        ];
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("op", 1, NONE);
        t.end(id);
        assert_eq!(t.span("x", 1, id, || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn merge_reparents_forked_roots() {
        let mut t = Tracer::new(true);
        let root = t.begin("batch", 0, NONE);
        let mut f = t.fork(1);
        let a = f.begin("serve.rtt", 5, NONE);
        let b = f.begin("inner", 5, a);
        f.end(b);
        f.end(a);
        t.merge(f, root);
        t.end(root);
        let s = t.spans();
        assert_eq!((s[1].parent, s[2].parent, s[1].tid), (root, 1, 1));
        let (start, end) = (t.spans()[0].start_ns, t.spans()[0].end_ns);
        t.child_interval("miniwrf.parent", root, 5, 10);
        let c = t.spans().last().unwrap();
        assert_eq!((c.parent, c.start_ns), (root, start + 5));
        assert_eq!(c.end_ns, (start + 15).min(end), "clipped to its parent");
        t.child_interval("miniwrf.siblings", root, u64::MAX / 2, 10);
        assert_eq!(t.spans().last().unwrap().dur_ns(), 0);
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let spans = vec![span("op", NONE, 0, 1500), span("core.plan", 0, 100, 900)];
        let v = serde_json::from_str(&chrome_trace_json("w", &spans)).unwrap();
        assert_eq!(v["traceEvents"].as_array().unwrap().len(), 2);
        assert_eq!(v["traceEvents"][1]["cat"].as_str(), Some("core"));
        assert_eq!(v["traceEvents"][1]["args"]["parent"].as_f64(), Some(0.0));
    }
}
