//! Chrome `trace_event` export.
//!
//! Converts recorded [`StepMetrics`] (simulated seconds) into the JSON
//! object format understood by `chrome://tracing` and
//! <https://ui.perfetto.dev>: a `traceEvents` array of complete ("X")
//! events with per-event `args` carrying the step counters.

use crate::{StepMetrics, StepPhase};
use serde::Serialize;

/// Seconds → trace microseconds.
const US_PER_S: f64 = 1e6;

#[derive(Serialize)]
struct EventArgs {
    compute: f64,
    halo_wait: f64,
    bytes: f64,
    messages: u64,
    hops: u64,
    stall: f64,
}

#[derive(Serialize)]
struct Event {
    name: String,
    cat: String,
    ph: String,
    ts: f64,
    dur: f64,
    pid: u32,
    tid: u32,
    args: EventArgs,
}

#[allow(non_snake_case)]
#[derive(Serialize)]
struct TraceFile {
    traceEvents: Vec<Event>,
    displayTimeUnit: String,
}

/// Display name of a step record.
fn step_name(m: &StepMetrics) -> String {
    match (m.phase, m.nest) {
        (StepPhase::Parent, _) => "parent halo step".into(),
        (StepPhase::Nest, n) if n >= 0 => format!("nest {n} halo step"),
        (StepPhase::Nest, _) => format!("nests lockstep halo step ({} domains)", m.domains),
        (StepPhase::Child, n) if n >= 0 => format!("child nest {n} halo step"),
        (StepPhase::Child, _) => format!("children lockstep halo step ({} domains)", m.domains),
        (StepPhase::Io, _) => "history output".into(),
    }
}

/// Lane assignment: parent and I/O on lane 0, lockstep multi-nest steps on
/// lane 1, per-nest steps on `2 + nest`.
fn step_tid(m: &StepMetrics) -> u32 {
    match (m.phase, m.nest) {
        (StepPhase::Parent | StepPhase::Io, _) => 0,
        (_, n) if n >= 0 => 2 + n as u32,
        _ => 1,
    }
}

/// Builds the `chrome://tracing` JSON for the given step records, whose
/// timestamps are simulated seconds (scaled to µs here).
pub(crate) fn chrome_trace_json<'a, I>(steps: I) -> String
where
    I: IntoIterator<Item = &'a StepMetrics>,
{
    let events: Vec<Event> = steps
        .into_iter()
        .map(|m| Event {
            name: step_name(m),
            cat: match m.phase {
                StepPhase::Io => "io".into(),
                _ => "halo".into(),
            },
            ph: "X".into(),
            ts: m.start * US_PER_S,
            dur: (m.end - m.start).max(0.0) * US_PER_S,
            pid: 0,
            tid: step_tid(m),
            args: EventArgs {
                compute: m.compute,
                halo_wait: m.halo_wait,
                bytes: m.bytes,
                messages: m.messages,
                hops: m.hops,
                stall: m.stall,
            },
        })
        .collect();
    let file = TraceFile {
        traceEvents: events,
        displayTimeUnit: "ms".into(),
    };
    serde_json::to_string_pretty(&file).expect("trace serialization cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step() -> StepMetrics {
        StepMetrics {
            step: 1,
            phase: StepPhase::Nest,
            nest: 0,
            domains: 1,
            start: 0.5,
            end: 0.75,
            compute: 0.2,
            halo_wait: 0.05,
            bytes: 1024.0,
            messages: 4,
            transfers: 4,
            hops: 8,
            stall: 0.001,
        }
    }

    #[test]
    fn trace_is_valid_json_with_expected_fields() {
        let s = step();
        let json = chrome_trace_json([&s]);
        let v = serde_json::from_str(&json).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 1);
        let ev = &events[0];
        assert_eq!(ev.get("ph").unwrap().as_str().unwrap(), "X");
        assert_eq!(
            ev.get("name").unwrap().as_str().unwrap(),
            "nest 0 halo step"
        );
        // 0.5 s → 5e5 µs.
        assert_eq!(ev.get("ts").unwrap().as_f64().unwrap(), 5e5);
        assert_eq!(ev.get("tid").unwrap().as_u64().unwrap(), 2);
        let args = ev.get("args").unwrap();
        assert_eq!(args.get("messages").unwrap().as_u64().unwrap(), 4);
    }

    #[test]
    fn io_steps_land_on_lane_zero() {
        let mut s = step();
        s.phase = StepPhase::Io;
        s.nest = -1;
        let json = chrome_trace_json([&s]);
        let v = serde_json::from_str(&json).unwrap();
        let ev = v.get("traceEvents").unwrap().get_index(0).unwrap();
        assert_eq!(ev.get("tid").unwrap().as_u64().unwrap(), 0);
        assert_eq!(ev.get("cat").unwrap().as_str().unwrap(), "io");
    }
}
