//! The eight workloads and the loop that measures any of them.
//!
//! Run shape (every workload, closed loop): set-up [`SETUP_REPS`] times,
//! each ending in one discarded warm-up batch (median → `setup_s`), then
//! equal batches until `--seconds` is spent. A batch has fixed,
//! seed-determined content, so digests and exact counters repeat whatever
//! the run length; how many batches fit is the only thing time decides.
//!
//! How a run's batches become one number — see [`summarise`]. The box
//! this ledger was built on slows down by 15–30 % for seconds at a time
//! (other tenants; interference only ever slows a batch, never speeds it
//! up), so the end-to-end metrics read the *quiet* side of the per-batch
//! distribution rather than its middle. README.md has the measurements
//! behind that choice.

pub mod fleet;
pub mod miniwrf;
pub mod netsim;
pub mod plan_cold;
pub mod serve;
pub mod sweep;

use crate::spec::{self, WorkloadSpec};
use crate::stats;
use crate::sys;
use crate::trace::{self, Tracer, NONE};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The seed the planner profiles with when it fits a predictor on demand,
/// and the server when it fits one per machine (a literal in
/// `core/src/planner.rs`, `PROFILE_SEED` in `serve/src/server.rs`; equal by
/// design, so served plans are byte-identical to directly computed ones).
pub const PROFILE_SEED: u64 = 0xBEEF;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// A run measures at least this many batches, however short `--seconds`.
const MIN_BATCHES: usize = 3;

pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Multiplies every per-batch op count (`--smoke` runs at 0.1).
    pub scale: f64,
}

impl Args {
    /// `n` ops scaled for this run, never below `min`.
    pub fn scaled(&self, n: usize, min: usize) -> usize {
        ((n as f64 * self.scale).round() as usize).max(min)
    }
}

/// What one timed batch did.
#[derive(Debug, Default, Clone, Copy)]
pub struct Batch {
    /// Ops counted by `ops_per_s`, and the wall seconds they took.
    pub ops: u64,
    pub secs: f64,
    /// Ops of a batch's latency phase that `ops_per_s` does not count
    /// (depth-1 round trips of `serve_hot`).
    pub other_ops: u64,
    /// Ops that errored, were refused, or failed a check.
    pub failed: u64,
}

/// Checks made outside the timed loop.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Per-layer metric values of a traced run. Starts with every declared
/// metric at 0, so a layer the workload never enters reads 0.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn new() -> Layers {
        Layers(spec::PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("per-layer metric {name} is not declared in spec.rs"));
        *slot = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

pub trait Workload: Sized {
    /// Builds the inputs from the seed and the system under test around
    /// them (server spawned, predictors fitted, plan compiled, model
    /// built). Timed as `setup_s`.
    fn setup(args: &Args) -> Result<Self, String>;

    /// Drops an instance that will not be measured (the extra set-up
    /// repetitions), reporting anything that did not shut down cleanly.
    fn discard(self) -> Result<(), String> {
        Ok(())
    }

    /// One batch. Latency samples (µs) go into `samples`; spans, when the
    /// tracer is on, hang under `parent`.
    fn batch(&mut self, tr: &mut Tracer, parent: trace::SpanId, samples: &mut Vec<f64>) -> Batch;

    /// Traced run only: times single layer functions on this workload's
    /// inputs and reads the counters the public APIs return. `traced`
    /// holds the per-name span statistics of the traced batches.
    fn probe(&mut self, layers: &mut Layers, traced: &Traced, budget: Duration);

    /// Checks after the last batch; consumes the instance (drains servers).
    fn finish(self, checks: &mut Checks);

    /// The effective configuration, echoed into the output.
    fn config(&self) -> Vec<(&'static str, String)>;
}

/// What the traced batches produced, handed to [`Workload::probe`].
pub struct Traced {
    pub by_name: BTreeMap<&'static str, trace::NameStats>,
    pub ops: u64,
    pub latency_p50_us: f64,
}

impl Traced {
    pub fn median_us(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, trace::NameStats::median_us)
    }

    pub fn count(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |s| s.count)
    }
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines: spreads, sample counts, effective config.
    pub notes: Vec<String>,
}

/// One measured batch.
struct Measured {
    batch: Batch,
    /// Process CPU seconds the batch used.
    cpu_s: f64,
    /// Its latency samples (µs).
    samples: Vec<f64>,
}

impl Measured {
    fn rate(&self) -> f64 {
        self.batch.ops as f64 / self.batch.secs.max(1e-9)
    }
}

/// Runs batches until `seconds` is spent (at least `min` of them).
fn run_batches<W: Workload>(w: &mut W, tr: &mut Tracer, seconds: f64, min: usize) -> Vec<Measured> {
    let mut out: Vec<Measured> = Vec::new();
    let started = Instant::now();
    loop {
        let mut samples = Vec::new();
        let cpu0 = sys::cpu_seconds();
        let root = tr.begin("harness.batch", out.len() as u64, NONE);
        let batch = w.batch(tr, root, &mut samples);
        tr.end(root);
        out.push(Measured {
            batch,
            cpu_s: sys::cpu_seconds() - cpu0,
            samples,
        });
        let elapsed = started.elapsed().as_secs_f64();
        // Stop when the next batch would overshoot by more than it adds.
        let per_batch = elapsed / out.len() as f64;
        if out.len() >= min && elapsed + per_batch / 2.0 >= seconds {
            return out;
        }
    }
}

/// The end-to-end numbers of one run.
struct Summary {
    ops_per_s: f64,
    op_p50_us: f64,
    op_p90_us: f64,
    cpu_us_per_op: f64,
    /// Samples the tail was read from, and the percentile actually read
    /// (below p90 only when a run is too short to have ten samples beyond).
    tail_samples: usize,
    tail_q: f64,
    /// Batches set aside as a faster regime (see [`summarise`]).
    fast_regime: usize,
}

/// The tail percentile every workload reports. p99 is printed beside it
/// where there are samples enough, but not gated: on this box it moved
/// 10–16 % between quiet runs of the same code (p90: under 4 %).
const TAIL: f64 = 0.90;

/// Share of a run's batches counted as its quiet side. A tenth read
/// steadier still under interference, but `serve_hot` now and then spends
/// a streak of batches (7 of 40 seen) in a faster scheduling regime —
/// 11.7 µs per round trip instead of 28 µs — and a tenth is few enough
/// for such a streak to become the reported number.
const QUIET_SHARE: f64 = 0.20;

/// Folds a run's batches into its end-to-end numbers, reading the quiet
/// side of the per-batch distribution:
///
/// - `ops_per_s`: the 80th percentile of the per-batch rates;
/// - `op_p50_us`: the 20th percentile of the per-batch median latencies;
/// - `op_p90_us`: the 90th percentile of the samples of the quiet half —
///   the batches at or above the median batch rate;
/// - `cpu_us_per_op`: CPU seconds over ops, both summed over that half.
fn summarise(batches: &[Measured]) -> Summary {
    let mut rates: Vec<f64> = batches.iter().map(Measured::rate).collect();
    rates.sort_by(f64::total_cmp);
    let mut p50s: Vec<f64> = batches
        .iter()
        .filter(|b| !b.samples.is_empty())
        .map(|b| stats::median(&b.samples))
        .collect();
    p50s.sort_by(f64::total_cmp);
    // A batch whose median is under half the run's is in another regime,
    // not a quieter one (`serve_hot` round trips take 11.7 µs instead of
    // 28 µs for streaks of batches when the scheduler happens to keep
    // client and reader on separate cores). Such streaks are set aside;
    // if a change makes that regime the usual one, the run's median moves
    // with it and nothing is set aside.
    let regime_floor = 0.5 * stats::quantile_sorted(&p50s, 0.50);
    let fast_regime = p50s.partition_point(|&p| p < regime_floor);
    let p50s = &p50s[fast_regime..];
    let median_rate = stats::quantile_sorted(&rates, 0.50);
    let quiet = || batches.iter().filter(|b| b.rate() >= median_rate);
    let mut quiet_samples: Vec<f64> = quiet().flat_map(|b| b.samples.iter().copied()).collect();
    let lat = stats::latency(&mut quiet_samples, TAIL);
    let quiet_ops: u64 = quiet().map(|b| b.batch.ops).sum();
    let quiet_cpu: f64 = quiet().map(|b| b.cpu_s).sum();
    Summary {
        ops_per_s: stats::quantile_sorted(&rates, 1.0 - QUIET_SHARE),
        op_p50_us: stats::quantile_sorted(p50s, QUIET_SHARE),
        fast_regime,
        op_p90_us: lat.tail,
        cpu_us_per_op: quiet_cpu * 1e6 / quiet_ops.max(1) as f64,
        tail_samples: lat.count,
        tail_q: lat.tail_q,
    }
}

fn totals(batches: &[Measured]) -> (u64, u64) {
    batches.iter().fold((0, 0), |(attempted, failed), m| {
        (
            attempted + m.batch.ops + m.batch.other_ops,
            failed + m.batch.failed,
        )
    })
}

pub fn run<W: Workload>(ws: &'static WorkloadSpec, args: &Args) -> Result<Outcome, String> {
    let mut notes = Vec::new();
    let mut checks = Checks::default();

    // Set-up, several times: the median is the metric, the last instance
    // is the one measured. A set-up ends with one discarded warm-up batch,
    // so caches are full and lazy initialisation is done before timing —
    // and so `setup_s` is long enough to read steadily.
    let mut tr = Tracer::new(false);
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut instance = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = instance.take() {
            let discarded = W::discard(old);
            checks.check(discarded.is_ok(), || {
                format!("set-up instance did not shut down cleanly: {discarded:?}")
            });
        }
        let t0 = Instant::now();
        let mut w = W::setup(args)?;
        let warm = w.batch(&mut tr, NONE, &mut Vec::new());
        setup_times.push(t0.elapsed().as_secs_f64());
        checks.check(warm.failed == 0, || {
            format!("warm-up batch had {} failed ops", warm.failed)
        });
        instance = Some(w);
    }
    let mut w = instance.expect("SETUP_REPS > 0");
    let setup_s = stats::median(&setup_times);
    let (setup_min, setup_max) = stats::min_max(&setup_times);
    notes.push(format!(
        "setup_s median {setup_s:.4} min {setup_min:.4} max {setup_max:.4} over {SETUP_REPS} set-ups (each ends with a warm-up batch)"
    ));
    for (k, v) in w.config() {
        notes.push(format!("config {k} = {v}"));
    }

    let mut metrics = Vec::new();
    let (mut attempted, mut failed);
    if !args.trace {
        let batches = run_batches(&mut w, &mut tr, args.seconds, MIN_BATCHES);
        (attempted, failed) = totals(&batches);
        let s = summarise(&batches);

        // The whole distribution, for the reader: the quiet-side numbers
        // above are only worth trusting next to the middle they left.
        let rates: Vec<f64> = batches.iter().map(Measured::rate).collect();
        let (rate_min, rate_max) = stats::min_max(&rates);
        notes.push(format!(
            "batch rates: p80 {:.2} (= ops_per_s) median {:.2} min {rate_min:.2} max {rate_max:.2} over {} batches",
            s.ops_per_s,
            stats::median(&rates),
            rates.len()
        ));
        notes.push(format!(
            "per-batch rates: {}",
            rates
                .iter()
                .map(|r| format!("{r:.0}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        notes.push(format!(
            "per-batch p50_us: {}",
            batches
                .iter()
                .map(|b| format!("{:.1}", stats::median(&b.samples)))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        let mut pooled: Vec<f64> = batches
            .iter()
            .flat_map(|b| b.samples.iter().copied())
            .collect();
        let all = stats::latency(&mut pooled, 0.99);
        notes.push(format!(
            "latency, every sample pooled: p50 {:.2} us p{:.0} {:.2} us max {:.2} us over {} samples",
            all.p50, all.tail_q * 100.0, all.tail, all.max, all.count
        ));
        notes.push(format!(
            "latency, quiet side: p50 {:.2} us (20th percentile of batch medians), p{:.0} {:.2} us over the {} samples of the quiet half",
            s.op_p50_us, s.tail_q * 100.0, s.op_p90_us, s.tail_samples
        ));
        if s.fast_regime > 0 {
            notes.push(format!(
                "{} batches ran in a faster regime (median latency under half the run's) and were set aside for op_p50_us",
                s.fast_regime
            ));
        }
        if s.tail_q < TAIL {
            notes.push(format!(
                "warning: too few samples for p90; op_p90_us fell back to p{:.0}",
                s.tail_q * 100.0
            ));
        }
        let cpu_all: f64 = batches.iter().map(|b| b.cpu_s).sum();
        let ops_all: u64 = batches.iter().map(|b| b.batch.ops).sum();
        notes.push(format!(
            "cpu_us_per_op (not an end-to-end metric; the traced run reports it) over every batch {:.4}, over the quiet half {:.4}",
            cpu_all * 1e6 / ops_all.max(1) as f64,
            s.cpu_us_per_op
        ));
        for m in &spec::END_TO_END {
            let value = match m.name {
                "ops_per_s" => s.ops_per_s,
                "op_p50_us" => s.op_p50_us,
                "op_p90_us" => s.op_p90_us,
                "peak_rss_mb" => sys::peak_rss_mb(),
                "setup_s" => setup_s,
                other => unreachable!("end-to-end metric {other} has no source"),
            };
            metrics.push((m.name, value, m.unit));
        }
    } else {
        // Untraced and traced batches alternate, so drift hits both alike;
        // the difference between the two rates is the cost of looking.
        let (mut reference, mut traced_batches) = (Vec::new(), Vec::new());
        let started = Instant::now();
        while traced_batches.len() < 2 || started.elapsed().as_secs_f64() < args.seconds * 0.5 {
            reference.extend(run_batches(&mut w, &mut tr, 0.0, 1));
            tr.set_enabled(true);
            traced_batches.extend(run_batches(&mut w, &mut tr, 0.0, 1));
            tr.set_enabled(false);
        }
        let ref_rate = summarise(&reference).ops_per_s;
        let traced_summary = summarise(&traced_batches);
        let traced_rate = traced_summary.ops_per_s;
        let (a1, f1) = totals(&reference);
        let (a2, f2) = totals(&traced_batches);
        (attempted, failed) = (a1 + a2, f1 + f2);

        let spans = tr.spans();
        let by_name = trace::by_name(spans);
        let traced_wall_s = by_name
            .get("harness.batch")
            .map_or(0.0, |b| b.total_ns as f64 / 1e9);
        let traced = Traced {
            by_name,
            ops: traced_batches.iter().map(|b| b.batch.ops).sum(),
            latency_p50_us: traced_summary.op_p50_us,
        };
        let mut layers = Layers::new();
        // CPU cost of an op, from the untraced batches only: a traced
        // batch also pays for spans and, on `plan_cold`, the replays.
        layers.set("cpu_us_per_op", summarise(&reference).cpu_us_per_op);
        layers.set(
            "trace.overhead_pct",
            (ref_rate / traced_rate.max(1e-9) - 1.0) * 100.0,
        );
        layers.set("trace.spans", spans.len() as f64);
        // Shares are of the time spent below the harness: its own loop,
        // checks and replays are the cost of measuring, not of a layer.
        let self_by_layer = trace::self_by_layer(spans);
        let self_total: u64 = self_by_layer.values().sum();
        let below_harness = self_total - self_by_layer.get("harness").copied().unwrap_or(0);
        layers.set(
            "trace.self_sum_share",
            self_total as f64 / 1e9 / traced_wall_s.max(1e-9),
        );
        for (layer, ns) in &self_by_layer {
            let name = format!("self_share.{layer}");
            if spec::PER_LAYER.iter().any(|m| m.name == name) {
                layers.set(&name, *ns as f64 / below_harness.max(1) as f64);
            }
            notes.push(format!("self time {layer}: {:.4} s", *ns as f64 / 1e9));
        }
        for (name, st) in &traced.by_name {
            notes.push(format!(
                "span {name}: n={} median {:.2} us total {:.4} s self {:.4} s",
                st.count,
                st.median_us(),
                st.total_ns as f64 / 1e9,
                st.self_ns as f64 / 1e9
            ));
        }
        notes.push(format!(
            "untraced {ref_rate:.2} ops/s vs traced {traced_rate:.2} ops/s over {} + {} alternated batches",
            reference.len(),
            traced_batches.len()
        ));
        w.probe(
            &mut layers,
            &traced,
            Duration::from_secs_f64(args.seconds * 0.3),
        );

        std::fs::create_dir_all(sys::out_dir()).map_err(|e| format!("create out dir: {e}"))?;
        let path = sys::out_dir().join(format!("trace-{}.json", ws.name));
        std::fs::write(&path, trace::chrome_trace_json(ws.name, spans))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        notes.push(format!("wrote {}", path.display()));
        for m in &spec::PER_LAYER {
            metrics.push((m.name, layers.get(m.name), m.unit));
        }
    }

    w.finish(&mut checks);
    attempted += checks.attempted;
    failed += checks.failures.len() as u64;
    Ok(Outcome {
        attempted,
        failed,
        failures: checks.failures,
        metrics,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measured(ops: u64, secs: f64, cpu_s: f64, samples: &[f64]) -> Measured {
        Measured {
            batch: Batch {
                ops,
                secs,
                ..Batch::default()
            },
            cpu_s,
            samples: samples.to_vec(),
        }
    }

    #[test]
    fn a_slow_stretch_moves_the_middle_but_not_the_quiet_side() {
        // Ten batches at 100 ops/s and 10 µs; then the same run with four
        // of them slowed to half speed, as a busy neighbour would.
        let quiet: Vec<Measured> = (0..10)
            .map(|_| measured(100, 1.0, 0.5, &[10.0; 30]))
            .collect();
        let mut disturbed: Vec<Measured> = (0..6)
            .map(|_| measured(100, 1.0, 0.5, &[10.0; 30]))
            .collect();
        disturbed.extend((0..4).map(|_| measured(100, 2.0, 1.0, &[20.0; 30])));
        let (a, b) = (summarise(&quiet), summarise(&disturbed));
        assert_eq!((a.ops_per_s, a.op_p50_us, a.op_p90_us), (100.0, 10.0, 10.0));
        assert_eq!((b.ops_per_s, b.op_p50_us, b.op_p90_us), (100.0, 10.0, 10.0));
        assert_eq!(a.cpu_us_per_op, 5000.0);
        assert_eq!(b.cpu_us_per_op, 5000.0);
        assert_eq!(b.tail_samples, 6 * 30);
    }

    #[test]
    fn a_streak_in_a_faster_regime_does_not_become_the_median() {
        // 12 of 40 batches (more than the quiet fifth) at 11.7 µs, the
        // rest at 28 µs: the reported median stays with the usual regime.
        let mut run: Vec<Measured> = (0..28)
            .map(|_| measured(100, 1.0, 0.5, &[28.0; 30]))
            .collect();
        run.extend((0..12).map(|_| measured(100, 1.0, 0.5, &[11.7; 30])));
        let s = summarise(&run);
        assert_eq!((s.op_p50_us, s.fast_regime), (28.0, 12));
        // Once the faster regime is the usual one, it is the number.
        let mut run: Vec<Measured> = (0..12)
            .map(|_| measured(100, 1.0, 0.5, &[28.0; 30]))
            .collect();
        run.extend((0..28).map(|_| measured(100, 1.0, 0.5, &[11.7; 30])));
        let s = summarise(&run);
        assert_eq!((s.op_p50_us, s.fast_regime), (11.7, 0));
    }

    #[test]
    fn a_real_slowdown_moves_every_number() {
        let slow: Vec<Measured> = (0..10)
            .map(|_| measured(100, 1.25, 0.6, &[12.5; 30]))
            .collect();
        let s = summarise(&slow);
        assert_eq!((s.ops_per_s, s.op_p50_us, s.op_p90_us), (80.0, 12.5, 12.5));
        assert!((s.cpu_us_per_op - 6000.0).abs() < 1e-6);
    }
}
