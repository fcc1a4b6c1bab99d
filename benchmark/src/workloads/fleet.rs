//! `fleet_halo` — the same solver with every halo crossing a framed
//! loopback socket: `execute_in_process` on the small two-nest scenario
//! of `bench_fleet`, 2 workers × 1 thread. The solve is small enough
//! that the socket wait path dominates; a wait-path fix must show here
//! and not on `miniwrf_solve`, a kernel change the other way round.

use super::{Args, Batch, Checks, Layers, Traced, Workload};
use crate::gen::Rng;
use crate::stats;
use crate::trace::{SpanId, Tracer};
use nestwx_fleet::frame::{decode_cells, decode_frame, encode_cells, encode_frame};
use nestwx_fleet::{build_model, execute_in_process, FleetConfig, Tag, DEFAULT_MAX_FRAME_BYTES};
use nestwx_grid::{Domain, NestSpec};
use nestwx_miniwrf::runtime::{run_iterations, ThreadStrategy};
use nestwx_miniwrf::SimReport;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Iterations per `execute_in_process` call (one latency sample; the
/// handshake is included, as `execute` callers pay it).
const ITERATIONS: u64 = 150;
const CALLS_PER_BATCH: usize = 3;
const REPORT_RANKS: u64 = 64;

fn fleet_config() -> FleetConfig {
    let mut cfg = FleetConfig::from_env();
    cfg.workers = 2;
    cfg.threads = 1;
    cfg.connect_timeout = Duration::from_secs(10);
    cfg.frame_timeout = Duration::from_secs(30);
    cfg
}

pub struct FleetHalo {
    parent: Domain,
    nests: Vec<NestSpec>,
    cfg: FleetConfig,
    calls: usize,
    baseline_json: String,
    /// `FleetSummary` fields of the traced calls.
    traced_calls: u64,
    coordinator_wait_s: f64,
    worker_wait_s: f64,
    /// Counters that must repeat exactly from call to call.
    last: Option<[u64; 3]>,
    counters_repeat: bool,
    bytes_in: u64,
}

impl FleetHalo {
    fn in_process(&self, iterations: u64) -> SimReport {
        let mut model = build_model(&self.parent, &self.nests);
        run_iterations(
            &mut model,
            iterations as u32,
            1,
            &ThreadStrategy::Sequential,
        );
        SimReport::from_model(&model, REPORT_RANKS)
    }
}

impl Workload for FleetHalo {
    fn setup(args: &Args) -> Result<Self, String> {
        // The 96×84 scenario of `bench_fleet`, nest offsets seeded.
        let mut rng = Rng::stream(args.seed, "fleet_halo");
        let parent = Domain::parent(96, 84, 24.0);
        let nests = vec![
            NestSpec::new(40, 40, 3, (rng.range(2, 10), rng.range(2, 10))),
            NestSpec::new(32, 32, 2, (rng.range(48, 56), rng.range(36, 44))),
        ];
        let mut w = FleetHalo {
            parent,
            nests,
            cfg: fleet_config(),
            calls: args.scaled(CALLS_PER_BATCH, 2),
            baseline_json: String::new(),
            traced_calls: 0,
            coordinator_wait_s: 0.0,
            worker_wait_s: 0.0,
            last: None,
            counters_repeat: true,
            bytes_in: 0,
        };
        w.baseline_json = w.in_process(ITERATIONS).to_json();
        Ok(w)
    }

    fn batch(&mut self, tr: &mut Tracer, parent: SpanId, samples: &mut Vec<f64>) -> Batch {
        let mut b = Batch::default();
        for call in 0..self.calls {
            let span = tr.begin("fleet.execute", call as u64, parent);
            let t0 = Instant::now();
            let run = execute_in_process(
                &self.parent,
                &self.nests,
                ITERATIONS,
                REPORT_RANKS,
                &[],
                &self.cfg,
            );
            let dt = t0.elapsed().as_secs_f64();
            tr.end(span);
            b.ops += ITERATIONS;
            b.secs += dt;
            samples.push(dt * 1e6 / ITERATIONS as f64);
            match run {
                Ok(run) if run.report.to_json() == self.baseline_json => {
                    let co = &run.summary.coordinator;
                    // `bytes_in` is left out of the exactness check: it
                    // includes the workers' `Done` frames, whose
                    // wall-clock floats print at varying lengths.
                    let exact = [co.frames_in, co.bytes_out, run.summary.logical_halo_bytes];
                    self.counters_repeat &= self.last.is_none_or(|l| l == exact);
                    self.last = Some(exact);
                    self.bytes_in = co.bytes_in;
                    if tr.enabled() {
                        self.traced_calls += 1;
                        self.coordinator_wait_s += co.wait_s;
                        self.worker_wait_s += run
                            .summary
                            .worker_rows
                            .iter()
                            .map(|r| r.obs.wait_s)
                            .sum::<f64>();
                        // The coordinator's own stall clock, as a child.
                        let wait_ns = (co.wait_s * 1e9) as u64;
                        tr.child_interval("fleet.coordinator_wait", span, 0, wait_ns);
                    }
                }
                Ok(_) => {
                    eprintln!("fleet_halo: merged report differs from the in-process baseline");
                    b.failed += ITERATIONS;
                }
                Err(e) => {
                    eprintln!("fleet_halo: {e}");
                    b.failed += ITERATIONS;
                }
            }
        }
        b
    }

    fn probe(&mut self, layers: &mut Layers, traced: &Traced, _budget: Duration) {
        let calls = self.traced_calls.max(1) as f64;
        let exec_s = traced
            .by_name
            .get("fleet.execute")
            .map_or(0.0, |r| r.total_ns as f64 / 1e9);
        layers.set("fleet.coordinator_wait_s", self.coordinator_wait_s / calls);
        layers.set(
            "fleet.coordinator_wait_share",
            self.coordinator_wait_s / exec_s.max(1e-9),
        );
        layers.set("fleet.worker_wait_s", self.worker_wait_s / calls);
        if let Some([frames_in, bytes_out, logical]) = self.last {
            layers.set("fleet.frames_in", frames_in as f64);
            layers.set("fleet.socket_bytes_out", bytes_out as f64);
            layers.set("fleet.socket_bytes_in", self.bytes_in as f64);
            layers.set("fleet.logical_halo_bytes", logical as f64);
        }

        // The same scenario with no sockets, one thread.
        let inproc_us = stats::median_time_us(5, || {
            black_box(self.in_process(ITERATIONS));
        });
        let inproc_rate = ITERATIONS as f64 * 1e6 / inproc_us.max(1e-9);
        layers.set("fleet.inproc_iters_per_s", inproc_rate);
        let fleet_rate = traced.ops as f64 / exec_s.max(1e-9);
        layers.set(
            "fleet.overhead_us_per_iter",
            1e6 / fleet_rate.max(1e-9) - 1e6 / inproc_rate.max(1e-9),
        );
        layers.set(
            "fleet.handshake_us",
            stats::median_time_us(5, || {
                black_box(execute_in_process(
                    &self.parent,
                    &self.nests,
                    1,
                    REPORT_RANKS,
                    &[],
                    &self.cfg,
                ))
                .ok();
            }),
        );

        // Encode and decode one boundary of this model, as the wire does.
        let model = build_model(&self.parent, &self.nests);
        let boundaries = model.boundaries();
        let cells = boundaries[0].cells();
        let rounds = 2000;
        let mut frame = Vec::new();
        let t0 = Instant::now();
        for i in 0..rounds {
            frame.clear();
            encode_frame(Tag::Boundary, &encode_cells(0, i, cells), &mut frame);
            black_box(&frame);
        }
        let per_cell = (rounds as usize * cells.len()) as f64;
        layers.set(
            "fleet.encode_ns_per_cell",
            t0.elapsed().as_nanos() as f64 / per_cell,
        );
        let t0 = Instant::now();
        for _ in 0..rounds {
            let decoded = decode_frame(black_box(&frame), DEFAULT_MAX_FRAME_BYTES)
                .ok()
                .flatten()
                .and_then(|(_, payload, _)| decode_cells(payload).ok());
            black_box(decoded);
        }
        layers.set(
            "fleet.decode_ns_per_cell",
            t0.elapsed().as_nanos() as f64 / per_cell,
        );
    }

    fn finish(self, checks: &mut Checks) {
        checks.check(self.counters_repeat, || {
            "frames_in, bytes_out or logical halo bytes differ between calls of the same fleet"
                .to_string()
        });
    }

    fn config(&self) -> Vec<(&'static str, String)> {
        vec![
            ("fleet", format!("{:?}", self.cfg)),
            ("parent", format!("{}x{}", self.parent.nx, self.parent.ny)),
            ("iterations_per_call", ITERATIONS.to_string()),
            ("calls_per_batch", self.calls.to_string()),
            ("load_threads", "coordinator + 2 workers".into()),
        ]
    }
}
