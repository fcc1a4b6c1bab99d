//! `miniwrf_solve` — the real shallow-water solver, in process, no
//! sockets: a 286×307 parent with two refine-3 nests stepped by
//! `run_iterations` under the concurrent thread strategy. The kernel,
//! nest interpolation and feedback do the work.

use super::{Args, Batch, Checks, Layers, Traced, Workload};
use crate::gen::{self, Rng};
use crate::stats;
use crate::trace::{SpanId, Tracer};
use nestwx_fleet::build_model;
use nestwx_grid::{Domain, NestSpec};
use nestwx_miniwrf::runtime::{run_iterations, ThreadStrategy};
use nestwx_miniwrf::{NestedModel, SimReport};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Nest sizes (refine 3); offsets are seeded.
const NEST_DIMS: [(u32, u32); 2] = [(240, 240), (180, 210)];
const THREADS: usize = 2;
/// Iterations per batch; each is one `run_iterations` call and one
/// latency sample.
const ITERATIONS_PER_BATCH: usize = 80;
/// Rank count stamped into reports (a label, not a knob).
const REPORT_RANKS: u64 = 64;

pub struct MiniwrfSolve {
    parent: Domain,
    nests: Vec<NestSpec>,
    model: NestedModel,
    strategy: ThreadStrategy,
    iterations: usize,
    digests: Vec<String>,
    /// `PhaseTimings` totals over the traced batches.
    traced_batches: u64,
    parent_s: f64,
    siblings_s: f64,
}

impl MiniwrfSolve {
    /// Grid cells advanced per coupled iteration (a nest steps `r` times
    /// per parent step). Computed from the geometry, not measured.
    fn cell_updates_per_iteration(&self) -> f64 {
        let nests: u64 = self
            .nests
            .iter()
            .map(|n| u64::from(n.nx) * u64::from(n.ny) * u64::from(n.refine_ratio))
            .sum();
        (u64::from(self.parent.nx) * u64::from(self.parent.ny) + nests) as f64
    }
}

impl Workload for MiniwrfSolve {
    fn setup(args: &Args) -> Result<Self, String> {
        let mut rng = Rng::stream(args.seed, "miniwrf_solve");
        let parent = gen::pacific_parent();
        let nests: Vec<NestSpec> = NEST_DIMS
            .iter()
            .map(|&(nx, ny)| gen::place_nest(&mut rng, &parent, nx, ny))
            .collect();
        let model = build_model(&parent, &nests);
        Ok(MiniwrfSolve {
            parent,
            nests,
            model,
            strategy: ThreadStrategy::Concurrent {
                allocation: vec![1; NEST_DIMS.len()],
            },
            iterations: args.scaled(ITERATIONS_PER_BATCH, 10),
            digests: Vec::new(),
            traced_batches: 0,
            parent_s: 0.0,
            siblings_s: 0.0,
        })
    }

    fn batch(&mut self, tr: &mut Tracer, parent: SpanId, samples: &mut Vec<f64>) -> Batch {
        let mut b = Batch::default();
        // Every batch starts from the same initial state, so its final
        // digest must repeat.
        self.model = build_model(&self.parent, &self.nests);
        for i in 0..self.iterations {
            let span = tr.begin("miniwrf.run_iterations", i as u64, parent);
            let t0 = Instant::now();
            let timings = run_iterations(&mut self.model, 1, THREADS, &self.strategy);
            let dt = t0.elapsed().as_secs_f64();
            tr.end(span);
            b.ops += 1;
            b.secs += dt;
            samples.push(dt * 1e6);
            if tr.enabled() {
                // The solver's own phase clock, as child intervals.
                let parent_ns = timings.parent.as_nanos() as u64;
                tr.child_interval("miniwrf.parent", span, 0, parent_ns);
                tr.child_interval(
                    "miniwrf.siblings",
                    span,
                    parent_ns,
                    timings.siblings.as_nanos() as u64,
                );
                self.parent_s += timings.parent.as_secs_f64();
                self.siblings_s += timings.siblings.as_secs_f64();
            }
        }
        if tr.enabled() {
            self.traced_batches += 1;
        }
        self.digests
            .push(SimReport::from_model(&self.model, REPORT_RANKS).digest);
        b
    }

    fn probe(&mut self, layers: &mut Layers, traced: &Traced, _budget: Duration) {
        let batches = self.traced_batches.max(1) as f64;
        layers.set("miniwrf.parent_s", self.parent_s / batches);
        layers.set("miniwrf.siblings_s", self.siblings_s / batches);
        let run_s = traced
            .by_name
            .get("miniwrf.run_iterations")
            .map_or(0.0, |r| r.total_ns as f64 / 1e9);
        layers.set(
            "miniwrf.cell_updates_per_s",
            self.cell_updates_per_iteration() * traced.ops as f64 / run_s.max(1e-9),
        );
        layers.set(
            "miniwrf.build_model_us",
            stats::median_time_us(5, || {
                black_box(build_model(&self.parent, &self.nests));
            }),
        );
        layers.set(
            "miniwrf.report_us",
            stats::median_time_us(5, || {
                black_box(SimReport::from_model(&self.model, REPORT_RANKS).to_json());
            }),
        );
    }

    fn finish(self, checks: &mut Checks) {
        let first = self.digests.first().cloned().unwrap_or_default();
        checks.check(self.digests.iter().all(|d| *d == first), || {
            format!("report digest differs between batches: {:?}", self.digests)
        });
    }

    fn config(&self) -> Vec<(&'static str, String)> {
        vec![
            ("parent", format!("{}x{}", self.parent.nx, self.parent.ny)),
            ("nests", format!("{NEST_DIMS:?} refine 3")),
            ("strategy", format!("{:?}", self.strategy)),
            ("threads", THREADS.to_string()),
            ("iterations_per_batch", self.iterations.to_string()),
        ]
    }
}
