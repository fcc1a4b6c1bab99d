//! `netsim_large` and `netsim_observed` — the simulate-many path behind
//! every `results/*.txt`: one 4-nest multilevel-mapped plan on `bgp:4096`,
//! compiled once in set-up and replayed with `run_mut`.
//!
//! The two workloads share plan and length and differ only in the
//! recorder: none vs `ObsConfig::detailed()`. A recorder optimisation
//! must show on `netsim_observed` and leave `netsim_large` unmoved.

use super::{Args, Batch, Checks, Layers, Traced, Workload};
use crate::gen::{self, Rng};
use crate::stats;
use crate::trace::{SpanId, Tracer};
use nestwx_core::{ExecutionPlan, MappingKind, Scenario};
use nestwx_grid::Rect;
use nestwx_netsim::{ExecStrategy, ObsConfig, SimReport, Simulation};
use nestwx_serve::parse_machine;
use nestwx_topo::Mapping;
use std::hint::black_box;
use std::time::{Duration, Instant};

const MACHINE: &str = "bgp:4096";
/// Nest sizes (refine 3). Fixed, because a step's cost follows the
/// partition the sizes produce: with seeded sizes `ops_per_s` moved ±6 %
/// from seed to seed on the same code. The seed places the nests and
/// nudges each size by a few points, which changes every input and none
/// of the cost.
const NEST_DIMS: [(u32, u32); 4] = [(394, 418), (232, 202), (313, 337), (151, 187)];
/// Parent iterations per `run_mut` call (one latency sample).
const ITERATIONS: u32 = 10;
/// `run_mut` calls per batch.
const CALLS_PER_BATCH: usize = 10;

pub struct Netsim<const OBSERVED: bool> {
    plan: &'static ExecutionPlan,
    sim: Simulation<'static>,
    calls: usize,
    first: Option<SimReport>,
    steps_per_call: u64,
}

pub type NetsimLarge = Netsim<false>;
pub type NetsimObserved = Netsim<true>;

fn scenario(seed: u64) -> Result<Scenario, String> {
    // Both workloads draw from one stream: same seed, same plan.
    let mut rng = Rng::stream(seed, "netsim");
    let parent = gen::pacific_parent();
    let nests = NEST_DIMS
        .iter()
        .map(|&(nx, ny)| {
            let (nx, ny) = (nx + rng.below(4), ny + rng.below(4));
            gen::place_nest(&mut rng, &parent, nx, ny)
        })
        .collect();
    let mut s = Scenario::new(parse_machine(MACHINE)?, parent, nests);
    s.mapping = MappingKind::MultiLevel;
    Ok(s)
}

impl<const OBSERVED: bool> Workload for Netsim<OBSERVED> {
    fn setup(args: &Args) -> Result<Self, String> {
        let s = scenario(args.seed)?;
        let plan = s
            .planner()
            .plan(&s.parent, &s.nests)
            .map_err(|e| format!("plan: {e}"))?;
        // `Simulation` borrows its plan; the plan must outlive the
        // workload value that holds both, so it is leaked (a few KiB per
        // set-up, `SETUP_REPS` set-ups per process).
        let plan: &'static ExecutionPlan = Box::leak(Box::new(plan));
        let mut sim = plan.compile().map_err(|e| format!("compile: {e}"))?;
        if OBSERVED {
            sim.enable_obs(ObsConfig::detailed());
        }
        Ok(Netsim {
            plan,
            sim,
            calls: args.scaled(CALLS_PER_BATCH, 2),
            first: None,
            steps_per_call: 0,
        })
    }

    fn batch(&mut self, tr: &mut Tracer, parent: SpanId, samples: &mut Vec<f64>) -> Batch {
        let mut b = Batch::default();
        for call in 0..self.calls {
            let span = tr.begin("netsim.run", call as u64, parent);
            let t0 = Instant::now();
            let report = self.sim.run_mut(ITERATIONS);
            let dt = t0.elapsed().as_secs_f64();
            tr.end(span);
            let steps = self.sim.steps_taken();
            self.steps_per_call = steps;
            b.ops += steps;
            b.secs += dt;
            samples.push(dt * 1e6 / steps.max(1) as f64);
            match &self.first {
                None => self.first = Some(report),
                Some(first) if *first == report => {}
                Some(_) => b.failed += steps,
            }
        }
        b
    }

    fn probe(&mut self, layers: &mut Layers, traced: &Traced, budget: Duration) {
        let deadline = Instant::now() + budget;
        let runs = traced.by_name.get("netsim.run");
        let (run_ns, calls) = runs.map_or((0, 0), |r| (r.total_ns, r.count));
        layers.set(
            "netsim.run_us_per_step",
            run_ns as f64 / 1e3 / (calls * self.steps_per_call).max(1) as f64,
        );
        layers.set(
            "netsim.compile_us",
            stats::median_time_us(5, || drop(black_box(self.plan.compile()))),
        );
        let rects: Vec<Rect> = match &self.plan.strategy {
            ExecStrategy::Concurrent { partitions } => partitions.clone(),
            ExecStrategy::Sequential => Vec::new(),
        };
        let (shape, grid) = (self.plan.machine.shape, self.plan.grid);
        layers.set(
            "topo.mapping_us.multilevel",
            stats::median_time_us(5, || {
                drop(black_box(Mapping::multilevel(shape, &grid, &rects)))
            }),
        );

        // Exact counts, from the recorder's own summary of one call
        // (`netsim.steps` is per batch, as on `plan_cold`).
        let mut counted = self.plan.compile().expect("compiled in set-up");
        counted.enable_obs(ObsConfig::counters());
        counted.run_mut(ITERATIONS);
        let summary = counted.obs().expect("recorder attached").summary().clone();
        layers.set("netsim.steps", (summary.steps * self.calls as u64) as f64);
        layers.set("netsim.bytes_moved", summary.bytes);
        layers.set("netsim.avg_hops", summary.avg_hops());
        layers.set("netsim.sim_wait_s", summary.halo_wait);

        if OBSERVED {
            // Recorder cost: the same plan unobserved, with counters, and
            // with full detail, alternated so drift hits all three alike.
            let mut plain = self.plan.compile().expect("compiled in set-up");
            let (mut t_plain, mut t_count, mut t_detail) = (Vec::new(), Vec::new(), Vec::new());
            while t_plain.len() < 3 || (Instant::now() < deadline && t_plain.len() < 12) {
                t_plain.push(stats::median_time_us(1, || {
                    drop(black_box(plain.run_mut(ITERATIONS)))
                }));
                t_count.push(stats::median_time_us(1, || {
                    drop(black_box(counted.run_mut(ITERATIONS)))
                }));
                t_detail.push(stats::median_time_us(1, || {
                    drop(black_box(self.sim.run_mut(ITERATIONS)))
                }));
            }
            let base = stats::median(&t_plain).max(1e-12);
            layers.set(
                "obs.counter_overhead_pct",
                (stats::median(&t_count) / base - 1.0) * 100.0,
            );
            layers.set(
                "obs.detailed_overhead_pct",
                (stats::median(&t_detail) / base - 1.0) * 100.0,
            );
            let rec = self.sim.obs().expect("observed workload has a recorder");
            layers.set("obs.ring_dropped", rec.ring().dropped() as f64);
        }
    }

    fn finish(mut self, checks: &mut Checks) {
        // Observation is passive: the report must equal an unobserved
        // run's bitwise. (For `netsim_large` this re-checks determinism
        // across a fresh compile.)
        let mut plain = self.plan.compile().expect("compiled in set-up");
        let expected = plain.run_mut(ITERATIONS);
        let got = self.sim.run_mut(ITERATIONS);
        checks.check(got == expected, || {
            format!("observed={OBSERVED} report differs from a fresh unobserved run")
        });
        checks.check(self.first.as_ref() == Some(&expected), || {
            "first timed report differs from a fresh unobserved run".to_string()
        });
    }

    fn config(&self) -> Vec<(&'static str, String)> {
        vec![
            ("machine", MACHINE.into()),
            (
                "nests",
                format!("{NEST_DIMS:?} refine 3, +0..3 points by seed"),
            ),
            ("mapping", "multilevel".into()),
            (
                "recorder",
                if OBSERVED { "detailed" } else { "none" }.into(),
            ),
            ("iterations_per_call", ITERATIONS.to_string()),
            ("calls_per_batch", self.calls.to_string()),
            ("threads", "1".into()),
        ]
    }
}
