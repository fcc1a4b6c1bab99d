//! `plan_cold` — the paper's own pipeline, end to end, with nothing cached.
//!
//! Each op takes one request line through `Request::parse_line` →
//! `ScenarioParams::to_scenario` → `plan_key` → `Planner::plan` with no
//! predictor supplied (so it profiles and fits one, as `nestwx plan` and
//! `nestwx-sweep` do) → `ExecutionPlan::compile` → `run_mut(3)` →
//! `render_plan`. predict / alloc / topo / netsim-compile do all the
//! work; sockets, caches and the solver do none.

use super::{Args, Batch, Checks, Layers, Traced, Workload};
use crate::gen::{self, Rng};
use crate::stats;
use crate::trace::{SpanId, Tracer};
use nestwx_alloc::partition_grid;
use nestwx_core::{fnv1a64, profile_basis, ExecutionPlan, MappingKind, Scenario};
use nestwx_grid::{DomainFeatures, NestedConfig, ProcGrid, Rect};
use nestwx_predict::ExecTimePredictor;
use nestwx_serve::keys::plan_key;
use nestwx_serve::{render_plan, Request, RequestBody};
use nestwx_topo::Mapping;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Machine classes, weighted 25 / 50 / 25 so the median op sits inside
/// the 256-rank class rather than on a class boundary.
const MACHINES: [&str; 4] = ["bgl:64", "bgl:256", "bgl:256", "bgl:1024"];
/// Ops per batch: three of each (machine slot × mapping × nest count).
const BATCH_OPS: usize = 144;
/// `plans_digest` of one batch for `--seed 1` at full scale. Plan bytes
/// are an invariant of this repo; a change that moves them must say so
/// by updating this value.
const SEED1_DIGEST: u64 = 0x7b4b_ed7d_55ce_c20f;

pub struct PlanCold {
    lines: Vec<String>,
    seed: u64,
    full_scale: bool,
    digests: Vec<u64>,
    /// Per-op values the traced run derives from its spans (µs).
    plan_us: Vec<f64>,
    plan_self_us: Vec<f64>,
    /// Replayed planner stages, as measured (µs), by span name.
    stage_us: BTreeMap<&'static str, Vec<f64>>,
    fit_ns: u64,
    op_ns: u64,
    sim_steps: u64,
}

/// Parent iterations every op simulates (what `nestwx-sweep` defaults to).
const SIM_ITERATIONS: u32 = 3;

struct OpOut {
    rendered: String,
    scenario: Scenario,
    root: SpanId,
    plan_span: SpanId,
    /// Halo steps the op's simulation executed.
    steps: u64,
}

fn plan_tiles_machine(plan: &ExecutionPlan) -> bool {
    let grid = Rect::of_size(plan.grid.px, plan.grid.py);
    let rects: Vec<Rect> = plan.partitions.iter().map(|p| p.rect).collect();
    let area: u64 = rects.iter().map(Rect::area).sum();
    let disjoint = rects.iter().enumerate().all(|(i, a)| {
        rects[i + 1..].iter().all(|b| {
            a.x0 + a.w <= b.x0 || b.x0 + b.w <= a.x0 || a.y0 + a.h <= b.y0 || b.y0 + b.h <= a.y0
        })
    });
    let inside = rects.iter().all(|r| grid.contains_rect(r));
    let ratio_sum: f64 = plan.predicted_ratios.iter().sum();
    area == u64::from(plan.machine.ranks()) && disjoint && inside && (ratio_sum - 1.0).abs() <= 1e-9
}

impl PlanCold {
    /// One op, each layer call under its own span.
    fn op(tr: &mut Tracer, op: u64, parent: SpanId, line: &str) -> Result<OpOut, String> {
        let root = tr.begin("harness.op", op, parent);
        let req = tr
            .span("serve.parse", op, root, || Request::parse_line(line))
            .map_err(|e| e.to_string())?;
        let RequestBody::Plan(params) = &req.body else {
            return Err("generated line is not a plan request".into());
        };
        let scenario = tr
            .span("serve.to_scenario", op, root, || params.to_scenario())
            .map_err(|e| e.to_string())?;
        black_box(tr.span("serve.key", op, root, || plan_key(&scenario)));
        let plan_span = tr.begin("core.plan", op, root);
        let plan = scenario
            .planner()
            .plan(&scenario.parent, &scenario.nests)
            .map_err(|e| e.to_string())?;
        tr.end(plan_span);
        let mut sim = tr
            .span("netsim.compile", op, root, || plan.compile())
            .map_err(|e| e.to_string())?;
        black_box(tr.span("netsim.run", op, root, || sim.run_mut(SIM_ITERATIONS)));
        let steps = sim.steps_taken();
        drop(sim);
        let rendered = tr
            .span("serve.render_plan", op, root, || {
                render_plan(&scenario, &plan)
            })
            .map_err(|e| e.to_string())?;
        tr.end(root);
        if !plan_tiles_machine(&plan) {
            return Err(format!("plan does not tile its machine: {rendered}"));
        }
        Ok(OpOut {
            rendered,
            scenario,
            root,
            plan_span,
            steps,
        })
    }

    /// Replays the planner's predict → allocate → map sequence standalone
    /// on the same inputs, outside the op's timing, and records each call
    /// as a child interval of the op's `core.plan` span (laid end to end
    /// from its start), so `core.plan`'s self time is its inclusive time
    /// minus these. Returns the six `(call, ns)` pairs as measured (the
    /// intervals are clipped to the span; the per-layer medians are not).
    fn replay(
        tr: &mut Tracer,
        op: u64,
        parent: SpanId,
        plan_span: SpanId,
        s: &Scenario,
    ) -> Vec<(&'static str, u64)> {
        let replay_span = tr.begin("harness.replay", op, parent);
        let mut stages: Vec<(&'static str, u64)> = Vec::with_capacity(6);
        let mut timed = |name: &'static str, f: &mut dyn FnMut()| {
            let t0 = Instant::now();
            f();
            stages.push((name, t0.elapsed().as_nanos() as u64));
        };
        timed("grid.nested_config", &mut || {
            black_box(NestedConfig::new(s.parent.clone(), s.nests.clone())).ok();
        });
        let mut basis = Vec::new();
        timed("core.profile_basis", &mut || {
            basis = profile_basis(&s.machine, super::PROFILE_SEED);
        });
        let mut predictor = None;
        timed("predict.fit", &mut || {
            predictor = ExecTimePredictor::fit(&basis).ok()
        });
        let features: Vec<DomainFeatures> = s.nests.iter().map(DomainFeatures::from).collect();
        let mut ratios = Vec::new();
        timed("predict.relative_times", &mut || {
            ratios = predictor
                .as_ref()
                .and_then(|p| p.relative_times(&features).ok())
                .unwrap_or_default();
        });
        let grid = ProcGrid::near_square(s.machine.ranks());
        let weights: Vec<f64> = ratios
            .iter()
            .zip(&s.nests)
            .map(|(r, n)| r * f64::from(n.refine_ratio))
            .collect();
        let mut rects: Vec<Rect> = Vec::new();
        timed("alloc.partition", &mut || {
            rects = partition_grid(&grid, &weights)
                .map(|parts| parts.iter().map(|p| p.rect).collect())
                .unwrap_or_default();
        });
        let (shape, n) = (s.machine.shape, s.machine.ranks());
        let mapping_span = match s.mapping {
            MappingKind::Oblivious => "topo.mapping.oblivious",
            MappingKind::Txyz => "topo.mapping.txyz",
            MappingKind::Partition => "topo.mapping.partition",
            MappingKind::MultiLevel => "topo.mapping.multilevel",
        };
        timed(mapping_span, &mut || {
            black_box(match s.mapping {
                MappingKind::Oblivious => Mapping::oblivious(shape, n),
                MappingKind::Txyz => Mapping::txyz(shape, n),
                MappingKind::Partition => Mapping::partition(shape, &grid, &rects),
                MappingKind::MultiLevel => Mapping::multilevel(shape, &grid, &rects),
            })
            .ok();
        });
        tr.end(replay_span);
        let mut offset = 0;
        for &(name, dur) in &stages {
            tr.child_interval(name, plan_span, offset, dur);
            offset += dur;
        }
        stages
    }
}

impl Workload for PlanCold {
    fn setup(args: &Args) -> Result<Self, String> {
        let n = args.scaled(BATCH_OPS, MACHINES.len() * 4 * 3);
        let lines =
            gen::stratified_plan_lines(&mut Rng::stream(args.seed, "plan_cold"), &MACHINES, n);
        Ok(PlanCold {
            lines,
            seed: args.seed,
            full_scale: n == BATCH_OPS,
            digests: Vec::new(),
            plan_us: Vec::new(),
            plan_self_us: Vec::new(),
            stage_us: BTreeMap::new(),
            fit_ns: 0,
            op_ns: 0,
            sim_steps: 0,
        })
    }

    fn batch(&mut self, tr: &mut Tracer, parent: SpanId, samples: &mut Vec<f64>) -> Batch {
        let mut b = Batch::default();
        // FNV-1a over every rendered plan of the batch, in op order.
        let mut digest_input = String::new();
        for i in 0..self.lines.len() {
            let op = i as u64;
            let t0 = Instant::now();
            let result = PlanCold::op(tr, op, parent, &self.lines[i]);
            let dt = t0.elapsed();
            b.ops += 1;
            b.secs += dt.as_secs_f64();
            samples.push(dt.as_secs_f64() * 1e6);
            match result {
                Ok(out) => {
                    digest_input.push_str(&out.rendered);
                    digest_input.push('\n');
                    if tr.enabled() {
                        let stages = PlanCold::replay(tr, op, parent, out.plan_span, &out.scenario);
                        let children: u64 = stages.iter().map(|(_, ns)| ns).sum();
                        // Stages 1 and 2 are `profile_basis` and `fit`.
                        let fit_ns = stages[1].1 + stages[2].1;
                        for (name, ns) in stages {
                            self.stage_us.entry(name).or_default().push(ns as f64 / 1e3);
                        }
                        let plan_ns = tr.spans()[out.plan_span as usize].dur_ns();
                        self.plan_us
                            .push(plan_ns.saturating_sub(fit_ns) as f64 / 1e3);
                        self.plan_self_us
                            .push(plan_ns.saturating_sub(children) as f64 / 1e3);
                        self.fit_ns += fit_ns;
                        self.op_ns += tr.spans()[out.root as usize].dur_ns();
                        self.sim_steps += out.steps;
                    }
                }
                Err(e) => {
                    eprintln!("plan_cold: op {i} failed: {e}");
                    b.failed += 1;
                }
            }
        }
        self.digests.push(fnv1a64(digest_input.as_bytes()));
        b
    }

    fn probe(&mut self, layers: &mut Layers, traced: &Traced, _budget: Duration) {
        for (metric, stage) in [
            ("grid.nested_config_us", "grid.nested_config"),
            ("core.profile_basis_us", "core.profile_basis"),
            ("predict.fit_us", "predict.fit"),
            ("predict.relative_times_us", "predict.relative_times"),
            ("alloc.partition_us", "alloc.partition"),
            ("topo.mapping_us.oblivious", "topo.mapping.oblivious"),
            ("topo.mapping_us.txyz", "topo.mapping.txyz"),
            ("topo.mapping_us.partition", "topo.mapping.partition"),
            ("topo.mapping_us.multilevel", "topo.mapping.multilevel"),
        ] {
            let samples = self.stage_us.get(stage).map_or(&[][..], Vec::as_slice);
            layers.set(metric, stats::median(samples));
        }
        for (metric, span) in [
            ("netsim.compile_us", "netsim.compile"),
            ("serve.parse_us", "serve.parse"),
            ("serve.to_scenario_us", "serve.to_scenario"),
            ("serve.key_us", "serve.key"),
            ("serve.render_plan_us", "serve.render_plan"),
        ] {
            layers.set(metric, traced.median_us(span));
        }
        layers.set("core.canon_key_us", traced.median_us("serve.key"));
        layers.set("core.plan_spans", traced.count("core.plan") as f64);
        layers.set("core.plan_us", stats::median(&self.plan_us));
        layers.set("core.plan_self_us", stats::median(&self.plan_self_us));
        layers.set(
            "core.fit_share",
            self.fit_ns as f64 / self.op_ns.max(1) as f64,
        );
        let run_ns = traced.by_name.get("netsim.run").map_or(0, |r| r.total_ns);
        layers.set(
            "netsim.run_us_per_step",
            run_ns as f64 / 1e3 / self.sim_steps.max(1) as f64,
        );
        layers.set(
            "netsim.steps",
            self.sim_steps as f64 / traced.count("harness.batch").max(1) as f64,
        );
    }

    fn finish(self, checks: &mut Checks) {
        let first = self.digests.first().copied().unwrap_or(0);
        checks.check(self.digests.iter().all(|&d| d == first), || {
            format!("plans_digest differs between batches: {:x?}", self.digests)
        });
        if self.seed == 1 && self.full_scale {
            checks.check(first == SEED1_DIGEST, || {
                format!("plans_digest for seed 1 is {first:#018x}, stored {SEED1_DIGEST:#018x}")
            });
        }
    }

    fn config(&self) -> Vec<(&'static str, String)> {
        vec![
            ("ops_per_batch", self.lines.len().to_string()),
            ("machines", format!("{MACHINES:?}")),
            ("threads", "1".into()),
            ("simulated_iterations_per_op", SIM_ITERATIONS.to_string()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_op_plans_and_its_replay_stays_below_the_plan_span() {
        let args = Args {
            seed: 1,
            seconds: 0.0,
            trace: true,
            scale: 0.2,
        };
        let mut w = PlanCold::setup(&args).unwrap();
        let mut tr = Tracer::new(true);
        let mut samples = Vec::new();
        let b = w.batch(&mut tr, crate::trace::NONE, &mut samples);
        assert_eq!((b.ops, b.failed), (48, 0));
        assert_eq!(samples.len(), 48);
        // The standalone replay does the same work the planner did inside
        // its span, so what is left (self time) is a small share of it.
        let self_us = stats::median(&w.plan_self_us);
        let plan_us = stats::median(&w.plan_us);
        assert!(self_us < plan_us, "self {self_us} us vs plan {plan_us} us");
    }
}
