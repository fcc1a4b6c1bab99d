//! Threaded execution of the coupled model under both strategies.
//!
//! The thread analogue of the paper's processor partitioning: a domain step
//! is data-parallel over row bands ([`step_parallel`]), and the sibling
//! phase either runs each nest **sequentially on all threads** (WRF's
//! default) or **concurrently, each nest on its allocated thread group**
//! (the paper's strategy). Each sibling task couples its own nest: it
//! interpolates its boundary from the stepped parent (read-only for the
//! whole sibling phase), solves, and collects its feedback; the calling
//! thread then applies the feedbacks in sibling order. Because the sibling
//! tasks are independent, the two strategies produce *bitwise identical*
//! states — only wall-clock time differs.

use crate::model::{NestState, NestedModel};
use crate::nest::{
    apply_feedback, collect_feedback_into, interpolate_boundary_into, BoundaryData, FeedbackData,
};
use crate::solver::ShallowWater;
use nestwx_obs::clock;
use nestwx_obs::{Recorder, StepMetrics, StepPhase};
use std::time::Duration;

/// Sibling-phase execution strategy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThreadStrategy {
    /// Each nest solved one after another using all `total_threads`.
    Sequential,
    /// Nest `i` solved on `allocation[i]` dedicated threads, all nests at
    /// once. The allocation is the thread analogue of Algorithm 1's
    /// processor rectangles.
    Concurrent {
        /// Threads per sibling, in nest order.
        allocation: Vec<usize>,
    },
}

/// Wall-clock breakdown of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTimings {
    /// Iterations executed.
    pub iterations: u32,
    /// Time in parent steps.
    pub parent: Duration,
    /// Time in the sibling phase (interpolation + nest solves + feedback).
    pub siblings: Duration,
    /// Per-sibling time (sum over iterations): the nest's boundary
    /// interpolation, its solve and its feedback collection. Under the
    /// concurrent strategy these overlap, so their sum exceeds `siblings`.
    pub(crate) per_sibling: Vec<Duration>,
    /// Total wall-clock.
    pub total: Duration,
}

impl PhaseTimings {
    /// Seconds per iteration.
    pub fn per_iteration(&self) -> f64 {
        self.total.as_secs_f64() / self.iterations as f64
    }
}

/// One multi-threaded solver step over `threads` row bands.
///
/// Fills halos, then steps each band's rows of the fields in place and
/// rotates them by the Coriolis angle: the calling thread computes the
/// first band and `threads − 1` scoped helper threads the others. With
/// `threads == 1` (or fewer than two rows per band) no threads are
/// spawned. The result is bitwise identical to [`ShallowWater::step`]
/// because band decomposition does not change the arithmetic.
pub fn step_parallel(sw: &mut ShallowWater, threads: usize) {
    assert!(threads > 0);
    if threads == 1 || sw.ny < 2 * threads {
        sw.step();
        return;
    }
    sw.fill_halos();
    let (stencil, bands) = sw.split_step(threads);
    let stencil = &stencil;
    std::thread::scope(|scope| {
        let mut bands = bands.into_iter();
        let first = bands.next();
        for band in bands {
            scope.spawn(move || stencil.compute(band));
        }
        if let Some(band) = first {
            stencil.compute(band);
        }
    });
    sw.finish_step();
}

/// Runs `iterations` coupled iterations under the given strategy with
/// `total_threads` workers, returning timings. The model is advanced in
/// place.
pub fn run_iterations(
    model: &mut NestedModel,
    iterations: u32,
    total_threads: usize,
    strategy: &ThreadStrategy,
) -> PhaseTimings {
    run_iterations_inner(model, iterations, total_threads, strategy, None)
}

/// [`run_iterations`] with a [`Recorder`] attached: every parent step and
/// every sibling task (the nest's boundary interpolation, solve and
/// feedback collection) lands in the step-metrics ring (wall-clock seconds
/// since the run started, `compute` = the phase's duration). The model
/// state is bitwise identical to an unobserved run — observation only
/// reads clocks.
pub fn run_iterations_observed(
    model: &mut NestedModel,
    iterations: u32,
    total_threads: usize,
    strategy: &ThreadStrategy,
    rec: &mut Recorder,
) -> PhaseTimings {
    run_iterations_inner(model, iterations, total_threads, strategy, Some(rec))
}

fn run_iterations_inner(
    model: &mut NestedModel,
    iterations: u32,
    total_threads: usize,
    strategy: &ThreadStrategy,
    mut obs: Option<&mut Recorder>,
) -> PhaseTimings {
    assert!(iterations > 0 && total_threads > 0);
    if let ThreadStrategy::Concurrent { allocation } = strategy {
        assert_eq!(
            allocation.len(),
            model.nests.len(),
            "one thread count per sibling"
        );
        assert!(allocation.iter().all(|&t| t > 0));
    }
    let mut parent_t = Duration::ZERO;
    let mut sibling_t = Duration::ZERO;
    let mut per_sibling = vec![Duration::ZERO; model.nests.len()];
    let mut step_no = 0u64;
    let NestedModel {
        parent,
        nests,
        iterations: done,
    } = model;
    // The coupling buffers: allocated once, on this thread rather than in
    // the sibling threads, and reused every iteration.
    let mut slots: Vec<SiblingSlot> = nests
        .iter()
        .map(|n| SiblingSlot {
            bc: BoundaryData::for_nest(&n.geo),
            fb: FeedbackData::for_nest(&n.geo),
            time: Duration::ZERO,
        })
        .collect();
    let t_start = clock::now();

    for _ in 0..iterations {
        let t0 = clock::now();
        step_parallel(parent, total_threads);
        let parent_dt = t0.elapsed();
        parent_t += parent_dt;
        if let Some(rec) = obs.as_deref_mut() {
            step_no += 1;
            let start = t0.duration_since(t_start).as_secs_f64();
            let dur = parent_dt.as_secs_f64();
            rec.record_step(phase_metrics(step_no, StepPhase::Parent, -1, start, dur));
        }

        // Each sibling couples its own nest; the parent is read-only until
        // the feedbacks are applied, in sibling order, below.
        let t1 = clock::now();
        let stepped: &ShallowWater = parent;
        match strategy {
            ThreadStrategy::Sequential => {
                for (nest, slot) in nests.iter_mut().zip(&mut slots) {
                    slot.run(stepped, nest, total_threads);
                }
            }
            ThreadStrategy::Concurrent { allocation } => std::thread::scope(|scope| {
                let mut tasks = nests.iter_mut().zip(&mut slots).zip(allocation);
                let first = tasks.next();
                for ((nest, slot), &threads) in tasks {
                    scope.spawn(move || slot.run(stepped, nest, threads));
                }
                if let Some(((nest, slot), &threads)) = first {
                    slot.run(stepped, nest, threads);
                }
            }),
        }
        for (acc, slot) in per_sibling.iter_mut().zip(&slots) {
            *acc += slot.time;
        }
        for slot in &slots {
            apply_feedback(parent, &slot.fb);
        }
        *done += 1;
        let sibling_dt = t1.elapsed();
        sibling_t += sibling_dt;
        if let Some(rec) = obs.as_deref_mut() {
            let start = t1.duration_since(t_start).as_secs_f64();
            for (i, slot) in slots.iter().enumerate() {
                step_no += 1;
                rec.record_step(phase_metrics(
                    step_no,
                    StepPhase::Nest,
                    i as i32,
                    start,
                    slot.time.as_secs_f64(),
                ));
            }
            // One timeline frame per iteration with the siblings as lanes:
            // the lane spread is the paper's load-imbalance factor across
            // nests (what the thread allocation is meant to equalise).
            if !slots.is_empty() {
                let end = start + sibling_dt.as_secs_f64();
                rec.record_rank_step(
                    slots.len() as u32,
                    step_no,
                    -1,
                    start,
                    end,
                    0..slots.len() as u32,
                    |i| slots[i as usize].time.as_secs_f64(),
                    |_| 0.0,
                );
            }
        }
    }

    PhaseTimings {
        iterations,
        parent: parent_t,
        siblings: sibling_t,
        per_sibling,
        total: t_start.elapsed(),
    }
}

/// One sibling's buffers for a coupled iteration and the time its last
/// task took.
struct SiblingSlot {
    bc: BoundaryData,
    fb: FeedbackData,
    time: Duration,
}

impl SiblingSlot {
    /// One sibling's share of a coupled iteration: interpolate its
    /// boundary from the stepped parent, solve its `r` sub-steps on
    /// `threads` ([`NestedModel::solve_nest`]) and collect its feedback,
    /// timing all three.
    fn run(&mut self, parent: &ShallowWater, nest: &mut NestState, threads: usize) {
        let t = clock::now();
        interpolate_boundary_into(parent, &nest.geo, &mut self.bc);
        NestedModel::solve_nest(nest, &self.bc, threads);
        collect_feedback_into(&nest.solver, &nest.geo, &mut self.fb);
        self.time = t.elapsed();
    }
}

/// A wall-clock phase record: no network in the mini-app, so all message
/// counters stay zero and the phase duration is charged to `compute`.
fn phase_metrics(step: u64, phase: StepPhase, nest: i32, start: f64, dur: f64) -> StepMetrics {
    StepMetrics {
        step,
        phase,
        nest,
        domains: 1,
        start,
        end: start + dur,
        compute: dur,
        halo_wait: 0.0,
        bytes: 0.0,
        messages: 0,
        transfers: 0,
        hops: 0,
        stall: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nest::NestGeometry;

    fn model() -> NestedModel {
        let geos = [
            NestGeometry {
                ratio: 3,
                offset: (4, 4),
                nx: 30,
                ny: 30,
            },
            NestGeometry {
                ratio: 3,
                offset: (24, 24),
                nx: 30,
                ny: 30,
            },
        ];
        let mut m = NestedModel::new(44, 44, 3000.0, 100.0, &geos);
        m.add_depression(9.0, 9.0, -4.0, 2.5);
        m.add_depression(29.0, 29.0, -6.0, 3.0);
        m
    }

    #[test]
    fn parallel_step_matches_serial_bitwise() {
        let mut a = model();
        let mut b = model();
        for _ in 0..4 {
            a.parent.step();
            step_parallel(&mut b.parent, 4);
        }
        assert_eq!(a.parent.h, b.parent.h);
        assert_eq!(a.parent.hu, b.parent.hu);
    }

    #[test]
    fn strategies_bitwise_identical() {
        // The paper's strategies reorder independent work; results must not
        // change. (WRF itself guarantees this: sibling nests share no
        // state between synchronisation points.)
        let mut seq = model();
        let mut conc = model();
        run_iterations(&mut seq, 5, 4, &ThreadStrategy::Sequential);
        run_iterations(
            &mut conc,
            5,
            4,
            &ThreadStrategy::Concurrent {
                allocation: vec![2, 2],
            },
        );
        assert_eq!(seq.parent.h, conc.parent.h);
        for (a, b) in seq.nests.iter().zip(&conc.nests) {
            assert_eq!(a.solver.h, b.solver.h);
            assert_eq!(a.solver.hu, b.solver.hu);
            assert_eq!(a.solver.hv, b.solver.hv);
        }
    }

    #[test]
    fn threaded_run_matches_reference_coupled() {
        let mut reference = model();
        for _ in 0..3 {
            reference.step_coupled();
        }
        let mut threaded = model();
        run_iterations(&mut threaded, 3, 3, &ThreadStrategy::Sequential);
        assert_eq!(reference.parent.h, threaded.parent.h);
        assert_eq!(reference.nests[0].solver.h, threaded.nests[0].solver.h);
    }

    #[test]
    fn timings_populated() {
        let mut m = model();
        let t = run_iterations(&mut m, 2, 2, &ThreadStrategy::Sequential);
        assert_eq!(t.iterations, 2);
        assert!(t.total >= t.parent);
        assert_eq!(t.per_sibling.len(), 2);
        assert!(t.per_sibling.iter().all(|d| !d.is_zero()));
        assert!(t.per_iteration() > 0.0);
    }

    #[test]
    #[should_panic]
    fn concurrent_requires_allocation_per_sibling() {
        let mut m = model();
        run_iterations(
            &mut m,
            1,
            2,
            &ThreadStrategy::Concurrent {
                allocation: vec![2],
            },
        );
    }

    #[test]
    fn second_level_nests_bitwise_stable_across_strategies() {
        let build = || {
            let mut m = model();
            m.add_child_nest(
                0,
                NestGeometry {
                    ratio: 3,
                    offset: (4, 4),
                    nx: 24,
                    ny: 21,
                },
            );
            m.add_child_nest(
                1,
                NestGeometry {
                    ratio: 3,
                    offset: (6, 6),
                    nx: 18,
                    ny: 18,
                },
            );
            m
        };
        let mut reference = build();
        for _ in 0..3 {
            reference.step_coupled();
        }
        let mut seq = build();
        run_iterations(&mut seq, 3, 3, &ThreadStrategy::Sequential);
        let mut conc = build();
        run_iterations(
            &mut conc,
            3,
            3,
            &ThreadStrategy::Concurrent {
                allocation: vec![2, 1],
            },
        );
        assert_eq!(reference.parent.h, seq.parent.h);
        assert_eq!(seq.parent.h, conc.parent.h);
        for (a, b) in seq.nests.iter().zip(&conc.nests) {
            assert_eq!(a.solver.h, b.solver.h);
            for (ca, cb) in a.children.iter().zip(&b.children) {
                assert_eq!(ca.solver.h, cb.solver.h);
                assert!(ca.solver.cfl() < 1.0);
            }
        }
    }

    #[test]
    fn observed_run_records_phases_and_matches_unobserved() {
        let mut plain = model();
        let mut observed = model();
        run_iterations(&mut plain, 3, 2, &ThreadStrategy::Sequential);
        let mut rec = Recorder::new(nestwx_obs::ObsConfig::counters());
        let t = run_iterations_observed(&mut observed, 3, 2, &ThreadStrategy::Sequential, &mut rec);
        // Observation only reads clocks; the model state must be identical.
        assert_eq!(plain.parent.h, observed.parent.h);
        for (a, b) in plain.nests.iter().zip(&observed.nests) {
            assert_eq!(a.solver.h, b.solver.h);
        }
        // 3 iterations × (1 parent + 2 siblings) records.
        let s = rec.summary();
        assert_eq!(s.steps, 9);
        assert_eq!(s.per_nest.len(), 2);
        assert_eq!(s.per_nest[0].steps, 3);
        assert!(s.compute > 0.0);
        // Recorded compute covers the timed phases (same clock sources).
        let timed =
            t.parent.as_secs_f64() + t.per_sibling.iter().map(|d| d.as_secs_f64()).sum::<f64>();
        assert!((s.compute - timed).abs() < 0.5 * timed + 1e-6);
    }

    #[test]
    fn observed_run_fills_sibling_timeline_lanes() {
        let mut m = model();
        let mut rec = Recorder::new(nestwx_obs::ObsConfig::detailed());
        run_iterations_observed(&mut m, 3, 2, &ThreadStrategy::Sequential, &mut rec);
        let tl = rec.timeline().expect("detailed config has a timeline");
        // One frame per iteration, one lane per sibling nest.
        assert_eq!(tl.recorded_steps(), 3);
        assert_eq!(tl.lanes(), 2);
        for f in 0..tl.frames() {
            assert!(tl.frame_compute(f).iter().all(|&c| c > 0.0));
        }
        let analysis = rec.analysis();
        assert!(analysis.overall_imbalance >= 1.0);
    }

    #[test]
    fn tiny_domain_falls_back_to_serial() {
        // ny < 2×threads: no banding, still correct.
        let mut sw = ShallowWater::quiescent(8, 3, 1000.0, 50.0, crate::solver::Boundary::Periodic);
        sw.add_gaussian(4.0, 1.0, -1.0, 1.0);
        let mut reference = sw.clone();
        reference.step();
        step_parallel(&mut sw, 8);
        assert_eq!(sw.h, reference.h);
    }
}
