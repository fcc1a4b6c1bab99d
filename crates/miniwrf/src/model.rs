//! The coupled parent-with-siblings model.

use crate::nest::{
    apply_boundary, feedback_to_parent, initialize_from_parent, interpolate_boundary, BoundaryData,
    NestGeometry,
};
use crate::runtime::step_parallel;
use crate::solver::{Boundary, ShallowWater};
use serde::{Deserialize, Serialize};

/// One sibling nest: geometry plus solver state, with optional second-level
/// children (the paper's §4.1.1 "sibling domains at the second level").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NestState {
    /// Placement and refinement (relative to this nest's parent).
    pub geo: NestGeometry,
    /// The nest's solver.
    pub solver: ShallowWater,
    /// Second-level nests inside this nest.
    pub children: Vec<NestState>,
}

/// A parent domain with sibling nests — the miniature analogue of the
/// paper's multi-region WRF configurations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NestedModel {
    /// The coarse parent solver.
    pub parent: ShallowWater,
    /// The sibling nests (all at nesting level 1).
    pub nests: Vec<NestState>,
    /// Parent iterations completed.
    pub iterations: u64,
}

impl NestedModel {
    /// Builds a parent of `nx × ny` cells at `dx` metres with quiescent
    /// depth `depth`, and spawns one nest per geometry, each initialised
    /// from the parent and time-stepped at `dt_parent / r`.
    pub fn new(nx: usize, ny: usize, dx: f64, depth: f64, nest_geos: &[NestGeometry]) -> Self {
        let parent = ShallowWater::quiescent(nx, ny, dx, depth, Boundary::ZeroGradient);
        NestedModel::with_parent(parent, depth, nest_geos)
    }

    /// [`NestedModel::new`] around an already-built parent, e.g. one with
    /// its depressions imprinted: each nest is initialised from it once.
    /// `depth` is the nests' quiescent depth, as in [`NestedModel::new`].
    pub fn with_parent(parent: ShallowWater, depth: f64, nest_geos: &[NestGeometry]) -> Self {
        let (nx, ny, dx) = (parent.nx, parent.ny, parent.dx);
        let mut model = NestedModel {
            parent,
            nests: Vec::with_capacity(nest_geos.len()),
            iterations: 0,
        };
        for geo in nest_geos {
            assert!(
                geo.offset.0 + geo.nx.div_ceil(geo.ratio) <= nx
                    && geo.offset.1 + geo.ny.div_ceil(geo.ratio) <= ny,
                "nest does not fit inside the parent"
            );
            let mut solver = ShallowWater::quiescent(
                geo.nx,
                geo.ny,
                dx / geo.ratio as f64,
                depth,
                Boundary::External,
            );
            solver.dt = model.parent.dt / geo.ratio as f64;
            initialize_from_parent(&model.parent, &mut solver, geo);
            model.nests.push(NestState {
                geo: *geo,
                solver,
                children: Vec::new(),
            });
        }
        model
    }

    /// Adds a depression (negative Gaussian) to the parent at parent
    /// coordinates, then re-initialises every nest from the parent: any
    /// nest state is discarded, and each call pays a full nest
    /// initialisation. To start from several depressions, add them to the
    /// parent solver first and build the model once with
    /// [`NestedModel::with_parent`].
    pub fn add_depression(&mut self, cx: f64, cy: f64, amp: f64, radius_cells: f64) {
        self.parent.add_gaussian(cx, cy, amp, radius_cells);
        for nest in &mut self.nests {
            initialize_from_parent(&self.parent, &mut nest.solver, &nest.geo);
        }
    }

    /// Pre-computes each nest's boundary data from the current parent state
    /// (after the parent step, before the nest solves — the
    /// "interpolated from the overlapping parent region" phase).
    pub fn boundaries(&self) -> Vec<BoundaryData> {
        self.nests
            .iter()
            .map(|n| interpolate_boundary(&self.parent, &n.geo))
            .collect()
    }

    /// Spawns a second-level nest inside first-level nest `parent_idx`.
    /// `geo` is relative to that nest's grid; the child steps at
    /// `dt_parent_nest / r` and is initialised from the enclosing nest.
    pub fn add_child_nest(&mut self, parent_idx: usize, geo: NestGeometry) {
        let host = &mut self.nests[parent_idx];
        assert!(
            geo.offset.0 + geo.nx.div_ceil(geo.ratio) <= host.geo.nx
                && geo.offset.1 + geo.ny.div_ceil(geo.ratio) <= host.geo.ny,
            "child nest does not fit inside its parent nest"
        );
        let mut solver = ShallowWater::quiescent(
            geo.nx,
            geo.ny,
            host.solver.dx / geo.ratio as f64,
            host.solver.h.get(0, 0),
            Boundary::External,
        );
        solver.dt = host.solver.dt / geo.ratio as f64;
        initialize_from_parent(&host.solver, &mut solver, &geo);
        host.children.push(NestState {
            geo,
            solver,
            children: Vec::new(),
        });
    }

    /// Solves one nest's `r` sub-steps given its boundary data on `threads`
    /// row bands, recursing into its second-level children after each
    /// sub-step (pure function of the nest — safe to run concurrently
    /// across siblings). Children share the nest's thread group, mirroring
    /// how they sub-divide their parent's processors in the planner; the
    /// state is bitwise independent of `threads`.
    pub fn solve_nest(nest: &mut NestState, bc: &BoundaryData, threads: usize) {
        for _ in 0..nest.geo.ratio {
            apply_boundary(&mut nest.solver, bc);
            step_parallel(&mut nest.solver, threads);
            let NestState {
                solver, children, ..
            } = nest;
            for child in children.iter_mut() {
                let cbc = interpolate_boundary(solver, &child.geo);
                for _ in 0..child.geo.ratio {
                    apply_boundary(&mut child.solver, &cbc);
                    step_parallel(&mut child.solver, threads);
                }
                feedback_to_parent(&child.solver, solver, &child.geo);
            }
        }
    }

    /// Applies all feedbacks in sibling order.
    pub fn apply_feedbacks(&mut self) {
        let NestedModel { parent, nests, .. } = self;
        for n in nests.iter() {
            feedback_to_parent(&n.solver, parent, &n.geo);
        }
        self.iterations += 1;
    }

    /// One fully-coupled single-threaded iteration (reference
    /// implementation; the threaded runtime must reproduce it bitwise).
    pub fn step_coupled(&mut self) {
        self.parent.step();
        let bcs = self.boundaries();
        for (nest, bc) in self.nests.iter_mut().zip(&bcs) {
            NestedModel::solve_nest(nest, bc, 1);
        }
        self.apply_feedbacks();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_sibling_model() -> NestedModel {
        let geos = [
            NestGeometry {
                ratio: 3,
                offset: (4, 4),
                nx: 24,
                ny: 24,
            },
            NestGeometry {
                ratio: 3,
                offset: (22, 22),
                nx: 24,
                ny: 24,
            },
        ];
        let mut m = NestedModel::new(40, 40, 3000.0, 100.0, &geos);
        m.add_depression(8.0, 8.0, -4.0, 2.5);
        m.add_depression(26.0, 26.0, -6.0, 3.0);
        m
    }

    #[test]
    fn nest_dt_is_parent_over_ratio() {
        let m = two_sibling_model();
        for n in &m.nests {
            assert!((n.solver.dt - m.parent.dt / 3.0).abs() < 1e-15);
        }
    }

    #[test]
    fn coupled_steps_stay_finite() {
        let mut m = two_sibling_model();
        for _ in 0..8 {
            m.step_coupled();
        }
        assert!(m.parent.h.max_abs().is_finite());
        for n in &m.nests {
            assert!(n.solver.h.max_abs().is_finite());
            assert!(n.solver.cfl() < 1.0);
        }
        assert_eq!(m.iterations, 8);
    }

    #[test]
    fn nests_track_parent_depression() {
        // After coupling steps, the nest interior must still resemble the
        // overlapping parent region (feedback keeps them consistent).
        let mut m = two_sibling_model();
        for _ in 0..5 {
            m.step_coupled();
        }
        let nest = &m.nests[0];
        let (pi, pj) = (nest.geo.offset.0 + 4, nest.geo.offset.1 + 4);
        let parent_val = m.parent.h.get(pi as isize, pj as isize);
        // Mean of that parent cell's fine cells (what feedback wrote).
        let mut mean = 0.0;
        for fj in 0..3 {
            for fi in 0..3 {
                mean += nest
                    .solver
                    .h
                    .get((4 * 3 + fi) as isize, (4 * 3 + fj) as isize);
            }
        }
        mean /= 9.0;
        assert!((parent_val - mean).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn rejects_oversized_nest() {
        let geos = [NestGeometry {
            ratio: 3,
            offset: (35, 35),
            nx: 30,
            ny: 30,
        }];
        NestedModel::new(40, 40, 3000.0, 100.0, &geos);
    }
}
