//! Parent ↔ nest coupling: boundary interpolation and feedback.
//!
//! Exactly WRF's two-way nesting data flow (§1 of the paper): "At the
//! beginning of each nested simulation, data for each finer resolution
//! smaller region is interpolated from the overlapping parent region. At the
//! end of r integration steps, data from the finer region is communicated to
//! the parent region."

use crate::solver::ShallowWater;

/// Geometric placement of a nest inside its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NestGeometry {
    /// Refinement ratio `r`.
    pub ratio: usize,
    /// Parent cell (i, j) of the nest's lower-left interior cell.
    pub offset: (usize, usize),
    /// Nest interior width (fine cells).
    pub nx: usize,
    /// Nest interior height (fine cells).
    pub ny: usize,
}

impl NestGeometry {
    /// Parent-grid coordinates (continuous) of fine cell `(i, j)`.
    /// Fine cell centres subdivide each parent cell into `r × r`.
    fn parent_coords(&self, i: isize, j: isize) -> (f64, f64) {
        let r = self.ratio as f64;
        (
            self.offset.0 as f64 + (i as f64 + 0.5) / r - 0.5,
            self.offset.1 as f64 + (j as f64 + 0.5) / r - 0.5,
        )
    }

    /// Footprint of the nest in whole parent cells `(i0, j0, w, h)`.
    pub fn parent_footprint(&self) -> (usize, usize, usize, usize) {
        (
            self.offset.0,
            self.offset.1,
            self.nx.div_ceil(self.ratio),
            self.ny.div_ceil(self.ratio),
        )
    }
}

/// Bilinearly samples `h/hu/hv` of `sw` at continuous interior
/// coordinates, clamped to the valid range (the parent halo is one cell,
/// enough for clamped sampling). The position and weights are computed once
/// and read for all three fields.
fn bilinear(sw: &ShallowWater, x: f64, y: f64) -> [f64; 3] {
    let (nx, ny) = (sw.nx, sw.ny);
    let xc = x.clamp(0.0, (nx - 1) as f64);
    let yc = y.clamp(0.0, (ny - 1) as f64);
    let (i0, j0) = (xc.floor() as isize, yc.floor() as isize);
    let (fx, fy) = (xc - i0 as f64, yc - j0 as f64);
    let i1 = (i0 + 1).min(nx as isize - 1);
    let j1 = (j0 + 1).min(ny as isize - 1);
    [&sw.h, &sw.hu, &sw.hv].map(|f| {
        let v00 = f.get(i0, j0);
        let v10 = f.get(i1, j0);
        let v01 = f.get(i0, j1);
        let v11 = f.get(i1, j1);
        v00 * (1.0 - fx) * (1.0 - fy)
            + v10 * fx * (1.0 - fy)
            + v01 * (1.0 - fx) * fy
            + v11 * fx * fy
    })
}

/// Precomputed Dirichlet boundary data for one nest step: the halo-ring
/// values of each prognostic field, interpolated from the parent.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundaryData {
    /// Halo values keyed `(i, j)` over the halo ring.
    ring: Vec<(isize, isize, f64, f64, f64)>,
}

impl BoundaryData {
    /// The halo-ring cells as `(i, j, h, hu, hv)`, in the deterministic
    /// order [`interpolate_boundary`] produced them. Transports serialize
    /// this slice verbatim (f64 bit patterns included) so a remote
    /// [`apply_boundary`] writes exactly the bytes a local one would.
    pub fn cells(&self) -> &[(isize, isize, f64, f64, f64)] {
        &self.ring
    }

    /// Rebuilds boundary data from transported cells (inverse of
    /// [`BoundaryData::cells`]).
    pub fn from_cells(ring: Vec<(isize, isize, f64, f64, f64)>) -> BoundaryData {
        BoundaryData { ring }
    }

    /// An empty ring with room for `geo`'s `2(nx + 2) + 2·ny` halo cells.
    pub(crate) fn for_nest(geo: &NestGeometry) -> BoundaryData {
        BoundaryData {
            ring: Vec::with_capacity(2 * (geo.nx + 2) + 2 * geo.ny),
        }
    }
}

/// Two-way feedback data for one nest iteration: the parent-cell writes
/// (`r × r` fine-cell means) that [`feedback_to_parent`] would perform,
/// captured so they can cross a process boundary bit-exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedbackData {
    /// Parent-cell writes as `(i, j, h, hu, hv)`, in footprint row-major
    /// order.
    cells: Vec<(isize, isize, f64, f64, f64)>,
}

impl FeedbackData {
    /// The parent-cell writes as `(i, j, h, hu, hv)`.
    pub fn cells(&self) -> &[(isize, isize, f64, f64, f64)] {
        &self.cells
    }

    /// Rebuilds feedback data from transported cells.
    pub fn from_cells(cells: Vec<(isize, isize, f64, f64, f64)>) -> FeedbackData {
        FeedbackData { cells }
    }

    /// Empty feedback with room for one write per parent cell of `geo`'s
    /// footprint.
    pub(crate) fn for_nest(geo: &NestGeometry) -> FeedbackData {
        let (_, _, pw, ph) = geo.parent_footprint();
        FeedbackData {
            cells: Vec::with_capacity(pw * ph),
        }
    }
}

/// Interpolates the nest's halo-ring boundary conditions from the parent
/// state (call after the parent's step, before the nest's sub-steps).
pub fn interpolate_boundary(parent: &ShallowWater, geo: &NestGeometry) -> BoundaryData {
    let mut bc = BoundaryData::for_nest(geo);
    interpolate_boundary_into(parent, geo, &mut bc);
    bc
}

/// [`interpolate_boundary`] into `bc`'s buffer, replacing its cells.
pub(crate) fn interpolate_boundary_into(
    parent: &ShallowWater,
    geo: &NestGeometry,
    bc: &mut BoundaryData,
) {
    let (nx, ny) = (geo.nx as isize, geo.ny as isize);
    let ring = &mut bc.ring;
    ring.clear();
    let mut push = |i: isize, j: isize| {
        let (x, y) = geo.parent_coords(i, j);
        let [h, hu, hv] = bilinear(parent, x, y);
        ring.push((i, j, h, hu, hv));
    };
    for i in -1..=nx {
        push(i, -1);
        push(i, ny);
    }
    for j in 0..ny {
        push(-1, j);
        push(nx, j);
    }
}

/// Writes precomputed boundary data into the nest's halo cells.
pub fn apply_boundary(nest: &mut ShallowWater, bc: &BoundaryData) {
    for &(i, j, h, hu, hv) in &bc.ring {
        nest.h.set(i, j, h);
        nest.hu.set(i, j, hu);
        nest.hv.set(i, j, hv);
    }
}

/// Initialises the whole nest interior from the parent by bilinear
/// interpolation (nest spawn).
pub fn initialize_from_parent(parent: &ShallowWater, nest: &mut ShallowWater, geo: &NestGeometry) {
    debug_assert_eq!(nest.nx, geo.nx);
    debug_assert_eq!(nest.ny, geo.ny);
    for j in 0..geo.ny as isize {
        for i in 0..geo.nx as isize {
            let (x, y) = geo.parent_coords(i, j);
            let [h, hu, hv] = bilinear(parent, x, y);
            nest.h.set(i, j, h);
            nest.hu.set(i, j, hu);
            nest.hv.set(i, j, hv);
        }
    }
}

/// Computes the feedback writes for one nest: each parent cell covered by
/// the nest receives the mean of its `r × r` fine cells. Pure function of
/// the nest state, so a remote worker can compute it and ship the cells;
/// [`apply_feedback`] on the parent side then reproduces exactly what
/// [`feedback_to_parent`] would have written in-process.
pub fn collect_feedback(nest: &ShallowWater, geo: &NestGeometry) -> FeedbackData {
    let mut fb = FeedbackData::for_nest(geo);
    collect_feedback_into(nest, geo, &mut fb);
    fb
}

/// [`collect_feedback`] into `fb`'s buffer, replacing its cells.
pub(crate) fn collect_feedback_into(
    nest: &ShallowWater,
    geo: &NestGeometry,
    fb: &mut FeedbackData,
) {
    let r = geo.ratio;
    let (pi0, pj0, pw, ph) = geo.parent_footprint();
    let cells = &mut fb.cells;
    cells.clear();
    // One accumulator per parent cell of the footprint row. Each fine row
    // is swept once, left to right, so every parent cell still sums its
    // fine cells in `(fj, fi)` order.
    let mut sums = vec![[0.0f64; 3]; pw];
    for pj in 0..ph {
        sums.fill([0.0; 3]);
        let fine_rows = pj * r..((pj + 1) * r).min(geo.ny);
        let n_rows = fine_rows.len();
        for j in fine_rows {
            let [h, hu, hv] = [&nest.h, &nest.hu, &nest.hv].map(|f| &f.row(j as isize)[1..=geo.nx]);
            let fine = h.chunks(r).zip(hu.chunks(r)).zip(hv.chunks(r));
            for (acc, ((h, hu), hv)) in sums.iter_mut().zip(fine) {
                for ((h, hu), hv) in h.iter().zip(hu).zip(hv) {
                    acc[0] += h;
                    acc[1] += hu;
                    acc[2] += hv;
                }
            }
        }
        let gj = (pj0 + pj) as isize;
        for (pi, acc) in sums.iter().enumerate() {
            let n = (r.min(geo.nx - pi * r) * n_rows) as f64;
            cells.push(((pi0 + pi) as isize, gj, acc[0] / n, acc[1] / n, acc[2] / n));
        }
    }
}

/// Writes precomputed feedback cells into the parent.
pub fn apply_feedback(parent: &mut ShallowWater, fb: &FeedbackData) {
    for &(i, j, h, hu, hv) in &fb.cells {
        parent.h.set(i, j, h);
        parent.hu.set(i, j, hu);
        parent.hv.set(i, j, hv);
    }
}

/// Two-way feedback: each parent cell covered by the nest receives the mean
/// of its `r × r` fine cells ([`collect_feedback`] + [`apply_feedback`]).
pub fn feedback_to_parent(nest: &ShallowWater, parent: &mut ShallowWater, geo: &NestGeometry) {
    apply_feedback(parent, &collect_feedback(nest, geo));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::Boundary;

    fn parent_with_gradient() -> ShallowWater {
        let mut p = ShallowWater::quiescent(20, 20, 3000.0, 100.0, Boundary::ZeroGradient);
        for j in 0..20 {
            for i in 0..20 {
                p.h.set(i, j, 100.0 + i as f64 + 0.5 * j as f64);
            }
        }
        p
    }

    fn geo() -> NestGeometry {
        NestGeometry {
            ratio: 3,
            offset: (5, 5),
            nx: 18,
            ny: 18,
        }
    }

    #[test]
    fn bilinear_exact_on_linear_fields() {
        // Bilinear interpolation reproduces linear functions exactly, so a
        // nest initialised from a linear parent is itself linear.
        let p = parent_with_gradient();
        let g = geo();
        let mut nest = ShallowWater::quiescent(18, 18, 1000.0, 100.0, Boundary::External);
        initialize_from_parent(&p, &mut nest, &g);
        // Fine cell (0,0) sits at parent coords (5 + 1/6 - 1/2, …).
        let (x, y) = (5.0 + 0.5 / 3.0 - 0.5, 5.0 + 0.5 / 3.0 - 0.5);
        let expect = 100.0 + x + 0.5 * y;
        assert!((nest.h.get(0, 0) - expect).abs() < 1e-10);
        // And a mid-nest cell.
        let (x, y) = (5.0 + 9.5 / 3.0 - 0.5, 5.0 + 4.5 / 3.0 - 0.5);
        let expect = 100.0 + x + 0.5 * y;
        assert!((nest.h.get(9, 4) - expect).abs() < 1e-10);
    }

    #[test]
    fn boundary_ring_covers_halo() {
        let p = parent_with_gradient();
        let g = geo();
        let bc = interpolate_boundary(&p, &g);
        // Ring size: 2(nx+2) + 2·ny cells.
        assert_eq!(bc.ring.len(), 2 * (18 + 2) + 2 * 18);
        let mut nest = ShallowWater::quiescent(18, 18, 1000.0, 100.0, Boundary::External);
        apply_boundary(&mut nest, &bc);
        // A halo cell now carries interpolated (not initial) data.
        assert!((nest.h.get(-1, 0) - 100.0).abs() > 0.1);
    }

    #[test]
    fn feedback_restores_constant_field() {
        // Nest initialised from a *constant* parent feeds back the same
        // constant: round-trip identity.
        let mut p = ShallowWater::quiescent(20, 20, 3000.0, 100.0, Boundary::ZeroGradient);
        let g = geo();
        let mut nest = ShallowWater::quiescent(18, 18, 1000.0, 100.0, Boundary::External);
        initialize_from_parent(&p, &mut nest, &g);
        feedback_to_parent(&nest, &mut p, &g);
        for j in 0..20 {
            for i in 0..20 {
                assert!((p.h.get(i, j) - 100.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn feedback_averages_fine_cells() {
        let mut p = ShallowWater::quiescent(20, 20, 3000.0, 100.0, Boundary::ZeroGradient);
        let g = NestGeometry {
            ratio: 2,
            offset: (3, 3),
            nx: 4,
            ny: 4,
        };
        let mut nest = ShallowWater::quiescent(4, 4, 1500.0, 1.0, Boundary::External);
        // Fine cells of parent cell (3,3): values 1,2,3,4 → mean 2.5.
        nest.h.set(0, 0, 1.0);
        nest.h.set(1, 0, 2.0);
        nest.h.set(0, 1, 3.0);
        nest.h.set(1, 1, 4.0);
        feedback_to_parent(&nest, &mut p, &g);
        assert!((p.h.get(3, 3) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn feedback_matches_cellwise_means_on_ragged_footprints() {
        // 20 × 17 fine cells at r = 3: the last parent column and row cover
        // 2 fine columns and 2 fine rows. Reference: per parent cell, sum its
        // fine cells in `(fj, fi)` order with `get`, then divide.
        let g = NestGeometry {
            ratio: 3,
            offset: (2, 4),
            nx: 20,
            ny: 17,
        };
        let mut nest = ShallowWater::quiescent(20, 17, 1000.0, 100.0, Boundary::External);
        for j in 0..17 {
            for i in 0..20 {
                let x = (i * 31 + j * 17) as f64;
                nest.h.set(i, j, 100.0 + (0.37 * x).sin());
                nest.hu.set(i, j, (0.11 * x).cos() / 3.0);
                nest.hv.set(i, j, -(0.07 * x).sin() / 7.0);
            }
        }
        let (pi0, pj0, pw, ph) = g.parent_footprint();
        let mut expect = Vec::new();
        for pj in 0..ph {
            for pi in 0..pw {
                let (mut sums, mut n) = ([0.0f64; 3], 0u32);
                for fj in 0..3 {
                    for fi in 0..3 {
                        let (i, j) = ((pi * 3 + fi) as isize, (pj * 3 + fj) as isize);
                        if i < 20 && j < 17 {
                            sums[0] += nest.h.get(i, j);
                            sums[1] += nest.hu.get(i, j);
                            sums[2] += nest.hv.get(i, j);
                            n += 1;
                        }
                    }
                }
                let n = n as f64;
                let (gi, gj) = ((pi0 + pi) as isize, (pj0 + pj) as isize);
                expect.push((gi, gj, sums[0] / n, sums[1] / n, sums[2] / n));
            }
        }
        let got = collect_feedback(&nest, &g);
        let bits = |c: &[(isize, isize, f64, f64, f64)]| -> Vec<_> {
            c.iter()
                .map(|&(i, j, h, hu, hv)| (i, j, h.to_bits(), hu.to_bits(), hv.to_bits()))
                .collect()
        };
        assert_eq!(bits(got.cells()), bits(&expect));
    }

    #[test]
    fn nested_step_remains_stable() {
        // Full coupling cycle: parent step, interp boundary, r nest steps,
        // feedback — values stay finite and near the rest depth.
        let mut p = ShallowWater::quiescent(30, 30, 3000.0, 100.0, Boundary::ZeroGradient);
        p.add_gaussian(15.0, 15.0, -5.0, 3.0);
        let g = NestGeometry {
            ratio: 3,
            offset: (10, 10),
            nx: 30,
            ny: 30,
        };
        let mut nest = ShallowWater::quiescent(30, 30, 1000.0, 100.0, Boundary::External);
        initialize_from_parent(&p, &mut nest, &g);
        for _ in 0..10 {
            p.step();
            let bc = interpolate_boundary(&p, &g);
            for _ in 0..3 {
                apply_boundary(&mut nest, &bc);
                nest.step();
            }
            feedback_to_parent(&nest, &mut p, &g);
        }
        assert!(p.h.max_abs().is_finite());
        assert!(nest.h.max_abs() < 120.0 && nest.h.max_abs() > 80.0);
    }
}
