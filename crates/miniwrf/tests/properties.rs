//! Property-based tests of the shallow-water solver and nesting.

use nestwx_miniwrf::nest::{
    apply_boundary, feedback_to_parent, initialize_from_parent, interpolate_boundary, BoundaryData,
    NestGeometry,
};
use nestwx_miniwrf::runtime::step_parallel;
use nestwx_miniwrf::solver::{Boundary, Scheme, ShallowWater};
use nestwx_miniwrf::{run_iterations, NestedModel, ThreadStrategy};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Mass is conserved to round-off under periodic boundaries for any
    /// perturbation and any number of steps.
    #[test]
    fn mass_conserved(
        n in 12usize..48, cx_pct in 10u32..90, cy_pct in 10u32..90,
        amp in -8.0f64..-0.5, radius in 1.5f64..5.0, steps in 1u32..40,
    ) {
        let mut sw = ShallowWater::quiescent(n, n, 1000.0, 100.0, Boundary::Periodic);
        sw.add_gaussian(
            n as f64 * cx_pct as f64 / 100.0,
            n as f64 * cy_pct as f64 / 100.0,
            amp,
            radius,
        );
        let m0 = sw.mass();
        for _ in 0..steps {
            sw.step();
        }
        prop_assert!((sw.mass() - m0).abs() / m0 < 1e-9);
        prop_assert!(sw.cfl() < 1.0);
    }

    /// Banded (threaded) stepping is bitwise identical to serial stepping
    /// for any grid shape, band count, boundary and scheme, with rotation
    /// on. Up to 8 bands: uneven bands and the `ny < 2·threads` serial
    /// fallback both occur. A concurrent run of three `nx × ny` siblings,
    /// one with a child nest, equals the single-threaded reference
    /// iteration (`step_coupled`).
    #[test]
    fn threading_bitwise_stable(
        nx in 6usize..40, ny in 6usize..40, threads in 2usize..=8, steps in 1u32..8,
    ) {
        // Fixed Dirichlet data for the External case, varying along the ring.
        let mut ring = Vec::new();
        for i in -1..=nx as isize {
            ring.extend([(i, -1), (i, ny as isize)]);
        }
        for j in 0..ny as isize {
            ring.extend([(-1, j), (nx as isize, j)]);
        }
        let bc = BoundaryData::from_cells(
            ring.into_iter()
                .map(|(i, j)| (i, j, 1000.0 - 0.01 * (i + 2 * j) as f64, 0.5, -0.3))
                .collect(),
        );
        for boundary in [Boundary::Periodic, Boundary::ZeroGradient, Boundary::External] {
            for scheme in [Scheme::LaxFriedrichs, Scheme::LaxWendroff] {
                let mut serial = ShallowWater::quiescent(nx, ny, 20_000.0, 1000.0, boundary)
                    .with_scheme(scheme)
                    .with_coriolis(1e-4);
                serial.add_gaussian(nx as f64 / 2.0, ny as f64 / 3.0, -5.0, 3.0);
                let mut banded = serial.clone();
                for _ in 0..steps {
                    if boundary == Boundary::External {
                        apply_boundary(&mut serial, &bc);
                        apply_boundary(&mut banded, &bc);
                    }
                    serial.step();
                    step_parallel(&mut banded, threads);
                }
                prop_assert_eq!(&serial, &banded, "{:?} {:?}", boundary, scheme);
            }
        }

        let geo = |offset, nx, ny| NestGeometry { ratio: 3, offset, nx, ny };
        let mut reference = NestedModel::new(
            30,
            30,
            20_000.0,
            1000.0,
            &[geo((1, 1), nx, ny), geo((15, 2), nx, ny), geo((1, 16), nx, ny)],
        );
        reference.add_depression(7.0, 6.0, -6.0, 2.5);
        reference.add_depression(20.0, 20.0, -4.0, 3.0);
        reference.add_child_nest(1, geo((1, 1), nx, ny));
        let mut concurrent = reference.clone();
        for _ in 0..steps {
            reference.step_coupled();
        }
        let allocation = vec![1 + threads % 2, threads / 2, 1];
        run_iterations(
            &mut concurrent,
            steps,
            threads,
            &ThreadStrategy::Concurrent { allocation },
        );
        prop_assert_eq!(&reference, &concurrent, "concurrent siblings on {} threads", threads);
    }

    /// Zero-gradient runs remain bounded: no value exceeds the initial
    /// extremes by more than a small overshoot factor (Lax–Friedrichs is
    /// diffusive).
    #[test]
    fn bounded_evolution(n in 16usize..40, amp in -10.0f64..-1.0, steps in 1u32..30) {
        let mut sw = ShallowWater::quiescent(n, n, 1000.0, 100.0, Boundary::ZeroGradient);
        sw.add_gaussian(n as f64 / 2.0, n as f64 / 2.0, amp, 3.0);
        for _ in 0..steps {
            sw.step();
        }
        let max = sw.h.max_abs();
        prop_assert!(max.is_finite());
        prop_assert!(max < 100.0 + amp.abs() * 1.5 + 1.0);
        prop_assert!(max > 50.0);
    }

    /// Feedback after initialisation is the identity on the covered parent
    /// region (restriction ∘ prolongation = id for cell means of bilinear
    /// data is not exact in general, but is for constants and near-exact
    /// for smooth fields).
    #[test]
    fn feedback_near_identity_on_smooth_fields(off in 2usize..6, r in 2usize..4) {
        let mut parent = ShallowWater::quiescent(24, 24, 3000.0, 100.0, Boundary::ZeroGradient);
        parent.add_gaussian(12.0, 12.0, -6.0, 6.0);
        let before = parent.h.clone();
        let geo = NestGeometry { ratio: r, offset: (off, off), nx: 10 * r, ny: 10 * r };
        let mut nest =
            ShallowWater::quiescent(10 * r, 10 * r, 3000.0 / r as f64, 100.0, Boundary::External);
        initialize_from_parent(&parent, &mut nest, &geo);
        feedback_to_parent(&nest, &mut parent, &geo);
        // Interior parent cells change by < 1% of the perturbation.
        for j in (off + 1)..(off + 9) {
            for i in (off + 1)..(off + 9) {
                let a = before.get(i as isize, j as isize);
                let b = parent.h.get(i as isize, j as isize);
                prop_assert!((a - b).abs() < 0.15, "feedback changed ({i},{j}): {a} → {b}");
            }
        }
    }

    /// The boundary ring interpolated from a constant parent is constant.
    #[test]
    fn boundary_of_constant_parent_is_constant(nx in 6usize..30, ny in 6usize..30) {
        let parent = ShallowWater::quiescent(40, 40, 3000.0, 77.0, Boundary::ZeroGradient);
        let geo = NestGeometry { ratio: 3, offset: (3, 3), nx, ny };
        prop_assume!(3 + nx.div_ceil(3) <= 40 && 3 + ny.div_ceil(3) <= 40);
        let bc = interpolate_boundary(&parent, &geo);
        let mut nest = ShallowWater::quiescent(nx, ny, 1000.0, 77.0, Boundary::External);
        nestwx_miniwrf::nest::apply_boundary(&mut nest, &bc);
        for i in -1..=(nx as isize) {
            prop_assert!((nest.h.get(i, -1) - 77.0).abs() < 1e-9);
            prop_assert!((nest.h.get(i, ny as isize) - 77.0).abs() < 1e-9);
        }
    }
}
