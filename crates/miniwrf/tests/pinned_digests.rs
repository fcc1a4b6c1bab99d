//! Absolute solver digests, pinned.
//!
//! Every other bitwise check in this crate is relative (serial vs banded,
//! sequential vs concurrent, fleet vs in-process): a kernel change that
//! moved every bit the same way would pass all of them. These hex values
//! were captured from the cell-by-cell reference kernel; any change to the
//! solver's arithmetic, its banding or its Coriolis pass moves them.

use nestwx_miniwrf::nest::{apply_boundary, BoundaryData, NestGeometry};
use nestwx_miniwrf::runtime::step_parallel;
use nestwx_miniwrf::solver::{Boundary, Scheme, ShallowWater};
use nestwx_miniwrf::{run_iterations, solver_digest, NestedModel, ThreadStrategy};

fn hex(s: &ShallowWater) -> String {
    format!("{:016x}", solver_digest(s))
}

/// `tests/miniwrf_equivalence.rs`'s storm model plus one second-level nest.
fn storm_model_with_child() -> NestedModel {
    let geo = |offset, nx, ny| NestGeometry {
        ratio: 3,
        offset,
        nx,
        ny,
    };
    let mut m = NestedModel::new(
        60,
        54,
        24_000.0,
        1000.0,
        &[geo((6, 6), 45, 39), geo((32, 30), 36, 30)],
    );
    m.add_depression(13.0, 12.0, -18.0, 3.0);
    m.add_depression(38.0, 35.0, -12.0, 2.5);
    m.add_child_nest(0, geo((4, 4), 24, 21));
    m
}

#[test]
fn coupled_model_digests_are_pinned() {
    let runs = [
        (ThreadStrategy::Sequential, 1),
        (ThreadStrategy::Sequential, 3),
        (
            ThreadStrategy::Concurrent {
                allocation: vec![1, 2],
            },
            2,
        ),
    ];
    for (strategy, threads) in runs {
        let mut m = storm_model_with_child();
        run_iterations(&mut m, 25, threads, &strategy);
        let digests = [
            hex(&m.parent),
            hex(&m.nests[0].solver),
            hex(&m.nests[0].children[0].solver),
            hex(&m.nests[1].solver),
        ];
        assert_eq!(
            digests,
            [
                "724bbc9bf3c2a8ba",
                "5f99a36c0de9461b",
                "54bfc922314e2aef",
                "19e536e91af90c96"
            ],
            "{strategy:?} on {threads} threads"
        );
    }
}

#[test]
fn standalone_solver_digests_are_pinned() {
    let cases = [
        (
            Scheme::LaxFriedrichs,
            Boundary::Periodic,
            0.0,
            "96fc932794ee05aa",
        ),
        (
            Scheme::LaxWendroff,
            Boundary::Periodic,
            1e-4,
            "c4be63d59bb7380d",
        ),
        (
            Scheme::LaxFriedrichs,
            Boundary::ZeroGradient,
            2e-4,
            "b15e8fc238990416",
        ),
        (
            Scheme::LaxFriedrichs,
            Boundary::External,
            1e-4,
            "d6e3165d4c5a229e",
        ),
    ];
    let (nx, ny) = (50, 37);
    let ring = fixed_ring(nx, ny);
    for (scheme, boundary, f, want) in cases {
        let mut sw = ShallowWater::quiescent(nx, ny, 20_000.0, 1000.0, boundary)
            .with_scheme(scheme)
            .with_coriolis(f);
        sw.add_gaussian(20.0, 15.0, -10.0, 5.0);
        for k in 0..40 {
            if boundary == Boundary::External {
                apply_boundary(&mut sw, &ring);
            }
            if k % 2 == 0 {
                sw.step();
            } else {
                step_parallel(&mut sw, 3);
            }
        }
        assert_eq!(hex(&sw), want, "{scheme:?} {boundary:?} f={f}");
    }
}

/// `properties.rs::threading_bitwise_stable`'s Dirichlet ring: fixed data
/// varying along the halo ring of an `nx × ny` grid.
fn fixed_ring(nx: usize, ny: usize) -> BoundaryData {
    let (nx, ny) = (nx as isize, ny as isize);
    let ring = (-1..=nx)
        .flat_map(|i| [(i, -1), (i, ny)])
        .chain((0..ny).flat_map(|j| [(-1, j), (nx, j)]));
    BoundaryData::from_cells(
        ring.map(|(i, j)| (i, j, 1000.0 - 0.01 * (i + 2 * j) as f64, 0.5, -0.3))
            .collect(),
    )
}
