//! Real computation: two tropical depressions simulated with the threaded
//! shallow-water mini-app, comparing the sequential and concurrent sibling
//! strategies on actual OS threads.
//!
//! This is the §5 "generality" demonstration in miniature: the same
//! predict-allocate-execute pipeline that schedules WRF nests on a Blue
//! Gene drives thread allocation for any application with independent
//! subtasks inside a main simulation.
//!
//! ```text
//! cargo run --release --example miniwrf_storm
//! ```

use nestwx::core::threads::thread_allocation;
use nestwx::miniwrf::nest::NestGeometry;
use nestwx::miniwrf::solver::Boundary;
use nestwx::miniwrf::{run_iterations, NestedModel, ShallowWater, ThreadStrategy};

fn build_model() -> NestedModel {
    // 24 km parent over the Pacific (downscaled grid), two 8 km nests
    // tracking depressions of different sizes.
    let geos = [
        NestGeometry {
            ratio: 3,
            offset: (20, 20),
            nx: 240,
            ny: 210,
        },
        NestGeometry {
            ratio: 3,
            offset: (130, 110),
            nx: 150,
            ny: 132,
        },
    ];
    // Both depressions go on the parent before the nests are initialised
    // from it, once.
    let mut parent = ShallowWater::quiescent(260, 220, 24_000.0, 1000.0, Boundary::ZeroGradient);
    parent.add_gaussian(50.0, 45.0, -28.0, 9.0);
    parent.add_gaussian(150.0, 128.0, -20.0, 6.0);
    NestedModel::with_parent(parent, 1000.0, &geos)
}

fn main() {
    let iterations = 10;
    // At least one thread per sibling; on a single-core box the concurrent
    // strategy degrades to time-slicing (correctness still holds — and is
    // asserted below).
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .clamp(2, 8);
    println!("running {iterations} coupled iterations with {threads} worker threads\n");

    // Allocate threads proportionally to nest work (the thread analogue of
    // Algorithm 1). Nest cost ∝ points × r; both nests share r = 3.
    let ratios: Vec<f64> = build_model()
        .nests
        .iter()
        .map(|n| (n.geo.nx * n.geo.ny) as f64)
        .collect();
    let allocation = thread_allocation(&ratios, threads);
    println!("thread allocation (proportional to nest points): {allocation:?}");

    // Sequential: each nest on all threads, one after the other.
    let mut seq_model = build_model();
    let seq = run_iterations(
        &mut seq_model,
        iterations,
        threads,
        &ThreadStrategy::Sequential,
    );

    // Concurrent: both nests at once on their allocated thread groups.
    let mut conc_model = build_model();
    let conc = run_iterations(
        &mut conc_model,
        iterations,
        threads,
        &ThreadStrategy::Concurrent { allocation },
    );

    println!(
        "\nsequential:  total {:>8.3} s  ({:.3} s/iter; parent {:.3} s, nests {:.3} s)",
        seq.total.as_secs_f64(),
        seq.per_iteration(),
        seq.parent.as_secs_f64(),
        seq.siblings.as_secs_f64()
    );
    println!(
        "concurrent:  total {:>8.3} s  ({:.3} s/iter; parent {:.3} s, nests {:.3} s)",
        conc.total.as_secs_f64(),
        conc.per_iteration(),
        conc.parent.as_secs_f64(),
        conc.siblings.as_secs_f64()
    );
    println!(
        "improvement: {:.1} % of total wall-clock",
        (1.0 - conc.total.as_secs_f64() / seq.total.as_secs_f64()) * 100.0
    );

    // The two strategies reorder independent work only: identical physics.
    assert_eq!(
        seq_model.parent.h, conc_model.parent.h,
        "strategies must agree bitwise"
    );
    for (a, b) in seq_model.nests.iter().zip(&conc_model.nests) {
        assert_eq!(a.solver.h, b.solver.h);
    }
    println!("\nverified: sequential and concurrent results are bitwise identical.");
    println!(
        "storm centres deepened to {:.1} m (nest 1) / {:.1} m (nest 2) below rest depth",
        1000.0 - conc_model.nests[0].solver.h.get(120, 105).min(1000.0),
        1000.0 - conc_model.nests[1].solver.h.get(75, 66).min(1000.0),
    );
}
