//! Forecast archival: a two-level nested storm simulation writing periodic
//! history frames — the miniature analogue of the paper's high-frequency
//! output scenario (§4.5), with the I/O share of wall-clock reported like
//! Fig. 14.
//!
//! ```text
//! cargo run --release --example storm_archive
//! ```

use nestwx::miniwrf::nest::NestGeometry;
use nestwx::miniwrf::output::read_frame_h;
use nestwx::miniwrf::solver::Boundary;
use nestwx::miniwrf::{run_iterations, HistoryWriter, NestedModel, ShallowWater, ThreadStrategy};
use std::time::Instant;

fn main() -> std::io::Result<()> {
    // Parent storm basin with one tracked depression; a second-level nest
    // zooms into the storm core.
    let geos = [NestGeometry {
        ratio: 3,
        offset: (12, 10),
        nx: 90,
        ny: 84,
    }];
    let mut parent = ShallowWater::quiescent(80, 70, 24_000.0, 1000.0, Boundary::ZeroGradient);
    parent.add_gaussian(25.0, 22.0, -25.0, 6.0);
    let mut model = NestedModel::with_parent(parent, 1000.0, &geos);
    model.add_child_nest(
        0,
        NestGeometry {
            ratio: 3,
            offset: (25, 22),
            nx: 60,
            ny: 54,
        },
    );

    let dir = std::env::temp_dir().join(format!("nestwx_storm_archive_{}", std::process::id()));
    let mut writer = HistoryWriter::new(&dir, 2)?;

    let iterations = 12;
    let t0 = Instant::now();
    for _ in 0..iterations {
        run_iterations(&mut model, 1, 2, &ThreadStrategy::Sequential);
        writer.maybe_write(&model)?;
    }
    let wall = t0.elapsed();

    println!("simulated {iterations} iterations of an 80x70 basin (24 km) with a");
    println!("two-level nest (8 km core, 2.7 km inner core)\n");
    println!(
        "history frames : {} ({} files, {:.1} MiB)",
        writer.stats.frames,
        std::fs::read_dir(&dir)?.count(),
        writer.stats.bytes as f64 / (1024.0 * 1024.0)
    );
    println!(
        "integration    : {:.3} s",
        (wall - writer.stats.elapsed).as_secs_f64()
    );
    println!(
        "output         : {:.3} s ({:.1} % of wall-clock — the Fig. 14 fraction)",
        writer.stats.elapsed.as_secs_f64(),
        writer.stats.elapsed.as_secs_f64() / wall.as_secs_f64() * 100.0
    );

    // Read a frame back and locate the storm core in the inner nest.
    let inner = dir.join(format!("nest0_{:05}_c0.csv", model.iterations));
    let (nx, ny, h) = read_frame_h(&inner)?;
    let (mut min_v, mut min_at) = (f64::INFINITY, (0usize, 0usize));
    for j in 0..ny {
        for i in 0..nx {
            if h[j * nx + i] < min_v {
                min_v = h[j * nx + i];
                min_at = (i, j);
            }
        }
    }
    println!(
        "\ninner-core frame {}x{}: storm centre at cell {:?}, depth {:.2} m below rest",
        nx,
        ny,
        min_at,
        1000.0 - min_v
    );
    println!("frames archived under {}", dir.display());
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
