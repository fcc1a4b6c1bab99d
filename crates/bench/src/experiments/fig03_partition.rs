//! Fig. 3(b) — Partitions of the processor space in the ratio of execution
//! times 0.15 : 0.3 : 0.35 : 0.2, rendered as ASCII art.

use crate::{banner, Opts};
use nestwx_alloc::partition_grid;
use nestwx_grid::ProcGrid;

pub(crate) fn run(_: &Opts) -> String {
    let mut out = banner(
        "fig03",
        "processor-space partitioning for ratios 0.15:0.3:0.35:0.2",
    );
    let grid = ProcGrid::new(32, 32);
    let ratios = [0.15, 0.3, 0.35, 0.2];
    let parts = partition_grid(&grid, &ratios).unwrap();

    // Paint the grid.
    let mut canvas = vec![vec![' '; grid.px as usize]; grid.py as usize];
    for p in &parts {
        let c = char::from(b'1' + p.domain as u8);
        for (x, y) in p.rect.cells() {
            canvas[y as usize][x as usize] = c;
        }
    }
    for line in canvas {
        out += &format!("  {}\n", line.iter().collect::<String>());
    }
    out += "\n";
    for (p, r) in parts.iter().zip(&ratios) {
        out += &format!(
            "  nest {}: {:>3} processors ({:.1}% of 1024, target {:.0}%)  rect {}x{} at ({},{})  squareness {:.2}\n",
            p.domain + 1,
            p.rect.area(),
            p.rect.area() as f64 / 1024.0 * 100.0,
            r * 100.0,
            p.rect.w,
            p.rect.h,
            p.rect.x0,
            p.rect.y0,
            p.rect.squareness()
        );
    }
    out
}
