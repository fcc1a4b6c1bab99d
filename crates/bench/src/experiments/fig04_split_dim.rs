//! Fig. 4 — Why Algorithm 1 splits along the longer dimension: the
//! resulting rectangles are more square-like, balancing x- and
//! y-communication volumes.

use crate::{banner, Opts};
use nestwx_alloc::metrics::mean_squareness;
use nestwx_alloc::partition::{partition_grid_with, SplitDim};
use nestwx_grid::ProcGrid;

pub(crate) fn run(_: &Opts) -> String {
    let mut out = banner(
        "fig04",
        "first split along longer vs shorter dimension (k = 3)",
    );
    let grid = ProcGrid::new(48, 24);
    let ratios = [0.4, 0.35, 0.25];
    for (label, dim) in [
        ("longer (paper, Fig. 4a)", SplitDim::Longer),
        ("shorter (Fig. 4b)", SplitDim::Shorter),
    ] {
        let parts = partition_grid_with(&grid, &ratios, dim).unwrap();
        out += &format!("\nfirst split along the {label}:\n");
        for p in &parts {
            out += &format!(
                "  nest {}: {:>2}x{:<2} (squareness {:.2})\n",
                p.domain + 1,
                p.rect.w,
                p.rect.h,
                p.rect.squareness()
            );
        }
        out += &format!("  mean squareness: {:.3}\n", mean_squareness(&parts));
    }
    out += "\nPaper: \"rectangle 3 is more square-like in Fig. 4(a) than in Fig. 4(b)\".\n";
    out
}
