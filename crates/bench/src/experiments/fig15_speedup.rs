//! Fig. 15 — Scalability and speedup of the default sequential strategy and
//! the concurrent strategy, two 259×229 siblings, 32 … 1024 BG/L cores.
//!
//! Paper: both approaches share the same saturation limit, the concurrent
//! strategy is faster at every core count, and its speedup pulls ahead at
//! high core counts (the simulation stops scaling beyond ≈ 700 cores).

use crate::{banner, pacific_parent, row, Opts, MEASURE_ITERS};
use nestwx_core::{compare_strategies, Planner};
use nestwx_grid::NestSpec;
use nestwx_netsim::Machine;

pub(crate) fn run(_: &Opts) -> String {
    let mut out = banner(
        "fig15",
        "scalability & speedup, two 259×229 siblings on BG/L",
    );
    let parent = pacific_parent();
    let nests = vec![
        NestSpec::new(259, 229, 3, (10, 12)),
        NestSpec::new(259, 229, 3, (150, 150)),
    ];
    let widths = [7, 12, 12, 12, 12, 12];
    row(
        &mut out,
        &[
            "cores",
            "seq s/iter",
            "conc s/iter",
            "seq spdup",
            "conc spdup",
            "improve %",
        ],
        &widths,
    );
    let mut seq0 = None;
    let mut conc0 = None;
    for cores in [32u32, 64, 128, 256, 512, 1024] {
        let planner = Planner::new(Machine::bgl(cores));
        let cmp = compare_strategies(&planner, &parent, &nests, MEASURE_ITERS).unwrap();
        let (s, c) = (
            cmp.default_run.per_iteration(),
            cmp.planned_run.per_iteration(),
        );
        let s0 = *seq0.get_or_insert(s);
        let c0 = *conc0.get_or_insert(c);
        row(
            &mut out,
            &[
                cores.to_string(),
                format!("{s:.3}"),
                format!("{c:.3}"),
                format!("{:.2}", s0 / s),
                format!("{:.2}", c0 / c),
                format!("{:.2}", cmp.improvement_pct()),
            ],
            &widths,
        );
    }
    out += "\nPaper shape: concurrent is never slower, and its advantage widens as the\n";
    out += "simulation approaches its scalability limit near the full rack.\n";
    out
}
