//! Fig. 13 + Fig. 14 — High-frequency output on BG/P: integration, I/O and
//! total per-iteration times vs core count, and the integration/I/O time
//! fractions.
//!
//! Paper: with 10-minute output, the sequential version's per-iteration
//! PnetCDF time *increases steadily* with core count while the parallel
//! sibling version keeps I/O low; the I/O fraction of total time grows with
//! core count for the sequential strategy (reaching 20–40 %).

use crate::{banner, pacific_parent, random_nests, rng_for, row, Opts, MEASURE_ITERS};
use nestwx_core::{compare_strategies, Planner};
use nestwx_netsim::{IoMode, Machine};

pub(crate) fn run(_: &Opts) -> String {
    let mut out = banner(
        "fig13",
        "high-frequency output scaling on BG/P (PnetCDF every iteration)",
    );
    let parent = pacific_parent();
    let mut rng = rng_for("fig13");
    let nests = random_nests(&mut rng, 3, 250 * 250, 394 * 418, &parent);

    let widths = [7, 11, 11, 11, 11, 11, 11];
    row(
        &mut out,
        &[
            "cores",
            "seq integ",
            "seq I/O",
            "seq total",
            "par integ",
            "par I/O",
            "par total",
        ],
        &widths,
    );
    let mut fractions = Vec::new();
    for cores in [512u32, 1024, 2048, 4096, 8192] {
        let planner = Planner::new(Machine::bgp(cores)).output(IoMode::PnetCdf, 1);
        let cmp = compare_strategies(&planner, &parent, &nests, MEASURE_ITERS).unwrap();
        let (d, p) = (&cmp.default_run, &cmp.planned_run);
        row(
            &mut out,
            &[
                cores.to_string(),
                format!("{:.3}", d.integration_per_iter()),
                format!("{:.3}", d.io_per_iter()),
                format!("{:.3}", d.per_iteration()),
                format!("{:.3}", p.integration_per_iter()),
                format!("{:.3}", p.io_per_iter()),
                format!("{:.3}", p.per_iteration()),
            ],
            &widths,
        );
        fractions.push((
            cores,
            d.io_per_iter() / d.per_iteration() * 100.0,
            p.io_per_iter() / p.per_iteration() * 100.0,
        ));
    }

    out += "\nFig. 14 — I/O fraction of total per-iteration time:\n";
    let widths = [7, 14, 14];
    row(&mut out, &["cores", "seq I/O %", "par I/O %"], &widths);
    for (cores, seq, par) in fractions {
        row(
            &mut out,
            &[cores.to_string(), format!("{seq:.1}"), format!("{par:.1}")],
            &widths,
        );
    }
    out += "\nPaper shape: sequential I/O time and fraction grow with core count\n";
    out += "(PnetCDF scalability bottleneck); parallel siblings keep both low.\n";
    out
}
