//! Fig. 8 — Performance improvement on up to 4096 BG/P cores, including and
//! excluding I/O times, averaged over random domain configurations.
//!
//! Paper: improvement is *higher* when I/O is included, because PnetCDF
//! collective writes do not scale with writer count and the parallel
//! strategy writes each sibling's history with fewer ranks.

use crate::{banner, mean, pacific_parent, random_nests, rng_for, row, Opts, MEASURE_ITERS};
use nestwx_core::{compare_strategies, Planner};
use nestwx_netsim::{IoMode, Machine};

pub(crate) fn run(opts: &Opts) -> String {
    let configs = opts.configs.unwrap_or(10);
    let mut out = banner(
        "fig08",
        &format!("improvement incl./excl. I/O on BG/P ({configs} configs per point)"),
    );
    let parent = pacific_parent();
    let widths = [7, 16, 16];
    row(
        &mut out,
        &["cores", "excl. I/O (%)", "incl. I/O (%)"],
        &widths,
    );
    for cores in [512u32, 1024, 2048, 4096] {
        let mut rng = rng_for("fig08");
        let mut excl = Vec::new();
        let mut incl = Vec::new();
        for i in 0..configs {
            let k = 2 + (i % 3);
            let nests = random_nests(&mut rng, k, 178 * 202, 394 * 418, &parent);
            // Excluding I/O.
            let planner = Planner::new(Machine::bgp(cores));
            let cmp = compare_strategies(&planner, &parent, &nests, MEASURE_ITERS).unwrap();
            excl.push(cmp.improvement_pct());
            // Including I/O: PnetCDF history every iteration (high
            // frequency, §4.5).
            let planner = Planner::new(Machine::bgp(cores)).output(IoMode::PnetCdf, 1);
            let cmp = compare_strategies(&planner, &parent, &nests, MEASURE_ITERS).unwrap();
            incl.push(cmp.improvement_pct());
        }
        row(
            &mut out,
            &[
                cores.to_string(),
                format!("{:.2}", mean(&excl)),
                format!("{:.2}", mean(&incl)),
            ],
            &widths,
        );
    }
    out += "\nPaper shape: the incl.-I/O bars exceed the excl.-I/O bars at every core count.\n";
    out
}
