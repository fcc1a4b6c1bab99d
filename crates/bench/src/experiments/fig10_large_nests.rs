//! Fig. 10 — Sibling execution times for three large nests on up to 8192
//! BG/P cores.
//!
//! Paper: nests 586×643, 856×919 and 925×850; improvement grows from
//! 1.33 % at 1024 cores to 20.64 % at 8192 because the large domains only
//! reach their scalability saturation at high core counts.

use crate::{banner, large_nests, row, Opts, MEASURE_ITERS};
use nestwx_core::{compare_strategies, Planner};
use nestwx_netsim::Machine;

pub(crate) fn run(_: &Opts) -> String {
    let mut out = banner(
        "fig10",
        "large siblings (586×643, 856×919, 925×850) on BG/P",
    );
    let (parent, nests) = large_nests();
    let widths = [7, 12, 12, 14, 10];
    row(
        &mut out,
        &["cores", "default s", "parallel s", "improve (%)", "paper"],
        &widths,
    );
    let paper = ["1.33", "", "", "20.64"];
    for (i, cores) in [1024u32, 2048, 4096, 8192].into_iter().enumerate() {
        let planner = Planner::new(Machine::bgp(cores));
        let cmp = compare_strategies(&planner, &parent, &nests, MEASURE_ITERS).unwrap();
        row(
            &mut out,
            &[
                cores.to_string(),
                format!("{:.3}", cmp.default_run.per_iteration()),
                format!("{:.3}", cmp.planned_run.per_iteration()),
                format!("{:+.2}", cmp.improvement_pct()),
                paper[i].into(),
            ],
            &widths,
        );
    }
    out += "\nPaper shape: negligible gain at 1024 cores, ≈ 20 % at 8192 —\n";
    out += "large nests saturate later, so the divide-and-conquer win appears at scale.\n";
    out
}
