//! Table 2 + Fig. 9 — The 4-sibling configuration on 1024 BG/L cores:
//! processor allocation per sibling and the stacked sibling execution
//! times.
//!
//! Paper: nests 394×418, 232×202, 232×256, 313×337 allocated 18×24, 18×8,
//! 14×12, 14×20 processors; sequential sibling times 0.4+0.2+0.2+0.3 =
//! 1.1 s vs concurrent max ≈ 0.7 s → 36 % nest-phase gain.

use crate::{banner, pacific_parent, row, table2_nests, Opts, MEASURE_ITERS};
use nestwx_core::{compare_strategies, Planner};
use nestwx_netsim::Machine;

pub(crate) fn run(_: &Opts) -> String {
    let mut out = banner(
        "fig09",
        "4-sibling allocation and sibling times on BG/L(1024)",
    );
    let parent = pacific_parent();
    let nests = table2_nests();
    let planner = Planner::new(Machine::bgl_rack());
    let plan = planner.plan(&parent, &nests).unwrap();

    out += "\nTable 2 — sibling configurations:\n";
    let widths = [10, 12, 12, 14, 14];
    row(
        &mut out,
        &["sibling", "nest size", "procs", "ours", "paper"],
        &widths,
    );
    let paper_procs = ["18x24", "18x8", "14x12", "14x20"];
    for (i, p) in plan.partitions.iter().enumerate() {
        row(
            &mut out,
            &[
                (i + 1).to_string(),
                format!("{}x{}", nests[i].nx, nests[i].ny),
                p.rect.area().to_string(),
                format!("{}x{}", p.rect.w, p.rect.h),
                paper_procs[i].into(),
            ],
            &widths,
        );
    }

    let cmp = compare_strategies(&planner, &parent, &nests, MEASURE_ITERS).unwrap();
    out += "\nFig. 9 — sibling execution times per iteration (s):\n";
    let widths = [10, 14, 14, 16];
    row(
        &mut out,
        &["sibling", "sequential", "concurrent", "paper seq|conc"],
        &widths,
    );
    let paper = [(0.4, 0.7), (0.2, 0.6), (0.2, 0.6), (0.3, 0.7)];
    let mut seq_sum = 0.0;
    let mut conc_max: f64 = 0.0;
    for (i, paper_row) in paper.iter().enumerate() {
        let s = cmp.default_run.sibling_per_iter(i);
        let c = cmp.planned_run.sibling_per_iter(i);
        seq_sum += s;
        conc_max = conc_max.max(c);
        row(
            &mut out,
            &[
                (i + 1).to_string(),
                format!("{s:.3}"),
                format!("{c:.3}"),
                format!("{:.1} | {:.1}", paper_row.0, paper_row.1),
            ],
            &widths,
        );
    }
    out += &format!(
        "\nnest phase: sequential stack {seq_sum:.3} s vs concurrent max {conc_max:.3} s → {:.1} % gain (paper: 1.1 vs 0.7 s → 36 %)\n",
        (1.0 - conc_max / seq_sum) * 100.0
    );
    out += &format!(
        "overall per-iteration improvement: {:.2} %\n",
        cmp.improvement_pct()
    );
    out
}
