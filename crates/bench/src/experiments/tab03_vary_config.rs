//! Table 3 + §4.3.4 — Effect of varying sibling configurations.
//!
//! Paper: improvement *increases* with sibling count (19.43 % at 2 vs
//! 24.22 % at 4) and *decreases* with maximum nest size (25.62 % for
//! 205×223, 21.87 % for 394×418, 10.11 % for 925×820 on up to 8192 BG/P
//! cores).

use crate::{banner, mean, pacific_parent, random_nests, rng_for, row, Opts, MEASURE_ITERS};
use nestwx_core::{compare_strategies, Planner};
use nestwx_grid::{Domain, NestSpec};
use nestwx_netsim::Machine;

pub(crate) fn run(opts: &Opts) -> String {
    let configs = opts.configs.unwrap_or(8);
    let mut out = banner("tab03", "improvement vs sibling count and nest size");

    // ---- varying number of siblings (BG/L 1024) ----
    out += &format!("\n§4.3.4 — varying number of siblings, BG/L(1024), {configs} configs each:\n");
    let parent = pacific_parent();
    let planner = Planner::new(Machine::bgl_rack());
    for k in [2usize, 3, 4] {
        let mut rng = rng_for("tab03-siblings");
        let mut imps = Vec::new();
        for _ in 0..configs {
            let nests = random_nests(&mut rng, k, 178 * 202, 394 * 418, &parent);
            let cmp = compare_strategies(&planner, &parent, &nests, MEASURE_ITERS).unwrap();
            imps.push(cmp.improvement_pct());
        }
        let paper = match k {
            2 => "  (paper: 19.43 %)",
            4 => "  (paper: 24.22 %)",
            _ => "",
        };
        out += &format!("  {k} siblings: avg {:>6.2} %{paper}\n", mean(&imps));
    }

    // ---- varying maximum nest size (BG/P 8192) ----
    out += "\nTable 3 — varying maximum nest size, BG/P(8192), 3 siblings:\n";
    let widths = [16, 14, 10];
    row(&mut out, &["max nest", "improve (%)", "paper"], &widths);
    let planner = Planner::new(Machine::bgp(8192));
    let cases: [((u32, u32), &str, Domain); 3] = [
        ((205, 223), "25.62", pacific_parent()),
        ((394, 418), "21.87", pacific_parent()),
        ((925, 820), "10.11", Domain::parent(572, 614, 24.0)),
    ];
    for ((nx, ny), paper, parent) in cases {
        // Three siblings: the named maximum nest plus two at ~2/3 scale.
        let nests = vec![
            NestSpec::new(nx, ny, 3, (10, 10)),
            NestSpec::new(nx * 2 / 3, ny * 2 / 3, 3, (parent.nx / 2, 10)),
            NestSpec::new(nx * 3 / 4, ny * 3 / 4, 3, (10, parent.ny / 2)),
        ];
        let cmp = compare_strategies(&planner, &parent, &nests, MEASURE_ITERS).unwrap();
        row(
            &mut out,
            &[
                format!("{nx}x{ny}"),
                format!("{:.2}", cmp.improvement_pct()),
                paper.into(),
            ],
            &widths,
        );
    }
    out += "\nPaper shape: larger nests ⇒ later saturation ⇒ smaller improvement.\n";
    out
}
