//! §4.3.1 — Improvement in per-iteration time over 85 random configurations
//! on 1024 BG/L cores.
//!
//! Paper: nest sizes 178×202 … 394×418, 2–4 siblings; average improvement
//! 21.14 %, maximum 33.04 %.
//!
//! Also reports the §4.3.4 split by sibling count (paper: 19.43 % for
//! 2 siblings vs 24.22 % for 4).

use crate::{banner, max, mean, min, pacific_parent, random_nests, rng_for, Opts, MEASURE_ITERS};
use nestwx_core::{compare_strategies, Planner};
use nestwx_netsim::Machine;

pub(crate) fn run(opts: &Opts) -> String {
    let configs = opts.configs.unwrap_or(85);
    let mut out = banner(
        "sec431",
        &format!("improvement over {configs} random configs on BG/L(1024)"),
    );
    let parent = pacific_parent();
    let planner = Planner::new(Machine::bgl_rack());
    let mut rng = rng_for("sec431");

    let mut by_siblings: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut all = Vec::new();
    for i in 0..configs {
        let k = 2 + (i % 3); // 2, 3 or 4 siblings
        let nests = random_nests(&mut rng, k, 178 * 202, 394 * 418, &parent);
        let cmp = compare_strategies(&planner, &parent, &nests, MEASURE_ITERS).unwrap();
        let imp = cmp.improvement_pct();
        all.push(imp);
        by_siblings[k - 2].push(imp);
    }

    out += &format!("configurations : {}\n", all.len());
    out += &format!(
        "average improvement: {:>6.2} %   (paper: 21.14 %)\n",
        mean(&all)
    );
    out += &format!(
        "maximum improvement: {:>6.2} %   (paper: 33.04 %)\n",
        max(&all)
    );
    out += &format!("minimum improvement: {:>6.2} %\n", min(&all));
    out += "\nby sibling count (§4.3.4):\n";
    for (k, imps) in by_siblings.iter().enumerate() {
        out += &format!(
            "  {} siblings: avg {:>6.2} %  over {} configs{}\n",
            k + 2,
            mean(imps),
            imps.len(),
            match k {
                0 => "   (paper: 19.43 %)",
                2 => "   (paper: 24.22 %)",
                _ => "",
            }
        );
    }
    out
}
