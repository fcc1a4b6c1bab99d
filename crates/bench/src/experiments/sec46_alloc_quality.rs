//! §4.6 — Allocation quality: the Huffman/split-tree partitioner against
//! the naïve proportional-strips allocator.
//!
//! Paper: on a 4-sibling configuration whose default execution takes
//! 4.49 s/iteration, naïve proportional chunks give 4.08 s (9 %) while the
//! paper's allocator gives 3.72 s (17 %) — an 8 % relative gain.

use crate::{
    banner, default_strategy, pacific_parent, random_nests, rng_for, row, Opts, MEASURE_ITERS,
};
use nestwx_core::{AllocPolicy, Planner};
use nestwx_netsim::Machine;

pub(crate) fn run(_: &Opts) -> String {
    let mut out = banner(
        "sec46",
        "allocation quality: Huffman/split-tree vs naïve strips vs equal",
    );
    let parent = pacific_parent();
    let mut rng = rng_for("sec46");
    let base = Planner::new(Machine::bgl_rack());
    let widths = [5, 10, 10, 10, 10, 11, 11, 11];
    row(
        &mut out,
        &[
            "cfg", "default", "equal", "naive", "huffman", "equal +%", "naive +%", "huff +%",
        ],
        &widths,
    );
    let mut sums = [0.0f64; 3];
    let n_cfg = 5;
    for i in 0..n_cfg {
        let nests = random_nests(&mut rng, 4, 178 * 202, 415 * 445, &parent);
        let run = |p: Planner| {
            p.plan(&parent, &nests)
                .unwrap()
                .simulate(MEASURE_ITERS)
                .unwrap()
        };
        let default = run(default_strategy(base.clone()));
        let equal = run(base.clone().alloc_policy(AllocPolicy::Equal));
        let naive = run(base.clone().alloc_policy(AllocPolicy::NaiveProportional));
        let huff = run(base.clone().alloc_policy(AllocPolicy::HuffmanSplitTree));
        sums[0] += equal.improvement_over(&default);
        sums[1] += naive.improvement_over(&default);
        sums[2] += huff.improvement_over(&default);
        row(
            &mut out,
            &[
                (i + 1).to_string(),
                format!("{:.2}", default.per_iteration()),
                format!("{:.2}", equal.per_iteration()),
                format!("{:.2}", naive.per_iteration()),
                format!("{:.2}", huff.per_iteration()),
                format!("{:.1}", equal.improvement_over(&default)),
                format!("{:.1}", naive.improvement_over(&default)),
                format!("{:.1}", huff.improvement_over(&default)),
            ],
            &widths,
        );
    }
    row(
        &mut out,
        &[
            "avg".into(),
            "".into(),
            "".into(),
            "".into(),
            "".into(),
            format!("{:.1}", sums[0] / n_cfg as f64),
            format!("{:.1}", sums[1] / n_cfg as f64),
            format!("{:.1}", sums[2] / n_cfg as f64),
        ],
        &widths,
    );
    out += "\nPaper: naïve 9 % vs Huffman/split-tree 17 % over the default —\n";
    out += "the paper's allocator should dominate the naïve strips on every row.\n";
    out
}
