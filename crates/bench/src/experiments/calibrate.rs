//! Calibration check: verifies the machine-model constants against the
//! paper's quantitative anchors before the other experiments are trusted.
//!
//! Anchors:
//! * Fig. 9 — sibling times on 1024 BG/L: sequential ≈ 0.4/0.2/0.2/0.3 s,
//!   concurrent ≈ 0.7/0.6/0.6/0.7 s, nest-phase gain ≈ 36 %;
//! * §4.3.1 — avg ≈ 21 %, max ≈ 33 % improvement over random configs;
//! * Fig. 10 — large nests: ≈ 1 % at 1024 BG/P cores → ≈ 21 % at 8192.

use crate::{
    banner, large_nests, max, mean, min, pacific_parent, random_nests, rng_for, table2_nests, Opts,
    MEASURE_ITERS,
};
use nestwx_core::{compare_strategies, Planner};
use nestwx_netsim::Machine;

pub(crate) fn run(_: &Opts) -> String {
    let mut out = banner("calibrate", "machine-model calibration anchors");

    // ---- Fig. 9 anchor: Table 2 configuration on BG/L(1024) ----
    let parent = pacific_parent();
    let nests = table2_nests();
    let planner = Planner::new(Machine::bgl_rack());
    let cmp = compare_strategies(&planner, &parent, &nests, MEASURE_ITERS).unwrap();
    out += "\n[fig9 anchor] BG/L(1024), Table 2 nests\n";
    out += &format!(
        "  default per-iteration : {:.3} s (paper ≈ 1.1 s nests + parent)\n",
        cmp.default_run.per_iteration()
    );
    out += &format!(
        "  parallel per-iteration: {:.3} s\n",
        cmp.planned_run.per_iteration()
    );
    for i in 0..4 {
        out += &format!(
            "  sibling {}: seq {:.3} s | conc {:.3} s   (paper: {} | {})\n",
            i + 1,
            cmp.default_run.sibling_per_iter(i),
            cmp.planned_run.sibling_per_iter(i),
            [0.4, 0.2, 0.2, 0.3][i],
            [0.7, 0.6, 0.6, 0.7][i],
        );
    }
    out += &format!(
        "  improvement: {:.2}% (paper nest-phase ≈ 36%)\n",
        cmp.improvement_pct()
    );
    out += &format!(
        "  MPI_Wait improvement: {:.2}%\n",
        cmp.mpi_wait_improvement_pct()
    );

    // ---- §4.3.1 anchor: sample of random configs on BG/L(1024) ----
    let mut rng = rng_for("calibrate-85");
    let mut imps = Vec::new();
    for i in 0..12 {
        let k = 2 + (i % 3);
        let nests = random_nests(&mut rng, k, 178 * 202, 394 * 418, &parent);
        let cmp = compare_strategies(&planner, &parent, &nests, MEASURE_ITERS).unwrap();
        imps.push(cmp.improvement_pct());
    }
    out += "\n[sec4.3.1 anchor] 12 random configs, 2-4 siblings, BG/L(1024)\n";
    out += &format!(
        "  improvement avg {:.2}% (paper 21.14%), max {:.2}% (paper 33.04%), min {:.2}%\n",
        mean(&imps),
        max(&imps),
        min(&imps)
    );

    // ---- Fig. 10 anchor: large nests on BG/P ----
    let (big_parent, large) = large_nests();
    out += "\n[fig10 anchor] 3 large siblings on BG/P\n";
    for cores in [1024u32, 2048, 4096, 8192] {
        let planner = Planner::new(Machine::bgp(cores));
        let cmp = compare_strategies(&planner, &big_parent, &large, MEASURE_ITERS).unwrap();
        out += &format!(
            "  {:>5} cores: default {:.3} s, parallel {:.3} s, improvement {:+.2}%\n",
            cores,
            cmp.default_run.per_iteration(),
            cmp.planned_run.per_iteration(),
            cmp.improvement_pct()
        );
    }
    out += "  (paper: 1.33% at 1024 → 20.64% at 8192)\n";
    out
}
