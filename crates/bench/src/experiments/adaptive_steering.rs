//! Extension (§6 future work) — adaptive steering of the sibling
//! allocation: measure each chunk, re-partition from measured work, charge
//! redistribution, continue.
//!
//! Demonstrates recovery from a deliberately bad initial allocation and
//! convergence toward the statically-predicted plan's performance.

use crate::{banner, pacific_parent, row, Opts};
use nestwx_core::{run_adaptive, AllocPolicy, Planner};
use nestwx_grid::NestSpec;
use nestwx_netsim::Machine;

pub(crate) fn run(_: &Opts) -> String {
    let mut out = banner(
        "adaptive",
        "adaptive re-partitioning (steering) on BG/L(1024)",
    );
    let parent = pacific_parent();
    // Strongly skewed nests: equal allocation is clearly wrong.
    let nests = vec![
        NestSpec::new(415, 445, 3, (10, 10)),
        NestSpec::new(180, 170, 3, (180, 20)),
        NestSpec::new(205, 223, 3, (30, 170)),
    ];
    let machine = Machine::bgl_rack();

    let static_pred = Planner::new(machine.clone());
    let static_equal = Planner::new(machine.clone()).alloc_policy(AllocPolicy::Equal);

    let oracle = static_pred
        .plan(&parent, &nests)
        .unwrap()
        .simulate(12)
        .unwrap();
    let equal = static_equal
        .plan(&parent, &nests)
        .unwrap()
        .simulate(12)
        .unwrap();
    let adaptive = run_adaptive(&static_equal, &parent, &nests, 12, 3).unwrap();

    let widths = [34, 12];
    row(&mut out, &["strategy", "s/iter"], &widths);
    for (strategy, per_iter) in [
        ("static equal split", equal.per_iteration()),
        (
            "adaptive (equal start, replan/3 it)",
            adaptive.per_iteration(),
        ),
        ("static predicted (paper)", oracle.per_iteration()),
    ] {
        row(
            &mut out,
            &[strategy.into(), format!("{per_iter:.3}")],
            &widths,
        );
    }
    out += "\nper-chunk per-iteration times (adaptive):\n";
    for (k, c) in adaptive.chunks.iter().enumerate() {
        out += &format!("  chunk {}: {:.3} s/iter\n", k + 1, c.per_iteration());
    }
    out += &format!(
        "redistribution charged: {:.3} s total\n",
        adaptive.redistribution_time
    );
    out += &format!(
        "final measured ratios: {:?}\n",
        adaptive
            .final_ratios
            .iter()
            .map(|r| (r * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>()
    );
    out += "\nThe measured-ratio re-plan recovers most of the gap between a bad initial\n";
    out += "allocation and the paper's prediction-driven plan.\n";
    out
}
