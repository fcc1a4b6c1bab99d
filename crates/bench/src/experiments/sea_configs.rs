//! §4.1.1 — the eight South East Asia configurations: "We experimented with
//! eight different configurations at varying levels of nesting and
//! different number of sibling domains. Three configurations had sibling
//! domains at the second level whereas the remaining ones had siblings at
//! the first level of nesting."
//!
//! Reproduces that configuration family (4.5 km parent, 1.5 km level-1
//! nests, 500 m level-2 nests) and reports the divide-and-conquer
//! improvement for each on a BG/L rack.

use crate::{banner, mean, row, Opts, MEASURE_ITERS};
use nestwx_core::{compare_strategies, Planner};
use nestwx_grid::{Domain, NestSpec};
use nestwx_netsim::Machine;

fn configs() -> Vec<(&'static str, Vec<NestSpec>)> {
    vec![
        // Five first-level-only configurations.
        (
            "2 siblings L1",
            vec![
                NestSpec::new(240, 210, 3, (20, 20)),
                NestSpec::new(200, 220, 3, (160, 120)),
            ],
        ),
        (
            "3 siblings L1",
            vec![
                NestSpec::new(240, 210, 3, (20, 20)),
                NestSpec::new(180, 160, 3, (220, 30)),
                NestSpec::new(200, 220, 3, (160, 150)),
            ],
        ),
        (
            "4 siblings L1",
            vec![
                NestSpec::new(220, 200, 3, (10, 10)),
                NestSpec::new(180, 160, 3, (240, 20)),
                NestSpec::new(160, 180, 3, (20, 170)),
                NestSpec::new(210, 190, 3, (220, 170)),
            ],
        ),
        (
            "2 siblings L1 (small)",
            vec![
                NestSpec::new(180, 170, 3, (40, 40)),
                NestSpec::new(170, 180, 3, (200, 140)),
            ],
        ),
        (
            "3 siblings L1 (mixed)",
            vec![
                NestSpec::new(260, 230, 3, (10, 20)),
                NestSpec::new(150, 140, 3, (260, 40)),
                NestSpec::new(180, 200, 3, (200, 160)),
            ],
        ),
        // Three configurations with second-level siblings.
        (
            "2 L1 + 2 L2 in first",
            vec![
                NestSpec::new(240, 210, 3, (20, 20)),
                NestSpec::new(180, 190, 3, (200, 150)),
                NestSpec::child_of(0, 90, 90, 3, (12, 12)),
                NestSpec::child_of(0, 81, 60, 3, (140, 130)),
            ],
        ),
        (
            "2 L1 + 2 L2 split",
            vec![
                NestSpec::new(230, 210, 3, (20, 20)),
                NestSpec::new(210, 200, 3, (190, 140)),
                NestSpec::child_of(0, 90, 84, 3, (20, 30)),
                NestSpec::child_of(1, 84, 90, 3, (30, 20)),
            ],
        ),
        (
            "3 L1 + 3 L2",
            vec![
                NestSpec::new(220, 200, 3, (10, 10)),
                NestSpec::new(190, 180, 3, (230, 20)),
                NestSpec::new(180, 190, 3, (40, 160)),
                NestSpec::child_of(0, 84, 81, 3, (20, 20)),
                NestSpec::child_of(1, 75, 72, 3, (30, 30)),
                NestSpec::child_of(2, 72, 75, 3, (25, 25)),
            ],
        ),
    ]
}

pub(crate) fn run(_: &Opts) -> String {
    let mut out = banner(
        "sea",
        "South East Asia: eight configurations, two nesting levels (§4.1.1)",
    );
    let parent = Domain::parent(400, 340, 4.5);
    let planner = Planner::new(Machine::bgl_rack());
    let widths = [24, 8, 11, 11, 11];
    row(
        &mut out,
        &[
            "configuration",
            "nests",
            "default s",
            "parallel s",
            "improve %",
        ],
        &widths,
    );
    let mut l1_only = Vec::new();
    let mut with_l2 = Vec::new();
    for (name, nests) in configs() {
        let cmp = compare_strategies(&planner, &parent, &nests, MEASURE_ITERS).unwrap();
        let imp = cmp.improvement_pct();
        if nests.iter().any(|n| n.parent_nest.is_some()) {
            with_l2.push(imp);
        } else {
            l1_only.push(imp);
        }
        row(
            &mut out,
            &[
                name.into(),
                nests.len().to_string(),
                format!("{:.3}", cmp.default_run.per_iteration()),
                format!("{:.3}", cmp.planned_run.per_iteration()),
                format!("{:.2}", imp),
            ],
            &widths,
        );
    }
    out += &format!(
        "\nfirst-level-only configs : avg improvement {:.2} %\n",
        mean(&l1_only)
    );
    out += &format!(
        "second-level configs     : avg improvement {:.2} %\n",
        mean(&with_l2)
    );
    out += "\nSecond-level siblings sub-partition their parent nest's processors; the\n";
    out += "divide-and-conquer gain persists across both nesting depths.\n";
    out
}
