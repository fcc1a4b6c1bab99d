//! Table 4 + Fig. 11 — Execution times per iteration for the default
//! strategy and the four mappings on 1024 BG/L cores, plus percentage
//! improvements in execution and MPI_Wait times.
//!
//! Paper (Table 4, seconds/iteration):
//! default | oblivious | partition | multi-level | TXYZ
//!   2.77  |   2.25    |   2.10    |    2.07     | 2.12
//!   3.69  |   3.08    |   2.95    |    2.92     | 2.95
//!   3.43  |   2.89    |   2.72    |    2.72     | 2.83
//!   4.98  |   3.92    |   3.72    |    3.72     | 3.99
//!   4.75  |   3.53    |   3.39    |    3.33     | 3.44
//! (rows 1–3: 2 siblings, row 4: 3 siblings, row 5: 4 siblings)
//!
//! The MPI_Wait rows come from the observability layer's recorded step
//! metrics ([`ObsSummary::halo_wait`](nestwx_netsim::ObsSummary::halo_wait)).
//! `repro tab04_mapping_bgl --trace-out <path>` also writes a Chrome trace
//! of config 1's partition-mapped run.

use crate::{
    banner, measure_mappings, pacific_parent, random_nests, rng_for, row, variant_row, write_trace,
    Opts,
};
use nestwx_core::{MappingKind, Planner};
use nestwx_grid::NestSpec;
use nestwx_netsim::Machine;

/// The default baseline, then the four mappings in the paper's column order.
const VARIANTS: [Option<MappingKind>; 5] = [
    None,
    Some(MappingKind::Oblivious),
    Some(MappingKind::Partition),
    Some(MappingKind::MultiLevel),
    Some(MappingKind::Txyz),
];

pub(crate) fn run(opts: &Opts) -> String {
    let mut out = banner(
        "tab04",
        "mapping comparison on BG/L(1024): Table 4 and Fig. 11",
    );
    let parent = pacific_parent();
    let mut rng = rng_for("tab04");
    // Five configurations: three 2-sibling, one 3-sibling, one 4-sibling.
    let configs: Vec<Vec<NestSpec>> = [2usize, 2, 2, 3, 4]
        .iter()
        .map(|&k| random_nests(&mut rng, k, 250 * 250, 394 * 418, &parent))
        .collect();

    let base = Planner::new(Machine::bgl_rack());
    let widths = [5, 9, 11, 11, 11, 9];
    let header = [
        "cfg",
        "default",
        "oblivious",
        "partition",
        "multilevel",
        "TXYZ",
    ];
    row(&mut out, &header, &widths);
    let results = measure_mappings(&base, &parent, &configs, &VARIANTS);
    for (i, (nests, runs)) in configs
        .iter()
        .zip(results.chunks(VARIANTS.len()))
        .enumerate()
    {
        let (default, mapped) = (&runs[0], &runs[1..]);
        let lead = [
            format!("{} ({}s)", i + 1, nests.len()),
            format!("{:.2}", default.report.per_iteration()),
        ];
        variant_row(&mut out, &widths, lead, mapped, |r| {
            format!("{:.2}", r.report.per_iteration())
        });
        // Fig. 11 rows: improvement over default. MPI_Wait comes from the
        // recorded step metrics, not the simulator's accumulator.
        variant_row(
            &mut out,
            &widths,
            ["".into(), "exec +%".into()],
            mapped,
            |r| format!("{:.1}", r.report.improvement_over(&default.report)),
        );
        variant_row(
            &mut out,
            &widths,
            ["".into(), "wait +%".into()],
            mapped,
            |r| {
                format!(
                    "{:.1}",
                    (1.0 - r.obs.halo_wait / default.obs.halo_wait) * 100.0
                )
            },
        );
        // Load-imbalance factor per variant ("imbal" row; default shown in
        // the second column) — max/mean rank busy from the timelines.
        let lead = ["imbal".into(), format!("{:.3}", default.imbalance)];
        variant_row(&mut out, &widths, lead, mapped, |r| {
            format!("{:.3}", r.imbalance)
        });
    }
    if let Some(path) = &opts.trace_out {
        let planner = base.mapping(MappingKind::Partition);
        write_trace(&planner, &parent, &configs[0], path);
    }
    out += "\nPaper shape: topology-aware (partition/multi-level) beat oblivious by a few %,\n";
    out += "multi-level ⩾ partition, and both beat the Blue Gene TXYZ mapfile ordering.\n";
    out
}
