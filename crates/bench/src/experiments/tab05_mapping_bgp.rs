//! Table 5 + Fig. 12 — Mapping comparison on 4096 BG/P cores: per-iteration
//! times, MPI_Wait improvement, and the reduction in average hops.
//!
//! Paper (Table 5, s/iteration): default 5.43/5.65/5.61; oblivious
//! 3.94/4.20/4.39; partition 3.92/4.1/4.28; multi-level 3.93/4.1/4.39.
//! Fig. 12(b): topology-aware mappings cut average hops by ≈ 50 %.
//!
//! Both the MPI_Wait and hop rows come from the observability layer's
//! recorded step metrics ([`ObsSummary`](nestwx_netsim::ObsSummary)).
//! `repro tab05_mapping_bgp --trace-out <path>` also writes a Chrome trace
//! of config 1's multi-level-mapped run.

use crate::{
    banner, measure_mappings, pacific_parent, random_nests, rng_for, row, variant_row, write_trace,
    Opts,
};
use nestwx_core::{MappingKind, Planner};
use nestwx_grid::NestSpec;
use nestwx_netsim::Machine;

/// The default baseline, then the three mappings Table 5 reports.
const VARIANTS: [Option<MappingKind>; 4] = [
    None,
    Some(MappingKind::Oblivious),
    Some(MappingKind::Partition),
    Some(MappingKind::MultiLevel),
];

pub(crate) fn run(opts: &Opts) -> String {
    let mut out = banner(
        "tab05",
        "mapping comparison on BG/P(4096): Table 5 and Fig. 12",
    );
    let parent = pacific_parent();
    let mut rng = rng_for("tab05");
    // Three configurations: two 4-sibling, one 3-sibling (paper's rows).
    let configs: Vec<Vec<NestSpec>> = [4usize, 4, 3]
        .iter()
        .map(|&k| random_nests(&mut rng, k, 250 * 250, 415 * 445, &parent))
        .collect();

    let base = Planner::new(Machine::bgp(4096));
    let widths = [5, 9, 11, 11, 11];
    let header = ["cfg", "default", "oblivious", "partition", "multilevel"];
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
        // Fig. 12 rows, rebuilt from recorded step metrics.
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
        variant_row(
            &mut out,
            &widths,
            ["".into(), "hops -%".into()],
            mapped,
            |r| {
                format!(
                    "{:.1}",
                    (1.0 - r.obs.avg_hops() / default.obs.avg_hops()) * 100.0
                )
            },
        );
        // Per-rank load-imbalance factor (max/mean busy) per variant, from
        // the recorded timelines; the default goes in the second column.
        let lead = ["imbal".into(), format!("{:.3}", default.imbalance)];
        variant_row(&mut out, &widths, lead, mapped, |r| {
            format!("{:.3}", r.imbalance)
        });
    }
    if let Some(path) = &opts.trace_out {
        let planner = base.mapping(MappingKind::MultiLevel);
        write_trace(&planner, &parent, &configs[0], path);
    }
    out += "\nPaper shape: MPI_Wait falls > 50 % on average for the mapped runs;\n";
    out += "topology-aware mappings cut average hops ≈ 50 % vs default/oblivious.\n";
    out
}
