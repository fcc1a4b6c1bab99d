//! Table 1 — Average and maximum improvement in MPI_Wait times on BG/L and
//! BG/P.
//!
//! Paper values: 1024 BG/L 38.42 % / 66.30 %; 512 BG/P 30.70 / 60.92;
//! 1024 BG/P 36.01 / 60.11; 2048 BG/P 27.02 / 55.54; 4096 BG/P
//! 28.68 / 43.86.
//!
//! The improvements are computed from the observability layer's recorded
//! [`StepMetrics`](nestwx_netsim::StepMetrics) totals — the per-step
//! MPI_Wait deltas summed by `nestwx-obs` — and cross-checked against the
//! simulator's internal `SimReport` accumulator (the two differ only in
//! float summation order). `repro tab01_mpiwait --trace-out <path>` also
//! writes a Chrome trace of the first planned run.

use crate::{
    banner, max, mean, pacific_parent, random_nests, rng_for, row, write_trace, Opts, MEASURE_ITERS,
};
use nestwx_core::{compare_strategies_observed, Planner};
use nestwx_netsim::Machine;

pub(crate) fn run(opts: &Opts) -> String {
    let configs = opts.configs.unwrap_or(10);
    let mut out = banner(
        "tab01",
        &format!("MPI_Wait improvement, {configs} configs per machine"),
    );
    let parent = pacific_parent();
    let widths = [16, 12, 12, 10, 10, 22];
    row(
        &mut out,
        &[
            "machine",
            "avg (%)",
            "max (%)",
            "imb dflt",
            "imb d&c",
            "paper avg/max (%)",
        ],
        &widths,
    );
    let machines: [(Machine, &str); 5] = [
        (Machine::bgl_rack(), "38.42 / 66.30"),
        (Machine::bgp(512), "30.70 / 60.92"),
        (Machine::bgp(1024), "36.01 / 60.11"),
        (Machine::bgp(2048), "27.02 / 55.54"),
        (Machine::bgp(4096), "28.68 / 43.86"),
    ];
    for (machine, paper) in machines {
        let name = machine.name.clone();
        let planner = Planner::new(machine);
        let mut rng = rng_for("tab01");
        let mut imps = Vec::new();
        let mut imb_default = Vec::new();
        let mut imb_planned = Vec::new();
        for i in 0..configs {
            let k = 2 + (i % 3);
            let nests = random_nests(&mut rng, k, 178 * 202, 394 * 418, &parent);
            let cmp =
                compare_strategies_observed(&planner, &parent, &nests, MEASURE_ITERS).unwrap();
            // Recorded metrics must rebuild the simulator's accumulator up
            // to summation order.
            let report_wait = cmp.comparison.default_run.mpi_wait_total;
            let rel = (cmp.default_obs.halo_wait - report_wait).abs() / report_wait;
            assert!(
                rel < 1e-6,
                "recorded MPI_Wait drifted from SimReport: rel {rel:e}"
            );
            imps.push(cmp.mpi_wait_improvement_pct());
            // Per-rank load-imbalance factor (max/mean busy time) of each
            // strategy, from the recorded timelines.
            imb_default.push(cmp.default_analysis().overall_imbalance);
            imb_planned.push(cmp.planned_analysis().overall_imbalance);
        }
        row(
            &mut out,
            &[
                name,
                format!("{:.2}", mean(&imps)),
                format!("{:.2}", max(&imps)),
                format!("{:.3}", mean(&imb_default)),
                format!("{:.3}", mean(&imb_planned)),
                paper.into(),
            ],
            &widths,
        );
    }
    if let Some(path) = &opts.trace_out {
        // The first config of the first machine.
        let nests = random_nests(&mut rng_for("tab01"), 2, 178 * 202, 394 * 418, &parent);
        write_trace(&Planner::new(Machine::bgl_rack()), &parent, &nests, path);
    }
    out
}
