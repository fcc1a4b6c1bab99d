//! Fig. 2 — Execution time of a weather simulation with one subdomain on
//! Blue Gene/L, 32 … 1024 cores.
//!
//! Paper setup: parent domain 286×307 (24 km) with a 415×445 subdomain;
//! execution time per iteration saturates as core count grows.
//!
//! `repro fig02_scalability --trace-out <path>` also writes a Chrome trace
//! of the largest (1024-core) run.

use crate::{banner, default_strategy, pacific_parent, row, write_trace, Opts, MEASURE_ITERS};
use nestwx_core::parallel::run_parallel;
use nestwx_core::Planner;
use nestwx_grid::NestSpec;
use nestwx_netsim::Machine;

pub(crate) fn run(opts: &Opts) -> String {
    let mut out = banner(
        "fig02",
        "WRF scalability with one 415×445 subdomain on BG/L",
    );
    let parent = pacific_parent();
    let nests = vec![NestSpec::new(415, 445, 3, (70, 80))];
    let widths = [8, 14, 16, 14];
    row(
        &mut out,
        &["cores", "s/iter", "speedup", "efficiency"],
        &widths,
    );
    // Each core count is an independent simulation — run them in parallel.
    let cores_list = [32u32, 64, 128, 256, 512, 1024];
    let times = run_parallel(&cores_list, |&cores| {
        let rep = default_strategy(Planner::new(Machine::bgl(cores)))
            .plan(&parent, &nests)
            .unwrap()
            .simulate(MEASURE_ITERS)
            .unwrap();
        rep.per_iteration()
    });
    let (c0, t0) = (cores_list[0], times[0]);
    for (&cores, &t) in cores_list.iter().zip(&times) {
        let speedup = t0 / t;
        let eff = speedup / (cores as f64 / c0 as f64);
        row(
            &mut out,
            &[
                cores.to_string(),
                format!("{t:.3}"),
                format!("{speedup:.2}"),
                format!("{:.0}%", eff * 100.0),
            ],
            &widths,
        );
    }
    if let Some(path) = &opts.trace_out {
        write_trace(
            &default_strategy(Planner::new(Machine::bgl(1024))),
            &parent,
            &nests,
            path,
        );
    }
    out += "\nPaper shape: strongly diminishing returns approaching 1024 cores\n";
    out += "(\"the performance of WRF involving a subdomain saturates at about 512\").\n";
    out
}
