//! The benchmark's declared surface: workloads, end-to-end metrics and
//! per-layer metrics, by name and unit.
//!
//! `BENCHMARK.json` at the repo root carries the same names (a unit test
//! holds the two together); `ledger.json` beside this package carries the
//! interaction table (`moves` / `no_change_on`) for every per-layer metric.

/// One workload: its name and the operation its `ops_per_s` counts.
pub struct WorkloadSpec {
    pub name: &'static str,
    /// What one "op" of `ops_per_s` is.
    pub op: &'static str,
    /// What one latency sample of `op_p50_us` / `op_p90_us` is.
    pub sample: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 8] = [
    WorkloadSpec {
        name: "plan_cold",
        op: "request line parsed, planned without a predictor, compiled, simulated 3 iterations, rendered",
        sample: "one such op",
    },
    WorkloadSpec {
        name: "netsim_large",
        op: "netsim halo step of a 4-nest multilevel plan on bgp:4096, no recorder",
        sample: "one run_mut call, per halo step",
    },
    WorkloadSpec {
        name: "netsim_observed",
        op: "netsim halo step of the same plan with the detailed recorder attached",
        sample: "one run_mut call, per halo step",
    },
    WorkloadSpec {
        name: "serve_hot",
        op: "response to a pipelined (depth 128, 2 connections) request over the 16-scenario hot set",
        sample: "one depth-1 round trip on one connection",
    },
    WorkloadSpec {
        name: "serve_cold",
        op: "response to a distinct-key plan request (2 connections at depth 1)",
        sample: "one such round trip",
    },
    WorkloadSpec {
        name: "miniwrf_solve",
        op: "coupled parent iteration of the in-process shallow-water solver (2 nests, 2 threads)",
        sample: "one run_iterations call of one iteration",
    },
    WorkloadSpec {
        name: "fleet_halo",
        op: "coupled parent iteration with every halo crossing a loopback socket (2 workers)",
        sample: "one execute_in_process call (handshake included), per iteration",
    },
    WorkloadSpec {
        name: "sweep_disk",
        op: "scenario answered by a warm sweep pass over the filled disk cache (reads only, jobs=2); the cold pass that plans, simulates and writes the 288 entries is the set-up",
        sample: "one warm pass, per scenario",
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// An end-to-end metric: every untraced run of every workload reports all
/// of them. `bound` is the share of the parent's median by which the
/// metric may worsen before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p90_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// Which direction of `metric` is an improvement.
pub fn better(metric: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.better))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.better)))
        .find(|(name, _)| *name == metric)
        .map_or("?", |(_, better)| better)
}

/// A per-layer metric: every traced run reports all of them; a layer the
/// workload never enters reads 0, which is the measured "no change here".
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn pl(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 81] = [
    // harness
    pl("trace.overhead_pct", "%", "lower"),
    pl("trace.self_sum_share", "ratio", "higher"),
    pl("trace.spans", "count", "lower"),
    pl("cpu_us_per_op", "us", "lower"),
    // grid
    pl("grid.nested_config_us", "us", "lower"),
    // predict
    pl("predict.fit_us", "us", "lower"),
    pl("predict.relative_times_us", "us", "lower"),
    // core
    pl("core.profile_basis_us", "us", "lower"),
    pl("core.fit_share", "ratio", "lower"),
    pl("core.canon_key_us", "us", "lower"),
    pl("core.plan_us", "us", "lower"),
    pl("core.plan_self_us", "us", "lower"),
    pl("core.plan_spans", "count", "lower"),
    // alloc
    pl("alloc.partition_us", "us", "lower"),
    // topo
    pl("topo.mapping_us.oblivious", "us", "lower"),
    pl("topo.mapping_us.txyz", "us", "lower"),
    pl("topo.mapping_us.partition", "us", "lower"),
    pl("topo.mapping_us.multilevel", "us", "lower"),
    // netsim
    pl("netsim.compile_us", "us", "lower"),
    pl("netsim.run_us_per_step", "us", "lower"),
    pl("netsim.steps", "count", "lower"),
    pl("netsim.bytes_moved", "count", "lower"),
    pl("netsim.avg_hops", "ratio", "lower"),
    pl("netsim.sim_wait_s", "s", "lower"),
    // obs
    pl("obs.counter_overhead_pct", "%", "lower"),
    pl("obs.detailed_overhead_pct", "%", "lower"),
    pl("obs.ring_dropped", "count", "lower"),
    pl("obs.hist_record_ns", "ns", "lower"),
    // miniwrf
    pl("miniwrf.build_model_us", "us", "lower"),
    pl("miniwrf.parent_s", "s", "lower"),
    pl("miniwrf.siblings_s", "s", "lower"),
    pl("miniwrf.cell_updates_per_s", "1/s", "higher"),
    pl("miniwrf.report_us", "us", "lower"),
    // fleet
    pl("fleet.inproc_iters_per_s", "1/s", "higher"),
    pl("fleet.overhead_us_per_iter", "us", "lower"),
    pl("fleet.coordinator_wait_s", "s", "lower"),
    pl("fleet.coordinator_wait_share", "ratio", "lower"),
    pl("fleet.worker_wait_s", "s", "lower"),
    pl("fleet.frames_in", "count", "lower"),
    pl("fleet.socket_bytes_out", "count", "lower"),
    pl("fleet.socket_bytes_in", "count", "lower"),
    pl("fleet.logical_halo_bytes", "count", "lower"),
    pl("fleet.encode_ns_per_cell", "ns", "lower"),
    pl("fleet.decode_ns_per_cell", "ns", "lower"),
    pl("fleet.handshake_us", "us", "lower"),
    // serve
    pl("serve.parse_us", "us", "lower"),
    pl("serve.to_scenario_us", "us", "lower"),
    pl("serve.key_us", "us", "lower"),
    pl("serve.render_plan_us", "us", "lower"),
    pl("serve.lib_path_us", "us", "lower"),
    pl("serve.transport_us", "us", "lower"),
    pl("serve.cache_get_ns", "ns", "lower"),
    pl("serve.cache_insert_ns", "ns", "lower"),
    pl("serve.disk_get_us", "us", "lower"),
    pl("serve.disk_put_us", "us", "lower"),
    pl("serve.span_parse_us_p50", "us", "lower"),
    pl("serve.span_wait_us_p50", "us", "lower"),
    pl("serve.span_work_us_p50", "us", "lower"),
    pl("serve.span_write_us_p50", "us", "lower"),
    pl("serve.path_hot", "count", "higher"),
    pl("serve.path_inline", "count", "lower"),
    pl("serve.path_worker", "count", "lower"),
    pl("serve.cache_hits", "count", "higher"),
    pl("serve.cache_misses", "count", "lower"),
    pl("serve.cache_evictions", "count", "lower"),
    pl("serve.predictors_cached", "count", "lower"),
    pl("serve.predictor_evictions", "count", "lower"),
    pl("serve.idle_cpu_share", "ratio", "lower"),
    // sweep
    pl("sweep.parse_us", "us", "lower"),
    pl("sweep.expand_us", "us", "lower"),
    pl("sweep.computed", "count", "lower"),
    pl("sweep.disk_hits", "count", "higher"),
    pl("sweep.errors", "count", "lower"),
    pl("sweep.disk_entry_bytes", "count", "lower"),
    pl("sweep.cold_plans_per_s", "1/s", "higher"),
    // self time per layer, from the harness's own spans (share of the
    // traced wall time; the rows of the README's ledger table)
    pl("self_share.core", "ratio", "lower"),
    pl("self_share.netsim", "ratio", "lower"),
    pl("self_share.serve", "ratio", "lower"),
    pl("self_share.miniwrf", "ratio", "lower"),
    pl("self_share.fleet", "ratio", "lower"),
    pl("self_share.sweep", "ratio", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn load(rel: &str) -> Value {
        let path = format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
        v[key]
            .as_str()
            .unwrap_or_else(|| panic!("missing string {key} in {v:?}"))
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_harness_reports() {
        let b = load("../BENCHMARK.json");
        let workloads: Vec<&str> = b["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| str_of(w, "name"))
            .collect();
        assert_eq!(
            workloads,
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        for w in b["workloads"].as_array().unwrap() {
            let why = str_of(w, "why");
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }

        let e2e = b["end_to_end"].as_array().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(
                (str_of(j, "name"), str_of(j, "unit"), str_of(j, "better")),
                (m.name, m.unit, m.better)
            );
            assert_eq!(j["bound"].as_f64(), Some(m.bound));
            assert!(m.bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| (m.name, m.unit, m.better) == ("setup_s", "s", "lower")));

        let per_layer = b["per_layer"].as_array().unwrap();
        assert_eq!(per_layer.len(), PER_LAYER.len());
        assert!(per_layer.len() <= 128);
        for (j, m) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(
                (str_of(j, "name"), str_of(j, "unit"), str_of(j, "better")),
                (m.name, m.unit, m.better)
            );
        }

        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        names.sort_unstable();
        let total = names.len();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }

    #[test]
    fn every_ledger_entry_refers_to_a_declared_metric_and_workload() {
        let ledger = load("ledger.json");
        assert!(ledger["claim"].is_null(), "this ledger claims no gain");
        let rows = ledger["per_layer"].as_array().unwrap();
        assert_eq!(
            rows.iter().map(|r| str_of(r, "name")).collect::<Vec<_>>(),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        let is_workload = |w: &str| w == "*" || workload(w).is_some();
        for row in rows {
            for m in row["moves"].as_array().unwrap() {
                let (metric, w) = (str_of(m, "metric"), str_of(m, "workload"));
                assert!(END_TO_END.iter().any(|e| e.name == metric), "{metric}");
                assert!(workload(w).is_some(), "{w}");
            }
            for list in ["no_change_on", "measured_on"] {
                for w in row[list].as_array().unwrap() {
                    assert!(is_workload(w.as_str().unwrap()), "{w:?}");
                }
            }
        }
    }
}
