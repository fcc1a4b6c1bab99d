//! End-to-end sweep ↔ serve integration: a sweep warmed into a disk
//! cache must make `nestwx-serve` answer `plan` requests from disk,
//! byte-identically to a server that plans from scratch — and re-running
//! the sweep must be a pure disk replay with the same `plans_digest`.

#![cfg(not(loom))]

use nestwx_core::strategy::{AllocPolicy, MappingKind, Strategy};
use nestwx_core::TempDir;
use nestwx_grid::{Domain, NestSpec};
use nestwx_serve::{spawn, Client, Request, RequestBody, ScenarioParams, ServeConfig};
use nestwx_sweep::{run_sweep, SweepOptions, SweepSpec};
use serde_json::Value;

const SPEC: &str = r#"{
    "machines": ["bgl:64"],
    "parents": ["286x307@24"],
    "nest_sets": [["150x141r3@10,12", "96x90r3@180,170"]],
    "strategies": ["sequential", "concurrent"],
    "allocs": ["equal", "naive", "huffman"],
    "mappings": ["oblivious", "txyz", "partition", "multilevel"],
    "iterations": 2
}"#;

fn options(cache: &TempDir) -> SweepOptions {
    SweepOptions {
        cache_dir: Some(cache.path().to_path_buf()),
        iterations: None,
        jobs: Some(4),
    }
}

fn plan_request(id: &str, strategy: Strategy, alloc: AllocPolicy, mapping: MappingKind) -> Request {
    Request::new(
        Some(id.into()),
        RequestBody::Plan(ScenarioParams {
            machine: "bgl:64".into(),
            parent: Domain::parent(286, 307, 24.0),
            nests: vec![
                NestSpec::new(150, 141, 3, (10, 12)),
                NestSpec::new(96, 90, 3, (180, 170)),
            ],
            strategy,
            alloc,
            mapping,
            io: None,
        }),
    )
}

fn disk_counter(client: &mut Client, key: &str) -> u64 {
    let resp = client
        .call(&Request::new(None, RequestBody::Stats))
        .expect("stats call");
    resp.result()
        .and_then(|r| r.get("disk"))
        .and_then(|d| d.get(key))
        .and_then(Value::as_u64)
        .expect("disk counters in stats")
}

#[test]
fn warm_sweep_preheats_serve_byte_identically() {
    let cache = TempDir::new("sweep-int").expect("tempdir");

    // Cold sweep: everything computed, nothing from disk.
    let spec = SweepSpec::parse(SPEC).expect("spec");
    let cold = run_sweep(&spec, &options(&cache)).expect("cold sweep");
    assert_eq!(cold.errors, 0, "scenario failures: {:?}", cold.scenarios);
    assert_eq!(
        cold.unique, 24,
        "1 machine × 1 parent × 1 nest set × 2×3×4 knobs"
    );
    assert_eq!(cold.computed, cold.unique);
    assert_eq!(cold.disk_hits, 0);

    // Warm sweep: pure disk replay, identical plan set.
    let warm = run_sweep(&spec, &options(&cache)).expect("warm sweep");
    assert_eq!(warm.computed, 0, "warm sweep recomputed scenarios");
    assert_eq!(warm.disk_hits, warm.unique);
    assert_eq!(warm.plans_digest, cold.plans_digest);

    // A server pointed at the swept cache dir answers from disk...
    let mut warm_cfg = ServeConfig::new("127.0.0.1:0");
    warm_cfg.cache_dir = Some(cache.path().to_path_buf());
    let warm_handle = spawn(warm_cfg).expect("spawn warmed server");
    let mut warm_client = Client::connect(warm_handle.addr()).expect("connect warmed");

    // ...while a cache-less server plans the same scenarios from scratch.
    let fresh_handle = spawn(ServeConfig::new("127.0.0.1:0")).expect("spawn fresh server");
    let mut fresh_client = Client::connect(fresh_handle.addr()).expect("connect fresh");

    let combos = [
        (
            Strategy::Concurrent,
            AllocPolicy::HuffmanSplitTree,
            MappingKind::Partition,
        ),
        (Strategy::Sequential, AllocPolicy::Equal, MappingKind::Txyz),
        (
            Strategy::Concurrent,
            AllocPolicy::NaiveProportional,
            MappingKind::MultiLevel,
        ),
    ];
    for (i, &(strategy, alloc, mapping)) in combos.iter().enumerate() {
        let req = plan_request(&format!("w{i}"), strategy, alloc, mapping);
        let from_disk = warm_client.call(&req).expect("warmed plan");
        let from_scratch = fresh_client.call(&req).expect("fresh plan");
        assert!(from_disk.ok(), "warmed server rejected: {}", from_disk.raw);
        assert_eq!(
            from_disk.raw, from_scratch.raw,
            "disk-cached plan differs from freshly planned bytes"
        );
    }

    // The warmed server really did hit disk — once per combo — and wrote
    // nothing new (every plan was already present).
    assert_eq!(disk_counter(&mut warm_client, "hits"), combos.len() as u64);
    assert_eq!(disk_counter(&mut warm_client, "writes"), 0);
    assert_eq!(disk_counter(&mut warm_client, "corrupt"), 0);

    for (handle, client) in [
        (warm_handle, &mut warm_client),
        (fresh_handle, &mut fresh_client),
    ] {
        let resp = client
            .call(&Request::new(Some("bye".into()), RequestBody::Shutdown))
            .expect("shutdown");
        assert!(resp.ok(), "shutdown rejected: {}", resp.raw);
        assert!(handle.wait().clean(), "unclean drain");
    }
}

#[test]
fn plans_digest_is_job_count_invariant() {
    let spec = SweepSpec::parse(SPEC).expect("spec");
    let mut digests = Vec::new();
    for jobs in [1usize, 3, 8] {
        let opts = SweepOptions {
            cache_dir: None,
            iterations: None,
            jobs: Some(jobs),
        };
        let report = run_sweep(&spec, &opts).expect("sweep");
        assert_eq!(report.errors, 0);
        assert_eq!(report.jobs, jobs);
        digests.push(report.plans_digest);
    }
    assert_eq!(digests[0], digests[1]);
    assert_eq!(digests[1], digests[2]);
}

#[test]
fn sweep_report_orders_scenarios_like_the_spec() {
    let spec = SweepSpec::parse(SPEC).expect("spec");
    let expansion = spec.expand();
    let opts = SweepOptions {
        cache_dir: None,
        iterations: None,
        jobs: Some(4),
    };
    let report = run_sweep(&spec, &opts).expect("sweep");
    assert_eq!(report.scenarios.len(), expansion.scenarios.len());
    for (row, scenario) in report.scenarios.iter().zip(&expansion.scenarios) {
        assert_eq!(
            row.key,
            nestwx_serve::keys::sweep_key(scenario, spec.iterations)
        );
    }
    // Pareto front and winners cover the single region swept.
    assert!(!report.pareto.is_empty(), "no pareto points");
    assert_eq!(report.winners.len(), 1, "one region configuration swept");
    assert_eq!(report.winners[0].scenarios, 24);
}

/// Absolute values for the committed example spec. `plans_digest` hashes
/// every sweep key, so it also locks the key bytes that existing cache
/// directories are addressed by; the second digest locks the canonical
/// scenario strings and their order.
#[test]
fn smoke_spec_digests_are_pinned() {
    let text = include_str!("../../../examples/sweep_smoke.json");
    let spec = SweepSpec::parse(text).expect("spec");
    let canonical: Vec<String> = spec
        .expand()
        .scenarios
        .iter()
        .map(|s| s.canonical_string())
        .collect();
    let canonical_digest = format!(
        "{:016x}",
        nestwx_core::fnv1a64(canonical.join("\n").as_bytes())
    );
    assert_eq!(canonical_digest, "7ef2003eec10882d");

    let opts = SweepOptions {
        cache_dir: None,
        iterations: None,
        jobs: Some(2),
    };
    let cold = run_sweep(&spec, &opts).expect("cold sweep");
    assert_eq!((cold.unique, cold.computed, cold.errors), (64, 64, 0));
    assert_eq!(cold.plans_digest, "bbdb3ab09f1a9c91");
}
