//! End-to-end tests against a live in-process server: cache determinism
//! across every strategy/alloc/mapping combination, concurrent predicts
//! against one shared predictor, overload backpressure, and graceful drain.

#![cfg(not(loom))]

use nestwx_core::{fit_predictor, AllocPolicy, MappingKind, Planner, Strategy};
use nestwx_grid::{Domain, NestSpec};
use nestwx_serve::{
    parse_machine, spawn, Client, PredictParams, Request, RequestBody, ScenarioParams, ServeConfig,
};
use serde_json::Value;

const MACHINE: &str = "bgl:64";

fn parent() -> Domain {
    Domain::parent(286, 307, 24.0)
}

fn nests() -> Vec<NestSpec> {
    vec![
        NestSpec::new(150, 141, 3, (10, 12)),
        NestSpec::new(96, 90, 3, (180, 170)),
    ]
}

fn local_server() -> nestwx_serve::ServerHandle {
    spawn(ServeConfig::new("127.0.0.1:0")).expect("spawn server")
}

fn plan_request(id: &str, strategy: Strategy, alloc: AllocPolicy, mapping: MappingKind) -> Request {
    Request::new(
        Some(id.into()),
        RequestBody::Plan(ScenarioParams {
            machine: MACHINE.into(),
            parent: parent(),
            nests: nests(),
            strategy,
            alloc,
            mapping,
            io: None,
        }),
    )
}

fn shutdown_clean(handle: nestwx_serve::ServerHandle, client: &mut Client) {
    let resp = client
        .call(&Request::new(Some("bye".into()), RequestBody::Shutdown))
        .expect("shutdown call");
    assert!(resp.ok(), "shutdown rejected: {}", resp.raw);
    let report = handle.wait();
    assert!(report.clean(), "unclean drain: {report:?}");
}

fn u64s(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or(u64::MAX)
}

/// The `execute` endpoint end to end: a served fleet run reports the same
/// digests as a fleet driven directly with the same plan, worker counts
/// 1 and 2 agree bitwise, and the fleet obs envelope rides along.
#[test]
fn execute_fleet_matches_direct_run_across_worker_counts() {
    let handle = local_server();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let exec_parent = Domain::parent(48, 42, 24.0);
    let exec_nests = vec![
        NestSpec::new(24, 24, 3, (3, 3)),
        NestSpec::new(16, 16, 2, (26, 22)),
    ];
    let params = ScenarioParams {
        machine: MACHINE.into(),
        parent: exec_parent.clone(),
        nests: exec_nests.clone(),
        strategy: Strategy::Concurrent,
        alloc: AllocPolicy::HuffmanSplitTree,
        mapping: MappingKind::Partition,
        io: None,
    };
    let iterations = 4u32;

    // The direct reference: same planner path the server uses (same
    // predictor seed), fleet driven in this process at one worker.
    let machine = parse_machine(MACHINE).expect("machine");
    let plan = Planner::new(machine.clone())
        .strategy(Strategy::Concurrent)
        .alloc_policy(AllocPolicy::HuffmanSplitTree)
        .mapping(MappingKind::Partition)
        .with_predictor(fit_predictor(&machine, 0xBEEF))
        .plan(&exec_parent, &exec_nests)
        .expect("direct plan");
    let partitions: Vec<(usize, u64)> = plan
        .partitions
        .iter()
        .map(|p| (p.domain, p.rect.area()))
        .collect();
    let reference = nestwx_fleet::execute_in_process(
        &exec_parent,
        &exec_nests,
        iterations as u64,
        plan.machine.ranks() as u64,
        &partitions,
        &nestwx_fleet::FleetConfig {
            workers: 1,
            ..nestwx_fleet::FleetConfig::from_env()
        },
    )
    .expect("direct fleet run");

    let mut digests = Vec::new();
    for workers in [1u32, 2] {
        let req = Request::new(
            Some(format!("x{workers}")),
            RequestBody::Execute {
                params: params.clone(),
                iterations,
                workers,
            },
        );
        let resp = client.call(&req).expect("execute call");
        assert!(resp.ok(), "execute rejected: {}", resp.raw);
        let result = resp.result().expect("result payload");
        assert_eq!(u64s(result, "workers"), u64::from(workers));
        let report = result.get("report").expect("report block");
        assert_eq!(u64s(report, "iterations"), u64::from(iterations));
        assert_eq!(
            report.get("digest").and_then(Value::as_str),
            Some(reference.report.digest.as_str()),
            "served digest diverged from the direct fleet run ({workers} workers)"
        );
        assert_eq!(
            report.get("parent_digest").and_then(Value::as_str),
            Some(reference.report.parent_digest.as_str())
        );
        let fleet = result.get("fleet").expect("fleet obs envelope");
        assert_eq!(
            fleet.get("schema").and_then(Value::as_str),
            Some("nestwx-obs-fleet-summary")
        );
        assert_eq!(u64s(fleet, "workers"), u64::from(workers));
        assert_eq!(
            fleet
                .get("worker_rows")
                .and_then(Value::as_array)
                .map(Vec::len),
            Some(workers as usize)
        );
        digests.push(
            report
                .get("digest")
                .and_then(Value::as_str)
                .unwrap()
                .to_string(),
        );
    }
    assert_eq!(digests[0], digests[1], "worker counts disagreed");

    // The run shows up in the stats table as its own endpoint row.
    let stats = client
        .call(&Request::new(Some("s".into()), RequestBody::Stats))
        .expect("stats call");
    let snapshot = stats.result().expect("stats payload");
    let execute_row = snapshot
        .get("endpoints")
        .and_then(|e| e.get("execute"))
        .expect("execute endpoint row");
    assert_eq!(u64s(execute_row, "requests"), 2);
    assert_eq!(u64s(execute_row, "errors"), 0);
    shutdown_clean(handle, &mut client);
}

/// The tentpole guarantee: for every strategy × alloc × mapping
/// combination, the response served from cache is byte-identical to the
/// first (freshly computed) one, and both match an `ExecutionPlan`
/// computed directly with `Planner` — same partitions, same predicted
/// ratios, same grid.
#[test]
fn cached_plan_identical_to_fresh_across_all_combinations() {
    let handle = local_server();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let machine = parse_machine(MACHINE).expect("machine");
    // Pre-fit with the server's documented seed so the direct planner and
    // the service resolve the exact same predictor (and the test does not
    // re-fit per combination).
    let predictor = fit_predictor(&machine, 0xBEEF);

    let strategies = [Strategy::Sequential, Strategy::Concurrent];
    let allocs = [
        AllocPolicy::Equal,
        AllocPolicy::NaiveProportional,
        AllocPolicy::HuffmanSplitTree,
    ];
    for (si, &strategy) in strategies.iter().enumerate() {
        for (ai, &alloc) in allocs.iter().enumerate() {
            for (mi, &mapping) in MappingKind::ALL.iter().enumerate() {
                let id = format!("c{si}{ai}{mi}");
                let req = plan_request(&id, strategy, alloc, mapping);
                let fresh = client.call(&req).expect("fresh plan");
                assert!(fresh.ok(), "plan rejected: {}", fresh.raw);
                let cached = client.call(&req).expect("cached plan");
                assert_eq!(
                    fresh.raw, cached.raw,
                    "cached response not byte-identical ({strategy:?}/{alloc:?}/{mapping:?})"
                );

                let plan = Planner::new(machine.clone())
                    .strategy(strategy)
                    .alloc_policy(alloc)
                    .mapping(mapping)
                    .with_predictor(predictor.clone())
                    .plan(&parent(), &nests())
                    .expect("direct plan");
                let result = cached.result().expect("result payload");
                assert_eq!(u64s(result, "ranks"), u64::from(plan.machine.ranks()));
                let ratios: Vec<f64> = result
                    .get("predicted_ratios")
                    .and_then(Value::as_array)
                    .expect("predicted_ratios")
                    .iter()
                    .map(|v| v.as_f64().unwrap())
                    .collect();
                assert_eq!(ratios, plan.predicted_ratios, "ratios diverged");
                let parts = result
                    .get("partitions")
                    .and_then(Value::as_array)
                    .expect("partitions");
                assert_eq!(parts.len(), plan.partitions.len());
                for (got, want) in parts.iter().zip(&plan.partitions) {
                    assert_eq!(u64s(got, "nest"), want.domain as u64);
                    assert_eq!(u64s(got, "x"), u64::from(want.rect.x0));
                    assert_eq!(u64s(got, "y"), u64::from(want.rect.y0));
                    assert_eq!(u64s(got, "w"), u64::from(want.rect.w));
                    assert_eq!(u64s(got, "h"), u64::from(want.rect.h));
                    assert_eq!(u64s(got, "ranks"), want.rect.area());
                }
            }
        }
    }

    // Every combination was looked up twice: once cold, once hot.
    let stats = client
        .call(&Request::new(None, RequestBody::Stats))
        .expect("stats");
    let cache = stats
        .result()
        .and_then(|r| r.get("cache"))
        .cloned()
        .unwrap();
    let combos = 2 * 3 * MappingKind::ALL.len() as u64;
    assert_eq!(u64s(&cache, "misses"), combos);
    assert_eq!(u64s(&cache, "hits"), combos);
    shutdown_clean(handle, &mut client);
}

fn predict_request(id: String, machine: &str) -> Request {
    Request::new(
        Some(id),
        RequestBody::Predict(PredictParams {
            machine: machine.into(),
            nests: nests(),
        }),
    )
}

/// Concurrent predicts that share a machine resolve one shared predictor
/// fit, and every client still receives exactly the ratios the predictor
/// computes directly.
#[test]
fn concurrent_predicts_match_direct_predictor() {
    let handle = local_server();
    let machine = parse_machine(MACHINE).expect("machine");
    let features: Vec<nestwx_grid::DomainFeatures> = nests()
        .iter()
        .map(nestwx_grid::DomainFeatures::from)
        .collect();
    let expected = fit_predictor(&machine, 0xBEEF)
        .relative_times(&features)
        .expect("direct relative times");

    let addr = handle.addr().to_string();
    let clients: Vec<_> = (0..6)
        .map(|t| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).expect("connect");
                let resp = c
                    .call(&predict_request(format!("p{t}"), MACHINE))
                    .expect("predict");
                assert!(resp.ok(), "predict rejected: {}", resp.raw);
                resp.result()
                    .and_then(|r| r.get("relative_times"))
                    .and_then(Value::as_array)
                    .expect("relative_times")
                    .iter()
                    .map(|v| v.as_f64().unwrap())
                    .collect::<Vec<f64>>()
            })
        })
        .collect();
    for c in clients {
        let got = c.join().expect("client thread");
        assert_eq!(
            got, expected,
            "served predict diverged from direct predictor"
        );
    }

    let mut ctl = Client::connect(handle.addr()).expect("connect");
    let stats = ctl
        .call(&Request::new(None, RequestBody::Stats))
        .expect("stats");
    let result = stats.result().expect("stats payload");
    let limits = result.get("limits").expect("limits block");
    assert_eq!(
        u64s(limits, "predictors_cached"),
        1,
        "six predicts for one machine must share one fit: {limits:?}"
    );
    let row = result
        .get("endpoints")
        .and_then(|e| e.get("predict"))
        .expect("predict endpoint row");
    assert_eq!(u64s(row, "requests"), 6);
    assert_eq!(u64s(row, "errors"), 0);
    shutdown_clean(handle, &mut ctl);
}

/// One predict is one queued job — nothing else occupies queue capacity.
/// Four connections keep 12 pipelined predicts each in flight (48 < the
/// 64-slot queue) over four machines: none may bounce as `overloaded`.
#[test]
fn pipelined_predict_bursts_never_overflow_the_queue() {
    const CONNECTIONS: usize = 4;
    const DEPTH: usize = 12;
    const ROUNDS: usize = 200;
    const MACHINES: [&str; 4] = ["bgl:64", "bgl:128", "bgp:64", "bgp:128"];
    let mut cfg = ServeConfig::new("127.0.0.1:0");
    cfg.workers = 2;
    cfg.queue_depth = 64;
    let handle = spawn(cfg).expect("spawn server");

    let addr = handle.addr().to_string();
    let clients: Vec<_> = (0..CONNECTIONS)
        .map(|t| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).expect("connect");
                let lines: Vec<String> = (0..DEPTH)
                    .map(|j| {
                        predict_request(format!("c{t}r{j}"), MACHINES[(t + j) % MACHINES.len()])
                            .to_json_line()
                    })
                    .collect();
                for round in 0..ROUNDS {
                    for raw in c.call_pipelined(&lines).expect("pipelined predicts") {
                        assert!(
                            raw.contains("\"ok\":true"),
                            "connection {t} round {round}: {raw}"
                        );
                    }
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }

    let sent = (CONNECTIONS * DEPTH * ROUNDS) as u64;
    let stats = handle.stats_snapshot();
    assert_eq!(stats.queue.rejected_full, 0, "{:?}", stats.queue);
    assert_eq!(stats.queue.enqueued, sent, "one job per predict");
    assert_eq!(stats.queue.dequeued, sent, "{:?}", stats.queue);
    assert_eq!(stats.endpoints.predict.requests, sent);
    assert_eq!(stats.endpoints.predict.errors, 0);
    let mut ctl = Client::connect(handle.addr()).expect("connect");
    shutdown_clean(handle, &mut ctl);
}

/// Predicts pipelined ahead of a `shutdown` on the same connection were
/// accepted before the drain began: each one is answered — computed, or a
/// typed `shutting_down` — never dropped, and the drain balances.
#[test]
fn predicts_pipelined_before_shutdown_are_all_answered() {
    const PREDICTS: usize = 24;
    let handle = local_server();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let mut lines: Vec<String> = (0..PREDICTS)
        .map(|i| predict_request(format!("p{i}"), MACHINE).to_json_line())
        .collect();
    lines.push(Request::new(Some("bye".into()), RequestBody::Shutdown).to_json_line());
    let raws = client.call_pipelined(&lines).expect("pipelined drain");
    assert_eq!(raws.len(), PREDICTS + 1);
    for (i, raw) in raws.iter().take(PREDICTS).enumerate() {
        let v: Value = serde_json::from_str(raw).expect("response json");
        assert_eq!(
            v.get("id").and_then(Value::as_str),
            Some(format!("p{i}").as_str()),
            "response {i} out of order: {raw}"
        );
        let kind = v
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Value::as_str);
        assert!(
            v.get("ok").and_then(Value::as_bool) == Some(true) || kind == Some("shutting_down"),
            "predict {i} neither served nor typed shutting_down: {raw}"
        );
    }
    assert!(
        raws[PREDICTS].contains("\"draining\":true"),
        "{}",
        raws[PREDICTS]
    );
    let report = handle.wait();
    assert!(report.clean(), "unclean drain: {report:?}");
    assert_eq!(report.requests_total, PREDICTS as u64 + 1);
}

/// With one worker and a one-slot queue, a burst of distinct cold scenarios
/// must produce typed `overloaded` errors — and the server must keep
/// serving normally afterwards (backpressure, not collapse).
#[test]
fn overload_produces_typed_errors_then_recovers() {
    let mut cfg = ServeConfig::new("127.0.0.1:0");
    cfg.workers = 1;
    cfg.queue_depth = 1;
    let handle = spawn(cfg).expect("spawn server");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Distinct cold keys fired from concurrent connections (responses are
    // serialized per connection, so backpressure only shows under
    // cross-connection concurrency). The first job pins the single worker
    // behind a predictor fit, the second fills the one-slot queue, the
    // rest must bounce with a typed `overloaded` error.
    let strategies = [Strategy::Sequential, Strategy::Concurrent];
    let raws: Vec<Request> = (0..8)
        .map(|i| {
            plan_request(
                &format!("b{i}"),
                strategies[i / MappingKind::ALL.len()],
                AllocPolicy::HuffmanSplitTree,
                MappingKind::ALL[i % MappingKind::ALL.len()],
            )
        })
        .collect();
    let addr = handle.addr().to_string();
    let burst: Vec<_> = raws
        .iter()
        .cloned()
        .map(|req| {
            let addr = addr.clone();
            std::thread::spawn(move || -> String {
                let mut c = Client::connect(&addr).expect("burst connect");
                let resp = c.call(&req).expect("burst call");
                if resp.ok() {
                    "ok".into()
                } else {
                    resp.error_kind().unwrap_or("?").to_string()
                }
            })
        })
        .collect();
    let outcomes: Vec<String> = burst
        .into_iter()
        .map(|h| h.join().expect("burst thread"))
        .collect();
    let ok = outcomes.iter().filter(|o| *o == "ok").count();
    let overloaded = outcomes.iter().filter(|o| *o == "overloaded").count();
    assert_eq!(
        ok + overloaded,
        outcomes.len(),
        "unexpected outcome in burst: {outcomes:?}"
    );
    assert!(ok >= 1, "no request survived the burst: {outcomes:?}");
    assert!(
        overloaded >= 1,
        "bounded queue never pushed back: {outcomes:?}"
    );

    // Recovery: the same scenarios succeed once the burst is over.
    for req in &raws {
        let resp = client.call(req).expect("retry");
        assert!(resp.ok(), "server did not recover: {}", resp.raw);
    }
    let stats = client
        .call(&Request::new(None, RequestBody::Stats))
        .expect("stats");
    let queue = stats
        .result()
        .and_then(|r| r.get("queue"))
        .cloned()
        .unwrap();
    assert!(u64s(&queue, "rejected_full") >= overloaded as u64);
    shutdown_clean(handle, &mut client);
}

/// Shutdown drains: in-flight work is answered, the drain report balances
/// requests against responses, and nothing is left in the queue.
#[test]
fn graceful_shutdown_drains_inflight_work() {
    let handle = local_server();
    let mut client = Client::connect(handle.addr()).expect("connect");
    for i in 0..4 {
        let req = plan_request(
            &format!("d{i}"),
            Strategy::Concurrent,
            AllocPolicy::NaiveProportional,
            MappingKind::ALL[i % MappingKind::ALL.len()],
        );
        assert!(client.call(&req).expect("plan").ok());
    }
    let resp = client
        .call(&Request::new(Some("bye".into()), RequestBody::Shutdown))
        .expect("shutdown");
    assert!(resp.ok());
    let addr = handle.addr().to_string();
    let report = handle.wait();
    assert!(report.clean(), "unclean drain: {report:?}");
    assert_eq!(report.requests_total, report.responses_total);
    assert_eq!(report.queue_residual, 0);
    assert_eq!(report.live_conns, 0);

    // New connections are refused or immediately closed after drain.
    assert!(Client::connect(addr)
        .and_then(|mut c| c.call(&Request::new(None, RequestBody::Stats)))
        .is_err());
}

/// Pipelined requests on one connection are answered in request order —
/// the in-order response slots guarantee `raws[i]` answers `lines[i]` even
/// when some are cache hits and some need a worker.
#[test]
fn pipelined_responses_arrive_in_request_order() {
    let handle = local_server();
    let mut client = Client::connect(handle.addr()).expect("connect");
    // Warm two scenarios so the pipeline mixes hot hits with cold misses.
    for (i, mapping) in MappingKind::ALL.iter().take(2).enumerate() {
        let req = plan_request(
            &format!("warm{i}"),
            Strategy::Concurrent,
            AllocPolicy::HuffmanSplitTree,
            *mapping,
        );
        assert!(client.call(&req).expect("warm").ok());
    }
    let lines: Vec<String> = (0..12)
        .map(|i| {
            plan_request(
                &format!("p{i}"),
                Strategy::Concurrent,
                AllocPolicy::HuffmanSplitTree,
                MappingKind::ALL[i % 2],
            )
            .to_json_line()
        })
        .collect();
    let raws = client.call_pipelined(&lines).expect("pipelined batch");
    assert_eq!(raws.len(), lines.len());
    for (i, raw) in raws.iter().enumerate() {
        let v: Value = serde_json::from_str(raw).expect("response json");
        assert_eq!(
            v.get("id").and_then(Value::as_str),
            Some(format!("p{i}").as_str()),
            "response {i} out of order: {raw}"
        );
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
    }
    shutdown_clean(handle, &mut client);
}

/// A request whose deadline passes while it is queued behind a busy worker
/// is answered with a typed `deadline_exceeded` by the sweep — and the
/// drain still balances because the sweep's answer counts as the response.
#[test]
fn queued_request_past_deadline_gets_typed_error() {
    let mut cfg = ServeConfig::new("127.0.0.1:0");
    cfg.workers = 1;
    let handle = spawn(cfg).expect("spawn server");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // First line pins the single worker behind a full strategy comparison;
    // the second (1 ms deadline, the protocol minimum) expires in the queue
    // before the worker reaches it. The pin has to outlast that 1 ms by a
    // margin no optimisation of the simulator eats: `PIN_ITERATIONS` parent
    // iterations of both strategies measure 57-83 ms in a release build
    // here and 0.4-0.8 s in debug (5 iterations: 0.6 ms in release, and
    // the doomed request is planned instead of expiring).
    const PIN_ITERATIONS: u32 = 1500;
    let pin = Request::new(
        Some("pin".into()),
        RequestBody::Compare {
            params: ScenarioParams {
                machine: MACHINE.into(),
                parent: parent(),
                nests: nests(),
                strategy: Strategy::Concurrent,
                alloc: AllocPolicy::HuffmanSplitTree,
                mapping: MappingKind::Partition,
                io: None,
            },
            iterations: PIN_ITERATIONS,
        },
    );
    let mut doomed = plan_request(
        "doomed",
        Strategy::Sequential,
        AllocPolicy::Equal,
        MappingKind::ALL[1],
    );
    doomed.deadline_ms = Some(1);
    let raws = client
        .call_pipelined(&[pin.to_json_line(), doomed.to_json_line()])
        .expect("pipelined pair");
    let pinned: Value = serde_json::from_str(&raws[0]).expect("pin json");
    assert_eq!(pinned.get("ok").and_then(Value::as_bool), Some(true));
    let expired: Value = serde_json::from_str(&raws[1]).expect("doomed json");
    assert_eq!(
        expired
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Value::as_str),
        Some("deadline_exceeded"),
        "expected deadline_exceeded: {}",
        raws[1]
    );

    let stats = client
        .call(&Request::new(None, RequestBody::Stats))
        .expect("stats");
    let limits = stats
        .result()
        .and_then(|r| r.get("limits"))
        .cloned()
        .unwrap();
    assert!(u64s(&limits, "deadline_expired") >= 1, "{limits:?}");

    let resp = client
        .call(&Request::new(Some("bye".into()), RequestBody::Shutdown))
        .expect("shutdown");
    assert!(resp.ok());
    let report = handle.wait();
    assert!(report.clean(), "unclean drain: {report:?}");
    assert!(report.deadline_expired >= 1, "{report:?}");
}

/// The per-client token bucket sheds requests beyond the burst with a
/// typed `rate_limited` error; requests carrying no client identity are
/// exempt, and control requests cost nothing. A flood of distinct
/// identities over short-lived connections is never refused (buckets
/// start full) and leaves the client table at its cap.
#[test]
fn rate_limited_clients_shed_while_anonymous_pass() {
    const CLIENT_CAP: u64 = 64;
    let mut cfg = ServeConfig::new("127.0.0.1:0");
    cfg.rate = 1; // 1 token/s — no meaningful refill within the test
    cfg.burst = 4; // covers exactly two plan calls (cost 2 each)
    cfg.client_cap = CLIENT_CAP as usize;
    let handle = spawn(cfg).expect("spawn server");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let charged = |i: usize| {
        let mut req = plan_request(
            &format!("r{i}"),
            Strategy::Concurrent,
            AllocPolicy::HuffmanSplitTree,
            MappingKind::Partition,
        );
        req.client = Some("tenant-a".into());
        req
    };
    let first = client.call(&charged(0)).expect("first plan");
    assert!(first.ok(), "burst must cover the first call: {}", first.raw);
    let second = client.call(&charged(1)).expect("second plan");
    assert!(second.ok(), "burst must cover a cached hit too");
    let third = client.call(&charged(2)).expect("third plan");
    assert_eq!(
        third.error_kind(),
        Some("rate_limited"),
        "empty bucket must shed: {}",
        third.raw
    );

    // No client field → exempt from rate limiting entirely.
    let anon = client
        .call(&plan_request(
            "anon",
            Strategy::Concurrent,
            AllocPolicy::HuffmanSplitTree,
            MappingKind::Partition,
        ))
        .expect("anonymous plan");
    assert!(anon.ok(), "anonymous requests are exempt: {}", anon.raw);

    // Identity flood: 4096 never-seen client ids, a fresh connection per
    // pipelined wave. Every first charge passes, and the bucket table
    // evicts instead of growing.
    let (waves, wave) = (8u64, 512u64);
    for w in 0..waves {
        let lines: Vec<String> = (0..wave)
            .map(|j| {
                let mut req = charged(0);
                req.client = Some(format!("cl-{}", w * wave + j));
                req.to_json_line()
            })
            .collect();
        let mut conn = Client::connect(handle.addr()).expect("wave connect");
        let raws = conn.call_pipelined(&lines).expect("wave");
        let refused = raws.iter().filter(|r| !r.contains("\"ok\":true")).count();
        assert_eq!(refused, 0, "fresh identities refused in wave {w}");
    }
    let flooded = waves * wave;

    // Stats is a zero-cost control endpoint even for the shed client.
    let mut stats_req = Request::new(None, RequestBody::Stats);
    stats_req.client = Some("tenant-a".into());
    let stats = client.call(&stats_req).expect("stats");
    assert!(stats.ok(), "control endpoints cost nothing: {}", stats.raw);
    let limits = stats
        .result()
        .and_then(|r| r.get("limits"))
        .cloned()
        .unwrap();
    assert!(u64s(&limits, "rate_shed") >= 1, "{limits:?}");
    let tracked = u64s(&limits, "clients_tracked");
    assert!((1..=CLIENT_CAP).contains(&tracked), "{limits:?}");
    // One bucket per identity ever charged (tenant-a and the flood), each
    // either still tracked or evicted.
    assert_eq!(
        u64s(&limits, "rate_evictions"),
        flooded + 1 - tracked,
        "{limits:?}"
    );

    let resp = client
        .call(&Request::new(Some("bye".into()), RequestBody::Shutdown))
        .expect("shutdown");
    assert!(resp.ok());
    let report = handle.wait();
    assert!(report.clean(), "unclean drain: {report:?}");
    assert!(report.rate_shed >= 1, "shed must appear in the report");
}

/// An idle connection past the keep-alive cap is reaped by the reader —
/// and the reap still leaves the drain clean.
#[test]
fn idle_connections_are_reaped() {
    let mut cfg = ServeConfig::new("127.0.0.1:0");
    cfg.idle_ms = 50;
    let handle = spawn(cfg).expect("spawn server");
    let mut idler = Client::connect(handle.addr()).expect("connect");
    let resp = idler
        .call(&Request::new(Some("hi".into()), RequestBody::Stats))
        .expect("stats before idling");
    assert!(resp.ok());

    std::thread::sleep(std::time::Duration::from_millis(400));
    // The server closed the idle connection; the next round-trip fails
    // (EOF on read, or a send error once the kernel notices).
    let outcome = idler.call(&Request::new(Some("late".into()), RequestBody::Stats));
    assert!(outcome.is_err(), "idle connection survived the reaper");

    let mut ctl = Client::connect(handle.addr()).expect("fresh connect");
    shutdown_clean(handle, &mut ctl);
}

/// The predictor map is LRU-bounded: fitting more machines than the cap
/// evicts the stalest predictor instead of growing without bound.
#[test]
fn predictor_map_is_bounded_and_evicts() {
    let mut cfg = ServeConfig::new("127.0.0.1:0");
    cfg.predictors = 1;
    let handle = spawn(cfg).expect("spawn server");
    let mut client = Client::connect(handle.addr()).expect("connect");

    for (i, machine) in ["bgl:64", "bgl:128"].iter().enumerate() {
        let req = predict_request(format!("m{i}"), machine);
        let resp = client.call(&req).expect("predict");
        assert!(resp.ok(), "predict rejected: {}", resp.raw);
    }
    let stats = client
        .call(&Request::new(None, RequestBody::Stats))
        .expect("stats");
    let limits = stats
        .result()
        .and_then(|r| r.get("limits"))
        .cloned()
        .unwrap();
    assert_eq!(u64s(&limits, "predictors_cached"), 1, "{limits:?}");
    assert!(u64s(&limits, "predictor_evictions") >= 1, "{limits:?}");
    shutdown_clean(handle, &mut client);
}

/// Plans resolve their predictor through the same bounded store as
/// predicts: a stream of plan requests over one machine more than
/// `cfg.predictors` leaves the store full and reports the eviction, in the
/// unchanged `limits` block of `nestwx-serve-stats` v3.
#[test]
fn plan_stream_over_more_machines_than_the_store_holds_evicts() {
    let machines = ["bgl:64", "bgl:128", "bgl:256"];
    let mut cfg = ServeConfig::new("127.0.0.1:0");
    cfg.predictors = machines.len() - 1;
    let handle = spawn(cfg).expect("spawn server");
    let mut client = Client::connect(handle.addr()).expect("connect");

    for (i, machine) in machines.iter().enumerate() {
        let mut req = plan_request(
            &format!("p{i}"),
            Strategy::Concurrent,
            AllocPolicy::HuffmanSplitTree,
            MappingKind::Partition,
        );
        if let RequestBody::Plan(params) = &mut req.body {
            params.machine = (*machine).into();
        }
        let resp = client.call(&req).expect("plan");
        assert!(resp.ok(), "plan rejected: {}", resp.raw);
    }
    let stats = client
        .call(&Request::new(None, RequestBody::Stats))
        .expect("stats");
    let result = stats.result().expect("stats result");
    assert_eq!(
        result.get("schema").and_then(Value::as_str),
        Some("nestwx-serve-stats")
    );
    assert_eq!(u64s(result, "version"), 3);
    let limits = result.get("limits").cloned().unwrap();
    assert_eq!(
        u64s(&limits, "predictors_cached"),
        machines.len() as u64 - 1,
        "{limits:?}"
    );
    assert!(u64s(&limits, "predictor_evictions") >= 1, "{limits:?}");
    shutdown_clean(handle, &mut client);
}

/// The flight recorder's core contract: with recording on and off, the
/// same request sequence produces byte-identical response lines on every
/// endpoint — spans ride the completion channel and the per-connection
/// span queue, never the wire.
#[test]
fn responses_byte_identical_recording_on_and_off() {
    let mut on_cfg = ServeConfig::new("127.0.0.1:0");
    on_cfg.trace = true;
    on_cfg.trace_slow_us = 1; // everything is "slow" — stress the slow log too
    let mut off_cfg = ServeConfig::new("127.0.0.1:0");
    off_cfg.trace = false;
    let on = spawn(on_cfg).expect("spawn recording server");
    let off = spawn(off_cfg).expect("spawn silent server");
    let mut c_on = Client::connect(on.addr()).expect("connect on");
    let mut c_off = Client::connect(off.addr()).expect("connect off");

    let mut script: Vec<Request> = Vec::new();
    // Plan: cold, cached, then hot (third identical raw line).
    for i in 0..3 {
        script.push(plan_request(
            &format!("p{i}"),
            Strategy::Concurrent,
            AllocPolicy::HuffmanSplitTree,
            MappingKind::Partition,
        ));
    }
    script.push(Request::new(
        Some("cmp".into()),
        RequestBody::Compare {
            params: ScenarioParams {
                machine: MACHINE.into(),
                parent: parent(),
                nests: nests(),
                strategy: Strategy::Concurrent,
                alloc: AllocPolicy::HuffmanSplitTree,
                mapping: MappingKind::Partition,
                io: None,
            },
            iterations: 2,
        },
    ));
    script.push(Request::new(
        Some("pr".into()),
        RequestBody::Predict(PredictParams {
            machine: MACHINE.into(),
            nests: nests(),
        }),
    ));
    // A protocol error must render identically too.
    for req in &script {
        let a = c_on.call(req).expect("recording server");
        let b = c_off.call(req).expect("silent server");
        assert_eq!(a.raw, b.raw, "response diverged for {:?}", req.id);
    }

    // The recording server actually recorded something.
    let trace = c_on
        .call(&Request::new(Some("t".into()), RequestBody::Trace))
        .expect("trace");
    assert!(trace.ok(), "trace rejected: {}", trace.raw);
    let result = trace.result().expect("trace result").clone();
    let summary = result.get("summary").expect("summary");
    assert!(
        u64s(summary, "drained") >= script.len() as u64,
        "{summary:?}"
    );
    shutdown_clean(on, &mut c_on);
    shutdown_clean(off, &mut c_off);
}

/// The `trace` endpoint drains a versioned envelope whose spans cover the
/// hot/inline/worker paths, and a second drain starts empty (clean drain,
/// no double counting).
#[test]
fn trace_endpoint_drains_versioned_envelope_once() {
    let mut cfg = ServeConfig::new("127.0.0.1:0");
    cfg.trace = true;
    let handle = spawn(cfg).expect("spawn server");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let req = plan_request(
        "e0",
        Strategy::Sequential,
        AllocPolicy::Equal,
        MappingKind::Oblivious,
    );
    for _ in 0..3 {
        assert!(client.call(&req).expect("plan").ok());
    }
    let trace = client
        .call(&Request::new(Some("t1".into()), RequestBody::Trace))
        .expect("trace");
    let v = trace.result().expect("result").clone();
    assert_eq!(
        v.get("schema").and_then(Value::as_str),
        Some("nestwx-obs-serve-summary")
    );
    assert_eq!(v.get("version").and_then(Value::as_u64), Some(1));
    let summary = v.get("summary").expect("summary");
    assert_eq!(u64s(summary, "dropped"), 0);
    assert!(u64s(summary, "drained") >= 3);
    let by_path = summary.get("by_path").expect("by_path");
    // Cold plan → worker; repeats → reader cache / raw-line hot cache.
    assert!(u64s(by_path, "worker") >= 1, "{by_path:?}");
    assert!(
        u64s(by_path, "inline") + u64s(by_path, "hot") >= 2,
        "{by_path:?}"
    );
    let spans = v.get("spans").and_then(Value::as_array).expect("spans");
    // Every drained span is accounted for: serialized in the array, or
    // counted as truncated (the envelope caps the array to keep the
    // response under the protocol line limit).
    assert_eq!(
        spans.len() as u64 + u64s(summary, "spans_truncated"),
        u64s(summary, "drained")
    );
    // Spans come out in arrival order.
    let ts: Vec<u64> = spans.iter().map(|s| u64s(s, "ts_us")).collect();
    let mut sorted = ts.clone();
    sorted.sort_unstable();
    assert_eq!(ts, sorted, "spans not time-ordered");
    // A real drained envelope passes the schema check and converts to a
    // Chrome trace with one complete event per serialized span.
    let chrome = nestwx_obs::serve::serve_chrome_trace(&v).expect("chrome trace");
    assert_eq!(chrome.matches("\"ph\": \"X\"").count(), spans.len());

    // Second drain: only the spans recorded since (the trace request
    // itself, at most a couple) — the plans do not reappear.
    let again = client
        .call(&Request::new(Some("t2".into()), RequestBody::Trace))
        .expect("second trace");
    let v2 = again.result().expect("result").clone();
    let plan_spans = v2
        .get("spans")
        .and_then(Value::as_array)
        .expect("spans")
        .iter()
        .filter(|s| s.get("op").and_then(Value::as_str) == Some("plan"))
        .count();
    assert_eq!(plan_spans, 0, "drained plan spans reappeared");
    shutdown_clean(handle, &mut client);
}

/// `explain: true` appends the explain block (per-nest shares, predicted
/// s/iter, hop histogram) while the explain-off response — and the cached
/// bytes behind it — stay untouched.
#[test]
fn explain_adds_block_without_disturbing_cached_bytes() {
    let handle = local_server();
    let mut client = Client::connect(handle.addr()).expect("connect");

    let plain = plan_request(
        "x0",
        Strategy::Concurrent,
        AllocPolicy::HuffmanSplitTree,
        MappingKind::Partition,
    );
    let mut explained = plain.clone();
    explained.explain = true;

    let before = client.call(&plain).expect("plain plan");
    assert!(before.ok());
    assert!(
        before.result().unwrap().get("explain").is_none(),
        "explain leaked into a plain response"
    );

    let with = client.call(&explained).expect("explained plan");
    assert!(with.ok(), "explain plan rejected: {}", with.raw);
    let result = with.result().expect("result").clone();
    let explain = result.get("explain").expect("explain block");
    assert!(
        explain
            .get("predicted_s_per_iter")
            .and_then(Value::as_f64)
            .expect("predicted_s_per_iter")
            > 0.0
    );
    let nests_out = explain
        .get("nests")
        .and_then(Value::as_array)
        .expect("nests");
    // One explain row per plan partition (the same granularity the
    // response's own `partitions` array reports).
    let n_partitions = result
        .get("partitions")
        .and_then(Value::as_array)
        .expect("partitions")
        .len();
    assert_eq!(
        nests_out.len(),
        n_partitions,
        "one explain row per partition"
    );
    assert!(
        nests_out.len() >= nests().len(),
        "explain must cover every nest"
    );
    let share: f64 = nests_out
        .iter()
        .map(|n| n.get("alloc_share").and_then(Value::as_f64).unwrap())
        .sum();
    assert!(
        (share - 1.0).abs() < 1e-9,
        "alloc shares must sum to 1, got {share}"
    );
    let hops = explain.get("hops").expect("hops histogram");
    let counts = hops
        .get("counts")
        .and_then(Value::as_array)
        .expect("counts");
    let edges: u64 = counts.iter().map(|c| c.as_u64().unwrap()).sum();
    assert_eq!(
        edges,
        u64s(hops, "edges"),
        "histogram counts must sum to edges"
    );
    // Everything outside the explain block matches the plain response.
    let plain_result = before.result().unwrap();
    for key in ["ranks", "strategy", "predicted_ratios", "partitions"] {
        assert_eq!(
            plain_result.get(key),
            result.get(key),
            "'{key}' diverged under explain"
        );
    }

    // The cached plan bytes are untouched: the plain request still
    // returns the exact same line as before the explain call.
    let after = client.call(&plain).expect("plain plan again");
    assert_eq!(before.raw, after.raw, "explain disturbed the cached bytes");

    // Compare carries the same block.
    let mut cmp = Request::new(
        Some("xc".into()),
        RequestBody::Compare {
            params: ScenarioParams {
                machine: MACHINE.into(),
                parent: parent(),
                nests: nests(),
                strategy: Strategy::Concurrent,
                alloc: AllocPolicy::HuffmanSplitTree,
                mapping: MappingKind::Partition,
                io: None,
            },
            iterations: 2,
        },
    );
    cmp.explain = true;
    let cmp_resp = client.call(&cmp).expect("explained compare");
    assert!(cmp_resp.ok(), "explain compare rejected: {}", cmp_resp.raw);
    assert!(
        cmp_resp.result().unwrap().get("explain").is_some(),
        "compare lost its explain block"
    );
    shutdown_clean(handle, &mut client);
}
