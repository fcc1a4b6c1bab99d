//! `serve_hot` and `serve_cold` — the planning service over loopback TCP.
//!
//! Same in-process server, same configuration, opposite ends of the
//! cache: `serve_hot` repeats 16 pre-warmed scenarios (raw-line hot cache
//! and event loop do all the work, the planner none); `serve_cold` sends
//! only distinct keys (parse → canonicalize → queue → worker → plan →
//! render → insert-with-eviction on every request). The gap between the
//! two is the repo's oldest unexplained number.

use super::{Args, Batch, Checks, Layers, Traced, Workload};
use crate::gen::{self, Rng};
use crate::stats;
use crate::sys;
use crate::trace::{SpanId, Tracer};
use nestwx_core::{fit_predictor, MappingKind};
use nestwx_obs::LogHistogram;
use nestwx_predict::ExecTimePredictor;
use nestwx_serve::keys::{key_digest, plan_key};
use nestwx_serve::protocol::response_ok_line;
use nestwx_serve::{
    render_plan, spawn, Client, PlanCache, Request, RequestBody, ServeConfig, ServerHandle,
    TraceEnvelope,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The server both workloads run against. Starts from the crate's
/// defaults (the environment is scrubbed, so these are the documented
/// ones) and pins every field a number depends on.
fn serve_config() -> ServeConfig {
    let mut cfg = ServeConfig::new("127.0.0.1:0");
    cfg.readers = 1;
    cfg.workers = 2;
    cfg.cache_capacity = 256;
    cfg.predictors = 64;
    cfg.queue_depth = 64;
    cfg.max_conns = 64;
    cfg.deadline_ms = 0;
    cfg.rate = 0;
    cfg.idle_ms = 0;
    cfg.lifetime_ms = 0;
    cfg.cache_dir = None;
    cfg.trace = true;
    cfg.trace_ring = 4096;
    cfg.trace_slow_us = 0;
    cfg
}

fn config_echo(cfg: &ServeConfig) -> String {
    format!(
        "readers={} workers={} cache_capacity={} predictors={} queue_depth={} limits=off \
         flight_recorder={} trace_ring={}",
        cfg.readers,
        cfg.workers,
        cfg.cache_capacity,
        cfg.predictors,
        cfg.queue_depth,
        cfg.trace,
        cfg.trace_ring
    )
}

fn connect(handle: &ServerHandle) -> Result<Client, String> {
    Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))
}

/// Shuts the server down and says whether the drain was clean.
fn drain(handle: ServerHandle) -> Result<(), String> {
    handle.shutdown();
    let report = handle.wait();
    if report.clean() {
        Ok(())
    } else {
        Err(format!("drain not clean: {report:?}"))
    }
}

/// Server-side flight-recorder spans drained during the traced batches.
#[derive(Default)]
struct ServerSpans {
    hot: u64,
    inline: u64,
    worker: u64,
    parse_us: Vec<f64>,
    wait_us: Vec<f64>,
    work_us: Vec<f64>,
    write_us: Vec<f64>,
}

impl ServerSpans {
    /// Folds one drain in. Stage samples come from plan requests only
    /// (an envelope can also carry `stats` or `trace` ops).
    fn absorb(&mut self, env: &TraceEnvelope) {
        self.hot += env.summary.by_path.hot;
        self.inline += env.summary.by_path.inline;
        self.worker += env.summary.by_path.worker;
        for s in env.spans.iter().filter(|s| s.op == "plan") {
            self.parse_us.push(f64::from(s.parse_us));
            self.wait_us.push(f64::from(s.wait_us));
            self.work_us.push(f64::from(s.work_us));
            self.write_us.push(f64::from(s.write_us));
        }
    }

    fn report(&self, layers: &mut Layers) {
        layers.set("serve.path_hot", self.hot as f64);
        layers.set("serve.path_inline", self.inline as f64);
        layers.set("serve.path_worker", self.worker as f64);
        layers.set("serve.span_parse_us_p50", stats::median(&self.parse_us));
        layers.set("serve.span_wait_us_p50", stats::median(&self.wait_us));
        layers.set("serve.span_work_us_p50", stats::median(&self.work_us));
        layers.set("serve.span_write_us_p50", stats::median(&self.write_us));
    }
}

fn report_counters(handle: &ServerHandle, layers: &mut Layers) {
    let snap = handle.stats_snapshot();
    layers.set("serve.cache_hits", snap.cache.hits as f64);
    layers.set("serve.cache_misses", snap.cache.misses as f64);
    layers.set("serve.cache_evictions", snap.cache.evictions as f64);
    layers.set(
        "serve.predictors_cached",
        snap.limits.predictors_cached as f64,
    );
    layers.set(
        "serve.predictor_evictions",
        snap.limits.predictor_evictions as f64,
    );
}

/// The tracer of client thread `t`. Only the first connection's calls
/// are recorded: the connections are symmetric, and spans of lanes that
/// run side by side would add up to thread time, not wall time.
fn client_tracer(tr: &Tracer, t: usize) -> Tracer {
    let mut forked = tr.fork(t as u32 + 1);
    forked.set_enabled(tr.enabled() && t == 0);
    forked
}

/// One raw depth-1 round trip (no JSON parsing on the client side).
fn round_trip(client: &mut Client, line: &String) -> Result<String, String> {
    client
        .call_pipelined(std::slice::from_ref(line))
        .map_err(|e| format!("round trip: {e}"))
        .and_then(|mut raws| raws.pop().ok_or_else(|| "no response".to_string()))
}

// ---------------------------------------------------------------------------
// serve_hot
// ---------------------------------------------------------------------------

const HOT_SET: usize = 16;
const PIPELINE_DEPTH: usize = 128;
const HOT_CONNECTIONS: usize = 2;
/// Pipelined calls per connection per batch (phase A).
const PIPELINES_PER_BATCH: usize = 300;
/// Depth-1 round trips per batch (phase B).
const ROUND_TRIPS_PER_BATCH: usize = 3000;

pub struct ServeHot {
    handle: Option<ServerHandle>,
    cfg: ServeConfig,
    lines: Vec<String>,
    canonical: Vec<String>,
    pipes: Vec<Client>,
    single: Option<Client>,
    pipelines: usize,
    round_trips: usize,
    server_spans: ServerSpans,
}

impl Workload for ServeHot {
    fn setup(args: &Args) -> Result<Self, String> {
        let cfg = serve_config();
        let handle = spawn(cfg.clone()).map_err(|e| format!("spawn server: {e}"))?;
        let mut rng = Rng::stream(args.seed, "serve_hot");
        let parent = gen::pacific_parent();
        let lines: Vec<String> = (0..HOT_SET)
            .map(|i| {
                let nests = vec![
                    gen::paper_nest(&mut rng, &parent),
                    gen::paper_nest(&mut rng, &parent),
                ];
                gen::plan_request(format!("h{i}"), "bgl:64", nests, MappingKind::ALL[i % 4])
                    .to_json_line()
            })
            .collect();
        // Pre-warm: the first answer per scenario is the byte-identity
        // oracle for every later one.
        let mut single = connect(&handle)?;
        let canonical = lines
            .iter()
            .map(|line| round_trip(&mut single, line))
            .collect::<Result<Vec<_>, _>>()?;
        if let Some(bad) = canonical.iter().find(|r| !r.contains("\"ok\":true")) {
            return Err(format!("warm-up request rejected: {bad}"));
        }
        let pipes = (0..HOT_CONNECTIONS)
            .map(|_| connect(&handle))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ServeHot {
            handle: Some(handle),
            cfg,
            lines,
            canonical,
            pipes,
            single: Some(single),
            pipelines: args.scaled(PIPELINES_PER_BATCH, 4),
            round_trips: args.scaled(ROUND_TRIPS_PER_BATCH, 100),
            server_spans: ServerSpans::default(),
        })
    }

    fn discard(mut self) -> Result<(), String> {
        self.pipes.clear();
        self.single = None;
        drain(self.handle.take().expect("server running"))
    }

    fn batch(&mut self, tr: &mut Tracer, parent: SpanId, samples: &mut Vec<f64>) -> Batch {
        let mut b = Batch::default();
        let (lines, canonical, pipelines) = (&self.lines, &self.canonical, self.pipelines);

        // Phase A: every connection keeps a 128-deep pipeline full.
        let t0 = Instant::now();
        let results: Vec<(Tracer, u64)> = std::thread::scope(|scope| {
            let joins: Vec<_> = self
                .pipes
                .iter_mut()
                .enumerate()
                .map(|(t, client)| {
                    let mut tr = client_tracer(tr, t);
                    scope.spawn(move || {
                        // 128 = 8 × 16: every pipeline carries each hot
                        // scenario eight times, starting at this
                        // connection's offset.
                        let idx = |j: usize| (t + j) % HOT_SET;
                        let batch: Vec<String> =
                            (0..PIPELINE_DEPTH).map(|j| lines[idx(j)].clone()).collect();
                        let mut failed = 0u64;
                        for p in 0..pipelines {
                            let span = tr.begin("serve.pipeline", p as u64, crate::trace::NONE);
                            let raws = client.call_pipelined(&batch);
                            tr.end(span);
                            match raws {
                                Ok(raws) => {
                                    failed +=
                                        raws.iter()
                                            .enumerate()
                                            .filter(|(j, raw)| **raw != canonical[idx(*j)])
                                            .count() as u64;
                                }
                                Err(e) => {
                                    eprintln!("serve_hot: pipeline failed: {e}");
                                    failed += PIPELINE_DEPTH as u64;
                                }
                            }
                        }
                        (tr, failed)
                    })
                })
                .collect();
            joins
                .into_iter()
                .map(|j| j.join().expect("client thread panicked"))
                .collect()
        });
        b.secs = t0.elapsed().as_secs_f64();
        b.ops = (HOT_CONNECTIONS * pipelines * PIPELINE_DEPTH) as u64;
        for (forked, failed) in results {
            tr.merge(forked, parent);
            b.failed += failed;
        }
        if tr.enabled() {
            self.server_spans.absorb(
                &self
                    .handle
                    .as_ref()
                    .expect("server running")
                    .trace_envelope(),
            );
        }

        // Phase B: one connection, one request in flight.
        let single = self.single.as_mut().expect("connection open");
        for i in 0..self.round_trips {
            let k = i % HOT_SET;
            let span = tr.begin("serve.rtt", i as u64, parent);
            let t0 = Instant::now();
            let raw = round_trip(single, &self.lines[k]);
            let dt = t0.elapsed();
            tr.end(span);
            samples.push(dt.as_secs_f64() * 1e6);
            if raw.as_deref() != Ok(self.canonical[k].as_str()) {
                b.failed += 1;
            }
        }
        b.other_ops = self.round_trips as u64;
        if tr.enabled() {
            self.server_spans.absorb(
                &self
                    .handle
                    .as_ref()
                    .expect("server running")
                    .trace_envelope(),
            );
        }
        b
    }

    fn probe(&mut self, layers: &mut Layers, traced: &Traced, budget: Duration) {
        let handle = self.handle.as_ref().expect("server running");
        self.server_spans.report(layers);
        report_counters(handle, layers);
        layers.set("core.plan_spans", traced.count("core.plan") as f64);
        // Idle cost of the readiness loop: process CPU seconds per wall
        // second with the workload's connections open and nothing in
        // flight (the harness thread sleeps).
        let window = budget.min(Duration::from_secs(2));
        let (cpu0, t0) = (sys::cpu_seconds(), Instant::now());
        std::thread::sleep(window);
        layers.set(
            "serve.idle_cpu_share",
            (sys::cpu_seconds() - cpu0) / t0.elapsed().as_secs_f64(),
        );
    }

    fn finish(mut self, checks: &mut Checks) {
        let handle = self.handle.take().expect("server running");
        let snap = handle.stats_snapshot();
        checks.check(snap.cache.misses == HOT_SET as u64, || {
            format!(
                "cache_misses is {} after a {HOT_SET}-scenario hot set",
                snap.cache.misses
            )
        });
        self.pipes.clear();
        self.single = None;
        let drained = drain(handle);
        checks.check(drained.is_ok(), || format!("{drained:?}"));
    }

    fn config(&self) -> Vec<(&'static str, String)> {
        vec![
            ("serve", config_echo(&self.cfg)),
            ("hot_set", HOT_SET.to_string()),
            (
                "phase_a",
                format!(
                    "{HOT_CONNECTIONS} connections x {} pipelines x depth {PIPELINE_DEPTH} per batch",
                    self.pipelines
                ),
            ),
            ("phase_b", format!("1 connection x {} depth-1 round trips per batch", self.round_trips)),
            ("load_threads", HOT_CONNECTIONS.to_string()),
        ]
    }
}

// ---------------------------------------------------------------------------
// serve_cold
// ---------------------------------------------------------------------------

/// Six machines: fewer than the 64-entry predictor map, so every
/// predictor is fitted once (in set-up) and never evicted.
const COLD_MACHINES: [&str; 6] = [
    "bgl:64", "bgl:128", "bgl:256", "bgl:512", "bgp:128", "bgp:256",
];
const COLD_CONNECTIONS: usize = 2;
/// Round trips per connection per batch.
const COLD_PER_CONNECTION: usize = 1500;
/// One response in this many is kept and compared byte for byte with
/// `render_plan` computed in the harness, outside the timed loop.
const VERIFY_EVERY: usize = 64;
const VERIFY_MAX: usize = 320;

pub struct ServeCold {
    handle: Option<ServerHandle>,
    cfg: ServeConfig,
    rng: Rng,
    next_index: u64,
    clients: Vec<Client>,
    per_connection: usize,
    kept: Vec<(String, String)>,
    last_lines: Vec<String>,
    server_spans: ServerSpans,
}

impl ServeCold {
    fn next_lines(&mut self, n: usize) -> Vec<String> {
        (0..n)
            .map(|_| {
                let line = gen::distinct_plan_line(&mut self.rng, &COLD_MACHINES, self.next_index);
                self.next_index += 1;
                line
            })
            .collect()
    }
}

/// The per-machine predictors the server fits, rebuilt in the harness
/// (same fixed profiling seed, so plans are byte-identical).
struct Oracle(BTreeMap<String, ExecTimePredictor>);

impl Oracle {
    fn new() -> Oracle {
        Oracle(
            COLD_MACHINES
                .iter()
                .map(|m| {
                    let machine = nestwx_serve::parse_machine(m).expect("valid machine token");
                    (m.to_string(), fit_predictor(&machine, super::PROFILE_SEED))
                })
                .collect(),
        )
    }

    /// The response line the server must produce for `line`.
    fn expected(&self, line: &str) -> Result<String, String> {
        let req = Request::parse_line(line).map_err(|e| e.to_string())?;
        let RequestBody::Plan(params) = &req.body else {
            return Err("not a plan request".into());
        };
        let scenario = params.to_scenario().map_err(|e| e.to_string())?;
        let predictor = self
            .0
            .get(&params.machine)
            .ok_or("unknown machine")?
            .clone();
        let plan = scenario
            .planner()
            .with_predictor(predictor)
            .plan(&scenario.parent, &scenario.nests)
            .map_err(|e| e.to_string())?;
        let result = render_plan(&scenario, &plan).map_err(|e| e.to_string())?;
        Ok(response_ok_line(req.id.as_deref(), &result))
    }
}

impl Workload for ServeCold {
    fn setup(args: &Args) -> Result<Self, String> {
        let cfg = serve_config();
        let handle = spawn(cfg.clone()).map_err(|e| format!("spawn server: {e}"))?;
        let mut w = ServeCold {
            handle: None,
            cfg,
            rng: Rng::stream(args.seed, "serve_cold"),
            next_index: 0,
            clients: Vec::new(),
            per_connection: args.scaled(COLD_PER_CONNECTION, 50),
            kept: Vec::new(),
            last_lines: Vec::new(),
            server_spans: ServerSpans::default(),
        };
        // One request per machine fits all six predictors.
        let mut client = connect(&handle)?;
        for line in w.next_lines(COLD_MACHINES.len()) {
            let raw = round_trip(&mut client, &line)?;
            if !raw.contains("\"ok\":true") {
                return Err(format!("warm-up request rejected: {raw}"));
            }
        }
        w.clients.push(client);
        for _ in 1..COLD_CONNECTIONS {
            w.clients.push(connect(&handle)?);
        }
        w.handle = Some(handle);
        Ok(w)
    }

    fn discard(mut self) -> Result<(), String> {
        self.clients.clear();
        drain(self.handle.take().expect("server running"))
    }

    fn batch(&mut self, tr: &mut Tracer, parent: SpanId, samples: &mut Vec<f64>) -> Batch {
        let mut b = Batch::default();
        // Lines are generated before the clock starts: the load
        // generator's own work is not the server's latency.
        let per_client: Vec<Vec<String>> = (0..COLD_CONNECTIONS)
            .map(|_| self.next_lines(self.per_connection))
            .collect();
        type ClientOut = (Tracer, Vec<f64>, Vec<(usize, String)>, u64);
        let t0 = Instant::now();
        let results: Vec<ClientOut> = std::thread::scope(|scope| {
            let joins: Vec<_> = self
                .clients
                .iter_mut()
                .zip(&per_client)
                .enumerate()
                .map(|(t, (client, lines))| {
                    let mut tr = client_tracer(tr, t);
                    scope.spawn(move || {
                        let mut lat = Vec::with_capacity(lines.len());
                        let mut kept = Vec::new();
                        let mut failed = 0u64;
                        for (i, line) in lines.iter().enumerate() {
                            let span = tr.begin("serve.rtt", i as u64, crate::trace::NONE);
                            let t0 = Instant::now();
                            let raw = round_trip(client, line);
                            let dt = t0.elapsed();
                            tr.end(span);
                            lat.push(dt.as_secs_f64() * 1e6);
                            match raw {
                                Ok(raw) if raw.contains("\"ok\":true") => {
                                    if i % VERIFY_EVERY == 0 {
                                        kept.push((i, raw));
                                    }
                                }
                                Ok(raw) => {
                                    eprintln!("serve_cold: refused: {raw}");
                                    failed += 1;
                                }
                                Err(e) => {
                                    eprintln!("serve_cold: {e}");
                                    failed += 1;
                                }
                            }
                        }
                        (tr, lat, kept, failed)
                    })
                })
                .collect();
            joins
                .into_iter()
                .map(|j| j.join().expect("client thread panicked"))
                .collect()
        });
        b.secs = t0.elapsed().as_secs_f64();
        b.ops = (COLD_CONNECTIONS * self.per_connection) as u64;
        for ((forked, lat, kept, failed), lines) in results.into_iter().zip(&per_client) {
            tr.merge(forked, parent);
            samples.extend(lat);
            b.failed += failed;
            for (i, raw) in kept {
                if self.kept.len() < VERIFY_MAX {
                    self.kept.push((lines[i].clone(), raw));
                }
            }
        }
        if tr.enabled() {
            self.server_spans.absorb(
                &self
                    .handle
                    .as_ref()
                    .expect("server running")
                    .trace_envelope(),
            );
        }
        self.last_lines = per_client.into_iter().next().unwrap_or_default();
        b
    }

    fn probe(&mut self, layers: &mut Layers, traced: &Traced, budget: Duration) {
        let deadline = Instant::now() + budget;
        self.server_spans.report(layers);
        report_counters(self.handle.as_ref().expect("server running"), layers);

        // The library path of one cold request, stage by stage, on the
        // lines the last batch sent — what the server must do at least,
        // with no socket, event loop or queue in the way.
        let oracle = Oracle::new();
        let (mut parse, mut to_scn, mut key, mut canon, mut plan, mut render) = (
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
        );
        let us = |t0: Instant| t0.elapsed().as_secs_f64() * 1e6;
        for line in self.last_lines.iter().take(400) {
            if Instant::now() >= deadline && parse.len() >= 50 {
                break;
            }
            let t0 = Instant::now();
            let Ok(req) = Request::parse_line(line) else {
                continue;
            };
            parse.push(us(t0));
            let RequestBody::Plan(params) = &req.body else {
                continue;
            };
            let t0 = Instant::now();
            let Ok(scenario) = params.to_scenario() else {
                continue;
            };
            to_scn.push(us(t0));
            let t0 = Instant::now();
            black_box(scenario.canonical_string());
            canon.push(us(t0));
            let t0 = Instant::now();
            let k = plan_key(&scenario);
            black_box(key_digest(&k));
            key.push(us(t0));
            let predictor = oracle.0[&params.machine].clone();
            let t0 = Instant::now();
            let planner = scenario.planner().with_predictor(predictor.clone());
            let Ok(p) = planner.plan(&scenario.parent, &scenario.nests) else {
                continue;
            };
            plan.push(us(t0));
            let t0 = Instant::now();
            black_box(render_plan(&scenario, &p)).ok();
            render.push(us(t0));
        }
        let stages = [
            ("serve.parse_us", stats::median(&parse)),
            ("serve.to_scenario_us", stats::median(&to_scn)),
            ("serve.key_us", stats::median(&key)),
            ("core.plan_us", stats::median(&plan)),
            ("serve.render_plan_us", stats::median(&render)),
        ];
        for (name, v) in stages {
            layers.set(name, v);
        }
        let lib_path: f64 = stages.iter().map(|(_, v)| v).sum();
        layers.set("serve.lib_path_us", lib_path);
        layers.set("serve.transport_us", traced.latency_p50_us - lib_path);
        layers.set("core.canon_key_us", stats::median(&canon));
        layers.set("core.plan_spans", plan.len() as f64);

        // The plan cache at capacity: every insert evicts.
        let cache = PlanCache::new(self.cfg.cache_capacity);
        let value: Arc<str> = Arc::from("x".repeat(600));
        let keys: Vec<(String, u64)> = (0..4096)
            .map(|i| {
                let k = format!("fmt1|probe-key-{i:05}-{}", "k".repeat(500));
                let d = key_digest(&k);
                (k, d)
            })
            .collect();
        for (k, d) in &keys[..self.cfg.cache_capacity] {
            cache.insert(k.clone(), *d, Arc::clone(&value));
        }
        let t0 = Instant::now();
        for (k, d) in &keys[self.cfg.cache_capacity..] {
            cache.insert(k.clone(), *d, Arc::clone(&value));
        }
        let inserts = (keys.len() - self.cfg.cache_capacity) as f64;
        layers.set(
            "serve.cache_insert_ns",
            t0.elapsed().as_nanos() as f64 / inserts,
        );
        let t0 = Instant::now();
        for (k, d) in &keys {
            black_box(cache.get(k, *d));
        }
        layers.set(
            "serve.cache_get_ns",
            t0.elapsed().as_nanos() as f64 / keys.len() as f64,
        );

        // One histogram record per request is on the cold path.
        let mut hist = LogHistogram::new();
        let n = 1_000_000u32;
        let t0 = Instant::now();
        for i in 0..n {
            hist.record(black_box(1e-6 * f64::from(i % 1000 + 1)));
        }
        layers.set(
            "obs.hist_record_ns",
            t0.elapsed().as_nanos() as f64 / f64::from(n),
        );
        black_box(hist.count());
    }

    fn finish(mut self, checks: &mut Checks) {
        let handle = self.handle.take().expect("server running");
        let snap = handle.stats_snapshot();
        checks.check(
            snap.cache.misses == self.next_index && snap.cache.hits == 0,
            || {
                format!(
                    "{} distinct requests sent but cache counted {} misses and {} hits",
                    self.next_index, snap.cache.misses, snap.cache.hits
                )
            },
        );
        let oracle = Oracle::new();
        for (line, raw) in &self.kept {
            let expected = oracle.expected(line);
            checks.check(expected.as_deref() == Ok(raw.as_str()), || {
                format!("response differs from render_plan in the harness:\n got {raw}\nwant {expected:?}")
            });
        }
        self.clients.clear();
        let drained = drain(handle);
        checks.check(drained.is_ok(), || format!("{drained:?}"));
    }

    fn config(&self) -> Vec<(&'static str, String)> {
        vec![
            ("serve", config_echo(&self.cfg)),
            ("machines", format!("{COLD_MACHINES:?}")),
            (
                "load",
                format!(
                    "{COLD_CONNECTIONS} connections x {} depth-1 distinct-key requests per batch",
                    self.per_connection
                ),
            ),
            ("load_threads", COLD_CONNECTIONS.to_string()),
        ]
    }
}
