//! Load generator for `nestwx-serve` (the concurrent planning service).
//!
//! Usage:
//!
//! ```text
//! bench_serve [--smoke] [--churn] [--sweep] [--addr HOST:PORT] [--clients N] [--requests N] [--out PATH] [--trace-out PATH]
//! ```
//!
//! Default (bench) mode spawns an in-process server on an ephemeral port,
//! warms a 16-scenario working set, then hammers it from N client threads
//! issuing **pipelined** batches of `plan` requests round-robin (128
//! requests per write, responses verified byte-for-byte against the warmup
//! canon without parsing JSON). Reports throughput and client-side batch
//! latency percentiles (p50/p90/p99 via `nestwx-obs` log histograms) into
//! `BENCH_serve.json`, together with the server's cache statistics.
//!
//! `--churn` appends a connection/identity churn measurement to the same
//! output file: waves of short-lived connections carrying a flood of
//! *distinct* synthetic client identities (bounded rate-limiter table), a
//! predictor-eviction cycle over more machines than the bounded predictor
//! map holds, a hammer phase where a handful of clients blow through their
//! token buckets (rate shedding), and a cold phase under a 1 ms deadline
//! (deadline expiry). Each phase records throughput and the process RSS,
//! so `perf_gate --serve` can gate churn throughput and peak memory.
//!
//! `--smoke` runs a short mixed predict/plan workload instead — the CI
//! smoke job points it at an external `nestwx serve` process via `--addr`,
//! asserts zero protocol errors and a non-zero cache hit rate, then issues
//! `shutdown` so CI can check the server drains and exits 0.
//!
//! `--sweep` measures the scenario-sweep engine instead of the wire
//! protocol: a fixed in-code 96-combination spec (64 unique scenarios
//! after canonical-digest dedup) is swept cold into a throwaway disk
//! cache, then re-swept warm under a different job count — the warm run
//! must be a pure disk replay with the same `plans_digest` — and finally
//! a server pointed at the swept cache must answer `plan` requests
//! byte-identically to one planning from scratch. Both timing loops are
//! short, so each phase runs five rounds and reports the best wall
//! time. Writes `BENCH_sweep.json` (scenarios/s, dedup ratio,
//! cold-vs-warm speedup, warm hit rate) for `perf_gate --sweep`.
//!
//! The default bench mode also measures **flight-recorder overhead**: it
//! repeats a shorter hot-set phase against paired in-process servers —
//! one recording request spans (`trace: true`, the default), one with the
//! recorder disabled — alternating three rounds each and keeping the best
//! req/s per side. `hot_rps_recording_on/off` and `recorder_overhead_pct`
//! land in `BENCH_serve.json` for `perf_gate --serve`, which caps the
//! overhead at `NESTWX_PERF_TRACE_OVERHEAD_PCT` (default 5 %).
//!
//! `--trace-out PATH` additionally drains the server's span rings through
//! the `trace` endpoint after the timed phase and writes the validated
//! `nestwx-obs-serve-summary` envelope to PATH (renderable by
//! `nestwx obs report|top|diff`) plus its Chrome `trace_event` conversion
//! next to it (`*.chrome.json`, for chrome://tracing / Perfetto).
//!
//! Knobs (flags win over env): `NESTWX_SERVE_CLIENTS` (default 4),
//! `NESTWX_SERVE_REQS` (requests per client, default 30000),
//! `NESTWX_TRACE_REQS` (overhead-phase requests per client, default 15000),
//! `NESTWX_CHURN_CLIENTS` (distinct churn identities, default 1,000,000),
//! `NESTWX_CHURN_HAMMER` (hammer-phase requests, default 200,000),
//! `NESTWX_CHURN_COLD` (cold deadline-phase requests, default 32).

use nestwx_bench::{banner, env_u32, pacific_parent};
use nestwx_core::{AllocPolicy, MappingKind, Strategy, TempDir};
use nestwx_grid::NestSpec;
use nestwx_obs::clock;
use nestwx_obs::LogHistogram;
use nestwx_serve::{
    spawn, Client, PredictParams, Request, RequestBody, ScenarioParams, ServeConfig,
};
use nestwx_sweep::{run_sweep, SweepOptions, SweepSpec};
use serde::Serialize;
use serde_json::Value;
use std::process::ExitCode;
use std::sync::Arc;

/// Requests per pipelined write in the hot-set phase. Far below the
/// server's per-connection outbox cap, so a writing client can defer its
/// reads for a whole batch without being reaped as a slow consumer.
const PIPELINE_DEPTH: usize = 128;

/// What one run writes to `BENCH_serve.json`. `perf_gate --serve` reads
/// `throughput_rps`, `cache_hit_rate`, `byte_identical`,
/// `protocol_errors` — and, when present, `recorder_overhead_pct`,
/// `churn.throughput_rps` and `churn.max_rss_mb` — back out of this.
#[derive(Debug, Serialize)]
struct ServeBenchOutput {
    benchmark: String,
    mode: String,
    clients: u32,
    requests_per_client: u32,
    pipeline_depth: u32,
    scenarios: u32,
    warmup_requests: u64,
    requests_total: u64,
    elapsed_seconds: f64,
    throughput_rps: f64,
    /// Round-trip latency of one whole pipelined batch (not one request).
    batch_latency: nestwx_obs::HistSummary,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    cache_hit_rate: f64,
    protocol_errors: u64,
    byte_identical: bool,
    /// Hot-set req/s with the flight recorder enabled — best of three
    /// paired rounds (absent when benching an external `--addr` server,
    /// whose recorder config we cannot control).
    hot_rps_recording_on: Option<f64>,
    /// Hot-set req/s with the flight recorder disabled, same pairing.
    hot_rps_recording_off: Option<f64>,
    /// Throughput lost to span recording, percent of the recording-off
    /// figure (clamped at 0 when the recording run measured faster).
    /// `perf_gate --serve` caps this at `NESTWX_PERF_TRACE_OVERHEAD_PCT`.
    recorder_overhead_pct: Option<f64>,
    churn: Option<ChurnOutput>,
}

/// One churn phase's figures.
#[derive(Debug, Serialize)]
struct ChurnPhase {
    phase: String,
    requests: u64,
    ok_responses: u64,
    error_responses: u64,
    elapsed_seconds: f64,
    throughput_rps: f64,
    /// Process RSS (bench + in-process server) at phase end, MiB.
    rss_mb: f64,
}

/// The `--churn` section of the output.
#[derive(Debug, Serialize)]
struct ChurnOutput {
    distinct_clients: u64,
    phases: Vec<ChurnPhase>,
    /// Distinct-identity flood throughput — the gated figure.
    throughput_rps: f64,
    /// Peak of the per-phase RSS samples, MiB — the gated figure.
    max_rss_mb: f64,
    rate_shed: u64,
    deadline_expired: u64,
    rate_evictions: u64,
    predictor_evictions: u64,
    clients_tracked: u64,
    drain_clean: bool,
}

#[derive(Debug)]
struct Args {
    smoke: bool,
    churn: bool,
    sweep: bool,
    addr: Option<String>,
    clients: u32,
    requests: u32,
    /// Explicit `--out`; defaults per mode (`BENCH_serve.json` /
    /// `BENCH_sweep.json`) when absent.
    out: Option<String>,
    /// `--trace-out PATH`: drain the flight recorder after the timed
    /// phase and write the serve-summary envelope (+ Chrome trace) here.
    trace_out: Option<String>,
}

impl Args {
    fn out_path(&self) -> String {
        self.out.clone().unwrap_or_else(|| {
            if self.sweep {
                "BENCH_sweep.json"
            } else {
                "BENCH_serve.json"
            }
            .into()
        })
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        churn: false,
        sweep: false,
        addr: None,
        clients: env_u32("NESTWX_SERVE_CLIENTS", 4).max(1),
        requests: env_u32("NESTWX_SERVE_REQS", 30000).max(1),
        out: None,
        trace_out: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let take = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            argv.get(*i)
                .cloned()
                .ok_or_else(|| format!("{} requires a value", argv[*i - 1]))
        };
        match argv[i].as_str() {
            "--smoke" => args.smoke = true,
            "--churn" => args.churn = true,
            "--sweep" => args.sweep = true,
            "--addr" => args.addr = Some(take(&mut i)?),
            "--clients" => {
                args.clients = take(&mut i)?
                    .parse::<u32>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or("--clients expects a positive integer")?
            }
            "--requests" => {
                args.requests = take(&mut i)?
                    .parse::<u32>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or("--requests expects a positive integer")?
            }
            "--out" => args.out = Some(take(&mut i)?),
            "--trace-out" => args.trace_out = Some(take(&mut i)?),
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    if args.churn && args.addr.is_some() {
        return Err("--churn needs the in-process server (no --addr): it sets limit knobs".into());
    }
    if args.sweep && (args.smoke || args.churn || args.addr.is_some()) {
        return Err("--sweep is standalone: it spawns its own servers and takes no --addr".into());
    }
    if args.trace_out.is_some() && (args.smoke || args.sweep) {
        return Err("--trace-out only applies to the default bench mode".into());
    }
    Ok(args)
}

/// The working set: `n` distinct two-nest scenarios on one 64-rank BG/L
/// midplane slice. All share the machine (one predictor fit serves all),
/// but differ in nest sizes and mapping so each has its own cache entry.
fn working_set(n: usize) -> Vec<Request> {
    let mappings = MappingKind::ALL;
    (0..n)
        .map(|i| {
            let params = ScenarioParams {
                machine: "bgl:64".into(),
                parent: pacific_parent(),
                nests: vec![
                    NestSpec::new(
                        120 + 9 * (i as u32 % 4),
                        111 + 6 * (i as u32 / 4),
                        3,
                        (10 + i as u32, 12),
                    ),
                    NestSpec::new(96, 90, 3, (180, 170)),
                ],
                strategy: Strategy::Concurrent,
                alloc: AllocPolicy::HuffmanSplitTree,
                mapping: mappings[i % mappings.len()],
                io: None,
            };
            // One id per *scenario*, shared by every repetition, so the
            // whole response line (not just `result`) must be
            // byte-identical on a cache hit.
            Request::new(Some(format!("s{i}")), RequestBody::Plan(params))
        })
        .collect()
}

fn stats_request() -> Request {
    Request::new(Some("stats".into()), RequestBody::Stats)
}

fn shutdown_request() -> Request {
    Request::new(Some("bye".into()), RequestBody::Shutdown)
}

fn u64_at(v: &Value, path: &[&str]) -> u64 {
    let mut cur = v;
    for key in path {
        match cur.get(key) {
            Some(next) => cur = next,
            None => return 0,
        }
    }
    cur.as_u64()
        .or_else(|| cur.as_f64().map(|f| f as u64))
        .unwrap_or(0)
}

fn f64_at(v: &Value, path: &[&str]) -> f64 {
    let mut cur = v;
    for key in path {
        match cur.get(key) {
            Some(next) => cur = next,
            None => return 0.0,
        }
    }
    cur.as_f64().unwrap_or(0.0)
}

/// Resident set size of this process (bench + any in-process server), MiB.
fn rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let kb: f64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0.0);
            return kb / 1024.0;
        }
    }
    0.0
}

/// Either an in-process server (we own the handle and verify the drain
/// report) or an external one reached over `--addr`.
enum Target {
    InProcess(nestwx_serve::ServerHandle),
    External(String),
}

impl Target {
    fn addr(&self) -> String {
        match self {
            Target::InProcess(h) => h.addr().to_string(),
            Target::External(a) => a.clone(),
        }
    }
}

fn connect(target: &Target) -> Result<Client, String> {
    Client::connect(target.addr()).map_err(|e| format!("connect {}: {e}", target.addr()))
}

/// Request lines and canonical responses shared across client threads.
type WarmSet = (Arc<Vec<String>>, Arc<Vec<String>>);

/// Warms the working set into the server's cache and returns the wire
/// lines plus the canonical response per scenario (the byte-identity
/// oracle for every later repetition).
fn warm_canon(addr: &str, scenarios: &[Request]) -> Result<WarmSet, String> {
    let lines: Arc<Vec<String>> = Arc::new(scenarios.iter().map(Request::to_json_line).collect());
    let mut warm = Client::connect(addr).map_err(|e| format!("warmup connect {addr}: {e}"))?;
    let mut canonical: Vec<String> = Vec::with_capacity(scenarios.len());
    for req in scenarios {
        let resp = warm.call(req).map_err(|e| format!("warmup call: {e}"))?;
        if !resp.ok() {
            return Err(format!("warmup request rejected: {}", resp.raw));
        }
        canonical.push(resp.raw);
    }
    Ok((lines, Arc::new(canonical)))
}

/// One timed hot-set pass: `clients` threads round-robin over the warmed
/// working set in pipelined batches, every response verified byte-for-byte
/// against the warmup canon. Returns elapsed wall time, the merged batch
/// latency histogram, and whether every response stayed byte-identical.
fn hot_pass(
    addr: &str,
    lines: &Arc<Vec<String>>,
    canonical: &Arc<Vec<String>>,
    clients: u32,
    requests: u32,
) -> Result<(f64, LogHistogram, bool), String> {
    let started = clock::now();
    let mut handles = Vec::new();
    for t in 0..clients {
        let lines = Arc::clone(lines);
        let canonical = Arc::clone(canonical);
        let addr = addr.to_string();
        let requests = requests as usize;
        handles.push(std::thread::spawn(
            move || -> Result<LogHistogram, String> {
                let mut client =
                    Client::connect(&addr).map_err(|e| format!("client {t} connect: {e}"))?;
                let mut hist = LogHistogram::new();
                let mut sent = 0usize;
                let mut batch: Vec<String> = Vec::with_capacity(PIPELINE_DEPTH);
                while sent < requests {
                    let depth = PIPELINE_DEPTH.min(requests - sent);
                    batch.clear();
                    for j in 0..depth {
                        batch.push(lines[(t as usize + sent + j) % lines.len()].clone());
                    }
                    let t0 = clock::now();
                    let raws = client
                        .call_pipelined(&batch)
                        .map_err(|e| format!("client {t} batch: {e}"))?;
                    hist.record_duration(clock::since(t0));
                    for (j, raw) in raws.iter().enumerate() {
                        let idx = (t as usize + sent + j) % canonical.len();
                        if *raw != canonical[idx] {
                            return Err(format!(
                                "client {t}: response for scenario {idx} not byte-identical\n\
                                 first: {}\n now: {raw}",
                                canonical[idx]
                            ));
                        }
                    }
                    sent += depth;
                }
                Ok(hist)
            },
        ));
    }
    let mut merged = LogHistogram::new();
    let mut byte_identical = true;
    for h in handles {
        match h.join().map_err(|_| "client thread panicked".to_string())? {
            Ok(hist) => merged.merge(&hist),
            Err(e) => {
                eprintln!("bench_serve: {e}");
                byte_identical = false;
            }
        }
    }
    Ok((clock::since(started).as_secs_f64(), merged, byte_identical))
}

/// Measures flight-recorder overhead: paired in-process servers (recorder
/// on vs off), three alternating rounds of a shorter hot-set pass each,
/// best req/s per side. Alternating sides per round keeps machine drift
/// out of the comparison; best-of keeps scheduler noise out.
fn measure_recorder_overhead(clients: u32) -> Result<(f64, f64, f64), String> {
    const ROUNDS: usize = 3;
    let requests = env_u32("NESTWX_TRACE_REQS", 15000).max(1);
    let scenarios = working_set(16);
    let mut best = [0.0f64; 2]; // [on, off]
    for _round in 0..ROUNDS {
        for (slot, recording) in [(0usize, true), (1usize, false)] {
            let mut cfg = ServeConfig::new("127.0.0.1:0");
            cfg.trace = recording;
            let handle = spawn(cfg).map_err(|e| format!("spawn overhead server: {e}"))?;
            let addr = handle.addr().to_string();
            let (lines, canonical) = warm_canon(&addr, &scenarios)?;
            let (elapsed, _, ok) = hot_pass(&addr, &lines, &canonical, clients, requests)?;
            if !ok {
                return Err(format!(
                    "overhead pass (recording={recording}) lost byte identity"
                ));
            }
            let rps = (u64::from(clients) * u64::from(requests)) as f64 / elapsed.max(1e-9);
            best[slot] = best[slot].max(rps);
            let mut ctl = Client::connect(&addr).map_err(|e| format!("overhead ctl: {e}"))?;
            let shut = ctl
                .call(&shutdown_request())
                .map_err(|e| format!("overhead shutdown: {e}"))?;
            if !shut.ok() {
                return Err(format!("overhead shutdown rejected: {}", shut.raw));
            }
            let report = handle.wait();
            if !report.clean() {
                return Err(format!("overhead server unclean drain: {report:?}"));
            }
        }
    }
    let (on, off) = (best[0], best[1]);
    let overhead_pct = ((off - on) / off.max(1e-9) * 100.0).max(0.0);
    println!(
        "recorder:   {on:.0} req/s recording on, {off:.0} req/s off \
         ({overhead_pct:.2}% overhead, best of {ROUNDS} paired rounds x {requests} reqs/client)"
    );
    Ok((on, off, overhead_pct))
}

/// Drains the server's span rings through the `trace` endpoint, validates
/// the envelope, and writes it (plus its Chrome `trace_event` conversion)
/// to `path` / `*.chrome.json`.
fn drain_trace_to(ctl: &mut Client, path: &str) -> Result<(), String> {
    let resp = ctl
        .call(&Request::new(Some("trace".into()), RequestBody::Trace))
        .map_err(|e| format!("trace: {e}"))?;
    if !resp.ok() {
        return Err(format!("trace rejected: {}", resp.raw));
    }
    let envelope = resp
        .result()
        .cloned()
        .ok_or_else(|| "trace response has no result".to_string())?;
    nestwx_obs::serve::check_serve_schema(&envelope)
        .map_err(|e| format!("trace envelope invalid: {e}"))?;
    let json =
        serde_json::to_string(&envelope).map_err(|e| format!("serialize envelope: {e:?}"))?;
    std::fs::write(path, format!("{json}\n")).map_err(|e| format!("write {path}: {e}"))?;
    let chrome = nestwx_obs::serve::serve_chrome_trace(&envelope)
        .map_err(|e| format!("chrome trace: {e}"))?;
    let chrome_path = format!("{}.chrome.json", path.strip_suffix(".json").unwrap_or(path));
    std::fs::write(&chrome_path, format!("{chrome}\n"))
        .map_err(|e| format!("write {chrome_path}: {e}"))?;
    let drained = u64_at(&envelope, &["summary", "drained"]);
    println!("trace:      {drained} spans drained to {path} (+ {chrome_path})");
    Ok(())
}

fn run_bench(args: &Args) -> Result<(ServeBenchOutput, bool), String> {
    banner(
        "SERVE",
        "nestwx-serve plan throughput under a hot working set",
    );
    let target = match &args.addr {
        Some(a) => Target::External(a.clone()),
        None => Target::InProcess(
            spawn(ServeConfig::new("127.0.0.1:0")).map_err(|e| format!("spawn server: {e}"))?,
        ),
    };
    println!(
        "server: {} ({})",
        target.addr(),
        if args.addr.is_some() {
            "external"
        } else {
            "in-process"
        }
    );

    // Warmup: populate the cache (and fit the predictor once) and record
    // the canonical response line per scenario.
    let scenarios = working_set(16);
    let (lines, canonical) = warm_canon(&target.addr(), &scenarios)?;
    println!("warmup: {} scenarios planned and cached", canonical.len());

    // Timed phase: N clients, round-robin over the working set with a
    // per-thread phase offset so threads hit different keys at any
    // instant. Requests go out in pipelined batches and come back in
    // request order, verified byte-for-byte without parsing.
    let (elapsed, merged, byte_identical) = hot_pass(
        &target.addr(),
        &lines,
        &canonical,
        args.clients,
        args.requests,
    )?;
    let requests_total = u64::from(args.clients) * u64::from(args.requests);
    let throughput = if byte_identical {
        requests_total as f64 / elapsed.max(1e-9)
    } else {
        0.0
    };

    // Final stats (+ optional trace drain) + shutdown through the wire
    // protocol.
    let mut ctl = connect(&target)?;
    let stats = ctl
        .call(&stats_request())
        .map_err(|e| format!("stats: {e}"))?;
    let result = stats.result().cloned().unwrap_or(Value::Null);
    if let Some(path) = &args.trace_out {
        drain_trace_to(&mut ctl, path)?;
    }
    let shut = ctl
        .call(&shutdown_request())
        .map_err(|e| format!("shutdown: {e}"))?;
    if !shut.ok() {
        return Err(format!("shutdown rejected: {}", shut.raw));
    }
    if let Target::InProcess(handle) = target {
        let report = handle.wait();
        if !report.clean() {
            return Err(format!("unclean drain: {report:?}"));
        }
        println!(
            "drain: clean ({} requests, {} responses)",
            report.requests_total, report.responses_total
        );
    }

    // Recorder overhead: paired hot-set passes with the flight recorder
    // on vs off. Only measurable in-process — we cannot flip the recorder
    // on an external server.
    let recorder = if args.addr.is_none() {
        Some(measure_recorder_overhead(args.clients)?)
    } else {
        None
    };

    let summary = merged.summary();
    let out = ServeBenchOutput {
        benchmark: "serve".into(),
        mode: if args.addr.is_some() {
            "external"
        } else {
            "in-process"
        }
        .into(),
        clients: args.clients,
        requests_per_client: args.requests,
        pipeline_depth: PIPELINE_DEPTH as u32,
        scenarios: canonical.len() as u32,
        warmup_requests: canonical.len() as u64,
        requests_total,
        elapsed_seconds: elapsed,
        throughput_rps: throughput,
        batch_latency: summary,
        cache_hits: u64_at(&result, &["cache", "hits"]),
        cache_misses: u64_at(&result, &["cache", "misses"]),
        cache_evictions: u64_at(&result, &["cache", "evictions"]),
        cache_hit_rate: f64_at(&result, &["cache", "hit_rate"]),
        protocol_errors: u64_at(&result, &["server", "protocol_errors"]),
        byte_identical,
        hot_rps_recording_on: recorder.map(|(on, _, _)| on),
        hot_rps_recording_off: recorder.map(|(_, off, _)| off),
        recorder_overhead_pct: recorder.map(|(_, _, pct)| pct),
        churn: None,
    };

    println!(
        "throughput: {throughput:.0} plan req/s over {requests_total} requests ({:.2}s, {} clients x {}-deep pipeline)",
        elapsed, args.clients, PIPELINE_DEPTH
    );
    println!(
        "batch rtt:  p50 {:.1}us  p90 {:.1}us  p99 {:.1}us  max {:.1}us  ({} requests/batch)",
        out.batch_latency.p50 * 1e6,
        out.batch_latency.p90 * 1e6,
        out.batch_latency.p99 * 1e6,
        out.batch_latency.max * 1e6,
        PIPELINE_DEPTH
    );
    println!(
        "cache:      {} hits / {} misses ({:.1}% hit rate), {} evictions",
        out.cache_hits,
        out.cache_misses,
        out.cache_hit_rate * 100.0,
        out.cache_evictions
    );

    let ok = byte_identical && out.protocol_errors == 0 && out.cache_hit_rate >= 0.90;
    if !ok {
        eprintln!(
            "bench_serve: FAIL (byte_identical={byte_identical}, protocol_errors={}, hit_rate={:.3})",
            out.protocol_errors, out.cache_hit_rate
        );
    }
    Ok((out, ok))
}

// ---------------------------------------------------------------------------
// Churn mode
// ---------------------------------------------------------------------------

/// Counts `ok`/error responses without parsing (responses are
/// server-composed, so the `"ok":` token position is structural).
fn tally(raws: &[String]) -> (u64, u64) {
    let ok = raws.iter().filter(|r| r.contains("\"ok\":true")).count() as u64;
    (ok, raws.len() as u64 - ok)
}

fn churn_phase(
    label: &str,
    requests: u64,
    ok_responses: u64,
    error_responses: u64,
    elapsed: f64,
) -> ChurnPhase {
    let p = ChurnPhase {
        phase: label.into(),
        requests,
        ok_responses,
        error_responses,
        elapsed_seconds: elapsed,
        throughput_rps: requests as f64 / elapsed.max(1e-9),
        rss_mb: rss_mb(),
    };
    println!(
        "churn/{label}: {requests} requests in {elapsed:.2}s ({:.0} rps, {} ok / {} err, rss {:.1} MiB)",
        p.throughput_rps, ok_responses, error_responses, p.rss_mb
    );
    p
}

/// The churn measurement: bounded tables under identity flood, rate
/// shedding, predictor eviction and deadline expiry — with per-phase RSS
/// so unbounded growth shows up as a gated number, not an OOM kill.
fn run_churn() -> Result<(ChurnOutput, bool), String> {
    banner(
        "SERVE-CHURN",
        "short-lived clients, bounded tables, shedding and deadlines",
    );
    let distinct = u64::from(env_u32("NESTWX_CHURN_CLIENTS", 1_000_000).max(1));
    let hammer_total = u64::from(env_u32("NESTWX_CHURN_HAMMER", 200_000).max(1));
    let cold_total = u64::from(env_u32("NESTWX_CHURN_COLD", 32).clamp(1, 64));

    let mut cfg = ServeConfig::new("127.0.0.1:0");
    cfg.workers = 2;
    cfg.rate = 200;
    cfg.burst = 8;
    cfg.client_cap = 1024;
    cfg.predictors = 4;
    let handle = spawn(cfg).map_err(|e| format!("spawn churn server: {e}"))?;
    let addr = handle.addr().to_string();
    println!("server: {addr} (rate=200/s burst=8 client_cap=1024 predictors=4)");

    // One hot scenario every phase reuses; warming it also fits the
    // predictor so phase timings measure serving, not fitting.
    let base = &working_set(1)[0];
    {
        let mut warm = Client::connect(&addr).map_err(|e| format!("churn warmup: {e}"))?;
        let resp = warm.call(base).map_err(|e| format!("churn warmup: {e}"))?;
        if !resp.ok() {
            return Err(format!("churn warmup rejected: {}", resp.raw));
        }
    }

    let mut phases: Vec<ChurnPhase> = Vec::new();
    let mut all_answered = true;

    // Phase A — identity flood: every request carries a client id the
    // server has never seen, on short-lived connections (a fresh one per
    // wave). The rate-limiter table must stay at its cap while millions of
    // identities stream past, and each fresh identity's first charge must
    // pass (new buckets start full).
    let wave = 1024usize;
    let mut sent = 0u64;
    let (mut ok_a, mut err_a) = (0u64, 0u64);
    let t0 = clock::now();
    let mut batch: Vec<String> = Vec::with_capacity(wave);
    while sent < distinct {
        let n = wave.min((distinct - sent) as usize);
        batch.clear();
        for j in 0..n {
            let mut req = base.clone();
            req.client = Some(format!("cl-{}", sent + j as u64));
            batch.push(req.to_json_line());
        }
        let mut conn = Client::connect(&addr).map_err(|e| format!("churn wave connect: {e}"))?;
        let raws = conn
            .call_pipelined(&batch)
            .map_err(|e| format!("churn wave: {e}"))?;
        let (o, e) = tally(&raws);
        ok_a += o;
        err_a += e;
        sent += n as u64;
    }
    let flood_elapsed = clock::since(t0).as_secs_f64();
    if err_a > 0 {
        eprintln!("churn: FAIL — {err_a} fresh identities were refused (buckets must start full)");
        all_answered = false;
    }
    phases.push(churn_phase("flood", sent, ok_a, err_a, flood_elapsed));
    let flood_rps = phases[0].throughput_rps;

    // Phase A' — predictor churn: more machines than the bounded predictor
    // map holds, so resolutions keep evicting and re-fitting instead of
    // growing the map.
    let machines = [
        "bgl:64", "bgl:128", "bgl:256", "bgp:64", "bgp:128", "bgl:512",
    ];
    let t0 = clock::now();
    let (mut ok_p, mut err_p) = (0u64, 0u64);
    {
        let mut conn = Client::connect(&addr).map_err(|e| format!("churn predict: {e}"))?;
        for (i, m) in machines.iter().enumerate() {
            let req = Request::new(
                Some(format!("pd{i}")),
                RequestBody::Predict(PredictParams {
                    machine: (*m).into(),
                    nests: vec![
                        NestSpec::new(130, 121, 3, (10, 12)),
                        NestSpec::new(96, 90, 3, (180, 170)),
                    ],
                }),
            );
            let resp = conn.call(&req).map_err(|e| format!("churn predict: {e}"))?;
            if resp.ok() {
                ok_p += 1;
            } else {
                err_p += 1;
            }
        }
    }
    phases.push(churn_phase(
        "predictors",
        machines.len() as u64,
        ok_p,
        err_p,
        clock::since(t0).as_secs_f64(),
    ));
    if err_p > 0 {
        eprintln!("churn: FAIL — {err_p} predict requests rejected during predictor churn");
        all_answered = false;
    }

    // Phase B — hammer: four persistent identities pound the hot scenario
    // far past their refill rate; almost everything must come back as a
    // typed `rate_limited` error, at full event-loop speed.
    let t0 = clock::now();
    let (mut ok_b, mut err_b) = (0u64, 0u64);
    {
        let mut conn = Client::connect(&addr).map_err(|e| format!("churn hammer: {e}"))?;
        let hammer_lines: Vec<String> = (0..4)
            .map(|i| {
                let mut req = base.clone();
                req.client = Some(format!("hammer-{i}"));
                req.to_json_line()
            })
            .collect();
        let mut sent = 0u64;
        while sent < hammer_total {
            let n = wave.min((hammer_total - sent) as usize);
            batch.clear();
            for j in 0..n {
                batch.push(hammer_lines[(sent as usize + j) % hammer_lines.len()].clone());
            }
            let raws = conn
                .call_pipelined(&batch)
                .map_err(|e| format!("churn hammer: {e}"))?;
            let (o, e) = tally(&raws);
            ok_b += o;
            err_b += e;
            sent += n as u64;
        }
    }
    phases.push(churn_phase(
        "hammer",
        hammer_total,
        ok_b,
        err_b,
        clock::since(t0).as_secs_f64(),
    ));
    if err_b == 0 {
        eprintln!("churn: FAIL — hammer phase was never rate-limited");
        all_answered = false;
    }

    // Phase C — cold work under a 1 ms deadline: distinct (uncached)
    // compare scenarios that the two workers cannot possibly clear in
    // time. The deadline sweep must answer the backlog with typed
    // `deadline_exceeded` errors instead of making clients wait.
    let t0 = clock::now();
    let (ok_c, err_c);
    {
        let mut conn = Client::connect(&addr).map_err(|e| format!("churn cold: {e}"))?;
        batch.clear();
        for i in 0..cold_total {
            let mut req = Request::new(
                Some(format!("cold{i}")),
                RequestBody::Compare {
                    params: ScenarioParams {
                        machine: "bgl:64".into(),
                        parent: pacific_parent(),
                        nests: vec![
                            NestSpec::new(100 + i as u32, 90 + i as u32, 3, (10, 12)),
                            NestSpec::new(96, 90, 3, (180, 170)),
                        ],
                        strategy: Strategy::Concurrent,
                        alloc: AllocPolicy::HuffmanSplitTree,
                        mapping: MappingKind::Partition,
                        io: None,
                    },
                    iterations: 3,
                },
            );
            req.deadline_ms = Some(1);
            batch.push(req.to_json_line());
        }
        let raws = conn
            .call_pipelined(&batch)
            .map_err(|e| format!("churn cold: {e}"))?;
        (ok_c, err_c) = tally(&raws);
    }
    phases.push(churn_phase(
        "cold-deadline",
        cold_total,
        ok_c,
        err_c,
        clock::since(t0).as_secs_f64(),
    ));
    if err_c == 0 {
        eprintln!("churn: FAIL — no cold request expired under a 1 ms deadline");
        all_answered = false;
    }

    // Bounded-table and shed/expiry accounting, straight from the server.
    let mut ctl = Client::connect(&addr).map_err(|e| format!("churn stats: {e}"))?;
    let stats = ctl
        .call(&stats_request())
        .map_err(|e| format!("churn stats: {e}"))?;
    let result = stats.result().cloned().unwrap_or(Value::Null);
    let clients_tracked = u64_at(&result, &["limits", "clients_tracked"]);
    let rate_evictions = u64_at(&result, &["limits", "rate_evictions"]);
    let predictor_evictions = u64_at(&result, &["limits", "predictor_evictions"]);
    let rate_shed = u64_at(&result, &["limits", "rate_shed"]);
    let deadline_expired = u64_at(&result, &["limits", "deadline_expired"]);
    if clients_tracked > 1024 {
        eprintln!("churn: FAIL — client table exceeded its cap ({clients_tracked} > 1024)");
        all_answered = false;
    }

    let shut = ctl
        .call(&shutdown_request())
        .map_err(|e| format!("churn shutdown: {e}"))?;
    if !shut.ok() {
        return Err(format!("churn shutdown rejected: {}", shut.raw));
    }
    let report = handle.wait();
    let drain_clean = report.clean();
    if !drain_clean {
        eprintln!("churn: FAIL — unclean drain under shedding: {report:?}");
        all_answered = false;
    } else {
        println!(
            "drain: clean ({} requests, {} responses, {} expired, {} shed)",
            report.requests_total,
            report.responses_total,
            report.deadline_expired,
            report.rate_shed
        );
    }

    let max_rss = phases.iter().map(|p| p.rss_mb).fold(0.0f64, f64::max);
    println!(
        "limits: {clients_tracked} clients tracked, {rate_evictions} bucket evictions, \
         {predictor_evictions} predictor evictions, {rate_shed} shed, {deadline_expired} expired"
    );
    println!("rss: peak {max_rss:.1} MiB across phases");
    let out = ChurnOutput {
        distinct_clients: distinct,
        phases,
        throughput_rps: flood_rps,
        max_rss_mb: max_rss,
        rate_shed,
        deadline_expired,
        rate_evictions,
        predictor_evictions,
        clients_tracked,
        drain_clean,
    };
    Ok((out, all_answered))
}

// ---------------------------------------------------------------------------
// Sweep mode
// ---------------------------------------------------------------------------

/// What `--sweep` writes to `BENCH_sweep.json`. `perf_gate --sweep` reads
/// `scenarios_per_sec`, `dedup_ratio`, `warm_speedup`, `warm_hit_rate`,
/// `byte_identical` and `errors` back out of this.
#[derive(Debug, Serialize)]
struct SweepBenchOutput {
    benchmark: String,
    expanded: u64,
    unique: u64,
    dedup_ratio: f64,
    iterations: u32,
    cold_jobs: u64,
    warm_jobs: u64,
    cold_elapsed_seconds: f64,
    warm_elapsed_seconds: f64,
    /// Cold-sweep planning throughput — the gated figure.
    scenarios_per_sec: f64,
    /// Cold elapsed over warm elapsed; a warm sweep skips planning and
    /// simulation entirely, so this must stay above 1.
    warm_speedup: f64,
    /// Disk hits over unique scenarios on the warm run (must be 1.0).
    warm_hit_rate: f64,
    warm_recomputed: u64,
    errors: u64,
    /// Digests equal across runs and job counts, and serve `plan`
    /// responses from the swept cache byte-identical to fresh planning.
    byte_identical: bool,
    plans_digest: String,
}

/// The fixed sweep-bench spec: 96 cartesian combinations collapsing to 64
/// unique scenarios (the repeated `partition` mapping dedups away), cheap
/// enough to plan cold in CI. Mirrors the `examples/sweep_smoke.json`
/// shape so the smoke job and the perf gate exercise the same spec
/// grammar.
const SWEEP_SPEC: &str = r#"{
    "machines": ["bgl:64", "bgl:128"],
    "parents": ["286x307@24"],
    "nests": {
        "counts": [1, 2],
        "size": {"start": 96, "step": 12, "n": 2},
        "refine": 3,
        "positions": [[10, 12], [120, 120]]
    },
    "strategies": ["sequential", "concurrent"],
    "allocs": ["huffman", "naive"],
    "mappings": ["partition", "multilevel", "partition"],
    "iterations": 2
}"#;

/// A `plan` request for one scenario the sweep is known to cover: the
/// two-nest 96² set on bgl:64 from `SWEEP_SPEC`'s generator block. The
/// warmed server must answer it straight from the swept disk cache.
fn sweep_plan_request(id: &str, strategy: Strategy, alloc: AllocPolicy) -> Request {
    Request::new(
        Some(id.into()),
        RequestBody::Plan(ScenarioParams {
            machine: "bgl:64".into(),
            parent: pacific_parent(),
            nests: vec![
                NestSpec::new(96, 96, 3, (10, 12)),
                NestSpec::new(96, 96, 3, (120, 120)),
            ],
            strategy,
            alloc,
            mapping: MappingKind::Partition,
            io: None,
        }),
    )
}

/// The sweep measurement: cold sweep into a throwaway disk cache, warm
/// replay under a different job count, and a serve pre-heat byte-identity
/// check against a cache-less server.
fn run_sweep_bench() -> Result<(SweepBenchOutput, bool), String> {
    banner(
        "SWEEP",
        "scenario-space sweep: cold planning, warm disk replay, serve pre-heat",
    );
    let spec = SweepSpec::parse(SWEEP_SPEC).map_err(|e| format!("built-in spec: {e}"))?;
    // The cold sweep is a ~100 ms timing loop — far too short for a single
    // sample on a shared machine. Both phases report best-of-ROUNDS wall
    // time; every round still has its invariants checked, and the cold
    // rounds double as a digest-invariance check across fresh caches.
    const ROUNDS: usize = 5;
    let mut ok = true;

    let mut cold: Option<nestwx_sweep::SweepReport> = None;
    let mut cold_elapsed = f64::INFINITY;
    let mut cache = TempDir::new("bench-sweep").map_err(|e| format!("tempdir: {e}"))?;
    for round in 0..ROUNDS {
        if round > 0 {
            cache = TempDir::new("bench-sweep").map_err(|e| format!("tempdir: {e}"))?;
        }
        let opts = SweepOptions {
            cache_dir: Some(cache.path().to_path_buf()),
            iterations: None,
            jobs: Some(4),
        };
        let report = run_sweep(&spec, &opts).map_err(|e| format!("cold sweep: {e}"))?;
        println!(
            "cold[{round}]: {} unique of {} expanded in {:.3}s ({:.0} scenarios/s, {} jobs)",
            report.unique,
            report.expanded,
            report.elapsed_seconds,
            report.unique as f64 / report.elapsed_seconds.max(1e-9),
            report.jobs
        );
        if report.errors != 0 {
            eprintln!(
                "sweep: FAIL — {} scenarios errored on the cold run",
                report.errors
            );
            ok = false;
        }
        if report.disk_hits != 0 {
            eprintln!(
                "sweep: FAIL — cold run hit disk {} times in a fresh cache",
                report.disk_hits
            );
            ok = false;
        }
        if let Some(prev) = &cold {
            if prev.plans_digest != report.plans_digest {
                eprintln!(
                    "sweep: FAIL — plans digest drifted across fresh cold runs ({} vs {})",
                    prev.plans_digest, report.plans_digest
                );
                ok = false;
            }
        }
        cold_elapsed = cold_elapsed.min(report.elapsed_seconds);
        cold = Some(report);
    }
    let cold = cold.expect("ROUNDS >= 1");

    // `cache` now holds the last cold round's fully-populated cache (all
    // rounds produced identical bytes); every warm round must replay it
    // without planning anything.
    let warm_opts = SweepOptions {
        cache_dir: Some(cache.path().to_path_buf()),
        iterations: None,
        jobs: Some(2),
    };
    let mut warm: Option<nestwx_sweep::SweepReport> = None;
    let mut warm_elapsed = f64::INFINITY;
    let mut byte_identical = true;
    for round in 0..ROUNDS {
        let report = run_sweep(&spec, &warm_opts).map_err(|e| format!("warm sweep: {e}"))?;
        println!(
            "warm[{round}]: {} disk hits, {} recomputed in {:.3}s ({} jobs)",
            report.disk_hits, report.computed, report.elapsed_seconds, report.jobs
        );
        if report.plans_digest != cold.plans_digest {
            eprintln!(
                "sweep: FAIL — plans digest changed across runs/job counts ({} vs {})",
                cold.plans_digest, report.plans_digest
            );
            byte_identical = false;
        }
        if report.computed != 0 {
            eprintln!(
                "sweep: FAIL — warm run recomputed {} scenarios",
                report.computed
            );
            ok = false;
        }
        warm_elapsed = warm_elapsed.min(report.elapsed_seconds);
        warm = Some(report);
    }
    let warm = warm.expect("ROUNDS >= 1");

    // Serve pre-heat: a server on the swept cache dir vs. one planning
    // from scratch must produce byte-identical plan responses.
    let mut warm_cfg = ServeConfig::new("127.0.0.1:0");
    warm_cfg.cache_dir = Some(cache.path().to_path_buf());
    let warm_handle = spawn(warm_cfg).map_err(|e| format!("spawn warmed server: {e}"))?;
    let fresh_handle =
        spawn(ServeConfig::new("127.0.0.1:0")).map_err(|e| format!("spawn fresh server: {e}"))?;
    let mut warm_client =
        Client::connect(warm_handle.addr()).map_err(|e| format!("connect warmed: {e}"))?;
    let mut fresh_client =
        Client::connect(fresh_handle.addr()).map_err(|e| format!("connect fresh: {e}"))?;
    let combos = [
        (Strategy::Concurrent, AllocPolicy::HuffmanSplitTree),
        (Strategy::Sequential, AllocPolicy::NaiveProportional),
        (Strategy::Concurrent, AllocPolicy::NaiveProportional),
    ];
    for (i, &(strategy, alloc)) in combos.iter().enumerate() {
        let req = sweep_plan_request(&format!("sw{i}"), strategy, alloc);
        let from_disk = warm_client
            .call(&req)
            .map_err(|e| format!("warmed plan: {e}"))?;
        let from_scratch = fresh_client
            .call(&req)
            .map_err(|e| format!("fresh plan: {e}"))?;
        if !from_disk.ok() {
            return Err(format!("warmed server rejected plan: {}", from_disk.raw));
        }
        if from_disk.raw != from_scratch.raw {
            eprintln!("sweep: FAIL — pre-heated plan response {i} differs from fresh bytes");
            byte_identical = false;
        }
    }
    let stats = warm_client
        .call(&stats_request())
        .map_err(|e| format!("warmed stats: {e}"))?;
    let result = stats.result().cloned().unwrap_or(Value::Null);
    let disk_hits = u64_at(&result, &["disk", "hits"]);
    let disk_writes = u64_at(&result, &["disk", "writes"]);
    if disk_hits != combos.len() as u64 || disk_writes != 0 {
        eprintln!(
            "sweep: FAIL — warmed server should serve purely from disk \
             (hits={disk_hits}, writes={disk_writes})"
        );
        ok = false;
    }
    println!(
        "pre-heat: {} plan requests answered from disk, byte-identical: {byte_identical}",
        combos.len()
    );
    for (label, handle, client) in [
        ("warmed", warm_handle, &mut warm_client),
        ("fresh", fresh_handle, &mut fresh_client),
    ] {
        let shut = client
            .call(&shutdown_request())
            .map_err(|e| format!("{label} shutdown: {e}"))?;
        if !shut.ok() {
            return Err(format!("{label} shutdown rejected: {}", shut.raw));
        }
        let report = handle.wait();
        if !report.clean() {
            return Err(format!("{label} server unclean drain: {report:?}"));
        }
    }

    let warm_hit_rate = if warm.unique == 0 {
        0.0
    } else {
        warm.disk_hits as f64 / warm.unique as f64
    };
    if warm_hit_rate < 1.0 {
        eprintln!(
            "sweep: FAIL — warm hit rate {:.3} (every deduped scenario must hit disk)",
            warm_hit_rate
        );
        ok = false;
    }
    let out = SweepBenchOutput {
        benchmark: "sweep".into(),
        expanded: cold.expanded as u64,
        unique: cold.unique as u64,
        dedup_ratio: cold.expanded as f64 / cold.unique.max(1) as f64,
        iterations: spec.iterations,
        cold_jobs: cold.jobs as u64,
        warm_jobs: warm.jobs as u64,
        cold_elapsed_seconds: cold_elapsed,
        warm_elapsed_seconds: warm_elapsed,
        scenarios_per_sec: cold.unique as f64 / cold_elapsed.max(1e-9),
        warm_speedup: cold_elapsed / warm_elapsed.max(1e-9),
        warm_hit_rate,
        warm_recomputed: warm.computed as u64,
        errors: (cold.errors + warm.errors) as u64,
        byte_identical,
        plans_digest: cold.plans_digest.clone(),
    };
    println!(
        "sweep: {:.0} scenarios/s cold, {:.1}x warm speedup, dedup {:.2}, digest {}",
        out.scenarios_per_sec, out.warm_speedup, out.dedup_ratio, out.plans_digest
    );
    Ok((out, ok && byte_identical))
}

/// The CI smoke workload: a short mixed predict/plan session that must
/// produce zero protocol errors, a non-zero cache hit rate, byte-identical
/// repeats, every burst predict answered ok, and a clean shutdown.
fn run_smoke(args: &Args) -> Result<bool, String> {
    banner(
        "SERVE-SMOKE",
        "mixed predict/plan workload against a live server",
    );
    let target = match &args.addr {
        Some(a) => Target::External(a.clone()),
        None => Target::InProcess(
            spawn(ServeConfig::new("127.0.0.1:0")).map_err(|e| format!("spawn server: {e}"))?,
        ),
    };
    println!("server: {}", target.addr());

    let scenarios = working_set(6);
    let mut client = connect(&target)?;

    // Two passes over the working set: the second must be all cache hits
    // and byte-identical to the first.
    let mut first: Vec<String> = Vec::new();
    for req in &scenarios {
        let resp = client.call(req).map_err(|e| format!("plan: {e}"))?;
        if !resp.ok() {
            return Err(format!("plan rejected: {}", resp.raw));
        }
        first.push(resp.raw);
    }
    for (i, req) in scenarios.iter().enumerate() {
        let resp = client
            .call(req)
            .map_err(|e| format!("plan (repeat): {e}"))?;
        if resp.raw != first[i] {
            return Err(format!(
                "cached response not byte-identical for scenario {i}"
            ));
        }
    }
    println!(
        "plan: {} scenarios, repeats byte-identical",
        scenarios.len()
    );

    // A concurrent predict burst sharing one machine — four workers
    // resolving the same fitted predictor at once.
    let addr = target.addr();
    let burst: Vec<_> = (0..4)
        .map(|b| {
            let addr = addr.clone();
            std::thread::spawn(move || -> Result<(), String> {
                let mut c = Client::connect(&addr).map_err(|e| format!("burst {b}: {e}"))?;
                let req = Request::new(
                    Some(format!("p{b}")),
                    RequestBody::Predict(PredictParams {
                        machine: "bgl:64".into(),
                        nests: vec![
                            NestSpec::new(130, 121, 3, (10, 12)),
                            NestSpec::new(96, 90, 3, (180, 170)),
                        ],
                    }),
                );
                for _ in 0..8 {
                    let resp = c.call(&req).map_err(|e| format!("burst {b} call: {e}"))?;
                    if !resp.ok() {
                        return Err(format!("burst {b} predict rejected: {}", resp.raw));
                    }
                }
                Ok(())
            })
        })
        .collect();
    for h in burst {
        h.join()
            .map_err(|_| "predict burst thread panicked".to_string())??;
    }
    println!("predict: 4-client burst completed");

    // A compare round-trip.
    let compare = Request::new(
        Some("cmp".into()),
        RequestBody::Compare {
            params: match &scenarios[0].body {
                RequestBody::Plan(p) => p.clone(),
                _ => unreachable!(),
            },
            iterations: 2,
        },
    );
    let resp = client.call(&compare).map_err(|e| format!("compare: {e}"))?;
    if !resp.ok() {
        return Err(format!("compare rejected: {}", resp.raw));
    }
    println!("compare: ok");

    // Stats must show zero protocol errors, hits, and all 32 burst
    // predicts answered ok.
    let stats = client
        .call(&stats_request())
        .map_err(|e| format!("stats: {e}"))?;
    let result = stats.result().cloned().unwrap_or(Value::Null);
    let protocol_errors = u64_at(&result, &["server", "protocol_errors"]);
    let hit_rate = f64_at(&result, &["cache", "hit_rate"]);
    let hits = u64_at(&result, &["cache", "hits"]);
    let predicts = u64_at(&result, &["endpoints", "predict", "requests"]);
    let predict_errors = u64_at(&result, &["endpoints", "predict", "errors"]);
    println!(
        "stats: protocol_errors={protocol_errors} cache_hits={hits} hit_rate={:.3} predicts={predicts} predict_errors={predict_errors}",
        hit_rate
    );
    let mut ok = true;
    if protocol_errors != 0 {
        eprintln!("smoke: FAIL — server counted {protocol_errors} protocol errors");
        ok = false;
    }
    if hits == 0 || hit_rate <= 0.0 {
        eprintln!("smoke: FAIL — no cache hits on a repeated working set");
        ok = false;
    }
    if predicts != 32 || predict_errors != 0 {
        eprintln!("smoke: FAIL — predict burst of 32 counted {predicts} requests, {predict_errors} errors");
        ok = false;
    }

    // Graceful shutdown: the server acknowledges, drains, and (for the CI
    // job) its process exits 0 — checked by the workflow, not here.
    let shut = client
        .call(&shutdown_request())
        .map_err(|e| format!("shutdown: {e}"))?;
    if !shut.ok() {
        return Err(format!("shutdown rejected: {}", shut.raw));
    }
    if let Target::InProcess(handle) = target {
        let report = handle.wait();
        if !report.clean() {
            return Err(format!("unclean drain: {report:?}"));
        }
        println!("drain: clean");
    }
    if ok {
        println!("SERVE-SMOKE: PASS");
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_serve: {e}");
            eprintln!(
                "usage: bench_serve [--smoke] [--churn] [--sweep] [--addr HOST:PORT] [--clients N] [--requests N] [--out PATH] [--trace-out PATH]"
            );
            return ExitCode::FAILURE;
        }
    };
    if args.smoke {
        return match run_smoke(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("bench_serve: error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let out_path = args.out_path();
    if args.sweep {
        let run = run_sweep_bench().and_then(|(out, ok)| {
            let json = serde_json::to_string(&out).map_err(|e| format!("serialize: {e:?}"))?;
            std::fs::write(&out_path, format!("{json}\n"))
                .map_err(|e| format!("write {out_path}: {e}"))?;
            println!("wrote {out_path}");
            Ok(ok)
        });
        return match run {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("bench_serve: error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let run = run_bench(&args).and_then(|(mut out, mut ok)| {
        if args.churn {
            let (churn, churn_ok) = run_churn()?;
            out.churn = Some(churn);
            ok = ok && churn_ok;
        }
        let json = serde_json::to_string(&out).map_err(|e| format!("serialize: {e:?}"))?;
        std::fs::write(&out_path, format!("{json}\n"))
            .map_err(|e| format!("write {out_path}: {e}"))?;
        println!("wrote {out_path}");
        Ok(ok)
    });
    match run {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_serve: error: {e}");
            ExitCode::FAILURE
        }
    }
}
