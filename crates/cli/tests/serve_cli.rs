//! End-to-end `nestwx serve` as a real OS process.
//!
//! Spawns the built `nestwx` binary on an ephemeral port, drives a short
//! mixed plan / predict / compare / trace session through
//! `nestwx_serve::Client`, and checks what only a separate process can
//! show: after `shutdown` the server drains on its own, exits 0 and logs a
//! balanced drain report.

use nestwx_core::{AllocPolicy, MappingKind, Strategy};
use nestwx_grid::{Domain, NestSpec};
use nestwx_serve::{Client, PredictParams, Request, RequestBody, ScenarioParams};
use std::io::{BufRead, BufReader, Read};
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// Kills the server if the test unwinds before it has exited, so a red
/// test cannot leak a process.
struct ServerProcess(Child);

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Starts `nestwx serve` on an ephemeral port with `flags` appended to its
/// command line; returns the process, its stdout past the `listening on`
/// line, and the bound address.
fn start_server(flags: &[&str]) -> (ServerProcess, BufReader<ChildStdout>, String) {
    let child = Command::new(env!("CARGO_BIN_EXE_nestwx"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .args(flags)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn nestwx serve");
    let mut server = ServerProcess(child);
    let mut stdout = BufReader::new(server.0.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    stdout.read_line(&mut first).expect("read listening line");
    let addr = first
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("no listening line, got {first:?}"))
        .to_string();
    (server, stdout, addr)
}

/// Sends `shutdown`, waits (bounded) for the process to drain and exit on
/// its own, and returns its exit status, remaining stdout and stderr.
fn shut_down(
    server: &mut ServerProcess,
    mut stdout: BufReader<ChildStdout>,
    client: &mut Client,
) -> (ExitStatus, String, String) {
    let bye = client
        .call(&Request::new(Some("bye".into()), RequestBody::Shutdown))
        .expect("shutdown");
    assert!(bye.ok(), "shutdown rejected: {}", bye.raw);
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = server.0.try_wait().expect("try_wait") {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "server still running 30 s after shutdown"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut log = String::new();
    stdout.read_to_string(&mut log).expect("read drain report");
    let mut stderr = String::new();
    let mut pipe = server.0.stderr.take().expect("piped stderr");
    pipe.read_to_string(&mut stderr).expect("read stderr");
    (status, log, stderr)
}

/// `n` distinct two-nest scenarios on one 64-rank BG/L slice: one machine
/// (one predictor fit serves all), a cache entry each.
fn working_set(n: u32) -> Vec<ScenarioParams> {
    (0..n)
        .map(|i| ScenarioParams {
            machine: "bgl:64".into(),
            parent: Domain::parent(286, 307, 24.0),
            nests: vec![
                NestSpec::new(120 + 9 * (i % 4), 111 + 6 * (i / 4), 3, (10 + i, 12)),
                NestSpec::new(96, 90, 3, (180, 170)),
            ],
            strategy: Strategy::Concurrent,
            alloc: AllocPolicy::HuffmanSplitTree,
            mapping: MappingKind::ALL[i as usize % MappingKind::ALL.len()],
            io: None,
        })
        .collect()
}

#[test]
fn serve_process_answers_a_mixed_session_then_drains_and_exits_zero() {
    let (mut server, stdout, addr) = start_server(&[]);
    let mut client = Client::connect(&addr).expect("connect");

    // Two passes over the working set: the second is answered from the
    // cache, byte for byte (one id per scenario, so the whole line repeats).
    let scenarios = working_set(6);
    let plans: Vec<Request> = scenarios
        .iter()
        .enumerate()
        .map(|(i, p)| Request::new(Some(format!("s{i}")), RequestBody::Plan(p.clone())))
        .collect();
    let mut cold = Vec::new();
    for req in &plans {
        let resp = client.call(req).expect("plan");
        assert!(resp.ok(), "plan rejected: {}", resp.raw);
        cold.push(resp.raw);
    }
    for (req, first_raw) in plans.iter().zip(&cold) {
        let resp = client.call(req).expect("plan (repeat)");
        assert_eq!(&resp.raw, first_raw, "cached response not byte-identical");
    }

    // Four connections resolving the same fitted predictor at once.
    std::thread::scope(|s| {
        for b in 0..4 {
            let addr = &addr;
            s.spawn(move || {
                let mut c = Client::connect(addr).expect("burst connect");
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
                    let resp = c.call(&req).expect("burst predict");
                    assert!(resp.ok(), "burst {b} predict rejected: {}", resp.raw);
                }
            });
        }
    });

    let compare = Request::new(
        Some("cmp".into()),
        RequestBody::Compare {
            params: scenarios[0].clone(),
            iterations: 2,
        },
    );
    let resp = client.call(&compare).expect("compare");
    assert!(resp.ok(), "compare rejected: {}", resp.raw);

    // README's trace flow on a real envelope: drain the flight recorder,
    // save the result, render it with `nestwx obs report`.
    let trace = client
        .call(&Request::new(Some("trace".into()), RequestBody::Trace))
        .expect("trace");
    let envelope = trace.result().expect("trace result");
    let dir = nestwx_core::TempDir::new("cli-serve-trace").unwrap();
    let trace_path = dir.path().join("trace.json");
    std::fs::write(&trace_path, serde_json::to_string(envelope).unwrap()).unwrap();
    let report = Command::new(env!("CARGO_BIN_EXE_nestwx"))
        .args(["obs", "report"])
        .arg(&trace_path)
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&report.stdout);
    assert!(
        report.status.success() && text.starts_with("nestwx-obs-serve-summary v1\n"),
        "obs report on a drained envelope: {text}\n{}",
        String::from_utf8_lossy(&report.stderr)
    );

    let stats = client
        .call(&Request::new(Some("stats".into()), RequestBody::Stats))
        .expect("stats");
    let v = stats.result().expect("stats result");
    assert_eq!(v["server"]["protocol_errors"].as_u64(), Some(0), "{v:?}");
    assert!(v["cache"]["hits"].as_u64().unwrap() > 0, "{v:?}");
    let predict = &v["endpoints"]["predict"];
    assert_eq!(predict["requests"].as_u64(), Some(32), "{predict:?}");
    assert_eq!(predict["errors"].as_u64(), Some(0), "{predict:?}");

    let (status, log, stderr) = shut_down(&mut server, stdout, &mut client);
    assert!(
        status.success(),
        "serve exited {status}\nstdout: {log}\nstderr: {stderr}"
    );
    assert!(log.contains("\"queue_residual\":0"), "{log}");
    assert!(log.contains("\"live_conns\":0"), "{log}");
}

#[test]
fn zero_valued_serve_knobs_are_accepted_and_trace_zero_stops_recording() {
    // 0 is the documented "off" value of each of these knobs.
    let (mut server, stdout, addr) = start_server(&[
        "--trace",
        "0",
        "--trace-slow-us",
        "0",
        "--rate",
        "0",
        "--deadline-ms",
        "0",
        "--idle-ms",
        "0",
        "--lifetime-ms",
        "0",
    ]);
    let mut client = Client::connect(&addr).expect("connect");
    let trace = client
        .call(&Request::new(Some("trace".into()), RequestBody::Trace))
        .expect("trace");
    let envelope = trace.result().expect("trace result");
    assert_eq!(
        envelope["summary"]["recording"].as_bool(),
        Some(false),
        "{envelope:?}"
    );
    let (status, log, stderr) = shut_down(&mut server, stdout, &mut client);
    assert!(status.success(), "serve exited {status}\nstdout: {log}");
    assert!(!stderr.contains("ignoring invalid"), "{stderr}");
}
