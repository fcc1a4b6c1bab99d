//! End-to-end `nestwx fleet` over real worker OS processes.
//!
//! Spawns the built `nestwx` binary, which in turn spawns its own
//! `fleet-worker` children via `current_exe`, and checks the merged
//! report against a directly-driven in-process fleet: the fleet's core
//! invariant (socket halos are bitwise-transparent) holds across real
//! process boundaries and fleet sizes, not just threads. Together with
//! the obs render and the orphaned-worker bound, these are the whole
//! real-process fleet check; no CI job repeats them.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const PARENT: &str = "96x84@24";
const NEST_A: &str = "40x40r3@6,6";
const NEST_B: &str = "32x32r2@52,40";

fn reference_run() -> nestwx_fleet::FleetRun {
    let parent = nestwx_grid::Domain::parent(96, 84, 24.0);
    let nests = vec![
        nestwx_grid::NestSpec::new(40, 40, 3, (6, 6)),
        nestwx_grid::NestSpec::new(32, 32, 2, (52, 40)),
    ];
    let plan = nestwx_core::Planner::new(nestwx_netsim::Machine::bgl(64))
        .strategy(nestwx_core::Strategy::Concurrent)
        .alloc_policy(nestwx_core::AllocPolicy::HuffmanSplitTree)
        .mapping(nestwx_core::MappingKind::Partition)
        .plan(&parent, &nests)
        .unwrap();
    let partitions: Vec<(usize, u64)> = plan
        .partitions
        .iter()
        .map(|p| (p.domain, p.rect.area()))
        .collect();
    nestwx_fleet::execute_in_process(
        &parent,
        &nests,
        3,
        plan.machine.ranks() as u64,
        &partitions,
        &nestwx_fleet::FleetConfig {
            workers: 1,
            ..nestwx_fleet::FleetConfig::from_env()
        },
    )
    .unwrap()
}

/// Runs `nestwx fleet --check --json` on the two-nest scenario with
/// `workers` real worker processes; returns the parsed summary.
fn fleet_check_json(workers: &str, obs_path: &std::path::Path) -> serde_json::Value {
    let out = Command::new(env!("CARGO_BIN_EXE_nestwx"))
        .args([
            "fleet",
            "--machine",
            "bgl:64",
            "--parent",
            PARENT,
            "--nest",
            NEST_A,
            "--nest",
            NEST_B,
            "--iterations",
            "3",
            "--workers",
            workers,
            "--check",
            "--json",
            "--obs-out",
            obs_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{workers}-worker fleet exited nonzero\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    serde_json::from_slice(&out.stdout).unwrap()
}

#[test]
fn fleet_command_spawns_real_workers_and_matches_in_process_run() {
    let exe = env!("CARGO_BIN_EXE_nestwx");
    let dir = nestwx_core::TempDir::new("cli-fleet").unwrap();
    let obs_path = dir.path().join("fleet.json");
    let v = fleet_check_json("2", &obs_path);
    assert_eq!(v["schema"].as_str().unwrap(), "nestwx-obs-fleet-summary");
    assert_eq!(v["workers"].as_u64().unwrap(), 2);
    assert_eq!(v["iterations"].as_u64().unwrap(), 3);
    assert_eq!(v["worker_rows"].as_array().unwrap().len(), 2);

    // Bitwise identity against the in-process reference.
    let reference = reference_run();
    assert_eq!(v["digest"].as_str().unwrap(), reference.report.digest);
    assert_eq!(
        v["parent_digest"].as_str().unwrap(),
        reference.report.parent_digest
    );

    // The written envelope loads and renders through `nestwx obs report`.
    let report = Command::new(exe)
        .args(["obs", "report", obs_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        report.status.success(),
        "obs report failed: {}",
        String::from_utf8_lossy(&report.stderr)
    );
    let text = String::from_utf8(report.stdout).unwrap();
    assert!(text.contains("fleet summary"), "{text}");
    assert!(text.contains("coordinator"), "{text}");
    assert!(text.contains("worker 1"), "{text}");
}

#[test]
fn four_worker_fleet_has_the_two_worker_digest() {
    // Real worker processes at two fleet sizes: partitioning the nests
    // differently must not move a single bit of the merged report.
    let dir = nestwx_core::TempDir::new("cli-fleet-sizes").unwrap();
    let two = fleet_check_json("2", &dir.path().join("fleet2.json"));
    let four = fleet_check_json("4", &dir.path().join("fleet4.json"));
    assert_eq!(four["workers"].as_u64().unwrap(), 4);
    assert_eq!(four["worker_rows"].as_array().unwrap().len(), 4);
    let digest = two["digest"].as_str().unwrap();
    assert!(!digest.is_empty());
    assert_eq!(four["digest"].as_str().unwrap(), digest);
    assert_eq!(four["parent_digest"], two["parent_digest"]);
}

#[test]
fn fleet_human_output_reports_check_and_digest() {
    let exe = env!("CARGO_BIN_EXE_nestwx");
    let out = Command::new(exe)
        .args([
            "fleet",
            "--machine",
            "bgl:64",
            "--parent",
            PARENT,
            "--nest",
            NEST_A,
            "--iterations",
            "2",
            "--workers",
            "1",
            "--check",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("fleet: 1 workers x 2 iterations"), "{text}");
    assert!(text.contains("digest "), "{text}");
    assert!(
        text.contains("check: report bitwise-identical to the in-process run"),
        "{text}"
    );
}

#[test]
fn fleet_worker_without_coordinator_fails_fast() {
    // A worker pointed at a dead port must exit nonzero with a clear
    // error, not hang: it gets 10 s of wall time before it is killed.
    let exe = env!("CARGO_BIN_EXE_nestwx");
    let started = Instant::now();
    let mut child = Command::new(exe)
        .args(["fleet-worker", "--connect", "127.0.0.1:1"])
        .env("NESTWX_FLEET_CONNECT_TIMEOUT_MS", "500")
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if started.elapsed() > Duration::from_secs(10) {
            let _ = child.kill();
            let _ = child.wait();
            panic!("orphaned fleet-worker still running after 10 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(!status.success());
    let out = child.wait_with_output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot reach coordinator"), "{err}");
}
