//! `repro`'s command line, driven through the built binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

/// A fresh path under the test scratch directory.
fn scratch(name: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn unknown_name_exits_2_and_lists_the_experiments() {
    let out = repro(&["fig99_nothing"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fig99_nothing"), "{stderr}");
    for name in nestwx_bench::EXPERIMENTS.iter().map(|e| e.name) {
        assert!(stderr.contains(name), "{name} not listed:\n{stderr}");
    }
    assert!(out.stdout.is_empty());
}

#[test]
fn trace_out_writes_a_chrome_trace() {
    let path = scratch("repro_tab01.trace.json");
    let out = repro(&[
        "tab01_mpiwait",
        "--configs",
        "1",
        "--trace-out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("====="));
    let json = std::fs::read_to_string(&path).expect("trace written");
    let trace = serde_json::from_str(&json).expect("trace parses as JSON");
    let events = trace.get("traceEvents").unwrap().as_array().unwrap();
    assert!(!events.is_empty());
    assert_eq!(events[0].get("ph").unwrap().as_str(), Some("X"));
}

#[test]
fn trace_out_on_an_untraced_experiment_is_a_usage_error() {
    let path = scratch("repro_fig03.trace.json");
    let out = repro(&["fig03_partition", "--trace-out", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    for traced in nestwx_bench::EXPERIMENTS.iter().filter(|e| e.traces) {
        assert!(stderr.contains(traced.name), "{stderr}");
    }
    assert!(out.stdout.is_empty());
    assert!(!path.exists());
}
