//! `nestwx obs report` over one real envelope of each kind, each written
//! by the code that produces it: `compare --obs-out`, `sweep --out`,
//! `fleet --obs-out` and a serve `trace` drain. The one generic renderer
//! must print every scalar leaf outside the envelope's record array, and a
//! copy of each envelope at the next version must be rejected with an
//! error that names that version.

use nestwx_cli::obs::cell;
use nestwx_core::{AllocPolicy, MappingKind, Strategy};
use nestwx_grid::{Domain, NestSpec};
use nestwx_serve::{Client, Request, RequestBody, ScenarioParams, ServeConfig};
use serde_json::Value;
use std::path::Path;
use std::process::{Command, Output};

fn nestwx(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nestwx"))
        .args(args)
        .output()
        .expect("run nestwx")
}

fn nestwx_ok(args: &[&str]) -> String {
    let out = nestwx(args);
    assert!(
        out.status.success(),
        "nestwx {args:?} failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

fn join(prefix: &str, key: &str) -> String {
    if prefix.is_empty() {
        key.to_string()
    } else {
        format!("{prefix}.{key}")
    }
}

/// Table cells of one array row: dotted column names and their cells.
fn row_texts(row: &Value, prefix: &str, out: &mut Vec<String>) {
    if let Value::Object(fields) = row {
        for (k, x) in fields {
            let key = join(prefix, k);
            match x {
                Value::Object(_) => row_texts(x, &key, out),
                _ => out.extend([key, cell(x)]),
            }
        }
    }
}

/// The text every scalar leaf outside the record array must show up as:
/// `key=cell` for object fields; column name and cell for table rows.
fn leaf_texts(v: &Value, path: &str, records: &str, out: &mut Vec<String>) {
    let Value::Object(fields) = v else { return };
    for (k, x) in fields {
        let key = join(path, k);
        if key == records {
            continue;
        }
        match x {
            Value::Object(_) => leaf_texts(x, &key, records, out),
            Value::Array(items) if items.iter().any(|i| matches!(i, Value::Object(_))) => {
                for row in items {
                    row_texts(row, "", out);
                }
            }
            _ if path.is_empty() && (k == "schema" || k == "version") => {}
            _ => out.push(format!("{k}={}", cell(x))),
        }
    }
}

/// Renders `path` through the binary and checks every leaf; then checks
/// that a version+1 copy fails with an error naming the version.
fn check_rendered(path: &Path, dir: &Path) -> Value {
    let v: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    let envelope = nestwx_obs::check_envelope(&v).expect("current envelope");
    let text = nestwx_ok(&["obs", "report", path.to_str().unwrap()]);
    let header = format!("{} v{}\n", envelope.schema, envelope.version);
    assert!(text.starts_with(&header), "{text}");
    let mut want = Vec::new();
    leaf_texts(&v, "", &envelope.records.join("."), &mut want);
    assert!(!want.is_empty());
    for leaf in &want {
        assert!(
            text.contains(leaf.as_str()),
            "'{leaf}' missing from:\n{text}"
        );
    }

    let mut bumped = v.clone();
    if let Value::Object(fields) = &mut bumped {
        for (k, x) in fields.iter_mut() {
            if k == "version" {
                *x = Value::Number((envelope.version + 1) as f64);
            }
        }
    }
    let stale = dir.join(format!(
        "stale-{}",
        path.file_name().unwrap().to_str().unwrap()
    ));
    std::fs::write(&stale, serde_json::to_string(&bumped).unwrap()).unwrap();
    let out = nestwx(&["obs", "report", stale.to_str().unwrap()]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "version+1 accepted: {}",
        envelope.schema
    );
    assert!(
        err.contains(&format!("version {}", envelope.version + 1)),
        "{err}"
    );
    v
}

/// Drains a real flight-recorder envelope from an in-process server after
/// a cold and a repeated plan.
fn serve_trace() -> Value {
    let mut cfg = ServeConfig::new("127.0.0.1:0");
    cfg.trace = true;
    let handle = nestwx_serve::spawn(cfg).expect("spawn server");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let plan = Request::new(
        Some("p".into()),
        RequestBody::Plan(ScenarioParams {
            machine: "bgl:64".into(),
            parent: Domain::parent(286, 307, 24.0),
            nests: vec![NestSpec::new(120, 111, 3, (10, 12))],
            strategy: Strategy::Concurrent,
            alloc: AllocPolicy::HuffmanSplitTree,
            mapping: MappingKind::Partition,
            io: None,
        }),
    );
    for _ in 0..2 {
        assert!(client.call(&plan).expect("plan").ok());
    }
    let trace = client
        .call(&Request::new(Some("t".into()), RequestBody::Trace))
        .expect("trace");
    let envelope = trace.result().expect("trace result").clone();
    let bye = client
        .call(&Request::new(None, RequestBody::Shutdown))
        .expect("shutdown");
    assert!(bye.ok());
    assert!(handle.wait().clean());
    envelope
}

#[test]
fn report_prints_every_leaf_of_each_real_envelope_and_rejects_the_next_version() {
    let dir = nestwx_core::TempDir::new("cli-obs-envelopes").unwrap();
    let at = |name: &str| dir.path().join(name).to_str().unwrap().to_string();

    let prefix = at("run");
    nestwx_ok(&[
        "compare",
        "--machine",
        "bgl:64",
        "--parent",
        "286x307@24",
        "--nest",
        "150x150r3@10,12",
        "--nest",
        "150x150r3@120,120",
        "--iterations",
        "2",
        "--obs-out",
        &prefix,
    ]);
    let run = check_rendered(Path::new(&format!("{prefix}.default.json")), dir.path());
    assert!(run["ring"]["steps"]
        .as_array()
        .is_some_and(|s| !s.is_empty()));

    let spec = at("spec.json");
    std::fs::write(
        &spec,
        r#"{"machines": ["bgl:64"], "parents": ["286x307@24"],
            "nests": {"counts": [1, 2], "size": {"start": 96, "step": 12, "n": 1},
                      "refine": 3, "positions": [[10, 12], [120, 120]]},
            "strategies": ["sequential", "concurrent"], "allocs": ["huffman"],
            "mappings": ["partition"], "iterations": 2}"#,
    )
    .unwrap();
    let sweep = at("sweep.json");
    nestwx_ok(&[
        "sweep",
        "--spec",
        &spec,
        "--cache-dir",
        &at("cache"),
        "--out",
        &sweep,
    ]);
    let sweep = check_rendered(Path::new(&sweep), dir.path());
    assert!(sweep["winners"].as_array().is_some_and(|w| !w.is_empty()));

    let fleet = at("fleet.json");
    nestwx_ok(&[
        "fleet",
        "--machine",
        "bgl:64",
        "--parent",
        "96x84@24",
        "--nest",
        "40x40r3@6,6",
        "--nest",
        "32x32r2@52,40",
        "--iterations",
        "2",
        "--workers",
        "2",
        "--obs-out",
        &fleet,
    ]);
    let fleet = check_rendered(Path::new(&fleet), dir.path());
    assert_eq!(fleet["worker_rows"].as_array().map(Vec::len), Some(2));

    let trace = at("trace.json");
    std::fs::write(&trace, serde_json::to_string(&serve_trace()).unwrap()).unwrap();
    let trace = check_rendered(Path::new(&trace), dir.path());
    assert!(trace["spans"].as_array().is_some_and(|s| !s.is_empty()));

    // `top` ranks the record arrays by their own numeric fields.
    let text = nestwx_ok(&["obs", "top", &at("trace.json"), "--by", "wait_us"]);
    assert!(text.starts_with("top "), "{text}");
    let text = nestwx_ok(&[
        "obs",
        "top",
        &at("sweep.json"),
        "--by",
        "planned_s_per_iter",
        "-n",
        "1",
    ]);
    assert!(text.starts_with("top 1 of 4 scenarios records"), "{text}");
}
