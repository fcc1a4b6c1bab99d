//! The nestwx performance ledger.
//!
//! ```text
//! nestwx-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//! measures one workload and prints, as the last line of standard output,
//! one JSON object `{correct, attempted, failed, metrics}` — every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`. Without `--workload` it runs every workload, each in a
//! child process of its own (so peak RSS and allocator state are per
//! workload), prints one table and writes `benchmark/out/results.json`.
//! `--smoke` does that at a tenth of the length; `--check-repeat` does it
//! twice and compares the two against the declared bounds.
//!
//! The harness measures every layer from outside: it times calls into the
//! crates' public functions and reads the counters their public APIs
//! return. See `README.md` beside this package.

mod gen;
mod spec;
mod stats;
mod sys;
mod trace;
mod workloads;

use serde_json::Value;
use std::process::ExitCode;
use workloads::{Args, Outcome};

/// Default `--seconds`; `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    smoke: bool,
    check_repeat: bool,
}

const USAGE: &str = "usage: nestwx-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] \
[--trace <0|1>] [--smoke] [--check-repeat]";

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        scale: 1.0,
        smoke: false,
        check_repeat: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds >= 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be within 0..=600".into());
                }
            }
            "--trace" => {
                cli.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--scale" => {
                cli.scale = value("a number")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?;
                if !(cli.scale > 0.0 && cli.scale <= 1.0) {
                    return Err("--scale must be within (0, 1]".into());
                }
            }
            "--smoke" => cli.smoke = true,
            "--check-repeat" => cli.check_repeat = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The result line. Written by hand: `attempted` and `failed` must print
/// as whole numbers, and the vendored `Value` holds every number as f64.
fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".to_string()
            };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(",")
    )
}

fn run_one(name: &str, args: &Args) -> Result<Outcome, String> {
    use workloads::{fleet, miniwrf, netsim, plan_cold, run, serve, sweep};
    let ws = spec::workload(name).ok_or_else(|| {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {names:?}")
    })?;
    match ws.name {
        "plan_cold" => run::<plan_cold::PlanCold>(ws, args),
        "netsim_large" => run::<netsim::NetsimLarge>(ws, args),
        "netsim_observed" => run::<netsim::NetsimObserved>(ws, args),
        "serve_hot" => run::<serve::ServeHot>(ws, args),
        "serve_cold" => run::<serve::ServeCold>(ws, args),
        "miniwrf_solve" => run::<miniwrf::MiniwrfSolve>(ws, args),
        "fleet_halo" => run::<fleet::FleetHalo>(ws, args),
        "sweep_disk" => run::<sweep::SweepDisk>(ws, args),
        other => unreachable!("workload {other} is declared but has no runner"),
    }
}

/// One workload in this process: human-readable lines first, the result
/// object last.
fn single(cli: &Cli, name: &str) -> ExitCode {
    let scrubbed = sys::scrub_env();
    let args = Args {
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        scale: cli.scale,
    };
    println!(
        "nestwx-benchmark workload={name} seed={} seconds={} trace={} scale={} nproc={} commit={}",
        cli.seed,
        cli.seconds,
        u8::from(cli.trace),
        cli.scale,
        sys::nproc(),
        sys::git_head()
    );
    if !scrubbed.is_empty() {
        println!("removed from the environment: {scrubbed:?}");
    }
    let outcome = match run_one(name, &args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("nestwx-benchmark: {name}: {e}");
            return ExitCode::from(2);
        }
    };
    let ws = spec::workload(name).expect("run_one accepted the name");
    println!("op     = {}", ws.op);
    println!("sample = {}", ws.sample);
    for note in &outcome.notes {
        println!("{note}");
    }
    for failure in &outcome.failures {
        println!("CHECK FAILED: {failure}");
    }
    for (metric, value, unit) in &outcome.metrics {
        println!(
            "{metric:<32} {value:>18.4} {unit:<6} ({} is better)",
            spec::better(metric)
        );
    }
    println!(
        "attempted {} failed {} failed_share {:.6}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    println!("{}", result_line(&outcome));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `workload` in a child process and returns its result object.
fn child(cli: &Cli, workload: &str, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--scale", &cli.scale.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or_default();
    let value =
        serde_json::from_str(last).map_err(|e| format!("{workload}: no result line: {e}"))?;
    if !output.status.success() {
        eprintln!("nestwx-benchmark: {workload} exited with {}", output.status);
    }
    Ok(value)
}

/// Every workload once (and once more traced when `--trace 1`).
/// Returns `workload → result object` plus whether all were correct.
fn run_all(cli: &Cli) -> Result<(Vec<(String, Value)>, bool), String> {
    let mut results = Vec::new();
    let mut all_correct = true;
    for ws in &spec::WORKLOADS {
        let mut entry = vec![("end_to_end", child(cli, ws.name, false)?)];
        if cli.trace {
            entry.push(("per_layer", child(cli, ws.name, true)?));
        }
        all_correct &= entry
            .iter()
            .all(|(_, v)| v["correct"].as_bool() == Some(true));
        results.push((ws.name.to_string(), obj(entry)));
    }
    Ok((results, all_correct))
}

fn metric(results: &[(String, Value)], workload: &str, name: &str) -> f64 {
    results
        .iter()
        .find(|(w, _)| w == workload)
        .and_then(|(_, v)| v["end_to_end"]["metrics"][name]["value"].as_f64())
        .unwrap_or(0.0)
}

fn print_table(results: &[(String, Value)]) {
    println!();
    print!("{:<16}", "workload");
    for m in &spec::END_TO_END {
        print!(" {:>16}", format!("{} [{}]", m.name, m.unit));
    }
    println!(" {:>12}", "failed_share");
    for (workload, v) in results {
        print!("{workload:<16}");
        for m in &spec::END_TO_END {
            print!(" {:>16.3}", metric(results, workload, m.name));
        }
        let e = &v["end_to_end"];
        println!(
            " {:>12.6}",
            e["failed"].as_f64().unwrap_or(0.0) / e["attempted"].as_f64().unwrap_or(1.0).max(1.0)
        );
    }
}

fn write_results(sets: &[Vec<(String, Value)>], cli: &Cli) -> Result<(), String> {
    let sets = sets
        .iter()
        .map(|set| Value::Object(set.clone()))
        .collect::<Vec<_>>();
    let doc = obj(vec![
        ("commit", Value::String(sys::git_head())),
        ("seed", Value::Number(cli.seed as f64)),
        ("seconds", Value::Number(cli.seconds)),
        ("scale", Value::Number(cli.scale)),
        ("nproc", Value::Number(sys::nproc() as f64)),
        ("runs", Value::Array(sets)),
    ]);
    std::fs::create_dir_all(sys::out_dir()).map_err(|e| format!("create out dir: {e}"))?;
    let path = sys::out_dir().join("results.json");
    let text = serde_json::to_string_pretty(&doc).expect("values serialize");
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    Ok(())
}

/// Two full untraced sets back to back; every `(metric, workload)` pair
/// must agree within its bound — except `setup_s`, which is printed but,
/// as in the driver's own check, judged on ten-run medians only: one
/// run's median of [`workloads::SETUP_REPS`] set-ups of 0.2–0.6 s differs
/// by 30–40 % between two runs now and then (`serve_hot` 0.165 vs 0.232 s).
fn check_repeat(cli: &Cli) -> Result<bool, String> {
    let (first, ok1) = run_all(cli)?;
    let (second, ok2) = run_all(cli)?;
    let mut within = true;
    println!(
        "\n{:<16} {:<14} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse %", "bound %"
    );
    for ws in &spec::WORKLOADS {
        for m in &spec::END_TO_END {
            let (a, b) = (
                metric(&first, ws.name, m.name),
                metric(&second, ws.name, m.name),
            );
            // How much worse the second set reads than the first.
            let worse = if m.better == "higher" {
                (a - b) / a
            } else {
                (b - a) / a
            };
            let gated = m.name != "setup_s";
            let ok = worse.abs() <= m.bound;
            within &= ok || !gated;
            println!(
                "{:<16} {:<14} {a:>14.3} {b:>14.3} {:>9.2} {:>7.1}{}",
                ws.name,
                m.name,
                worse * 100.0,
                m.bound * 100.0,
                match (ok, gated) {
                    (true, _) => "",
                    (false, true) => "  OUT OF BOUND",
                    (false, false) => "  out of bound (one pair; not gated)",
                }
            );
        }
    }
    write_results(&[first, second], cli)?;
    Ok(ok1 && ok2 && within)
}

fn main() -> ExitCode {
    let mut cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("nestwx-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(name) = cli.workload.clone() {
        return single(&cli, &name);
    }
    if cli.smoke {
        cli.seconds = 0.0;
        cli.scale = 0.1;
    }
    let outcome = if cli.check_repeat {
        check_repeat(&cli)
    } else {
        run_all(&cli).and_then(|(results, correct)| {
            print_table(&results);
            write_results(&[results], &cli)?;
            Ok(correct)
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("nestwx-benchmark: a check failed or a metric left its bound");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("nestwx-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
