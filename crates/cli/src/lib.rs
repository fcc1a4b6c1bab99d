//! Argument parsing and command logic for the `nestwx` command-line tool.
//!
//! Kept as a library so the parsing and output formatting are unit-testable;
//! `main.rs` is a thin shell.
//!
//! ```text
//! nestwx machines
//! nestwx plan    --machine bgl:1024 --parent 286x307@24 \
//!                --nest 259x229r3@10,12 --nest 232x256r3@150,40 [--json]
//! nestwx compare --machine bgp:4096 --parent 286x307@24 \
//!                --nest 394x418r3@10,10 --nest 313x337r3@150,160 \
//!                [--iterations 5] [--mapping multilevel] [--alloc huffman]
//!                [--io pnetcdf:1] [--json]
//! ```
//!
//! The scenario flags (`--machine`, `--parent`, `--nest`, `--mapping`,
//! `--alloc`, `--io`) take the tokens of [`nestwx_core::vocab`]; this crate
//! only carries them in argv.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod obs;

use nestwx_core::vocab::{self, VocabError};
use nestwx_core::{compare_strategies, compare_strategies_observed, Scenario};
use nestwx_serve::ServeConfig;
use nestwx_sweep::SweepOptions;
use obs::ObsCmd;
use serde::Serialize;
use std::fmt;

/// A parsed command-line invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// List machine presets.
    Machines,
    /// Produce and print an execution plan.
    Plan(RunArgs),
    /// Compare default vs divide-and-conquer strategies.
    Compare(RunArgs),
    /// Analyze recorded run summaries (`nestwx obs report|top|diff`).
    Obs(ObsCmd),
    /// Run the planning daemon (`nestwx serve`).
    Serve(ServeConfig),
    /// Sweep a declarative scenario space (`nestwx sweep`).
    Sweep(SweepArgs),
    /// Run a multi-process worker fleet locally (`nestwx fleet`).
    Fleet(RunArgs),
    /// Run one fleet worker process (`nestwx fleet-worker`).
    FleetWorker(FleetWorkerArgs),
    /// Run the repo-specific static analysis (`nestwx lint`).
    Lint(LintArgs),
    /// Print usage.
    Help,
}

/// Arguments of `nestwx lint`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LintArgs {
    /// Workspace root to scan (default: current directory).
    pub root: Option<String>,
    /// Allowlist file (default: `<root>/lint.allow`; a missing default
    /// file allows nothing).
    pub allow: Option<String>,
    /// Emit the report as JSON instead of human-readable text.
    pub json: bool,
    /// Use the fixture rule configuration (everything in scope, no
    /// exemptions) instead of the workspace one — for testing the rules
    /// themselves against known-bad snippets.
    pub fixtures: bool,
}

/// Arguments of `nestwx sweep`; each flag writes its field.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SweepArgs {
    /// Scenario-space spec file (JSON; `--spec`, required).
    pub spec: String,
    /// Engine options: `--cache-dir` (shared with `nestwx serve`; unset =
    /// no persistence), `--iterations` and `--jobs` (unset = available
    /// parallelism).
    pub options: SweepOptions,
    /// Also write the summary envelope JSON to this file (`--out`).
    pub out: Option<String>,
    /// Print the summary envelope as JSON instead of tables.
    pub json: bool,
}

/// Arguments of `nestwx fleet-worker` — the child process `nestwx fleet`
/// spawns; not normally invoked by hand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetWorkerArgs {
    /// Coordinator address to connect back to.
    pub connect: String,
}

/// Arguments of `plan`, `compare` and `fleet`: one scenario and how to
/// run it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// What to plan (`fleet`: its compiled plan's partitions weight the
    /// nest-to-worker split).
    pub scenario: Scenario,
    /// Parent iterations (compare and fleet).
    pub iterations: u32,
    /// Emit machine-readable JSON.
    pub json: bool,
    /// compare: write run summaries to `PREFIX.default.json` /
    /// `PREFIX.planned.json`; fleet: write the fleet envelope to this file.
    pub(crate) obs_out: Option<String>,
    /// fleet: worker processes (`--workers`; unset = `FleetConfig`'s 2).
    pub workers: Option<u32>,
    /// fleet: re-run in-process and require a bitwise-identical report.
    pub check: bool,
}

/// A user-facing parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

impl From<VocabError> for ParseError {
    fn from(e: VocabError) -> ParseError {
        ParseError(e.0)
    }
}

fn err(msg: impl Into<String>) -> ParseError {
    ParseError(msg.into())
}

/// Parses a full argument vector (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, ParseError> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "machines" => Ok(Command::Machines),
        "help" | "--help" | "-h" => Ok(Command::Help),
        "obs" => parse_obs_args(&args[1..]).map(Command::Obs),
        "serve" => parse_serve_args(&args[1..]).map(Command::Serve),
        "sweep" => parse_sweep_args(&args[1..]).map(Command::Sweep),
        "fleet-worker" => parse_fleet_worker_args(&args[1..]).map(Command::FleetWorker),
        "lint" => parse_lint_args(&args[1..]).map(Command::Lint),
        "plan" => parse_run_args("plan", &args[1..]).map(Command::Plan),
        "compare" => parse_run_args("compare", &args[1..]).map(Command::Compare),
        "fleet" => parse_run_args("fleet", &args[1..]).map(Command::Fleet),
        other => Err(err(format!(
            "unknown command '{other}' (machines|plan|compare|sweep|fleet|obs|serve|lint|help)"
        ))),
    }
}

/// Parses the flags of `plan`, `compare` and `fleet`: the scenario flags
/// fill a [`Scenario`] through the shared vocabulary, the rest say how to
/// run it. `--io` is plan/compare only, `--iterations`/`--obs-out`
/// compare/fleet only, `--workers`/`--check` fleet only.
fn parse_run_args(cmd: &str, args: &[String]) -> Result<RunArgs, ParseError> {
    let fleet = cmd == "fleet";
    let mut machine = None;
    let mut parent = None;
    let mut nests = Vec::new();
    let mut mapping = None;
    let mut alloc = None;
    let mut io = None;
    let mut iterations = None;
    let mut json = false;
    let mut obs_out = None;
    let mut workers = None;
    let mut check = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| err(format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--machine" => machine = Some(vocab::parse_machine(&value("--machine")?)?),
            "--parent" => parent = Some(vocab::parse_parent(&value("--parent")?)?),
            "--nest" => nests.push(vocab::parse_nest(&value("--nest")?)?),
            "--mapping" => mapping = Some(value("--mapping")?.parse()?),
            "--alloc" => alloc = Some(value("--alloc")?.parse()?),
            "--io" if !fleet => io = Some(vocab::parse_io(&value("--io")?)?),
            "--iterations" => {
                iterations = Some(
                    value("--iterations")?
                        .parse()
                        .map_err(|_| err("bad --iterations"))?,
                );
            }
            "--json" => json = true,
            "--obs-out" => obs_out = Some(value("--obs-out")?),
            "--workers" if fleet => {
                let w: u32 = value("--workers")?
                    .parse()
                    .map_err(|_| err("bad --workers"))?;
                if !(1..=16).contains(&w) {
                    return Err(err("--workers must be 1..=16"));
                }
                workers = Some(w);
            }
            "--check" if fleet => check = true,
            other => return Err(err(format!("unknown {cmd} flag '{other}'"))),
        }
    }
    let mut scenario = Scenario::new(
        machine.ok_or_else(|| err("--machine is required"))?,
        parent.ok_or_else(|| err("--parent is required"))?,
        nests,
    );
    if let Some(mapping) = mapping {
        scenario.mapping = mapping;
    }
    if let Some(alloc) = alloc {
        scenario.alloc = alloc;
    }
    if let Some((mode, every)) = io {
        scenario.io_mode = mode;
        scenario.output_interval = every;
    }
    if scenario.nests.is_empty() {
        return Err(err("at least one --nest is required"));
    }
    if iterations == Some(0) {
        return Err(err("--iterations must be ≥ 1"));
    }
    if cmd == "plan" {
        if obs_out.is_some() {
            return Err(err("--obs-out only applies to compare and fleet"));
        }
        if iterations.is_some() {
            return Err(err("--iterations only applies to compare and fleet"));
        }
    }
    Ok(RunArgs {
        scenario,
        iterations: iterations.unwrap_or(5),
        json,
        obs_out,
        workers,
        check,
    })
}

/// Parses `fleet-worker --connect HOST:PORT`.
fn parse_fleet_worker_args(args: &[String]) -> Result<FleetWorkerArgs, ParseError> {
    let mut connect = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--connect" => {
                connect = Some(
                    it.next()
                        .cloned()
                        .ok_or_else(|| err("--connect needs a value"))?,
                )
            }
            other => return Err(err(format!("unknown fleet-worker flag '{other}'"))),
        }
    }
    Ok(FleetWorkerArgs {
        connect: connect.ok_or_else(|| err("--connect is required"))?,
    })
}

/// Parses `nestwx serve`'s flags: each one writes its [`ServeConfig`]
/// field over [`ServeConfig::new`]'s defaults.
fn parse_serve_args(args: &[String]) -> Result<ServeConfig, ParseError> {
    let mut cfg = ServeConfig::new("127.0.0.1:7878");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| err(format!("{flag} needs a value")))
        };
        let positive = |v: String| match v.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(err(format!("{flag} must be a positive integer, got '{v}'"))),
        };
        // Limits where 0 is meaningful: it disables the knob.
        let nonneg = |v: String| {
            v.parse::<u64>()
                .map_err(|_| err(format!("{flag} must be a non-negative integer, got '{v}'")))
        };
        match flag.as_str() {
            "--addr" => cfg.addr = value()?,
            "--workers" => cfg.workers = positive(value()?)?,
            "--readers" => cfg.readers = positive(value()?)?,
            "--queue" => cfg.queue_depth = positive(value()?)?,
            "--cache" => cfg.cache_capacity = positive(value()?)?,
            "--max-conns" => cfg.max_conns = positive(value()?)?,
            "--deadline-ms" => cfg.deadline_ms = nonneg(value()?)?,
            "--rate" => cfg.rate = nonneg(value()?)?,
            "--burst" => cfg.burst = positive(value()?)? as u64,
            "--client-cap" => cfg.client_cap = positive(value()?)?,
            "--predictors" => cfg.predictors = positive(value()?)?,
            "--idle-ms" => cfg.idle_ms = nonneg(value()?)?,
            "--lifetime-ms" => cfg.lifetime_ms = nonneg(value()?)?,
            "--cache-dir" => cfg.cache_dir = Some(value()?.into()),
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(err(format!("--trace must be 0 or 1, got '{v}'"))),
                }
            }
            "--trace-ring" => cfg.trace_ring = positive(value()?)?,
            "--trace-slow-us" => cfg.trace_slow_us = nonneg(value()?)?,
            other => return Err(err(format!("unknown serve flag '{other}'"))),
        }
    }
    Ok(cfg)
}

/// Parses `sweep --spec FILE [--cache-dir DIR] [--iterations N]
/// [--jobs N] [--out FILE] [--json]`.
fn parse_sweep_args(args: &[String]) -> Result<SweepArgs, ParseError> {
    let mut sweep = SweepArgs::default();
    let mut spec = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| err(format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--spec" => spec = Some(value("--spec")?),
            "--cache-dir" => sweep.options.cache_dir = Some(value("--cache-dir")?.into()),
            "--iterations" => {
                let n: u32 = value("--iterations")?
                    .parse()
                    .map_err(|_| err("bad --iterations"))?;
                if n == 0 {
                    return Err(err("--iterations must be ≥ 1"));
                }
                sweep.options.iterations = Some(n);
            }
            "--jobs" => {
                let n: usize = value("--jobs")?.parse().map_err(|_| err("bad --jobs"))?;
                if n == 0 {
                    return Err(err("--jobs must be ≥ 1"));
                }
                sweep.options.jobs = Some(n);
            }
            "--out" => sweep.out = Some(value("--out")?),
            "--json" => sweep.json = true,
            other => return Err(err(format!("unknown sweep flag '{other}'"))),
        }
    }
    sweep.spec = spec.ok_or_else(|| err("--spec is required"))?;
    Ok(sweep)
}

/// Parses `lint [--root DIR] [--allow FILE] [--json] [--fixtures]`.
fn parse_lint_args(args: &[String]) -> Result<LintArgs, ParseError> {
    let mut lint = LintArgs::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| err(format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--root" => lint.root = Some(value("--root")?),
            "--allow" => lint.allow = Some(value("--allow")?),
            "--json" => lint.json = true,
            "--fixtures" => lint.fixtures = true,
            other => return Err(err(format!("unknown lint flag '{other}'"))),
        }
    }
    Ok(lint)
}

/// Parses the `obs` subcommand family: `report FILE`, `top FILE [--by
/// FIELD] [-n N]`, `diff A B`. Which `--by` fields exist depends on the
/// file, so `top` checks the field when it loads it.
fn parse_obs_args(args: &[String]) -> Result<ObsCmd, ParseError> {
    let Some(sub) = args.first() else {
        return Err(err("obs needs a subcommand (report|top|diff)"));
    };
    match sub.as_str() {
        "report" => {
            let [path] = &args[1..] else {
                return Err(err("usage: obs report FILE"));
            };
            Ok(ObsCmd::Report { path: path.clone() })
        }
        "top" => {
            let mut path = None;
            let mut by = "duration".to_string();
            let mut n = 10usize;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                let mut value = |name: &str| {
                    it.next()
                        .cloned()
                        .ok_or_else(|| err(format!("{name} needs a value")))
                };
                match a.as_str() {
                    "--by" => by = value("--by")?,
                    "-n" | "--count" => {
                        n = value("-n")?.parse().map_err(|_| err("bad -n"))?;
                    }
                    flag if flag.starts_with('-') => {
                        return Err(err(format!("unknown obs top flag '{flag}'")));
                    }
                    p if path.is_none() => path = Some(p.to_string()),
                    extra => return Err(err(format!("unexpected argument '{extra}'"))),
                }
            }
            if n == 0 {
                return Err(err("-n must be ≥ 1"));
            }
            Ok(ObsCmd::Top {
                path: path.ok_or_else(|| err("usage: obs top FILE [--by FIELD] [-n N]"))?,
                by,
                n,
            })
        }
        "diff" => {
            let [a, b] = &args[1..] else {
                return Err(err("usage: obs diff A B"));
            };
            Ok(ObsCmd::Diff {
                a: a.clone(),
                b: b.clone(),
            })
        }
        other => Err(err(format!(
            "unknown obs subcommand '{other}' (report|top|diff)"
        ))),
    }
}

#[derive(Serialize)]
struct CompareOut {
    machine: String,
    iterations: u32,
    default_s_per_iter: f64,
    parallel_s_per_iter: f64,
    improvement_pct: f64,
    mpi_wait_improvement_pct: f64,
    hops_reduction_pct: f64,
    io_improvement_pct: f64,
}

/// Runs a parsed command, writing human or JSON output to `out`.
pub fn run(cmd: Command, out: &mut dyn std::io::Write) -> Result<(), Box<dyn std::error::Error>> {
    match cmd {
        Command::Help => {
            writeln!(out, "{}", usage())?;
        }
        Command::Machines => {
            writeln!(out, "machine presets (FAMILY:CORES):")?;
            for p in &vocab::MACHINE_PRESETS {
                writeln!(out, "  {:<14} {}", p.range(), p.about)?;
            }
        }
        Command::Plan(a) => {
            let plan = a
                .scenario
                .planner()
                .plan(&a.scenario.parent, &a.scenario.nests)?;
            if a.json {
                // The same bytes serve's `plan` result and sweep's disk
                // entries carry.
                writeln!(out, "{}", nestwx_serve::render_plan(&a.scenario, &plan)?)?;
            } else {
                writeln!(
                    out,
                    "machine: {} ({} ranks as {}x{})",
                    plan.machine.name,
                    plan.machine.ranks(),
                    plan.grid.px,
                    plan.grid.py
                )?;
                writeln!(out, "predicted time shares: {:?}", plan.predicted_ratios)?;
                for p in &plan.partitions {
                    writeln!(
                        out,
                        "  nest {}: {}x{} ranks at ({},{})  [{} ranks]",
                        p.domain,
                        p.rect.w,
                        p.rect.h,
                        p.rect.x0,
                        p.rect.y0,
                        p.rect.area()
                    )?;
                }
            }
        }
        Command::Obs(c) => match c {
            ObsCmd::Report { path } => {
                let v = obs::load_summary(&path)?;
                obs::report(&v, out)?;
            }
            ObsCmd::Top { path, by, n } => {
                let v = obs::load_summary(&path)?;
                obs::top(&v, &by, n, out)?;
            }
            ObsCmd::Diff { a, b } => {
                let va = obs::load_summary(&a)?;
                let vb = obs::load_summary(&b)?;
                writeln!(out, "diff {a} -> {b}")?;
                obs::diff(&va, &vb, out)?;
            }
        },
        Command::Serve(cfg) => {
            let handle = nestwx_serve::spawn(cfg)?;
            writeln!(out, "listening on {}", handle.addr())?;
            out.flush()?;
            // Blocks until a client sends `shutdown`; then every thread is
            // joined and the drain report says whether anything leaked.
            let report = handle.wait();
            writeln!(out, "{}", serde_json::to_string(&report)?)?;
            if !report.clean() {
                return Err(format!("unclean drain: {report:?}").into());
            }
        }
        Command::Sweep(a) => {
            let text = std::fs::read_to_string(&a.spec)
                .map_err(|e| format!("cannot read spec '{}': {e}", a.spec))?;
            let spec = nestwx_sweep::SweepSpec::parse(&text)?;
            let report = nestwx_sweep::run_sweep(&spec, &a.options)?;
            let envelope = nestwx_sweep::to_json(&report);
            if let Some(path) = &a.out {
                std::fs::write(path, &envelope)
                    .map_err(|e| format!("cannot write '{path}': {e}"))?;
            }
            if a.json {
                writeln!(out, "{envelope}")?;
            } else {
                writeln!(
                    out,
                    "swept {} scenarios ({} expanded, {} duplicate) in {:.2}s with {} jobs",
                    report.unique,
                    report.expanded,
                    report.duplicates,
                    report.elapsed_seconds,
                    report.jobs
                )?;
                writeln!(
                    out,
                    "  computed {}  disk hits {}  errors {}  plans digest {}",
                    report.computed, report.disk_hits, report.errors, report.plans_digest
                )?;
                if let Some(d) = &report.disk {
                    writeln!(
                        out,
                        "  disk cache: {} hits, {} misses, {} writes, {} corrupt",
                        d.hits, d.misses, d.writes, d.corrupt
                    )?;
                }
                writeln!(out)?;
                writeln!(out, "pareto front (ranks vs s/iter):")?;
                for p in &report.pareto {
                    writeln!(
                        out,
                        "  {:>7} ranks  {:>9.4} s/iter  {} {}/{}/{}  {}",
                        p.ranks,
                        p.planned_s_per_iter,
                        p.machine,
                        p.strategy,
                        p.alloc,
                        p.mapping,
                        p.region
                    )?;
                }
                writeln!(out)?;
                writeln!(out, "winner per region:")?;
                for w in &report.winners {
                    writeln!(
                        out,
                        "  {}  ->  {}:{} {}/{}/{}  {:.4} s/iter  ({} scenarios, worst +{:.1}%)",
                        w.region,
                        w.machine,
                        w.ranks,
                        w.strategy,
                        w.alloc,
                        w.mapping,
                        w.planned_s_per_iter,
                        w.scenarios,
                        w.spread_pct
                    )?;
                }
                for row in report.scenarios.iter().filter(|r| r.error.is_some()) {
                    writeln!(
                        out,
                        "  error: {} ({})",
                        row.error.as_deref().unwrap_or(""),
                        row.key
                    )?;
                }
            }
            if report.errors > 0 {
                return Err(format!("{} scenario(s) failed to plan", report.errors).into());
            }
        }
        Command::Fleet(a) => {
            let (parent, nests) = (&a.scenario.parent, &a.scenario.nests);
            let plan = a.scenario.planner().plan(parent, nests)?;
            let partitions: Vec<(usize, u64)> = plan
                .partitions
                .iter()
                .map(|p| (p.domain, p.rect.area()))
                .collect();
            let ranks = plan.machine.ranks() as u64;
            let mut cfg = nestwx_fleet::FleetConfig::from_env();
            if let Some(w) = a.workers {
                cfg.workers = w as usize;
            }
            let (listener, addr) = nestwx_fleet::bind_listener("127.0.0.1:0")
                .map_err(|e| format!("fleet: cannot bind a loopback listener: {e}"))?;
            // Real worker processes: each child is this same binary
            // re-invoked as `nestwx fleet-worker`, connecting back over
            // loopback.
            let exe = std::env::current_exe()
                .map_err(|e| format!("fleet: cannot locate own executable: {e}"))?;
            let mut children = Vec::with_capacity(cfg.workers);
            for _ in 0..cfg.workers {
                let child = std::process::Command::new(&exe)
                    .args(["fleet-worker", "--connect", &addr])
                    .stdin(std::process::Stdio::null())
                    .spawn()
                    .map_err(|e| format!("fleet: cannot spawn worker: {e}"))?;
                children.push(child);
            }
            let result = nestwx_fleet::accept_n(
                &listener,
                cfg.workers,
                nestwx_obs::clock::deadline_after(cfg.connect_timeout),
            )
            .map_err(|e| nestwx_fleet::FleetError::Handshake(e.to_string()))
            .and_then(|conns| {
                nestwx_fleet::run_coordinator(
                    parent,
                    nests,
                    a.iterations as u64,
                    ranks,
                    &partitions,
                    conns,
                    &cfg,
                )
            });
            // Reap every child: on success each worker exits after its
            // Done; on failure the coordinator has already aborted the
            // fleet, so the kill is only a backstop for a wedged child.
            for mut child in children {
                if result.is_err() {
                    let _ = child.kill();
                }
                let _ = child.wait();
            }
            let fleet = result?;
            if a.check {
                let reference = nestwx_fleet::execute_in_process(
                    parent,
                    nests,
                    a.iterations as u64,
                    ranks,
                    &partitions,
                    &nestwx_fleet::FleetConfig { workers: 1, ..cfg },
                )?;
                if reference.report != fleet.report {
                    return Err(format!(
                        "fleet check FAILED: {}-worker digest {} != in-process digest {}",
                        fleet.summary.workers, fleet.report.digest, reference.report.digest
                    )
                    .into());
                }
            }
            if let Some(path) = &a.obs_out {
                std::fs::write(path, fleet.summary.to_json())
                    .map_err(|e| format!("cannot write '{path}': {e}"))?;
            }
            if a.json {
                writeln!(out, "{}", fleet.summary.to_json())?;
            } else {
                let s = &fleet.summary;
                writeln!(
                    out,
                    "fleet: {} workers x {} iterations on {} ({} ranks)",
                    s.workers, s.iterations, plan.machine.name, ranks
                )?;
                writeln!(out, "  digest {}  parent {}", s.digest, s.parent_digest)?;
                writeln!(
                    out,
                    "  logical halo bytes {}  socket bytes {} in / {} out  elapsed {:.3}s",
                    s.logical_halo_bytes,
                    s.coordinator.bytes_in,
                    s.coordinator.bytes_out,
                    s.elapsed_s
                )?;
                for w in &s.worker_rows {
                    writeln!(
                        out,
                        "  worker {}: nests {:?}  compute {:.3}s  wait {:.3}s  frames {} in / {} out",
                        w.slot, w.nests, w.obs.compute_s, w.obs.wait_s, w.obs.frames_in, w.obs.frames_out
                    )?;
                }
                if a.check {
                    writeln!(
                        out,
                        "  check: report bitwise-identical to the in-process run"
                    )?;
                }
            }
        }
        Command::FleetWorker(a) => {
            let cfg = nestwx_fleet::FleetConfig::from_env();
            let mut conn = nestwx_fleet::connect(
                &a.connect,
                nestwx_obs::clock::deadline_after(cfg.connect_timeout),
            )
            .map_err(|e| {
                format!(
                    "fleet-worker: cannot reach coordinator at {}: {e}",
                    a.connect
                )
            })?;
            nestwx_fleet::run_worker(&mut conn, cfg.frame_timeout)?;
        }
        Command::Lint(a) => {
            let root = std::path::PathBuf::from(a.root.as_deref().unwrap_or("."));
            let cfg = if a.fixtures {
                nestwx_analyze::LintConfig::fixtures(root.clone())
            } else {
                nestwx_analyze::LintConfig::workspace_default(root.clone())
            };
            let allow_path = match &a.allow {
                Some(p) => std::path::PathBuf::from(p),
                None => root.join("lint.allow"),
            };
            let report = nestwx_analyze::run_lint_with_allow_file(&cfg, &allow_path)?;
            if a.json {
                writeln!(out, "{}", serde_json::to_string_pretty(&report)?)?;
            } else {
                write!(out, "{}", report.render())?;
            }
            if !report.ok() {
                return Err(format!(
                    "lint failed: {} finding(s), {} allowlist error(s)",
                    report.findings.len(),
                    report.allow_errors.len()
                )
                .into());
            }
        }
        Command::Compare(a) => {
            let planner = a.scenario.planner();
            let (parent, nests) = (&a.scenario.parent, &a.scenario.nests);
            // With --obs-out, run the observed variant (recording is
            // passive, so the comparison itself is bitwise identical) and
            // write each run's summary JSON next to the given prefix.
            let cmp = if let Some(prefix) = &a.obs_out {
                let obs_cmp = compare_strategies_observed(&planner, parent, nests, a.iterations)?;
                std::fs::write(
                    format!("{prefix}.default.json"),
                    obs_cmp.default_rec.summary_json(),
                )?;
                std::fs::write(
                    format!("{prefix}.planned.json"),
                    obs_cmp.planned_rec.summary_json(),
                )?;
                obs_cmp.comparison
            } else {
                compare_strategies(&planner, parent, nests, a.iterations)?
            };
            if a.json {
                let o = CompareOut {
                    machine: cmp.default_run.machine.clone(),
                    iterations: a.iterations,
                    default_s_per_iter: cmp.default_run.per_iteration(),
                    parallel_s_per_iter: cmp.planned_run.per_iteration(),
                    improvement_pct: cmp.improvement_pct(),
                    mpi_wait_improvement_pct: cmp.mpi_wait_improvement_pct(),
                    hops_reduction_pct: cmp.hops_reduction_pct(),
                    io_improvement_pct: cmp.io_improvement_pct(),
                };
                writeln!(out, "{}", serde_json::to_string_pretty(&o)?)?;
            } else {
                writeln!(
                    out,
                    "default (sequential) : {:.3} s/iteration",
                    cmp.default_run.per_iteration()
                )?;
                writeln!(
                    out,
                    "divide-and-conquer   : {:.3} s/iteration",
                    cmp.planned_run.per_iteration()
                )?;
                writeln!(
                    out,
                    "improvement          : {:+.2} %",
                    cmp.improvement_pct()
                )?;
                writeln!(
                    out,
                    "MPI_Wait improvement : {:+.2} %",
                    cmp.mpi_wait_improvement_pct()
                )?;
                writeln!(
                    out,
                    "avg hops reduction   : {:+.2} %",
                    cmp.hops_reduction_pct()
                )?;
                if cmp.default_run.io_time > 0.0 {
                    writeln!(
                        out,
                        "I/O improvement      : {:+.2} %",
                        cmp.io_improvement_pct()
                    )?;
                }
            }
        }
    }
    Ok(())
}

/// The usage string.
pub fn usage() -> String {
    format!(
        "nestwx — divide-and-conquer scheduling for multi-nest weather simulations

USAGE:
  nestwx machines
  nestwx plan    --machine bgl:1024 --parent 286x307@24 --nest 259x229r3@10,12 [...]
  nestwx compare --machine bgp:4096 --parent 286x307@24 --nest 394x418r3@10,10 [...]
  nestwx sweep   --spec FILE [--cache-dir DIR] [--iterations N] [--jobs N]
                 [--out FILE] [--json]
  nestwx fleet   --machine bgl:64 --parent 96x84@24 --nest 40x40r3@6,6 [...]
                 [--workers N] [--iterations N] [--json] [--obs-out FILE]
                 [--check]
  nestwx fleet-worker --connect HOST:PORT
  nestwx obs report FILE
  nestwx obs top  FILE [--by FIELD] [-n N]
                       (any numeric record field, e.g. halo_wait or wait_us;
                        default duration = end - start)
  nestwx obs diff A B
  nestwx serve   [--addr 127.0.0.1:7878] [--workers N] [--queue N] [--cache N]
                 [--max-conns N] [--readers N] [--deadline-ms MS] [--rate N]
                 [--burst N] [--client-cap N] [--predictors N] [--idle-ms MS]
                 [--lifetime-ms MS] [--cache-dir DIR] [--trace 0|1]
                 [--trace-ring N] [--trace-slow-us US]
  nestwx lint    [--root DIR] [--allow FILE] [--json] [--fixtures]

FLAGS:
  --machine FAMILY:CORES   {machines} (power of two)
  --parent  NXxNY@DXKM     e.g. 286x307@24
  --nest    NXxNYrR@OX,OY[:in=K]
                           repeatable; ':in=K' makes it a second-level nest
                           inside nest K (0-based)
  --iterations N           compare and fleet (default 5)
  --mapping  oblivious|txyz|partition|multilevel   (default partition)
  --alloc    equal|naive|huffman                   (default huffman)
  --io       none|pnetcdf:N|split:N                history output every N iters
                           (the token grammar is DESIGN.md's \"Scenario
                           vocabulary\" table, shared with sweep and serve)
  --json                   machine-readable output
  --obs-out PREFIX         compare: record both runs and write
                           PREFIX.default.json / PREFIX.planned.json run
                           summaries for 'nestwx obs' (fleet: see FLEET)

SWEEP:
  Expands a declarative JSON scenario-space spec (lists/ranges over
  machines, parents, nest sets, strategies, allocs, mappings, io),
  dedups by canonical scenario, and plans+simulates every unique
  scenario on a work-stealing thread pool. With --cache-dir results
  persist to a disk cache shared with 'nestwx serve --cache-dir' — a
  warm sweep pre-heats the service, and re-running a sweep replays from
  disk. --jobs defaults to the available parallelism. Output: Pareto
  front (ranks vs s/iter), winner-per-region table, and a versioned
  summary envelope ('nestwx obs report' understands it; --out writes it
  to a file).

FLEET:
  Runs the scenario as a real multi-process fleet: the coordinator plans
  the scenario, partitions the level-1 nests across N worker processes
  rank-proportionally, spawns each worker as 'nestwx fleet-worker
  --connect HOST:PORT', and drives the coupled parent<->nest iteration
  with boundary rings and feedback cells crossing process boundaries as
  length-prefixed binary frames. Every f64 crosses as its exact bit
  pattern, so the merged report is bitwise identical to the in-process
  run at any worker count; --check re-runs in-process and fails loudly
  on any divergence. --obs-out writes the 'nestwx-obs-fleet-summary'
  envelope (socket traffic, per-worker stall attribution) that
  'nestwx obs report' renders. --workers defaults to 2; handshake and
  mid-run silence budgets come from NESTWX_FLEET_CONNECT_TIMEOUT_MS /
  NESTWX_FLEET_FRAME_TIMEOUT_MS, and a frame body is capped at 16 MiB.
  A lost or silent worker aborts the whole fleet with a typed
  worker_lost error — no partial reports.

SERVE:
  Runs the planning daemon: newline-delimited JSON requests over TCP
  (predict|plan|compare|execute|stats|trace|shutdown), served by a nonblocking
  event loop with plan caching, one shared predictor fit per machine,
  per-request deadlines, per-client token-bucket rate limits and live
  latency metrics. Every setting is one flag (README \"`nestwx serve`
  flags\"): deadline/rate/idle/lifetime default to 0 = off, and an
  unset --cache-dir keeps the plan cache in memory only. With a
  cache dir, plans persist across restarts and are shared with
  'nestwx sweep'. An 'execute' request runs the planned scenario as an
  in-process socket fleet (see FLEET) and returns the merged report plus
  the fleet envelope; execute responses are never cached. The process
  exits (code 0) after a clean drain once a client sends 'shutdown'.

  A flight recorder (--trace, default 1 = on) stamps every request's
  lifecycle (parse/queue/work/write) into bounded per-reader span rings
  (--trace-ring spans per reader) with a slow-request log above
  --trace-slow-us (0 = off). The 'trace' endpoint drains the rings as a
  versioned 'nestwx-obs-serve-summary' envelope that
  'nestwx obs report|top|diff' renders; 'stats' returns the
  unified 'nestwx-serve-stats' v3 envelope. 'plan'/'compare' requests
  with \"explain\":true append per-nest rank shares, predicted s/iter
  and a hop histogram; responses without it stay byte-identical to
  the cached plan bytes whether recording is on or off.

LINT:
  Repo-specific static analysis: determinism rules (NW-D001..D006 — no
  unordered iteration, wall-clock reads, entropy or ambient filesystem
  paths on planner/replay paths) and robustness rules (NW-S001..S007 —
  no panicking calls on the request path, a single poisoning policy, no
  blocking syscalls in lock-holding modules, socket I/O confined to the
  serve readiness loop and the fleet transport module, deadlines and
  span timestamps through the clock shim). Deny by default; suppress
  diagnostics via 'RULE FILE:LINE[:COL] -- reason' lines in lint.allow
  (each entry must match exactly one diagnostic, so stale entries fail
  the run). Exits non-zero on any finding or allowlist error. See
  DESIGN.md's invariant catalog for the full rule list.",
        machines = vocab::MACHINE_PRESETS
            .each_ref()
            .map(vocab::MachinePreset::range)
            .join(" | ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nestwx_core::{AllocPolicy, MappingKind};
    use nestwx_netsim::IoMode;

    /// `plan` argv around one overridden scenario flag.
    fn plan_with(flag: &str, value: &str) -> Result<RunArgs, ParseError> {
        let mut args = vec!["plan".to_string()];
        for (f, default) in [
            ("--machine", "bgl:64"),
            ("--parent", "286x307@24"),
            ("--nest", "150x150r3@10,12"),
        ] {
            args.push(f.to_string());
            args.push(if f == flag { value } else { default }.to_string());
        }
        if !args.iter().any(|a| a == flag) {
            args.extend([flag.to_string(), value.to_string()]);
        }
        match parse_args(&args)? {
            Command::Plan(a) => Ok(a),
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parse_machine_specs() {
        let a = plan_with("--machine", "bgl:1024").unwrap();
        assert_eq!(a.scenario.machine, nestwx_netsim::Machine::bgl(1024));
        let a = plan_with("--machine", "bgp:4096").unwrap();
        assert_eq!(a.scenario.machine.ranks(), 4096);
        // Unknown family, not a power of two, too small, no core count,
        // and above the shared bound (used to build a 2^26-core torus).
        for bad in ["bgq:1024", "bgl:1000", "bgl:8", "bgl", "bgl:67108864"] {
            assert!(plan_with("--machine", bad).is_err(), "accepted '{bad}'");
        }
    }

    #[test]
    fn parse_parent_spec() {
        let d = plan_with("--parent", "286x307@24").unwrap().scenario.parent;
        assert_eq!((d.nx, d.ny), (286, 307));
        assert!((d.dx_km - 24.0).abs() < 1e-12);
        for bad in ["286x307", "286x307@-2"] {
            assert!(plan_with("--parent", bad).is_err(), "accepted '{bad}'");
        }
        // The resolution must be finite and positive (`@nan` used to plan).
        for dx in ["nan", "inf", "-1", "0"] {
            let bad = format!("286x307@{dx}");
            assert!(plan_with("--parent", &bad).is_err(), "accepted '{bad}'");
        }
    }

    #[test]
    fn parse_nest_specs() {
        let n = plan_with("--nest", "259x229r3@10,12")
            .unwrap()
            .scenario
            .nests;
        assert_eq!(n, [nestwx_grid::NestSpec::new(259, 229, 3, (10, 12))]);
        let c = plan_with("--nest", "90x90r3@5,6:in=0")
            .unwrap()
            .scenario
            .nests;
        assert_eq!(c[0].parent_nest, Some(0));
        // Missing rR, bad offset.
        for bad in ["259x229@10,12", "259x229r3@10"] {
            assert!(plan_with("--nest", bad).is_err(), "accepted '{bad}'");
        }
    }

    #[test]
    fn io_none_is_the_default_spelled_out() {
        let none = plan_with("--io", "none").unwrap();
        assert_eq!(none, plan_with("--mapping", "partition").unwrap());
        assert_eq!(none.scenario.output_interval, None);
        assert!(plan_with("--io", "pnetcdf:0").is_err());
        assert!(plan_with("--io", "pnetcdf").is_err());
    }

    #[test]
    fn parse_full_compare_command() {
        let args: Vec<String> = [
            "compare",
            "--machine",
            "bgl:64",
            "--parent",
            "286x307@24",
            "--nest",
            "200x200r3@10,12",
            "--iterations",
            "2",
            "--mapping",
            "multilevel",
            "--alloc",
            "naive",
            "--io",
            "split:2",
            "--json",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let Command::Compare(a) = parse_args(&args).unwrap() else {
            panic!("wrong command")
        };
        assert_eq!(a.iterations, 2);
        assert_eq!(a.scenario.mapping, MappingKind::MultiLevel);
        assert_eq!(a.scenario.alloc, AllocPolicy::NaiveProportional);
        assert_eq!(a.scenario.io_mode, IoMode::SplitFiles);
        assert_eq!(a.scenario.output_interval, Some(2));
        assert!(a.json);
    }

    #[test]
    fn parse_rejects_missing_required() {
        let args: Vec<String> = ["plan", "--parent", "100x100@24"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse_args(&args).is_err());
        let args: Vec<String> = ["plan", "--machine", "bgl:64", "--parent", "100x100@24"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse_args(&args).is_err()); // no nests
    }

    #[test]
    fn run_plan_produces_output() {
        let args: Vec<String> = [
            "plan",
            "--machine",
            "bgl:64",
            "--parent",
            "286x307@24",
            "--nest",
            "200x200r3@10,12",
            "--nest",
            "150x160r3@80,80",
            "--alloc",
            "naive",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let cmd = parse_args(&args).unwrap();
        let mut buf = Vec::new();
        run(cmd, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("nest 0"));
        assert!(text.contains("nest 1"));
    }

    #[test]
    fn plan_json_is_the_served_plan_bytes() {
        let args = argv(&[
            "plan",
            "--machine",
            "bgl:64",
            "--parent",
            "286x307@24",
            "--nest",
            "200x200r3@10,12",
            "--nest",
            "150x160r3@80,80",
            "--json",
        ]);
        let mut buf = Vec::new();
        run(parse_args(&args).unwrap(), &mut buf).unwrap();
        let Command::Plan(a) = parse_args(&args).unwrap() else {
            panic!("wrong command")
        };
        let plan = a
            .scenario
            .planner()
            .plan(&a.scenario.parent, &a.scenario.nests)
            .unwrap();
        let expected = nestwx_serve::render_plan(&a.scenario, &plan).unwrap() + "\n";
        assert_eq!(String::from_utf8(buf).unwrap(), expected);
    }

    #[test]
    fn run_compare_json_is_valid() {
        let args: Vec<String> = [
            "compare",
            "--machine",
            "bgl:32",
            "--parent",
            "150x150@24",
            "--nest",
            "100x100r3@5,5",
            "--iterations",
            "1",
            "--alloc",
            "naive",
            "--json",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let cmd = parse_args(&args).unwrap();
        let mut buf = Vec::new();
        run(cmd, &mut buf).unwrap();
        let v: serde_json::Value = serde_json::from_slice(&buf).unwrap();
        assert!(v["default_s_per_iter"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn machines_and_help() {
        let mut buf = Vec::new();
        run(Command::Machines, &mut buf).unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("bgl"));
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_obs_commands() {
        assert_eq!(
            parse_args(&argv(&["obs", "report", "run.json"])).unwrap(),
            Command::Obs(ObsCmd::Report {
                path: "run.json".into()
            })
        );
        assert_eq!(
            parse_args(&argv(&[
                "obs",
                "top",
                "run.json",
                "--by",
                "halo_wait",
                "-n",
                "3"
            ]))
            .unwrap(),
            Command::Obs(ObsCmd::Top {
                path: "run.json".into(),
                by: "halo_wait".into(),
                n: 3
            })
        );
        assert_eq!(
            parse_args(&argv(&["obs", "diff", "a.json", "b.json"])).unwrap(),
            Command::Obs(ObsCmd::Diff {
                a: "a.json".into(),
                b: "b.json".into()
            })
        );
        assert!(parse_args(&argv(&["obs"])).is_err());
        assert!(parse_args(&argv(&["obs", "report"])).is_err());
        // `--by` names a record field of the file, so it is checked at
        // load time (see `obs::top`), not here.
        assert!(parse_args(&argv(&["obs", "top", "run.json", "--by", "bogus"])).is_ok());
        assert!(parse_args(&argv(&["obs", "top", "run.json", "-n", "0"])).is_err());
        assert!(parse_args(&argv(&["obs", "diff", "a.json"])).is_err());
        // --obs-out and --iterations are compare/fleet-only, and compare
        // has no --trace.
        for extra in [
            &["plan", "--obs-out", "x"][..],
            &["plan", "--iterations", "3"],
            &["compare", "--trace"],
        ] {
            let mut args = vec![
                extra[0],
                "--machine",
                "bgl:64",
                "--parent",
                "286x307@24",
                "--nest",
                "200x200r3@10,12",
            ];
            args.extend_from_slice(&extra[1..]);
            assert!(parse_args(&argv(&args)).is_err(), "{args:?}");
        }
    }

    #[test]
    fn parse_serve_commands() {
        // Bare `serve` is every built-in default on the default address.
        assert_eq!(
            parse_args(&argv(&["serve"])).unwrap(),
            Command::Serve(ServeConfig::new("127.0.0.1:7878"))
        );
        let Command::Serve(cfg) = parse_args(&argv(&[
            "serve",
            "--addr",
            "0.0.0.0:9999",
            "--workers",
            "8",
            "--queue",
            "32",
            "--cache",
            "512",
            "--max-conns",
            "16",
            "--readers",
            "2",
            "--deadline-ms",
            "250",
            "--rate",
            "100",
            "--burst",
            "20",
            "--client-cap",
            "4096",
            "--predictors",
            "32",
            "--idle-ms",
            "0",
            "--lifetime-ms",
            "60000",
            "--cache-dir",
            "/tmp/plans",
            "--trace",
            "0",
            "--trace-ring",
            "128",
            "--trace-slow-us",
            "5000",
        ]))
        .unwrap() else {
            panic!("wrong command")
        };
        assert_eq!(cfg.addr, "0.0.0.0:9999");
        assert_eq!(cfg.workers, 8);
        assert_eq!(cfg.queue_depth, 32);
        assert_eq!(cfg.cache_capacity, 512);
        assert_eq!(cfg.max_conns, 16);
        assert_eq!(cfg.readers, 2);
        assert_eq!(cfg.deadline_ms, 250);
        assert_eq!(cfg.rate, 100);
        assert_eq!(cfg.burst, 20);
        assert_eq!(cfg.client_cap, 4096);
        assert_eq!(cfg.predictors, 32);
        assert_eq!(cfg.idle_ms, 0);
        assert_eq!(cfg.lifetime_ms, 60000);
        assert_eq!(
            cfg.cache_dir.as_deref(),
            Some(std::path::Path::new("/tmp/plans"))
        );
        assert!(!cfg.trace);
        assert_eq!(cfg.trace_ring, 128);
        assert_eq!(cfg.trace_slow_us, 5000);
        let Command::Serve(on) = parse_args(&argv(&["serve", "--trace", "1"])).unwrap() else {
            panic!("wrong command")
        };
        assert!(on.trace);
        assert!(parse_args(&argv(&["serve", "--workers", "0"])).is_err());
        assert!(parse_args(&argv(&["serve", "--queue"])).is_err());
        assert!(parse_args(&argv(&["serve", "--bogus"])).is_err());
        assert!(parse_args(&argv(&["serve", "--readers", "0"])).is_err());
        assert!(parse_args(&argv(&["serve", "--deadline-ms", "-1"])).is_err());
        assert!(parse_args(&argv(&["serve", "--rate"])).is_err());
        assert!(parse_args(&argv(&["serve", "--trace-ring", "0"])).is_err());
        assert!(parse_args(&argv(&["serve", "--trace", "2"])).is_err());
        assert!(parse_args(&argv(&["serve", "--trace-slow-us", "-1"])).is_err());
    }

    #[test]
    fn parse_sweep_commands() {
        let Command::Sweep(a) = parse_args(&argv(&[
            "sweep",
            "--spec",
            "space.json",
            "--cache-dir",
            "/tmp/cache",
            "--iterations",
            "4",
            "--jobs",
            "3",
            "--out",
            "summary.json",
            "--json",
        ]))
        .unwrap() else {
            panic!("wrong command")
        };
        assert_eq!(a.spec, "space.json");
        assert_eq!(
            a.options,
            SweepOptions {
                cache_dir: Some("/tmp/cache".into()),
                iterations: Some(4),
                jobs: Some(3),
            }
        );
        assert_eq!(a.out.as_deref(), Some("summary.json"));
        assert!(a.json);
        assert!(parse_args(&argv(&["sweep"])).is_err()); // --spec required
        assert!(parse_args(&argv(&["sweep", "--spec"])).is_err());
        assert!(parse_args(&argv(&["sweep", "--spec", "s.json", "--jobs", "0"])).is_err());
        assert!(parse_args(&argv(&["sweep", "--spec", "s.json", "--iterations", "0"])).is_err());
        assert!(parse_args(&argv(&["sweep", "--spec", "s.json", "--bogus"])).is_err());
    }

    #[test]
    fn run_sweep_end_to_end_with_cache_and_obs_report() {
        use nestwx_serve::keys::{versioned_key, KeyKind, PLAN_FORMAT_VERSION};
        // The committed example spec: 96 combinations that dedup to 64
        // unique scenarios. A cold pass computes every one and persists
        // its plan and sweep entries; a warm pass under another job count
        // answers every one from disk with the same plan set.
        let spec_path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/sweep_smoke.json"
        );
        let dir = nestwx_core::TempDir::new("cli-sweep").unwrap();
        let cache_dir = dir.path().join("cache");
        let sweep = |jobs: usize, out: &str| {
            let out_path = dir.path().join(out).to_str().unwrap().to_string();
            let args = SweepArgs {
                spec: spec_path.into(),
                options: SweepOptions {
                    cache_dir: Some(cache_dir.clone()),
                    iterations: None,
                    jobs: Some(jobs),
                },
                out: Some(out_path.clone()),
                json: false,
            };
            let mut buf = Vec::new();
            run(Command::Sweep(args), &mut buf).unwrap();
            let text = String::from_utf8(buf).unwrap();
            (text, obs::load_summary(&out_path).unwrap(), out_path)
        };
        let fields = [
            "expanded",
            "unique",
            "duplicates",
            "computed",
            "disk_hits",
            "errors",
        ];
        let counts = |v: &serde_json::Value| fields.map(|f| v[f].as_u64().unwrap());
        let disk_fields = ["hits", "misses", "writes", "corrupt"];
        let disk = |v: &serde_json::Value| disk_fields.map(|f| v["disk"][f].as_u64().unwrap());

        let (text, cold, _) = sweep(2, "cold.json");
        assert!(text.contains("pareto front"), "{text}");
        assert!(text.contains("winner per region"), "{text}");
        assert_eq!(counts(&cold), [96, 64, 32, 64, 0, 0]);
        assert_eq!(disk(&cold), [0, 64, 128, 0]);

        // Format-version guard: every entry the cold pass wrote is found
        // under the current version and missed cleanly (no corruption)
        // under the next one, for both key kinds the sweep persists.
        let text = std::fs::read_to_string(spec_path).unwrap();
        let spec = nestwx_sweep::SweepSpec::parse(&text).unwrap();
        let store = nestwx_serve::disk::DiskCache::open(&cache_dir).unwrap();
        for scenario in &spec.expand().scenarios {
            for kind in [KeyKind::Plan, KeyKind::Sweep(spec.iterations)] {
                let current = versioned_key(PLAN_FORMAT_VERSION, scenario, kind);
                let bumped = versioned_key(PLAN_FORMAT_VERSION + 1, scenario, kind);
                assert!(store.get(&current).is_some(), "{kind:?} entry missing");
                assert!(
                    store.get(&bumped).is_none(),
                    "{kind:?} entry survived a bump"
                );
            }
        }
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.corrupt), (128, 128, 0));

        let (_, warm, warm_path) = sweep(7, "warm.json");
        assert_eq!(counts(&warm), [96, 64, 32, 0, 64, 0]);
        assert_eq!(disk(&warm), [64, 0, 0, 0]);
        assert_eq!(warm["plans_digest"], cold["plans_digest"]);

        // The --out envelope renders through `nestwx obs report`.
        assert_eq!(warm["schema"].as_str(), Some(nestwx_obs::SWEEP_SCHEMA));
        let mut buf = Vec::new();
        run(Command::Obs(ObsCmd::Report { path: warm_path }), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("nestwx-obs-sweep-summary v1\n"), "{text}");
        assert!(text.contains("  winners ("), "{text}");
        assert!(text.contains("  pareto ("), "{text}");
        assert!(text.contains("disk: hits=64  misses=0"), "{text}");
    }

    #[test]
    fn parse_fleet_commands() {
        let Command::Fleet(a) = parse_args(&argv(&[
            "fleet",
            "--machine",
            "bgl:64",
            "--parent",
            "96x84@24",
            "--nest",
            "40x40r3@6,6",
            "--workers",
            "4",
            "--iterations",
            "3",
            "--check",
            "--json",
            "--obs-out",
            "fleet.json",
        ]))
        .unwrap() else {
            panic!("wrong command")
        };
        assert_eq!(a.workers, Some(4));
        assert_eq!(a.iterations, 3);
        assert!(a.check);
        assert!(a.json);
        assert_eq!(a.obs_out.as_deref(), Some("fleet.json"));
        // Defaults: unset workers mean FleetConfig's 2 at run time.
        let Command::Fleet(d) = parse_args(&argv(&[
            "fleet",
            "--machine",
            "bgl:64",
            "--parent",
            "96x84@24",
            "--nest",
            "40x40r3@6,6",
        ]))
        .unwrap() else {
            panic!("wrong command")
        };
        assert_eq!(d.workers, None);
        assert_eq!(d.iterations, 5);
        assert!(!d.check);
        // Bounds and required flags.
        let base = ["fleet", "--machine", "bgl:64", "--parent", "96x84@24"];
        let with = |extra: &[&str]| {
            let mut v: Vec<&str> = base.to_vec();
            v.extend_from_slice(extra);
            parse_args(&argv(&v))
        };
        assert!(with(&["--nest", "40x40r3@6,6", "--workers", "0"]).is_err());
        assert!(with(&["--nest", "40x40r3@6,6", "--workers", "17"]).is_err());
        assert!(with(&["--nest", "40x40r3@6,6", "--iterations", "0"]).is_err());
        assert!(with(&["--nest", "40x40r3@6,6", "--bogus"]).is_err());
        assert!(with(&[]).is_err()); // no nests
        assert!(parse_args(&argv(&["fleet", "--nest", "40x40r3@6,6"])).is_err());
        // fleet-worker needs a coordinator address.
        assert_eq!(
            parse_args(&argv(&["fleet-worker", "--connect", "127.0.0.1:9"])).unwrap(),
            Command::FleetWorker(FleetWorkerArgs {
                connect: "127.0.0.1:9".into()
            })
        );
        assert!(parse_args(&argv(&["fleet-worker"])).is_err());
        assert!(parse_args(&argv(&["fleet-worker", "--connect"])).is_err());
        assert!(parse_args(&argv(&["fleet-worker", "--bogus"])).is_err());
    }

    #[test]
    fn parse_lint_commands() {
        assert_eq!(
            parse_args(&argv(&["lint"])).unwrap(),
            Command::Lint(LintArgs::default())
        );
        assert_eq!(
            parse_args(&argv(&["lint", "--json"])).unwrap(),
            Command::Lint(LintArgs {
                json: true,
                ..LintArgs::default()
            })
        );
        assert_eq!(
            parse_args(&argv(&[
                "lint",
                "--root",
                "sub/dir",
                "--allow",
                "my.allow",
                "--fixtures"
            ]))
            .unwrap(),
            Command::Lint(LintArgs {
                root: Some("sub/dir".into()),
                allow: Some("my.allow".into()),
                json: false,
                fixtures: true,
            })
        );
        let graph = parse_args(&argv(&["lint", "--graph"])).unwrap_err();
        assert!(
            graph.to_string().contains("unknown lint flag '--graph'"),
            "{graph}"
        );
        assert!(parse_args(&argv(&["lint", "--root"])).is_err());
        assert!(parse_args(&argv(&["lint", "--bogus"])).is_err());
    }

    #[test]
    fn lint_run_reports_fixture_findings() {
        // Fixture tree: every known-bad snippet must fail the run, and the
        // JSON report must carry machine-readable rule ids.
        let fixtures = concat!(env!("CARGO_MANIFEST_DIR"), "/../analyze/tests/fixtures");
        let mut buf = Vec::new();
        let res = run(
            Command::Lint(LintArgs {
                root: Some(fixtures.into()),
                allow: None,
                json: true,
                fixtures: true,
            }),
            &mut buf,
        );
        let err = res.expect_err("fixtures must lint non-zero");
        assert!(err.to_string().contains("lint failed"), "{err}");
        let out = String::from_utf8(buf).unwrap();
        assert!(out.contains("NW-D001"), "{out}");
        assert!(out.contains("NW-S003"), "{out}");
    }

    #[test]
    fn serve_command_round_trips_a_session() {
        // End to end through `run`: spawn on an ephemeral port, drive one
        // plan request and a shutdown over the wire, then check the drain
        // report line and a clean exit.
        use std::sync::mpsc;
        let (tx, rx) = mpsc::channel();
        let server = std::thread::spawn(move || {
            let mut buf = SignallingBuf {
                inner: Vec::new(),
                tx: Some(tx),
            };
            let res = run(
                Command::Serve(ServeConfig {
                    workers: 2,
                    ..ServeConfig::new("127.0.0.1:0")
                }),
                &mut buf,
            );
            (res.is_ok(), String::from_utf8(buf.inner).unwrap())
        });
        // First output line carries the bound address.
        let addr: String = rx.recv().unwrap();
        let mut client = nestwx_serve::Client::connect(addr).unwrap();
        let resp = client
            .send_line(
                "{\"v\":1,\"id\":\"p\",\"op\":\"plan\",\"params\":{\"machine\":\"bgl:64\",\
                 \"parent\":{\"nx\":286,\"ny\":307,\"dx_km\":24.0},\
                 \"nests\":[{\"nx\":150,\"ny\":150,\"r\":3,\"ox\":10,\"oy\":12}],\
                 \"alloc\":\"naive\"}}",
            )
            .unwrap();
        assert!(resp.ok(), "plan failed: {}", resp.raw);
        let resp = client.send_line("{\"v\":1,\"op\":\"shutdown\"}").unwrap();
        assert!(resp.ok());
        let (clean, output) = server.join().unwrap();
        assert!(clean, "serve exited uncleanly: {output}");
        assert!(output.contains("\"queue_residual\":0"), "{output}");
    }

    /// Test writer that reports the bound address from the first line.
    struct SignallingBuf {
        inner: Vec<u8>,
        tx: Option<std::sync::mpsc::Sender<String>>,
    }

    impl std::io::Write for SignallingBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.inner.extend_from_slice(buf);
            if let Some(tx) = self
                .tx
                .take_if(|_| std::str::from_utf8(&self.inner).is_ok_and(|s| s.contains('\n')))
            {
                let line = String::from_utf8_lossy(&self.inner);
                let addr = line
                    .trim()
                    .strip_prefix("listening on ")
                    .unwrap_or_default()
                    .to_string();
                let _ = tx.send(addr);
            }
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn obs_out_report_reproduces_allocator_ratios() {
        // The ISSUE acceptance check: record a compare run, then verify the
        // written summary's per-nest time ratios match the ratios the
        // allocator planned with, to within rounding/model noise.
        let dir = nestwx_core::TempDir::new("cli-obs").unwrap();
        let prefix = dir.path().join("acceptance");
        let prefix = prefix.to_str().unwrap();
        let args = argv(&[
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
            "--alloc",
            "naive",
            "--obs-out",
            prefix,
        ]);
        let cmd = parse_args(&args).unwrap();
        let mut buf = Vec::new();
        run(cmd, &mut buf).unwrap();

        // What the allocator was given.
        let Command::Compare(a) = parse_args(&args).unwrap() else {
            panic!("wrong command")
        };
        let plan = a
            .scenario
            .planner()
            .plan(&a.scenario.parent, &a.scenario.nests)
            .unwrap();
        assert_eq!(plan.predicted_ratios.len(), 2);

        // The sequential default run steps each nest in turn, so its
        // recorded per-nest time split is directly comparable to the
        // ratios the allocator planned from. (The concurrent planned run
        // executes all siblings in one step; its steps carry no single
        // nest id.)
        let default_path = format!("{prefix}.default.json");
        let v = obs::load_summary(&default_path).unwrap();
        let per_nest = v["analysis"]["per_nest"].as_array().unwrap();
        assert_eq!(per_nest.len(), 2);
        for (n, predicted) in per_nest.iter().zip(&plan.predicted_ratios) {
            let recorded = n["time_ratio"].as_f64().unwrap();
            assert!(
                (recorded - predicted).abs() < 0.03,
                "nest ratio {recorded:.4} vs planned {predicted:.4}"
            );
        }

        // The report renders and carries the analysis blocks.
        let mut buf = Vec::new();
        obs::report(&v, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("analysis: overall_imbalance="), "{text}");
        assert!(text.contains("time_ratio"), "{text}");

        // diff against the planned run goes through `run` end to end.
        let planned_path = format!("{prefix}.planned.json");
        let mut buf = Vec::new();
        run(
            Command::Obs(ObsCmd::Diff {
                a: default_path.clone(),
                b: planned_path.clone(),
            }),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("metrics differ"));
        // The simulator is deterministic, so the default run's summary
        // matches the committed baseline recorded from this same command.
        let mut buf = Vec::new();
        run(
            Command::Obs(ObsCmd::Diff {
                a: concat!(
                    env!("CARGO_MANIFEST_DIR"),
                    "/../../results/obs_baseline.json"
                )
                .into(),
                b: default_path.clone(),
            }),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\n  0 metrics differ"), "{text}");
        // top via `run` as well.
        let mut buf = Vec::new();
        run(
            Command::Obs(ObsCmd::Top {
                path: planned_path.clone(),
                by: "halo_wait".into(),
                n: 5,
            }),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("top 5 of"), "{text}");
        assert!(text.contains("ring.steps records by halo_wait"), "{text}");
        // An unknown field fails when the file loads and lists the real ones.
        let err = run(
            Command::Obs(ObsCmd::Top {
                path: planned_path,
                by: "bogus".into(),
                n: 5,
            }),
            &mut Vec::new(),
        )
        .unwrap_err()
        .to_string();
        assert!(
            err.contains("'bogus'") && err.contains("halo_wait"),
            "{err}"
        );
    }
}
