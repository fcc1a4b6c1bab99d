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
pub use obs::ObsCmd;
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
    Serve(ServeArgs),
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
    /// Also run the workspace call-graph pass (NW-G001..G003).
    pub graph: bool,
}

/// Arguments of `nestwx sweep`. Flags override the `NESTWX_SWEEP_*`
/// environment knobs, which override the spec/built-in defaults.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SweepArgs {
    /// Scenario-space spec file (JSON; `--spec`, required).
    pub spec: String,
    /// Disk-cache directory shared with `nestwx serve` (`--cache-dir`,
    /// else `NESTWX_SWEEP_CACHE_DIR`; unset = no persistence).
    pub cache_dir: Option<String>,
    /// Override of the spec's simulated iterations (`--iterations`).
    pub iterations: Option<u32>,
    /// Worker threads (`--jobs`, else `NESTWX_JOBS` / available
    /// parallelism).
    pub jobs: Option<usize>,
    /// Also write the summary envelope JSON to this file (`--out`).
    pub out: Option<String>,
    /// Print the summary envelope as JSON instead of tables.
    pub json: bool,
}

impl SweepArgs {
    /// Resolves flags and environment into engine options. The cache dir
    /// always flows in explicitly from here (flag or `NESTWX_SWEEP_*`
    /// env) — the engine itself never reads ambient paths (NW-D006).
    pub fn to_options(&self) -> nestwx_sweep::SweepOptions {
        let env_nonempty = |key: &str| std::env::var(key).ok().filter(|v| !v.is_empty());
        let cache_dir = self
            .cache_dir
            .clone()
            .or_else(|| env_nonempty("NESTWX_SWEEP_CACHE_DIR"))
            .map(std::path::PathBuf::from);
        nestwx_sweep::SweepOptions {
            cache_dir,
            iterations: self.iterations,
            jobs: self.jobs,
        }
    }
}

/// Arguments of `nestwx fleet-worker` — the child process `nestwx fleet`
/// spawns; not normally invoked by hand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetWorkerArgs {
    /// Coordinator address to connect back to.
    pub connect: String,
}

/// Arguments of `nestwx serve`. Flags override the `NESTWX_SERVE_*`
/// environment knobs, which override the built-in defaults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeArgs {
    /// Bind address (default `127.0.0.1:7878`; port 0 picks a free one).
    pub addr: String,
    /// Worker threads (`--workers`, else `NESTWX_SERVE_WORKERS`).
    pub workers: Option<usize>,
    /// Job-queue depth (`--queue`, else `NESTWX_SERVE_QUEUE`).
    pub queue: Option<usize>,
    /// Plan-cache capacity (`--cache`, else `NESTWX_SERVE_CACHE`).
    pub cache: Option<usize>,
    /// Connection cap (`--max-conns`, else `NESTWX_SERVE_MAX_CONNS`).
    pub max_conns: Option<usize>,
    /// Event-loop reader threads (`--readers`, else `NESTWX_SERVE_READERS`).
    pub readers: Option<usize>,
    /// Default request deadline in ms, 0 = none (`--deadline-ms`, else
    /// `NESTWX_SERVE_DEADLINE_MS`).
    pub deadline_ms: Option<u64>,
    /// Per-client rate in tokens/second, 0 = off (`--rate`, else
    /// `NESTWX_SERVE_RATE`).
    pub rate: Option<u64>,
    /// Token-bucket burst capacity (`--burst`, else `NESTWX_SERVE_BURST`).
    pub burst: Option<u64>,
    /// Maximum tracked rate-limit clients (`--client-cap`, else
    /// `NESTWX_SERVE_CLIENT_CAP`).
    pub client_cap: Option<usize>,
    /// Maximum cached predictors (`--predictors`, else
    /// `NESTWX_SERVE_PREDICTORS`).
    pub predictors: Option<usize>,
    /// Idle connection cap in ms, 0 = none (`--idle-ms`, else
    /// `NESTWX_SERVE_IDLE_MS`).
    pub idle_ms: Option<u64>,
    /// Connection lifetime cap in ms, 0 = none (`--lifetime-ms`, else
    /// `NESTWX_SERVE_LIFETIME_MS`).
    pub lifetime_ms: Option<u64>,
    /// Disk plan-cache directory (`--cache-dir`, else
    /// `NESTWX_SERVE_CACHE_DIR`; unset = in-memory cache only).
    pub cache_dir: Option<String>,
}

impl ServeArgs {
    /// Resolves flags and environment into the server config.
    pub fn to_config(&self) -> nestwx_serve::ServeConfig {
        let mut cfg = nestwx_serve::ServeConfig::new(self.addr.clone());
        if let Some(n) = self.workers {
            cfg.workers = n;
        }
        if let Some(n) = self.queue {
            cfg.queue_depth = n;
        }
        if let Some(n) = self.cache {
            cfg.cache_capacity = n;
        }
        if let Some(n) = self.max_conns {
            cfg.max_conns = n;
        }
        if let Some(n) = self.readers {
            cfg.readers = n;
        }
        if let Some(n) = self.deadline_ms {
            cfg.deadline_ms = n;
        }
        if let Some(n) = self.rate {
            cfg.rate = n;
        }
        if let Some(n) = self.burst {
            cfg.burst = n;
        }
        if let Some(n) = self.client_cap {
            cfg.client_cap = n;
        }
        if let Some(n) = self.predictors {
            cfg.predictors = n;
        }
        if let Some(n) = self.idle_ms {
            cfg.idle_ms = n;
        }
        if let Some(n) = self.lifetime_ms {
            cfg.lifetime_ms = n;
        }
        if let Some(dir) = &self.cache_dir {
            cfg.cache_dir = Some(std::path::PathBuf::from(dir));
        }
        cfg
    }
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
    /// Include the per-iteration timeline in compare output.
    pub trace: bool,
    /// compare: write run summaries to `PREFIX.default.json` /
    /// `PREFIX.planned.json`; fleet: write the fleet envelope to this file.
    pub obs_out: Option<String>,
    /// fleet: worker processes (`--workers`, else `NESTWX_FLEET_WORKERS`).
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
/// run it. `--io`/`--trace` are plan/compare only, `--workers`/`--check`
/// fleet only.
fn parse_run_args(cmd: &str, args: &[String]) -> Result<RunArgs, ParseError> {
    let fleet = cmd == "fleet";
    let mut machine = None;
    let mut parent = None;
    let mut nests = Vec::new();
    let mut mapping = None;
    let mut alloc = None;
    let mut io = None;
    let mut iterations = 5u32;
    let mut json = false;
    let mut trace = false;
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
                iterations = value("--iterations")?
                    .parse()
                    .map_err(|_| err("bad --iterations"))?;
            }
            "--json" => json = true,
            "--trace" if !fleet => trace = true,
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
    if iterations == 0 {
        return Err(err("--iterations must be ≥ 1"));
    }
    if obs_out.is_some() && cmd == "plan" {
        return Err(err("--obs-out only applies to compare"));
    }
    Ok(RunArgs {
        scenario,
        iterations,
        json,
        trace,
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

/// Parses `serve [--addr A] [--workers N] [--queue N] [--cache N]
/// [--max-conns N]`.
fn parse_serve_args(args: &[String]) -> Result<ServeArgs, ParseError> {
    let mut serve = ServeArgs {
        addr: "127.0.0.1:7878".to_string(),
        workers: None,
        queue: None,
        cache: None,
        max_conns: None,
        readers: None,
        deadline_ms: None,
        rate: None,
        burst: None,
        client_cap: None,
        predictors: None,
        idle_ms: None,
        lifetime_ms: None,
        cache_dir: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| err(format!("{name} needs a value")))
        };
        let positive = |name: &str, v: String| -> Result<usize, ParseError> {
            match v.parse::<usize>() {
                Ok(n) if n >= 1 => Ok(n),
                _ => Err(err(format!("{name} must be a positive integer, got '{v}'"))),
            }
        };
        // Limits where 0 is meaningful: it disables the knob.
        let nonneg = |name: &str, v: String| -> Result<u64, ParseError> {
            v.parse::<u64>()
                .map_err(|_| err(format!("{name} must be a non-negative integer, got '{v}'")))
        };
        match flag.as_str() {
            "--addr" => serve.addr = value("--addr")?,
            "--workers" => serve.workers = Some(positive("--workers", value("--workers")?)?),
            "--queue" => serve.queue = Some(positive("--queue", value("--queue")?)?),
            "--cache" => serve.cache = Some(positive("--cache", value("--cache")?)?),
            "--max-conns" => {
                serve.max_conns = Some(positive("--max-conns", value("--max-conns")?)?)
            }
            "--readers" => serve.readers = Some(positive("--readers", value("--readers")?)?),
            "--deadline-ms" => {
                serve.deadline_ms = Some(nonneg("--deadline-ms", value("--deadline-ms")?)?)
            }
            "--rate" => serve.rate = Some(nonneg("--rate", value("--rate")?)?),
            "--burst" => serve.burst = Some(positive("--burst", value("--burst")?)? as u64),
            "--client-cap" => {
                serve.client_cap = Some(positive("--client-cap", value("--client-cap")?)?)
            }
            "--predictors" => {
                serve.predictors = Some(positive("--predictors", value("--predictors")?)?)
            }
            "--idle-ms" => serve.idle_ms = Some(nonneg("--idle-ms", value("--idle-ms")?)?),
            "--lifetime-ms" => {
                serve.lifetime_ms = Some(nonneg("--lifetime-ms", value("--lifetime-ms")?)?)
            }
            "--cache-dir" => serve.cache_dir = Some(value("--cache-dir")?),
            other => return Err(err(format!("unknown serve flag '{other}'"))),
        }
    }
    Ok(serve)
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
            "--cache-dir" => sweep.cache_dir = Some(value("--cache-dir")?),
            "--iterations" => {
                let n: u32 = value("--iterations")?
                    .parse()
                    .map_err(|_| err("bad --iterations"))?;
                if n == 0 {
                    return Err(err("--iterations must be ≥ 1"));
                }
                sweep.iterations = Some(n);
            }
            "--jobs" => {
                let n: usize = value("--jobs")?.parse().map_err(|_| err("bad --jobs"))?;
                if n == 0 {
                    return Err(err("--jobs must be ≥ 1"));
                }
                sweep.jobs = Some(n);
            }
            "--out" => sweep.out = Some(value("--out")?),
            "--json" => sweep.json = true,
            other => return Err(err(format!("unknown sweep flag '{other}'"))),
        }
    }
    sweep.spec = spec.ok_or_else(|| err("--spec is required"))?;
    Ok(sweep)
}

/// Parses `lint [--root DIR] [--allow FILE] [--json] [--fixtures]
/// [--graph]`.
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
            "--graph" => lint.graph = true,
            other => return Err(err(format!("unknown lint flag '{other}'"))),
        }
    }
    Ok(lint)
}

/// Parses the `obs` subcommand family: `report FILE`, `top FILE [--by
/// METRIC] [-n N]`, `diff A B`.
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
            // Step metrics for run summaries, span stages for serve trace
            // envelopes — which applies is decided when the file loads.
            if !obs::TOP_METRICS.contains(&by.as_str())
                && !obs::SERVE_TOP_METRICS.contains(&by.as_str())
            {
                return Err(err(format!(
                    "unknown metric '{by}' (one of {} for runs, {} for serve traces)",
                    obs::TOP_METRICS.join("|"),
                    obs::SERVE_TOP_METRICS.join("|")
                )));
            }
            if n == 0 {
                return Err(err("-n must be ≥ 1"));
            }
            Ok(ObsCmd::Top {
                path: path.ok_or_else(|| err("usage: obs top FILE [--by METRIC] [-n N]"))?,
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
struct PlanOut {
    machine: String,
    ranks: u32,
    grid: (u32, u32),
    predicted_ratios: Vec<f64>,
    partitions: Vec<PartitionOut>,
}

#[derive(Serialize)]
struct PartitionOut {
    nest: usize,
    x: u32,
    y: u32,
    w: u32,
    h: u32,
    ranks: u64,
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
    #[serde(skip_serializing_if = "Option::is_none")]
    trace: Option<Vec<nestwx_netsim::IterationTrace>>,
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
                let o = PlanOut {
                    machine: plan.machine.name.clone(),
                    ranks: plan.machine.ranks(),
                    grid: (plan.grid.px, plan.grid.py),
                    predicted_ratios: plan.predicted_ratios.clone(),
                    partitions: plan
                        .partitions
                        .iter()
                        .map(|p| PartitionOut {
                            nest: p.domain,
                            x: p.rect.x0,
                            y: p.rect.y0,
                            w: p.rect.w,
                            h: p.rect.h,
                            ranks: p.rect.area(),
                        })
                        .collect(),
                };
                writeln!(out, "{}", serde_json::to_string_pretty(&o)?)?;
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
        Command::Serve(a) => {
            let handle = nestwx_serve::spawn(a.to_config())?;
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
            let report = nestwx_sweep::run_sweep(&spec, &a.to_options())?;
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
            // --fixtures --graph pairs the empty per-file scopes with the
            // fixture graph roots, so known-bad graph fixture trees exercise
            // only NW-G001..G003.
            let cfg = match (a.fixtures, a.graph) {
                (true, true) => nestwx_analyze::LintConfig::graph_fixtures(root.clone()),
                (true, false) => nestwx_analyze::LintConfig::fixtures(root.clone()),
                (false, _) => nestwx_analyze::LintConfig::workspace_default(root.clone()),
            };
            let graph_cfg = a.graph.then(|| {
                if a.fixtures {
                    nestwx_analyze::GraphConfig::fixtures()
                } else {
                    nestwx_analyze::GraphConfig::workspace_default()
                }
            });
            let allow_path = match &a.allow {
                Some(p) => std::path::PathBuf::from(p),
                None => root.join("lint.allow"),
            };
            let report =
                nestwx_analyze::run_lint_with_allow_file_ex(&cfg, graph_cfg.as_ref(), &allow_path)?;
            if a.json {
                writeln!(out, "{}", serde_json::to_string_pretty(&report)?)?;
            } else {
                write!(out, "{}", report.render())?;
            }
            if !report.ok() {
                return Err(format!(
                    "lint failed: {} finding(s), {} allowlist error(s), {} graph error(s)",
                    report.findings.len(),
                    report.allow_errors.len(),
                    report.graph_errors.len()
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
                let trace = if a.trace {
                    let plan = planner.plan(parent, nests)?;
                    Some(plan.simulate_traced(a.iterations)?.1)
                } else {
                    None
                };
                let o = CompareOut {
                    machine: cmp.default_run.machine.clone(),
                    iterations: a.iterations,
                    default_s_per_iter: cmp.default_run.per_iteration(),
                    parallel_s_per_iter: cmp.planned_run.per_iteration(),
                    improvement_pct: cmp.improvement_pct(),
                    mpi_wait_improvement_pct: cmp.mpi_wait_improvement_pct(),
                    hops_reduction_pct: cmp.hops_reduction_pct(),
                    io_improvement_pct: cmp.io_improvement_pct(),
                    trace,
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
  nestwx obs top  FILE [--by duration|compute|halo_wait|bytes|messages|hops|stall] [-n N]
                       (serve traces: --by total|parse|wait|work|write)
  nestwx obs diff A B
  nestwx serve   [--addr 127.0.0.1:7878] [--workers N] [--queue N] [--cache N]
                 [--max-conns N] [--readers N] [--deadline-ms MS] [--rate N]
                 [--burst N] [--client-cap N] [--predictors N] [--idle-ms MS]
                 [--lifetime-ms MS] [--cache-dir DIR]
  nestwx lint    [--root DIR] [--allow FILE] [--json] [--fixtures] [--graph]

FLAGS:
  --machine FAMILY:CORES   {machines} (power of two)
  --parent  NXxNY@DXKM     e.g. 286x307@24
  --nest    NXxNYrR@OX,OY[:in=K]
                           repeatable; ':in=K' makes it a second-level nest
                           inside nest K (0-based)
  --iterations N           compare only (default 5)
  --mapping  oblivious|txyz|partition|multilevel   (default partition)
  --alloc    equal|naive|huffman                   (default huffman)
  --io       none|pnetcdf:N|split:N                history output every N iters
                           (the token grammar is DESIGN.md's \"Scenario
                           vocabulary\" table, shared with sweep and serve)
  --json                   machine-readable output
  --trace                  include the per-iteration timeline (with --json)
  --obs-out PREFIX         compare only: record both runs and write
                           PREFIX.default.json / PREFIX.planned.json run
                           summaries for 'nestwx obs'

SWEEP:
  Expands a declarative JSON scenario-space spec (lists/ranges over
  machines, parents, nest sets, strategies, allocs, mappings, io),
  dedups by canonical scenario, and plans+simulates every unique
  scenario on a work-stealing thread pool. With --cache-dir (or
  NESTWX_SWEEP_CACHE_DIR) results persist to a disk cache shared with
  'nestwx serve --cache-dir' — a warm sweep pre-heats the service, and
  re-running a sweep replays from disk. --jobs falls back to
  NESTWX_JOBS. Output: Pareto front (ranks vs s/iter), winner-per-region
  table, and a versioned summary envelope ('nestwx obs report'
  understands it; --out writes it to a file).

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
  'nestwx obs report' renders. Unset --workers falls back to
  NESTWX_FLEET_WORKERS (default 2); handshake and mid-run silence
  budgets come from NESTWX_FLEET_CONNECT_TIMEOUT_MS /
  NESTWX_FLEET_FRAME_TIMEOUT_MS, and frame size is capped by
  NESTWX_FLEET_MAX_FRAME_BYTES. A lost or silent worker aborts the
  whole fleet with a typed worker_lost error — no partial reports.

SERVE:
  Runs the planning daemon: newline-delimited JSON requests over TCP
  (predict|plan|compare|execute|stats|trace|shutdown), served by a nonblocking
  event loop with plan caching, one shared predictor fit per machine,
  per-request deadlines, per-client token-bucket rate limits and live
  latency metrics. Unset flags fall back to the NESTWX_SERVE_WORKERS /
  NESTWX_SERVE_READERS / NESTWX_SERVE_QUEUE / NESTWX_SERVE_CACHE /
  NESTWX_SERVE_MAX_CONNS / NESTWX_SERVE_DEADLINE_MS / NESTWX_SERVE_RATE /
  NESTWX_SERVE_BURST / NESTWX_SERVE_CLIENT_CAP / NESTWX_SERVE_PREDICTORS /
  NESTWX_SERVE_IDLE_MS / NESTWX_SERVE_LIFETIME_MS /
  NESTWX_SERVE_CACHE_DIR environment knobs (deadline/rate/idle/lifetime
  default 0 = off; cache-dir unset = memory-only plan cache). With a
  cache dir, plans persist across restarts and are shared with
  'nestwx sweep'. An 'execute' request runs the planned scenario as an
  in-process socket fleet (see FLEET) and returns the merged report plus
  the fleet envelope; execute responses are never cached. The process
  exits (code 0) after a clean drain once a client sends 'shutdown'.

  A flight recorder (NESTWX_SERVE_TRACE, default on) stamps every
  request's lifecycle (parse/queue/work/write) into bounded per-reader
  span rings (NESTWX_SERVE_TRACE_RING per reader) with a slow-request
  log above NESTWX_SERVE_TRACE_SLOW_US (0 = off). The 'trace' endpoint
  drains the rings as a versioned 'nestwx-obs-serve-summary' envelope
  that 'nestwx obs report|top|diff' renders; 'stats' returns the
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
        assert!(parse_args(&argv(&["obs", "top", "run.json", "--by", "bogus"])).is_err());
        assert!(parse_args(&argv(&["obs", "diff", "a.json"])).is_err());
        // --obs-out is compare-only.
        assert!(parse_args(&argv(&[
            "plan",
            "--machine",
            "bgl:64",
            "--parent",
            "286x307@24",
            "--nest",
            "200x200r3@10,12",
            "--obs-out",
            "x"
        ]))
        .is_err());
    }

    #[test]
    fn parse_serve_commands() {
        let Command::Serve(defaults) = parse_args(&argv(&["serve"])).unwrap() else {
            panic!("wrong command")
        };
        assert_eq!(defaults.addr, "127.0.0.1:7878");
        assert_eq!(defaults.workers, None);
        assert_eq!(defaults.queue, None);
        assert_eq!(defaults.cache, None);
        assert_eq!(defaults.max_conns, None);
        assert_eq!(defaults.readers, None);
        assert_eq!(defaults.deadline_ms, None);
        assert_eq!(defaults.rate, None);
        assert_eq!(defaults.idle_ms, None);
        let Command::Serve(a) = parse_args(&argv(&[
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
        ]))
        .unwrap() else {
            panic!("wrong command")
        };
        assert_eq!(a.addr, "0.0.0.0:9999");
        assert_eq!(a.workers, Some(8));
        assert_eq!(a.queue, Some(32));
        assert_eq!(a.cache, Some(512));
        assert_eq!(a.max_conns, Some(16));
        assert_eq!(a.readers, Some(2));
        assert_eq!(a.deadline_ms, Some(250));
        assert_eq!(a.rate, Some(100));
        assert_eq!(a.burst, Some(20));
        assert_eq!(a.client_cap, Some(4096));
        assert_eq!(a.predictors, Some(32));
        assert_eq!(a.idle_ms, Some(0));
        assert_eq!(a.lifetime_ms, Some(60000));
        let cfg = a.to_config();
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
        assert!(parse_args(&argv(&["serve", "--workers", "0"])).is_err());
        assert!(parse_args(&argv(&["serve", "--queue"])).is_err());
        assert!(parse_args(&argv(&["serve", "--bogus"])).is_err());
        assert!(parse_args(&argv(&["serve", "--readers", "0"])).is_err());
        assert!(parse_args(&argv(&["serve", "--deadline-ms", "-1"])).is_err());
        assert!(parse_args(&argv(&["serve", "--rate"])).is_err());
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
        assert_eq!(a.cache_dir.as_deref(), Some("/tmp/cache"));
        assert_eq!(a.iterations, Some(4));
        assert_eq!(a.jobs, Some(3));
        assert_eq!(a.out.as_deref(), Some("summary.json"));
        assert!(a.json);
        let opts = a.to_options();
        assert_eq!(
            opts.cache_dir.as_deref(),
            Some(std::path::Path::new("/tmp/cache"))
        );
        assert_eq!(opts.iterations, Some(4));
        assert_eq!(opts.jobs, Some(3));
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
                cache_dir: Some(cache_dir.to_str().unwrap().into()),
                iterations: None,
                jobs: Some(jobs),
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
        assert!(text.contains("sweep summary"), "{text}");
        assert!(text.contains("winner per region"), "{text}");
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
        // Defaults: workers fall back to NESTWX_FLEET_WORKERS at run time.
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
                ..LintArgs::default()
            })
        );
        assert_eq!(
            parse_args(&argv(&["lint", "--graph"])).unwrap(),
            Command::Lint(LintArgs {
                graph: true,
                ..LintArgs::default()
            })
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
                ..LintArgs::default()
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
                Command::Serve(ServeArgs {
                    addr: "127.0.0.1:0".into(),
                    workers: Some(2),
                    queue: None,
                    cache: None,
                    max_conns: None,
                    readers: None,
                    deadline_ms: None,
                    rate: None,
                    burst: None,
                    client_cap: None,
                    predictors: None,
                    idle_ms: None,
                    lifetime_ms: None,
                    cache_dir: None,
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
        assert!(text.contains("load imbalance"));
        assert!(text.contains("ratio"));

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
        assert!(String::from_utf8(buf).unwrap().contains("top 5 steps"));
    }
}
