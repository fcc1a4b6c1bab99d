//! The sweep executor: work-stealing parallel planning with disk-cache
//! reuse, plus Pareto-front and winner-per-region analysis.
//!
//! Each unique scenario is one unit of work for the shared work-stealing
//! driver ([`nestwx_core::parallel`]): look the scenario's sweep entry up
//! in the disk cache; on a miss, plan it, render the exact plan JSON the
//! serving daemon would cache ([`nestwx_serve::render_plan`]), simulate
//! it, and persist **both** the plan bytes (under the serve `plan` key —
//! this is what makes a warm sweep pre-heat `nestwx-serve`) and a small
//! sweep envelope (plan digest + simulated metrics, under the `sweep`
//! key). Planning and simulation are deterministic in the scenario, so
//! the produced plan bytes — and therefore the whole-sweep
//! `plans_digest` — are identical across runs and job counts.

use crate::spec::SweepSpec;
use nestwx_core::{
    fnv1a64, parallel_jobs, run_parallel_with, vocab, AllocPolicy, MappingKind, Scenario, Strategy,
};
use nestwx_obs::clock;
use nestwx_serve::disk::{DiskCache, DiskStats};
use nestwx_serve::{keys, render_plan};
use serde::Serialize;
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::PathBuf;

/// Version tag inside each on-disk sweep envelope (independent of the
/// key-level `PLAN_FORMAT_VERSION`, which governs addressing).
const ENTRY_VERSION: u64 = 1;

/// Knobs for one sweep run.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Disk-cache directory shared with `nestwx-serve`; `None` = no
    /// persistence (everything is computed). Always flows in explicitly —
    /// never an ambient path (lint NW-D006).
    pub cache_dir: Option<PathBuf>,
    /// Override of the spec's `iterations`.
    pub iterations: Option<u32>,
    /// Worker threads; `None` = `NESTWX_JOBS` / available parallelism.
    pub jobs: Option<usize>,
}

/// A sweep that could not start (scenario-level failures are recorded per
/// outcome instead).
#[derive(Debug)]
pub enum SweepError {
    /// The disk cache directory could not be opened.
    Disk(io::Error),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Disk(e) => write!(f, "cannot open cache dir: {e}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// One scenario's result row.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioOutcome {
    /// The scenario's versioned sweep cache key.
    pub key: String,
    /// Machine name.
    pub machine: String,
    /// Ranks the machine runs.
    pub ranks: u32,
    /// Region-of-interest signature: parent dims plus every nest's
    /// `NXxNYrR@OX,OY` — the grouping key of the winner table.
    pub region: String,
    /// Strategy wire token.
    pub strategy: String,
    /// Allocation wire token.
    pub alloc: String,
    /// Mapping wire token.
    pub mapping: String,
    /// I/O wire token (`none`, `pnetcdf`, `split`).
    pub io: String,
    /// Simulated seconds per parent iteration under the plan.
    pub planned_s_per_iter: f64,
    /// FNV-1a 64 of the rendered plan JSON, as 16 hex digits.
    pub plan_digest: String,
    /// True when the result came from the disk cache.
    pub from_disk: bool,
    /// Planning/simulation failure, if any (such scenarios are excluded
    /// from the Pareto front and winner table).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub error: Option<String>,
}

/// A point on the cost/performance Pareto front: no other swept scenario
/// uses no more ranks *and* runs no slower.
#[derive(Debug, Clone, Serialize)]
pub struct ParetoPoint {
    /// Machine name.
    pub machine: String,
    /// Ranks used (the cost axis).
    pub ranks: u32,
    /// Region signature.
    pub region: String,
    /// Strategy wire token.
    pub strategy: String,
    /// Allocation wire token.
    pub alloc: String,
    /// Mapping wire token.
    pub mapping: String,
    /// Seconds per iteration (the performance axis).
    pub planned_s_per_iter: f64,
}

/// The best knob combination for one region configuration.
#[derive(Debug, Clone, Serialize)]
pub struct WinnerRow {
    /// Region signature (parent + nest set).
    pub region: String,
    /// Scenarios swept for this region.
    pub scenarios: usize,
    /// Winning machine name.
    pub machine: String,
    /// Winning machine's ranks.
    pub ranks: u32,
    /// Winning strategy token.
    pub strategy: String,
    /// Winning alloc token.
    pub alloc: String,
    /// Winning mapping token.
    pub mapping: String,
    /// The winner's seconds per iteration.
    pub planned_s_per_iter: f64,
    /// How much slower the worst combo for this region is, in percent of
    /// the winner's time — the price of picking knobs blindly.
    pub spread_pct: f64,
}

/// Everything a sweep produced. Serializes directly as the versioned
/// `nestwx obs` sweep envelope: `schema`/`version` are the first fields,
/// so downstream tooling can dispatch without a wrapper struct.
#[derive(Debug, Clone, Serialize)]
pub struct SweepReport {
    /// Always [`nestwx_obs::SWEEP_SCHEMA`].
    pub schema: String,
    /// Always [`nestwx_obs::SWEEP_VERSION`].
    pub version: u64,
    /// Cartesian-product size of the spec.
    pub expanded: usize,
    /// Unique scenarios after canonical dedup.
    pub unique: usize,
    /// Product entries dropped by dedup.
    pub duplicates: usize,
    /// Simulated iterations per scenario.
    pub iterations: u32,
    /// Worker threads used.
    pub jobs: usize,
    /// Scenarios planned+simulated this run.
    pub computed: usize,
    /// Scenarios answered from the disk cache.
    pub disk_hits: usize,
    /// Scenarios that failed to plan or simulate.
    pub errors: usize,
    /// Wall-clock seconds for the whole sweep.
    pub elapsed_seconds: f64,
    /// FNV-1a 64 over every `key=plan_digest` pair in key order, as 16
    /// hex digits — equal digests mean byte-identical plan sets.
    pub plans_digest: String,
    /// Disk-cache counters (`None` without a cache dir).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub disk: Option<DiskStats>,
    /// The rank-count vs seconds-per-iteration Pareto front.
    pub pareto: Vec<ParetoPoint>,
    /// Winner per region configuration.
    pub winners: Vec<WinnerRow>,
    /// Per-scenario rows, in expansion order.
    pub scenarios: Vec<ScenarioOutcome>,
}

/// Expands `spec` and runs every unique scenario through the
/// work-stealing driver, reusing (and refilling) the disk cache when one
/// is configured.
pub fn run_sweep(spec: &SweepSpec, opts: &SweepOptions) -> Result<SweepReport, SweepError> {
    let iterations = opts.iterations.unwrap_or(spec.iterations);
    let jobs = opts.jobs.unwrap_or_else(parallel_jobs).max(1);
    let disk = match &opts.cache_dir {
        Some(dir) => Some(DiskCache::open(dir).map_err(SweepError::Disk)?),
        None => None,
    };
    let started = clock::now();
    let expansion = spec.expand();
    let outcomes = run_parallel_with(jobs, &expansion.scenarios, |scenario| {
        run_one(scenario, iterations, disk.as_ref())
    });
    let elapsed_seconds = clock::since(started).as_secs_f64();

    let computed = outcomes
        .iter()
        .filter(|o| !o.from_disk && o.error.is_none())
        .count();
    let disk_hits = outcomes.iter().filter(|o| o.from_disk).count();
    let errors = outcomes.iter().filter(|o| o.error.is_some()).count();
    Ok(SweepReport {
        schema: nestwx_obs::SWEEP_SCHEMA.to_string(),
        version: nestwx_obs::SWEEP_VERSION,
        expanded: expansion.expanded,
        unique: expansion.scenarios.len(),
        duplicates: expansion.expanded - expansion.scenarios.len(),
        iterations,
        jobs,
        computed,
        disk_hits,
        errors,
        elapsed_seconds,
        plans_digest: plans_digest(&outcomes),
        disk: disk.as_ref().map(DiskCache::stats),
        pareto: pareto_front(&outcomes),
        winners: winners(&outcomes),
        scenarios: outcomes,
    })
}

fn run_one(scenario: &Scenario, iterations: u32, disk: Option<&DiskCache>) -> ScenarioOutcome {
    let key = keys::sweep_key(scenario, iterations);
    let mut row = ScenarioOutcome {
        key,
        machine: scenario.machine.name.clone(),
        ranks: scenario.machine.ranks(),
        region: region_label(scenario),
        strategy: Strategy::token(scenario.strategy).to_string(),
        alloc: AllocPolicy::token(scenario.alloc).to_string(),
        mapping: MappingKind::token(scenario.mapping).to_string(),
        io: vocab::io_mode_token(scenario.io_mode).to_string(),
        planned_s_per_iter: 0.0,
        plan_digest: String::new(),
        from_disk: false,
        error: None,
    };
    if let Some(entry) = disk
        .and_then(|d| d.get(&row.key))
        .and_then(|raw| parse_entry(&raw))
    {
        (row.plan_digest, row.planned_s_per_iter) = entry;
        row.from_disk = true;
        return row;
    }
    let plan = match scenario.planner().plan(&scenario.parent, &scenario.nests) {
        Ok(plan) => plan,
        Err(e) => {
            row.error = Some(e.to_string());
            return row;
        }
    };
    let plan_json = match render_plan(scenario, &plan) {
        Ok(json) => json,
        Err(e) => {
            row.error = Some(format!("render: {e:?}"));
            return row;
        }
    };
    let report = match plan.simulate(iterations) {
        Ok(report) => report,
        Err(e) => {
            row.error = Some(e.to_string());
            return row;
        }
    };
    row.plan_digest = format!("{:016x}", fnv1a64(plan_json.as_bytes()));
    row.planned_s_per_iter = report.per_iteration();
    if let Some(d) = disk {
        // Persistence is best-effort (a full disk degrades to recompute,
        // never to failure). The plan bytes go under the *serve* key so a
        // later `nestwx serve --cache-dir` answers these scenarios from
        // disk, byte-identically.
        let _ = d.put(&keys::plan_key(scenario), &plan_json);
        if let Ok(entry) = render_entry(&row.plan_digest, row.planned_s_per_iter) {
            let _ = d.put(&row.key, &entry);
        }
    }
    row
}

#[derive(Serialize)]
struct DiskEntry {
    v: u64,
    plan_digest: String,
    planned_s_per_iter: f64,
}

fn render_entry(plan_digest: &str, planned_s_per_iter: f64) -> Result<String, serde_json::Error> {
    serde_json::to_string(&DiskEntry {
        v: ENTRY_VERSION,
        plan_digest: plan_digest.to_string(),
        planned_s_per_iter,
    })
}

/// Decodes a stored sweep envelope; any malformed field degrades to a
/// recompute (corruption-tolerance at the envelope layer, mirroring the
/// file layer in [`DiskCache`]).
fn parse_entry(raw: &str) -> Option<(String, f64)> {
    let v: Value = serde_json::from_str(raw).ok()?;
    if v.get("v")?.as_u64()? != ENTRY_VERSION {
        return None;
    }
    let digest = v.get("plan_digest")?.as_str()?;
    if digest.len() != 16 || !digest.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    let s_per_iter = v.get("planned_s_per_iter")?.as_f64()?;
    Some((digest.to_string(), s_per_iter))
}

/// `PARENTX x PARENTY + NXxNYrR@OX,OY…` — identifies a region-of-interest
/// configuration independent of machine and knobs.
fn region_label(scenario: &Scenario) -> String {
    let mut label = format!("{}x{}", scenario.parent.nx, scenario.parent.ny);
    for n in &scenario.nests {
        label.push('+');
        label.push_str(&vocab::nest_token(n));
    }
    label
}

/// One digest over the whole plan set: FNV-1a 64 of every
/// `key=plan_digest` line in key order (so it is independent of execution
/// interleaving and job count). Errored scenarios contribute their key
/// with an empty digest — an error appearing or vanishing changes it.
fn plans_digest(outcomes: &[ScenarioOutcome]) -> String {
    let mut pairs: Vec<(&str, &str)> = outcomes
        .iter()
        .map(|o| (o.key.as_str(), o.plan_digest.as_str()))
        .collect();
    pairs.sort_unstable();
    let mut bytes = Vec::new();
    for (key, digest) in pairs {
        bytes.extend_from_slice(key.as_bytes());
        bytes.push(b'=');
        bytes.extend_from_slice(digest.as_bytes());
        bytes.push(b'\n');
    }
    format!("{:016x}", fnv1a64(&bytes))
}

fn by_time(a: f64, b: f64) -> std::cmp::Ordering {
    a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal)
}

/// Minimizes (ranks, seconds/iter): a scenario is on the front when no
/// other successful scenario uses no more ranks and runs no slower.
fn pareto_front(outcomes: &[ScenarioOutcome]) -> Vec<ParetoPoint> {
    let mut order: Vec<&ScenarioOutcome> = outcomes.iter().filter(|o| o.error.is_none()).collect();
    order.sort_by(|a, b| {
        a.ranks
            .cmp(&b.ranks)
            .then(by_time(a.planned_s_per_iter, b.planned_s_per_iter))
            .then(a.key.cmp(&b.key))
    });
    let mut front = Vec::new();
    let mut best = f64::INFINITY;
    for o in order {
        if o.planned_s_per_iter < best {
            best = o.planned_s_per_iter;
            front.push(ParetoPoint {
                machine: o.machine.clone(),
                ranks: o.ranks,
                region: o.region.clone(),
                strategy: o.strategy.clone(),
                alloc: o.alloc.clone(),
                mapping: o.mapping.clone(),
                planned_s_per_iter: o.planned_s_per_iter,
            });
        }
    }
    front
}

/// Groups successful scenarios by region signature and picks the fastest
/// combo per group (ties broken by key order, so the table is
/// deterministic).
fn winners(outcomes: &[ScenarioOutcome]) -> Vec<WinnerRow> {
    let mut groups: BTreeMap<&str, Vec<&ScenarioOutcome>> = BTreeMap::new();
    for o in outcomes.iter().filter(|o| o.error.is_none()) {
        groups.entry(&o.region).or_default().push(o);
    }
    groups
        .into_iter()
        .map(|(region, mut rows)| {
            rows.sort_by(|a, b| {
                by_time(a.planned_s_per_iter, b.planned_s_per_iter).then(a.key.cmp(&b.key))
            });
            let best = rows[0];
            let worst = rows[rows.len() - 1];
            let spread_pct = if best.planned_s_per_iter > 0.0 {
                (worst.planned_s_per_iter / best.planned_s_per_iter - 1.0) * 100.0
            } else {
                0.0
            };
            WinnerRow {
                region: region.to_string(),
                scenarios: rows.len(),
                machine: best.machine.clone(),
                ranks: best.ranks,
                strategy: best.strategy.clone(),
                alloc: best.alloc.clone(),
                mapping: best.mapping.clone(),
                planned_s_per_iter: best.planned_s_per_iter,
                spread_pct,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(key: &str, ranks: u32, region: &str, time: f64) -> ScenarioOutcome {
        ScenarioOutcome {
            key: key.to_string(),
            machine: "bgl".into(),
            ranks,
            region: region.to_string(),
            strategy: "concurrent".into(),
            alloc: "huffman".into(),
            mapping: "partition".into(),
            io: "none".into(),
            planned_s_per_iter: time,
            plan_digest: "0".repeat(16),
            from_disk: false,
            error: None,
        }
    }

    #[test]
    fn pareto_keeps_only_dominant_points() {
        let rows = vec![
            outcome("a", 64, "r", 10.0),
            outcome("b", 64, "r", 12.0), // dominated by a (same ranks, slower)
            outcome("c", 128, "r", 8.0), // on front (more ranks, faster)
            outcome("d", 128, "r", 11.0), // dominated by a
            outcome("e", 256, "r", 8.0), // dominated by c (more ranks, not faster)
        ];
        let front = pareto_front(&rows);
        let keys: Vec<u32> = front.iter().map(|p| p.ranks).collect();
        assert_eq!(keys, vec![64, 128]);
        assert_eq!(front[0].planned_s_per_iter, 10.0);
        assert_eq!(front[1].planned_s_per_iter, 8.0);
    }

    #[test]
    fn errored_scenarios_never_reach_front_or_winners() {
        let mut bad = outcome("x", 1, "r", 0.001);
        bad.error = Some("boom".into());
        let rows = vec![bad, outcome("a", 64, "r", 10.0)];
        assert_eq!(pareto_front(&rows).len(), 1);
        let w = winners(&rows);
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].scenarios, 1);
    }

    #[test]
    fn winners_report_spread_per_region() {
        let rows = vec![
            outcome("a", 64, "r1", 10.0),
            outcome("b", 64, "r1", 15.0),
            outcome("c", 64, "r2", 7.0),
        ];
        let w = winners(&rows);
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].region, "r1");
        assert_eq!(w[0].planned_s_per_iter, 10.0);
        assert!((w[0].spread_pct - 50.0).abs() < 1e-9);
        assert_eq!(w[1].region, "r2");
        assert_eq!(w[1].spread_pct, 0.0);
    }

    #[test]
    fn plans_digest_is_order_independent() {
        let a = vec![outcome("k1", 64, "r", 1.0), outcome("k2", 64, "r", 2.0)];
        let b = vec![outcome("k2", 64, "r", 2.0), outcome("k1", 64, "r", 1.0)];
        assert_eq!(plans_digest(&a), plans_digest(&b));
        let mut c = a.clone();
        c[0].plan_digest = "f".repeat(16);
        assert_ne!(plans_digest(&a), plans_digest(&c));
    }

    #[test]
    fn disk_entries_round_trip_and_reject_garbage() {
        let entry = render_entry("00deadbeef001122", 1.25).unwrap();
        assert_eq!(parse_entry(&entry), Some(("00deadbeef001122".into(), 1.25)));
        assert_eq!(parse_entry("not json"), None);
        assert_eq!(
            parse_entry(
                "{\"v\":99,\"plan_digest\":\"00deadbeef001122\",\"planned_s_per_iter\":1.0}"
            ),
            None
        );
        assert_eq!(
            parse_entry("{\"v\":1,\"plan_digest\":\"zz\",\"planned_s_per_iter\":1.0}"),
            None
        );
        assert_eq!(
            parse_entry("{\"v\":1,\"plan_digest\":\"00deadbeef001122\"}"),
            None
        );
    }
}
