//! `nestwx-analyze` — static enforcement of the workspace's headline
//! invariants.
//!
//! The reproduction's guarantees — bitwise-identical `SimReport`s across
//! engines, obs-on/off equivalence, byte-identical cache hits in
//! `nestwx-serve` — were until now enforced only by runtime tests, which
//! cannot see a nondeterminism bug until an input happens to trigger it.
//! This crate adds the static layer: a token-level pass over the whole
//! workspace (the offline build vendors no `syn`, so the analyzer lexes
//! rather than parses — see [`lexer`]) that denies the constructs those
//! invariants cannot survive:
//!
//! * **determinism rules** (`NW-D…`): unordered collections and their
//!   iteration in planner/canon/replay/cache paths, raw `Instant::now`
//!   outside the `nestwx-obs` clock shim, wall-clock/entropy sources,
//!   thread spawns inside replay code, and ambient filesystem paths
//!   (temp dir/cwd/home) where cache locations must flow through
//!   configuration;
//! * **serve robustness rules** (`NW-S…`): `unwrap`/`expect`/`panic!` on
//!   the request-handling path, raw `.lock()` without a poisoning policy,
//!   blocking syscalls in lock-holding modules, blocking socket I/O
//!   outside the readiness loop, deadline arithmetic that bypasses
//!   the `nestwx_obs::clock` shim, and socket I/O on the fleet data
//!   path outside its designated transport module.
//!
//! Rules are deny-by-default; the only escape is an [`allowlist`] entry
//! with a written justification, and every entry must suppress exactly one
//! diagnostic so the list can never rot. Run it as `nestwx lint`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allowlist;
pub mod graph;
pub mod lexer;
pub mod reach;
pub mod resolve;
pub mod rules;

pub use allowlist::AllowEntry;
pub use resolve::GraphStats;
pub use rules::{rule_desc, ChainStep, Finding, RULE_IDS};

use serde::Serialize;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Where each rule family applies. Paths are relative to [`LintConfig::root`],
/// `/`-separated; entries ending in `/` are directory prefixes, empty
/// entries match everything, anything else matches one file exactly.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Workspace root the scan is anchored at.
    pub root: PathBuf,
    /// Determinism-critical files (NW-D001/D004/D005).
    pub determinism_paths: Vec<String>,
    /// Request-handling crates (NW-S001).
    pub request_paths: Vec<String>,
    /// The clock shim — the only place allowed to call `Instant::now`.
    pub clock_files: Vec<String>,
    /// The sync helper(s) — the only places allowed to call `.lock()`.
    pub lock_helper_files: Vec<String>,
    /// Modules that hold cache-shard/queue locks (NW-S003).
    pub shard_modules: Vec<String>,
    /// Where NW-S002 (raw lock) applies at all.
    pub lock_scope: Vec<String>,
    /// Where NW-S004 (blocking socket I/O) applies.
    pub socket_scope: Vec<String>,
    /// The readiness loop itself — the only files allowed to touch
    /// sockets directly (accept/read/write), exempt from NW-S004.
    pub readiness_files: Vec<String>,
    /// Where NW-S005 (raw deadline arithmetic) applies: deadline checks
    /// must go through the `nestwx_obs::clock` shim.
    pub deadline_scope: Vec<String>,
    /// Where NW-S006 (raw span timestamps) applies: the serve request
    /// path that stamps flight-recorder spans — every timestamp there
    /// must come from `nestwx_obs::clock` so recorded traces replay
    /// under virtual time.
    pub span_scope: Vec<String>,
    /// Where NW-S007 (fleet socket confinement) applies: the fleet crate,
    /// whose no-hang guarantees depend on every socket syscall flowing
    /// through one transport module.
    pub fleet_scope: Vec<String>,
    /// The fleet's designated transport module — the only file in
    /// `fleet_scope` allowed to touch sockets, exempt from NW-S007.
    pub transport_files: Vec<String>,
}

impl LintConfig {
    /// The workspace ruleset: the scopes encoding which paths carry the
    /// determinism and serving guarantees of this repository.
    pub fn workspace_default(root: impl Into<PathBuf>) -> LintConfig {
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect();
        LintConfig {
            root: root.into(),
            determinism_paths: s(&[
                // Planner + canonical encoding: plan bytes must be a pure
                // function of the scenario.
                "crates/core/src/planner.rs",
                "crates/core/src/canon.rs",
                "crates/core/src/strategy.rs",
                // Compiled-schedule replay: SimReports are compared bitwise
                // across engines.
                "crates/netsim/src/",
                // Mapping/embedding: plan output order must be stable.
                "crates/topo/src/mapping.rs",
                "crates/topo/src/embed.rs",
                // Serve render/cache path: cache hits must be byte-identical
                // to fresh computations.
                "crates/serve/src/cache.rs",
                "crates/serve/src/server.rs",
                "crates/serve/src/reply.rs",
                "crates/serve/src/queue.rs",
                "crates/serve/src/keys.rs",
                // Disk-persisted plan cache + sweep engine: cache locations
                // and swept plan bytes must be pure functions of config
                // (NW-D006 — no ambient temp dir / cwd).
                "crates/serve/src/disk.rs",
                "crates/sweep/src/",
            ]),
            request_paths: s(&["crates/serve/src/", "crates/netsim/src/"]),
            clock_files: s(&["crates/obs/src/clock.rs"]),
            lock_helper_files: s(&["crates/serve/src/sync.rs", "crates/core/src/store.rs"]),
            shard_modules: s(&[
                "crates/serve/src/cache.rs",
                "crates/serve/src/reply.rs",
                "crates/serve/src/queue.rs",
            ]),
            lock_scope: s(&["crates/", "src/"]),
            socket_scope: s(&["crates/serve/src/"]),
            readiness_files: s(&[
                "crates/serve/src/event_loop.rs",
                "crates/serve/src/conn.rs",
                "crates/serve/src/client.rs",
            ]),
            deadline_scope: s(&["crates/serve/src/"]),
            span_scope: s(&[
                "crates/serve/src/flight.rs",
                "crates/serve/src/event_loop.rs",
                "crates/serve/src/conn.rs",
                "crates/serve/src/reply.rs",
                "crates/serve/src/server.rs",
            ]),
            fleet_scope: s(&["crates/fleet/src/"]),
            transport_files: s(&["crates/fleet/src/net.rs"]),
        }
    }

    /// A ruleset for the fixture tree: every rule applies everywhere under
    /// `root`, with no shim exemptions — known-bad snippets must all fire.
    pub fn fixtures(root: impl Into<PathBuf>) -> LintConfig {
        LintConfig {
            root: root.into(),
            determinism_paths: vec![String::new()],
            request_paths: vec![String::new()],
            clock_files: vec![],
            lock_helper_files: vec![],
            shard_modules: vec![String::new()],
            lock_scope: vec![String::new()],
            socket_scope: vec![String::new()],
            readiness_files: vec![],
            deadline_scope: vec![String::new()],
            span_scope: vec![String::new()],
            fleet_scope: vec![String::new()],
            transport_files: vec![],
        }
    }

    /// A ruleset for the *graph* fixture trees: every per-file scope is
    /// empty so only the interprocedural rules fire and expected chains
    /// can be asserted without per-file noise.
    pub fn graph_fixtures(root: impl Into<PathBuf>) -> LintConfig {
        LintConfig {
            root: root.into(),
            determinism_paths: vec![],
            request_paths: vec![],
            clock_files: vec![],
            lock_helper_files: vec![],
            shard_modules: vec![],
            lock_scope: vec![],
            socket_scope: vec![],
            readiness_files: vec![],
            deadline_scope: vec![],
            span_scope: vec![],
            fleet_scope: vec![],
            transport_files: vec![],
        }
    }
}

/// Configuration of the workspace-graph pass: the reachability roots the
/// interprocedural rules seed from, plus the honesty budget on name
/// resolution.
#[derive(Debug, Clone)]
pub struct GraphConfig {
    /// Qname suffixes of NW-G001 determinism roots (planner, predictor,
    /// sweep expansion, fleet partitioning).
    pub taint_roots: Vec<String>,
    /// Qname suffixes of NW-G003 availability roots (serve request loop,
    /// fleet coordinator).
    pub panic_roots: Vec<String>,
    /// File scopes where slice indexing counts as a panic site for
    /// NW-G003 (indexing is ubiquitous and mostly checked; flag it only
    /// where it has bitten before).
    pub index_modules: Vec<String>,
    /// Committed ceiling on unresolved call sites: the lint fails when
    /// resolution quality regresses past it, so graph coverage can only
    /// ratchet tighter.
    pub max_unresolved: usize,
}

impl GraphConfig {
    /// The workspace graph ruleset: roots are the determinism-critical
    /// entrypoints named in DESIGN.md plus the serve/fleet availability
    /// loops.
    pub fn workspace_default() -> GraphConfig {
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect();
        GraphConfig {
            taint_roots: s(&[
                // Plan bytes are a pure function of the scenario.
                "Planner::plan",
                // Closed-loop prediction feeds planning (ROADMAP): its
                // outputs must be as deterministic as the plans they steer.
                "ExecTimePredictor::predict",
                // Sweep expansion derives scenario grids; cache keys hang
                // off its output bytes.
                "SweepSpec::expand",
                // Fleet partitioning assigns nests to workers from the
                // same scenario bytes on every process.
                "build_model",
                "nest_weights",
                "partition_nests",
            ]),
            panic_roots: s(&[
                // The serve worker thread and reader loop: a panic kills
                // the worker or wedges the connection.
                "worker_loop",
                "ReaderLoop::handle_line",
                // The fleet coordinator: a panic strands every worker.
                "run_coordinator",
            ]),
            index_modules: vec![],
            // Committed threshold — see `workspace_graph_quality` in
            // tests/lint_fixtures.rs; lower it as resolution improves,
            // never raise it without a written reason. Measured 282 at
            // commit time (97% of ~9.1k call sites classified); the rest
            // are cross-crate method calls on field receivers, which a
            // token-level resolver cannot type.
            max_unresolved: 290,
        }
    }

    /// Graph config for the fixture trees: roots match the fixtures'
    /// entry functions, and everything must resolve.
    pub fn fixtures() -> GraphConfig {
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect();
        GraphConfig {
            taint_roots: s(&["plan_entry"]),
            panic_roots: s(&["handle_request"]),
            index_modules: vec![],
            max_unresolved: 0,
        }
    }
}

/// Call-graph section of a lint report (present only under `--graph`).
#[derive(Debug, Clone, Serialize)]
pub struct GraphSummary {
    /// Aggregate resolution statistics.
    pub stats: GraphStats,
    /// Unresolved call sites per file — reported, never silently dropped.
    pub unresolved_by_file: BTreeMap<String, usize>,
}

/// The outcome of one lint run.
#[derive(Debug, Clone, Serialize)]
pub struct LintReport {
    /// Violations that survived the allowlist, sorted by (file, line, col).
    pub findings: Vec<Finding>,
    /// Violations suppressed by an allowlist entry (each exactly once).
    pub suppressed: Vec<Finding>,
    /// Allowlist problems: parse errors, stale entries, ambiguous entries.
    pub allow_errors: Vec<String>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Call-graph statistics when the graph pass ran.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub graph: Option<GraphSummary>,
    /// Graph-pass problems (unresolved-call budget exceeded).
    #[serde(skip_serializing_if = "Vec::is_empty")]
    pub graph_errors: Vec<String>,
}

impl LintReport {
    /// True when the run is clean: no surviving findings, a healthy
    /// allowlist, and (when the graph ran) resolution within budget.
    pub fn ok(&self) -> bool {
        self.findings.is_empty() && self.allow_errors.is_empty() && self.graph_errors.is_empty()
    }

    /// Renders the human-readable report. Graph findings print their full
    /// call chain indented under the diagnostic line.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(
                out,
                "{}:{}:{}: [{}] {}",
                f.file, f.line, f.col, f.rule, f.message
            );
            for s in &f.chain {
                let _ = writeln!(out, "    via {} at {}:{}:{}", s.func, s.file, s.line, s.col);
            }
        }
        for e in &self.allow_errors {
            let _ = writeln!(out, "allowlist: {e}");
        }
        for e in &self.graph_errors {
            let _ = writeln!(out, "graph: {e}");
        }
        let _ = writeln!(
            out,
            "{} file(s) scanned, {} violation(s), {} suppressed, {} allowlist error(s)",
            self.files_scanned,
            self.findings.len(),
            self.suppressed.len(),
            self.allow_errors.len()
        );
        if let Some(g) = &self.graph {
            let _ = writeln!(
                out,
                "graph: {} function(s), {} call(s): {} resolved, {} external, {} unresolved",
                g.stats.functions,
                g.stats.calls,
                g.stats.resolved,
                g.stats.external,
                g.stats.unresolved
            );
        }
        out
    }
}

/// Directories never scanned (third-party code, build output, test code —
/// tests may unwrap and time freely, and so may the out-of-workspace
/// `benchmark/` harness, which times the crates from outside).
const SKIP_DIRS: [&str; 9] = [
    "target",
    "vendor",
    "tests",
    "benches",
    "benchmark",
    "examples",
    "fixtures",
    ".git",
    ".github",
];

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if SKIP_DIRS.contains(&name.as_str()) {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if path.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(path);
        }
    }
    Ok(())
}

/// Derives the (crate name, module path) identity of a workspace file from
/// its relative path. Crate names come from `crate_names` (dir → package
/// name, possibly empty for fixture trees, falling back to the dir name).
fn file_identity(rel: &str, crate_names: &BTreeMap<String, String>) -> (String, Vec<String>) {
    let parts: Vec<&str> = rel.split('/').collect();
    let (crate_key, under_src): (&str, &[&str]) = match parts.as_slice() {
        ["crates", dir, "src", rest @ ..] => (dir, rest),
        ["src", rest @ ..] => ("", rest),
        _ => ("", &[]),
    };
    let crate_name = crate_names.get(crate_key).cloned().unwrap_or_else(|| {
        if crate_key.is_empty() {
            "nestwx".into()
        } else {
            crate_key.into()
        }
    });
    let mut module: Vec<String> = Vec::new();
    for (i, seg) in under_src.iter().enumerate() {
        if i + 1 == under_src.len() {
            // File segment: lib/main/mod add nothing; others add the stem.
            let stem = seg.strip_suffix(".rs").unwrap_or(seg);
            if !matches!(stem, "lib" | "main" | "mod") {
                module.push(stem.to_string());
            }
        } else {
            module.push(seg.to_string());
        }
    }
    (crate_name, module)
}

/// Reads `name = "…"` out of a Cargo.toml (line scan — the workspace's
/// manifests are trivial and the offline build has no toml parser).
fn manifest_name(path: &Path) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("name") {
            let rest = rest.trim_start();
            if let Some(rest) = rest.strip_prefix('=') {
                return Some(rest.trim().trim_matches('"').to_string());
            }
        }
    }
    None
}

/// Maps each `crates/<dir>` (and `""` for the root package) to its package
/// name, falling back to the directory name for fixture trees without
/// manifests.
fn workspace_crate_names(root: &Path) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    if let Some(n) = manifest_name(&root.join("Cargo.toml")) {
        out.insert(String::new(), n);
    }
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        let mut dirs: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        dirs.sort();
        for d in dirs {
            if !d.is_dir() {
                continue;
            }
            let dir = d
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if let Some(n) = manifest_name(&d.join("Cargo.toml")) {
                out.insert(dir, n);
            }
        }
    }
    out
}

/// Runs the lint over every non-test `.rs` file under the config's root,
/// applying allowlist `allow_text` (pass `""` for none).
pub fn run_lint(cfg: &LintConfig, allow_text: &str) -> std::io::Result<LintReport> {
    run_lint_ex(cfg, None, allow_text)
}

/// [`run_lint`] plus, when `graph_cfg` is set, the workspace call-graph
/// pass: item parsing, name resolution, and the NW-G rules. Graph findings
/// merge into the same finding list (and allowlist namespace) as the
/// per-file rules.
pub fn run_lint_ex(
    cfg: &LintConfig,
    graph_cfg: Option<&GraphConfig>,
    allow_text: &str,
) -> std::io::Result<LintReport> {
    let mut files = Vec::new();
    collect_rs_files(&cfg.root, &mut files)?;
    let crate_names = workspace_crate_names(&cfg.root);
    let mut findings = Vec::new();
    let mut parsed: Vec<graph::FileGraph> = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(&cfg.root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(path)?;
        findings.extend(rules::check_file(&rel, &src, cfg));
        if graph_cfg.is_some() {
            let (krate, module) = file_identity(&rel, &crate_names);
            parsed.push(graph::parse_file(&rel, &krate, &module, &src));
        }
    }
    let mut graph_summary = None;
    let mut graph_errors = Vec::new();
    if let Some(gcfg) = graph_cfg {
        let ws = resolve::Workspace::build(parsed);
        findings.extend(reach::check_graph(&ws, cfg, gcfg));
        if ws.stats.unresolved > gcfg.max_unresolved {
            graph_errors.push(format!(
                "{} unresolved call site(s) exceed the committed budget of {} — \
                 improve resolution (or, with a written reason, raise the budget)",
                ws.stats.unresolved, gcfg.max_unresolved
            ));
        }
        graph_summary = Some(GraphSummary {
            stats: ws.stats,
            unresolved_by_file: ws.unresolved_by_file,
        });
    }
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    let (mut entries, mut allow_errors) = allowlist::parse(allow_text);
    if graph_cfg.is_none() {
        // Without the graph pass no NW-G finding can exist, so an entry
        // justifying one is not stale — it is simply not in play.
        entries.retain(|e| !e.rule.starts_with("NW-G"));
    }
    let (kept, suppressed, apply_errors) = allowlist::apply(findings, &entries);
    allow_errors.extend(apply_errors);
    Ok(LintReport {
        findings: kept,
        suppressed,
        allow_errors,
        files_scanned: files.len(),
        graph: graph_summary,
        graph_errors,
    })
}

/// Convenience: [`run_lint`] reading the allowlist from `allow_path` when
/// the file exists (a missing allowlist means "allow nothing").
pub fn run_lint_with_allow_file(
    cfg: &LintConfig,
    allow_path: &Path,
) -> std::io::Result<LintReport> {
    run_lint_with_allow_file_ex(cfg, None, allow_path)
}

/// [`run_lint_with_allow_file`] with an optional graph pass.
pub fn run_lint_with_allow_file_ex(
    cfg: &LintConfig,
    graph_cfg: Option<&GraphConfig>,
    allow_path: &Path,
) -> std::io::Result<LintReport> {
    let allow_text = match std::fs::read_to_string(allow_path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e),
    };
    run_lint_ex(cfg, graph_cfg, &allow_text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_default_scopes_are_relative_and_slashed() {
        let cfg = LintConfig::workspace_default(".");
        for p in cfg
            .determinism_paths
            .iter()
            .chain(&cfg.request_paths)
            .chain(&cfg.clock_files)
        {
            assert!(!p.starts_with('/'), "absolute scope {p}");
            assert!(!p.contains('\\'), "backslash scope {p}");
        }
    }

    #[test]
    fn report_render_lists_counts() {
        let r = LintReport {
            findings: vec![],
            suppressed: vec![],
            allow_errors: vec![],
            files_scanned: 3,
            graph: None,
            graph_errors: vec![],
        };
        assert!(r.ok());
        assert!(r.render().contains("3 file(s) scanned"));
    }
}
