//! `nestwx-analyze` — static enforcement of the workspace's headline
//! invariants.
//!
//! The reproduction's guarantees — bitwise-identical `SimReport`s across
//! engines, obs-on/off equivalence, byte-identical cache hits in
//! `nestwx-serve` — were until now enforced only by runtime tests, which
//! cannot see a nondeterminism bug until an input happens to trigger it.
//! This crate adds the static layer: a token-level pass over the whole
//! workspace (the offline build vendors no `syn`, so the analyzer lexes
//! rather than parses — see `lexer`) that denies the constructs those
//! invariants cannot survive:
//!
//! * **determinism rules** (`NW-D…`): unordered collections and their
//!   iteration in planner/canon/replay/cache paths, raw `Instant::now`
//!   outside the `nestwx-obs` clock shim, wall-clock/entropy sources,
//!   thread spawns inside replay code, and ambient filesystem paths
//!   (temp dir/cwd/home) where cache locations must flow through
//!   configuration;
//! * **serve robustness rules** (`NW-S…`): `unwrap`/`expect`/`panic!` in
//!   any crate the serve or fleet binaries link, raw `.lock()` without a
//!   poisoning policy, blocking syscalls in lock-holding modules,
//!   blocking socket I/O outside the readiness loop, deadline arithmetic
//!   that bypasses the `nestwx_obs::clock` shim, socket I/O on the fleet
//!   data path outside its designated transport module, and a second
//!   `lock_unpoisoned` while a bound guard is live.
//!
//! Every rule is per-file: a scope names the files it applies to, so a
//! scope covers every function a call could reach without a call graph
//! having to find the call. Rules are deny-by-default; the only escape is
//! an [`allowlist`] entry with a written justification, and every entry
//! must suppress exactly one diagnostic so the list can never rot. Run it
//! as `nestwx lint`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allowlist;
mod lexer;
pub mod rules;

pub use rules::{rule_desc, Finding, RULE_IDS};

use serde::Serialize;
use std::path::{Path, PathBuf};

/// Where each rule family applies. Paths are relative to [`LintConfig::root`],
/// `/`-separated; entries ending in `/` are directory prefixes, empty
/// entries match everything, anything else matches one file exactly.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Workspace root the scan is anchored at.
    pub root: PathBuf,
    /// Determinism-critical files (NW-D001/D004/D005/D006): everything
    /// planning, prediction, sweep expansion and fleet partitioning run.
    pub(crate) determinism_paths: Vec<String>,
    /// Every crate the serve and fleet binaries link (NW-S001): a panic
    /// anywhere in them can kill a worker, a connection or the
    /// coordinator, whichever call path reaches it.
    pub request_paths: Vec<String>,
    /// The clock shim — the only place allowed to call `Instant::now`.
    pub(crate) clock_files: Vec<String>,
    /// The sync helper(s) — the only places allowed to call `.lock()`.
    pub(crate) lock_helper_files: Vec<String>,
    /// Modules that hold cache-shard/queue locks (NW-S003).
    pub(crate) shard_modules: Vec<String>,
    /// Where NW-S002 (raw lock) and NW-S008 (nested lock guard) apply.
    pub(crate) lock_scope: Vec<String>,
    /// Where NW-S004 (blocking socket I/O) applies.
    pub(crate) socket_scope: Vec<String>,
    /// The readiness loop itself — the only files allowed to touch
    /// sockets directly (accept/read/write), exempt from NW-S004.
    pub(crate) readiness_files: Vec<String>,
    /// Where NW-S005 (raw deadline arithmetic) applies: deadline checks
    /// must go through the `nestwx_obs::clock` shim.
    pub(crate) deadline_scope: Vec<String>,
    /// Where NW-S006 (raw span timestamps) applies: the serve request
    /// path that stamps flight-recorder spans — every timestamp there
    /// must come from `nestwx_obs::clock` so recorded traces replay
    /// under virtual time.
    pub(crate) span_scope: Vec<String>,
    /// Where NW-S007 (fleet socket confinement) applies: the fleet crate,
    /// whose no-hang guarantees depend on every socket syscall flowing
    /// through one transport module.
    pub(crate) fleet_scope: Vec<String>,
    /// The fleet's designated transport module — the only file in
    /// `fleet_scope` allowed to touch sockets, exempt from NW-S007.
    pub(crate) transport_files: Vec<String>,
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
                // function of the scenario, and so must everything the
                // planner, the predictor store and adaptive replanning
                // call into.
                "crates/core/src/planner.rs",
                "crates/core/src/canon.rs",
                "crates/core/src/strategy.rs",
                "crates/core/src/profile.rs",
                "crates/core/src/store.rs",
                "crates/core/src/adaptive.rs",
                "crates/grid/src/",
                "crates/predict/src/",
                "crates/alloc/src/",
                // Compiled-schedule replay: SimReports are compared bitwise
                // across engines.
                "crates/netsim/src/",
                // Mapping/embedding: plan output order must be stable.
                "crates/topo/src/",
                // Fleet partitioning assigns nests to workers from the same
                // scenario bytes on every process, and the solver state it
                // partitions must evolve identically on each.
                "crates/fleet/src/scenario.rs",
                "crates/miniwrf/src/field.rs",
                "crates/miniwrf/src/model.rs",
                "crates/miniwrf/src/nest.rs",
                "crates/miniwrf/src/solver.rs",
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
            // The `[dependencies]` closure of nestwx-serve and nestwx-fleet;
            // `scopes_cover_the_serve_and_fleet_dependency_closure` in
            // tests/lint_fixtures.rs fails when a new dependency is missing.
            request_paths: s(&[
                "crates/alloc/src/",
                "crates/core/src/",
                "crates/fleet/src/",
                "crates/grid/src/",
                "crates/miniwrf/src/",
                "crates/netsim/src/",
                "crates/obs/src/",
                "crates/predict/src/",
                "crates/serve/src/",
                "crates/topo/src/",
            ]),
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
}

impl LintReport {
    /// True when the run is clean: no surviving findings and a healthy
    /// allowlist.
    pub fn ok(&self) -> bool {
        self.findings.is_empty() && self.allow_errors.is_empty()
    }

    /// Renders the human-readable report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(
                out,
                "{}:{}:{}: [{}] {}",
                f.file, f.line, f.col, f.rule, f.message
            );
        }
        for e in &self.allow_errors {
            let _ = writeln!(out, "allowlist: {e}");
        }
        let _ = writeln!(
            out,
            "{} file(s) scanned, {} violation(s), {} suppressed, {} allowlist error(s)",
            self.files_scanned,
            self.findings.len(),
            self.suppressed.len(),
            self.allow_errors.len()
        );
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

/// Runs the lint over every non-test `.rs` file under the config's root,
/// applying allowlist `allow_text` (pass `""` for none).
pub fn run_lint(cfg: &LintConfig, allow_text: &str) -> std::io::Result<LintReport> {
    let mut files = Vec::new();
    collect_rs_files(&cfg.root, &mut files)?;
    let mut findings = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(&cfg.root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(path)?;
        findings.extend(rules::check_file(&rel, &src, cfg));
    }
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    let (entries, mut allow_errors) = allowlist::parse(allow_text);
    let (kept, suppressed, apply_errors) = allowlist::apply(findings, &entries);
    allow_errors.extend(apply_errors);
    Ok(LintReport {
        findings: kept,
        suppressed,
        allow_errors,
        files_scanned: files.len(),
    })
}

/// Convenience: [`run_lint`] reading the allowlist from `allow_path` when
/// the file exists (a missing allowlist means "allow nothing").
pub fn run_lint_with_allow_file(
    cfg: &LintConfig,
    allow_path: &Path,
) -> std::io::Result<LintReport> {
    let allow_text = match std::fs::read_to_string(allow_path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e),
    };
    run_lint(cfg, &allow_text)
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
        };
        assert!(r.ok());
        assert!(r.render().contains("3 file(s) scanned"));
    }
}
