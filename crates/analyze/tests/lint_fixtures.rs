//! Fixture coverage for every lint rule: each known-bad snippet under
//! `tests/fixtures/` must fire its rule at the expected span, and the
//! allowlist must suppress exactly one diagnostic per entry.

use nestwx_analyze::{run_lint, Finding, LintConfig, RULE_IDS};
use std::path::{Path, PathBuf};

fn fixtures_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
}

fn fixture_report(allow: &str) -> nestwx_analyze::LintReport {
    run_lint(&LintConfig::fixtures(fixtures_root()), allow).expect("fixture scan")
}

fn has(findings: &[Finding], rule: &str, file: &str, line: u32) -> bool {
    findings
        .iter()
        .any(|f| f.rule == rule && f.file == file && f.line == line)
}

#[test]
fn every_rule_fires_at_the_expected_span() {
    let report = fixture_report("");
    let f = &report.findings;
    // (rule, fixture file, line) — kept in sync with the `// line N` markers
    // inside the fixtures.
    let expected = [
        ("NW-D001", "d001_hashmap.rs", 4),
        ("NW-D002", "d002_instant.rs", 3),
        ("NW-D003", "d003_entropy.rs", 3),
        ("NW-D003", "d003_entropy.rs", 4),
        ("NW-D004", "d004_iteration.rs", 5),
        ("NW-D005", "d005_spawn.rs", 3),
        ("NW-D006", "d006_ambient_path.rs", 3),
        ("NW-D006", "d006_ambient_path.rs", 6),
        ("NW-S001", "s001_unwrap.rs", 3),
        ("NW-S001", "s001_unwrap.rs", 4),
        ("NW-S001", "s001_unwrap.rs", 6),
        ("NW-S002", "s002_lock.rs", 3),
        ("NW-S003", "s003_blocking.rs", 3),
        ("NW-S003", "s003_blocking.rs", 4),
        ("NW-S004", "s004_blocking_socket.rs", 3),
        ("NW-S004", "s004_blocking_socket.rs", 4),
        ("NW-S004", "s004_blocking_socket.rs", 5),
        ("NW-S005", "s005_raw_deadline.rs", 3),
        ("NW-S005", "s005_raw_deadline.rs", 6),
        ("NW-S006", "s006_span_timestamp.rs", 3),
        ("NW-S006", "s006_span_timestamp.rs", 5),
        ("NW-S007", "s007_fleet_socket.rs", 4),
        ("NW-S007", "s007_fleet_socket.rs", 5),
        ("NW-S007", "s007_fleet_socket.rs", 6),
        ("NW-S008", "s008_nested_lock.rs", 4),
    ];
    for (rule, file, line) in expected {
        assert!(
            has(f, rule, file, line),
            "{rule} did not fire at {file}:{line}; findings: {f:#?}"
        );
    }
    // Every rule in the catalog is exercised by at least one fixture.
    for rule in RULE_IDS {
        assert!(
            f.iter().any(|x| x.rule == rule),
            "no fixture fires {rule}; findings: {f:#?}"
        );
    }
}

#[test]
fn test_modules_inside_fixtures_are_exempt() {
    let report = fixture_report("");
    // s001_unwrap.rs has an unwrap inside #[cfg(test)] mod tests — it must
    // NOT be reported (3 request-path findings only).
    let s001: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.file == "s001_unwrap.rs" && f.rule == "NW-S001")
        .collect();
    assert_eq!(s001.len(), 3, "{s001:#?}");
}

#[test]
fn allowlist_suppresses_exactly_one_diagnostic_per_entry() {
    let baseline = fixture_report("");
    let total = baseline.findings.len();
    let allow = "NW-D002 d002_instant.rs:3 -- fixture waiver exercising the allowlist\n\
                 NW-D005 d005_spawn.rs:3 -- second waiver\n\
                 NW-S006 s006_span_timestamp.rs:3 -- span-rule waiver (leaves the D002 twin)\n";
    let report = fixture_report(allow);
    assert!(report.allow_errors.is_empty(), "{:?}", report.allow_errors);
    assert_eq!(report.suppressed.len(), 3);
    assert_eq!(report.findings.len(), total - 3);
    assert!(!has(&report.findings, "NW-D002", "d002_instant.rs", 3));
    assert!(has(&report.suppressed, "NW-D002", "d002_instant.rs", 3));
    // The S006 waiver suppresses only the span rule: the D002 finding at
    // the same position survives.
    assert!(!has(
        &report.findings,
        "NW-S006",
        "s006_span_timestamp.rs",
        3
    ));
    assert!(has(
        &report.findings,
        "NW-D002",
        "s006_span_timestamp.rs",
        3
    ));
}

#[test]
fn stale_allowlist_entry_fails_the_run() {
    let report = fixture_report("NW-D002 d002_instant.rs:999 -- no longer there\n");
    assert!(!report.ok());
    assert_eq!(report.allow_errors.len(), 1);
    assert!(report.allow_errors[0].contains("stale"));
}

/// No rule has an `NW-G…` id, so an allow entry naming one matches
/// nothing and is reported stale like any other.
#[test]
fn graph_rule_entries_are_not_stale_without_the_graph_pass() {
    let report = fixture_report("NW-G003 d002_instant.rs:999 -- graph-only rule\n");
    assert!(!report.ok());
    assert_eq!(report.allow_errors.len(), 1, "{:#?}", report.allow_errors);
    assert!(report.allow_errors[0].contains("stale"));
}

#[test]
fn fixture_run_is_nonzero_and_workspace_scan_sees_files() {
    let report = fixture_report("");
    assert!(!report.ok(), "fixtures must fail the lint");
    assert_eq!(report.files_scanned, RULE_IDS.len(), "one fixture per rule");
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn workspace_graph_report() -> nestwx_analyze::LintReport {
    let root = workspace_root();
    nestwx_analyze::run_lint_with_allow_file(
        &LintConfig::workspace_default(&root),
        &root.join("lint.allow"),
    )
    .expect("workspace scan")
}

/// The workspace lints clean under the same config and allowlist
/// `nestwx lint` uses: every finding is fixed or justified in lint.allow,
/// and every lint.allow entry still matches its finding.
#[test]
fn workspace_graph_quality() {
    let report = workspace_graph_report();
    assert!(
        report.findings.is_empty(),
        "workspace findings must be fixed or justified in lint.allow: {:#?}",
        report.findings
    );
    assert!(report.allow_errors.is_empty(), "{:#?}", report.allow_errors);
    assert!(report.files_scanned > 100, "{} files", report.files_scanned);
}

/// The `[dependencies]` of `crates/<dir>/Cargo.toml` that are workspace
/// crates, as their directory names (read from the root manifest's
/// `nestwx-x = { path = "crates/x" }` lines).
fn workspace_deps(root: &Path, dir: &str) -> Vec<String> {
    let read = |p: PathBuf| std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("{p:?}: {e}"));
    let root_manifest = read(root.join("Cargo.toml"));
    let dir_of = |package: &str| {
        root_manifest.lines().find_map(|l| {
            let rest = l.strip_prefix(package)?.trim_start().strip_prefix('=')?;
            let path = rest.split("path = \"crates/").nth(1)?;
            Some(path.split('"').next()?.to_string())
        })
    };
    let manifest = read(root.join("crates").join(dir).join("Cargo.toml"));
    let deps = manifest
        .split("[dependencies]")
        .nth(1)
        .map(|rest| rest.split("\n[").next().unwrap_or(""))
        .unwrap_or("");
    deps.lines()
        .filter_map(|l| l.split(['.', ' ', '=']).next())
        .filter(|name| name.starts_with("nestwx-"))
        .map(|name| dir_of(name).unwrap_or_else(|| panic!("{name} not in the root manifest")))
        .collect()
}

/// NW-S001 applies to every crate the serve and fleet binaries link, so
/// a panic is flagged whichever call path reaches it. A dependency added
/// to either crate (or to anything they depend on) without its scope
/// entry fails here.
#[test]
fn scopes_cover_the_serve_and_fleet_dependency_closure() {
    let root = workspace_root();
    let cfg = LintConfig::workspace_default(&root);
    let mut closure: Vec<String> = vec!["serve".into(), "fleet".into()];
    let mut i = 0;
    while i < closure.len() {
        for dep in workspace_deps(&root, &closure[i]) {
            if !closure.contains(&dep) {
                closure.push(dep);
            }
        }
        i += 1;
    }
    assert!(closure.len() >= 10, "closure too small: {closure:?}");
    for dir in &closure {
        let scope = format!("crates/{dir}/src/");
        assert!(
            cfg.request_paths.contains(&scope),
            "{scope} is linked by serve/fleet but missing from request_paths"
        );
    }
}

/// Two identical runs must serialize byte-identically — the `--json`
/// report (findings order, suppressions, descriptions) is part of the
/// deterministic surface.
#[test]
fn workspace_json_report_is_byte_deterministic() {
    let a = serde_json::to_string_pretty(&workspace_graph_report()).expect("serializes");
    let b = serde_json::to_string_pretty(&workspace_graph_report()).expect("serializes");
    assert_eq!(a, b);
}

/// Every finding record carries its rule description, so downstream
/// consumers of `--json` never need the rule table.
#[test]
fn json_findings_carry_rule_descriptions() {
    let report = fixture_report("");
    assert!(!report.findings.is_empty());
    let json = serde_json::to_string_pretty(&report).expect("serializes");
    let v: serde_json::Value = serde_json::from_str(&json).expect("round-trips");
    let findings = v["findings"].as_array().expect("findings array");
    for f in findings {
        let desc = f["desc"].as_str().expect("desc present");
        assert!(!desc.is_empty());
        assert_eq!(
            desc,
            nestwx_analyze::rule_desc(f["rule"].as_str().expect("rule present"))
        );
    }
}
