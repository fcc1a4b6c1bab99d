//! Fixture coverage for every lint rule: each known-bad snippet under
//! `tests/fixtures/` must fire its rule at the expected span, and the
//! allowlist must suppress exactly one diagnostic per entry.

use nestwx_analyze::{run_lint, Finding, LintConfig, RULE_IDS};
use std::path::PathBuf;

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

/// `lint.allow` also carries the graph rules' justifications; a run
/// without the graph pass cannot produce those findings and must not
/// call their entries stale.
#[test]
fn graph_rule_entries_are_not_stale_without_the_graph_pass() {
    let report = fixture_report("NW-G003 d002_instant.rs:999 -- graph-only rule\n");
    assert!(report.allow_errors.is_empty(), "{:#?}", report.allow_errors);
}

#[test]
fn fixture_run_is_nonzero_and_workspace_scan_sees_files() {
    let report = fixture_report("");
    assert!(!report.ok(), "fixtures must fail the lint");
    assert_eq!(report.files_scanned, 13, "one fixture per rule");
}

fn workspace_graph_report() -> nestwx_analyze::LintReport {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let allow = std::fs::read_to_string(root.join("lint.allow")).unwrap_or_default();
    nestwx_analyze::run_lint_ex(
        &LintConfig::workspace_default(&root),
        Some(&nestwx_analyze::GraphConfig::workspace_default()),
        &allow,
    )
    .expect("workspace scan")
}

/// The committed graph-quality ratchet: the workspace must lint clean
/// under `--graph` (fixed or justified in lint.allow), and resolution
/// coverage must not regress past the committed unresolved budget.
#[test]
fn workspace_graph_quality() {
    let report = workspace_graph_report();
    assert!(
        report.findings.is_empty(),
        "workspace graph findings must be fixed or justified in lint.allow: {:#?}",
        report.findings
    );
    assert!(report.allow_errors.is_empty(), "{:#?}", report.allow_errors);
    assert!(report.graph_errors.is_empty(), "{:#?}", report.graph_errors);
    let g = report.graph.as_ref().expect("graph ran");
    assert!(g.stats.functions > 500, "graph too small: {:?}", g.stats);
    let budget = nestwx_analyze::GraphConfig::workspace_default().max_unresolved;
    assert!(
        g.stats.unresolved <= budget,
        "{} unresolved > committed budget {budget}",
        g.stats.unresolved
    );
    // Resolution coverage itself is ratcheted too: ≥95% of call sites
    // must be classified (resolved or external), not unresolved.
    let classified = g.stats.resolved + g.stats.external;
    assert!(
        classified * 100 >= g.stats.calls * 95,
        "classification regressed: {:?}",
        g.stats
    );
}

/// Two identical runs must serialize byte-identically — the `--json`
/// report (findings order, descriptions, chains, graph stats) is part of
/// the deterministic surface.
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
