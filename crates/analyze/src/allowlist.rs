//! The lint allowlist: the only way to ship a rule violation.
//!
//! Plain-text file, one entry per line:
//!
//! ```text
//! # comment
//! NW-S001 crates/netsim/src/sim.rs:1181 -- schedule compiler invariant; see DESIGN.md
//! NW-D001 crates/foo/src/bar.rs:12:9 -- keyed lookup only, never iterated
//! ```
//!
//! Grammar: `RULE PATH:LINE[:COL] -- REASON`. The reason is mandatory — an
//! allowlist entry without a written justification is itself an error.
//!
//! Semantics are deliberately strict: every entry must suppress **exactly
//! one** diagnostic. An entry that matches nothing is stale (the violation
//! was fixed — delete the entry); an entry that matches several diagnostics
//! is ambiguous (add the column). Both fail the lint run, so the allowlist
//! can only ever shrink-wrap the real violation set.

use crate::rules::Finding;
use serde::Serialize;

/// One parsed allowlist entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub(crate) struct AllowEntry {
    /// Rule id the entry suppresses.
    pub rule: String,
    /// Path relative to the lint root.
    pub file: String,
    /// 1-based line of the suppressed diagnostic.
    pub line: u32,
    /// Optional 1-based column (required when a line holds several
    /// diagnostics of the same rule).
    pub(crate) col: Option<u32>,
    /// The written justification.
    pub reason: String,
    /// Line of the entry in the allowlist file (for error messages).
    pub(crate) src_line: u32,
}

impl AllowEntry {
    fn matches(&self, f: &Finding) -> bool {
        self.rule == f.rule
            && self.file == f.file
            && self.line == f.line
            && self.col.map(|c| c == f.col).unwrap_or(true)
    }
}

/// Parses allowlist text. Returns entries and per-line parse errors.
pub(crate) fn parse(text: &str) -> (Vec<AllowEntry>, Vec<String>) {
    let mut entries = Vec::new();
    let mut errors = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let src_line = (i + 1) as u32;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((head, reason)) = line.split_once("--") else {
            errors.push(format!(
                "allowlist line {src_line}: missing `-- reason` justification"
            ));
            continue;
        };
        let reason = reason.trim();
        if reason.is_empty() {
            errors.push(format!("allowlist line {src_line}: empty justification"));
            continue;
        }
        let mut parts = head.split_whitespace();
        let (Some(rule), Some(loc), None) = (parts.next(), parts.next(), parts.next()) else {
            errors.push(format!(
                "allowlist line {src_line}: expected `RULE PATH:LINE[:COL] -- reason`"
            ));
            continue;
        };
        let mut segs = loc.rsplitn(3, ':');
        // rsplitn yields from the right: try COL, LINE, PATH then re-join.
        let (file, line_no, col) = match (segs.next(), segs.next(), segs.next()) {
            (Some(a), Some(b), Some(c)) => {
                // Either PATH:LINE:COL or a path containing ':' (not on
                // this repo's layout) — try numeric COL+LINE first.
                match (b.parse::<u32>(), a.parse::<u32>()) {
                    (Ok(l), Ok(co)) => (c.to_string(), l, Some(co)),
                    _ => match a.parse::<u32>() {
                        Ok(l) => (format!("{c}:{b}"), l, None),
                        Err(_) => {
                            errors.push(format!("allowlist line {src_line}: bad location `{loc}`"));
                            continue;
                        }
                    },
                }
            }
            (Some(a), Some(b), None) => match a.parse::<u32>() {
                Ok(l) => (b.to_string(), l, None),
                Err(_) => {
                    errors.push(format!("allowlist line {src_line}: bad line in `{loc}`"));
                    continue;
                }
            },
            _ => {
                errors.push(format!(
                    "allowlist line {src_line}: location must be PATH:LINE[:COL]"
                ));
                continue;
            }
        };
        entries.push(AllowEntry {
            rule: rule.to_string(),
            file: file.replace('\\', "/"),
            line: line_no,
            col,
            reason: reason.to_string(),
            src_line,
        });
    }
    (entries, errors)
}

/// Applies the allowlist to `findings`: returns the surviving findings, the
/// suppressed ones, and entry errors (stale / ambiguous entries).
pub(crate) fn apply(
    findings: Vec<Finding>,
    entries: &[AllowEntry],
) -> (Vec<Finding>, Vec<Finding>, Vec<String>) {
    let mut errors = Vec::new();
    let mut suppressed_idx = vec![false; findings.len()];
    for e in entries {
        let hits: Vec<usize> = findings
            .iter()
            .enumerate()
            .filter(|(_, f)| e.matches(f))
            .map(|(i, _)| i)
            .collect();
        match hits.len() {
            0 => errors.push(format!(
                "stale allowlist entry (line {}): {} {}:{} matches no diagnostic — \
                 the violation was fixed, delete the entry",
                e.src_line, e.rule, e.file, e.line
            )),
            1 => suppressed_idx[hits[0]] = true,
            n => errors.push(format!(
                "ambiguous allowlist entry (line {}): {} {}:{} matches {n} \
                 diagnostics — add the column (PATH:LINE:COL)",
                e.src_line, e.rule, e.file, e.line
            )),
        }
    }
    let mut kept = Vec::new();
    let mut suppressed = Vec::new();
    for (i, f) in findings.into_iter().enumerate() {
        if suppressed_idx[i] {
            suppressed.push(f);
        } else {
            kept.push(f);
        }
    }
    (kept, suppressed, errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, file: &str, line: u32, col: u32) -> Finding {
        Finding::at(rule, file, line, col, String::new())
    }

    #[test]
    fn parses_entries_and_rejects_reasonless_lines() {
        let (entries, errors) = parse(
            "# header\n\
             NW-S001 crates/a/src/b.rs:10 -- because\n\
             NW-D001 crates/a/src/b.rs:4:9 -- keyed lookup only\n\
             NW-D001 crates/a/src/b.rs:4\n",
        );
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].line, 10);
        assert_eq!(entries[1].col, Some(9));
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("line 4"));
    }

    #[test]
    fn entry_suppresses_exactly_one() {
        let (entries, errs) = parse("NW-S001 f.rs:3 -- ok\n");
        assert!(errs.is_empty());
        let findings = vec![
            finding("NW-S001", "f.rs", 3, 5),
            finding("NW-S001", "f.rs", 8, 1),
        ];
        let (kept, suppressed, errors) = apply(findings, &entries);
        assert_eq!(kept.len(), 1);
        assert_eq!(suppressed.len(), 1);
        assert_eq!(suppressed[0].line, 3);
        assert!(errors.is_empty());
    }

    #[test]
    fn stale_entry_is_an_error() {
        let (entries, _) = parse("NW-S001 f.rs:99 -- gone\n");
        let (kept, suppressed, errors) = apply(vec![finding("NW-S001", "f.rs", 3, 5)], &entries);
        assert_eq!(kept.len(), 1);
        assert!(suppressed.is_empty());
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("stale"));
    }

    #[test]
    fn ambiguous_entry_needs_a_column() {
        let (entries, _) = parse("NW-S001 f.rs:3 -- two on one line\n");
        let findings = vec![
            finding("NW-S001", "f.rs", 3, 5),
            finding("NW-S001", "f.rs", 3, 20),
        ];
        let (_, _, errors) = apply(findings.clone(), &entries);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("ambiguous"));
        // With the column it suppresses exactly one.
        let (entries, _) = parse("NW-S001 f.rs:3:20 -- the second one\n");
        let (kept, suppressed, errors) = apply(findings, &entries);
        assert!(errors.is_empty());
        assert_eq!((kept.len(), suppressed.len()), (1, 1));
        assert_eq!(suppressed[0].col, 20);
    }
}
