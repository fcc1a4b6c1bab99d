//! README's "Environment variables" table lists exactly the `NESTWX_*`
//! knobs the workspace reads: a knob added, renamed or deleted in code
//! without its row (or the reverse) fails here.
//!
//! Its "`nestwx serve` flags" table is held the same way, to the parser
//! and the usage synopsis.

use std::collections::BTreeSet;
use std::path::Path;

/// Every `"NESTWX_[A-Z0-9_]+"` string literal in `text`.
fn knob_literals(text: &str, out: &mut BTreeSet<String>) {
    const OPEN: &str = "\"NESTWX_";
    let mut rest = text;
    while let Some(at) = rest.find(OPEN) {
        let name = &rest[at + 1..];
        let len = name
            .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(name.len());
        if name[len..].starts_with('"') {
            out.insert(name[..len].to_string());
        }
        rest = &name[len..];
    }
}

fn walk(dir: &Path, out: &mut BTreeSet<String>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.unwrap().path();
        if path.is_dir() {
            walk(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            let text = std::fs::read_to_string(&path).unwrap();
            // Unit tests sit in one trailing `#[cfg(test)] mod tests` per
            // file throughout the workspace; what they set is not a knob.
            let code = text.split("#[cfg(test)]").next().unwrap();
            knob_literals(code, out);
        }
    }
}

#[test]
fn readme_env_table_lists_exactly_the_knobs_the_code_reads() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut read = BTreeSet::new();
    walk(&root.join("src"), &mut read);
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        walk(&krate.unwrap().path().join("src"), &mut read);
    }
    read.retain(|k| !k.starts_with("NESTWX_TEST_"));

    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    let section = readme
        .split("### Environment variables")
        .nth(1)
        .expect("README has an 'Environment variables' section");
    let table = section.split("\n## ").next().unwrap();
    let documented: BTreeSet<String> = table
        .lines()
        .filter_map(|l| l.strip_prefix("| `NESTWX_"))
        .map(|l| format!("NESTWX_{}", l.split('`').next().unwrap()))
        .collect();

    let undocumented: Vec<_> = read.difference(&documented).collect();
    let stale: Vec<_> = documented.difference(&read).collect();
    assert!(
        undocumented.is_empty() && stale.is_empty(),
        "README 'Environment variables' table is out of date\n  \
         read in code, no row: {undocumented:?}\n  row, never read: {stale:?}"
    );
}

/// The flag names of README's "`nestwx serve` flags" table, each with a
/// sample value for its metavariable.
fn readme_serve_flags(readme: &str) -> Vec<(String, &'static str)> {
    let section = readme
        .split("### `nestwx serve` flags")
        .nth(1)
        .expect("README has a '`nestwx serve` flags' section");
    let table = section.split("\n#").next().unwrap();
    table
        .lines()
        .filter_map(|l| l.strip_prefix("| `--"))
        .map(|l| {
            let cell = l.split('`').next().unwrap();
            let (name, meta) = cell.split_once(' ').expect("flag cell is `--flag VALUE`");
            let sample = match meta {
                "N" => "3",
                "MS" | "US" => "0",
                "0\\|1" => "1",
                "DIR" => "plans",
                "HOST:PORT" => "127.0.0.1:0",
                other => panic!("--{name}: unknown metavariable {other:?}"),
            };
            (format!("--{name}"), sample)
        })
        .collect()
}

#[test]
fn readme_serve_flag_table_matches_the_parser_and_usage() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    let rows = readme_serve_flags(&readme);
    assert!(!rows.is_empty(), "no rows in README's serve flag table");

    // The `nestwx serve` synopsis: its first line and the indented
    // continuation lines after it.
    let usage = nestwx_cli::usage();
    let mut lines = usage
        .lines()
        .skip_while(|l| !l.starts_with("  nestwx serve"));
    let first = lines.next().expect("usage has a `nestwx serve` synopsis");
    let synopsis = std::iter::once(first)
        .chain(lines.take_while(|l| l.starts_with("                 [")))
        .collect::<Vec<_>>()
        .join(" ");
    let synopsis_flags: BTreeSet<String> = synopsis
        .split(|c: char| !(c.is_ascii_lowercase() || c == '-'))
        .filter(|w| w.starts_with("--"))
        .map(str::to_string)
        .collect();

    for (flag, sample) in &rows {
        let argv = ["serve", flag, sample].map(String::from);
        let parsed = nestwx_cli::parse_args(&argv);
        assert!(parsed.is_ok(), "`nestwx serve {flag} {sample}`: {parsed:?}");
        assert!(
            synopsis_flags.contains(flag),
            "{flag} has a README row but is not in the usage synopsis"
        );
    }
    let documented: BTreeSet<String> = rows.into_iter().map(|(f, _)| f).collect();
    let missing: Vec<_> = synopsis_flags.difference(&documented).collect();
    assert!(
        missing.is_empty(),
        "in the `nestwx serve` synopsis, no README row: {missing:?}"
    );
}
