//! README's "Environment variables" table lists exactly the `NESTWX_*`
//! knobs the workspace reads: a knob added, renamed or deleted in code
//! without its row (or the reverse) fails here.

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
