//! Workspace call-graph construction: best-effort name resolution over the
//! per-file item graphs of [`crate::graph`].
//!
//! Resolution is deliberately simple — no type inference, no trait
//! dispatch — but honest: every call site lands in exactly one of three
//! buckets, and the **unresolved** bucket is counted and reported in the
//! lint summary, never silently dropped.
//!
//! 1. **resolved** — the call maps to a workspace function, producing a
//!    graph edge. Priority order:
//!    same-impl method (`self.f()` / `Self::f`), same-module function,
//!    `use`-imported name, `crate::`/`self::`/`super::` path, cross-crate
//!    path (`nestwx_core::planner::…`), unique `Type::method` in the
//!    workspace, and — for method syntax — a unique method name workspace
//!    wide (re-exports and field-typed receivers make the defining impl
//!    invisible to a token parser; uniqueness makes the guess safe).
//! 2. **external** — confidently not a workspace function: paths rooted in
//!    `std`/vendored crates, tuple-struct/variant constructors, uppercase
//!    type constructors (`Vec::new`), or one of the ubiquitous std method
//!    names (`push`, `len`, `iter`, …) that would otherwise resolve by the
//!    uniqueness rule to an unrelated workspace fn.
//! 3. **unresolved** — everything else (trait-object dispatch, closures
//!    passed as values, ambiguous method names). Counted per file.

use crate::graph::{CallKind, CallSite, FileGraph, FnDecl};
use std::collections::{BTreeMap, BTreeSet};

/// A resolved call edge: caller fn index → callee fn index, with the call
/// site's span for chain reconstruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Callee index into [`Workspace::fns`].
    pub callee: usize,
    /// 1-based line of the call site in the caller's file.
    pub line: u32,
    /// 1-based byte column of the call site.
    pub col: u32,
    /// Token index of the call site (orders calls against lock sites).
    pub tok: usize,
}

/// One function node of the workspace graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Index of the defining file in [`Workspace::files`].
    pub file: usize,
    /// Index of the declaration in that file's `fns`.
    pub decl: usize,
    /// Fully qualified display name
    /// (`nestwx_core::planner::Planner::plan`).
    pub qname: String,
    /// Resolved outgoing call edges, in source order.
    pub edges: Vec<Edge>,
}

/// Aggregate resolution statistics for the lint summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct GraphStats {
    /// Functions in the graph.
    pub functions: usize,
    /// Call sites inspected.
    pub calls: usize,
    /// Call sites resolved to a workspace function.
    pub resolved: usize,
    /// Call sites confidently classified as external (std/vendored/ctor).
    pub external: usize,
    /// Call sites that could not be classified — reported, never dropped.
    pub unresolved: usize,
}

/// The resolved workspace call graph.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Per-file item graphs, in sorted path order.
    pub files: Vec<FileGraph>,
    /// All workspace functions, indexed by the maps below.
    pub fns: Vec<FnNode>,
    /// Resolution statistics.
    pub stats: GraphStats,
    /// Unresolved call sites per file (path → count), for the summary and
    /// the committed-threshold test.
    pub unresolved_by_file: BTreeMap<String, usize>,
}

/// Method names so common on std types that the uniqueness fallback must
/// never claim them: a workspace fn named `len` does not make every
/// `.len()` in the repo call it.
const COMMON_METHODS: [&str; 74] = [
    "parse",
    "push",
    "pop",
    "len",
    "is_empty",
    "iter",
    "iter_mut",
    "into_iter",
    "get",
    "get_mut",
    "insert",
    "remove",
    "contains",
    "contains_key",
    "clone",
    "to_string",
    "to_owned",
    "as_str",
    "as_ref",
    "as_mut",
    "as_bytes",
    "as_slice",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "map",
    "map_err",
    "and_then",
    "or_else",
    "ok",
    "err",
    "ok_or",
    "ok_or_else",
    "filter",
    "filter_map",
    "collect",
    "extend",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "dedup",
    "join",
    "split",
    "splitn",
    "trim",
    "starts_with",
    "ends_with",
    "replace",
    "find",
    "position",
    "any",
    "all",
    "count",
    "sum",
    "min",
    "max",
    "abs",
    "floor",
    "ceil",
    "round",
    "take",
    "skip",
    "zip",
    "enumerate",
    "rev",
    "chain",
    "flatten",
    "fold",
    "retain",
    "entry",
    "keys",
    "values",
    "drain",
];

/// Path heads that mark a call as external with certainty.
const EXTERNAL_ROOTS: [&str; 37] = [
    "std",
    "core",
    "alloc",
    "Vec",
    "String",
    "Box",
    "Some",
    "None",
    "Ok",
    "Err",
    "Option",
    "Result",
    "Duration",
    "Instant",
    "SystemTime",
    "PathBuf",
    "Path",
    "Arc",
    "Rc",
    "fmt",
    // Primitive types: `u64::from`, `f64::from_bits`, `u32::try_from`, ….
    "u8",
    "u16",
    "u32",
    "u64",
    "u128",
    "usize",
    "i8",
    "i16",
    "i32",
    "i64",
    "i128",
    "isize",
    "f32",
    "f64",
    "bool",
    "char",
    "str",
];

/// Crates vendored or std-adjacent whose contents are outside the graph.
const EXTERNAL_CRATES: [&str; 6] = [
    "serde",
    "serde_json",
    "serde_derive",
    "rand",
    "loom",
    "proptest",
];

fn is_common_method(name: &str) -> bool {
    COMMON_METHODS.contains(&name)
}

impl Workspace {
    /// Builds the graph from parsed files. `files` must be in sorted
    /// rel-path order (the caller walks them sorted) so fn indices — and
    /// therefore every downstream diagnostic — are deterministic.
    pub fn build(files: Vec<FileGraph>) -> Workspace {
        let mut ws = Workspace {
            files,
            ..Workspace::default()
        };

        // ---- index every function -------------------------------------
        // by_path: "crate::mod::…::name" and "crate::mod::…::Type::name"
        // by_type_method: (Type, name) → fn indices
        // by_name: bare name → fn indices (same-module and uniqueness)
        let mut by_path: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut by_type_method: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        let mut by_method_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        // (crate, name) → free fns: the fallback that resolves re-exported
        // paths (`nestwx_core::env_usize` for `nestwx_core::env::env_usize`).
        let mut free_by_crate: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();

        let mut fn_crates: Vec<String> = Vec::new();
        for (fi, fg) in ws.files.iter().enumerate() {
            for (di, d) in fg.fns.iter().enumerate() {
                let idx = ws.fns.len();
                let qname = qualify(fg, d);
                ws.fns.push(FnNode {
                    file: fi,
                    decl: di,
                    qname: qname.clone(),
                    edges: Vec::new(),
                });
                fn_crates.push(normalize_crate(&fg.crate_name));
                by_path.entry(qname.clone()).or_default().push(idx);
                // Also index without the type segment (free-fn form) and
                // without module segments, for suffix-style lookups.
                if let Some(ty) = &d.type_ctx {
                    by_type_method
                        .entry((ty.clone(), d.name.clone()))
                        .or_default()
                        .push(idx);
                } else {
                    free_by_crate
                        .entry((normalize_crate(&fg.crate_name), d.name.clone()))
                        .or_default()
                        .push(idx);
                }
                by_method_name.entry(d.name.clone()).or_default().push(idx);
            }
        }

        // Type name → defining crates (for `Type::method` where Type is
        // unique workspace-wide).
        let mut type_owners: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for fg in &ws.files {
            for ty in &fg.types {
                type_owners
                    .entry(ty.clone())
                    .or_default()
                    .insert(fg.crate_name.clone());
            }
        }
        let ctors: BTreeSet<&String> = ws.files.iter().flat_map(|f| f.ctors.iter()).collect();
        let crate_names: BTreeSet<&String> = ws.files.iter().map(|f| &f.crate_name).collect();

        // ---- resolve every call site ----------------------------------
        let mut edges_out: Vec<Vec<Edge>> = vec![Vec::new(); ws.fns.len()];
        let mut stats = GraphStats {
            functions: ws.fns.len(),
            ..GraphStats::default()
        };
        let mut unresolved_by_file: BTreeMap<String, usize> = BTreeMap::new();
        let dump_unresolved = std::env::var("NESTWX_DUMP_UNRESOLVED").is_ok();

        for (idx, out) in edges_out.iter_mut().enumerate() {
            let (fi, di) = (ws.fns[idx].file, ws.fns[idx].decl);
            let fg = &ws.files[fi];
            let d = &fg.fns[di];
            for call in &d.calls {
                stats.calls += 1;
                match resolve_call(
                    call,
                    fg,
                    d,
                    &by_path,
                    &by_type_method,
                    &by_method_name,
                    &free_by_crate,
                    &type_owners,
                    &ctors,
                    &crate_names,
                    &fn_crates,
                ) {
                    Resolution::Fn(callee) => {
                        stats.resolved += 1;
                        out.push(Edge {
                            callee,
                            line: call.line,
                            col: call.col,
                            tok: call.tok,
                        });
                    }
                    Resolution::External => stats.external += 1,
                    Resolution::Unresolved => {
                        if dump_unresolved {
                            eprintln!(
                                "UNRES {:?} {} {}:{}",
                                call.kind,
                                call.segs.join("::"),
                                fg.rel_path,
                                call.line
                            );
                        }
                        stats.unresolved += 1;
                        *unresolved_by_file.entry(fg.rel_path.clone()).or_insert(0) += 1;
                    }
                }
            }
        }
        for (idx, e) in edges_out.into_iter().enumerate() {
            ws.fns[idx].edges = e;
        }
        ws.stats = stats;
        ws.unresolved_by_file = unresolved_by_file;
        ws
    }

    /// Fn indices whose qualified name ends with `suffix` at a `::`
    /// boundary (`Planner::plan` matches `nestwx_core::planner::Planner::plan`).
    pub fn find_by_suffix(&self, suffix: &str) -> Vec<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                f.qname == suffix
                    || f.qname
                        .strip_suffix(suffix)
                        .map(|head| head.ends_with("::"))
                        .unwrap_or(false)
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// The declaration behind fn `idx`.
    pub fn decl(&self, idx: usize) -> &FnDecl {
        &self.files[self.fns[idx].file].fns[self.fns[idx].decl]
    }

    /// The rel path of the file defining fn `idx`.
    pub fn file_of(&self, idx: usize) -> &str {
        &self.files[self.fns[idx].file].rel_path
    }
}

/// Fully qualified display name of a declaration. The crate segment is
/// underscored (`nestwx_core`) so qnames compare equal to path lookups.
fn qualify(fg: &FileGraph, d: &FnDecl) -> String {
    let krate = normalize_crate(&fg.crate_name);
    let mut parts: Vec<&str> = vec![krate.as_str()];
    parts.extend(fg.base_module.iter().map(|s| s.as_str()));
    parts.extend(d.module.iter().map(|s| s.as_str()));
    if let Some(ty) = &d.type_ctx {
        parts.push(ty);
    }
    parts.push(&d.name);
    parts.join("::")
}

enum Resolution {
    Fn(usize),
    External,
    Unresolved,
}

fn normalize_crate(seg: &str) -> String {
    seg.replace('-', "_")
}

#[allow(clippy::too_many_arguments)]
fn resolve_call(
    call: &CallSite,
    fg: &FileGraph,
    caller: &FnDecl,
    by_path: &BTreeMap<String, Vec<usize>>,
    by_type_method: &BTreeMap<(String, String), Vec<usize>>,
    by_method_name: &BTreeMap<String, Vec<usize>>,
    free_by_crate: &BTreeMap<(String, String), Vec<usize>>,
    type_owners: &BTreeMap<String, BTreeSet<String>>,
    ctors: &BTreeSet<&String>,
    crate_names: &BTreeSet<&String>,
    fn_crates: &[String],
) -> Resolution {
    let name = call.segs.last().expect("non-empty path").clone();

    // Constructors are data, not calls.
    if call.kind != CallKind::Method && ctors.contains(&name) && call.segs.len() <= 2 {
        return Resolution::External;
    }

    // Method-call syntax.
    if call.kind == CallKind::Method {
        // `self.m()` — resolve within the caller's impl type first.
        if call.recv_self {
            if let Some(ty) = &caller.type_ctx {
                if let Some(hits) = by_type_method.get(&(ty.clone(), name.clone())) {
                    if hits.len() == 1 {
                        return Resolution::Fn(hits[0]);
                    }
                    if let Some(hit) = pick_in_crate(hits, fg, fn_crates) {
                        return Resolution::Fn(hit);
                    }
                }
            }
        }
        if is_common_method(&name) {
            return Resolution::External;
        }
        // Unique method name workspace-wide → safe guess; ambiguous
        // workspace-wide but unique in the caller's crate → crate-local
        // guess (receivers are overwhelmingly crate-local).
        return match by_method_name.get(&name) {
            Some(v) if v.len() == 1 => Resolution::Fn(v[0]),
            Some(v) => match pick_in_crate(v, fg, fn_crates) {
                Some(hit) => Resolution::Fn(hit),
                None => Resolution::Unresolved,
            },
            None => Resolution::External,
        };
    }

    // Path / bare calls. Expand the head segment.
    let mut segs: Vec<String> = call.segs.clone();
    if call.qualified_tail {
        // `<T as Trait>::f` — the head is invisible; fall through to the
        // uniqueness rules below on the visible tail.
        segs = vec![name.clone()];
    }

    // Head-based classification and expansion.
    if segs.len() > 1 {
        let head = segs[0].clone();
        if EXTERNAL_ROOTS.contains(&head.as_str()) || EXTERNAL_CRATES.contains(&head.as_str()) {
            return Resolution::External;
        }
        if head == "crate" {
            let mut full = vec![normalize_crate(&fg.crate_name)];
            full.extend(segs[1..].iter().cloned());
            return lookup_path(&full, by_path, Some(free_by_crate));
        }
        if head == "self" {
            let mut full = vec![normalize_crate(&fg.crate_name)];
            full.extend(fg.base_module.iter().cloned());
            full.extend(caller.module.iter().cloned());
            full.extend(segs[1..].iter().cloned());
            return lookup_path(&full, by_path, Some(free_by_crate));
        }
        if head == "super" {
            let mut module: Vec<String> = fg
                .base_module
                .iter()
                .chain(caller.module.iter())
                .cloned()
                .collect();
            let mut rest = &segs[1..];
            while rest.first().map(|s| s == "super").unwrap_or(false) {
                module.pop();
                rest = &rest[1..];
            }
            module.pop();
            let mut full = vec![normalize_crate(&fg.crate_name)];
            full.extend(module);
            full.extend(rest.iter().cloned());
            return lookup_path(&full, by_path, Some(free_by_crate));
        }
        if head == "Self" {
            if let Some(ty) = &caller.type_ctx {
                let mut full = vec![ty.clone()];
                full.extend(segs[1..].iter().cloned());
                return resolve_typed_tail(&full, fg, by_type_method, type_owners, fn_crates);
            }
            return Resolution::Unresolved;
        }
        // A workspace crate name as head: absolute cross-crate path.
        let headn = normalize_crate(&head);
        if crate_names.iter().any(|c| normalize_crate(c) == headn) {
            let mut full = vec![headn];
            full.extend(segs[1..].iter().cloned());
            return lookup_path(&full, by_path, Some(free_by_crate));
        }
        // `use`-imported head (`use nestwx_core::planner; planner::f()` or
        // `use x::Type; Type::method()`).
        if let Some(u) = fg.uses.iter().find(|u| u.name == head) {
            let mut full = u.path.clone();
            full.extend(segs[1..].iter().cloned());
            // The expansion may itself be crate-rooted or external-rooted.
            let h = full[0].clone();
            if EXTERNAL_ROOTS.contains(&h.as_str()) || EXTERNAL_CRATES.contains(&h.as_str()) {
                return Resolution::External;
            }
            if h == "crate" {
                full[0] = normalize_crate(&fg.crate_name);
            } else {
                full[0] = normalize_crate(&h);
            }
            if let r @ Resolution::Fn(_) = lookup_path(&full, by_path, Some(free_by_crate)) {
                return r;
            }
            // Fall through: the import may name a type, not a module.
        }
        // A module path relative to the caller's module or one of its
        // ancestors (`obs::load_summary` called from the crate root of
        // nestwx-cli resolves as `nestwx_cli::obs::load_summary`).
        let mut module: Vec<String> = fg
            .base_module
            .iter()
            .chain(caller.module.iter())
            .cloned()
            .collect();
        loop {
            let mut p = vec![normalize_crate(&fg.crate_name)];
            p.extend(module.iter().cloned());
            p.extend(segs.iter().cloned());
            if let r @ Resolution::Fn(_) = lookup_path(&p, by_path, None) {
                return r;
            }
            if module.pop().is_none() {
                break;
            }
        }
        // `Type::method` where Type is a workspace type.
        return resolve_typed_tail(&segs, fg, by_type_method, type_owners, fn_crates);
    }

    // Bare single-name call: same module first, then imports, then
    // workspace-unique free fn.
    let mut full = vec![normalize_crate(&fg.crate_name)];
    full.extend(fg.base_module.iter().cloned());
    full.extend(caller.module.iter().cloned());
    full.push(name.clone());
    if let Some(hits) = by_path.get(&full.join("::")) {
        if hits.len() == 1 {
            return Resolution::Fn(hits[0]);
        }
    }
    // Parent modules of the same file (an inline `mod` calling file-level
    // helpers).
    let mut module: Vec<String> = fg
        .base_module
        .iter()
        .chain(caller.module.iter())
        .cloned()
        .collect();
    while module.pop().is_some() {
        let mut p = vec![normalize_crate(&fg.crate_name)];
        p.extend(module.iter().cloned());
        p.push(name.clone());
        if let Some(hits) = by_path.get(&p.join("::")) {
            if hits.len() == 1 {
                return Resolution::Fn(hits[0]);
            }
        }
    }
    // `use`-imported free fn.
    if let Some(u) = fg.uses.iter().find(|u| u.name == name) {
        let mut full = u.path.clone();
        let h = full[0].clone();
        if EXTERNAL_ROOTS.contains(&h.as_str()) || EXTERNAL_CRATES.contains(&h.as_str()) {
            return Resolution::External;
        }
        full[0] = if h == "crate" {
            normalize_crate(&fg.crate_name)
        } else {
            normalize_crate(&h)
        };
        if let r @ Resolution::Fn(_) = lookup_path(&full, by_path, Some(free_by_crate)) {
            return r;
        }
    }
    // Glob imports: try each glob prefix.
    for g in &fg.globs {
        if g.is_empty() {
            continue;
        }
        let mut full = g.clone();
        let h = full[0].clone();
        full[0] = if h == "crate" {
            normalize_crate(&fg.crate_name)
        } else if h == "super" {
            // `use super::*` — parent module of this file.
            let mut p = vec![normalize_crate(&fg.crate_name)];
            let mut parents = fg.base_module.clone();
            parents.pop();
            p.extend(parents);
            p.extend(full[1..].iter().cloned());
            p.push(name.clone());
            if let Some(hits) = by_path.get(&p.join("::")) {
                if hits.len() == 1 {
                    return Resolution::Fn(hits[0]);
                }
            }
            continue;
        } else {
            normalize_crate(&h)
        };
        full.push(name.clone());
        if let Some(hits) = by_path.get(&full.join("::")) {
            if hits.len() == 1 {
                return Resolution::Fn(hits[0]);
            }
        }
    }
    // Crate-unique free-fn name: a bare call can only target a free fn,
    // and an unparsed re-export/import still lands in the caller's crate
    // far more often than not.
    if let Some(v) = free_by_crate.get(&(normalize_crate(&fg.crate_name), name.clone())) {
        if v.len() == 1 {
            return Resolution::Fn(v[0]);
        }
    }
    // Workspace-unique free-fn name (not a method).
    if !is_common_method(&name) {
        if let Some(v) = by_method_name.get(&name) {
            if v.len() == 1 {
                return Resolution::Fn(v[0]);
            }
            return Resolution::Unresolved;
        }
    }
    // Uppercase heads that never matched anything are type constructors
    // (`Wrap(x)` for a tuple struct defined elsewhere, `Vec(…)`).
    if name.chars().next().map(char::is_uppercase).unwrap_or(false) {
        return Resolution::External;
    }
    Resolution::Unresolved
}

/// Exact path lookup, preferring an unambiguous hit. With `free_by_crate`
/// set, a crate-rooted path that misses falls back to the unique free fn
/// of that name in the named crate — the common `pub use` re-export shape
/// (`nestwx_core::env_usize` for `nestwx_core::env::env_usize`).
fn lookup_path(
    full: &[String],
    by_path: &BTreeMap<String, Vec<usize>>,
    free_by_crate: Option<&BTreeMap<(String, String), Vec<usize>>>,
) -> Resolution {
    if let Some(v) = by_path.get(&full.join("::")) {
        if v.len() == 1 {
            return Resolution::Fn(v[0]);
        }
        if v.len() > 1 {
            return Resolution::Unresolved;
        }
    }
    if let (Some(fbc), [krate, .., name]) = (free_by_crate, full) {
        if let Some(v) = fbc.get(&(krate.clone(), name.clone())) {
            if v.len() == 1 {
                return Resolution::Fn(v[0]);
            }
        }
    }
    Resolution::Unresolved
}

/// Resolves `Type::method…` (possibly `Type::assoc::more`) against the
/// workspace's type-method index, requiring the type to be defined in
/// exactly one crate.
fn resolve_typed_tail(
    segs: &[String],
    fg: &FileGraph,
    by_type_method: &BTreeMap<(String, String), Vec<usize>>,
    type_owners: &BTreeMap<String, BTreeSet<String>>,
    fn_crates: &[String],
) -> Resolution {
    if segs.len() != 2 {
        return Resolution::Unresolved;
    }
    let (ty, method) = (&segs[0], &segs[1]);
    let Some(hits) = by_type_method.get(&(ty.clone(), method.clone())) else {
        // A known workspace type without such a method is derived/std
        // machinery (`Report::default()`); any other capitalised name is a
        // foreign type. Lowercase heads could be anything.
        let known_or_typename = type_owners.contains_key(ty)
            || ty.chars().next().map(char::is_uppercase).unwrap_or(false);
        return if known_or_typename {
            Resolution::External
        } else {
            Resolution::Unresolved
        };
    };
    if hits.len() == 1 {
        return Resolution::Fn(hits[0]);
    }
    // Same-named types in several crates: prefer the caller's own crate.
    if let Some(hit) = pick_in_crate(hits, fg, fn_crates) {
        return Resolution::Fn(hit);
    }
    Resolution::Unresolved
}

/// Of several (Type, method) candidates, picks the one in the caller's
/// crate when that disambiguates.
fn pick_in_crate(hits: &[usize], fg: &FileGraph, fn_crates: &[String]) -> Option<usize> {
    let own_crate = normalize_crate(&fg.crate_name);
    let own: Vec<usize> = hits
        .iter()
        .copied()
        .filter(|&i| fn_crates[i] == own_crate)
        .collect();
    if own.len() == 1 {
        Some(own[0])
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::parse_file;

    fn ws(files: &[(&str, &str, &[&str], &str)]) -> Workspace {
        let parsed = files
            .iter()
            .map(|(path, krate, module, src)| {
                let m: Vec<String> = module.iter().map(|s| s.to_string()).collect();
                parse_file(path, krate, &m, src)
            })
            .collect();
        Workspace::build(parsed)
    }

    fn edge_names(ws: &Workspace, qname: &str) -> Vec<String> {
        let idx = ws
            .fns
            .iter()
            .position(|f| f.qname == qname)
            .unwrap_or_else(|| {
                panic!(
                    "no fn {qname}: {:?}",
                    ws.fns.iter().map(|f| &f.qname).collect::<Vec<_>>()
                )
            });
        ws.fns[idx]
            .edges
            .iter()
            .map(|e| ws.fns[e.callee].qname.clone())
            .collect()
    }

    #[test]
    fn same_module_bare_call_resolves() {
        let w = ws(&[(
            "crates/app/src/lib.rs",
            "app",
            &[],
            "fn a() { b(); }\nfn b() {}",
        )]);
        assert_eq!(edge_names(&w, "app::a"), vec!["app::b"]);
        assert_eq!(w.stats.unresolved, 0);
    }

    #[test]
    fn cross_crate_use_import_resolves() {
        let w = ws(&[
            (
                "crates/core/src/planner.rs",
                "nestwx-core",
                &["planner"],
                "pub struct Planner;\nimpl Planner { pub fn plan(&self) { helper(); } }\nfn helper() {}",
            ),
            (
                "crates/cli/src/lib.rs",
                "nestwx-cli",
                &[],
                "use nestwx_core::planner::Planner;\nfn run() { let p = Planner::plan(&x); }",
            ),
        ]);
        assert_eq!(
            edge_names(&w, "nestwx_cli::run"),
            vec!["nestwx_core::planner::Planner::plan"]
        );
        assert_eq!(
            edge_names(&w, "nestwx_core::planner::Planner::plan"),
            vec!["nestwx_core::planner::helper"]
        );
    }

    #[test]
    fn crate_rooted_path_resolves() {
        let w = ws(&[
            (
                "crates/app/src/lib.rs",
                "app",
                &[],
                "fn top() { crate::util::go(); }",
            ),
            ("crates/app/src/util.rs", "app", &["util"], "pub fn go() {}"),
        ]);
        assert_eq!(edge_names(&w, "app::top"), vec!["app::util::go"]);
    }

    #[test]
    fn self_method_resolves_within_impl() {
        let w = ws(&[(
            "crates/app/src/lib.rs",
            "app",
            &[],
            "struct S;\nimpl S { fn a(&self) { self.b(); } fn b(&self) {} }",
        )]);
        assert_eq!(edge_names(&w, "app::S::a"), vec!["app::S::b"]);
    }

    #[test]
    fn common_method_names_are_external_not_unresolved() {
        let w = ws(&[(
            "crates/app/src/lib.rs",
            "app",
            &[],
            "fn f(v: &mut Vec<u32>) { v.push(1); let n = v.len(); }",
        )]);
        assert_eq!(w.stats.unresolved, 0);
        assert_eq!(w.stats.external, 2);
    }

    #[test]
    fn unique_method_name_resolves_across_types() {
        let w = ws(&[
            (
                "crates/app/src/lib.rs",
                "app",
                &[],
                "fn f(q: &Q) { q.recompute_all(); }",
            ),
            (
                "crates/app/src/q.rs",
                "app",
                &["q"],
                "pub struct Q;\nimpl Q { pub fn recompute_all(&self) {} }",
            ),
        ]);
        assert_eq!(edge_names(&w, "app::f"), vec!["app::q::Q::recompute_all"]);
    }

    #[test]
    fn ambiguous_method_names_count_as_unresolved() {
        let w = ws(&[
            (
                "crates/app/src/a.rs",
                "app",
                &["a"],
                "pub struct A;\nimpl A { pub fn frob(&self) {} }",
            ),
            (
                "crates/app/src/b.rs",
                "app",
                &["b"],
                "pub struct B;\nimpl B { pub fn frob(&self) {} }\nfn f(x: &Dyn) { x.frob(); }",
            ),
        ]);
        assert_eq!(w.stats.unresolved, 1);
        assert_eq!(w.unresolved_by_file.get("crates/app/src/b.rs"), Some(&1));
    }

    #[test]
    fn std_paths_and_ctors_are_external() {
        let w = ws(&[(
            "crates/app/src/lib.rs",
            "app",
            &[],
            "pub struct Wrap(u32);\nfn f() { let a = Wrap(1); let s = std::mem::take(&mut x); let v = Vec::new(); }",
        )]);
        assert_eq!(w.stats.unresolved, 0);
        assert_eq!(w.stats.resolved, 0);
    }

    #[test]
    fn suffix_lookup_finds_roots() {
        let w = ws(&[(
            "crates/core/src/planner.rs",
            "nestwx-core",
            &["planner"],
            "pub struct Planner;\nimpl Planner { pub fn plan(&self) {} }",
        )]);
        assert_eq!(w.find_by_suffix("Planner::plan").len(), 1);
        assert_eq!(w.find_by_suffix("plan").len(), 1);
        assert!(
            w.find_by_suffix("ner::plan").is_empty(),
            "boundary-anchored"
        );
    }
}
