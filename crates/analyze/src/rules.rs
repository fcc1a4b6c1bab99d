//! The repo-specific invariant rules.
//!
//! Every rule is deny-by-default over the paths its scope names; the only
//! escape hatch is an allowlist entry (see [`crate::allowlist`]) carrying a
//! written justification. Rules work on the token stream of
//! [`crate::lexer`], with `#[cfg(test)] mod … { … }` spans removed — test
//! code may unwrap and use wall clocks freely.
//!
//! # Rule catalog
//!
//! | id       | name                          | scope                     |
//! |----------|-------------------------------|---------------------------|
//! | NW-D001  | unordered-collection          | determinism paths         |
//! | NW-D002  | raw-instant-now               | everywhere but clock shim |
//! | NW-D003  | wall-clock-or-entropy         | everywhere                |
//! | NW-D004  | unordered-iteration           | determinism paths         |
//! | NW-D005  | thread-spawn-in-replay        | determinism paths         |
//! | NW-D006  | ambient-filesystem-path       | determinism paths         |
//! | NW-S001  | panic-on-request-path         | serve + netsim            |
//! | NW-S002  | raw-mutex-lock                | everywhere but sync shim  |
//! | NW-S003  | blocking-under-shard-lock     | lock-holding modules      |
//! | NW-S004  | blocking-socket-io            | serve, minus readiness    |
//! | NW-S005  | raw-deadline-arithmetic       | serve deadline scope      |
//! | NW-S006  | raw-span-timestamp            | serve span scope          |
//! | NW-S007  | fleet-socket-confinement      | fleet, minus transport    |
//!
//! Rationale per rule lives in `DESIGN.md` ("Invariant catalog").

use crate::lexer::{lex, test_module_spans, Tok, TokKind};
use crate::LintConfig;
use serde::Serialize;

/// One step of an interprocedural call chain, root first. The last step
/// points at the offending construct itself.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ChainStep {
    /// Fully qualified function name (`crate::module::Type::fn`), or the
    /// offending construct's label for the final step.
    pub func: String,
    /// Path relative to the lint root, `/`-separated.
    pub file: String,
    /// 1-based line of the call site (or offending construct).
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
}

/// One rule violation at a source position.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Finding {
    /// Stable rule id (`NW-D001` …).
    pub rule: &'static str,
    /// The rule's one-line description (same for every finding of a rule).
    pub desc: &'static str,
    /// Path relative to the lint root, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// Human-readable description of the violation.
    pub message: String,
    /// Interprocedural call chain from a root to the offending site
    /// (graph rules only; empty for per-file token rules).
    #[serde(skip_serializing_if = "Vec::is_empty")]
    pub chain: Vec<ChainStep>,
}

impl Finding {
    /// Builds a chain-less finding, deriving `desc` from the rule id.
    pub fn at(rule: &'static str, file: &str, line: u32, col: u32, message: String) -> Finding {
        Finding {
            rule,
            desc: rule_desc(rule),
            file: file.to_string(),
            line,
            col,
            message,
            chain: Vec::new(),
        }
    }
}

/// All per-file rule ids, in catalog order (fixture tests iterate this).
pub const RULE_IDS: [&str; 13] = [
    "NW-D001", "NW-D002", "NW-D003", "NW-D004", "NW-D005", "NW-D006", "NW-S001", "NW-S002",
    "NW-S003", "NW-S004", "NW-S005", "NW-S006", "NW-S007",
];

/// One-line description of each rule, embedded in `--json` records.
pub fn rule_desc(rule: &str) -> &'static str {
    match rule {
        "NW-D001" => "unordered collection in a determinism-critical path",
        "NW-D002" => "raw Instant::now outside the clock shim",
        "NW-D003" => "wall-clock or OS-entropy source",
        "NW-D004" => "unordered-collection iteration in a determinism-critical path",
        "NW-D005" => "thread spawn inside deterministic replay code",
        "NW-D006" => "ambient filesystem path in determinism-critical code",
        "NW-S001" => "panicking call on the request-handling path",
        "NW-S002" => "raw .lock() without a poisoning policy",
        "NW-S003" => "blocking syscall in a lock-holding module",
        "NW-S004" => "blocking socket I/O outside the readiness loop",
        "NW-S005" => "deadline arithmetic bypassing the clock shim",
        "NW-S006" => "raw timestamp source on the span-recording path",
        "NW-S007" => "socket I/O outside the fleet transport module",
        "NW-G001" => "determinism-forbidden API reachable from a planning root",
        "NW-G002" => "lock-order cycle across lock_unpoisoned call paths",
        "NW-G003" => "panic site reachable from a serve/fleet availability root",
        _ => "unknown rule",
    }
}

/// True when `path` (relative, `/`-separated) falls under any of the scope
/// entries. An entry ending in `/` is a directory prefix; an empty entry
/// matches everything; anything else must match the path exactly.
pub(crate) fn in_scope(path: &str, scope: &[String]) -> bool {
    scope.iter().any(|s| {
        if s.is_empty() {
            true
        } else if let Some(dir) = s.strip_suffix('/') {
            path.starts_with(dir) && path[dir.len()..].starts_with('/') || path.starts_with(s)
        } else {
            path == s
        }
    })
}

/// Runs every rule over one file's source, returning its findings.
pub fn check_file(path: &str, src: &str, cfg: &LintConfig) -> Vec<Finding> {
    let toks = lex(src);
    let test_spans = test_module_spans(&toks);
    let in_test = |i: usize| test_spans.iter().any(|&(a, b)| i >= a && i < b);

    let deterministic = in_scope(path, &cfg.determinism_paths);
    let request_path = in_scope(path, &cfg.request_paths);
    let clock_shim = in_scope(path, &cfg.clock_files);
    let sync_shim = in_scope(path, &cfg.lock_helper_files);
    let shard_module = in_scope(path, &cfg.shard_modules);
    let lock_scope = in_scope(path, &cfg.lock_scope);
    let socket_scope = in_scope(path, &cfg.socket_scope);
    let readiness = in_scope(path, &cfg.readiness_files);
    let deadline_scope = in_scope(path, &cfg.deadline_scope);
    let span_scope = in_scope(path, &cfg.span_scope);
    let fleet_scope = in_scope(path, &cfg.fleet_scope);
    let transport = in_scope(path, &cfg.transport_files);

    // NW-D004 only applies where an unordered collection is actually in
    // play: a file that has already banished HashMap/HashSet cannot iterate
    // one, and flagging `.values()` on a BTreeMap would be noise.
    let has_unordered = toks.iter().enumerate().any(|(i, t)| {
        !in_test(i) && t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet")
    });

    let mut out = Vec::new();
    let push = |out: &mut Vec<Finding>, rule: &'static str, t: &Tok, message: String| {
        out.push(Finding::at(rule, path, t.line, t.col, message));
    };

    for i in 0..toks.len() {
        if in_test(i) {
            continue;
        }
        let t = &toks[i];

        // NW-D001 — unordered collections in determinism-critical code.
        if deterministic && t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet")
        {
            push(
                &mut out,
                "NW-D001",
                t,
                format!(
                    "{} in a determinism-critical path: iteration order is \
                     randomized per process; use BTreeMap/BTreeSet or a sorted Vec",
                    t.text
                ),
            );
        }

        // NW-D002 — Instant::now outside the clock shim.
        if !clock_shim
            && t.is_ident("Instant")
            && matches!(toks.get(i + 1), Some(p) if p.is_punct(":"))
            && matches!(toks.get(i + 2), Some(p) if p.is_punct(":"))
            && matches!(toks.get(i + 3), Some(n) if n.is_ident("now"))
        {
            push(
                &mut out,
                "NW-D002",
                t,
                "raw Instant::now — route timing through nestwx_obs::clock::now() \
                 so replay/virtual-time hooks see every read"
                    .to_string(),
            );
        }

        // NW-D003 — wall clock / ambient entropy.
        if t.kind == TokKind::Ident {
            let hit = match t.text.as_str() {
                "SystemTime" => matches!(toks.get(i + 3), Some(n) if n.is_ident("now"))
                    .then_some("SystemTime::now"),
                "thread_rng" => Some("thread_rng()"),
                "from_entropy" => Some("from_entropy()"),
                _ => None,
            };
            if let Some(what) = hit {
                push(
                    &mut out,
                    "NW-D003",
                    t,
                    format!(
                        "{what} injects wall-clock/OS entropy; planning and replay \
                         must be seeded and deterministic"
                    ),
                );
            }
        }

        // NW-D004 — iterating an unordered collection.
        if deterministic
            && has_unordered
            && t.is_punct(".")
            && matches!(
                toks.get(i + 1),
                Some(m) if m.kind == TokKind::Ident
                    && matches!(m.text.as_str(), "keys" | "values" | "values_mut" | "drain" | "into_keys" | "into_values")
            )
            && matches!(toks.get(i + 2), Some(p) if p.is_punct("("))
        {
            let m = &toks[i + 1];
            push(
                &mut out,
                "NW-D004",
                m,
                format!(
                    ".{}() in a file using HashMap/HashSet: unordered iteration \
                     makes output order (and float accumulation order) \
                     schedule-dependent",
                    m.text
                ),
            );
        }

        // NW-D005 — spawning threads inside deterministic replay code.
        if deterministic
            && t.is_ident("thread")
            && matches!(toks.get(i + 1), Some(p) if p.is_punct(":"))
            && matches!(toks.get(i + 2), Some(p) if p.is_punct(":"))
            && matches!(toks.get(i + 3), Some(n) if n.is_ident("spawn") || n.is_ident("scope"))
        {
            push(
                &mut out,
                "NW-D005",
                t,
                "thread::spawn/scope in a determinism-critical path: replay \
                 must be single-threaded; parallelism belongs in the driver"
                    .to_string(),
            );
        }

        // NW-D006 — ambient filesystem locations in deterministic code.
        // Disk-cache contents must be a pure function of configuration:
        // a path picked up from the environment (temp dir, cwd, home)
        // makes two "identical" runs read different caches.
        if deterministic
            && t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "temp_dir" | "current_dir" | "home_dir")
            && matches!(toks.get(i + 1), Some(p) if p.is_punct("("))
        {
            push(
                &mut out,
                "NW-D006",
                t,
                format!(
                    "{}() reads an ambient filesystem location; \
                     determinism-critical code must take directories through \
                     explicit configuration (e.g. a cache_dir field), not \
                     the process environment",
                    t.text
                ),
            );
        }

        // NW-S001 — panicking calls on the request-handling path.
        if request_path {
            let method_call = t.is_punct(".")
                && matches!(
                    toks.get(i + 1),
                    Some(m) if m.kind == TokKind::Ident
                        && matches!(m.text.as_str(), "unwrap" | "expect")
                )
                && matches!(toks.get(i + 2), Some(p) if p.is_punct("("));
            if method_call {
                let m = &toks[i + 1];
                push(
                    &mut out,
                    "NW-S001",
                    m,
                    format!(
                        ".{}() on the request path can kill a worker/connection \
                         thread; return a typed error or use a poison-safe helper",
                        m.text
                    ),
                );
            }
            let panic_macro = t.kind == TokKind::Ident
                && matches!(
                    t.text.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                )
                && matches!(toks.get(i + 1), Some(p) if p.is_punct("!"));
            if panic_macro {
                push(
                    &mut out,
                    "NW-S001",
                    t,
                    format!("{}! on the request path; return a typed error", t.text),
                );
            }
        }

        // NW-S002 — raw `.lock()` outside the sync helper.
        if lock_scope
            && !sync_shim
            && t.is_punct(".")
            && matches!(toks.get(i + 1), Some(m) if m.is_ident("lock"))
            && matches!(toks.get(i + 2), Some(p) if p.is_punct("("))
            && matches!(toks.get(i + 3), Some(p) if p.is_punct(")"))
        {
            let m = &toks[i + 1];
            push(
                &mut out,
                "NW-S002",
                m,
                "raw .lock() has no poisoning policy; call \
                 sync::lock_unpoisoned (serve) or map PoisonError explicitly"
                    .to_string(),
            );
        }

        // NW-S003 — blocking syscalls in modules that hold shard locks.
        if shard_module && t.kind == TokKind::Ident {
            let blocking =
                matches!(
                    t.text.as_str(),
                    "File"
                        | "OpenOptions"
                        | "TcpStream"
                        | "TcpListener"
                        | "UdpSocket"
                        | "sleep"
                        | "read_to_string"
                        | "create_dir_all"
                ) || (matches!(t.text.as_str(), "println" | "eprintln" | "print" | "eprint")
                    && matches!(toks.get(i + 1), Some(p) if p.is_punct("!")));
            if blocking {
                push(
                    &mut out,
                    "NW-S003",
                    t,
                    format!(
                        "{} in a lock-holding module: blocking while a cache \
                         shard or queue lock is held stalls every other thread",
                        t.text
                    ),
                );
            }
        }

        // NW-S004 — blocking socket I/O outside the readiness loop. Every
        // socket the event-driven server owns is nonblocking; a blocking
        // accept/read/write anywhere else reintroduces thread-per-connection
        // stalls behind the reader's back.
        if socket_scope
            && !readiness
            && t.is_punct(".")
            && matches!(
                toks.get(i + 1),
                Some(m) if m.kind == TokKind::Ident
                    && matches!(
                        m.text.as_str(),
                        "accept" | "incoming" | "read_exact" | "write_all" | "read_line"
                            | "read_to_end"
                    )
            )
            && matches!(toks.get(i + 2), Some(p) if p.is_punct("("))
        {
            let m = &toks[i + 1];
            push(
                &mut out,
                "NW-S004",
                m,
                format!(
                    ".{}() is blocking I/O outside the readiness loop: all \
                     socket traffic must flow through the nonblocking reader \
                     (event_loop/conn) so one slow peer cannot stall a thread",
                    m.text
                ),
            );
        }

        // NW-S005 — deadline arithmetic that bypasses the clock shim.
        // Deadline math must use nestwx_obs::clock (now/since/expired) so
        // replay and virtual-time hooks see every deadline check; raw
        // elapsed/duration_since reads the monotonic clock behind them.
        if deadline_scope
            && t.is_punct(".")
            && matches!(
                toks.get(i + 1),
                Some(m) if m.kind == TokKind::Ident
                    && matches!(
                        m.text.as_str(),
                        "elapsed" | "duration_since" | "checked_duration_since"
                    )
            )
            && matches!(toks.get(i + 2), Some(p) if p.is_punct("("))
        {
            let m = &toks[i + 1];
            push(
                &mut out,
                "NW-S005",
                m,
                format!(
                    ".{}() reads the clock behind the shim: route deadline \
                     checks through nestwx_obs::clock (since/expired) so \
                     virtual-time tests and replay control every time read",
                    m.text
                ),
            );
        }

        // NW-S006 — raw timestamp sources on the flight-recorder span
        // path. A span stamped from `Instant::now`/`SystemTime::now`
        // instead of the clock shim silently diverges from every other
        // timestamp in the trace under replay or virtual time.
        if span_scope
            && !clock_shim
            && t.kind == TokKind::Ident
            && (t.text == "Instant" || t.text == "SystemTime")
            && matches!(toks.get(i + 1), Some(p) if p.is_punct(":"))
            && matches!(toks.get(i + 2), Some(p) if p.is_punct(":"))
            && matches!(toks.get(i + 3), Some(n) if n.is_ident("now"))
        {
            push(
                &mut out,
                "NW-S006",
                t,
                format!(
                    "raw {}::now on the span-recording path: flight-recorder \
                     timestamps must come from nestwx_obs::clock \
                     (now/since/micros_since) so recorded traces line up \
                     under virtual time and replay",
                    t.text
                ),
            );
        }

        // NW-S007 — socket I/O on the fleet data path outside the
        // designated transport module. The fleet's no-hang guarantees
        // (nonblocking pumps, per-frame deadlines, EOF-as-state) are
        // enforced by the transport module's FrameConn; a socket touched
        // anywhere else in the crate bypasses that discipline and can
        // wedge a worker or the coordinator on a dead peer.
        if fleet_scope && !transport {
            if t.kind == TokKind::Ident
                && matches!(t.text.as_str(), "TcpStream" | "TcpListener" | "UdpSocket")
            {
                push(
                    &mut out,
                    "NW-S007",
                    t,
                    format!(
                        "{} on the fleet data path: sockets are confined to \
                         the designated transport module, which owns the \
                         nonblocking/deadline discipline",
                        t.text
                    ),
                );
            }
            if t.is_punct(".")
                && matches!(
                    toks.get(i + 1),
                    Some(m) if m.kind == TokKind::Ident
                        && matches!(
                            m.text.as_str(),
                            "accept" | "set_nonblocking" | "peek" | "read_exact" | "write_all"
                                | "read_to_end"
                        )
                )
                && matches!(toks.get(i + 2), Some(p) if p.is_punct("("))
            {
                let m = &toks[i + 1];
                push(
                    &mut out,
                    "NW-S007",
                    m,
                    format!(
                        ".{}() is raw socket I/O on the fleet data path: \
                         route all frame traffic through the transport \
                         module's FrameConn so deadlines and EOF handling \
                         stay in one place",
                        m.text
                    ),
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_all() -> LintConfig {
        LintConfig {
            root: std::path::PathBuf::from("."),
            determinism_paths: vec![String::new()],
            request_paths: vec![String::new()],
            clock_files: vec![],
            lock_helper_files: vec![],
            shard_modules: vec![String::new()],
            lock_scope: vec![String::new()],
            socket_scope: vec![String::new()],
            readiness_files: vec![],
            deadline_scope: vec![String::new()],
            // Kept empty so the exact-match assertions above stay
            // S006/S007-free; those rules' tests opt in explicitly.
            span_scope: vec![],
            fleet_scope: vec![],
            transport_files: vec![],
        }
    }

    fn rules_of(src: &str) -> Vec<&'static str> {
        check_file("x.rs", src, &cfg_all())
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn d001_fires_on_hashmap() {
        assert_eq!(
            rules_of("use std::collections::HashMap;\n"),
            vec!["NW-D001"]
        );
    }

    #[test]
    fn d002_fires_outside_clock_shim_only() {
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(rules_of(src), vec!["NW-D002"]);
        let mut cfg = cfg_all();
        cfg.clock_files = vec!["x.rs".to_string()];
        assert!(check_file("x.rs", src, &cfg).is_empty());
    }

    #[test]
    fn d004_needs_an_unordered_collection_in_the_file() {
        let with = "let m: HashMap<u32,u32> = make(); for v in m.values() {}";
        let rules = rules_of(with);
        assert!(rules.contains(&"NW-D004"), "{rules:?}");
        let without = "let m: BTreeMap<u32,u32> = make(); for v in m.values() {}";
        assert!(!rules_of(without).contains(&"NW-D004"));
    }

    #[test]
    fn d006_flags_ambient_paths_in_deterministic_scope_only() {
        let src = "fn f() -> PathBuf { std::env::temp_dir() }";
        assert_eq!(rules_of(src), vec!["NW-D006"]);
        assert_eq!(
            rules_of("fn g() { let _ = std::env::current_dir(); }"),
            vec!["NW-D006"]
        );
        let mut cfg = cfg_all();
        cfg.determinism_paths = vec![];
        assert!(check_file("x.rs", src, &cfg).is_empty());
        // A field or variable named temp_dir is not a call.
        assert!(rules_of("fn h(c: &Cfg) -> &Path { &c.temp_dir }").is_empty());
    }

    #[test]
    fn s001_flags_unwrap_expect_and_panics_outside_tests() {
        let src = r#"
            fn f(x: Option<u32>) -> u32 { x.unwrap() }
            fn g(x: Option<u32>) -> u32 { x.expect("boom") }
            fn h() { panic!("no"); }
            #[cfg(test)]
            mod tests {
                fn t(x: Option<u32>) -> u32 { x.unwrap() }
            }
        "#;
        assert_eq!(rules_of(src), vec!["NW-S001", "NW-S001", "NW-S001"]);
    }

    #[test]
    fn s001_does_not_flag_unwrap_or_else() {
        assert!(rules_of("fn f(x: Option<u32>) -> u32 { x.unwrap_or_else(|| 0) }").is_empty());
    }

    #[test]
    fn s002_flags_raw_lock_but_not_helper_file() {
        let src = "fn f(m: &Mutex<u32>) { let _g = m.lock().unwrap(); }";
        let rules = rules_of(src);
        assert!(rules.contains(&"NW-S002"));
        assert!(rules.contains(&"NW-S001"), "the unwrap also fires");
        let mut cfg = cfg_all();
        cfg.lock_helper_files = vec!["x.rs".to_string()];
        assert!(!check_file("x.rs", src, &cfg)
            .iter()
            .any(|f| f.rule == "NW-S002"));
    }

    #[test]
    fn s003_flags_blocking_calls() {
        let src = "fn f() { std::thread::sleep(d); }";
        let rules = rules_of(src);
        assert!(rules.contains(&"NW-S003"), "{rules:?}");
        // thread::sleep also matches D005? No — spawn/scope only.
        assert!(!rules.contains(&"NW-D005"));
    }

    #[test]
    fn d005_flags_spawn_in_deterministic_path() {
        assert!(rules_of("fn f() { std::thread::spawn(|| {}); }").contains(&"NW-D005"));
    }

    #[test]
    fn s004_flags_blocking_socket_io_outside_readiness_files() {
        let src = "fn f(l: &TcpListener) { let _ = l.accept(); }";
        let rules = rules_of(src);
        assert!(rules.contains(&"NW-S004"), "{rules:?}");
        let mut cfg = cfg_all();
        cfg.readiness_files = vec!["x.rs".to_string()];
        assert!(!check_file("x.rs", src, &cfg)
            .iter()
            .any(|f| f.rule == "NW-S004"));
    }

    #[test]
    fn s004_ignores_non_socket_methods() {
        assert!(
            !rules_of("fn f(v: &[u8]) { let _ = v.accepted(); v.write(b); }").contains(&"NW-S004")
        );
    }

    #[test]
    fn s005_flags_raw_deadline_reads() {
        let src = "fn f(t: Instant) -> bool { t.elapsed() > LIMIT }";
        let rules = rules_of(src);
        assert!(rules.contains(&"NW-S005"), "{rules:?}");
        let mut cfg = cfg_all();
        cfg.deadline_scope = vec![];
        assert!(!check_file("x.rs", src, &cfg)
            .iter()
            .any(|f| f.rule == "NW-S005"));
    }

    #[test]
    fn s005_allows_clock_shim_calls() {
        assert!(rules_of("fn f(t: Instant) -> bool { clock::expired(t, limit) }").is_empty());
    }

    #[test]
    fn s006_flags_raw_span_timestamps_in_scope_only() {
        let src = "fn f() { let t = Instant::now(); let w = SystemTime::now(); }";
        let mut cfg = cfg_all();
        cfg.span_scope = vec!["x.rs".to_string()];
        let rules: Vec<_> = check_file("x.rs", src, &cfg)
            .into_iter()
            .map(|f| f.rule)
            .collect();
        assert_eq!(
            rules.iter().filter(|r| **r == "NW-S006").count(),
            2,
            "{rules:?}"
        );
        // The clock shim itself is the one place allowed to read time.
        cfg.clock_files = vec!["x.rs".to_string()];
        assert!(!check_file("x.rs", src, &cfg)
            .iter()
            .any(|f| f.rule == "NW-S006"));
        // Out of scope, only the general D002/D003 rules apply.
        let base: Vec<_> = check_file("x.rs", src, &cfg_all())
            .into_iter()
            .map(|f| f.rule)
            .collect();
        assert!(!base.contains(&"NW-S006"), "{base:?}");
    }

    #[test]
    fn s007_confines_fleet_sockets_to_the_transport_module() {
        let src = "fn f(addr: &str) { let s = TcpStream::connect(addr); s.set_nonblocking(true); }";
        let mut cfg = cfg_all();
        cfg.fleet_scope = vec!["x.rs".to_string()];
        let rules: Vec<_> = check_file("x.rs", src, &cfg)
            .into_iter()
            .map(|f| f.rule)
            .collect();
        assert_eq!(
            rules.iter().filter(|r| **r == "NW-S007").count(),
            2,
            "{rules:?}"
        );
        // The designated transport module is the one place allowed to
        // touch sockets.
        cfg.transport_files = vec!["x.rs".to_string()];
        assert!(!check_file("x.rs", src, &cfg)
            .iter()
            .any(|f| f.rule == "NW-S007"));
        // Out of fleet scope the rule stays silent entirely.
        assert!(!check_file("x.rs", src, &cfg_all())
            .iter()
            .any(|f| f.rule == "NW-S007"));
    }

    #[test]
    fn findings_carry_positions() {
        let f = &check_file("x.rs", "let t =\n  Instant::now();", &cfg_all())[0];
        assert_eq!((f.rule, f.line, f.col), ("NW-D002", 2, 3));
    }
}
