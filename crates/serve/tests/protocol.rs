//! Property-based tests of the wire protocol: serialized requests parse
//! back to exactly the same value, and malformed/oversized input is
//! rejected with the right typed error instead of crashing or desyncing
//! the line reader.

#![cfg(not(loom))]

use nestwx_core::{AllocPolicy, MappingKind, Strategy as ExecStrategy};
use nestwx_grid::{Domain, NestSpec};
use nestwx_netsim::IoMode;
use nestwx_serve::{
    ErrorKind, Line, LineReader, PredictParams, Request, RequestBody, ScenarioParams,
    MAX_LINE_BYTES,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Generators (the vendored proptest has no string/enum strategies, so
// everything is an index or tuple mapped into shape).
// ---------------------------------------------------------------------------

/// Identifier characters, deliberately including everything JSON must
/// escape: quotes, backslashes, control characters, and non-ASCII.
const ID_CHARS: &[char] = &[
    'a', 'Z', '0', '9', '_', '-', '.', ' ', '"', '\\', '/', '\n', '\t', '\r', '\u{1}', 'é', '→',
    '🌀',
];

fn arb_id() -> impl Strategy<Value = Option<String>> {
    (
        any::<bool>(),
        prop::collection::vec(0usize..ID_CHARS.len(), 1..12),
    )
        .prop_map(|(present, idx)| present.then(|| idx.into_iter().map(|i| ID_CHARS[i]).collect()))
}

fn arb_machine() -> impl Strategy<Value = String> {
    (any::<bool>(), 4u32..12).prop_map(|(bgp, pow)| {
        let family = if bgp { "bgp" } else { "bgl" };
        format!("{family}:{}", 1u32 << pow)
    })
}

fn arb_nest(max_parent_idx: usize) -> impl Strategy<Value = NestSpec> {
    (
        (1u32..2000, 1u32..2000),
        1u32..8,
        (0u32..500, 0u32..500),
        0usize..=max_parent_idx.max(1),
    )
        .prop_map(move |((nx, ny), r, (ox, oy), pi)| NestSpec {
            nx,
            ny,
            refine_ratio: r,
            offset: (ox, oy),
            // Index 0 doubles as "no parent nest" so first-level and
            // second-level nests both appear.
            parent_nest: (max_parent_idx > 0 && pi > 0).then(|| pi - 1),
        })
}

fn arb_nests() -> impl Strategy<Value = Vec<NestSpec>> {
    prop::collection::vec(arb_nest(2), 1..5)
}

fn arb_scenario_params() -> impl Strategy<Value = ScenarioParams> {
    (
        arb_machine(),
        (1u32..1000, 1u32..1000, 0.1f64..100.0),
        arb_nests(),
        (0usize..2, 0usize..3, 0usize..MappingKind::ALL.len()),
        (0usize..3, 1u32..500),
    )
        .prop_map(
            |(machine, (px, py, dx), nests, (si, ai, mi), (iom, every))| ScenarioParams {
                machine,
                parent: Domain::parent(px, py, dx),
                nests,
                strategy: [ExecStrategy::Sequential, ExecStrategy::Concurrent][si],
                alloc: [
                    AllocPolicy::Equal,
                    AllocPolicy::NaiveProportional,
                    AllocPolicy::HuffmanSplitTree,
                ][ai],
                mapping: MappingKind::ALL[mi],
                io: match iom {
                    0 => None,
                    1 => Some((IoMode::PnetCdf, every)),
                    _ => Some((IoMode::SplitFiles, every)),
                },
            },
        )
}

fn arb_client() -> impl Strategy<Value = Option<String>> {
    (
        any::<bool>(),
        prop::collection::vec(0usize..ID_CHARS.len(), 1..8),
    )
        .prop_map(|(present, idx)| present.then(|| idx.into_iter().map(|i| ID_CHARS[i]).collect()))
}

fn arb_deadline() -> impl Strategy<Value = Option<u64>> {
    (any::<bool>(), 1u64..600_000).prop_map(|(present, ms)| present.then_some(ms))
}

fn arb_request() -> impl Strategy<Value = Request> {
    (
        (arb_id(), arb_client(), arb_deadline(), any::<bool>()),
        0usize..7,
        arb_scenario_params(),
        arb_machine(),
        arb_nests(),
        (1u32..50, 1u32..=8),
    )
        .prop_map(
            |(
                (id, client, deadline_ms, explain),
                op,
                params,
                machine,
                nests,
                (iterations, workers),
            )| {
                let mut req = Request::new(
                    id,
                    match op {
                        0 => RequestBody::Predict(PredictParams { machine, nests }),
                        1 => RequestBody::Plan(params),
                        2 => RequestBody::Compare { params, iterations },
                        3 => RequestBody::Execute {
                            params,
                            iterations,
                            workers,
                        },
                        4 => RequestBody::Stats,
                        5 => RequestBody::Trace,
                        _ => RequestBody::Shutdown,
                    },
                );
                req.client = client;
                req.deadline_ms = deadline_ms;
                // `explain` only changes plan/compare responses, but the
                // field itself round-trips on every op.
                req.explain = explain;
                req
            },
        )
}

// ---------------------------------------------------------------------------
// Round-trip and rejection properties
// ---------------------------------------------------------------------------

proptest! {
    /// Every request the client can express round-trips exactly through
    /// the wire encoding — ids with escapes, floats, both nest levels, all
    /// strategy/alloc/mapping/io combinations.
    #[test]
    fn request_round_trips(req in arb_request()) {
        let line = req.to_json_line();
        prop_assert!(!line.contains('\n'), "wire line must be newline-free: {line}");
        prop_assert!(line.len() < MAX_LINE_BYTES, "request unexpectedly oversized");
        let parsed = Request::parse_line(&line);
        prop_assert_eq!(parsed.as_ref().ok(), Some(&req), "line was: {}", line);
    }

    /// Serialization is deterministic: the same request always produces
    /// byte-identical lines (a prerequisite for cache-key stability).
    #[test]
    fn serialization_is_deterministic(req in arb_request()) {
        prop_assert_eq!(req.to_json_line(), req.clone().to_json_line());
    }

    /// Arbitrary non-JSON garbage is rejected as `malformed`, never a
    /// panic. (Lines that happen to *be* valid JSON are filtered out.)
    #[test]
    fn garbage_is_malformed(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let line: String = bytes.iter().map(|&b| (b % 127) as char)
            .filter(|c| *c != '\n').collect();
        prop_assume!(serde_json::from_str(&line).is_err());
        let err = Request::parse_line(&line).unwrap_err();
        prop_assert_eq!(err.kind, ErrorKind::Malformed);
    }

    /// A wrong or missing protocol version is always `unsupported_version`,
    /// regardless of the rest of the request.
    #[test]
    fn wrong_version_rejected(v in 2u64..1000, req in arb_request()) {
        let line = req.to_json_line().replacen("{\"v\":1", &format!("{{\"v\":{v}"), 1);
        let err = Request::parse_line(&line).unwrap_err();
        prop_assert_eq!(err.kind, ErrorKind::UnsupportedVersion);
    }

    /// Unknown ops are `bad_request` (the version was fine, the verb is
    /// not).
    #[test]
    fn unknown_op_rejected(tag in 0u32..1_000_000) {
        let line = format!("{{\"v\":1,\"op\":\"frobnicate{tag}\"}}");
        let err = Request::parse_line(&line).unwrap_err();
        prop_assert_eq!(err.kind, ErrorKind::BadRequest);
    }

    /// The line reader flags any over-long line as oversized without
    /// buffering it, and resynchronizes on the next newline: the following
    /// request parses normally.
    #[test]
    fn oversized_lines_skip_and_resync(extra in 1usize..4096, req in arb_request()) {
        let next = req.to_json_line();
        let mut input = "x".repeat(MAX_LINE_BYTES + extra);
        input.push('\n');
        input.push_str(&next);
        input.push('\n');
        let mut reader = LineReader::new(input.as_bytes(), MAX_LINE_BYTES);
        match reader.next_line().unwrap() {
            Line::Oversized { .. } => {}
            other => prop_assert!(false, "expected Oversized, got {other:?}"),
        }
        match reader.next_line().unwrap() {
            Line::Data(line) => {
                prop_assert_eq!(Request::parse_line(&line).as_ref().ok(), Some(&req));
            }
            other => prop_assert!(false, "expected Data after resync, got {other:?}"),
        }
        prop_assert!(matches!(reader.next_line().unwrap(), Line::Eof));
    }

    /// Unknown fields anywhere in the request are tolerated (forward
    /// compatibility): injecting one changes nothing about the parse.
    #[test]
    fn unknown_fields_tolerated(req in arb_request(), tag in 0u64..1_000_000) {
        let line = req.to_json_line();
        let extended = format!(
            "{{\"future_field\":{tag},{}",
            line.strip_prefix('{').unwrap()
        );
        prop_assert_eq!(Request::parse_line(&extended).as_ref().ok(), Some(&req));
    }
}

// ---------------------------------------------------------------------------
// Deterministic edge cases that deserve exact assertions
// ---------------------------------------------------------------------------

#[test]
fn non_boolean_explain_is_bad_request_on_the_wire() {
    let err = Request::parse_line("{\"v\":1,\"op\":\"plan\",\"explain\":\"yes\"}").unwrap_err();
    assert_eq!(err.kind, ErrorKind::BadRequest);
}

#[test]
fn zero_deadline_is_bad_request() {
    let err = Request::parse_line("{\"v\":1,\"op\":\"stats\",\"deadline_ms\":0}").unwrap_err();
    assert_eq!(err.kind, ErrorKind::BadRequest);
}

#[test]
fn non_string_client_is_bad_request() {
    let err = Request::parse_line("{\"v\":1,\"op\":\"stats\",\"client\":42}").unwrap_err();
    assert_eq!(err.kind, ErrorKind::BadRequest);
}

#[test]
fn null_id_is_bad_request() {
    let err = Request::parse_line("{\"v\":1,\"id\":17,\"op\":\"stats\"}").unwrap_err();
    assert_eq!(err.kind, ErrorKind::BadRequest);
}

#[test]
fn plan_without_params_is_bad_request() {
    let err = Request::parse_line("{\"v\":1,\"op\":\"plan\"}").unwrap_err();
    assert_eq!(err.kind, ErrorKind::BadRequest);
}

/// The wire line and the cache-key encoding of one fixed scenario,
/// byte for byte as the commit before the shared vocabulary produced them:
/// the tokens moved, their spelling (and so every disk-cache key) did not.
#[test]
fn wire_line_and_canonical_string_are_pinned() {
    let params = ScenarioParams {
        machine: "bgl:64".into(),
        parent: Domain::parent(286, 307, 24.0),
        nests: vec![
            NestSpec::new(150, 150, 3, (10, 12)),
            NestSpec {
                nx: 90,
                ny: 96,
                refine_ratio: 3,
                offset: (5, 6),
                parent_nest: Some(0),
            },
        ],
        strategy: ExecStrategy::Sequential,
        alloc: AllocPolicy::NaiveProportional,
        mapping: MappingKind::MultiLevel,
        io: Some((IoMode::PnetCdf, 2)),
    };
    let scenario = params.to_scenario().unwrap();
    let request = Request::new(
        Some("pin".into()),
        RequestBody::Compare {
            params,
            iterations: 4,
        },
    );
    assert_eq!(
        request.to_json_line(),
        "{\"v\":1,\"id\":\"pin\",\"op\":\"compare\",\"params\":{\"machine\":\"bgl:64\",\
         \"parent\":{\"nx\":286,\"ny\":307,\"dx_km\":24.0},\
         \"nests\":[{\"nx\":150,\"ny\":150,\"r\":3,\"ox\":10,\"oy\":12},\
         {\"nx\":90,\"ny\":96,\"r\":3,\"ox\":5,\"oy\":6,\"in\":0}],\
         \"strategy\":\"sequential\",\"alloc\":\"naive\",\"mapping\":\"multilevel\",\
         \"io\":{\"mode\":\"pnetcdf\",\"interval\":2},\"iterations\":4}}"
    );
    assert_eq!(
        scenario.canonical_string(),
        concat!(
            "nestwx-scenario-v1:{\"machine\":{\"name\":\"BG/L(64)\",",
            "\"shape\":{\"torus\":{\"dims\":[2,4,4]},\"cores_per_node\":2},",
            "\"compute\":{\"time_per_point\":0.0003,\"halo_compute\":2,",
            "\"fixed_per_step\":0.001,\"mem_penalty\":0.15,\"cache_points\":1500.0,",
            "\"jitter\":0.08},",
            "\"net\":{\"link_bw\":150000000.0,\"hop_latency\":0.0000001,",
            "\"send_overhead\":0.0000032,\"recv_overhead\":0.0000032,",
            "\"mem_bw\":2000000000.0},",
            "\"io\":{\"meta_base\":0.1,\"meta_per_rank\":0.0012,",
            "\"stream_bw\":200000000.0,\"io_streams\":4,",
            "\"split_file_overhead\":0.04,\"split_bw\":15000000.0},",
            "\"halo\":{\"width\":5,\"fields\":16,\"levels\":28,\"bytes_per_value\":4,",
            "\"messages_per_step\":144},\"fields_out\":18,\"levels_out\":28},",
            "\"parent\":{\"nx\":286,\"ny\":307,\"dx_km\":24.0},",
            "\"nests\":[{\"nx\":150,\"ny\":150,\"refine_ratio\":3,\"offset\":[10,12],",
            "\"parent_nest\":null},{\"nx\":90,\"ny\":96,\"refine_ratio\":3,",
            "\"offset\":[5,6],\"parent_nest\":0}],",
            "\"strategy\":\"Sequential\",\"alloc\":\"NaiveProportional\",",
            "\"mapping\":\"MultiLevel\",\"io_mode\":\"PnetCdf\",\"output_interval\":2}"
        )
    );
    assert_eq!(scenario.digest(), 0x4e64_733a_1171_4cf7);
}

#[test]
fn parent_resolution_must_be_finite_and_positive() {
    // 1e999 reads as +inf; a string is not a number at all.
    for dx in ["-1", "0", "0.0", "1e999", "-1e999", "\"nan\"", "null"] {
        let line = format!(
            "{{\"v\":1,\"op\":\"plan\",\"params\":{{\"machine\":\"bgl:64\",\
             \"parent\":{{\"nx\":100,\"ny\":100,\"dx_km\":{dx}}},\
             \"nests\":[{{\"nx\":30,\"ny\":30,\"r\":3,\"ox\":5,\"oy\":5}}]}}}}"
        );
        let err = Request::parse_line(&line).unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRequest, "accepted dx_km {dx}");
    }
}

#[test]
fn compare_zero_iterations_rejected() {
    let ok = "{\"v\":1,\"op\":\"compare\",\"params\":{\"machine\":\"bgl:64\",\
        \"parent\":{\"nx\":100,\"ny\":100,\"dx_km\":24.0},\
        \"nests\":[{\"nx\":30,\"ny\":30,\"r\":3,\"ox\":5,\"oy\":5}],\
        \"iterations\":0}}";
    let err = Request::parse_line(ok).unwrap_err();
    assert_eq!(err.kind, ErrorKind::BadRequest);
}

#[test]
fn execute_worker_and_iteration_caps_are_bad_request() {
    const PARAMS: &str = "\"machine\":\"bgl:64\",\
        \"parent\":{\"nx\":100,\"ny\":100,\"dx_km\":24.0},\
        \"nests\":[{\"nx\":30,\"ny\":30,\"r\":3,\"ox\":5,\"oy\":5}]";
    for bad in [
        "\"workers\":0",
        "\"workers\":9",
        "\"iterations\":0",
        "\"iterations\":1001",
    ] {
        let line = format!("{{\"v\":1,\"op\":\"execute\",\"params\":{{{PARAMS},{bad}}}}}");
        let err = Request::parse_line(&line).unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRequest, "accepted {bad}");
    }
}

#[test]
fn execute_defaults_fill_workers_and_iterations() {
    let line = "{\"v\":1,\"op\":\"execute\",\"params\":{\"machine\":\"bgl:64\",\
        \"parent\":{\"nx\":100,\"ny\":100,\"dx_km\":24.0},\
        \"nests\":[{\"nx\":30,\"ny\":30,\"r\":3,\"ox\":5,\"oy\":5}]}}";
    let req = Request::parse_line(line).unwrap();
    let RequestBody::Execute {
        iterations,
        workers,
        ..
    } = req.body
    else {
        panic!("expected execute");
    };
    assert_eq!(iterations, 5);
    assert_eq!(workers, 2);
}

#[test]
fn defaults_fill_missing_knobs() {
    let line = "{\"v\":1,\"op\":\"plan\",\"params\":{\"machine\":\"bgl:64\",\
        \"parent\":{\"nx\":100,\"ny\":100,\"dx_km\":24.0},\
        \"nests\":[{\"nx\":30,\"ny\":30,\"r\":3,\"ox\":5,\"oy\":5}]}}";
    let req = Request::parse_line(line).unwrap();
    let RequestBody::Plan(p) = req.body else {
        panic!("expected plan");
    };
    assert_eq!(p.strategy, ExecStrategy::Concurrent);
    assert_eq!(p.alloc, AllocPolicy::HuffmanSplitTree);
    assert_eq!(p.mapping, MappingKind::Partition);
    assert_eq!(p.io, None);
}
