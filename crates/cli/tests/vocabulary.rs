//! One scenario, three carriers: `plan` argv, a one-combination sweep
//! spec and a serve `plan` request line must name the same
//! [`Scenario`] — equal canonical string, equal plan key — for every
//! strategy × alloc × mapping × io token. Sweep and serve share one disk
//! plan cache addressed by that key, so a token that meant different
//! things to two front ends would silently split (or alias) cache entries.

use nestwx_cli::{parse_args, Command};
use nestwx_core::vocab::{io_mode_token, IO_MODES};
use nestwx_core::{AllocPolicy, MappingKind, Scenario, Strategy};
use nestwx_netsim::IoMode;
use nestwx_serve::keys::plan_key;
use nestwx_serve::{Request, RequestBody};
use nestwx_sweep::SweepSpec;

const MACHINE: &str = "bgp:256";
const PARENT: &str = "286x307@24";
const NESTS: [&str; 2] = ["150x150r3@10,12", "90x96r3@5,6:in=0"];
const EVERY: u32 = 2;

/// The knob tokens of one combination.
struct Knobs {
    strategy: &'static str,
    alloc: &'static str,
    mapping: &'static str,
    io_mode: IoMode,
}

impl Knobs {
    /// `none` or `MODE:EVERY`.
    fn io(&self) -> String {
        match self.io_mode {
            IoMode::None => io_mode_token(IoMode::None).to_string(),
            mode => format!("{}:{EVERY}", io_mode_token(mode)),
        }
    }
}

/// `nestwx plan` has no `--strategy`: it always plans the paper's
/// concurrent strategy.
fn from_argv(k: &Knobs) -> Scenario {
    let mut args = vec!["plan", "--machine", MACHINE, "--parent", PARENT];
    for nest in &NESTS {
        args.extend(["--nest", nest]);
    }
    let io = k.io();
    args.extend(["--alloc", k.alloc, "--mapping", k.mapping, "--io", &io]);
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    match parse_args(&args).expect("argv parses") {
        Command::Plan(run) => run.scenario,
        other => panic!("expected plan, got {other:?}"),
    }
}

fn from_spec(k: &Knobs) -> Scenario {
    let spec = format!(
        r#"{{"machines": ["{MACHINE}"], "parents": ["{PARENT}"],
            "nest_sets": [["{}", "{}"]],
            "strategies": ["{}"], "allocs": ["{}"], "mappings": ["{}"], "io": ["{}"]}}"#,
        NESTS[0],
        NESTS[1],
        k.strategy,
        k.alloc,
        k.mapping,
        k.io()
    );
    let mut scenarios = SweepSpec::parse(&spec)
        .expect("spec parses")
        .expand()
        .scenarios;
    assert_eq!(scenarios.len(), 1);
    scenarios.remove(0)
}

fn from_wire(k: &Knobs) -> Scenario {
    let io = match k.io_mode {
        IoMode::None => String::new(),
        mode => format!(
            r#","io":{{"mode":"{}","interval":{EVERY}}}"#,
            io_mode_token(mode)
        ),
    };
    let line = format!(
        r#"{{"v":1,"op":"plan","params":{{"machine":"{MACHINE}","parent":{{"nx":286,"ny":307,"dx_km":24}},"nests":[{{"nx":150,"ny":150,"r":3,"ox":10,"oy":12}},{{"nx":90,"ny":96,"r":3,"ox":5,"oy":6,"in":0}}],"strategy":"{}","alloc":"{}","mapping":"{}"{io}}}}}"#,
        k.strategy, k.alloc, k.mapping
    );
    match Request::parse_line(&line).expect("line parses").body {
        RequestBody::Plan(params) => params.to_scenario().expect("machine parses"),
        other => panic!("expected plan, got {other:?}"),
    }
}

#[test]
fn argv_spec_and_wire_name_the_same_scenario() {
    let mut keys = std::collections::BTreeSet::new();
    for strategy in Strategy::ALL {
        for alloc in AllocPolicy::ALL {
            for mapping in MappingKind::ALL {
                for io_mode in IO_MODES {
                    let k = Knobs {
                        strategy: strategy.token(),
                        alloc: alloc.token(),
                        mapping: mapping.token(),
                        io_mode,
                    };
                    let what = format!("{}/{}/{}/{}", k.strategy, k.alloc, k.mapping, k.io());
                    let (spec, wire) = (from_spec(&k), from_wire(&k));
                    assert_eq!(
                        (spec.strategy, spec.alloc, spec.mapping, spec.io_mode),
                        (strategy, alloc, mapping, io_mode),
                        "{what}"
                    );
                    assert_eq!(spec.canonical_string(), wire.canonical_string(), "{what}");
                    assert_eq!(plan_key(&spec), plan_key(&wire), "{what}");
                    if strategy == Strategy::Concurrent {
                        let argv = from_argv(&k);
                        assert_eq!(argv.canonical_string(), spec.canonical_string(), "{what}");
                        assert_eq!(plan_key(&argv), plan_key(&spec), "{what}");
                    }
                    keys.insert(plan_key(&spec));
                }
            }
        }
    }
    // Every combination is its own cache entry.
    assert_eq!(
        keys.len(),
        Strategy::ALL.len() * AllocPolicy::ALL.len() * MappingKind::ALL.len() * IO_MODES.len()
    );
}
