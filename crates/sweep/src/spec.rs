//! Declarative scenario-space specs and their deterministic expansion.
//!
//! A spec is a JSON document of axes — machines, parent domains, nest
//! sets (explicit or generated from count × size-range × positions), and
//! the strategy × allocation × mapping × io knobs. [`SweepSpec::expand`]
//! takes the cartesian product in declared axis order (machines
//! outermost, io innermost), so the same spec always yields the same
//! scenario sequence, and dedups by canonical scenario string keeping the
//! first occurrence — two axis entries that collapse to the same scenario
//! are planned once.
//!
//! The format is JSON rather than TOML because the workspace vendors only
//! `serde_json`; every string in a list is a token of the shared
//! scenario vocabulary ([`nestwx_core::vocab`]: `286x307@24` parents,
//! `150x150r3@10,12` nests), on top of which this module keeps one rule
//! of its own: swept domains are at least `MIN_DIM` points a side.

use nestwx_core::strategy::{AllocPolicy, MappingKind, Strategy};
use nestwx_core::vocab::{self, VocabError};
use nestwx_core::Scenario;
use nestwx_grid::{Domain, NestSpec};
use nestwx_netsim::{IoMode, Machine};
use serde_json::Value;
use std::collections::BTreeSet;
use std::fmt;

/// A spec that could not be parsed or validated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sweep spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

impl From<VocabError> for SpecError {
    fn from(e: VocabError) -> SpecError {
        SpecError(e.0)
    }
}

fn err(msg: impl Into<String>) -> SpecError {
    SpecError(msg.into())
}

/// The keys of a JSON object (the vendored `Value` exposes objects as
/// entry lists, not maps).
fn object_keys(v: &Value) -> Option<Vec<&str>> {
    match v {
        Value::Object(entries) => Some(entries.iter().map(|(k, _)| k.as_str()).collect()),
        _ => None,
    }
}

/// A parsed, validated scenario-space spec.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Target machines (`"bgl:64"` specs).
    pub machines: Vec<Machine>,
    /// Parent domains (`"286x307@24"` specs).
    pub parents: Vec<Domain>,
    /// Nest sets — each entry is one complete sibling configuration.
    pub nest_sets: Vec<Vec<NestSpec>>,
    /// Execution strategies (default `["concurrent"]`).
    pub strategies: Vec<Strategy>,
    /// Allocation policies (default `["huffman"]`).
    pub allocs: Vec<AllocPolicy>,
    /// Mapping kinds (default `["partition"]`).
    pub mappings: Vec<MappingKind>,
    /// I/O modes with output interval (default `["none"]`).
    pub io: Vec<(IoMode, Option<u32>)>,
    /// Simulated parent iterations per scenario (default 3; the engine
    /// may override).
    pub iterations: u32,
}

/// The result of expanding a spec: the raw cartesian-product size plus
/// the deduplicated scenario list in first-occurrence order.
#[derive(Debug, Clone)]
pub struct Expansion {
    /// Cartesian-product size before dedup.
    pub expanded: usize,
    /// Unique scenarios, in expansion order.
    pub scenarios: Vec<Scenario>,
}

impl SweepSpec {
    /// Parses and validates a spec from its JSON text.
    pub fn parse(text: &str) -> Result<SweepSpec, SpecError> {
        let v: Value =
            serde_json::from_str(text).map_err(|e| err(format!("not valid JSON: {e:?}")))?;
        let keys = object_keys(&v).ok_or_else(|| err("top level must be an object"))?;
        for key in keys {
            if !matches!(
                key,
                "machines"
                    | "parents"
                    | "nests"
                    | "nest_sets"
                    | "strategies"
                    | "allocs"
                    | "mappings"
                    | "io"
                    | "iterations"
            ) {
                return Err(err(format!("unknown field '{key}'")));
            }
        }

        let machines = str_list(&v, "machines")?
            .ok_or_else(|| err("missing 'machines' list"))?
            .iter()
            .map(|s| Ok(vocab::parse_machine(s)?))
            .collect::<Result<Vec<_>, SpecError>>()?;
        let parents = str_list(&v, "parents")?
            .ok_or_else(|| err("missing 'parents' list"))?
            .iter()
            .map(|s| parse_parent(s))
            .collect::<Result<Vec<_>, _>>()?;

        let mut nest_sets: Vec<Vec<NestSpec>> = Vec::new();
        if let Some(gen) = v.get("nests") {
            nest_sets.extend(generate_nest_sets(gen)?);
        }
        if let Some(sets) = v.get("nest_sets") {
            let sets = sets
                .as_array()
                .ok_or_else(|| err("'nest_sets' must be a list of nest-string lists"))?;
            for set in sets {
                let specs = set
                    .as_array()
                    .ok_or_else(|| err("each nest_sets entry must be a list of nest strings"))?
                    .iter()
                    .map(|n| {
                        n.as_str()
                            .ok_or_else(|| err("nest entries must be strings"))
                            .and_then(parse_nest)
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                if specs.is_empty() {
                    return Err(err("nest_sets entries must not be empty"));
                }
                nest_sets.push(specs);
            }
        }
        if nest_sets.is_empty() {
            return Err(err(
                "no nest sets: provide a 'nests' generator or 'nest_sets'",
            ));
        }

        let strategies = tokens(&v, "strategies", Strategy::Concurrent, str::parse)?;
        let allocs = tokens(&v, "allocs", AllocPolicy::HuffmanSplitTree, str::parse)?;
        let mappings = tokens(&v, "mappings", MappingKind::Partition, str::parse)?;
        let io = tokens(&v, "io", (IoMode::None, None), vocab::parse_io)?;
        let iterations = match v.get("iterations") {
            None => 3,
            Some(x) => x
                .as_u64()
                .filter(|n| (1..=10_000).contains(n))
                .ok_or_else(|| err("'iterations' must be an integer in 1..=10000"))?
                as u32,
        };

        if machines.is_empty() || parents.is_empty() {
            return Err(err("'machines' and 'parents' must be non-empty"));
        }
        if strategies.is_empty() || allocs.is_empty() || mappings.is_empty() || io.is_empty() {
            return Err(err("axis lists must be non-empty"));
        }
        Ok(SweepSpec {
            machines,
            parents,
            nest_sets,
            strategies,
            allocs,
            mappings,
            io,
            iterations,
        })
    }

    /// The spec's cartesian-product size (before dedup).
    pub fn product_size(&self) -> usize {
        self.machines.len()
            * self.parents.len()
            * self.nest_sets.len()
            * self.strategies.len()
            * self.allocs.len()
            * self.mappings.len()
            * self.io.len()
    }

    /// Expands the spec into concrete scenarios: cartesian product in
    /// declared axis order, deduplicated by canonical scenario string
    /// keeping first occurrences. Deterministic — equal specs expand to
    /// equal sequences.
    pub fn expand(&self) -> Expansion {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut scenarios = Vec::new();
        let mut expanded = 0usize;
        for machine in &self.machines {
            for parent in &self.parents {
                for nests in &self.nest_sets {
                    for &strategy in &self.strategies {
                        for &alloc in &self.allocs {
                            for &mapping in &self.mappings {
                                for &(io_mode, output_interval) in &self.io {
                                    expanded += 1;
                                    let scenario = Scenario {
                                        machine: machine.clone(),
                                        parent: parent.clone(),
                                        nests: nests.clone(),
                                        strategy,
                                        alloc,
                                        mapping,
                                        io_mode,
                                        output_interval,
                                    };
                                    if seen.insert(scenario.canonical_string()) {
                                        scenarios.push(scenario);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Expansion {
            expanded,
            scenarios,
        }
    }
}

/// Optional list-of-strings field.
fn str_list(v: &Value, key: &str) -> Result<Option<Vec<String>>, SpecError> {
    let Some(list) = v.get(key) else {
        return Ok(None);
    };
    let arr = list
        .as_array()
        .ok_or_else(|| err(format!("'{key}' must be a list of strings")))?;
    arr.iter()
        .map(|x| {
            x.as_str()
                .map(str::to_owned)
                .ok_or_else(|| err(format!("'{key}' entries must be strings")))
        })
        .collect::<Result<Vec<_>, _>>()
        .map(Some)
}

/// Token-list field (absent means the one `default`), mapped through the
/// vocabulary's `parse`.
fn tokens<T>(
    v: &Value,
    key: &str,
    default: T,
    parse: fn(&str) -> Result<T, VocabError>,
) -> Result<Vec<T>, SpecError> {
    match str_list(v, key)? {
        Some(list) => list.iter().map(|s| Ok(parse(s)?)).collect(),
        None => Ok(vec![default]),
    }
}

/// Smallest swept domain side, in grid points (explicit tokens and the
/// `nests.size` generator share the floor).
const MIN_DIM: u32 = 8;

/// The sweep's own range rule, applied after the shared parse.
fn check_dims(what: &str, token: &str, nx: u32, ny: u32) -> Result<(), SpecError> {
    if nx < MIN_DIM || ny < MIN_DIM {
        return Err(err(format!(
            "{what} '{token}': dimensions must be >= {MIN_DIM}"
        )));
    }
    Ok(())
}

fn parse_parent(s: &str) -> Result<Domain, SpecError> {
    let parent = vocab::parse_parent(s)?;
    check_dims("parent", s, parent.nx, parent.ny)?;
    Ok(parent)
}

fn parse_nest(s: &str) -> Result<NestSpec, SpecError> {
    let nest = vocab::parse_nest(s)?;
    check_dims("nest", s, nest.nx, nest.ny)?;
    if nest.refine_ratio < 1 {
        return Err(err(format!("nest '{s}': r must be >= 1")));
    }
    Ok(nest)
}

/// The `nests` generator block: every `counts` entry crossed with every
/// size in the `size` range; a set of count `c` places `c` square nests of
/// that size at the first `c` `positions`.
fn generate_nest_sets(gen: &Value) -> Result<Vec<Vec<NestSpec>>, SpecError> {
    let keys = object_keys(gen).ok_or_else(|| err("'nests' must be an object"))?;
    for key in keys {
        if !matches!(key, "counts" | "size" | "refine" | "positions") {
            return Err(err(format!("unknown 'nests' field '{key}'")));
        }
    }
    let counts: Vec<usize> = gen
        .get("counts")
        .and_then(|c| c.as_array())
        .ok_or_else(|| err("'nests.counts' must be a list of integers"))?
        .iter()
        .map(|x| {
            x.as_u64()
                .filter(|&n| n >= 1)
                .map(|n| n as usize)
                .ok_or_else(|| err("'nests.counts' entries must be integers >= 1"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let size = gen
        .get("size")
        .ok_or_else(|| err("'nests.size' range required: {\"start\":N,\"step\":N,\"n\":N}"))?;
    let range_field = |key: &str| -> Result<u64, SpecError> {
        size.get(key)
            .and_then(|x| x.as_u64())
            .ok_or_else(|| err(format!("'nests.size.{key}' must be a non-negative integer")))
    };
    let (start, step, n) = (
        range_field("start")?,
        range_field("step")?,
        range_field("n")?,
    );
    if start < u64::from(MIN_DIM) || n < 1 {
        return Err(err(format!(
            "'nests.size': start must be >= {MIN_DIM} and n >= 1"
        )));
    }
    let refine = match gen.get("refine") {
        None => 3,
        Some(x) => {
            x.as_u64()
                .filter(|&r| r >= 1)
                .ok_or_else(|| err("'nests.refine' must be an integer >= 1"))? as u32
        }
    };
    let positions: Vec<(u32, u32)> = gen
        .get("positions")
        .and_then(|p| p.as_array())
        .ok_or_else(|| err("'nests.positions' must be a list of [x, y] pairs"))?
        .iter()
        .map(|p| {
            let pair = p.as_array().filter(|a| a.len() == 2);
            let x = pair.and_then(|a| a[0].as_u64());
            let y = pair.and_then(|a| a[1].as_u64());
            match (x, y) {
                (Some(x), Some(y)) if x <= u32::MAX as u64 && y <= u32::MAX as u64 => {
                    Ok((x as u32, y as u32))
                }
                _ => Err(err(
                    "'nests.positions' entries must be [x, y] integer pairs",
                )),
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    let max_count = counts.iter().copied().max().unwrap_or(0);
    if positions.len() < max_count {
        return Err(err(format!(
            "'nests.positions' has {} entries but 'counts' asks for up to {max_count} nests",
            positions.len()
        )));
    }

    let mut sets = Vec::with_capacity(counts.len() * n as usize);
    for &count in &counts {
        for k in 0..n {
            let dim = start + k * step;
            let dim: u32 = dim
                .try_into()
                .map_err(|_| err("'nests.size' range overflows u32"))?;
            sets.push(
                positions[..count]
                    .iter()
                    .map(|&pos| NestSpec::new(dim, dim, refine, pos))
                    .collect(),
            );
        }
    }
    Ok(sets)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
        "machines": ["bgl:64", "bgl:128"],
        "parents": ["286x307@24"],
        "nests": {
            "counts": [1, 2],
            "size": {"start": 96, "step": 12, "n": 2},
            "refine": 3,
            "positions": [[10, 12], [120, 120]]
        },
        "strategies": ["sequential", "concurrent"],
        "allocs": ["huffman", "naive"],
        "mappings": ["partition", "multilevel"]
    }"#;

    #[test]
    fn parses_and_expands_the_full_product() {
        let spec = SweepSpec::parse(SPEC).unwrap();
        // 2 machines × 1 parent × (2 counts × 2 sizes) × 2 strategies ×
        // 2 allocs × 2 mappings × 1 io = 64.
        assert_eq!(spec.product_size(), 64);
        let ex = spec.expand();
        assert_eq!(ex.expanded, 64);
        assert_eq!(ex.scenarios.len(), 64, "distinct axes never collapse");
        assert_eq!(spec.iterations, 3);
    }

    #[test]
    fn expansion_is_order_stable() {
        let spec = SweepSpec::parse(SPEC).unwrap();
        let a: Vec<String> = spec
            .expand()
            .scenarios
            .iter()
            .map(Scenario::canonical_string)
            .collect();
        let b: Vec<String> = spec
            .expand()
            .scenarios
            .iter()
            .map(Scenario::canonical_string)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn duplicate_axis_entries_are_planned_once() {
        let spec = SweepSpec::parse(
            r#"{
                "machines": ["bgl:64", "bgl:64"],
                "parents": ["286x307@24"],
                "nest_sets": [["96x96r3@10,12"], ["96x96r3@10,12"]],
                "mappings": ["partition", "partition"]
            }"#,
        )
        .unwrap();
        let ex = spec.expand();
        assert_eq!(ex.expanded, 8);
        assert_eq!(ex.scenarios.len(), 1, "all eight combos are one scenario");
    }

    #[test]
    fn explicit_nest_sets_and_generator_combine() {
        let spec = SweepSpec::parse(
            r#"{
                "machines": ["bgl:64"],
                "parents": ["286x307@24"],
                "nests": {
                    "counts": [1],
                    "size": {"start": 96, "step": 0, "n": 1},
                    "positions": [[10, 12]]
                },
                "nest_sets": [["150x140r3@10,12", "96x96r2@120,120"]]
            }"#,
        )
        .unwrap();
        assert_eq!(spec.nest_sets.len(), 2);
        assert_eq!(spec.nest_sets[0], vec![NestSpec::new(96, 96, 3, (10, 12))]);
        assert_eq!(
            spec.nest_sets[1],
            vec![
                NestSpec::new(150, 140, 3, (10, 12)),
                NestSpec::new(96, 96, 2, (120, 120)),
            ]
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        for (label, text) in [
            ("not json", "nope"),
            (
                "no machines",
                r#"{"parents": ["286x307@24"], "nest_sets": [["96x96r3@1,1"]]}"#,
            ),
            (
                "no nests",
                r#"{"machines": ["bgl:64"], "parents": ["286x307@24"]}"#,
            ),
            (
                "bad machine",
                r#"{"machines": ["bgl:63"], "parents": ["286x307@24"], "nest_sets": [["96x96r3@1,1"]]}"#,
            ),
            (
                "bad parent",
                r#"{"machines": ["bgl:64"], "parents": ["286@24"], "nest_sets": [["96x96r3@1,1"]]}"#,
            ),
            (
                "bad nest",
                r#"{"machines": ["bgl:64"], "parents": ["286x307@24"], "nest_sets": [["96x96@1,1"]]}"#,
            ),
            (
                "bad token",
                r#"{"machines": ["bgl:64"], "parents": ["286x307@24"], "nest_sets": [["96x96r3@1,1"]], "mappings": ["spiral"]}"#,
            ),
            (
                "unknown field",
                r#"{"machines": ["bgl:64"], "parents": ["286x307@24"], "nest_sets": [["96x96r3@1,1"]], "colour": "red"}"#,
            ),
            (
                "too few positions",
                r#"{"machines": ["bgl:64"], "parents": ["286x307@24"], "nests": {"counts": [2], "size": {"start": 96, "step": 0, "n": 1}, "positions": [[1, 1]]}}"#,
            ),
        ] {
            assert!(
                SweepSpec::parse(text).is_err(),
                "{label} should be rejected"
            );
        }
        // Grammar (finite dx > 0, `@inf` used to pass) and the sweep's own
        // minimum-side rule, both on the parent token.
        for parent in [
            "286x307@nan",
            "286x307@inf",
            "286x307@-1",
            "286x307@0",
            "7x307@24",
        ] {
            let text = format!(
                r#"{{"machines": ["bgl:64"], "parents": ["{parent}"], "nest_sets": [["96x96r3@1,1"]]}}"#
            );
            assert!(SweepSpec::parse(&text).is_err(), "accepted parent {parent}");
        }
        for nest in ["7x96r3@1,1", "96x7r3@1,1", "96x96r0@1,1"] {
            let text = format!(
                r#"{{"machines": ["bgl:64"], "parents": ["286x307@24"], "nest_sets": [["{nest}"]]}}"#
            );
            assert!(SweepSpec::parse(&text).is_err(), "accepted nest {nest}");
        }
    }
}
