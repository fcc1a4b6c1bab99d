//! Property tests for spec expansion: order stability and dedup.

use nestwx_core::Scenario;
use nestwx_sweep::{Expansion, SweepSpec};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The pool entries the generated indices pick, as a JSON list body.
fn pick(pool: &[&str], idx: &[usize]) -> String {
    idx.iter()
        .map(|&i| pool[i % pool.len()])
        .collect::<Vec<_>>()
        .join(", ")
}

/// Builds a spec JSON from generated axis choices. Axes draw from small
/// pools so the product stays cheap while still varying shape.
fn spec_json(
    machines: &[usize],
    sizes: (u64, u64, u64),
    allocs: &[usize],
    mappings: &[usize],
) -> String {
    let machine_pool = ["\"bgl:64\"", "\"bgl:128\"", "\"bgp:256\""];
    let alloc_pool = ["\"equal\"", "\"naive\"", "\"huffman\""];
    let mapping_pool = [
        "\"oblivious\"",
        "\"txyz\"",
        "\"partition\"",
        "\"multilevel\"",
    ];
    format!(
        r#"{{
            "machines": [{}],
            "parents": ["286x307@24"],
            "nests": {{
                "counts": [1, 2],
                "size": {{"start": {}, "step": {}, "n": {}}},
                "positions": [[10, 12], [120, 120]]
            }},
            "allocs": [{}],
            "mappings": [{}]
        }}"#,
        pick(&machine_pool, machines),
        sizes.0,
        sizes.1,
        sizes.2,
        pick(&alloc_pool, allocs),
        pick(&mapping_pool, mappings),
    )
}

/// [`spec_json`] with a repeat on every axis: the first machine, strategy,
/// alloc and mapping listed again, an explicit nest set equal to the
/// first generated one, and `"pnetcdf:2"` twice among the io modes.
fn spec_json_with_repeats(
    machines: &[usize],
    sizes: (u64, u64, u64),
    strategies: &[usize],
    allocs: &[usize],
    mappings: &[usize],
    io: &[usize],
) -> String {
    let again = |idx: &[usize]| -> Vec<usize> { idx.iter().chain(&idx[..1]).copied().collect() };
    let strategy_pool = ["\"sequential\"", "\"concurrent\""];
    let io_pool = ["\"none\"", "\"pnetcdf:2\"", "\"split:2\"", "\"pnetcdf:3\""];
    let base = spec_json(&again(machines), sizes, &again(allocs), &again(mappings));
    let start = sizes.0;
    let extra = format!(
        r#"{{
            "nest_sets": [["{start}x{start}r3@10,12"]],
            "strategies": [{}],
            "io": ["pnetcdf:2", {}, "pnetcdf:2"],
"#,
        pick(&strategy_pool, &again(strategies)),
        pick(&io_pool, io),
    );
    base.replacen('{', &extra, 1)
}

/// The expansion as a product followed by a set of canonical strings,
/// keeping first occurrences: what [`SweepSpec::expand`] must equal.
fn oracle_expand(spec: &SweepSpec) -> (usize, Vec<Scenario>) {
    let mut seen = BTreeSet::new();
    let mut scenarios = Vec::new();
    let mut expanded = 0;
    for machine in &spec.machines {
        for parent in &spec.parents {
            for nests in &spec.nest_sets {
                for &strategy in &spec.strategies {
                    for &alloc in &spec.allocs {
                        for &mapping in &spec.mappings {
                            for &(io_mode, output_interval) in &spec.io {
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
    (expanded, scenarios)
}

proptest! {
    /// Per-axis dedup equals dedup of the whole product, in order, and
    /// every carried canonical string is the scenario's own.
    #[test]
    fn expansion_matches_the_product_then_dedup_oracle(
        machines in proptest::collection::vec(0usize..3, 1..3),
        start in 8u64..64,
        step in 0u64..16,
        n in 1u64..3,
        strategies in proptest::collection::vec(0usize..2, 1..3),
        allocs in proptest::collection::vec(0usize..3, 1..3),
        mappings in proptest::collection::vec(0usize..4, 1..3),
        io in proptest::collection::vec(0usize..4, 1..3),
    ) {
        let text = spec_json_with_repeats(
            &machines, (start, step, n), &strategies, &allocs, &mappings, &io,
        );
        let spec = SweepSpec::parse(&text).unwrap();
        let Expansion { expanded, scenarios, canonical } = spec.expand();
        let (oracle_expanded, oracle) = oracle_expand(&spec);
        prop_assert!(oracle.len() < oracle_expanded, "the spec repeats entries");
        prop_assert_eq!(expanded, oracle_expanded);
        prop_assert_eq!(expanded - scenarios.len(), oracle_expanded - oracle.len());
        prop_assert_eq!(&scenarios, &oracle);
        let own: Vec<String> = scenarios.iter().map(Scenario::canonical_string).collect();
        prop_assert_eq!(canonical, own);
    }

    /// Expanding the same spec twice yields the same scenario sequence —
    /// byte-for-byte equal canonical strings, in the same order.
    #[test]
    fn expansion_is_order_stable(
        machines in proptest::collection::vec(0usize..3, 1..3),
        start in 8u64..64,
        step in 0u64..16,
        n in 1u64..3,
        allocs in proptest::collection::vec(0usize..3, 1..3),
        mappings in proptest::collection::vec(0usize..4, 1..3),
    ) {
        let text = spec_json(&machines, (start, step, n), &allocs, &mappings);
        let spec = SweepSpec::parse(&text).unwrap();
        let a: Vec<String> = spec.expand().scenarios.iter()
            .map(|s| s.canonical_string()).collect();
        let b: Vec<String> = spec.expand().scenarios.iter()
            .map(|s| s.canonical_string()).collect();
        prop_assert_eq!(a, b);
    }

    /// Expansion never emits two scenarios with the same canonical
    /// encoding, and never emits more scenarios than the product size.
    #[test]
    fn expansion_is_duplicate_free(
        machines in proptest::collection::vec(0usize..3, 1..4),
        start in 8u64..64,
        step in 0u64..16,
        n in 1u64..3,
        allocs in proptest::collection::vec(0usize..3, 1..4),
        mappings in proptest::collection::vec(0usize..4, 1..4),
    ) {
        let text = spec_json(&machines, (start, step, n), &allocs, &mappings);
        let spec = SweepSpec::parse(&text).unwrap();
        let ex = spec.expand();
        prop_assert_eq!(ex.expanded, spec.product_size());
        let mut canon: Vec<String> = ex.scenarios.iter()
            .map(|s| s.canonical_string()).collect();
        let emitted = canon.len();
        prop_assert!(emitted <= ex.expanded);
        canon.sort();
        canon.dedup();
        prop_assert_eq!(canon.len(), emitted, "duplicate scenarios escaped dedup");
    }
}
