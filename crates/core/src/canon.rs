//! Canonical scenario encoding for plan caching.
//!
//! A [`Scenario`] is the complete input of [`Planner::plan`]: machine
//! config, parent domain, nest specs and the strategy/allocation/mapping
//! knobs. Planning is deterministic in these inputs (the on-demand
//! predictor fit uses a fixed seed), so a scenario's canonical encoding is
//! a sound cache key: two scenarios with equal canonical strings produce
//! byte-identical serialized plans.
//!
//! The canonical string is the versioned compact JSON encoding of the
//! scenario. JSON field order follows struct declaration order and float
//! formatting is shortest-round-trip, so equal values always encode to
//! equal bytes (the only caveats are the usual float identities: `-0.0`
//! encodes as `-0.0` ≠ `0.0`, and non-finite values encode as `null`).
//! [`Scenario::digest`] hashes the canonical bytes with FNV-1a 64 — used
//! for cache sharding; exact-match lookups should use the full string so
//! hash collisions cannot alias two scenarios.

use crate::planner::Planner;
use crate::strategy::{AllocPolicy, MappingKind, Strategy};
use nestwx_grid::{fnv1a64, Domain, NestSpec};
use nestwx_netsim::{IoMode, Machine};
use serde::Serialize;

/// Version tag prefixed to every canonical encoding. Bump when the
/// [`Scenario`] layout (or anything influencing plan determinism) changes,
/// so stale cache entries can never be mistaken for current ones.
pub const SCENARIO_ENCODING_VERSION: &str = "nestwx-scenario-v1";

/// The complete, cacheable input of one planning request.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Scenario {
    /// Target machine (full config — two machines with the same name but
    /// different calibration are different scenarios).
    pub machine: Machine,
    /// Parent domain.
    pub parent: Domain,
    /// Nest specifications.
    pub nests: Vec<NestSpec>,
    /// Execution strategy.
    pub strategy: Strategy,
    /// Allocation policy.
    pub alloc: AllocPolicy,
    /// Mapping kind.
    pub mapping: MappingKind,
    /// History-output mode.
    pub io_mode: IoMode,
    /// Output interval in parent iterations (`None` when `io_mode` is
    /// [`IoMode::None`]).
    pub output_interval: Option<u32>,
}

impl Scenario {
    /// A scenario with the planner's default knobs (concurrent, Huffman,
    /// partition mapping, no output).
    pub fn new(machine: Machine, parent: Domain, nests: Vec<NestSpec>) -> Scenario {
        Scenario {
            machine,
            parent,
            nests,
            strategy: Strategy::Concurrent,
            alloc: AllocPolicy::HuffmanSplitTree,
            mapping: MappingKind::Partition,
            io_mode: IoMode::None,
            output_interval: None,
        }
    }

    /// The [`Planner`] configured exactly as this scenario describes.
    pub fn planner(&self) -> Planner {
        let mut p = Planner::new(self.machine.clone())
            .strategy(self.strategy)
            .alloc_policy(self.alloc)
            .mapping(self.mapping);
        if let Some(every) = self.output_interval {
            p = p.output(self.io_mode, every);
        }
        p
    }

    /// The versioned canonical encoding: `nestwx-scenario-v1:` followed by
    /// the compact JSON of the scenario. Equal scenarios encode to equal
    /// bytes; any field difference (including machine calibration) changes
    /// the encoding.
    pub fn canonical_string(&self) -> String {
        let json = serde_json::to_string(self).expect("scenario serializes");
        format!("{SCENARIO_ENCODING_VERSION}:{json}")
    }

    /// FNV-1a 64 digest of [`Scenario::canonical_string`] — cheap and
    /// stable across runs, for cache sharding and batching keys.
    pub fn digest(&self) -> u64 {
        fnv1a64(self.canonical_string().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> Scenario {
        Scenario::new(
            Machine::bgl(64),
            Domain::parent(286, 307, 24.0),
            vec![
                NestSpec::new(150, 150, 3, (10, 12)),
                NestSpec::new(150, 150, 3, (120, 120)),
            ],
        )
    }

    #[test]
    fn canonical_string_is_stable_and_versioned() {
        let s = scenario();
        assert_eq!(s.canonical_string(), s.canonical_string());
        assert!(s.canonical_string().starts_with("nestwx-scenario-v1:{"));
        assert_eq!(s.digest(), scenario().digest());
    }

    #[test]
    fn every_knob_changes_the_encoding() {
        let base = scenario();
        let mut mapping = base.clone();
        mapping.mapping = MappingKind::MultiLevel;
        let mut alloc = base.clone();
        alloc.alloc = AllocPolicy::Equal;
        let mut strat = base.clone();
        strat.strategy = Strategy::Sequential;
        let mut io = base.clone();
        io.io_mode = IoMode::PnetCdf;
        io.output_interval = Some(2);
        let mut machine = base.clone();
        machine.machine = Machine::bgl(128);
        let mut nest = base.clone();
        nest.nests[0].nx += 1;
        let all = [base.clone(), mapping, alloc, strat, io, machine, nest];
        for (i, a) in all.iter().enumerate() {
            for (j, b) in all.iter().enumerate() {
                assert_eq!(
                    i == j,
                    a.canonical_string() == b.canonical_string(),
                    "scenarios {i} and {j} must encode {}",
                    if i == j { "equally" } else { "differently" }
                );
            }
        }
    }

    #[test]
    fn planner_reproduces_the_scenario_plan_deterministically() {
        // Planning the same scenario twice — even through two separately
        // constructed planners — yields identical plans (the cache
        // determinism guarantee rests on this).
        let s = scenario();
        let a = s.planner().plan(&s.parent, &s.nests).unwrap();
        let b = s.planner().plan(&s.parent, &s.nests).unwrap();
        assert_eq!(a.predicted_ratios, b.predicted_ratios);
        assert_eq!(a.partitions.len(), b.partitions.len());
        for (pa, pb) in a.partitions.iter().zip(&b.partitions) {
            assert_eq!(pa.rect, pb.rect);
        }
        assert_eq!(a.mapping.len(), b.mapping.len());
    }
}
