//! Cache-key construction for the plan cache.
//!
//! Every key bakes in [`PLAN_FORMAT_VERSION`] — the version of the
//! *rendered result JSON*, distinct from the protocol version and the
//! scenario encoding version. Because the cache stores rendered bytes
//! (not plan objects), a deploy that changes the result shape would
//! otherwise keep serving stale-format hits to new clients; versioned
//! keys make every old entry an automatic miss instead, emptying the
//! hit-rate without any explicit invalidation step.

use nestwx_core::{fnv1a64, Scenario};

/// Version of the rendered plan/compare result format. Bump whenever the
/// JSON produced by the server's renderers changes shape or semantics —
/// all cached entries written under the previous version stop matching.
pub const PLAN_FORMAT_VERSION: u32 = 1;

/// The result shape a key addresses. Each shape has its own key suffix,
/// so plan, compare and sweep entries never collide in the shared store.
#[derive(Debug, Clone, Copy)]
pub enum KeyKind {
    /// A rendered `plan` response.
    Plan,
    /// A rendered `compare` response over this many iterations.
    Compare(u32),
    /// A sweep result envelope (plan digest + simulated metrics) over this
    /// many iterations.
    Sweep(u32),
}

/// A cache key under an explicit format version: the one builder behind
/// [`plan_key`], [`compare_key`] and [`sweep_key`], public so tests can
/// build keys under another version and prove that a bump misses.
pub fn versioned_key(version: u32, scenario: &Scenario, kind: KeyKind) -> String {
    let canonical = scenario.canonical_string();
    match kind {
        KeyKind::Plan => format!("fmt{version}|{canonical}"),
        KeyKind::Compare(n) => format!("fmt{version}|{canonical}|compare:{n}"),
        KeyKind::Sweep(n) => format!("fmt{version}|{canonical}|sweep:{n}"),
    }
}

/// The cache key for a `plan` request.
pub fn plan_key(scenario: &Scenario) -> String {
    versioned_key(PLAN_FORMAT_VERSION, scenario, KeyKind::Plan)
}

/// The cache key for a `compare` request over `iterations` iterations.
pub fn compare_key(scenario: &Scenario, iterations: u32) -> String {
    versioned_key(PLAN_FORMAT_VERSION, scenario, KeyKind::Compare(iterations))
}

/// The disk-cache key for a sweep result envelope over `iterations`
/// iterations.
pub fn sweep_key(scenario: &Scenario, iterations: u32) -> String {
    versioned_key(PLAN_FORMAT_VERSION, scenario, KeyKind::Sweep(iterations))
}

/// The shard-selecting digest for a key (FNV-1a 64 over the key bytes).
pub fn key_digest(key: &str) -> u64 {
    fnv1a64(key.as_bytes())
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::cache::PlanCache;
    use crate::protocol::parse_machine;
    use nestwx_core::strategy::{AllocPolicy, MappingKind, Strategy};
    use nestwx_grid::{Domain, NestSpec};
    use nestwx_netsim::IoMode;
    use std::sync::Arc;

    fn scenario() -> Scenario {
        Scenario {
            machine: parse_machine("bgl:64").unwrap(),
            parent: Domain::parent(286, 307, 24.0),
            nests: vec![NestSpec::new(96, 90, 3, (10, 12))],
            strategy: Strategy::Concurrent,
            alloc: AllocPolicy::HuffmanSplitTree,
            mapping: MappingKind::Partition,
            io_mode: IoMode::None,
            output_interval: None,
        }
    }

    #[test]
    fn keys_embed_the_format_version() {
        let s = scenario();
        assert!(plan_key(&s).starts_with(&format!("fmt{PLAN_FORMAT_VERSION}|")));
        assert!(compare_key(&s, 5).ends_with("|compare:5"));
        assert_ne!(plan_key(&s), compare_key(&s, 5));
    }

    #[test]
    fn key_bytes_are_pinned() {
        // Persisted disk entries are addressed by these bytes: a change
        // here orphans every cache directory, so it must come with a
        // PLAN_FORMAT_VERSION bump, never by accident.
        const PLAN: &str = r#"fmt1|nestwx-scenario-v1:{"machine":{"name":"BG/L(64)","shape":{"torus":{"dims":[2,4,4]},"cores_per_node":2},"compute":{"time_per_point":0.0003,"halo_compute":2,"fixed_per_step":0.001,"mem_penalty":0.15,"cache_points":1500.0,"jitter":0.08},"net":{"link_bw":150000000.0,"hop_latency":0.0000001,"send_overhead":0.0000032,"recv_overhead":0.0000032,"mem_bw":2000000000.0},"io":{"meta_base":0.1,"meta_per_rank":0.0012,"stream_bw":200000000.0,"io_streams":4,"split_file_overhead":0.04,"split_bw":15000000.0},"halo":{"width":5,"fields":16,"levels":28,"bytes_per_value":4,"messages_per_step":144},"fields_out":18,"levels_out":28},"parent":{"nx":286,"ny":307,"dx_km":24.0},"nests":[{"nx":96,"ny":90,"refine_ratio":3,"offset":[10,12],"parent_nest":null}],"strategy":"Concurrent","alloc":"HuffmanSplitTree","mapping":"Partition","io_mode":"None","output_interval":null}"#;
        let s = scenario();
        assert_eq!(plan_key(&s), PLAN);
        assert_eq!(compare_key(&s, 5), format!("{PLAN}|compare:5"));
        assert_eq!(sweep_key(&s, 3), format!("{PLAN}|sweep:3"));
    }

    #[test]
    fn sweep_keys_are_distinct_and_versioned() {
        let s = scenario();
        let k = sweep_key(&s, 3);
        assert!(k.starts_with(&format!("fmt{PLAN_FORMAT_VERSION}|")));
        assert!(k.ends_with("|sweep:3"));
        assert_ne!(k, plan_key(&s));
        assert_ne!(k, compare_key(&s, 3));
        assert_ne!(sweep_key(&s, 3), sweep_key(&s, 5));
    }

    #[test]
    fn bumping_the_format_version_empties_the_hit_rate() {
        let s = scenario();
        let cache = PlanCache::new(64);
        // Warm the cache under the current version and confirm it is hot.
        let key = versioned_key(PLAN_FORMAT_VERSION, &s, KeyKind::Plan);
        cache.insert(key.clone(), key_digest(&key), Arc::from("{\"v\":1}"));
        assert!(cache.get(&key, key_digest(&key)).is_some());
        assert!(cache.stats().hit_rate > 0.0);

        // Every lookup under the bumped version misses — the stale-format
        // entries are unreachable without any explicit flush.
        let bumped = versioned_key(PLAN_FORMAT_VERSION + 1, &s, KeyKind::Plan);
        let before = cache.stats();
        assert!(cache.get(&bumped, key_digest(&bumped)).is_none());
        let after = cache.stats();
        assert_eq!(after.hits, before.hits, "no hit under the new version");
        assert_eq!(after.misses, before.misses + 1);
        assert!(after.hit_rate < before.hit_rate);
    }
}
