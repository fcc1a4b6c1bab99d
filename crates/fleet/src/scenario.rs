//! Deterministic scenario → model construction and plan-driven nest
//! partitioning.
//!
//! Every fleet participant — coordinator, each worker, and the in-process
//! reference run the determinism tests compare against — builds its model
//! through [`build_model`], so initial state is a pure function of the
//! scenario's parent/nest specs. The construction order is fixed
//! (depressions on the parent, then level-1 nests initialised once from it,
//! then second-level children from their host nests): reordering would
//! change which state each nest interpolates from.

use nestwx_grid::{Domain, NestSpec};
use nestwx_miniwrf::nest::NestGeometry;
use nestwx_miniwrf::solver::Boundary;
use nestwx_miniwrf::{NestedModel, ShallowWater};

/// Quiescent water depth (metres) of every fleet scenario.
pub const MODEL_DEPTH_M: f64 = 100.0;

/// Builds the coupled model for a scenario's domains: one level-1 nest per
/// spec with `parent_nest: None` (in spec order), one deterministic
/// depression centred on each level-1 nest, then the level-2 children.
///
/// Panics if a nest does not fit its parent — callers (coordinator, serve
/// endpoint) validate specs via the planner before building.
pub fn build_model(parent: &Domain, nests: &[NestSpec]) -> NestedModel {
    let level1: Vec<(usize, &NestSpec)> = nests
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent_nest.is_none())
        .collect();
    let geos: Vec<NestGeometry> = level1.iter().map(|(_, s)| geometry(s)).collect();
    let mut parent_solver = ShallowWater::quiescent(
        parent.nx as usize,
        parent.ny as usize,
        parent.dx_km * 1000.0,
        MODEL_DEPTH_M,
        Boundary::ZeroGradient,
    );
    // One depression per level-1 nest, centred on its parent footprint —
    // a pure function of the geometry, so every process computes the same
    // initial condition. All of them go on the parent before the nests are
    // initialised from it, once.
    for (ordinal, geo) in geos.iter().enumerate() {
        let (pi0, pj0, pw, ph) = geo.parent_footprint();
        parent_solver.add_gaussian(
            pi0 as f64 + pw as f64 / 2.0,
            pj0 as f64 + ph as f64 / 2.0,
            -4.0 - ordinal as f64,
            2.5 + 0.5 * ordinal as f64,
        );
    }
    let mut model = NestedModel::with_parent(parent_solver, MODEL_DEPTH_M, &geos);
    // Children last: they initialize from the (already depressed) host
    // nests, in spec order.
    for (_, spec) in nests
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent_nest.is_some())
    {
        let host_spec = spec.parent_nest.expect("filtered on Some");
        let host_ordinal = level1
            .iter()
            .position(|(i, _)| *i == host_spec)
            .expect("parent_nest refers to a level-1 nest (planner-validated)");
        model.add_child_nest(host_ordinal, geometry(spec));
    }
    model
}

fn geometry(spec: &NestSpec) -> NestGeometry {
    NestGeometry {
        ratio: spec.refine_ratio as usize,
        offset: (spec.offset.0 as usize, spec.offset.1 as usize),
        nx: spec.nx as usize,
        ny: spec.ny as usize,
    }
}

/// Per-level-1-nest rank weights from a compiled plan: each level-1 nest
/// gets its own partition's ranks plus those of its children, so a nest
/// that carries a second-level domain weighs what the plan actually
/// allocated to that subtree. Falls back to fine-cell work (`nx·ny·r`)
/// when the plan has no per-nest partitions (sequential strategy).
pub fn nest_weights(nests: &[NestSpec], partitions: &[(usize, u64)]) -> Vec<u64> {
    let level1: Vec<usize> = (0..nests.len())
        .filter(|&i| nests[i].parent_nest.is_none())
        .collect();
    let owner_of_spec = |spec_idx: usize| -> usize {
        let owner_spec = nests[spec_idx].parent_nest.unwrap_or(spec_idx);
        level1
            .iter()
            .position(|&l| l == owner_spec)
            .expect("parent_nest refers to a level-1 nest")
    };
    let mut weights = vec![0u64; level1.len()];
    for &(domain, ranks) in partitions {
        if domain < nests.len() {
            weights[owner_of_spec(domain)] += ranks;
        }
    }
    for (ordinal, &spec_idx) in level1.iter().enumerate() {
        if weights[ordinal] == 0 {
            weights[ordinal] = nests
                .iter()
                .enumerate()
                .filter(|(i, s)| *i == spec_idx || s.parent_nest == Some(spec_idx))
                .map(|(_, s)| s.nx as u64 * s.ny as u64 * s.refine_ratio as u64)
                .sum();
        }
    }
    weights
}

/// Splits nests `0..weights.len()` into `workers` contiguous groups with
/// balanced weight sums: nest `i` lands in the group its cumulative weight
/// midpoint falls into. Deterministic, order-preserving, and stable under
/// worker count 1 (everything in group 0). Groups may be empty when there
/// are more workers than nests.
pub fn partition_nests(weights: &[u64], workers: usize) -> Vec<Vec<usize>> {
    assert!(workers > 0, "at least one worker");
    let total: u64 = weights.iter().sum::<u64>().max(1);
    let mut groups = vec![Vec::new(); workers];
    let mut cum = 0u64;
    for (i, &w) in weights.iter().enumerate() {
        let mid = cum + w / 2;
        let g = ((mid as u128 * workers as u128) / total as u128) as usize;
        groups[g.min(workers - 1)].push(i);
        cum += w;
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_contiguous_and_complete() {
        let weights = [5u64, 1, 1, 5, 3, 7, 2, 2];
        for workers in 1..=6 {
            let groups = partition_nests(&weights, workers);
            assert_eq!(groups.len(), workers);
            let flat: Vec<usize> = groups.iter().flatten().copied().collect();
            assert_eq!(
                flat,
                (0..weights.len()).collect::<Vec<_>>(),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn partition_balances_rank_weight() {
        let weights = [10u64, 10, 10, 10];
        let groups = partition_nests(&weights, 2);
        assert_eq!(groups[0], vec![0, 1]);
        assert_eq!(groups[1], vec![2, 3]);
    }

    #[test]
    fn more_workers_than_nests_leaves_empty_groups() {
        let groups = partition_nests(&[1, 1], 4);
        let owned: usize = groups.iter().map(Vec::len).sum();
        assert_eq!(owned, 2);
        assert_eq!(groups.len(), 4);
    }

    #[test]
    fn weights_fold_children_into_their_host() {
        let nests = vec![
            NestSpec::new(10, 10, 3, (0, 0)),
            NestSpec::new(10, 10, 2, (20, 20)),
            NestSpec::child_of(0, 4, 4, 2, (1, 1)),
        ];
        // Plan-derived: nest 0 gets 5 ranks, its child 3, sibling 4.
        let w = nest_weights(&nests, &[(0, 5), (1, 4), (2, 3)]);
        assert_eq!(w, vec![8, 4]);
        // Fallback: fine-cell work, child folded into host.
        let w = nest_weights(&nests, &[]);
        assert_eq!(w, vec![10 * 10 * 3 + 4 * 4 * 2, 10 * 10 * 2]);
    }

    #[test]
    fn build_model_is_deterministic() {
        let parent = Domain::parent(48, 48, 24.0);
        let nests = vec![
            NestSpec::new(24, 24, 3, (4, 4)),
            NestSpec::new(16, 16, 2, (28, 28)),
            NestSpec::child_of(0, 8, 8, 2, (3, 3)),
        ];
        let a = build_model(&parent, &nests);
        let b = build_model(&parent, &nests);
        assert_eq!(a, b);
        assert_eq!(a.nests.len(), 2, "level-1 nests only");
        assert_eq!(a.nests[0].children.len(), 1);
        // Initialising the nests once after all depressions equals
        // re-initialising them after each one.
        let geos: Vec<NestGeometry> = nests[..2].iter().map(geometry).collect();
        let mut reference = NestedModel::new(48, 48, 24_000.0, MODEL_DEPTH_M, &geos);
        reference.add_depression(8.0, 8.0, -4.0, 2.5);
        reference.add_depression(32.0, 32.0, -5.0, 3.0);
        reference.add_child_nest(0, geometry(&nests[2]));
        assert_eq!(a, reference);
    }
}
