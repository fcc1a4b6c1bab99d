//! Property-based tests of the torus and the mappings.

use nestwx_grid::{ProcGrid, Rect};
use nestwx_topo::torus::{MachineShape, Torus};
use nestwx_topo::Mapping;
use proptest::prelude::*;

fn arb_torus() -> impl Strategy<Value = Torus> {
    (1u32..10, 1u32..10, 1u32..10).prop_map(|(x, y, z)| Torus::new(x, y, z))
}

proptest! {
    /// Hop distance is a metric: identity, symmetry, triangle inequality.
    #[test]
    fn hops_is_a_metric(t in arb_torus(), seed in 0u64..1_000_000) {
        let n = t.nodes();
        let a = t.coord((seed % n as u64) as u32);
        let b = t.coord(((seed / 7) % n as u64) as u32);
        let c = t.coord(((seed / 49) % n as u64) as u32);
        prop_assert_eq!(t.hops(a, a), 0);
        prop_assert_eq!(t.hops(a, b), t.hops(b, a));
        prop_assert!(t.hops(a, c) + t.hops(c, b) >= t.hops(a, b));
        // Diameter bound: sum of floor(dim/2).
        let diam: u32 = t.dims.iter().map(|d| d / 2).sum();
        prop_assert!(t.hops(a, b) <= diam);
    }

    /// Dimension-ordered routes have exactly `hops` links, all valid and
    /// distinct, and arrive at the destination.
    #[test]
    fn routes_are_minimal(t in arb_torus(), s1 in any::<u32>(), s2 in any::<u32>()) {
        let a = t.coord(s1 % t.nodes());
        let b = t.coord(s2 % t.nodes());
        let route = t.route(a, b);
        prop_assert_eq!(route.len() as u32, t.hops(a, b));
        let mut seen = std::collections::HashSet::new();
        for l in &route {
            prop_assert!(*l < t.num_links());
            prop_assert!(seen.insert(*l));
        }
    }

    /// Appending a route after an arbitrary prefix leaves the prefix intact
    /// and adds exactly `route(a, b)`; `route_into` discards the prefix.
    #[test]
    fn route_append_keeps_the_prefix(
        t in arb_torus(),
        s1 in any::<u32>(),
        s2 in any::<u32>(),
        prefix in proptest::collection::vec(any::<u32>(), 0..12),
    ) {
        let a = t.coord(s1 % t.nodes());
        let b = t.coord(s2 % t.nodes());
        let route = t.route(a, b);
        let mut links = prefix.clone();
        t.route_append(a, b, &mut links);
        prop_assert_eq!(&links[..prefix.len()], &prefix[..]);
        prop_assert_eq!(&links[prefix.len()..], &route[..]);
        t.route_into(a, b, &mut links);
        prop_assert_eq!(links, route);
    }

    /// Index ↔ coordinate round-trips for every node.
    #[test]
    fn index_roundtrip(t in arb_torus()) {
        for i in 0..t.nodes() {
            prop_assert_eq!(t.index(t.coord(i)), i);
        }
    }

    /// Ordered (oblivious/TXYZ) mappings are injective for any rank count.
    #[test]
    fn ordered_mappings_injective(t in arb_torus(), cpn in 1u32..5, frac in 1u32..=100) {
        let shape = MachineShape::new(t, cpn);
        let nranks = (shape.slots() * frac / 100).max(1);
        for m in [Mapping::oblivious(shape, nranks).unwrap(), Mapping::txyz(shape, nranks).unwrap()] {
            let mut seen = std::collections::HashSet::new();
            for r in 0..nranks {
                let s = m.slot(r);
                prop_assert!(s.core < cpn);
                prop_assert!(s.node < t.nodes());
                prop_assert!(seen.insert((s.node, s.core)));
            }
        }
    }

    /// The folded mappings are injective and total whenever the partitions
    /// tile a grid matching the machine size.
    #[test]
    fn folded_mappings_injective(
        tx in 2u32..6, ty in 2u32..6, tz in 1u32..5, cpn in 1u32..3,
        cut_num in 1u32..9,
    ) {
        let t = Torus::new(tx, ty, tz);
        let shape = MachineShape::new(t, cpn);
        let slots = shape.slots();
        let grid = ProcGrid::near_square(slots);
        prop_assume!(grid.px >= 2);
        // Two partitions: a vertical cut at a proportional position.
        let cut = (grid.px * cut_num / 10).clamp(1, grid.px - 1);
        let parts = [
            Rect::new(0, 0, cut, grid.py),
            Rect::new(cut, 0, grid.px - cut, grid.py),
        ];
        for m in [
            Mapping::partition(shape, &grid, &parts).unwrap(),
            Mapping::multilevel(shape, &grid, &parts).unwrap(),
        ] {
            prop_assert_eq!(m.len(), slots);
            let mut seen = std::collections::HashSet::new();
            for r in 0..slots {
                let s = m.slot(r);
                prop_assert!(seen.insert((s.node, s.core)));
            }
        }
    }

    /// Topology-aware mappings never have *more* average nest-halo hops
    /// than the oblivious mapping (on machines with a non-trivial torus).
    #[test]
    fn folded_no_worse_than_oblivious(tz in 2u32..6, cut_num in 2u32..8) {
        let t = Torus::new(4, 4, tz);
        let shape = MachineShape::new(t, 2);
        let grid = ProcGrid::near_square(shape.slots());
        let cut = (grid.px * cut_num / 10).clamp(1, grid.px - 1);
        let parts = [
            Rect::new(0, 0, cut, grid.py),
            Rect::new(cut, 0, grid.px - cut, grid.py),
        ];
        let edges: Vec<_> = parts
            .iter()
            .flat_map(|p| nestwx_topo::metrics::halo_edges(&grid, p, 1.0))
            .collect();
        let ob = Mapping::oblivious(shape, shape.slots()).unwrap();
        let pm = Mapping::partition(shape, &grid, &parts).unwrap();
        let s_ob = nestwx_topo::CommStats::compute(&ob, &edges);
        let s_pm = nestwx_topo::CommStats::compute(&pm, &edges);
        prop_assert!(
            s_pm.avg_hops <= s_ob.avg_hops + 0.25,
            "partition {:.2} hops vs oblivious {:.2}",
            s_pm.avg_hops, s_ob.avg_hops
        );
    }

    /// Mapping hop distances agree with the torus metric.
    #[test]
    fn mapping_hops_consistent(tz in 1u32..5, a in 0u32..64, b in 0u32..64) {
        let t = Torus::new(4, 4, tz);
        let shape = MachineShape::new(t, 1);
        let n = shape.slots();
        prop_assume!(a < n && b < n);
        let m = Mapping::oblivious(shape, n).unwrap();
        prop_assert_eq!(m.hops(a, b), t.hops(m.node_coord(a), m.node_coord(b)));
    }
}
