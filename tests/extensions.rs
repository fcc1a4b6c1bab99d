//! Integration tests of the extension APIs: adaptive steering,
//! cross-validation, 5-D mapping and execution modes — all through the
//! public façade.

use nestwx::core::{run_adaptive, AllocPolicy, Planner};
use nestwx::grid::{Domain, NestSpec, ProcGrid};
use nestwx::netsim::Machine;
use nestwx::predict::{compare_models, leave_one_out};
use nestwx::topo::torus5d::{partition_halo_pairs, Mapping5, Torus5};

fn config() -> (Domain, Vec<NestSpec>) {
    (
        Domain::parent(286, 307, 24.0),
        vec![
            NestSpec::new(259, 229, 3, (10, 12)),
            NestSpec::new(180, 200, 3, (150, 40)),
        ],
    )
}

#[test]
fn adaptive_via_facade_improves_on_equal() {
    let (parent, nests) = config();
    let equal = Planner::new(Machine::bgl(128)).alloc_policy(AllocPolicy::Equal);
    let static_run = equal.plan(&parent, &nests).unwrap().simulate(6).unwrap();
    let adaptive = run_adaptive(&equal, &parent, &nests, 6, 2).unwrap();
    assert!(adaptive.per_iteration() <= static_run.per_iteration() * 1.02);
}

#[test]
fn cross_validation_on_simulator_profiles() {
    let machine = Machine::bgl(64);
    let basis = nestwx::core::profile_basis(&machine, 11);
    let loo = leave_one_out(&basis);
    assert!(
        loo.mean_error() < 0.10,
        "LOO mean error {:.3}",
        loo.mean_error()
    );
    let (interp, naive) = compare_models(&basis, 4);
    assert!(interp.mean_error() <= naive.mean_error() * 1.05);
}

#[test]
fn five_d_universal_fold_on_bgq() {
    let torus = Torus5::bgq_rack();
    let grid = ProcGrid::new(32, 32);
    let m = Mapping5::universal_folded(torus, &grid).unwrap();
    let edges = partition_halo_pairs(&grid, &[grid.rect()]);
    assert!(
        (m.avg_hops(&edges) - 1.0).abs() < 1e-12,
        "universal fold must be 1-hop everywhere"
    );
}

#[test]
fn execution_modes_simulate() {
    let (parent, nests) = config();
    for machine in [
        Machine::bgl_co(128),
        Machine::bgp_smp(64),
        Machine::bgp_dual(128),
    ] {
        let name = machine.name.clone();
        let rep = Planner::new(machine)
            .plan(&parent, &nests)
            .unwrap()
            .simulate(2)
            .unwrap();
        assert!(
            rep.total_time.is_finite() && rep.total_time > 0.0,
            "{name} failed"
        );
    }
}
