//! Profiling runs and predictor fitting.
//!
//! §3.1: "We conducted experiments on a fixed number of processors for a
//! small set (size = 13) of domains with different domain sizes and
//! different aspect ratios." Here the "experiments" are runs of the machine
//! simulator; on a real deployment they would be short WRF runs.

use nestwx_grid::{Domain, DomainFeatures, NestedConfig, ProcGrid};
use nestwx_netsim::{ExecStrategy, IoMode, Machine, Simulation};
use nestwx_predict::{generate_candidates, select_basis_covering, BasisDomain, ExecTimePredictor};
use nestwx_topo::Mapping;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Number of processors the profiling runs use (fixed, per the paper — only
/// *relative* times matter for allocation).
pub const PROFILE_RANKS: u32 = 64;

/// Seed of the candidate-domain draw behind every predictor a plan is made
/// with: [`PredictorStore`](crate::PredictorStore) fits with it, so a plan
/// is the same bytes whichever process or store computed it.
pub const PROFILE_SEED: u64 = 0xBEEF;

/// Measures the per-iteration integration time of a single `nx × ny` domain
/// on `ranks` processors of `machine`'s type — the simulator stand-in for a
/// profiling WRF run. The domain is stepped as a stand-alone simulation
/// (no nests, no I/O).
pub fn measure_domain_time(machine: &Machine, nx: u32, ny: u32, ranks: u32) -> f64 {
    let shape = machine.shape;
    assert!(ranks <= shape.slots());
    let grid = ProcGrid::near_square(ranks);
    let cfg = NestedConfig::new(Domain::parent(nx, ny, 8.0), vec![]).expect("valid domain");
    let mapping = Mapping::oblivious(shape, ranks).expect("ranks fit");
    let sim = Simulation::new(
        machine,
        grid,
        &cfg,
        ExecStrategy::Sequential,
        mapping,
        IoMode::None,
        None,
    )
    .expect("valid simulation");
    sim.run(3).per_iteration()
}

/// Runs the 13 basis profiling experiments: candidate generation, basis
/// selection, and one measurement per basis domain.
pub fn profile_basis(machine: &Machine, seed: u64) -> Vec<(DomainFeatures, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Paper's candidate ranges: 94×124 .. 415×445, aspect 0.5–1.5.
    let candidates = generate_candidates(&mut rng, 400, 94 * 124, 415 * 445);
    let basis: Vec<BasisDomain> = select_basis_covering(
        &candidates,
        13,
        (0.5, 1.5),
        ((94 * 124) as f64, (415 * 445) as f64),
    );
    basis
        .iter()
        .map(|b| {
            let t = measure_domain_time(machine, b.nx, b.ny, PROFILE_RANKS.min(machine.ranks()));
            (b.features(), t)
        })
        .collect()
}

/// Profiles and fits the execution-time predictor in one call: the
/// uncached convenience for tests and the experiments (any seed; panics
/// on a degenerate basis). Planning goes through
/// [`PredictorStore`](crate::PredictorStore).
pub fn fit_predictor(machine: &Machine, seed: u64) -> ExecTimePredictor {
    ExecTimePredictor::fit(&profile_basis(machine, seed)).expect("basis triangulates")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_monotone_in_domain_size() {
        let m = Machine::bgl(64);
        let small = measure_domain_time(&m, 100, 120, 64);
        let large = measure_domain_time(&m, 400, 420, 64);
        assert!(large > small);
    }

    #[test]
    fn predictor_fits_and_predicts_within_paper_bound() {
        // End-to-end §3.1 check: fit on 13 simulated profiling runs, then
        // predict held-out domains with < 6 % error against fresh
        // simulator measurements.
        let m = Machine::bgl(64);
        let p = fit_predictor(&m, 42);
        let tests = [(215u32, 260u32), (230, 243), (310, 215), (260, 360)];
        for (nx, ny) in tests {
            let truth = measure_domain_time(&m, nx, ny, 64);
            let pred = p.predict(&DomainFeatures::from_dims(nx, ny)).unwrap();
            let err = (pred - truth).abs() / truth;
            assert!(err < 0.06, "{nx}×{ny}: error {:.2}% ≥ 6%", err * 100.0);
        }
    }

    #[test]
    fn profiling_is_deterministic() {
        let m = Machine::bgl(64);
        let a = profile_basis(&m, 7);
        let b = profile_basis(&m, 7);
        assert_eq!(a.len(), 13);
        for ((fa, ta), (fb, tb)) in a.iter().zip(&b) {
            assert_eq!(fa.points, fb.points);
            assert_eq!(ta, tb);
        }
    }
}
