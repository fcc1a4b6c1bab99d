//! Ablation study of the design choices DESIGN.md calls out:
//!
//! 1. **aspect-ratio feature** — predictor with the 2-D (aspect, points)
//!    feature space vs points alone (§3.1's motivation);
//! 2. **split dimension** — Algorithm 1 splitting along the longer vs
//!    shorter dimension (Fig. 4), measured end-to-end on the simulator;
//! 3. **fold level** — partition mapping's minimal fold vs multi-level's
//!    extra fold, via hop metrics of nest and parent edges;
//! 4. **physics jitter** — how the modelled load imbalance contributes to
//!    the default strategy's MPI_Wait.

use crate::{
    banner, mean, pacific_parent, random_nests, rng_for, Opts, MEASURE_ITERS, TABLE2_PARTS,
};
use nestwx_alloc::partition::{partition_grid_with, SplitDim};
use nestwx_core::profile::{fit_predictor, measure_domain_time, profile_basis, PROFILE_RANKS};
use nestwx_core::{compare_strategies, Planner};
use nestwx_grid::{DomainFeatures, ProcGrid, Rect};
use nestwx_netsim::{ExecStrategy, IoMode, Machine, Simulation};
use nestwx_predict::NaivePointsModel;
use nestwx_topo::metrics::{halo_edges, nested_iteration_edges, CommStats};
use nestwx_topo::Mapping;

pub(crate) fn run(_: &Opts) -> String {
    let mut out = banner("ablation", "design-choice ablations");

    // ---- 1. aspect-ratio feature ----
    out += "\n[1] predictor feature space (BG/L 64-rank profiling):\n";
    let machine = Machine::bgl(64);
    let model2d = fit_predictor(&machine, 42);
    let naive = NaivePointsModel::fit(&profile_basis(&machine, 42));
    let tests = [
        (205u32, 410u32),
        (310, 215),
        (188, 300),
        (365, 244),
        (240, 240),
    ];
    let mut e2 = Vec::new();
    let mut e1 = Vec::new();
    for (nx, ny) in tests {
        let truth = measure_domain_time(&machine, nx, ny, PROFILE_RANKS);
        let f = DomainFeatures::from_dims(nx, ny);
        e2.push((model2d.predict(&f).unwrap() - truth).abs() / truth * 100.0);
        e1.push((naive.predict(&f) - truth).abs() / truth * 100.0);
    }
    out += &format!(
        "  (aspect, points) interpolation: mean error {:.2} %\n",
        mean(&e2)
    );
    out += &format!(
        "  points-only linear model      : mean error {:.2} %\n",
        mean(&e1)
    );

    // ---- 2. split dimension, end to end ----
    out += "\n[2] Algorithm 1 split dimension (BG/L 1024, 4 siblings, 5 configs):\n";
    let parent = pacific_parent();
    let mut rng = rng_for("ablation-split");
    let machine = Machine::bgl_rack();
    let mut t_long = Vec::new();
    let mut t_short = Vec::new();
    for _ in 0..5 {
        let nests = random_nests(&mut rng, 4, 178 * 202, 394 * 418, &parent);
        let cfg = nestwx_grid::NestedConfig::new(parent.clone(), nests.clone()).unwrap();
        let ratios: Vec<f64> = nests.iter().map(|n| n.points() as f64).collect();
        let grid = ProcGrid::new(32, 32);
        for (dim, acc) in [
            (SplitDim::Longer, &mut t_long),
            (SplitDim::Shorter, &mut t_short),
        ] {
            let parts: Vec<Rect> = partition_grid_with(&grid, &ratios, dim)
                .unwrap()
                .iter()
                .map(|p| p.rect)
                .collect();
            let mapping = Mapping::partition(machine.shape, &grid, &parts).unwrap();
            let rep = Simulation::new(
                &machine,
                grid,
                &cfg,
                ExecStrategy::Concurrent { partitions: parts },
                mapping,
                IoMode::None,
                None,
            )
            .unwrap()
            .run(MEASURE_ITERS);
            acc.push(rep.per_iteration());
        }
    }
    out += &format!(
        "  split along longer dimension : {:.3} s/iter (mean)\n",
        mean(&t_long)
    );
    out += &format!(
        "  split along shorter dimension: {:.3} s/iter (mean)\n",
        mean(&t_short)
    );
    out += &format!(
        "  → longer-dimension split is {:.1} % faster\n",
        (1.0 - mean(&t_long) / mean(&t_short)) * 100.0
    );

    // ---- 3. fold level (hop metrics) ----
    out += "\n[3] mapping fold level (BG/L rack, Table 2 partitions):\n";
    let shape = machine.shape;
    let grid = ProcGrid::new(32, 32);
    let parts = TABLE2_PARTS;
    let nest_edges: Vec<_> = parts
        .iter()
        .flat_map(|p| halo_edges(&grid, p, 1.0))
        .collect();
    let all_edges = nested_iteration_edges(&grid, &parts, 1.0, 1.0, 3);
    for (name, m) in [
        ("oblivious      ", Mapping::oblivious(shape, 1024).unwrap()),
        (
            "partition fold ",
            Mapping::partition(shape, &grid, &parts).unwrap(),
        ),
        (
            "multilevel fold",
            Mapping::multilevel(shape, &grid, &parts).unwrap(),
        ),
    ] {
        let sn = CommStats::compute(&m, &nest_edges);
        let sa = CommStats::compute(&m, &all_edges);
        out += &format!(
            "  {name}: nest avg {:.2} hops; nest+parent avg {:.2} hops, max link load {:.0}\n",
            sn.avg_hops, sa.avg_hops, sa.max_link_bytes
        );
    }

    // ---- 4. physics jitter ----
    out += "\n[4] physics load-imbalance jitter (BG/L 1024, 4 configs):\n";
    let mut rng = rng_for("ablation-jitter");
    let configs: Vec<Vec<nestwx_grid::NestSpec>> = (0..4)
        .map(|_| random_nests(&mut rng, 3, 178 * 202, 394 * 418, &parent))
        .collect();
    for jitter in [0.0, 0.08, 0.16] {
        let mut m = Machine::bgl_rack();
        m.compute.jitter = jitter;
        let planner = Planner::new(m);
        let mut imps = Vec::new();
        let mut waits = Vec::new();
        for nests in &configs {
            let cmp = compare_strategies(&planner, &parent, nests, MEASURE_ITERS).unwrap();
            imps.push(cmp.improvement_pct());
            waits.push(cmp.default_run.mpi_wait_total);
        }
        out += &format!(
            "  jitter ±{:>2.0} %: improvement {:.2} %, default MPI_Wait {:.0} rank-s\n",
            jitter * 100.0,
            mean(&imps),
            mean(&waits)
        );
    }
    out
}
