//! Replay edge cases: the compiled halo-step engine must match the
//! reference engine on degenerate plans the benchmarks never exercise —
//! zero sibling nests (sequential and concurrent), nests confined to a
//! single rank, and nest steps whose transfer set is therefore empty.

use nestwx_grid::{fnv1a64, Domain, NestSpec, NestedConfig, ProcGrid, Rect};
use nestwx_netsim::{
    ExecStrategy, HaloEngine, IoMode, Machine, ObsConfig, SimReport, Simulation, StepPhase,
};
use nestwx_topo::Mapping;

#[allow(clippy::too_many_arguments)]
fn run(
    machine: &Machine,
    grid: ProcGrid,
    config: &NestedConfig,
    strategy: &ExecStrategy,
    io_mode: IoMode,
    output_interval: Option<u32>,
    engine: HaloEngine,
    iterations: u32,
) -> SimReport {
    let mapping = Mapping::oblivious(machine.shape, machine.ranks()).unwrap();
    Simulation::new(
        machine,
        grid,
        config,
        strategy.clone(),
        mapping,
        io_mode,
        output_interval,
    )
    .unwrap()
    .with_engine(engine)
    .run(iterations)
}

#[allow(clippy::too_many_arguments)]
fn assert_engines_agree(
    machine: &Machine,
    grid: ProcGrid,
    config: &NestedConfig,
    strategy: &ExecStrategy,
    io_mode: IoMode,
    output_interval: Option<u32>,
    iterations: u32,
    report_digest: u64,
) -> SimReport {
    let compiled = run(
        machine,
        grid,
        config,
        strategy,
        io_mode,
        output_interval,
        HaloEngine::Compiled,
        iterations,
    );
    let reference = run(
        machine,
        grid,
        config,
        strategy,
        io_mode,
        output_interval,
        HaloEngine::Reference,
        iterations,
    );
    assert_eq!(compiled, reference);
    // Both engines share the nest-phase interpreter; the pinned digest of
    // the report's JSON is what sees a change there.
    let digest = fnv1a64(serde_json::to_string(&compiled).unwrap().as_bytes());
    assert_eq!(digest, report_digest, "report changed: {digest:#018x}");
    compiled
}

fn no_nest_config() -> NestedConfig {
    NestedConfig::new(Domain::parent(96, 96, 24.0), vec![]).unwrap()
}

#[test]
fn zero_siblings_sequential_bitwise_identical() {
    // A parent-only run: the iteration plan has no nest phase at all.
    let m = Machine::bgl(16);
    let grid = ProcGrid::near_square(m.ranks());
    let cfg = no_nest_config();
    let rep = assert_engines_agree(
        &m,
        grid,
        &cfg,
        &ExecStrategy::Sequential,
        IoMode::SplitFiles,
        Some(2),
        4,
        0x3152_90c4_a248_eddd,
    );
    assert!(rep.sibling_solve.is_empty());
    assert_eq!(rep.nest_phase, 0.0);
    assert!(rep.messages > 0, "parent halo exchange still runs");
}

#[test]
fn zero_siblings_concurrent_empty_partition_set_bitwise_identical() {
    // Concurrent with zero nests is legal (the partition list must match
    // the nest list, and both are empty) and must degenerate to the same
    // parent-only schedule.
    let m = Machine::bgl(16);
    let grid = ProcGrid::near_square(m.ranks());
    let cfg = no_nest_config();
    let strategy = ExecStrategy::Concurrent { partitions: vec![] };
    let rep = assert_engines_agree(
        &m,
        grid,
        &cfg,
        &strategy,
        IoMode::None,
        None,
        4,
        0xf6d5_e604_25b0_7084,
    );
    assert!(rep.sibling_solve.is_empty());
    assert_eq!(rep.nest_phase, 0.0);
}

#[test]
fn single_rank_nest_partitions_bitwise_identical() {
    // Every nest pinned to a 1×1 processor rectangle: the compiled plan's
    // sender tables have one entry and its donor/release sets collapse to
    // single ranks.
    let m = Machine::bgl(16);
    let grid = ProcGrid::near_square(m.ranks()); // 4×4
    let cfg = NestedConfig::new(
        Domain::parent(96, 96, 24.0),
        vec![
            NestSpec::new(30, 30, 3, (2, 2)),
            NestSpec::new(30, 30, 3, (60, 60)),
        ],
    )
    .unwrap();
    let strategy = ExecStrategy::Concurrent {
        partitions: vec![Rect::new(0, 0, 1, 1), Rect::new(3, 3, 1, 1)],
    };
    assert_engines_agree(
        &m,
        grid,
        &cfg,
        &strategy,
        IoMode::None,
        None,
        4,
        0xa316_9506_50ee_4856,
    );
}

#[test]
fn empty_transfer_set_nest_steps_record_zero_messages() {
    // A single nest on a single rank has no neighbours within its domain,
    // so its halo steps carry an empty transfer set. The compiled replay
    // must handle the no-message step and the recorder must show it.
    let m = Machine::bgl(16);
    let grid = ProcGrid::near_square(m.ranks());
    let cfg = NestedConfig::new(
        Domain::parent(96, 96, 24.0),
        vec![NestSpec::new(30, 30, 3, (2, 2))],
    )
    .unwrap();
    let strategy = ExecStrategy::Concurrent {
        partitions: vec![Rect::new(0, 0, 1, 1)],
    };
    assert_engines_agree(
        &m,
        grid,
        &cfg,
        &strategy,
        IoMode::None,
        None,
        3,
        0xa2cc_852c_186f_61da,
    );

    let mapping = Mapping::oblivious(m.shape, m.ranks()).unwrap();
    let mut sim = Simulation::new(&m, grid, &cfg, strategy, mapping, IoMode::None, None)
        .unwrap()
        .with_obs(ObsConfig::counters());
    sim.run_mut(3);
    let rec = sim.obs().unwrap();
    let nest_steps: Vec<_> = rec.steps().filter(|s| s.phase == StepPhase::Nest).collect();
    assert!(!nest_steps.is_empty());
    for s in &nest_steps {
        assert_eq!(s.nest, 0);
        assert_eq!(s.messages, 0, "1-rank nest step must move no messages");
        assert_eq!(s.transfers, 0);
        assert_eq!(s.hops, 0);
        assert_eq!(s.bytes, 0.0);
        assert!(s.compute > 0.0, "the single rank still computes");
    }
}

#[test]
fn timelines_on_replay_edge_cases() {
    // Per-rank timelines must survive the same degenerate plans: a
    // zero-sibling run, a single-rank nest, and an empty transfer set.
    let m = Machine::bgl(16);
    let grid = ProcGrid::near_square(m.ranks());
    let mapping = || Mapping::oblivious(m.shape, m.ranks()).unwrap();

    // Zero siblings: only parent frames, every one tagged nest -1.
    let cfg = no_nest_config();
    let mut sim = Simulation::new(
        &m,
        grid,
        &cfg,
        ExecStrategy::Sequential,
        mapping(),
        IoMode::None,
        None,
    )
    .unwrap()
    .with_obs(ObsConfig::detailed());
    sim.run_mut(3);
    let rec = sim.obs().unwrap();
    let tl = rec.timeline().expect("timeline on");
    assert_eq!(tl.recorded_steps(), sim.steps_taken());
    assert!(tl.meta().iter().all(|f| f.nest == -1));
    assert!(rec.analysis().per_nest.is_empty());

    // Single-rank nest with an empty transfer set: nest frames exist, the
    // lone rank computes but never waits, and the analysis still works.
    let cfg = NestedConfig::new(
        Domain::parent(96, 96, 24.0),
        vec![NestSpec::new(30, 30, 3, (2, 2))],
    )
    .unwrap();
    let strategy = ExecStrategy::Concurrent {
        partitions: vec![Rect::new(0, 0, 1, 1)],
    };
    for engine in [HaloEngine::Compiled, HaloEngine::Reference] {
        let mut sim = Simulation::new(
            &m,
            grid,
            &cfg,
            strategy.clone(),
            mapping(),
            IoMode::None,
            None,
        )
        .unwrap()
        .with_engine(engine)
        .with_obs(ObsConfig::detailed());
        sim.run_mut(3);
        let rec = sim.obs().unwrap();
        let tl = rec.timeline().expect("timeline on");
        assert_eq!(tl.recorded_steps(), sim.steps_taken());
        let nest_frames: Vec<usize> = tl
            .meta()
            .iter()
            .enumerate()
            .filter(|(_, f)| f.nest == 0)
            .map(|(i, _)| i)
            .collect();
        assert!(!nest_frames.is_empty(), "{engine:?}: no nest frames");
        for &fi in &nest_frames {
            // Rank 0 owns the 1×1 partition: it computes, nobody waits.
            assert!(tl.frame_compute(fi)[0] > 0.0, "{engine:?}");
            assert_eq!(tl.frame_wait(fi)[0], 0.0, "{engine:?}");
            assert_eq!(tl.meta()[fi].crit_rank, 0, "{engine:?}");
            // Only the active rank contributes to the frame.
            assert!(tl.frame_compute(fi)[1..].iter().all(|&c| c == 0.0));
        }
        let analysis = rec.analysis();
        assert_eq!(analysis.per_nest.len(), 1);
        assert!((analysis.per_nest[0].time_ratio - 1.0).abs() < 1e-12);
        // One active lane in nest frames → max == mean → imbalance 1.
        assert!((analysis.per_nest[0].imbalance - 1.0).abs() < 1e-12);
    }
}
