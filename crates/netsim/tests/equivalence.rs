//! Bitwise equivalence of the compiled halo-step engine against the
//! reference implementation.
//!
//! The compiled engine (precomputed decompositions, neighbour tables, torus
//! routes, donor/release sets — see `crates/netsim/src/schedule.rs`) must
//! produce a [`SimReport`] **identical** to the reference engine that
//! re-derives everything per step: same float expressions in the same
//! order, so every field matches under exact `==`, not a tolerance.

use nestwx_grid::{fnv1a64, Domain, NestSpec, NestedConfig, ProcGrid, Rect};
use nestwx_netsim::{
    ExecStrategy, HaloEngine, IoMode, Machine, ObsConfig, SimReport, Simulation, StepMetrics,
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

/// Both engines agree exactly, and the report's JSON digests to
/// `report_digest`: the engines share the nest-phase interpreter, so only
/// the pinned digest sees a change there.
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
) {
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
    // `SimReport` derives `PartialEq`, so this compares every f64 field
    // (total_time, mpi_wait_total, phases, per-sibling times, bytes) for
    // exact bit-level equality, plus the integer message/rank counters.
    assert_eq!(compiled, reference);
    assert_eq!(compiled.avg_hops, reference.avg_hops);
    assert_eq!(compiled.messages, reference.messages);
    let digest = fnv1a64(serde_json::to_string(&compiled).unwrap().as_bytes());
    assert_eq!(digest, report_digest, "report changed: {digest:#018x}");
}

fn two_nest_config() -> NestedConfig {
    NestedConfig::new(
        Domain::parent(120, 120, 24.0),
        vec![
            NestSpec::new(90, 90, 3, (2, 2)),
            NestSpec::new(90, 90, 3, (60, 60)),
        ],
    )
    .unwrap()
}

#[test]
fn sequential_two_nests_bitwise_identical() {
    let m = Machine::bgl(32);
    let grid = ProcGrid::near_square(m.ranks());
    let cfg = two_nest_config();
    assert_engines_agree(
        &m,
        grid,
        &cfg,
        &ExecStrategy::Sequential,
        IoMode::None,
        None,
        4,
        0x456e_81ef_2d95_a3c8,
    );
}

#[test]
fn concurrent_two_nests_bitwise_identical() {
    let m = Machine::bgl(32);
    let grid = ProcGrid::near_square(m.ranks());
    let cfg = two_nest_config();
    let half = grid.px / 2;
    let strategy = ExecStrategy::Concurrent {
        partitions: vec![
            Rect::new(0, 0, half, grid.py),
            Rect::new(half, 0, grid.px - half, grid.py),
        ],
    };
    assert_engines_agree(
        &m,
        grid,
        &cfg,
        &strategy,
        IoMode::None,
        None,
        4,
        0x70d0_c443_9718_1abb,
    );
}

#[test]
fn concurrent_with_second_level_nest_and_io_bitwise_identical() {
    // The hardest schedule: uneven refine ratios, a second-level nest on a
    // sub-partition (donor sets, lockstep child sub-steps, resync barriers,
    // per-rank feedback release), plus periodic output.
    let m = Machine::bgl(64);
    let grid = ProcGrid::near_square(m.ranks()); // 8×8
    let cfg = NestedConfig::new(
        Domain::parent(120, 120, 24.0),
        vec![
            NestSpec::new(90, 90, 3, (2, 2)),
            NestSpec::new(60, 60, 3, (60, 60)),
            NestSpec::child_of(0, 40, 40, 2, (5, 5)),
        ],
    )
    .unwrap();
    let strategy = ExecStrategy::Concurrent {
        partitions: vec![
            Rect::new(0, 0, 4, 8),
            Rect::new(4, 0, 4, 8),
            Rect::new(0, 0, 4, 4),
        ],
    };
    assert_engines_agree(
        &m,
        grid,
        &cfg,
        &strategy,
        IoMode::SplitFiles,
        Some(2),
        4,
        0x6c56_65e8_e1fc_36bc,
    );
}

#[test]
fn sequential_with_second_level_nest_bitwise_identical() {
    let m = Machine::bgl(64);
    let grid = ProcGrid::near_square(m.ranks());
    let cfg = NestedConfig::new(
        Domain::parent(120, 120, 24.0),
        vec![
            NestSpec::new(90, 90, 3, (2, 2)),
            NestSpec::new(60, 60, 3, (60, 60)),
            NestSpec::child_of(0, 40, 40, 2, (5, 5)),
        ],
    )
    .unwrap();
    assert_engines_agree(
        &m,
        grid,
        &cfg,
        &ExecStrategy::Sequential,
        IoMode::PnetCdf,
        Some(3),
        3,
        0x6390_d131_d60f_a153,
    );
}

/// The recorded step timeline — every step's phase, start, end and halo
/// wait, output phases included — agrees as well as the report.
#[test]
fn traces_also_bitwise_identical() {
    let m = Machine::bgl(32);
    let grid = ProcGrid::near_square(m.ranks());
    let cfg = two_nest_config();
    let mapping = Mapping::oblivious(m.shape, m.ranks()).unwrap();
    let build = |engine| {
        Simulation::new(
            &m,
            grid,
            &cfg,
            ExecStrategy::Sequential,
            mapping.clone(),
            IoMode::SplitFiles,
            Some(2),
        )
        .unwrap()
        .with_engine(engine)
        .with_obs(ObsConfig::counters())
    };
    let (mut compiled, mut reference) = (build(HaloEngine::Compiled), build(HaloEngine::Reference));
    assert_eq!(compiled.run_mut(4), reference.run_mut(4));
    let steps =
        |sim: &Simulation| -> Vec<StepMetrics> { sim.obs().unwrap().steps().cloned().collect() };
    assert_eq!(steps(&compiled), steps(&reference));
}

/// Both engines on one plan, recorder off and on: reports and the
/// recorded per-step counters agree exactly, and the per-step `bytes` /
/// `messages` / `hops` deltas — which the compiled engine takes from each
/// step's precomputed totals — add up to the report's own. Everything else
/// the detailed tier records (histograms, link busy seconds, timeline
/// shape, the analysis block) is compared through the two engines'
/// `summary_json()`, whose FNV-1a digest is pinned to `summary_digest`.
fn assert_engines_agree_at_scale(
    machine: &Machine,
    config: &NestedConfig,
    strategy: ExecStrategy,
    mapping: &Mapping,
    summary_digest: u64,
) {
    let grid = ProcGrid::near_square(machine.ranks());
    let build = |engine| {
        Simulation::new(
            machine,
            grid,
            config,
            strategy.clone(),
            mapping.clone(),
            IoMode::None,
            None,
        )
        .unwrap()
        .with_engine(engine)
    };
    let plain = build(HaloEngine::Compiled).run(2);
    assert_eq!(plain, build(HaloEngine::Reference).run(2));

    let mut compiled = build(HaloEngine::Compiled).with_obs(ObsConfig::detailed());
    let mut reference = build(HaloEngine::Reference).with_obs(ObsConfig::detailed());
    assert_eq!(compiled.run_mut(2), plain);
    assert_eq!(reference.run_mut(2), plain);
    let steps: Vec<StepMetrics> = compiled.obs().unwrap().steps().cloned().collect();
    let reference_steps: Vec<StepMetrics> = reference.obs().unwrap().steps().cloned().collect();
    assert_eq!(steps, reference_steps);
    assert_eq!(steps.len() as u64, compiled.steps_taken());
    let summary = compiled.obs().unwrap().summary_json();
    assert_eq!(summary, reference.obs().unwrap().summary_json());
    // A recorder change that moves a recorded byte moves this digest: find
    // out which byte before re-capturing the literal.
    let digest = fnv1a64(summary.as_bytes());
    assert_eq!(
        digest, summary_digest,
        "recorded summary changed: {digest:#018x}"
    );

    let report = &plain;
    assert_eq!(steps.iter().map(|s| s.bytes).sum::<f64>(), report.bytes);
    assert_eq!(
        steps.iter().map(|s| s.messages).sum::<u64>(),
        report.messages
    );
    let hops: u64 = steps.iter().map(|s| s.hops).sum();
    let transfers: u64 = steps.iter().map(|s| s.transfers).sum();
    assert_eq!(hops as f64 / transfers as f64, report.avg_hops);
}

/// The sizes the benchmark runs: a step of `bgl:64` has at most 256
/// messages, so the tests above barely leave `sort_injections`'s
/// comparison-sort cutoff; these steps carry ≈ 4 000 and ≈ 16 000.
#[test]
fn bgl_1024_three_nests_partition_mapping_bitwise_identical() {
    let m = Machine::bgl(1024);
    let grid = ProcGrid::near_square(m.ranks()); // 32×32
    let cfg = NestedConfig::new(
        Domain::parent(286, 307, 24.0),
        vec![
            NestSpec::new(394, 418, 3, (10, 10)),
            NestSpec::new(232, 202, 2, (160, 20)),
            NestSpec::new(313, 337, 3, (20, 170)),
        ],
    )
    .unwrap();
    let partitions = vec![
        Rect::new(0, 0, 14, 32),
        Rect::new(14, 0, 18, 13),
        Rect::new(14, 13, 18, 19),
    ];
    let mapping = Mapping::partition(m.shape, &grid, &partitions).unwrap();
    let concurrent = ExecStrategy::Concurrent { partitions };
    assert_engines_agree_at_scale(
        &m,
        &cfg,
        concurrent.clone(),
        &mapping,
        0x28ff_627c_bb12_c4da,
    );
    assert_engines_agree_at_scale(
        &m,
        &cfg,
        ExecStrategy::Sequential,
        &mapping,
        0x53d2_c3b3_8d63_42f7,
    );
    // Without jitter every rank with the same patch size injects at the
    // same instant: a few distinct keys, thousands of ties, and the order
    // within each tie decides which message takes a contended link first.
    let mut m = m;
    m.compute.jitter = 0.0;
    assert_engines_agree_at_scale(&m, &cfg, concurrent, &mapping, 0xe4f2_1b18_aa80_00a6);
}

/// The `netsim_large` plan's shape: four nests on `bgp:4096` under the
/// multilevel mapping.
#[test]
fn bgp_4096_four_nests_multilevel_mapping_bitwise_identical() {
    let m = Machine::bgp(4096);
    let grid = ProcGrid::near_square(m.ranks()); // 64×64
    let cfg = NestedConfig::new(
        Domain::parent(286, 307, 24.0),
        vec![
            NestSpec::new(394, 418, 3, (10, 10)),
            NestSpec::new(232, 202, 3, (160, 20)),
            NestSpec::new(313, 337, 3, (20, 170)),
            NestSpec::new(151, 187, 3, (180, 200)),
        ],
    )
    .unwrap();
    let partitions = vec![
        Rect::new(0, 0, 36, 40),
        Rect::new(36, 0, 28, 40),
        Rect::new(0, 40, 42, 24),
        Rect::new(42, 40, 22, 24),
    ];
    let mapping = Mapping::multilevel(m.shape, &grid, &partitions).unwrap();
    let concurrent = ExecStrategy::Concurrent { partitions };
    assert_engines_agree_at_scale(&m, &cfg, concurrent, &mapping, 0xac41_9984_dd6a_45b4);
    assert_engines_agree_at_scale(
        &m,
        &cfg,
        ExecStrategy::Sequential,
        &mapping,
        0x2bd0_b097_a0c5_dae4,
    );
}
