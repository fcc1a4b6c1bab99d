//! The observability layer must be passive: attaching a [`Recorder`] may
//! not perturb the simulation (bitwise-identical [`SimReport`]s with
//! observation on or off, for both engines and strategies), and the
//! recorded per-step deltas must re-derive the report's own aggregates.

use nestwx_grid::{Domain, NestSpec, NestedConfig, ProcGrid, Rect};
use nestwx_netsim::{ExecStrategy, HaloEngine, IoMode, Machine, ObsConfig, Simulation, StepPhase};
use nestwx_topo::Mapping;

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

fn build<'a>(
    machine: &'a Machine,
    config: &'a NestedConfig,
    strategy: ExecStrategy,
    engine: HaloEngine,
    io_mode: IoMode,
    output_interval: Option<u32>,
) -> Simulation<'a> {
    let grid = ProcGrid::near_square(machine.ranks());
    let mapping = Mapping::oblivious(machine.shape, machine.ranks()).unwrap();
    Simulation::new(
        machine,
        grid,
        config,
        strategy,
        mapping,
        io_mode,
        output_interval,
    )
    .unwrap()
    .with_engine(engine)
}

fn concurrent(grid: ProcGrid) -> ExecStrategy {
    let half = grid.px / 2;
    ExecStrategy::Concurrent {
        partitions: vec![
            Rect::new(0, 0, half, grid.py),
            Rect::new(half, 0, grid.px - half, grid.py),
        ],
    }
}

#[test]
fn reports_bitwise_identical_with_and_without_obs() {
    let m = Machine::bgl(32);
    let cfg = two_nest_config();
    let grid = ProcGrid::near_square(m.ranks());
    for engine in [HaloEngine::Compiled, HaloEngine::Reference] {
        for strategy in [ExecStrategy::Sequential, concurrent(grid)] {
            let plain = build(
                &m,
                &cfg,
                strategy.clone(),
                engine,
                IoMode::SplitFiles,
                Some(2),
            )
            .run(4);
            for obs_cfg in [ObsConfig::counters(), ObsConfig::detailed()] {
                let observed = build(
                    &m,
                    &cfg,
                    strategy.clone(),
                    engine,
                    IoMode::SplitFiles,
                    Some(2),
                )
                .with_obs(obs_cfg)
                .run(4);
                assert_eq!(
                    plain, observed,
                    "observation perturbed {engine:?} (cfg {obs_cfg:?})"
                );
            }
        }
    }
}

#[test]
fn detailed_recording_captures_ranks_and_links() {
    let m = Machine::bgl(32);
    let cfg = two_nest_config();
    let mut sim = build(
        &m,
        &cfg,
        ExecStrategy::Sequential,
        HaloEngine::Compiled,
        IoMode::None,
        None,
    )
    .with_obs(ObsConfig::detailed());
    let report = sim.run_mut(4);
    let rec = sim.obs().unwrap();

    // Timeline: every halo step recorded, lanes sized to the machine.
    let tl = rec.timeline().expect("timeline on");
    assert_eq!(tl.recorded_steps(), sim.steps_taken());
    assert_eq!(tl.nranks(), m.ranks());

    // Per-rank wait histogram holds one sample per (active rank, step) —
    // the sequential strategy runs every domain on the full grid, which a
    // domain fills up to one rank per point and side — and the samples are
    // the waits the step totals are made of.
    let grid = ProcGrid::near_square(m.ranks());
    let active_ranks: u64 = rec
        .steps()
        .map(|s| match s.nest {
            -1 => (cfg.parent.nx, cfg.parent.ny),
            n => (cfg.nests[n as usize].nx, cfg.nests[n as usize].ny),
        })
        .map(|(nx, ny)| u64::from(grid.px.min(nx) * grid.py.min(ny)))
        .sum();
    assert_eq!(rec.hist_rank_wait().count(), active_ranks);
    let (sampled, total) = (rec.hist_rank_wait().sum(), rec.summary().halo_wait);
    assert!(
        (sampled - total).abs() <= 1e-9 * total,
        "per-rank waits sum to {sampled}, step totals to {total}"
    );

    // Net detail: one latency sample per transfer; link busy where routed.
    let net = rec.net_detail().expect("net detail on");
    assert_eq!(net.msg_latency.count(), rec.summary().transfers);
    assert!(net.link_busy.iter().sum::<f64>() > 0.0);

    // The analysis agrees with the report's broad shape.
    let analysis = rec.analysis();
    assert!(analysis.overall_imbalance >= 1.0);
    assert_eq!(analysis.per_nest.len(), 2);
    let links = analysis.links.expect("link analysis present");
    assert!(links.active_links > 0 && links.active_links <= links.links);
    assert!(links.max_util > 0.0 && links.max_util <= 1.0);
    assert!(!links.top.is_empty());

    // Step-time histogram covers every non-I/O step.
    assert_eq!(rec.hist_step_time().count(), rec.summary().steps);
    assert!(rec.hist_step_time().max() <= report.total_time);

    // Replay keeps detailed recordings idempotent.
    let frames1 = rec.timeline().unwrap().frames();
    sim.run_mut(4);
    assert_eq!(sim.obs().unwrap().timeline().unwrap().frames(), frames1);
    assert_eq!(
        sim.obs().unwrap().net_detail().unwrap().msg_latency.count(),
        sim.obs().unwrap().summary().transfers
    );
}

#[test]
fn per_nest_time_ratios_match_between_engines_and_summary() {
    // The analysis' time ratios are the allocator's Algorithm-1 input;
    // they must be identical however the run was executed.
    let m = Machine::bgl(32);
    let cfg = two_nest_config();
    let mut ratios = Vec::new();
    for engine in [HaloEngine::Compiled, HaloEngine::Reference] {
        let mut sim = build(
            &m,
            &cfg,
            ExecStrategy::Sequential,
            engine,
            IoMode::None,
            None,
        )
        .with_obs(ObsConfig::detailed());
        sim.run_mut(4);
        let analysis = sim.obs().unwrap().analysis();
        assert_eq!(analysis.per_nest.len(), 2);
        let sum: f64 = analysis.per_nest.iter().map(|n| n.time_ratio).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // Both nests are 90×90 at the same refinement: near-even split.
        for n in &analysis.per_nest {
            assert!(
                (n.time_ratio - 0.5).abs() < 0.05,
                "nest {} ratio {}",
                n.nest,
                n.time_ratio
            );
            assert!(n.imbalance >= 1.0);
        }
        ratios.push(
            analysis
                .per_nest
                .iter()
                .map(|n| n.time_ratio)
                .collect::<Vec<_>>(),
        );
    }
    assert_eq!(ratios[0], ratios[1], "engines disagree on time ratios");
}

#[test]
fn recorded_totals_rederive_report_metrics() {
    let m = Machine::bgl(32);
    let cfg = two_nest_config();
    let grid = ProcGrid::near_square(m.ranks());
    let mut sim = build(
        &m,
        &cfg,
        concurrent(grid),
        HaloEngine::Compiled,
        IoMode::None,
        None,
    )
    .with_obs(ObsConfig::counters());
    let report = sim.run_mut(4);
    let steps_taken = sim.steps_taken();
    let s = sim.obs().unwrap().summary().clone();

    // Integer counters and integer-valued byte counts telescope exactly.
    assert_eq!(s.steps, steps_taken);
    assert_eq!(s.messages, report.messages);
    assert_eq!(s.bytes, report.bytes);
    assert_eq!(s.avg_hops(), report.avg_hops);

    // Halo-wait totals are the same waits summed in a different order
    // (per-step deltas vs one whole-run accumulator), so compare with a
    // tight relative tolerance instead of `==`.
    let rel = (s.halo_wait - report.mpi_wait_total).abs() / report.mpi_wait_total.max(1e-30);
    assert!(
        rel < 1e-9,
        "recorded halo_wait {} vs report mpi_wait_total {} (rel {rel:e})",
        s.halo_wait,
        report.mpi_wait_total
    );

    // Lockstep multi-nest sub-steps cannot be attributed to one nest, so
    // the concurrent run records no per-nest rows …
    assert!(s.per_nest.is_empty());

    // … while the sequential schedule (one nest at a time) attributes
    // every nest step.
    let mut seq = build(
        &m,
        &cfg,
        ExecStrategy::Sequential,
        HaloEngine::Compiled,
        IoMode::None,
        None,
    )
    .with_obs(ObsConfig::counters());
    seq.run_mut(4);
    let s = seq.obs().unwrap().summary().clone();
    assert_eq!(s.per_nest.len(), 2);
    assert!(s.per_nest.iter().all(|n| n.steps > 0 && n.compute > 0.0));
}

#[test]
fn io_phases_are_recorded_separately() {
    let m = Machine::bgl(32);
    let cfg = two_nest_config();
    let mut sim = build(
        &m,
        &cfg,
        ExecStrategy::Sequential,
        HaloEngine::Compiled,
        IoMode::PnetCdf,
        Some(2),
    )
    .with_obs(ObsConfig::counters());
    let report = sim.run_mut(4);
    let s = sim.obs().unwrap().summary();
    assert!(report.io_time > 0.0);
    assert!(s.io_time > 0.0);
    let rel = (s.io_time - report.io_time).abs() / report.io_time;
    assert!(rel < 1e-9, "recorded io_time drifted (rel {rel:e})");
}

#[test]
fn ring_capacity_bounds_retention_but_not_totals() {
    let m = Machine::bgl(16);
    let cfg = two_nest_config();
    let mut sim = build(
        &m,
        &cfg,
        ExecStrategy::Sequential,
        HaloEngine::Compiled,
        IoMode::None,
        None,
    )
    .with_obs(ObsConfig::counters().with_ring_capacity(4));
    sim.run_mut(4);
    let rec = sim.obs().unwrap();
    assert_eq!(rec.ring().len(), 4);
    assert!(rec.ring().dropped() > 0);
    let s = rec.summary();
    assert_eq!(s.steps, sim.steps_taken(), "totals cover the whole run");
    assert!(s.steps > 4);
}

#[test]
fn replay_after_reset_clears_and_rerecords_identically() {
    let m = Machine::bgl(16);
    let cfg = two_nest_config();
    let mut sim = build(
        &m,
        &cfg,
        ExecStrategy::Sequential,
        HaloEngine::Compiled,
        IoMode::None,
        None,
    )
    .with_obs(ObsConfig::counters());
    let rep1 = sim.run_mut(3);
    let sum1 = sim.obs().unwrap().summary().clone();
    let steps1: Vec<_> = sim.obs().unwrap().steps().cloned().collect();
    let rep2 = sim.run_mut(3);
    let sum2 = sim.obs().unwrap().summary().clone();
    let steps2: Vec<_> = sim.obs().unwrap().steps().cloned().collect();
    assert_eq!(rep1, rep2);
    assert_eq!(sum1, sum2, "replay must not double-count");
    assert_eq!(steps1, steps2);
}

#[test]
fn chrome_trace_json_parses_and_covers_all_phases() {
    let m = Machine::bgl(16);
    let cfg = two_nest_config();
    let mut sim = build(
        &m,
        &cfg,
        ExecStrategy::Sequential,
        HaloEngine::Compiled,
        IoMode::SplitFiles,
        Some(2),
    )
    .with_obs(ObsConfig::counters());
    sim.run_mut(3);
    let rec = sim.obs().unwrap();
    assert!(rec
        .steps()
        .any(|s| s.phase == StepPhase::Parent || s.phase == StepPhase::Nest));

    let json = rec.chrome_trace_json();
    let v: serde_json::Value = serde_json::from_str(&json).expect("trace JSON must parse");
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    assert!(events.len() as u64 >= rec.summary().steps);
    for ev in events {
        assert_eq!(ev.get("ph").unwrap().as_str().unwrap(), "X");
        assert!(ev.get("name").unwrap().as_str().is_some());
        assert!(ev.get("ts").unwrap().as_f64().unwrap() >= 0.0);
        assert!(ev.get("dur").unwrap().as_f64().unwrap() >= 0.0);
    }
}
