//! The iteration-schedule simulator.
//!
//! Executes the WRF nested-simulation schedule on a modelled machine:
//!
//! ```text
//! per parent iteration:
//!     parent halo step (all ranks)
//!     for each sibling nest:           (sequentially on all ranks, or
//!         boundary interpolation        concurrently on its partition)
//!         r nested halo steps
//!         feedback to parent
//!     history output every `output_interval` iterations
//! ```
//!
//! Per-rank readiness times advance through the phases; halo exchanges go
//! through the contended [`Network`]; waits (receive waits plus
//! synchronisation waits) accumulate into the MPI_Wait statistic the paper
//! reports in Table 1 and Figs. 11–12.
//!
//! Everything that is a pure function of the configuration — decompositions,
//! neighbour tables, torus routes, sub-communicator rank lists, donor and
//! feedback-release sets, interpolation/feedback costs — is compiled once in
//! [`Simulation::new`] (see the `schedule` module), so the per-step hot path
//! allocates nothing. The original rebuild-every-step implementation is kept
//! as [`HaloEngine::Reference`], the oracle the equivalence tests compare
//! against: both engines produce bitwise-identical [`SimReport`]s.

use crate::io::IoMode;
use crate::machine::Machine;
use crate::network::Network;
use crate::schedule::{run_compiled_step, CompiledStep, NeighborRoutes, StepScratch, StepTotals};
use nestwx_grid::{Decomposition, NestedConfig, ProcGrid, Rect};
use nestwx_obs::{ObsConfig, Recorder, StepMetrics, StepPhase};
use nestwx_topo::Mapping;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// How the sibling nests are executed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecStrategy {
    /// WRF's default: each nest solved one after another on **all** ranks.
    Sequential,
    /// The paper's strategy: nest `i` solved on `partitions[i]` only, all
    /// nests concurrently.
    Concurrent {
        /// One processor-grid rectangle per nest, in nest order.
        partitions: Vec<Rect>,
    },
}

/// Which halo-exchange implementation [`Simulation`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HaloEngine {
    /// Replay the schedules compiled at construction (the default).
    #[default]
    Compiled,
    /// Rebuild decompositions, neighbour lists and routes every step — the
    /// original implementation, kept as the equivalence-test oracle.
    Reference,
}

/// Errors constructing a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Virtual grid rank count differs from the mapping's.
    GridMappingMismatch {
        /// Ranks in the virtual grid.
        grid: u32,
        /// Ranks in the mapping.
        mapping: u32,
    },
    /// Wrong number of partitions for the nest count.
    PartitionCount {
        /// Partitions supplied.
        got: usize,
        /// Nests configured.
        want: usize,
    },
    /// A partition rectangle is empty or out of the grid.
    BadPartition {
        /// Index of the offending partition.
        index: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::GridMappingMismatch { grid, mapping } => {
                write!(f, "virtual grid has {grid} ranks but mapping has {mapping}")
            }
            SimError::PartitionCount { got, want } => {
                write!(f, "{got} partitions for {want} nests")
            }
            SimError::BadPartition { index } => write!(f, "partition {index} invalid"),
        }
    }
}

impl std::error::Error for SimError {}

/// Results of a simulated run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Machine name.
    pub machine: String,
    /// Parent iterations simulated.
    pub iterations: u32,
    /// Ranks used.
    pub ranks: u32,
    /// Wall-clock seconds (integration + I/O).
    pub total_time: f64,
    /// Integration wall-clock seconds.
    pub integration_time: f64,
    /// Output wall-clock seconds.
    pub io_time: f64,
    /// Σ over ranks of halo-exchange MPI_Wait seconds (waiting for
    /// neighbour halos after posting sends — the RSL exchange waits the
    /// paper's HPCT profiles report).
    pub mpi_wait_total: f64,
    /// Per-sibling nest-solve wall-clock totals (interpolation + `r` steps +
    /// feedback), seconds.
    pub sibling_solve: Vec<f64>,
    /// Wall-clock spent in parent-domain integration steps.
    pub parent_phase: f64,
    /// Wall-clock spent in the sibling nest phase (interpolation, nested
    /// steps, feedback).
    pub nest_phase: f64,
    /// Mean hops per message.
    pub avg_hops: f64,
    /// Point-to-point messages sent.
    pub messages: u64,
    /// Payload bytes moved.
    pub bytes: f64,
}

impl SimReport {
    /// Total seconds per parent iteration.
    pub fn per_iteration(&self) -> f64 {
        self.total_time / self.iterations as f64
    }

    /// Integration seconds per parent iteration.
    pub fn integration_per_iter(&self) -> f64 {
        self.integration_time / self.iterations as f64
    }

    /// I/O seconds per parent iteration.
    pub fn io_per_iter(&self) -> f64 {
        self.io_time / self.iterations as f64
    }

    /// Mean MPI wait per rank per iteration.
    pub fn mpi_wait_per_rank_iter(&self) -> f64 {
        self.mpi_wait_total / self.ranks as f64 / self.iterations as f64
    }

    /// Sibling `i`'s nest-solve seconds per iteration.
    pub fn sibling_per_iter(&self, i: usize) -> f64 {
        self.sibling_solve[i] / self.iterations as f64
    }

    /// Percentage improvement of `self` over `baseline` in per-iteration
    /// time: positive means `self` is faster.
    pub fn improvement_over(&self, baseline: &SimReport) -> f64 {
        (1.0 - self.per_iteration() / baseline.per_iteration()) * 100.0
    }
}

/// Per-iteration timeline record produced by [`Simulation::run_traced`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IterationTrace {
    /// Iteration index (0-based).
    pub iteration: u32,
    /// Wall-clock when the iteration started.
    pub start: f64,
    /// Duration of the parent integration step.
    pub parent: f64,
    /// Duration of the sibling nest phase.
    pub nests: f64,
    /// Duration of the output phase (0 when no frame was written).
    pub io: f64,
    /// Halo MPI_Wait accumulated during this iteration (summed over ranks).
    pub mpi_wait: f64,
}

// ---------------------------------------------------------------------------
// Compiled iteration plans
// ---------------------------------------------------------------------------

/// A second-level nest in the sequential plan.
#[derive(Debug, Clone)]
struct SeqChild {
    idx: usize,
    refine: u32,
    step_id: usize,
    interp: f64,
    feedback: f64,
}

/// A level-1 nest in the sequential plan.
#[derive(Debug, Clone)]
struct SeqNest {
    idx: usize,
    refine: u32,
    step_id: usize,
    interp: f64,
    feedback: f64,
    children: Vec<SeqChild>,
}

/// Precompiled sequential-strategy iteration schedule.
#[derive(Debug, Clone)]
struct SeqPlan {
    items: Vec<SeqNest>,
}

/// A level-1 nest in the concurrent plan.
#[derive(Debug, Clone)]
struct ConcNest {
    idx: usize,
    /// Ranks whose parent patch overlaps this nest's footprint (the
    /// boundary-interpolation donors) — precomputed in place of the former
    /// per-iteration O(P) `ranks_overlapping` scan.
    donors: Vec<u32>,
    /// Ranks of this nest's partition, row-major.
    ranks: Vec<u32>,
    interp: f64,
    feedback: f64,
}

/// A second-level nest in the concurrent plan.
#[derive(Debug, Clone)]
struct ConcChild {
    idx: usize,
    ranks: Vec<u32>,
    interp: f64,
    feedback: f64,
}

/// One lockstep sub-step of the concurrent schedule.
#[derive(Debug, Clone)]
struct ConcSubstep {
    /// Compiled multi-domain step of the active level-1 nests.
    step_id: usize,
    /// Nest index for the step-metrics record when exactly one nest is
    /// active, `-1` for a genuine lockstep step.
    obs_tag: i32,
    /// Second-level children stepping after this sub-step (empty for most
    /// configurations).
    children: Vec<ConcChild>,
    /// Compiled multi-domain steps of the children's lockstep sub-steps.
    child_step_ids: Vec<usize>,
    /// Per-child-sub-step observability tags (single active child's index
    /// or `-1`), parallel to `child_step_ids`.
    child_obs_tags: Vec<i32>,
    /// Positions (into [`ConcPlan::level1`]) of active nests with children,
    /// which re-synchronise after their children's feedback.
    resync: Vec<usize>,
}

/// Precompiled concurrent-strategy iteration schedule.
#[derive(Debug, Clone)]
struct ConcPlan {
    level1: Vec<ConcNest>,
    substeps: Vec<ConcSubstep>,
    /// Flattened per-rank feedback-release lists: rank `g` may enter the
    /// next parent step once every nest in
    /// `release_nests[release_offsets[g]..release_offsets[g + 1]]` has fed
    /// back (the nests overlapping its halo-extended parent patch).
    release_offsets: Vec<u32>,
    release_nests: Vec<u32>,
}

/// Everything compiled once per simulation: interned halo-step tables plus
/// the strategy's iteration plan.
#[derive(Debug)]
struct Compiled {
    steps: Vec<CompiledStep>,
    parent_step: usize,
    seq: Option<SeqPlan>,
    conc: Option<ConcPlan>,
}

/// Reusable per-run buffers (hoisted out of the iteration loop).
#[derive(Debug)]
struct Scratch {
    step: StepScratch,
    starts: Vec<f64>,
    dones: Vec<f64>,
    child_start: Vec<f64>,
}

/// Interns the compiled step for `domains`, deduplicating identical domain
/// lists (e.g. every parent step, or repeated lockstep sub-steps).
fn intern_step(
    steps: &mut Vec<CompiledStep>,
    domains: Vec<(u32, u32, Rect)>,
    machine: &Machine,
    grid: &ProcGrid,
    routes: &NeighborRoutes,
) -> usize {
    if let Some(i) = steps.iter().position(|s| s.domains == domains) {
        return i;
    }
    steps.push(CompiledStep::compile(&domains, machine, grid, routes));
    steps.len() - 1
}

/// Boundary-interpolation cost for nest `i` (parent → nest transfer of the
/// lateral boundary zone).
fn interp_cost(config: &NestedConfig, machine: &Machine, i: usize) -> f64 {
    let nest = &config.nests[i];
    let halo = &machine.halo;
    let boundary_points = 2 * (nest.nx + nest.ny) * halo.width;
    let bytes = boundary_points as f64
        * halo.fields as f64
        * halo.levels as f64
        * halo.bytes_per_value as f64;
    0.5e-3 + bytes / machine.net.link_bw / 4.0
}

/// Feedback cost for nest `i` (nest → parent transfer of the averaged
/// interior, 1/r² of the nest's points).
fn feedback_cost(config: &NestedConfig, machine: &Machine, i: usize) -> f64 {
    let nest = &config.nests[i];
    let halo = &machine.halo;
    let r2 = (nest.refine_ratio * nest.refine_ratio) as f64;
    let bytes = nest.points() as f64 / r2
        * halo.fields as f64
        * halo.levels as f64
        * halo.bytes_per_value as f64;
    0.5e-3 + bytes / machine.net.link_bw / 8.0
}

/// Ranks whose parent patch intersects `fp` (parent coordinates).
fn ranks_overlapping(parent_patch: &[Rect], fp: &Rect) -> Vec<u32> {
    (0..parent_patch.len() as u32)
        .filter(|&g| {
            let p = parent_patch[g as usize];
            !p.is_empty() && !p.is_disjoint(fp)
        })
        .collect()
}

/// A configured simulation, ready to run (and re-run: the compiled
/// schedules are built once here, [`Simulation::reset`] +
/// [`Simulation::run_mut`] replay them from a clean state).
pub struct Simulation<'a> {
    machine: &'a Machine,
    grid: ProcGrid,
    config: &'a NestedConfig,
    strategy: ExecStrategy,
    mapping: Mapping,
    io_mode: IoMode,
    /// Output every this many parent iterations (None = no output).
    output_interval: Option<u32>,
    engine: HaloEngine,
    compiled: Arc<Compiled>,
    scratch: Scratch,
    /// Optional step-metrics recorder (`nestwx-obs`). Boxed to keep the
    /// simulation small; `None` costs one branch per step.
    obs: Option<Box<Recorder>>,
    // Run state.
    net: Network,
    ready: Vec<f64>,
    mpi_wait: Vec<f64>,
    /// Monotone step counter (for the deterministic compute jitter).
    step_counter: u64,
}

/// One aggregated halo transfer waiting to enter the network (reference
/// engine only).
struct PendingMsg {
    inject: f64,
    from: u32,
    to: u32,
    bytes: f64,
    msgs: u32,
}

impl<'a> Simulation<'a> {
    /// Builds a simulation, compiling the halo-step schedules and the
    /// iteration plan for the chosen strategy.
    ///
    /// `grid` is the virtual processor grid (its rank count must equal the
    /// mapping's); `config` the parent-with-nests setup; `strategy` and
    /// `mapping` per the planner.
    pub fn new(
        machine: &'a Machine,
        grid: ProcGrid,
        config: &'a NestedConfig,
        strategy: ExecStrategy,
        mapping: Mapping,
        io_mode: IoMode,
        output_interval: Option<u32>,
    ) -> Result<Self, SimError> {
        if grid.len() != mapping.len() {
            return Err(SimError::GridMappingMismatch {
                grid: grid.len(),
                mapping: mapping.len(),
            });
        }
        if let ExecStrategy::Concurrent { partitions } = &strategy {
            if partitions.len() != config.nests.len() {
                return Err(SimError::PartitionCount {
                    got: partitions.len(),
                    want: config.nests.len(),
                });
            }
            for (i, p) in partitions.iter().enumerate() {
                if p.is_empty() || !grid.rect().contains_rect(p) {
                    return Err(SimError::BadPartition { index: i });
                }
                // A second-level nest must run inside its parent nest's
                // partition (it sub-divides those processors).
                if let Some(pi) = config.nests[i].parent_nest {
                    if !partitions[pi].contains_rect(p) {
                        return Err(SimError::BadPartition { index: i });
                    }
                }
            }
        }
        let n = grid.len() as usize;
        // Parent decomposition (over the leading sub-grid if the parent is
        // smaller than the grid), for footprint-dependent synchronisation.
        let px = grid.px.min(config.parent.nx);
        let py = grid.py.min(config.parent.ny);
        let pd = Decomposition::new(config.parent.nx, config.parent.ny, ProcGrid::new(px, py));
        let mut parent_patch = vec![Rect::new(0, 0, 0, 0); n];
        for (local, g) in grid
            .ranks_in(&Rect::new(0, 0, px, py))
            .into_iter()
            .enumerate()
        {
            parent_patch[g as usize] = pd.patch(local as u32).region;
        }

        let compiled = compile_plans(machine, &grid, config, &strategy, &mapping, &parent_patch);
        let nests = config.nests.len();
        Ok(Simulation {
            net: Network::new(mapping.shape.torus, machine.net),
            machine,
            grid,
            config,
            strategy,
            mapping,
            io_mode,
            output_interval,
            engine: HaloEngine::Compiled,
            obs: None,
            compiled: Arc::new(compiled),
            scratch: Scratch {
                step: StepScratch::new(n),
                starts: vec![0.0; nests],
                dones: vec![0.0; nests],
                child_start: vec![0.0; nests],
            },
            ready: vec![0.0; n],
            mpi_wait: vec![0.0; n],
            step_counter: 0,
        })
    }

    /// Selects the halo-exchange engine (builder style). The default is
    /// [`HaloEngine::Compiled`]; [`HaloEngine::Reference`] re-derives
    /// everything per step and exists for equivalence testing and as the
    /// baseline of the compiled-schedule benchmarks.
    pub fn with_engine(mut self, engine: HaloEngine) -> Self {
        self.engine = engine;
        self
    }

    /// The active halo-exchange engine.
    pub fn engine(&self) -> HaloEngine {
        self.engine
    }

    /// Attaches a step-metrics recorder (builder style). Observation is
    /// passive: [`SimReport`]s are bitwise identical with or without it
    /// (enforced by `tests/obs_equivalence.rs`).
    pub fn with_obs(mut self, config: ObsConfig) -> Self {
        self.enable_obs(config);
        self
    }

    /// Attaches (or replaces) the step-metrics recorder. A config with a
    /// timeline turns on per-rank capture in the step engines; `net_detail`
    /// turns on per-link busy accounting in the network. Both are passive.
    pub fn enable_obs(&mut self, config: ObsConfig) {
        self.obs = Some(Box::new(Recorder::new(config)));
        self.scratch.step.record_ranks = config.timeline.is_some();
        if config.net_detail {
            self.net.enable_obs();
        } else {
            self.net.disable_obs();
        }
    }

    /// The attached recorder, if any.
    pub fn obs(&self) -> Option<&Recorder> {
        self.obs.as_deref()
    }

    /// Detaches and returns the recorder with everything it collected,
    /// turning per-rank and per-link capture back off.
    pub fn take_obs(&mut self) -> Option<Recorder> {
        self.scratch.step.record_ranks = false;
        self.net.disable_obs();
        self.obs.take().map(|b| *b)
    }

    /// Halo steps executed so far (all domains of a multi-domain lockstep
    /// sub-step count as one).
    pub fn steps_taken(&self) -> u64 {
        self.step_counter
    }

    /// Clears all run state (network occupancy, readiness, waits, step
    /// counter, recorded metrics) so the compiled schedules can be
    /// replayed from scratch.
    pub fn reset(&mut self) {
        self.net.reset();
        self.ready.fill(0.0);
        self.mpi_wait.fill(0.0);
        self.step_counter = 0;
        if let Some(rec) = self.obs.as_mut() {
            rec.clear();
        }
    }

    /// Runs `iterations` parent iterations and reports.
    pub fn run(mut self, iterations: u32) -> SimReport {
        self.run_mut(iterations)
    }

    /// Like [`Simulation::run`], additionally returning a per-iteration
    /// timeline (for analysis tools and the JSON trace output).
    pub fn run_traced(mut self, iterations: u32) -> (SimReport, Vec<IterationTrace>) {
        self.run_traced_mut(iterations)
    }

    /// [`Simulation::run`] without consuming the simulation: resets the run
    /// state and replays the compiled schedules. Build once, run many.
    pub fn run_mut(&mut self, iterations: u32) -> SimReport {
        self.run_traced_mut(iterations).0
    }

    /// [`Simulation::run_traced`] without consuming the simulation.
    pub fn run_traced_mut(&mut self, iterations: u32) -> (SimReport, Vec<IterationTrace>) {
        assert!(iterations > 0);
        self.reset();
        let compiled = Arc::clone(&self.compiled);
        let nranks = self.grid.len();
        let mut io_total = 0.0;
        let mut parent_phase = 0.0;
        let mut nest_phase = 0.0;
        let mut sibling_solve = vec![0.0; self.config.nests.len()];
        let mut traces = Vec::with_capacity(iterations as usize);

        for iter in 0..iterations {
            let wait0: f64 = self.mpi_wait.iter().sum();
            // ---- parent step on the full grid ----
            let t_iter0 = self.ready.iter().copied().fold(0.0, f64::max);
            self.exec_step(&compiled.steps[compiled.parent_step], StepPhase::Parent, -1);
            let t_parent1 = self.ready.iter().copied().fold(0.0, f64::max);
            parent_phase += t_parent1 - t_iter0;

            // ---- sibling nests ----
            if let Some(seq) = &compiled.seq {
                self.run_sequential_phase(seq, &compiled.steps, &mut sibling_solve);
            } else if let Some(conc) = &compiled.conc {
                self.run_concurrent_phase(conc, &compiled.steps, &mut sibling_solve);
            }

            let t_nests1 = self.ready.iter().copied().fold(0.0, f64::max);
            nest_phase += t_nests1 - t_parent1;

            // ---- history output ----
            let mut iter_io = 0.0;
            if let Some(every) = self.output_interval {
                if (iter + 1) % every == 0 && self.io_mode != IoMode::None {
                    let t_io = self.io_phase();
                    io_total += t_io;
                    iter_io = t_io;
                    let t = self.barrier_all() + t_io;
                    self.set_all_ready(t);
                    if let Some(rec) = self.obs.as_mut() {
                        rec.record_step(StepMetrics {
                            step: self.step_counter,
                            phase: StepPhase::Io,
                            nest: -1,
                            domains: 0,
                            start: t - t_io,
                            end: t,
                            compute: 0.0,
                            halo_wait: 0.0,
                            bytes: 0.0,
                            messages: 0,
                            transfers: 0,
                            hops: 0,
                            stall: 0.0,
                        });
                    }
                }
            }
            traces.push(IterationTrace {
                iteration: iter,
                start: t_iter0,
                parent: t_parent1 - t_iter0,
                nests: t_nests1 - t_parent1,
                io: iter_io,
                mpi_wait: self.mpi_wait.iter().sum::<f64>() - wait0,
            });
            if nestwx_obs::SPANS_ENABLED {
                if let Some(rec) = self.obs.as_mut() {
                    let t_end = t_nests1 + iter_io;
                    rec.span("iteration", 0, t_iter0 * 1e6, (t_end - t_iter0) * 1e6);
                    rec.span(
                        "parent phase",
                        1,
                        t_iter0 * 1e6,
                        (t_parent1 - t_iter0) * 1e6,
                    );
                    rec.span(
                        "nest phase",
                        1,
                        t_parent1 * 1e6,
                        (t_nests1 - t_parent1) * 1e6,
                    );
                }
            }
        }

        let total_time = self.barrier_all();
        // Hand the network's per-link recordings (if enabled) to the
        // recorder, so its analysis and summary JSON can include them.
        if let Some(rec) = self.obs.as_deref_mut() {
            if let Some(detail) = self.net.clone_obs_detail() {
                rec.set_net_detail(detail);
            }
        }
        let report = SimReport {
            machine: self.machine.name.clone(),
            iterations,
            ranks: nranks,
            total_time,
            integration_time: total_time - io_total,
            io_time: io_total,
            mpi_wait_total: self.mpi_wait.iter().sum(),
            sibling_solve,
            parent_phase,
            nest_phase,
            avg_hops: self.net.avg_hops(),
            messages: self.net.messages,
            bytes: self.net.bytes,
        };
        (report, traces)
    }

    /// Level-1 nests one after another on all ranks; each of their sub-steps
    /// is followed by their second-level children's sub-steps (WRF's
    /// recursive integration).
    fn run_sequential_phase(
        &mut self,
        seq: &SeqPlan,
        steps: &[CompiledStep],
        sibling_solve: &mut [f64],
    ) {
        let mut t = self.barrier_all();
        for item in &seq.items {
            let t0 = t;
            self.set_all_ready(t + item.interp);
            for _ in 0..item.refine {
                self.exec_step(&steps[item.step_id], StepPhase::Nest, item.idx as i32);
                for child in &item.children {
                    let tc = self.barrier_all();
                    self.set_all_ready(tc + child.interp);
                    for _ in 0..child.refine {
                        self.exec_step(&steps[child.step_id], StepPhase::Child, child.idx as i32);
                    }
                    let td = self.barrier_all() + child.feedback;
                    self.set_all_ready(td);
                    sibling_solve[child.idx] += td - tc;
                }
            }
            t = self.barrier_all() + item.feedback;
            self.set_all_ready(t);
            sibling_solve[item.idx] += t - t0;
        }
    }

    /// All level-1 nests advance their sub-steps in lockstep so that truly
    /// concurrent traffic shares the network without an artificial ordering
    /// bias between siblings; after each sub-step, their second-level
    /// children run (also in lockstep) on sub-partitions of their parent's
    /// processors.
    fn run_concurrent_phase(
        &mut self,
        conc: &ConcPlan,
        steps: &[CompiledStep],
        sibling_solve: &mut [f64],
    ) {
        // Boundary interpolation: a level-1 nest can start once its own
        // ranks finished the parent step and the parent ranks overlapping
        // its footprint (the donors) have data to send.
        let mut starts = std::mem::take(&mut self.scratch.starts);
        starts.fill(0.0);
        for cn in &conc.level1 {
            let t_donor = cn
                .donors
                .iter()
                .map(|&g| self.ready[g as usize])
                .fold(0.0, f64::max);
            let t_mine = self.barrier_ranks(&cn.ranks);
            let start = t_donor.max(t_mine);
            starts[cn.idx] = start;
            let t0 = start + cn.interp;
            self.set_ready_ranks(&cn.ranks, t0);
        }
        for sub in &conc.substeps {
            self.exec_step(&steps[sub.step_id], StepPhase::Nest, sub.obs_tag);
            if !sub.children.is_empty() {
                let mut child_start = std::mem::take(&mut self.scratch.child_start);
                child_start.fill(0.0);
                for ch in &sub.children {
                    let t = self.barrier_ranks(&ch.ranks);
                    child_start[ch.idx] = t;
                    self.set_ready_ranks(&ch.ranks, t + ch.interp);
                }
                for (&sid, &tag) in sub.child_step_ids.iter().zip(&sub.child_obs_tags) {
                    self.exec_step(&steps[sid], StepPhase::Child, tag);
                }
                for ch in &sub.children {
                    let done = self.barrier_ranks(&ch.ranks) + ch.feedback;
                    self.set_ready_ranks(&ch.ranks, done);
                    sibling_solve[ch.idx] += done - child_start[ch.idx];
                }
                // The parent nest's next sub-step needs its children's
                // feedback.
                for &pos in &sub.resync {
                    let t = self.barrier_ranks(&conc.level1[pos].ranks);
                    self.set_ready_ranks(&conc.level1[pos].ranks, t);
                }
                self.scratch.child_start = child_start;
            }
        }
        let mut dones = std::mem::take(&mut self.scratch.dones);
        dones.fill(0.0);
        for cn in &conc.level1 {
            let done = self.barrier_ranks(&cn.ranks) + cn.feedback;
            self.set_ready_ranks(&cn.ranks, done);
            dones[cn.idx] = done;
            sibling_solve[cn.idx] += done - starts[cn.idx];
        }
        // Feedback release: a rank may enter the next parent step once
        // every nest overlapping its halo-extended parent patch has fed
        // back — not a global barrier. The per-rank nest lists are
        // precompiled.
        for g in 0..self.ready.len() {
            let lo = conc.release_offsets[g] as usize;
            let hi = conc.release_offsets[g + 1] as usize;
            if lo == hi {
                continue;
            }
            let mut t = self.ready[g];
            for &i in &conc.release_nests[lo..hi] {
                t = t.max(dones[i as usize]);
            }
            self.ready[g] = t;
        }
        self.scratch.starts = starts;
        self.scratch.dones = dones;
    }

    /// One halo step through the active engine. When a recorder is
    /// attached, the step's counter-core totals and network-counter deltas
    /// are captured into a [`StepMetrics`] record; all reads happen outside
    /// the engines, so the simulated times are unaffected.
    fn exec_step(&mut self, cs: &CompiledStep, phase: StepPhase, nest: i32) {
        let snap = if self.obs.is_some() {
            let start = cs
                .senders
                .iter()
                .map(|s| self.ready[s.g as usize])
                .fold(f64::INFINITY, f64::min);
            Some((
                if start.is_finite() { start } else { 0.0 },
                self.net.messages,
                self.net.transfers,
                self.net.bytes,
                self.net.hops,
                self.net.stall,
            ))
        } else {
            None
        };
        match self.engine {
            HaloEngine::Compiled => {
                self.step_counter += 1;
                run_compiled_step(
                    cs,
                    self.machine,
                    &mut self.net,
                    &mut self.ready,
                    &mut self.mpi_wait,
                    &mut self.scratch.step,
                    self.step_counter,
                );
            }
            HaloEngine::Reference => {
                let domains = cs.domains.clone();
                self.halo_step_multi(&domains);
            }
        }
        if let Some((start, msgs0, xfers0, bytes0, hops0, stall0)) = snap {
            let end = cs
                .senders
                .iter()
                .map(|s| self.ready[s.g as usize])
                .fold(start, f64::max);
            let totals = self.scratch.step.totals;
            let metrics = StepMetrics {
                step: self.step_counter,
                phase,
                nest,
                domains: cs.domains.len() as u32,
                start,
                end,
                compute: totals.compute,
                halo_wait: totals.wait,
                bytes: self.net.bytes - bytes0,
                messages: self.net.messages - msgs0,
                transfers: self.net.transfers - xfers0,
                hops: self.net.hops - hops0,
                stall: self.net.stall - stall0,
            };
            let nranks = self.ready.len() as u32;
            if let Some(rec) = self.obs.as_deref_mut() {
                if rec.wants_ranks() {
                    // Disjoint borrows: the recorder lives in `self.obs`,
                    // the per-rank scratch in `self.scratch`.
                    let sc = &self.scratch.step;
                    rec.record_rank_step(
                        nranks,
                        metrics.step,
                        nest,
                        start,
                        end,
                        cs.senders.iter().map(|s| s.g),
                        |g| sc.rank_compute[g as usize],
                        |g| sc.rank_wait[g as usize],
                    );
                }
                rec.record_step(metrics);
            }
        }
    }

    /// One integration step of several domains *simultaneously*, each
    /// decomposed over its own processor-grid rectangle: per-rank compute,
    /// then halo exchange with the four neighbours through the contended
    /// network. All domains' messages are routed in global injection order,
    /// so concurrent siblings share links without ordering bias.
    ///
    /// This is the reference engine: it re-derives decompositions and
    /// routes on every call. [`crate::schedule::run_compiled_step`] is the
    /// bitwise-equivalent replay of the precompiled tables.
    fn halo_step_multi(&mut self, domains: &[(u32, u32, Rect)]) {
        let halo = self.machine.halo;
        let mpn = halo.messages_per_neighbor();
        let send_ovh = mpn as f64 * self.machine.net.send_overhead;

        let mut pending: Vec<PendingMsg> = Vec::new();
        // (global rank, send_done) per domain, for the completion pass.
        let mut senders: Vec<(u32, f64)> = Vec::new();
        self.step_counter += 1;
        let step = self.step_counter;

        let mut compute_total = 0.0;
        for &(nx, ny, region) in domains {
            // Domains smaller than the region use only the leading ranks.
            let px = region.w.min(nx);
            let py = region.h.min(ny);
            let active = Rect::new(region.x0, region.y0, px, py);
            let sub = ProcGrid::new(px, py);
            let decomp = Decomposition::new(nx, ny, sub);
            let global_ranks = self.grid.ranks_in(&active);

            for (local, &g) in global_ranks.iter().enumerate() {
                let patch = decomp.patch(local as u32);
                let comp = self.machine.compute.step_time_jittered(
                    patch.region.w,
                    patch.region.h,
                    g,
                    step,
                );
                let t_comp = self.ready[g as usize] + comp;
                compute_total += comp;
                if self.scratch.step.record_ranks {
                    self.scratch.step.rank_compute[g as usize] = comp;
                }
                // Post sends to each existing neighbour (within the active
                // region), paying per-message software overhead serially.
                let local_coords = sub.coords_of(local as u32);
                let neighbors =
                    sub.neighbors_within(sub.rank_of(local_coords.0, local_coords.1), &sub.rect());
                let mut t_send = t_comp;
                for nb_local in neighbors.into_iter().flatten() {
                    let (nx_l, ny_l) = sub.coords_of(nb_local);
                    let to_g = self.grid.rank_of(active.x0 + nx_l, active.y0 + ny_l);
                    // Edge length: vertical neighbours exchange rows (patch
                    // width), horizontal ones exchange columns (patch
                    // height).
                    let same_row = ny_l == local_coords.1;
                    let edge = if same_row {
                        patch.region.h
                    } else {
                        patch.region.w
                    };
                    let bytes = halo.edge_bytes(edge) as f64;
                    t_send += send_ovh;
                    pending.push(PendingMsg {
                        inject: t_send,
                        from: g,
                        to: to_g,
                        bytes,
                        msgs: mpn,
                    });
                }
                senders.push((g, t_send));
            }
        }

        // Route messages in injection order for deterministic, unbiased
        // contention. `total_cmp` keeps the sort well-defined even if a
        // pathological parameter set ever produced a NaN injection time.
        pending.sort_by(|a, b| {
            a.inject
                .total_cmp(&b.inject)
                .then(a.from.cmp(&b.from))
                .then(a.to.cmp(&b.to))
        });
        let mut recv_latest: Vec<f64> = vec![0.0; self.grid.len() as usize];
        for m in pending {
            let arrive = self.net.transfer(
                self.mapping.node_coord(m.from),
                self.mapping.node_coord(m.to),
                m.bytes,
                m.msgs,
                m.inject,
            );
            let slot = m.to as usize;
            if arrive > recv_latest[slot] {
                recv_latest[slot] = arrive;
            }
        }

        let mut wait_total = 0.0;
        for (g, send_done) in senders {
            let done = send_done.max(recv_latest[g as usize]);
            let waited = done - send_done;
            wait_total += waited;
            if self.scratch.step.record_ranks {
                self.scratch.step.rank_wait[g as usize] = waited;
            }
            self.mpi_wait[g as usize] += waited;
            self.ready[g as usize] = done;
        }
        self.scratch.step.totals = StepTotals {
            compute: compute_total,
            wait: wait_total,
        };
    }

    /// History-output phase; returns its wall-clock duration.
    fn io_phase(&self) -> f64 {
        let m = self.machine;
        let parent_bytes = crate::io::frame_bytes(
            self.config.parent.nx,
            self.config.parent.ny,
            m.fields_out,
            m.levels_out,
        );
        let nranks = self.grid.len();
        let mut t = m.io.write_time(self.io_mode, nranks, parent_bytes);
        match &self.strategy {
            ExecStrategy::Sequential => {
                for nest in &self.config.nests {
                    let b = crate::io::frame_bytes(nest.nx, nest.ny, m.fields_out, m.levels_out);
                    t += m.io.write_time(self.io_mode, nranks, b);
                }
            }
            ExecStrategy::Concurrent { partitions } => {
                // Each partition writes its own nest's file; they proceed in
                // parallel, bounded by the slowest writer group.
                let mut slowest: f64 = 0.0;
                for (nest, part) in self.config.nests.iter().zip(partitions) {
                    let b = crate::io::frame_bytes(nest.nx, nest.ny, m.fields_out, m.levels_out);
                    let writers = part.area() as u32;
                    slowest = slowest.max(m.io.write_time(self.io_mode, writers, b));
                }
                t += slowest;
            }
        }
        t
    }

    /// Global synchronisation (inter-domain: feedback broadcast, output
    /// collectives). Not charged to MPI_Wait — HPCT attributes these to
    /// other MPI calls; the paper's MPI_Wait metric covers the RSL halo
    /// exchanges, which the halo-step engines account for.
    fn barrier_all(&mut self) -> f64 {
        let t = self.ready.iter().copied().fold(0.0, f64::max);
        for r in self.ready.iter_mut() {
            *r = t;
        }
        t
    }

    /// Synchronisation over a precompiled rank list (see
    /// [`Simulation::barrier_all`] for the accounting rationale).
    fn barrier_ranks(&mut self, ranks: &[u32]) -> f64 {
        let t = ranks
            .iter()
            .map(|&g| self.ready[g as usize])
            .fold(0.0, f64::max);
        for &g in ranks {
            self.ready[g as usize] = t;
        }
        t
    }

    fn set_all_ready(&mut self, t: f64) {
        for r in &mut self.ready {
            *r = t;
        }
    }

    fn set_ready_ranks(&mut self, ranks: &[u32], t: f64) {
        for &g in ranks {
            self.ready[g as usize] = t;
        }
    }
}

/// Builds the interned step tables and the iteration plan for `strategy`.
fn compile_plans(
    machine: &Machine,
    grid: &ProcGrid,
    config: &NestedConfig,
    strategy: &ExecStrategy,
    mapping: &Mapping,
    parent_patch: &[Rect],
) -> Compiled {
    let nests = &config.nests;
    let level1 = config.level1();
    let routes = NeighborRoutes::new(grid, mapping);
    let mut steps: Vec<CompiledStep> = Vec::new();
    let parent_step = intern_step(
        &mut steps,
        vec![(config.parent.nx, config.parent.ny, grid.rect())],
        machine,
        grid,
        &routes,
    );

    let (seq, conc) = match strategy {
        ExecStrategy::Sequential => {
            let items = level1
                .iter()
                .map(|&i| {
                    let children = config
                        .children_of(i)
                        .into_iter()
                        .map(|c| SeqChild {
                            idx: c,
                            refine: nests[c].refine_ratio,
                            step_id: intern_step(
                                &mut steps,
                                vec![(nests[c].nx, nests[c].ny, grid.rect())],
                                machine,
                                grid,
                                &routes,
                            ),
                            interp: interp_cost(config, machine, c),
                            feedback: feedback_cost(config, machine, c),
                        })
                        .collect();
                    SeqNest {
                        idx: i,
                        refine: nests[i].refine_ratio,
                        step_id: intern_step(
                            &mut steps,
                            vec![(nests[i].nx, nests[i].ny, grid.rect())],
                            machine,
                            grid,
                            &routes,
                        ),
                        interp: interp_cost(config, machine, i),
                        feedback: feedback_cost(config, machine, i),
                        children,
                    }
                })
                .collect();
            (Some(SeqPlan { items }), None)
        }
        ExecStrategy::Concurrent { partitions } => {
            let conc_level1: Vec<ConcNest> = level1
                .iter()
                .map(|&i| ConcNest {
                    idx: i,
                    donors: ranks_overlapping(parent_patch, &nests[i].footprint_in_parent()),
                    ranks: grid.ranks_in(&partitions[i]),
                    interp: interp_cost(config, machine, i),
                    feedback: feedback_cost(config, machine, i),
                })
                .collect();

            let max_r = level1
                .iter()
                .map(|&i| nests[i].refine_ratio)
                .max()
                .unwrap_or(0);
            let mut substeps = Vec::with_capacity(max_r as usize);
            for s in 0..max_r {
                let active: Vec<usize> = level1
                    .iter()
                    .copied()
                    .filter(|&i| s < nests[i].refine_ratio)
                    .collect();
                let domains: Vec<(u32, u32, Rect)> = active
                    .iter()
                    .map(|&i| (nests[i].nx, nests[i].ny, partitions[i]))
                    .collect();
                let step_id = intern_step(&mut steps, domains, machine, grid, &routes);
                let obs_tag = if active.len() == 1 {
                    active[0] as i32
                } else {
                    -1
                };
                // Second-level children of the nests stepping at `s`.
                let child_idx: Vec<usize> =
                    active.iter().flat_map(|&i| config.children_of(i)).collect();
                let mut children = Vec::with_capacity(child_idx.len());
                let mut child_step_ids = Vec::new();
                let mut child_obs_tags = Vec::new();
                let mut resync = Vec::new();
                if !child_idx.is_empty() {
                    for &c in &child_idx {
                        children.push(ConcChild {
                            idx: c,
                            ranks: grid.ranks_in(&partitions[c]),
                            interp: interp_cost(config, machine, c),
                            feedback: feedback_cost(config, machine, c),
                        });
                    }
                    let max_rc = child_idx
                        .iter()
                        .map(|&c| nests[c].refine_ratio)
                        .max()
                        .unwrap_or(0);
                    for cs in 0..max_rc {
                        let act: Vec<usize> = child_idx
                            .iter()
                            .copied()
                            .filter(|&c| cs < nests[c].refine_ratio)
                            .collect();
                        let sub: Vec<(u32, u32, Rect)> = act
                            .iter()
                            .map(|&c| (nests[c].nx, nests[c].ny, partitions[c]))
                            .collect();
                        child_step_ids.push(intern_step(&mut steps, sub, machine, grid, &routes));
                        child_obs_tags.push(if act.len() == 1 { act[0] as i32 } else { -1 });
                    }
                    resync = level1
                        .iter()
                        .enumerate()
                        .filter(|&(_, &i)| {
                            s < nests[i].refine_ratio && !config.children_of(i).is_empty()
                        })
                        .map(|(pos, _)| pos)
                        .collect();
                }
                substeps.push(ConcSubstep {
                    step_id,
                    obs_tag,
                    children,
                    child_step_ids,
                    child_obs_tags,
                    resync,
                });
            }

            // Per-rank feedback-release lists.
            let halo_w = machine.halo.width;
            let n = grid.len() as usize;
            let mut release_offsets = Vec::with_capacity(n + 1);
            let mut release_nests = Vec::new();
            release_offsets.push(0u32);
            for patch in parent_patch.iter().take(n) {
                if !patch.is_empty() {
                    let expanded = Rect::new(
                        patch.x0.saturating_sub(halo_w),
                        patch.y0.saturating_sub(halo_w),
                        patch.w + 2 * halo_w,
                        patch.h + 2 * halo_w,
                    );
                    for &i in &level1 {
                        if !expanded.is_disjoint(&nests[i].footprint_in_parent()) {
                            release_nests.push(i as u32);
                        }
                    }
                }
                release_offsets.push(release_nests.len() as u32);
            }
            (
                None,
                Some(ConcPlan {
                    level1: conc_level1,
                    substeps,
                    release_offsets,
                    release_nests,
                }),
            )
        }
    };
    Compiled {
        steps,
        parent_step,
        seq,
        conc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nestwx_grid::{Domain, NestSpec};

    fn small_machine() -> Machine {
        let mut m = Machine::bgl(32);
        m.name = "test".into();
        m
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

    fn grid_and_mapping(m: &Machine) -> (ProcGrid, Mapping) {
        let grid = ProcGrid::near_square(m.ranks());
        let map = Mapping::oblivious(m.shape, m.ranks()).unwrap();
        (grid, map)
    }

    #[test]
    fn sequential_run_produces_positive_times() {
        let m = small_machine();
        let cfg = two_nest_config();
        let (grid, map) = grid_and_mapping(&m);
        let sim = Simulation::new(
            &m,
            grid,
            &cfg,
            ExecStrategy::Sequential,
            map,
            IoMode::None,
            None,
        )
        .unwrap();
        let rep = sim.run(3);
        assert!(rep.total_time > 0.0);
        assert_eq!(rep.io_time, 0.0);
        assert_eq!(rep.iterations, 3);
        assert_eq!(rep.sibling_solve.len(), 2);
        assert!(rep.sibling_solve.iter().all(|&t| t > 0.0));
        assert!(rep.messages > 0);
    }

    #[test]
    fn concurrent_beats_sequential_on_saturated_nests() {
        // Two equal nests on a machine they saturate: concurrent execution
        // on half the ranks each must be faster (the paper's core claim).
        let m = small_machine();
        let cfg = two_nest_config();
        let (grid, map) = grid_and_mapping(&m);
        let seq = Simulation::new(
            &m,
            grid,
            &cfg,
            ExecStrategy::Sequential,
            map.clone(),
            IoMode::None,
            None,
        )
        .unwrap()
        .run(3);
        let half = grid.px / 2;
        let parts = vec![
            Rect::new(0, 0, half, grid.py),
            Rect::new(half, 0, grid.px - half, grid.py),
        ];
        let conc = Simulation::new(
            &m,
            grid,
            &cfg,
            ExecStrategy::Concurrent { partitions: parts },
            map,
            IoMode::None,
            None,
        )
        .unwrap()
        .run(3);
        assert!(
            conc.total_time < seq.total_time,
            "concurrent {} !< sequential {}",
            conc.total_time,
            seq.total_time
        );
        let imp = conc.improvement_over(&seq);
        assert!(
            imp > 5.0 && imp < 60.0,
            "improvement {imp:.1}% out of plausible range"
        );
    }

    #[test]
    fn deterministic_runs() {
        let m = small_machine();
        let cfg = two_nest_config();
        let (grid, map) = grid_and_mapping(&m);
        let run = || {
            Simulation::new(
                &m,
                grid,
                &cfg,
                ExecStrategy::Sequential,
                map.clone(),
                IoMode::None,
                None,
            )
            .unwrap()
            .run(2)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.mpi_wait_total, b.mpi_wait_total);
        assert_eq!(a.messages, b.messages);
    }

    #[test]
    fn run_mut_replays_identically_after_reset() {
        // Build once, run many: every replay must reproduce the
        // single-shot result exactly.
        let m = small_machine();
        let cfg = two_nest_config();
        let (grid, map) = grid_and_mapping(&m);
        let mut sim = Simulation::new(
            &m,
            grid,
            &cfg,
            ExecStrategy::Sequential,
            map.clone(),
            IoMode::None,
            None,
        )
        .unwrap();
        let a = sim.run_mut(2);
        let b = sim.run_mut(2);
        assert_eq!(a, b);
        assert_eq!(sim.steps_taken(), 2 * (1 + 2 * 3));
        let fresh = Simulation::new(
            &m,
            grid,
            &cfg,
            ExecStrategy::Sequential,
            map,
            IoMode::None,
            None,
        )
        .unwrap()
        .run(2);
        assert_eq!(a, fresh);
    }

    #[test]
    fn reference_engine_matches_compiled_sequential() {
        let m = small_machine();
        let cfg = two_nest_config();
        let (grid, map) = grid_and_mapping(&m);
        let build = |engine: HaloEngine| {
            Simulation::new(
                &m,
                grid,
                &cfg,
                ExecStrategy::Sequential,
                map.clone(),
                IoMode::None,
                None,
            )
            .unwrap()
            .with_engine(engine)
        };
        let compiled = build(HaloEngine::Compiled).run(2);
        let reference = build(HaloEngine::Reference).run(2);
        assert_eq!(compiled, reference);
    }

    #[test]
    fn io_phase_adds_time_and_splits_accounting() {
        let m = small_machine();
        let cfg = two_nest_config();
        let (grid, map) = grid_and_mapping(&m);
        let no_io = Simulation::new(
            &m,
            grid,
            &cfg,
            ExecStrategy::Sequential,
            map.clone(),
            IoMode::None,
            None,
        )
        .unwrap()
        .run(4);
        let with_io = Simulation::new(
            &m,
            grid,
            &cfg,
            ExecStrategy::Sequential,
            map,
            IoMode::SplitFiles,
            Some(2),
        )
        .unwrap()
        .run(4);
        assert!(with_io.io_time > 0.0);
        assert!(with_io.total_time > no_io.total_time);
        assert!(
            (with_io.integration_time - no_io.integration_time).abs()
                < 0.05 * no_io.integration_time
        );
    }

    #[test]
    fn concurrent_io_cheaper_than_sequential_io() {
        // §4.5: fewer writers per file → better I/O for the parallel
        // strategy under PnetCDF.
        let mut m = small_machine();
        m.io = crate::io::IoParams::bgp_pnetcdf();
        let cfg = two_nest_config();
        let (grid, map) = grid_and_mapping(&m);
        let seq = Simulation::new(
            &m,
            grid,
            &cfg,
            ExecStrategy::Sequential,
            map.clone(),
            IoMode::PnetCdf,
            Some(1),
        )
        .unwrap()
        .run(3);
        let half = grid.px / 2;
        let parts = vec![
            Rect::new(0, 0, half, grid.py),
            Rect::new(half, 0, grid.px - half, grid.py),
        ];
        let conc = Simulation::new(
            &m,
            grid,
            &cfg,
            ExecStrategy::Concurrent { partitions: parts },
            map,
            IoMode::PnetCdf,
            Some(1),
        )
        .unwrap()
        .run(3);
        assert!(
            conc.io_time < seq.io_time,
            "conc io {} !< seq io {}",
            conc.io_time,
            seq.io_time
        );
    }

    #[test]
    fn rejects_mismatched_inputs() {
        let m = small_machine();
        let cfg = two_nest_config();
        let (grid, map) = grid_and_mapping(&m);
        // Wrong partition count.
        let err = Simulation::new(
            &m,
            grid,
            &cfg,
            ExecStrategy::Concurrent {
                partitions: vec![grid.rect()],
            },
            map.clone(),
            IoMode::None,
            None,
        )
        .err()
        .unwrap();
        assert_eq!(err, SimError::PartitionCount { got: 1, want: 2 });
        // Mapping/grid mismatch.
        let small_map = Mapping::oblivious(m.shape, 16).unwrap();
        let err = Simulation::new(
            &m,
            grid,
            &cfg,
            ExecStrategy::Sequential,
            small_map,
            IoMode::None,
            None,
        )
        .err()
        .unwrap();
        assert!(matches!(err, SimError::GridMappingMismatch { .. }));
    }

    #[test]
    fn trace_records_cover_the_run() {
        let m = small_machine();
        let cfg = two_nest_config();
        let (grid, map) = grid_and_mapping(&m);
        let (rep, traces) = Simulation::new(
            &m,
            grid,
            &cfg,
            ExecStrategy::Sequential,
            map,
            IoMode::SplitFiles,
            Some(2),
        )
        .unwrap()
        .run_traced(4);
        assert_eq!(traces.len(), 4);
        // Starts are monotone; io appears only on output iterations.
        for w in traces.windows(2) {
            assert!(w[1].start > w[0].start);
        }
        assert_eq!(traces[0].io, 0.0);
        assert!(traces[1].io > 0.0);
        // Trace sums match the aggregate report.
        let t_parent: f64 = traces.iter().map(|t| t.parent).sum();
        let t_io: f64 = traces.iter().map(|t| t.io).sum();
        let t_wait: f64 = traces.iter().map(|t| t.mpi_wait).sum();
        assert!((t_parent - rep.parent_phase).abs() < 1e-9);
        assert!((t_io - rep.io_time).abs() < 1e-9);
        assert!((t_wait - rep.mpi_wait_total).abs() < 1e-6);
    }

    #[test]
    fn phase_breakdown_covers_integration_time() {
        let m = small_machine();
        let cfg = two_nest_config();
        let (grid, map) = grid_and_mapping(&m);
        let rep = Simulation::new(
            &m,
            grid,
            &cfg,
            ExecStrategy::Sequential,
            map,
            IoMode::None,
            None,
        )
        .unwrap()
        .run(3);
        assert!(rep.parent_phase > 0.0);
        assert!(
            rep.nest_phase > rep.parent_phase,
            "nests dominate (r=3, two nests)"
        );
        let sum = rep.parent_phase + rep.nest_phase;
        assert!(
            (sum - rep.integration_time).abs() < 0.05 * rep.integration_time,
            "phases {sum} vs integration {}",
            rep.integration_time
        );
    }

    #[test]
    fn mpi_wait_positive_and_bounded() {
        let m = small_machine();
        let cfg = two_nest_config();
        let (grid, map) = grid_and_mapping(&m);
        let rep = Simulation::new(
            &m,
            grid,
            &cfg,
            ExecStrategy::Sequential,
            map,
            IoMode::None,
            None,
        )
        .unwrap()
        .run(2);
        assert!(rep.mpi_wait_total > 0.0);
        // Wait cannot exceed ranks × wall-clock.
        assert!(rep.mpi_wait_total < rep.ranks as f64 * rep.total_time);
    }

    #[test]
    fn nest_smaller_than_grid_handled() {
        // A 10×10 nest on a 32-rank machine: only 10×… ranks can be active;
        // must not panic and must still progress.
        let m = small_machine();
        let cfg = NestedConfig::new(
            Domain::parent(120, 120, 24.0),
            vec![NestSpec::new(10, 10, 3, (5, 5))],
        )
        .unwrap();
        let (grid, map) = grid_and_mapping(&m);
        let rep = Simulation::new(
            &m,
            grid,
            &cfg,
            ExecStrategy::Sequential,
            map,
            IoMode::None,
            None,
        )
        .unwrap()
        .run(2);
        assert!(rep.total_time > 0.0);
    }
}
