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
//! through the contended `Network`; waits (receive waits plus
//! synchronisation waits) accumulate into the MPI_Wait statistic the paper
//! reports in Table 1 and Figs. 11–12.
//!
//! Everything that is a pure function of the configuration — decompositions,
//! neighbour tables, torus routes, sub-communicator rank lists, donor and
//! feedback-release sets, interpolation/feedback costs — is compiled once in
//! [`Simulation::new`] (see the `schedule` module), so the per-step hot path
//! allocates nothing. The original rebuild-every-step implementation is kept
//! in the private `reference` module as [`HaloEngine::Reference`], the
//! oracle the equivalence tests compare against: both engines produce
//! bitwise-identical [`SimReport`]s.

use crate::io::IoMode;
use crate::machine::Machine;
use crate::network::Network;
use crate::schedule::{run_compiled_step, CompiledStep, NeighborRoutes, StepScratch};
use nestwx_grid::{Decomposition, NestedConfig, ProcGrid, Rect};
use nestwx_obs::{ObsConfig, Recorder, StepMetrics, StepPhase};
use nestwx_topo::Mapping;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

mod reference;

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
    pub(crate) parent_phase: f64,
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

// ---------------------------------------------------------------------------
// Compiled iteration plans
// ---------------------------------------------------------------------------

/// One nest of a lockstep [`Group`].
#[derive(Debug)]
struct Member {
    idx: usize,
    /// Ranks the nest runs on, row-major.
    ranks: Vec<u32>,
    /// Ranks whose parent patch overlaps the nest's footprint (the
    /// boundary-interpolation donors); empty for a second-level nest, whose
    /// donors are its parent nest's own ranks, and for a nest on every rank.
    donors: Vec<u32>,
    interp: f64,
    feedback: f64,
}

/// One lockstep sub-step of a [`Group`].
#[derive(Debug)]
struct Substep {
    /// Compiled multi-domain step of the members stepping now.
    step_id: usize,
    /// Nest index for the step-metrics record when exactly one member
    /// steps, `-1` for a genuine lockstep step.
    obs_tag: i32,
    /// Groups of the stepping members' second-level children, run after
    /// this sub-step (empty for most configurations).
    children: Vec<Group>,
    /// Positions (into [`Group::members`]) of stepping members with
    /// children, which re-synchronise after their children's feedback.
    resync: Vec<usize>,
}

/// Nests that step their sub-steps together: all level-1 nests on their
/// partitions under Concurrent, one nest on the whole grid under
/// Sequential.
#[derive(Debug)]
struct Group {
    members: Vec<Member>,
    substeps: Vec<Substep>,
    /// Flattened per-rank feedback-release lists over the members: rank `g`
    /// may enter the next parent step once every nest in
    /// `release_nests[release_offsets[g]..release_offsets[g + 1]]` has fed
    /// back (the members overlapping its halo-extended parent patch). Empty
    /// for a group of second-level nests, which feed back into their parent
    /// nest instead, and for a group whose members all span the grid.
    release_offsets: Vec<u32>,
    release_nests: Vec<u32>,
}

/// Everything compiled once per simulation: interned halo-step tables plus
/// the nest phase as lockstep groups, run one after another.
#[derive(Debug)]
struct Compiled {
    steps: Vec<CompiledStep>,
    parent_step: usize,
    groups: Vec<Group>,
    /// A global barrier after the parent step that no group supplies (see
    /// [`compile_plans`]).
    parent_barrier: bool,
}

/// Reusable per-run buffers (hoisted out of the iteration loop).
#[derive(Debug)]
struct Scratch {
    step: StepScratch,
    /// Per-nest start and feedback times of the running groups.
    starts: Vec<f64>,
    dones: Vec<f64>,
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
/// schedules are built once here, `Simulation::reset` +
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
        // The strategy's two choices (see `compile_plans`): each nest's
        // processor rectangle, and whether siblings step in lockstep.
        let (rects, lockstep) = match &strategy {
            ExecStrategy::Sequential => (vec![grid.rect(); config.nests.len()], false),
            ExecStrategy::Concurrent { partitions } => {
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
                (partitions.clone(), true)
            }
        };
        let compiled = compile_plans(machine, &grid, config, &mapping, rects, lockstep);
        let n = grid.len() as usize;
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
            },
            ready: vec![0.0; n],
            mpi_wait: vec![0.0; n],
            step_counter: 0,
        })
    }

    /// Selects the halo-exchange engine (builder style). The default is
    /// [`HaloEngine::Compiled`]; [`HaloEngine::Reference`] re-derives
    /// everything per step and is the oracle of the equivalence tests.
    pub fn with_engine(mut self, engine: HaloEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Attaches a step-metrics recorder (builder style). Observation is
    /// passive: [`SimReport`]s are bitwise identical with or without it
    /// (enforced by `tests/obs_equivalence.rs`).
    pub fn with_obs(mut self, config: ObsConfig) -> Self {
        self.enable_obs(config);
        self
    }

    /// Attaches (or replaces) the step-metrics recorder. The detailed tier
    /// turns on per-rank capture in the step engines and per-link busy
    /// accounting in the network. Both are passive.
    pub fn enable_obs(&mut self, config: ObsConfig) {
        self.obs = Some(Box::new(Recorder::new(config)));
        self.scratch.step.record_ranks = config.detailed;
        if config.detailed {
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
    pub(crate) fn reset(&mut self) {
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

    /// [`Simulation::run`] without consuming the simulation: resets the run
    /// state and replays the compiled schedules. Build once, run many.
    pub fn run_mut(&mut self, iterations: u32) -> SimReport {
        assert!(iterations > 0);
        self.reset();
        let compiled = Arc::clone(&self.compiled);
        let nranks = self.grid.len();
        let mut io_total = 0.0;
        let mut parent_phase = 0.0;
        let mut nest_phase = 0.0;
        let mut sibling_solve = vec![0.0; self.config.nests.len()];

        for iter in 0..iterations {
            // ---- parent step on the full grid ----
            let t_iter0 = self.ready.iter().copied().fold(0.0, f64::max);
            self.exec_step(&compiled.steps[compiled.parent_step], StepPhase::Parent, -1);
            let t_parent1 = self.ready.iter().copied().fold(0.0, f64::max);
            parent_phase += t_parent1 - t_iter0;

            // ---- sibling nests ----
            if compiled.parent_barrier {
                self.barrier_all();
            }
            for group in &compiled.groups {
                self.run_group(group, StepPhase::Nest, &compiled.steps, &mut sibling_solve);
            }

            let t_nests1 = self.ready.iter().copied().fold(0.0, f64::max);
            nest_phase += t_nests1 - t_parent1;

            // ---- history output ----
            if let Some(every) = self.output_interval {
                if (iter + 1) % every == 0 && self.io_mode != IoMode::None {
                    let t_io = self.io_phase();
                    io_total += t_io;
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
        }

        let total_time = self.barrier_all();
        // Hand the network's per-link recordings (if enabled) to the
        // recorder, so its analysis and summary JSON can include them.
        if let Some(rec) = self.obs.as_deref_mut() {
            if let Some(detail) = self.net.clone_obs_detail() {
                rec.set_net_detail(detail);
            }
        }
        SimReport {
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
        }
    }

    /// Replays one lockstep group: boundary interpolation, the sub-steps
    /// (each followed by its children's groups), feedback and the per-rank
    /// feedback release. Lockstep lets truly concurrent traffic share the
    /// network without an artificial ordering bias between siblings.
    fn run_group(
        &mut self,
        group: &Group,
        phase: StepPhase,
        steps: &[CompiledStep],
        sibling_solve: &mut [f64],
    ) {
        // Boundary interpolation: a nest can start once its own ranks are
        // done and the parent ranks overlapping its footprint (the donors)
        // have data to send.
        for m in &group.members {
            let t_donor = m
                .donors
                .iter()
                .map(|&g| self.ready[g as usize])
                .fold(0.0, f64::max);
            let start = t_donor.max(self.barrier_ranks(&m.ranks));
            self.scratch.starts[m.idx] = start;
            self.set_ready_ranks(&m.ranks, start + m.interp);
        }
        for sub in &group.substeps {
            self.exec_step(&steps[sub.step_id], phase, sub.obs_tag);
            for child in &sub.children {
                self.run_group(child, StepPhase::Child, steps, sibling_solve);
            }
            // A nest's next sub-step needs its children's feedback.
            for &pos in &sub.resync {
                self.barrier_ranks(&group.members[pos].ranks);
            }
        }
        for m in &group.members {
            let done = self.barrier_ranks(&m.ranks) + m.feedback;
            self.set_ready_ranks(&m.ranks, done);
            self.scratch.dones[m.idx] = done;
            sibling_solve[m.idx] += done - self.scratch.starts[m.idx];
        }
        // Feedback release: a rank may enter the next parent step once
        // every nest overlapping its halo-extended parent patch has fed
        // back — not a global barrier.
        for (g, range) in group.release_offsets.windows(2).enumerate() {
            let nests = &group.release_nests[range[0] as usize..range[1] as usize];
            for &i in nests {
                self.ready[g] = self.ready[g].max(self.scratch.dones[i as usize]);
            }
        }
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

/// Builds the interned step tables and the nest-phase groups: each nest
/// runs on `rects[i]`, and siblings share one lockstep group if `lockstep`,
/// else get one group each.
///
/// Sequential is the whole-grid case of Concurrent: every nest on
/// `grid.rect()`, one group each. With every rank in every group, each
/// barrier is a global one, the donors' ready times never exceed it, and
/// the feedback release rewrites values already there.
fn compile_plans(
    machine: &Machine,
    grid: &ProcGrid,
    config: &NestedConfig,
    mapping: &Mapping,
    rects: Vec<Rect>,
    lockstep: bool,
) -> Compiled {
    // Parent decomposition (over the leading sub-grid if the parent is
    // smaller than the grid), for footprint-dependent synchronisation.
    let px = grid.px.min(config.parent.nx);
    let py = grid.py.min(config.parent.ny);
    let pd = Decomposition::new(config.parent.nx, config.parent.ny, ProcGrid::new(px, py));
    let mut parent_patch = vec![Rect::new(0, 0, 0, 0); grid.len() as usize];
    for (local, g) in grid
        .ranks_in(&Rect::new(0, 0, px, py))
        .into_iter()
        .enumerate()
    {
        parent_patch[g as usize] = pd.patch(local as u32).region;
    }
    let mut cx = GroupCompiler {
        machine,
        grid,
        config,
        routes: NeighborRoutes::new(grid, mapping),
        parent_patch,
        rects,
        lockstep,
        steps: Vec::new(),
    };
    let parent_step = cx.intern(vec![(config.parent.nx, config.parent.ny, grid.rect())]);
    let groups = cx.groups(&config.level1());
    // Sequential's nest phase opens on a global barrier, which the first
    // whole-grid group's start supplies. A parent-only run has no group,
    // yet every predictor fit is timed on that run with the barrier in
    // place (`core::profile::measure_domain_time`), so it is kept by hand.
    let parent_barrier = !lockstep && groups.is_empty();
    Compiled {
        steps: cx.steps,
        parent_step,
        groups,
        parent_barrier,
    }
}

/// What compiling a [`Group`] needs besides its members.
struct GroupCompiler<'a> {
    machine: &'a Machine,
    grid: &'a ProcGrid,
    config: &'a NestedConfig,
    routes: NeighborRoutes,
    /// Each rank's parent patch (empty off the parent's sub-grid).
    parent_patch: Vec<Rect>,
    /// Processor rectangle of each nest.
    rects: Vec<Rect>,
    /// Siblings share one group (Concurrent) or get one each (Sequential).
    lockstep: bool,
    steps: Vec<CompiledStep>,
}

impl GroupCompiler<'_> {
    /// Interns the compiled step for `domains`, deduplicating identical
    /// domain lists (e.g. every parent step, or repeated lockstep
    /// sub-steps).
    fn intern(&mut self, domains: Vec<(u32, u32, Rect)>) -> usize {
        if let Some(i) = self.steps.iter().position(|s| s.domains == domains) {
            return i;
        }
        let step = CompiledStep::compile(&domains, self.machine, self.grid, &self.routes);
        self.steps.push(step);
        self.steps.len() - 1
    }

    /// The sibling nests `nests`, grouped per the strategy.
    fn groups(&mut self, nests: &[usize]) -> Vec<Group> {
        if self.lockstep && !nests.is_empty() {
            vec![self.group(nests)]
        } else {
            nests.iter().map(|&i| self.group(&[i])).collect()
        }
    }

    fn group(&mut self, ids: &[usize]) -> Group {
        let config = self.config;
        let nests = &config.nests;
        let level1 = nests[ids[0]].parent_nest.is_none();
        // A member on every rank: its start barrier is a global one, which
        // no donor's ready time exceeds (`max(t_donor, barrier) == barrier`).
        let whole = |i: usize| self.rects[i] == self.grid.rect();
        let members = ids
            .iter()
            .map(|&i| Member {
                idx: i,
                ranks: self.grid.ranks_in(&self.rects[i]),
                donors: if level1 && !whole(i) {
                    ranks_overlapping(&self.parent_patch, &nests[i].footprint_in_parent())
                } else {
                    Vec::new()
                },
                interp: interp_cost(config, self.machine, i),
                feedback: feedback_cost(config, self.machine, i),
            })
            .collect();
        // When every member spans the grid, each member's feedback leaves
        // every rank at its done time and each later one's done time is no
        // earlier, so the release would rewrite values already there.
        let release = level1 && !ids.iter().all(|&i| whole(i));
        let max_r = ids
            .iter()
            .map(|&i| nests[i].refine_ratio)
            .max()
            .unwrap_or(0);
        let mut substeps = Vec::with_capacity(max_r as usize);
        for s in 0..max_r {
            let active: Vec<usize> = ids
                .iter()
                .copied()
                .filter(|&i| s < nests[i].refine_ratio)
                .collect();
            let domains = active
                .iter()
                .map(|&i| (nests[i].nx, nests[i].ny, self.rects[i]))
                .collect();
            let step_id = self.intern(domains);
            let obs_tag = if active.len() == 1 {
                active[0] as i32
            } else {
                -1
            };
            let children: Vec<usize> = active.iter().flat_map(|&i| config.children_of(i)).collect();
            let resync = ids
                .iter()
                .enumerate()
                .filter(|&(_, &i)| s < nests[i].refine_ratio && !config.children_of(i).is_empty())
                .map(|(pos, _)| pos)
                .collect();
            substeps.push(Substep {
                step_id,
                obs_tag,
                children: self.groups(&children),
                resync,
            });
        }
        let (release_offsets, release_nests) = if release {
            self.release_lists(ids)
        } else {
            (Vec::new(), Vec::new())
        };
        Group {
            members,
            substeps,
            release_offsets,
            release_nests,
        }
    }

    /// Per-rank feedback-release lists over the level-1 nests `ids`.
    fn release_lists(&self, ids: &[usize]) -> (Vec<u32>, Vec<u32>) {
        let halo_w = self.machine.halo.width;
        let mut offsets = Vec::with_capacity(self.parent_patch.len() + 1);
        let mut release = Vec::new();
        offsets.push(0u32);
        for patch in &self.parent_patch {
            if !patch.is_empty() {
                let expanded = Rect::new(
                    patch.x0.saturating_sub(halo_w),
                    patch.y0.saturating_sub(halo_w),
                    patch.w + 2 * halo_w,
                    patch.h + 2 * halo_w,
                );
                for &i in ids {
                    if !expanded.is_disjoint(&self.config.nests[i].footprint_in_parent()) {
                        release.push(i as u32);
                    }
                }
            }
            offsets.push(release.len() as u32);
        }
        (offsets, release)
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
        // The recorder's step records are the run's timeline: output
        // phases land on output iterations only, and the per-step records
        // add up to the aggregate report.
        let m = small_machine();
        let cfg = two_nest_config();
        let (grid, map) = grid_and_mapping(&m);
        let mut sim = Simulation::new(
            &m,
            grid,
            &cfg,
            ExecStrategy::Sequential,
            map,
            IoMode::SplitFiles,
            Some(2),
        )
        .unwrap()
        .with_obs(ObsConfig::counters());
        let rep = sim.run_mut(4);
        let steps: Vec<StepMetrics> = sim.obs().unwrap().steps().cloned().collect();
        assert_eq!(steps.len() as u64, sim.steps_taken() + 2);
        // Starts are monotone; I/O follows the 2nd and 4th iterations'
        // seven halo steps (one parent, two nests × r = 3).
        for w in steps.windows(2) {
            assert!(w[1].start >= w[0].start);
        }
        let io_steps: Vec<u64> = steps
            .iter()
            .filter(|s| s.phase == StepPhase::Io)
            .map(|s| s.step)
            .collect();
        assert_eq!(io_steps, [14, 28]);
        let sum = |phase: StepPhase| -> f64 {
            steps
                .iter()
                .filter(|s| s.phase == phase)
                .map(|s| s.end - s.start)
                .sum()
        };
        assert!((sum(StepPhase::Parent) - rep.parent_phase).abs() < 1e-9);
        assert!((sum(StepPhase::Io) - rep.io_time).abs() < 1e-9);
        let t_wait: f64 = steps.iter().map(|s| s.halo_wait).sum();
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
