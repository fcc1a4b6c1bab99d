//! The planner: predict → allocate → map → (simulate).

use crate::store::PredictorStore;
use crate::strategy::{AllocPolicy, MappingKind, Strategy};
use nestwx_alloc::{naive, partition_grid, AllocError, Partition};
use nestwx_grid::{Domain, DomainError, DomainFeatures, NestSpec, NestedConfig, ProcGrid, Rect};
use nestwx_netsim::{sim::SimError, ExecStrategy, IoMode, Machine, SimReport, Simulation};
use nestwx_predict::{ExecTimePredictor, NaivePointsModel, PredictError};
use nestwx_topo::{Mapping, MappingError};
use std::fmt;
use std::sync::Arc;

/// Errors producing or executing a plan.
#[derive(Debug)]
pub enum PlanError {
    /// Invalid domain configuration.
    Domain(DomainError),
    /// Predictor failure.
    Predict(PredictError),
    /// Allocation failure.
    Alloc(AllocError),
    /// Mapping failure.
    Mapping(MappingError),
    /// Simulation construction failure.
    Sim(SimError),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Domain(e) => write!(f, "domain: {e}"),
            PlanError::Predict(e) => write!(f, "prediction: {e}"),
            PlanError::Alloc(e) => write!(f, "allocation: {e}"),
            PlanError::Mapping(e) => write!(f, "mapping: {e}"),
            PlanError::Sim(e) => write!(f, "simulation: {e}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<DomainError> for PlanError {
    fn from(e: DomainError) -> Self {
        PlanError::Domain(e)
    }
}
impl From<PredictError> for PlanError {
    fn from(e: PredictError) -> Self {
        PlanError::Predict(e)
    }
}
impl From<AllocError> for PlanError {
    fn from(e: AllocError) -> Self {
        PlanError::Alloc(e)
    }
}
impl From<MappingError> for PlanError {
    fn from(e: MappingError) -> Self {
        PlanError::Mapping(e)
    }
}
impl From<SimError> for PlanError {
    fn from(e: SimError) -> Self {
        PlanError::Sim(e)
    }
}

/// Configures how plans are produced. Builder-style.
#[derive(Debug, Clone)]
pub struct Planner {
    machine: Machine,
    strategy: Strategy,
    alloc: AllocPolicy,
    mapping: MappingKind,
    io_mode: IoMode,
    output_interval: Option<u32>,
    predictor: Option<Arc<ExecTimePredictor>>,
}

impl Planner {
    /// A planner with the paper's recommended settings: concurrent
    /// execution, Huffman/split-tree allocation, partition mapping, no
    /// output.
    pub fn new(machine: Machine) -> Planner {
        Planner {
            machine,
            strategy: Strategy::Concurrent,
            alloc: AllocPolicy::HuffmanSplitTree,
            mapping: MappingKind::Partition,
            io_mode: IoMode::None,
            output_interval: None,
            predictor: None,
        }
    }

    /// Sets the execution strategy.
    pub fn strategy(mut self, s: Strategy) -> Self {
        self.strategy = s;
        self
    }

    /// Sets the allocation policy.
    pub fn alloc_policy(mut self, a: AllocPolicy) -> Self {
        self.alloc = a;
        self
    }

    /// Sets the mapping kind.
    pub fn mapping(mut self, m: MappingKind) -> Self {
        self.mapping = m;
        self
    }

    /// Enables history output in the given mode every `interval` parent
    /// iterations.
    pub fn output(mut self, mode: IoMode, interval: u32) -> Self {
        self.io_mode = mode;
        self.output_interval = Some(interval);
        self
    }

    /// Supplies a fitted predictor (otherwise the process-wide
    /// [`PredictorStore`] fits one per machine, once).
    pub fn with_predictor(mut self, p: impl Into<Arc<ExecTimePredictor>>) -> Self {
        self.predictor = Some(p.into());
        self
    }

    /// The machine this planner targets.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Produces an execution plan for `parent` with `nests`.
    pub fn plan(&self, parent: &Domain, nests: &[NestSpec]) -> Result<ExecutionPlan, PlanError> {
        let config = NestedConfig::new(parent.clone(), nests.to_vec())?;
        let nranks = self.machine.ranks();
        let grid = ProcGrid::near_square(nranks);
        let features: Vec<DomainFeatures> = nests.iter().map(DomainFeatures::from).collect();

        // 1. Predicted relative execution times.
        let ratios: Vec<f64> = if nests.is_empty() {
            Vec::new()
        } else {
            match self.alloc {
                AllocPolicy::Equal => vec![1.0; nests.len()],
                AllocPolicy::NaiveProportional => {
                    NaivePointsModel { coeff: 1.0 }.relative_times(&features)
                }
                AllocPolicy::HuffmanSplitTree => {
                    let predictor = match &self.predictor {
                        Some(p) => Arc::clone(p),
                        None => PredictorStore::shared().get(&self.machine)?,
                    };
                    predictor.relative_times(&features)?
                }
            }
        };

        // 2. Processor allocation. Level-1 nests partition the whole grid;
        // their weights aggregate the work of their second-level children
        // (which step r₁·r₂ times per parent step). Children then
        // sub-partition their parent's rectangle among themselves.
        let level1 = config.level1();
        let partitions: Vec<Partition> = if nests.is_empty() {
            Vec::new()
        } else {
            match (self.strategy, self.alloc) {
                (Strategy::Sequential, _) => Vec::new(),
                _ => {
                    // Aggregate weights per level-1 nest.
                    let weight = |i: usize| -> f64 {
                        let own = ratios[i] * nests[i].refine_ratio as f64;
                        let kids: f64 = config
                            .children_of(i)
                            .iter()
                            .map(|&c| {
                                ratios[c]
                                    * nests[i].refine_ratio as f64
                                    * nests[c].refine_ratio as f64
                            })
                            .sum();
                        own + kids
                    };
                    let l1_weights: Vec<f64> = level1.iter().map(|&i| weight(i)).collect();
                    let l1_parts: Vec<Partition> = match self.alloc {
                        AllocPolicy::NaiveProportional => {
                            naive::proportional_strips(&grid, &l1_weights)?
                        }
                        AllocPolicy::Equal => naive::equal_split(&grid, level1.len())?,
                        AllocPolicy::HuffmanSplitTree => partition_grid(&grid, &l1_weights)?,
                    };
                    // Assemble the full per-nest partition list.
                    let mut rect_of: Vec<Option<Rect>> = vec![None; nests.len()];
                    for (slot, &i) in level1.iter().enumerate() {
                        rect_of[i] = Some(l1_parts[slot].rect);
                    }
                    for &i in &level1 {
                        let kids = config.children_of(i);
                        if kids.is_empty() {
                            continue;
                        }
                        let host = rect_of[i].expect("level-1 rect assigned");
                        let kid_ratios: Vec<f64> = kids.iter().map(|&c| ratios[c]).collect();
                        // Children sub-divide their parent nest's
                        // processors with the same split-tree algorithm
                        // (local grid anchored at the host rectangle).
                        let sub_grid = ProcGrid::new(host.w, host.h);
                        let sub = partition_grid(&sub_grid, &kid_ratios)?;
                        for (q, &c) in sub.iter().zip(&kids) {
                            rect_of[c] = Some(Rect::new(
                                host.x0 + q.rect.x0,
                                host.y0 + q.rect.y0,
                                q.rect.w,
                                q.rect.h,
                            ));
                        }
                    }
                    rect_of
                        .into_iter()
                        .enumerate()
                        .map(|(i, r)| Partition {
                            domain: i,
                            rect: r.expect("every nest assigned"),
                        })
                        .collect()
                }
            }
        };
        let rects: Vec<Rect> = partitions.iter().map(|p| p.rect).collect();
        // Mapping operates on the level-1 rectangles only (children occupy
        // subsets of their parent's processors). Sequential plans have no
        // partitions at all.
        let l1_rects: Vec<Rect> = if rects.is_empty() {
            Vec::new()
        } else {
            level1.iter().map(|&i| rects[i]).collect()
        };

        // 3. Mapping.
        let mapping = match self.mapping {
            MappingKind::Oblivious => Mapping::oblivious(self.machine.shape, nranks)?,
            MappingKind::Txyz => Mapping::txyz(self.machine.shape, nranks)?,
            MappingKind::Partition => {
                if l1_rects.is_empty() {
                    Mapping::oblivious(self.machine.shape, nranks)?
                } else {
                    Mapping::partition(self.machine.shape, &grid, &l1_rects)?
                }
            }
            MappingKind::MultiLevel => {
                if l1_rects.is_empty() {
                    Mapping::oblivious(self.machine.shape, nranks)?
                } else {
                    Mapping::multilevel(self.machine.shape, &grid, &l1_rects)?
                }
            }
        };

        let strategy = match self.strategy {
            Strategy::Sequential => ExecStrategy::Sequential,
            Strategy::Concurrent => ExecStrategy::Concurrent { partitions: rects },
        };

        Ok(ExecutionPlan {
            machine: self.machine.clone(),
            config,
            grid,
            strategy,
            partitions,
            predicted_ratios: ratios,
            mapping,
            io_mode: self.io_mode,
            output_interval: self.output_interval,
        })
    }
}

/// A fully-resolved plan: who runs where, under which mapping.
#[derive(Debug, Clone)]
pub struct ExecutionPlan {
    /// Target machine.
    pub machine: Machine,
    /// Parent-with-nests configuration.
    pub config: NestedConfig,
    /// Virtual processor grid.
    pub grid: ProcGrid,
    /// Execution strategy handed to the simulator.
    pub strategy: ExecStrategy,
    /// Per-nest processor rectangles (empty for sequential plans).
    pub partitions: Vec<Partition>,
    /// Predicted relative execution times (sum 1) used for allocation.
    pub predicted_ratios: Vec<f64>,
    /// The rank → slot mapping.
    pub mapping: Mapping,
    /// Output mode.
    pub io_mode: IoMode,
    /// Output interval (parent iterations).
    pub output_interval: Option<u32>,
}

impl ExecutionPlan {
    /// Executes the plan on the machine simulator for `iterations` parent
    /// iterations.
    pub fn simulate(&self, iterations: u32) -> Result<SimReport, PlanError> {
        Ok(self.compile()?.run(iterations))
    }

    /// Like [`ExecutionPlan::simulate`] with a step-metrics recorder
    /// attached, returning the report plus the detached recorder (whole-run
    /// [`nestwx_netsim::ObsSummary`] totals, recent-steps ring, spans). The
    /// report is bitwise identical to an unobserved run.
    pub fn simulate_observed(
        &self,
        iterations: u32,
        obs: nestwx_netsim::ObsConfig,
    ) -> Result<(SimReport, nestwx_netsim::Recorder), PlanError> {
        let mut sim = self.compile()?.with_obs(obs);
        let report = sim.run_mut(iterations);
        let rec = sim.take_obs().expect("recorder attached above");
        Ok((report, rec))
    }

    /// Builds the simulation once (compiling its halo-step schedules) so it
    /// can be run repeatedly via [`Simulation::run_mut`] — the
    /// compile-once, simulate-many entry point for sweeps and benchmarks.
    pub fn compile(&self) -> Result<Simulation<'_>, PlanError> {
        Ok(Simulation::new(
            &self.machine,
            self.grid,
            &self.config,
            self.strategy.clone(),
            self.mapping.clone(),
            self.io_mode,
            self.output_interval,
        )?)
    }

    /// Processors allocated to nest `i` (the whole grid for sequential
    /// plans).
    pub fn procs_for_nest(&self, i: usize) -> u32 {
        match &self.strategy {
            ExecStrategy::Sequential => self.grid.len(),
            ExecStrategy::Concurrent { partitions } => partitions[i].area() as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pacific() -> (Domain, Vec<NestSpec>) {
        (
            Domain::parent(286, 307, 24.0),
            vec![
                NestSpec::new(259, 229, 3, (10, 12)),
                NestSpec::new(259, 229, 3, (150, 40)),
            ],
        )
    }

    #[test]
    fn plan_concurrent_partitions_cover_grid() {
        let (p, n) = pacific();
        let plan = Planner::new(Machine::bgl(64)).plan(&p, &n).unwrap();
        let total: u64 = plan.partitions.iter().map(|q| q.rect.area()).sum();
        assert_eq!(total, 64);
        assert_eq!(plan.predicted_ratios.len(), 2);
        // Equal nests → near-equal ratios.
        assert!((plan.predicted_ratios[0] - 0.5).abs() < 0.05);
    }

    #[test]
    fn plan_sequential_has_no_partitions() {
        let (p, n) = pacific();
        let plan = Planner::new(Machine::bgl(64))
            .strategy(Strategy::Sequential)
            .plan(&p, &n)
            .unwrap();
        assert!(plan.partitions.is_empty());
        assert_eq!(plan.strategy, ExecStrategy::Sequential);
        assert_eq!(plan.procs_for_nest(0), 64);
    }

    #[test]
    fn plan_simulates() {
        let (p, n) = pacific();
        let plan = Planner::new(Machine::bgl(64)).plan(&p, &n).unwrap();
        let rep = plan.simulate(2).unwrap();
        assert!(rep.total_time > 0.0);
        assert_eq!(rep.iterations, 2);
    }

    #[test]
    fn naive_policy_uses_point_shares() {
        let p = Domain::parent(286, 307, 24.0);
        let n = vec![
            NestSpec::new(100, 100, 3, (0, 0)),
            NestSpec::new(200, 150, 3, (50, 50)),
        ];
        let plan = Planner::new(Machine::bgl(64))
            .alloc_policy(AllocPolicy::NaiveProportional)
            .plan(&p, &n)
            .unwrap();
        let shares: Vec<f64> = plan.predicted_ratios.clone();
        assert!((shares[0] - 10000.0 / 40000.0).abs() < 1e-12);
        // Strips: full height.
        assert!(plan.partitions.iter().all(|q| q.rect.h == plan.grid.py));
    }

    #[test]
    fn equal_policy_splits_evenly() {
        let (p, n) = pacific();
        let plan = Planner::new(Machine::bgl(64))
            .alloc_policy(AllocPolicy::Equal)
            .plan(&p, &n)
            .unwrap();
        assert_eq!(
            plan.partitions[0].rect.area(),
            plan.partitions[1].rect.area()
        );
    }

    #[test]
    fn mapping_kinds_all_plan() {
        let (p, n) = pacific();
        for kind in MappingKind::ALL {
            let plan = Planner::new(Machine::bgl(64))
                .mapping(kind)
                .plan(&p, &n)
                .unwrap();
            assert_eq!(plan.mapping.len(), 64);
        }
    }

    #[test]
    fn plan_rejects_invalid_nest() {
        let p = Domain::parent(100, 100, 24.0);
        let n = vec![NestSpec::new(400, 400, 3, (50, 50))];
        let err = Planner::new(Machine::bgl(64)).plan(&p, &n).err().unwrap();
        assert!(matches!(err, PlanError::Domain(_)));
    }
}
