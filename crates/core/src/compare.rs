//! Convenience comparison of the default and divide-and-conquer strategies.

use crate::planner::{ExecutionPlan, PlanError, Planner};
use crate::strategy::{MappingKind, Strategy};
use nestwx_grid::{Domain, NestSpec};
use nestwx_netsim::{AnalysisReport, ObsConfig, ObsSummary, Recorder, SimReport};
use serde::{Deserialize, Serialize};

/// Side-by-side result of the default sequential strategy and a
/// divide-and-conquer plan on the same configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StrategyComparison {
    /// Default: sequential nests, topology-oblivious mapping.
    pub default_run: SimReport,
    /// The planner's configured strategy.
    pub planned_run: SimReport,
}

impl StrategyComparison {
    /// Percentage improvement in per-iteration time (positive = planned
    /// faster), the headline metric of §4.3.
    pub fn improvement_pct(&self) -> f64 {
        self.planned_run.improvement_over(&self.default_run)
    }

    /// Percentage improvement in total MPI_Wait (Table 1).
    pub fn mpi_wait_improvement_pct(&self) -> f64 {
        (1.0 - self.planned_run.mpi_wait_total / self.default_run.mpi_wait_total) * 100.0
    }

    /// Percentage improvement in I/O time (Fig. 8's included-I/O delta).
    pub fn io_improvement_pct(&self) -> f64 {
        if self.default_run.io_time == 0.0 {
            0.0
        } else {
            (1.0 - self.planned_run.io_time / self.default_run.io_time) * 100.0
        }
    }

    /// Reduction in average hops per message (Fig. 12b).
    pub fn hops_reduction_pct(&self) -> f64 {
        (1.0 - self.planned_run.avg_hops / self.default_run.avg_hops) * 100.0
    }
}

/// [`StrategyComparison`] plus each run's full recorder (totals, per-rank
/// timelines, histograms, link detail), so the paper's MPI_Wait, imbalance
/// and hop tables can be rebuilt from step-level metrics instead of the
/// simulator's internal accumulators.
#[derive(Debug, Clone)]
pub struct ObservedComparison {
    /// The plain side-by-side reports.
    pub comparison: StrategyComparison,
    /// Recorded totals of the default (sequential, oblivious) run.
    pub default_obs: ObsSummary,
    /// Recorded totals of the planned run.
    pub(crate) planned_obs: ObsSummary,
    /// Full recorder of the default run (timelines, histograms, links).
    pub default_rec: Recorder,
    /// Full recorder of the planned run.
    pub planned_rec: Recorder,
}

impl ObservedComparison {
    /// MPI_Wait improvement computed from the recorded step metrics
    /// (Table 1, via `nestwx-obs` instead of `SimReport`).
    pub fn mpi_wait_improvement_pct(&self) -> f64 {
        (1.0 - self.planned_obs.halo_wait / self.default_obs.halo_wait) * 100.0
    }

    /// Imbalance / link-utilization analysis of the default run.
    pub fn default_analysis(&self) -> AnalysisReport {
        self.default_rec.analysis()
    }

    /// Imbalance / link-utilization analysis of the planned run.
    pub fn planned_analysis(&self) -> AnalysisReport {
        self.planned_rec.analysis()
    }
}

/// The paper's default baseline (sequential + oblivious mapping, same
/// machine/output settings) and `planner`'s own plan, in that order.
fn baseline_and_planned(
    planner: &Planner,
    parent: &Domain,
    nests: &[NestSpec],
) -> Result<(ExecutionPlan, ExecutionPlan), PlanError> {
    let baseline = planner
        .clone()
        .strategy(Strategy::Sequential)
        .mapping(MappingKind::Oblivious)
        .plan(parent, nests)?;
    Ok((baseline, planner.plan(parent, nests)?))
}

/// Runs `planner`'s configuration and the paper's default baseline
/// (sequential + oblivious mapping, same machine/output settings) on the
/// given domains for `iterations` parent iterations.
pub fn compare_strategies(
    planner: &Planner,
    parent: &Domain,
    nests: &[NestSpec],
    iterations: u32,
) -> Result<StrategyComparison, PlanError> {
    let (baseline, planned) = baseline_and_planned(planner, parent, nests)?;
    Ok(StrategyComparison {
        default_run: baseline.simulate(iterations)?,
        planned_run: planned.simulate(iterations)?,
    })
}

/// [`compare_strategies`] with step-metrics recorders attached to both
/// runs. The embedded [`StrategyComparison`] is bitwise identical to the
/// unobserved one (observation is passive).
pub fn compare_strategies_observed(
    planner: &Planner,
    parent: &Domain,
    nests: &[NestSpec],
    iterations: u32,
) -> Result<ObservedComparison, PlanError> {
    let (baseline, planned) = baseline_and_planned(planner, parent, nests)?;
    let (default_run, default_rec) =
        baseline.simulate_observed(iterations, ObsConfig::detailed())?;
    let (planned_run, planned_rec) =
        planned.simulate_observed(iterations, ObsConfig::detailed())?;
    Ok(ObservedComparison {
        comparison: StrategyComparison {
            default_run,
            planned_run,
        },
        default_obs: default_rec.summary().clone(),
        planned_obs: planned_rec.summary().clone(),
        default_rec,
        planned_rec,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nestwx_netsim::Machine;

    #[test]
    fn comparison_shows_improvement_for_saturating_nests() {
        // Two medium nests on a BG/L partition they saturate.
        let parent = Domain::parent(286, 307, 24.0);
        let nests = vec![
            NestSpec::new(259, 229, 3, (10, 12)),
            NestSpec::new(259, 229, 3, (150, 40)),
        ];
        let planner = Planner::new(Machine::bgl(512));
        let cmp = compare_strategies(&planner, &parent, &nests, 3).unwrap();
        let imp = cmp.improvement_pct();
        assert!(imp > 5.0, "improvement only {imp:.1}%");
        assert!(imp < 60.0, "improvement implausibly high: {imp:.1}%");
        assert!(
            cmp.mpi_wait_improvement_pct() > 0.0,
            "halo MPI_Wait should drop: {:.1}%",
            cmp.mpi_wait_improvement_pct()
        );
    }

    #[test]
    fn observed_comparison_is_passive_and_consistent() {
        let parent = Domain::parent(286, 307, 24.0);
        let nests = vec![
            NestSpec::new(259, 229, 3, (10, 12)),
            NestSpec::new(259, 229, 3, (150, 40)),
        ];
        let planner = Planner::new(Machine::bgl(64));
        let plain = compare_strategies(&planner, &parent, &nests, 2).unwrap();
        let obs = compare_strategies_observed(&planner, &parent, &nests, 2).unwrap();
        // Observation must not perturb the simulation.
        assert_eq!(obs.comparison, plain);
        // Recorded totals rebuild the report's aggregates (float summation
        // order differs, so compare with a tight relative tolerance).
        let rel = (obs.default_obs.halo_wait - plain.default_run.mpi_wait_total).abs()
            / plain.default_run.mpi_wait_total;
        assert!(rel < 1e-9, "halo_wait off by rel {rel}");
        assert_eq!(obs.default_obs.messages, plain.default_run.messages);
        assert_eq!(obs.default_obs.bytes, plain.default_run.bytes);
        assert!(
            (obs.default_obs.avg_hops() - plain.default_run.avg_hops).abs() < 1e-12,
            "avg hops mismatch"
        );
        assert!(obs.mpi_wait_improvement_pct() > 0.0);
        // The recorders carry the detailed tier: timelines and analyses.
        assert!(obs.default_rec.timeline().is_some());
        assert!(obs.planned_rec.timeline().is_some());
        let analysis = obs.default_analysis();
        assert!(analysis.overall_imbalance >= 1.0);
        assert_eq!(analysis.per_nest.len(), 2);
        let ratio_sum: f64 = analysis.per_nest.iter().map(|n| n.time_ratio).sum();
        assert!((ratio_sum - 1.0).abs() < 1e-12);
        assert!(obs.planned_analysis().links.is_some());
    }

    #[test]
    fn comparison_fields_consistent() {
        let parent = Domain::parent(286, 307, 24.0);
        let nests = vec![NestSpec::new(200, 200, 3, (10, 12))];
        let planner = Planner::new(Machine::bgl(64));
        let cmp = compare_strategies(&planner, &parent, &nests, 2).unwrap();
        assert_eq!(cmp.default_run.iterations, 2);
        assert_eq!(cmp.planned_run.iterations, 2);
        // One nest: concurrent == "whole grid", improvement ≈ 0.
        assert!(cmp.improvement_pct().abs() < 5.0);
    }
}
