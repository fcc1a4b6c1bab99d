//! The experiment registry: one function per table/figure of the paper,
//! plus the workload generation, statistics and table printing they share.
//!
//! Every experiment returns the table it reports as a `String`;
//! [`EXPERIMENTS`] lists them, the `repro` binary prints them, and
//! `tests/results_locked.rs` byte-compares them with the committed
//! `results/*.txt` in process (see DESIGN.md §5 for the index and
//! EXPERIMENTS.md for recorded paper-vs-measured values).

use nestwx_core::parallel::run_parallel;
use nestwx_core::{MappingKind, Planner, Strategy};
use nestwx_grid::{Domain, NestSpec, Rect};
use nestwx_netsim::{ObsConfig, ObsSummary, SimReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

mod experiments {
    pub mod ablation_study;
    pub mod adaptive_steering;
    pub mod bgq_preview;
    pub mod calibrate;
    pub mod fig02_scalability;
    pub mod fig03_partition;
    pub mod fig04_split_dim;
    pub mod fig08_io_improvement;
    pub mod fig09_siblings;
    pub mod fig10_large_nests;
    pub mod fig13_io_scaling;
    pub mod fig15_speedup;
    pub mod pred_accuracy;
    pub mod sea_configs;
    pub mod sec431_improvement;
    pub mod sec46_alloc_quality;
    pub mod tab01_mpiwait;
    pub mod tab03_vary_config;
    pub mod tab04_mapping_bgl;
    pub mod tab05_mapping_bgp;
}
use experiments::*;

/// `repro`'s two flags, as every experiment sees them.
#[derive(Debug, Default)]
pub struct Opts {
    /// `--configs N`: random configurations per point for the sweeps that
    /// sample them (`fig08`, `sec431`, `tab01`, `tab03`); `None` keeps
    /// each one's default, at which `results/` is recorded.
    pub configs: Option<usize>,
    /// `--trace-out PATH`: where an experiment with [`Experiment::traces`]
    /// writes the Chrome trace of one of its runs.
    pub trace_out: Option<PathBuf>,
}

/// One table or figure of the paper: `results/<name>.txt` holds what
/// `run` returns at the default [`Opts`].
pub struct Experiment {
    /// What `repro` takes on its command line.
    pub name: &'static str,
    pub run: fn(&Opts) -> String,
    /// Whether `run` honours [`Opts::trace_out`].
    pub traces: bool,
}

const fn exp(name: &'static str, run: fn(&Opts) -> String, traces: bool) -> Experiment {
    Experiment { name, run, traces }
}

/// Every experiment, in the order `repro all` prints them.
pub const EXPERIMENTS: &[Experiment] = &[
    exp("fig02_scalability", fig02_scalability::run, true),
    exp("pred_accuracy", pred_accuracy::run, false),
    exp("fig03_partition", fig03_partition::run, false),
    exp("fig04_split_dim", fig04_split_dim::run, false),
    exp("sec431_improvement", sec431_improvement::run, false),
    exp("fig08_io_improvement", fig08_io_improvement::run, false),
    exp("tab01_mpiwait", tab01_mpiwait::run, true),
    exp("fig09_siblings", fig09_siblings::run, false),
    exp("fig10_large_nests", fig10_large_nests::run, false),
    exp("tab03_vary_config", tab03_vary_config::run, false),
    exp("tab04_mapping_bgl", tab04_mapping_bgl::run, true),
    exp("tab05_mapping_bgp", tab05_mapping_bgp::run, true),
    exp("fig13_io_scaling", fig13_io_scaling::run, false),
    exp("sec46_alloc_quality", sec46_alloc_quality::run, false),
    exp("fig15_speedup", fig15_speedup::run, false),
    exp("sea_configs", sea_configs::run, false),
    exp("adaptive_steering", adaptive_steering::run, false),
    exp("bgq_preview", bgq_preview::run, false),
    exp("ablation_study", ablation_study::run, false),
    exp("calibrate", calibrate::run, false),
];

/// Number of simulated parent iterations per measurement. Three is enough:
/// the simulator is deterministic and steady from the first iteration.
pub(crate) const MEASURE_ITERS: u32 = 3;

/// The paper's Pacific-region parent domain: 286 × 307 at 24 km (§4.1.2).
pub(crate) fn pacific_parent() -> Domain {
    Domain::parent(286, 307, 24.0)
}

/// Table 2's four siblings on the Pacific parent (the Fig. 9 anchor).
pub(crate) fn table2_nests() -> Vec<NestSpec> {
    vec![
        NestSpec::new(394, 418, 3, (10, 10)),
        NestSpec::new(232, 202, 3, (150, 10)),
        NestSpec::new(232, 256, 3, (10, 160)),
        NestSpec::new(313, 337, 3, (150, 160)),
    ]
}

/// Table 2's processor partitions of the 32 × 32 BG/L rack grid.
pub(crate) const TABLE2_PARTS: [Rect; 4] = [
    Rect::new(0, 0, 18, 24),
    Rect::new(0, 24, 18, 8),
    Rect::new(18, 0, 14, 12),
    Rect::new(18, 12, 14, 20),
];

/// Fig. 10's three large siblings (586×643, 856×919, 925×850) and the
/// doubled parent that holds them.
pub(crate) fn large_nests() -> (Domain, Vec<NestSpec>) {
    let nests = vec![
        NestSpec::new(586, 643, 3, (10, 10)),
        NestSpec::new(856, 919, 3, (250, 10)),
        NestSpec::new(925, 850, 3, (10, 300)),
    ];
    (Domain::parent(572, 614, 24.0), nests)
}

/// Randomly generates a sibling-nest configuration in the paper's ranges
/// (§4.1.2): sizes between `min_dim`² and `max_dim`², aspect ratio 0.5–1.5,
/// refinement ratio 3 (24 km → 8 km), placed without leaving the parent.
pub(crate) fn random_nests(
    rng: &mut StdRng,
    siblings: usize,
    min_points: u64,
    max_points: u64,
    parent: &Domain,
) -> Vec<NestSpec> {
    let mut nests = Vec::with_capacity(siblings);
    for _ in 0..siblings {
        let points = rng.gen_range(min_points..=max_points) as f64;
        let aspect: f64 = rng.gen_range(0.5..=1.5);
        let nx = ((points * aspect).sqrt().round() as u32).max(8);
        let ny = ((points / aspect).sqrt().round() as u32).max(8);
        let fw = nx.div_ceil(3);
        let fh = ny.div_ceil(3);
        let ox = rng.gen_range(0..=(parent.nx.saturating_sub(fw)).max(1));
        let oy = rng.gen_range(0..=(parent.ny.saturating_sub(fh)).max(1));
        nests.push(NestSpec::new(nx, ny, 3, (ox, oy)));
    }
    nests
}

/// Deterministic RNG for an experiment id.
pub(crate) fn rng_for(experiment: &str) -> StdRng {
    let mut seed = [0u8; 32];
    for (i, b) in experiment.bytes().enumerate() {
        seed[i % 32] ^= b;
    }
    StdRng::from_seed(seed)
}

/// One measured mapping variant of a config.
pub(crate) struct Measured {
    pub(crate) report: SimReport,
    /// The recorded totals (MPI_Wait, hops) of the detailed tier.
    pub(crate) obs: ObsSummary,
    /// Per-rank load-imbalance factor (max/mean busy) from the timeline.
    pub(crate) imbalance: f64,
}

/// Plans and simulates every config under every variant of `base` at the
/// detailed recording tier, fanned out across cores; `None` is the default
/// (sequential-strategy, oblivious) baseline, `Some(m)` a concurrent run
/// mapped with `m`. Config-major: `variants.len()` entries per config.
pub(crate) fn measure_mappings(
    base: &Planner,
    parent: &Domain,
    configs: &[Vec<NestSpec>],
    variants: &[Option<MappingKind>],
) -> Vec<Measured> {
    let jobs: Vec<(usize, Option<MappingKind>)> = (0..configs.len())
        .flat_map(|i| variants.iter().map(move |&v| (i, v)))
        .collect();
    run_parallel(&jobs, |&(i, variant)| {
        let planner = match variant {
            None => default_strategy(base.clone()),
            Some(m) => base.clone().mapping(m),
        };
        let (report, rec) = planner
            .plan(parent, &configs[i])
            .unwrap()
            .simulate_observed(MEASURE_ITERS, ObsConfig::detailed())
            .unwrap();
        let imbalance = rec.analysis().overall_imbalance;
        let obs = rec.summary().clone();
        Measured {
            report,
            obs,
            imbalance,
        }
    })
}

/// Appends a row of the two `lead` cells, then `cell` of each mapped
/// variant from [`measure_mappings`].
pub(crate) fn variant_row(
    out: &mut String,
    widths: &[usize],
    lead: [String; 2],
    mapped: &[Measured],
    cell: impl Fn(&Measured) -> String,
) {
    let cells: Vec<String> = lead.into_iter().chain(mapped.iter().map(cell)).collect();
    row(out, &cells, widths);
}

/// Writes the Chrome `trace_event` JSON of `planner`'s run of `nests` to
/// `path` and says where on stderr (a warning on I/O failure: traces are
/// diagnostics, never part of the table).
pub(crate) fn write_trace(planner: &Planner, parent: &Domain, nests: &[NestSpec], path: &Path) {
    let (_, rec) = planner
        .plan(parent, nests)
        .unwrap()
        .simulate_observed(MEASURE_ITERS, ObsConfig::counters())
        .unwrap();
    match rec.write_chrome_trace(path) {
        Ok(()) => eprintln!(
            "wrote Chrome trace to {} (load in chrome://tracing or Perfetto)",
            path.display()
        ),
        Err(e) => eprintln!("warning: failed to write trace {}: {e}", path.display()),
    }
}

/// `planner` switched to the default strategy the paper compares against:
/// nests run one after another on all ranks, mapped topology-obliviously.
pub(crate) fn default_strategy(planner: Planner) -> Planner {
    planner
        .strategy(Strategy::Sequential)
        .mapping(MappingKind::Oblivious)
}

/// Mean of a slice.
pub(crate) fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Maximum of a slice.
pub(crate) fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Minimum of a slice.
pub(crate) fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// An experiment's header lines, which start its output.
pub(crate) fn banner(id: &str, title: &str) -> String {
    let rule = "================================================================";
    format!("{rule}\n{id}: {title}\n{rule}\n")
}

/// Appends one row of a fixed-width table to `out`.
pub(crate) fn row(out: &mut String, cells: &[impl AsRef<str>], widths: &[usize]) {
    let cells: Vec<_> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{:>w$}", c.as_ref()))
        .collect();
    out.push_str(&cells.join("  "));
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_nests_fit_parent() {
        let parent = pacific_parent();
        let mut rng = rng_for("test");
        for _ in 0..20 {
            let nests = random_nests(&mut rng, 4, 178 * 202, 394 * 418, &parent);
            let cfg = nestwx_grid::NestedConfig::new(parent.clone(), nests);
            assert!(cfg.is_ok());
        }
    }

    #[test]
    fn rng_is_deterministic_per_id() {
        let a: u64 = rng_for("x").gen();
        let b: u64 = rng_for("x").gen();
        let c: u64 = rng_for("y").gen();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(max(&[1.0, 5.0, 3.0]), 5.0);
        assert_eq!(min(&[4.0, 5.0, 3.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
