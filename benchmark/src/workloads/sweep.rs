//! `sweep_disk` — a 288-scenario sweep through the disk plan cache that
//! serve and sweep share, writes beside reads. Set-up runs the cold pass
//! into a fresh empty directory (plan + simulate + two atomic entry
//! writes per scenario) and is timed as `setup_s`; the timed batches are
//! warm passes over that directory (reads only). A gain for the reads
//! that costs the writes shows in `setup_s`, and the other way round in
//! `ops_per_s`; it is also the only workload through `run_parallel_with`.
//!
//! Why the cold pass is set-up and not the throughput. Half of a cold
//! pass is `sync_data` (passes alternated in one process on the same
//! spec: 1 075–1 530 scenarios/s with no cache directory, 530–640 with
//! one), and what a sync costs on this shared disk follows the host, not
//! the code: 0.5–0.6 ms of wall per scenario in a quiet hour, 0.8 ms in a
//! busy one. As `ops_per_s` the cold rate spread 15–18 % between runs of
//! unchanged code (the warm rate: 2–3 %), and simulating 50 iterations
//! per scenario instead of 3 still left the syncs a fifth of the pass.
//! `setup_s` has the loosest bound and is the median of `SETUP_REPS` cold
//! passes; the traced run reports the cold rate on its own as
//! `sweep.cold_plans_per_s`.

use super::{Args, Batch, Checks, Layers, Traced, Workload};
use crate::gen::Rng;
use crate::stats;
use crate::sys::{self, ScratchDir};
use crate::trace::{SpanId, Tracer};
use nestwx_serve::DiskCache;
use nestwx_sweep::{run_sweep, SweepOptions, SweepReport, SweepSpec};
use std::hint::black_box;
use std::time::{Duration, Instant};

const JOBS: usize = 2;
/// Warm passes per batch (one latency sample each).
const WARM_PASSES: usize = 50;
/// Nest sizes the spec's generator steps through.
const SIZES: usize = 3;

pub struct SweepDisk {
    spec_text: String,
    spec: SweepSpec,
    warm_passes: usize,
    /// The cache directory the cold pass of set-up filled.
    dir: ScratchDir,
    cold: SweepReport,
    cold_secs: f64,
    last_warm: Option<SweepReport>,
}

/// 4 machines × 6 generated nest sets (2 counts × 3 sizes over 3
/// positions) × 2 strategies × 2 allocs × 3 mappings = 288 scenarios.
/// The seed moves the nest sizes and positions; the shape of the space
/// is fixed.
fn spec_text(seed: u64, sizes: usize) -> String {
    let mut rng = Rng::stream(seed, "sweep_disk");
    let (start, step) = (rng.range(96, 119), rng.range(12, 17));
    // Largest nest: 119 + 2·17 = 153 points → a 51-cell footprint.
    let mut pos = || format!("[{}, {}]", rng.range(5, 210), rng.range(5, 230));
    let positions = [pos(), pos(), pos()].join(", ");
    format!(
        r#"{{
  "machines": ["bgl:64", "bgl:128", "bgl:256", "bgl:512"],
  "parents": ["286x307@24"],
  "nests": {{
    "counts": [2, 3],
    "size": {{"start": {start}, "step": {step}, "n": {sizes}}},
    "refine": 3,
    "positions": [{positions}]
  }},
  "strategies": ["sequential", "concurrent"],
  "allocs": ["huffman", "naive"],
  "mappings": ["partition", "multilevel", "txyz"],
  "iterations": 3
}}"#
    )
}

fn options(dir: &ScratchDir) -> SweepOptions {
    SweepOptions {
        cache_dir: Some(dir.path().to_path_buf()),
        iterations: None,
        jobs: Some(JOBS),
    }
}

/// One cold pass into a fresh empty directory, and the seconds it took.
fn cold_pass(spec: &SweepSpec) -> Result<(ScratchDir, SweepReport, f64), String> {
    let dir = ScratchDir::new("sweep").map_err(|e| format!("scratch dir: {e}"))?;
    let t0 = Instant::now();
    let cold = run_sweep(spec, &options(&dir)).map_err(|e| format!("cold pass: {e}"))?;
    let secs = t0.elapsed().as_secs_f64();
    Ok((dir, cold, secs))
}

impl Workload for SweepDisk {
    fn setup(args: &Args) -> Result<Self, String> {
        let spec_text = spec_text(args.seed, args.scaled(SIZES, 1));
        let spec = SweepSpec::parse(&spec_text).map_err(|e| format!("spec: {e}"))?;
        let (dir, cold, cold_secs) = cold_pass(&spec)?;
        Ok(SweepDisk {
            spec_text,
            spec,
            warm_passes: args.scaled(WARM_PASSES, 3),
            dir,
            cold,
            cold_secs,
            last_warm: None,
        })
    }

    fn batch(&mut self, tr: &mut Tracer, parent: SpanId, samples: &mut Vec<f64>) -> Batch {
        let mut b = Batch::default();
        let opts = options(&self.dir);
        let unique = self.cold.unique as u64;
        for pass in 0..self.warm_passes {
            let span = tr.begin("sweep.run_warm", pass as u64, parent);
            let t0 = Instant::now();
            let warm = run_sweep(&self.spec, &opts);
            let dt = t0.elapsed().as_secs_f64();
            tr.end(span);
            samples.push(dt * 1e6 / unique.max(1) as f64);
            b.ops += unique;
            b.secs += dt;
            match warm {
                Ok(warm)
                    if warm.disk_hits == warm.unique
                        && warm.errors == 0
                        && warm.plans_digest == self.cold.plans_digest =>
                {
                    self.last_warm = Some(warm);
                }
                Ok(warm) => {
                    eprintln!(
                        "sweep_disk: warm pass: {} hits of {}, {} errors, digest {} vs cold {}",
                        warm.disk_hits,
                        warm.unique,
                        warm.errors,
                        warm.plans_digest,
                        self.cold.plans_digest
                    );
                    b.failed += unique;
                }
                Err(e) => {
                    eprintln!("sweep_disk: warm pass: {e}");
                    b.failed += unique;
                }
            }
        }
        b
    }

    fn probe(&mut self, layers: &mut Layers, _traced: &Traced, _budget: Duration) {
        layers.set(
            "sweep.parse_us",
            stats::median_time_us(5, || drop(black_box(SweepSpec::parse(&self.spec_text)))),
        );
        layers.set(
            "sweep.expand_us",
            stats::median_time_us(5, || drop(black_box(self.spec.expand()))),
        );
        let cold = &self.cold;
        layers.set("sweep.computed", cold.computed as f64);
        layers.set(
            "sweep.cold_plans_per_s",
            cold.unique as f64 / self.cold_secs.max(1e-9),
        );
        layers.set(
            "sweep.disk_entry_bytes",
            sys::dir_bytes(self.dir.path()) as f64 / cold.unique.max(1) as f64,
        );
        if let Some(warm) = &self.last_warm {
            layers.set("sweep.errors", (cold.errors + warm.errors) as f64);
            layers.set("sweep.disk_hits", warm.disk_hits as f64);
        }

        // The disk cache on its own: plan-sized entries, put then get.
        let Ok(dir) = ScratchDir::new("disk-probe") else {
            return;
        };
        let Ok(cache) = DiskCache::open(dir.path()) else {
            return;
        };
        let value = "v".repeat(600);
        let keys: Vec<String> = (0..200)
            .map(|i| format!("fmt1|probe-{i:04}-{}", "k".repeat(500)))
            .collect();
        let t0 = Instant::now();
        for k in &keys {
            cache.put(k, &value).ok();
        }
        layers.set(
            "serve.disk_put_us",
            t0.elapsed().as_secs_f64() * 1e6 / keys.len() as f64,
        );
        let t0 = Instant::now();
        for k in &keys {
            black_box(cache.get(k));
        }
        layers.set(
            "serve.disk_get_us",
            t0.elapsed().as_secs_f64() * 1e6 / keys.len() as f64,
        );
    }

    fn finish(self, checks: &mut Checks) {
        let cold = &self.cold;
        checks.check(cold.errors == 0 && cold.computed == cold.unique, || {
            format!(
                "cold pass computed {} of {} scenarios with {} errors",
                cold.computed, cold.unique, cold.errors
            )
        });
        // A second cold pass, into another empty directory, must plan the
        // same plans.
        let again = cold_pass(&self.spec).map(|(_dir, again, _)| again.plans_digest);
        checks.check(again.as_ref() == Ok(&cold.plans_digest), || {
            format!(
                "cold plans_digest differs between passes: {} then {again:?}",
                cold.plans_digest
            )
        });
    }

    fn config(&self) -> Vec<(&'static str, String)> {
        vec![
            ("scenarios", self.spec.product_size().to_string()),
            ("jobs", JOBS.to_string()),
            ("cold_passes", "1 per set-up (fresh empty directory)".into()),
            ("warm_passes_per_batch", self.warm_passes.to_string()),
            ("iterations", self.spec.iterations.to_string()),
        ]
    }
}
