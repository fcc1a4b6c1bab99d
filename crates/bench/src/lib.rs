//! Shared utilities for the experiment harness: workload generation,
//! statistics, and paper-style table printing.
//!
//! One binary per table/figure of the paper lives in `src/bin/`; each
//! prints the rows/series the paper reports (see DESIGN.md §5 for the
//! index and EXPERIMENTS.md for recorded paper-vs-measured values).

use nestwx_grid::NestSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

/// Number of simulated parent iterations per measurement. Three is enough:
/// the simulator is deterministic and steady from the first iteration.
pub const MEASURE_ITERS: u32 = 3;

/// The paper's Pacific-region parent domain: 286 × 307 at 24 km (§4.1.2).
pub fn pacific_parent() -> nestwx_grid::Domain {
    nestwx_grid::Domain::parent(286, 307, 24.0)
}

/// Randomly generates a sibling-nest configuration in the paper's ranges
/// (§4.1.2): sizes between `min_dim`² and `max_dim`², aspect ratio 0.5–1.5,
/// refinement ratio 3 (24 km → 8 km), placed without leaving the parent.
pub fn random_nests(
    rng: &mut StdRng,
    siblings: usize,
    min_points: u64,
    max_points: u64,
    parent: &nestwx_grid::Domain,
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
pub fn rng_for(experiment: &str) -> StdRng {
    let mut seed = [0u8; 32];
    for (i, b) in experiment.bytes().enumerate() {
        seed[i % 32] ^= b;
    }
    StdRng::from_seed(seed)
}

// The env knob parser moved to `nestwx_core::env` so the CLI and the serve
// daemon share it; re-exported here to keep the experiment binaries'
// imports unchanged.
pub use nestwx_core::env::env_usize;

// The work-stealing driver moved to `nestwx_core::parallel` so the sweep
// engine can share it; re-exported here to keep the experiment binaries'
// imports unchanged.
pub use nestwx_core::parallel::{parallel_jobs, run_parallel, run_parallel_with};

/// Chrome-trace output destination for an experiment binary: the
/// `--trace-out <path>` (or `--trace-out=<path>`) CLI argument when
/// present — the flag always overrides `NESTWX_TRACE`, and if given more
/// than once the last occurrence wins — else the `NESTWX_TRACE`
/// environment variable when non-empty. `None` disables trace export.
pub fn trace_out() -> Option<PathBuf> {
    trace_out_from(std::env::args().skip(1), std::env::var_os("NESTWX_TRACE"))
}

/// [`trace_out`] over explicit inputs (testable without touching the
/// process environment).
pub fn trace_out_from(
    args: impl Iterator<Item = String>,
    env: Option<std::ffi::OsString>,
) -> Option<PathBuf> {
    // Scan every argument rather than returning at the first match: the
    // last `--trace-out` wins, and any occurrence of the flag (even a
    // dangling one) means the environment must not resurrect tracing.
    let mut from_flag: Option<Option<PathBuf>> = None;
    let mut args = args;
    while let Some(a) = args.next() {
        if a == "--trace-out" {
            match args.next() {
                Some(p) => from_flag = Some(Some(p.into())),
                None => {
                    eprintln!("warning: --trace-out requires a path; tracing disabled");
                    from_flag = Some(None);
                }
            }
        } else if let Some(p) = a.strip_prefix("--trace-out=") {
            from_flag = Some(Some(p.into()));
        }
    }
    match from_flag {
        Some(resolved) => resolved,
        None => env.filter(|v| !v.is_empty()).map(PathBuf::from),
    }
}

/// Writes `rec`'s Chrome `trace_event` JSON to `path`, printing where it
/// went (or a warning on I/O failure — traces are best-effort diagnostics,
/// not experiment results).
pub fn write_trace(rec: &nestwx_netsim::Recorder, path: &Path) {
    match rec.write_chrome_trace(path) {
        Ok(()) => println!(
            "\nwrote Chrome trace to {} (load in chrome://tracing or Perfetto)",
            path.display()
        ),
        Err(e) => eprintln!("warning: failed to write trace {}: {e}", path.display()),
    }
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Maximum of a slice.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Prints a header line for an experiment binary.
pub fn banner(id: &str, title: &str) {
    println!("================================================================");
    println!("{id}: {title}");
    println!("================================================================");
}

/// Formats a row of a fixed-width table.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
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
    fn trace_out_resolution_order() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        // CLI flag wins, both spellings.
        let got = trace_out_from(args(&["--trace-out", "a.json"]).into_iter(), None);
        assert_eq!(got, Some(PathBuf::from("a.json")));
        let got = trace_out_from(
            args(&["--trace-out=b.json"]).into_iter(),
            Some("env.json".into()),
        );
        assert_eq!(got, Some(PathBuf::from("b.json")));
        // Env fallback; empty env disables.
        let got = trace_out_from(args(&[]).into_iter(), Some("env.json".into()));
        assert_eq!(got, Some(PathBuf::from("env.json")));
        assert_eq!(trace_out_from(args(&[]).into_iter(), Some("".into())), None);
        // Repeated flag: last occurrence wins, still overriding the env.
        let got = trace_out_from(
            args(&["--trace-out", "a.json", "--trace-out=b.json"]).into_iter(),
            Some("env.json".into()),
        );
        assert_eq!(got, Some(PathBuf::from("b.json")));
        // Dangling flag disables rather than panicking — and the env must
        // not resurrect tracing, because the flag always wins.
        assert_eq!(
            trace_out_from(args(&["--trace-out"]).into_iter(), None),
            None
        );
        assert_eq!(
            trace_out_from(args(&["--trace-out"]).into_iter(), Some("env.json".into())),
            None
        );
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(max(&[1.0, 5.0, 3.0]), 5.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
