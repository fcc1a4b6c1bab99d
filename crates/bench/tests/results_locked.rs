//! The committed `results/*.txt` are what the registered experiments print.
//!
//! Every experiment is deterministic (no clock, no thread-count
//! dependence), so its table at the default options must equal the
//! committed file byte for byte. A change that moves a number has to
//! regenerate the file (EXPERIMENTS.md §Reproducing) and re-check the
//! verdicts EXPERIMENTS.md draws from it.

use nestwx_bench::{Opts, EXPERIMENTS};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

fn assert_locked(name: &str) {
    let experiment = EXPERIMENTS
        .iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("{name} is not in the registry"));
    let printed = (experiment.run)(&Opts::default());
    let path = results_dir().join(format!("{name}.txt"));
    let stored = std::fs::read_to_string(&path).expect("committed results file");
    if printed != stored {
        let line = printed
            .lines()
            .zip(stored.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| printed.lines().count().min(stored.lines().count()));
        panic!(
            "{name} no longer prints results/{name}.txt (first difference at line {}):\n  printed:   {:?}\n  committed: {:?}",
            line + 1,
            printed.lines().nth(line),
            stored.lines().nth(line),
        );
    }
}

macro_rules! locked {
    ($($name:ident)*) => {
        const LOCKED: &[&str] = &[$(stringify!($name)),*];
        $(
            #[test]
            fn $name() {
                assert_locked(stringify!($name));
            }
        )*
    };
}

locked! {
    fig02_scalability pred_accuracy fig03_partition fig04_split_dim
    sec431_improvement fig08_io_improvement tab01_mpiwait fig09_siblings
    fig10_large_nests tab03_vary_config tab04_mapping_bgl tab05_mapping_bgp
    fig13_io_scaling sec46_alloc_quality fig15_speedup sea_configs
    adaptive_steering bgq_preview ablation_study calibrate
}

/// A table without an experiment, an experiment without a table, or an
/// experiment this file does not lock all fail here.
#[test]
fn registry_matches_committed_tables() {
    let registered: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    let tables: BTreeSet<String> = std::fs::read_dir(results_dir())
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    let names: BTreeSet<String> = registered.iter().map(|n| n.to_string()).collect();
    assert_eq!(names.len(), registered.len(), "duplicate registry name");
    assert_eq!(names, tables, "registry names vs results/*.txt stems");
    assert_eq!(registered, LOCKED, "locked! list vs registry order");
}
