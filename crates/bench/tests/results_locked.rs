//! The committed `results/*.txt` are what the experiment binaries print.
//!
//! Every binary is deterministic (no clock, no thread-count dependence), so
//! its stdout must equal the committed file byte for byte. A change that
//! moves a number has to regenerate the file (EXPERIMENTS.md §Reproducing)
//! and re-check the verdicts EXPERIMENTS.md draws from it.

use std::path::Path;
use std::process::Command;

fn assert_locked(name: &str, exe: &str) {
    let mut cmd = Command::new(exe);
    // The tables are defined at the default knobs (NESTWX_CONFIGS etc.).
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("NESTWX_") {
            cmd.env_remove(key);
        }
    }
    let out = cmd.output().expect("experiment binary runs");
    assert!(out.status.success(), "{name} exited with {}", out.status);
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(format!("{name}.txt"));
    let committed = std::fs::read(&path).expect("committed results file");
    if out.stdout != committed {
        let printed = String::from_utf8_lossy(&out.stdout);
        let stored = String::from_utf8_lossy(&committed);
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
    ($($name:ident)*) => {$(
        #[test]
        fn $name() {
            assert_locked(
                stringify!($name),
                env!(concat!("CARGO_BIN_EXE_", stringify!($name))),
            );
        }
    )*};
}

locked! {
    fig02_scalability pred_accuracy fig03_partition fig04_split_dim
    sec431_improvement fig08_io_improvement tab01_mpiwait fig09_siblings
    fig10_large_nests tab03_vary_config tab04_mapping_bgl tab05_mapping_bgp
    fig13_io_scaling sec46_alloc_quality fig15_speedup sea_configs
    adaptive_steering bgq_preview ablation_study calibrate
}
