//! What the harness reads from the operating system: process CPU time and
//! peak RSS from `/proc`, the core count, the commit, and a scratch
//! directory inside the benchmark's own `out/`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Removes every `NESTWX_*` variable so ambient knobs cannot move a
/// number; every config the harness uses is set field by field.
pub fn scrub_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("NESTWX_"))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `git rev-parse HEAD`, or `"unknown"` outside a git checkout.
pub fn git_head() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Clock ticks per second of `/proc/self/stat` times. Linux fixes
/// `USER_HZ` at 100 on every architecture this repo builds for.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process (all threads) has used.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, i.e. 11 and 12 after the name.
    let Some((_, rest)) = stat.rsplit_once(") ") else {
        return 0.0;
    };
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick() + tick()) / USER_HZ
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where the benchmark writes: `benchmark/out/` under the current
/// directory (the checkout root).
pub fn out_dir() -> PathBuf {
    PathBuf::from("benchmark").join("out")
}

/// A fresh directory under `out/`, removed on drop. The core crate's
/// `TempDir` lives in the system temp dir, which is outside the checkout
/// the benchmark must stay inside.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    pub fn new(prefix: &str) -> std::io::Result<ScratchDir> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = out_dir().join(format!(
            "tmp-{prefix}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
