//! Disk-persisted plan/result cache, shared by `nestwx sweep` and the
//! serving daemon.
//!
//! On-disk layout: one file per entry under the configured cache
//! directory, named by the FNV-1a 64 digest of the full cache key
//! (`<digest-hex>.plan`). The file's first line is the exact key — reads
//! verify it, so a digest collision or a foreign file degrades to a miss,
//! never a wrong answer — and everything after the first newline is the
//! cached value verbatim (rendered result JSON is single-line, so the
//! round trip is byte-exact).
//!
//! Writes are atomic: the entry is written to a `.tmp-…` sibling and
//! `rename`d into place, so a concurrent reader (another sweep job, a
//! serve worker) sees either the old entry or the complete new one, never
//! a torn file. Reads are corruption-tolerant: any I/O error, missing
//! newline, or key mismatch counts as a miss (plus a `corrupt` counter
//! when the file existed but did not verify) and the engine recomputes.
//!
//! Versioning rides on the key itself — every key bakes in
//! [`crate::keys::PLAN_FORMAT_VERSION`], so bumping the format orphans
//! old files (digest no longer looked up; even a digest collision fails
//! the key check) instead of serving stale-format bytes. No cleanup pass
//! is required for correctness.
//!
//! The cache directory always flows in through configuration
//! ([`crate::ServeConfig::cache_dir`], `nestwx sweep --cache-dir`) —
//! lint rule NW-D006 keeps ambient paths (`std::env::temp_dir`,
//! `current_dir`) off the determinism paths so two runs given the same
//! config read and write the same entries.

use nestwx_core::fnv1a64;
use serde::Serialize;
use std::fs;
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A content-addressed cache of rendered result bytes on disk.
#[derive(Debug)]
pub struct DiskCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    corrupt: AtomicU64,
    /// Per-process tempfile sequence (uniqueness within the process; the
    /// pid in the name handles concurrent processes).
    tmp_seq: AtomicU64,
}

/// Point-in-time disk-cache counters (all zero when no disk cache is
/// configured).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct DiskStats {
    /// Lookups answered from disk.
    pub hits: u64,
    /// Lookups that found no usable entry.
    pub misses: u64,
    /// Entries written (tempfile + rename completed).
    pub writes: u64,
    /// Files present but unverifiable (torn, foreign, or key-mismatched) —
    /// counted within `misses` as well.
    pub corrupt: u64,
}

impl DiskCache {
    /// Opens (creating if needed) the cache directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<DiskCache> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(DiskCache {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            tmp_seq: AtomicU64::new(0),
        })
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.dir
            .join(format!("{:016x}.plan", fnv1a64(key.as_bytes())))
    }

    /// Looks `key` up, verifying the stored key byte-for-byte. Every
    /// failure mode — absent file, unreadable file, torn entry, digest
    /// collision — is a miss.
    pub fn get(&self, key: &str) -> Option<Arc<str>> {
        let text = match fs::read_to_string(self.entry_path(key)) {
            Ok(text) => text,
            Err(e) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                if e.kind() != io::ErrorKind::NotFound {
                    self.corrupt.fetch_add(1, Ordering::Relaxed);
                }
                return None;
            }
        };
        match text.split_once('\n') {
            Some((stored_key, value)) if stored_key == key => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::from(value))
            }
            _ => {
                // Torn write survivor, foreign file, or key collision.
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Persists `key` → `value` atomically (tempfile + rename). `value`
    /// must not contain a newline in its first position-significant sense:
    /// everything after the entry's first newline is the value, so values
    /// themselves round-trip byte-exactly even if they contain newlines.
    pub fn put(&self, key: &str, value: &str) -> io::Result<()> {
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        let result = (|| {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(key.as_bytes())?;
            f.write_all(b"\n")?;
            f.write_all(value.as_bytes())?;
            f.sync_data()?;
            fs::rename(&tmp, self.entry_path(key))
        })();
        if result.is_err() {
            // Never leave a temp file behind on a failed write.
            let _ = fs::remove_file(&tmp);
        } else {
            self.writes.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// Current counters.
    pub fn stats(&self) -> DiskStats {
        DiskStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use nestwx_core::TempDir;

    #[test]
    fn round_trips_byte_exactly() {
        let dir = TempDir::new("nestwx-disk-roundtrip").unwrap();
        let cache = DiskCache::open(dir.path()).unwrap();
        let key = "fmt1|nestwx-scenario-v1:{\"x\":1}";
        let value = "{\"machine\":\"bgl\",\"ranks\":64}";
        assert!(cache.get(key).is_none());
        cache.put(key, value).unwrap();
        assert_eq!(cache.get(key).as_deref(), Some(value));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.writes, s.corrupt), (1, 1, 1, 0));
    }

    #[test]
    fn values_with_newlines_round_trip() {
        let dir = TempDir::new("nestwx-disk-newline").unwrap();
        let cache = DiskCache::open(dir.path()).unwrap();
        cache.put("k", "line1\nline2\n").unwrap();
        assert_eq!(cache.get("k").as_deref(), Some("line1\nline2\n"));
    }

    #[test]
    fn corrupt_entries_miss_cleanly() {
        let dir = TempDir::new("nestwx-disk-corrupt").unwrap();
        let cache = DiskCache::open(dir.path()).unwrap();
        cache.put("key-a", "value-a").unwrap();
        // Truncate the entry below its key line: a torn write survivor.
        let path = cache.entry_path("key-a");
        fs::write(&path, "key-").unwrap();
        assert!(cache.get("key-a").is_none());
        assert_eq!(cache.stats().corrupt, 1);
        // A rewrite heals it.
        cache.put("key-a", "value-a").unwrap();
        assert_eq!(cache.get("key-a").as_deref(), Some("value-a"));
    }

    #[test]
    fn key_mismatch_is_a_miss_not_a_wrong_answer() {
        let dir = TempDir::new("nestwx-disk-mismatch").unwrap();
        let cache = DiskCache::open(dir.path()).unwrap();
        cache.put("key-a", "value-a").unwrap();
        // Simulate a digest collision: drop a file with another key's
        // content where "key-b" would be addressed.
        fs::write(cache.entry_path("key-b"), "key-a\nvalue-a").unwrap();
        assert!(cache.get("key-b").is_none());
        assert_eq!(cache.stats().corrupt, 1);
    }

    #[test]
    fn failed_writes_leave_no_temp_files() {
        let dir = TempDir::new("nestwx-disk-tmp").unwrap();
        let cache = DiskCache::open(dir.path()).unwrap();
        cache.put("k1", "v1").unwrap();
        cache.put("k2", "v2").unwrap();
        let leftovers: Vec<_> = fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
    }
}
