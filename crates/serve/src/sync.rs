//! Synchronization primitives for the serve crate, switchable to the
//! `loom` shim under `--cfg loom` (the tokio pattern: every module imports
//! `Mutex`/`Condvar`/atomics from here, never from `std::sync` directly,
//! so the loom model-checking suite in `tests/loom.rs` exercises the
//! exact production types).
//!
//! This file is also the crate's **poisoning policy** (lint rule NW-S002):
//! the only permitted way to lock a mutex is `lock_unpoisoned`, which
//! continues through poison instead of panicking. All serve-side mutexes
//! guard monitoring or cache state whose invariants hold at every await
//! point of the critical sections (counters bumped atomically, maps
//! mutated in single calls), so a panic elsewhere never leaves them
//! logically corrupt — propagating the poison would only turn one failed
//! request into a dead server.

#[cfg(not(loom))]
pub use std::sync::{Condvar, Mutex, MutexGuard};

#[cfg(loom)]
pub use loom::sync::{Condvar, Mutex, MutexGuard};

#[cfg(not(loom))]
pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

#[cfg(loom)]
pub use loom::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Locks `m`, continuing through poisoning: a thread that panicked while
/// holding the lock does not take the server down with it. See the module
/// docs for why this is sound for every mutex in this crate.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_unpoisoned_survives_a_poisoned_mutex() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert_eq!(*lock_unpoisoned(&m), 7, "value still readable");
        *lock_unpoisoned(&m) = 8;
        assert_eq!(*lock_unpoisoned(&m), 8);
    }
}
