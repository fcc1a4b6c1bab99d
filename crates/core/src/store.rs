//! Per-machine predictor store: fit once, keep, reuse.
//!
//! §3.1 profiles the 13 basis domains once per machine and answers every
//! later allocation query by interpolation. [`PredictorStore`] is that
//! lifetime: the first [`get`](PredictorStore::get) for a machine runs the
//! profiling simulations and fits the predictor, every later one hands out
//! the same `Arc`. Entries are keyed by the [`Machine`] *value* — two
//! machines that differ in any model constant never share a predictor —
//! and the store is capacity-bounded with least-recently-used eviction, so
//! a churn of distinct machines costs refits, never memory.
//!
//! A lookup, the fit on a miss, the insert and the eviction are one
//! critical section: concurrent callers for one machine share one fit and
//! the capacity bound holds at every instant. Fits are deterministic
//! ([`PROFILE_SEED`]), so an evicted-and-refitted predictor is bitwise the
//! one it replaces.

use crate::profile::{profile_basis, PROFILE_SEED};
use nestwx_netsim::Machine;
use nestwx_predict::{ExecTimePredictor, PredictError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Capacity of the process-wide store: the number of distinct machines a
/// sweep, a CLI run or an experiment run keeps fitted at once.
const SHARED_CAPACITY: usize = 64;

static SHARED: PredictorStore = PredictorStore::new(SHARED_CAPACITY);

struct Entry {
    machine: Machine,
    predictor: Arc<ExecTimePredictor>,
    last_used: u64,
}

struct Inner {
    entries: Vec<Entry>,
    /// Monotonic touch counter behind `last_used` (not wall time, so the
    /// eviction victim is deterministic).
    clock: u64,
    fits: u64,
    hits: u64,
    evictions: u64,
}

/// Locks the store, continuing through poisoning (lint rule NW-S002's policy,
/// as `nestwx_serve::sync::lock_unpoisoned`): in `get` the fit — the one step
/// that can panic — runs before any entry changes, and every update after
/// it leaves `Inner` valid at each step, so a poisoned lock still guards
/// good data.
fn lock_unpoisoned(m: &Mutex<Inner>) -> MutexGuard<'_, Inner> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A capacity-bounded LRU of fitted predictors, one per [`Machine`] value.
pub struct PredictorStore {
    inner: Mutex<Inner>,
    cap: usize,
}

impl PredictorStore {
    /// An empty store holding at most `cap` predictors (`cap` is clamped to
    /// at least 1 — a zero-capacity store would evict its own insert).
    pub const fn new(cap: usize) -> PredictorStore {
        PredictorStore {
            inner: Mutex::new(Inner {
                entries: Vec::new(),
                clock: 0,
                fits: 0,
                hits: 0,
                evictions: 0,
            }),
            cap: if cap == 0 { 1 } else { cap },
        }
    }

    /// The process-wide store [`Planner::plan`](crate::Planner::plan) asks
    /// when no predictor was supplied.
    pub(crate) fn shared() -> &'static PredictorStore {
        &SHARED
    }

    /// The predictor fitted for `machine`, fitting it first if the store
    /// does not hold one; at capacity the least recently used entry makes
    /// room.
    pub fn get(&self, machine: &Machine) -> Result<Arc<ExecTimePredictor>, PredictError> {
        let mut guard = lock_unpoisoned(&self.inner);
        let inner = &mut *guard;
        inner.clock += 1;
        let now = inner.clock;
        if let Some(entry) = inner.entries.iter_mut().find(|e| e.machine == *machine) {
            entry.last_used = now;
            inner.hits += 1;
            return Ok(Arc::clone(&entry.predictor));
        }
        let basis = profile_basis(machine, PROFILE_SEED);
        let predictor = Arc::new(ExecTimePredictor::fit(&basis)?);
        inner.fits += 1;
        if inner.entries.len() >= self.cap {
            let oldest = inner
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(at, _)| at);
            if let Some(at) = oldest {
                inner.entries.swap_remove(at);
                inner.evictions += 1;
            }
        }
        inner.entries.push(Entry {
            machine: machine.clone(),
            predictor: Arc::clone(&predictor),
            last_used: now,
        });
        Ok(predictor)
    }

    /// Predictors currently held.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.inner).entries.len()
    }

    /// True when the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fits performed (lookups that missed).
    pub fn fits(&self) -> u64 {
        lock_unpoisoned(&self.inner).fits
    }

    /// Lookups answered from the store.
    pub fn hits(&self) -> u64 {
        lock_unpoisoned(&self.inner).hits
    }

    /// Entries evicted by the capacity bound.
    pub fn evictions(&self) -> u64 {
        lock_unpoisoned(&self.inner).evictions
    }
}
