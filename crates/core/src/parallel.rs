//! Work-stealing parallel map shared by the experiment harness and the
//! sweep engine.
//!
//! Each unit of work (an experiment point, a swept scenario) is an
//! independent computation whose run time varies widely with rank count
//! and nest geometry, so static chunking would straggle. The driver
//! instead hands out indices through an atomic counter — classic
//! work-stealing without queues — and collects `(index, result)` pairs
//! over an mpsc channel so the output vector preserves input order no
//! matter which worker finished first. Determinism contract: for a pure
//! `f`, the returned vector is identical for every job count, including 1.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use crate::env::env_usize;

/// Worker count for [`run_parallel`]: the `NESTWX_JOBS` environment
/// variable when set to a positive integer, else the machine's available
/// parallelism (1 if that cannot be determined).
pub(crate) fn parallel_jobs() -> usize {
    let fallback = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    env_usize("NESTWX_JOBS", fallback)
}

/// Maps `f` over `items` on `parallel_jobs` scoped threads, preserving
/// input order in the returned vector. See [`run_parallel_with`].
pub fn run_parallel<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    run_parallel_with(parallel_jobs(), items, f)
}

/// Maps `f` over `items` on at most `jobs` scoped threads, preserving
/// input order in the returned vector.
///
/// Work-stealing via an atomic index: each worker claims the next unclaimed
/// item until none remain. Falls back to a plain serial map when only one
/// job is requested or there is at most one item.
pub fn run_parallel_with<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len());
    if jobs <= 1 {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let (next, f) = (&next, &f);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
                if tx.send((i, r)).is_err() {
                    break;
                }
            });
        }
    });
    drop(tx);
    let mut out: Vec<Option<R>> = items.iter().map(|_| None).collect();
    for (i, r) in rx {
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|slot| slot.expect("worker filled every claimed slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_parallel_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = run_parallel(&items, |&x| x * x);
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
        // Degenerate inputs.
        assert_eq!(run_parallel(&[] as &[u64], |&x| x), Vec::<u64>::new());
        assert_eq!(run_parallel(&[7u64], |&x| x + 1), vec![8]);
    }

    #[test]
    fn explicit_job_counts_agree() {
        let items: Vec<u64> = (0..257).collect();
        let serial = run_parallel_with(1, &items, |&x| x.wrapping_mul(2654435761));
        for jobs in [2, 3, 8, 64, 1024] {
            let par = run_parallel_with(jobs, &items, |&x| x.wrapping_mul(2654435761));
            assert_eq!(par, serial, "jobs={jobs} diverged from serial order");
        }
    }

    #[test]
    fn zero_jobs_is_clamped_to_serial() {
        let items: Vec<u32> = (0..5).collect();
        assert_eq!(
            run_parallel_with(0, &items, |&x| x + 1),
            vec![1, 2, 3, 4, 5]
        );
    }
}
