//! Model-checking suite for the serve crate's concurrency invariants,
//! run under `RUSTFLAGS="--cfg loom" cargo test -p nestwx-serve --test loom`.
//!
//! Under `--cfg loom` the crate's `sync` module resolves to the vendored
//! loom shim, so every `Mutex`/`Condvar`/atomic operation inside the
//! production `BoundedQueue` and `PlanCache` becomes a schedule
//! perturbation point. Three invariants from the server's threading model
//! are checked:
//!
//! 1. **No lost jobs**: every push the queue accepts is eventually popped
//!    by exactly one worker — under concurrent producers and consumers.
//! 2. **Sharded LRU**: concurrent get/insert/evict on one shard never
//!    exceeds capacity, never aliases values, and always serves the exact
//!    bytes that were inserted.
//! 3. **Drain-then-exit**: after `close`, workers drain everything already
//!    accepted before seeing `None` — the "no lost responses" half of the
//!    graceful-shutdown contract.
//! 4. **Exactly-once cancellation**: a [`CancelToken`] racing between the
//!    worker and the deadline sweep is claimed by exactly one side.
//! 5. **Race-free refill**: concurrent charges against one rate-limit
//!    bucket never overgrant tokens (no lost-update on refill).
//! 6. **Race-free span ring**: a reader pushing flight-recorder spans
//!    racing two concurrent `trace` drains — every span is observed at
//!    most once and spans-drained + drops-reported equals pushes, so
//!    drops are never lost or double-counted.

#![cfg(loom)]

use loom::sync::atomic::{AtomicU64, Ordering};
use loom::sync::Arc;
use loom::thread;
use nestwx_serve::{
    BoundedQueue, CancelToken, PlanCache, PushError, RateLimiter, RequestSpan, SpanRing,
};

#[test]
fn queue_loses_no_jobs_under_concurrent_push_pop() {
    loom::model(|| {
        let q = Arc::new(BoundedQueue::new(2));
        let accepted = Arc::new(AtomicU64::new(0));

        let producers: Vec<_> = (0..2)
            .map(|p| {
                let q = Arc::clone(&q);
                let accepted = Arc::clone(&accepted);
                thread::spawn(move || {
                    for j in 0..2u64 {
                        match q.push(p * 10 + j) {
                            Ok(()) => {
                                accepted.fetch_add(1, Ordering::SeqCst);
                            }
                            Err(PushError::Full) => {}
                            Err(PushError::Closed) => panic!("closed before producers done"),
                        }
                    }
                })
            })
            .collect();

        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut got = 0u64;
                while q.pop().is_some() {
                    got += 1;
                }
                got
            })
        };

        for h in producers {
            h.join().unwrap();
        }
        q.close();
        let got = consumer.join().unwrap();
        assert_eq!(
            got,
            accepted.load(Ordering::SeqCst),
            "every accepted job popped exactly once"
        );
        assert_eq!(q.depth(), 0, "nothing left behind");
        let s = q.stats();
        assert_eq!(s.enqueued, s.dequeued, "counters balance after drain");
    });
}

#[test]
fn sharded_lru_serves_exact_bytes_and_respects_capacity() {
    loom::model(|| {
        // Capacity 8 → one entry per shard; digest 7 pins a single shard,
        // so the two writers race on insert-with-eviction.
        let cache = Arc::new(PlanCache::new(8));
        let hs: Vec<_> = (0..2)
            .map(|t| {
                let cache = Arc::clone(&cache);
                thread::spawn(move || {
                    let key = format!("k{t}");
                    let val = format!("v{t}");
                    cache.insert(key.clone(), 7, std::sync::Arc::from(val.as_str()));
                    if let Some(hit) = cache.get(&key, 7) {
                        assert_eq!(&*hit, val.as_str(), "hit returns the inserted bytes");
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        // The contended shard holds one survivor; the other entry was
        // evicted, never both present.
        assert!(cache.len() <= 1, "per-shard capacity never exceeded");
        let s = cache.stats();
        assert_eq!(s.evictions, 1, "exactly one insert evicted the other");
    });
}

#[test]
fn close_drains_accepted_jobs_before_workers_exit() {
    loom::model(|| {
        let q = Arc::new(BoundedQueue::new(8));
        for j in 0..3u64 {
            q.push(j).unwrap();
        }
        let done = Arc::new(AtomicU64::new(0));
        // Close races with the workers' drain: both orders must deliver
        // all three jobs.
        let closer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.close())
        };
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                let done = Arc::clone(&done);
                thread::spawn(move || {
                    while q.pop().is_some() {
                        done.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        closer.join().unwrap();
        for h in workers {
            h.join().unwrap();
        }
        assert_eq!(
            done.load(Ordering::SeqCst),
            3,
            "every accepted job answered before exit"
        );
        assert_eq!(q.push(9), Err(PushError::Closed), "closed stays closed");
        assert_eq!(q.pop(), None, "drained queue reports end-of-work");
    });
}

#[test]
fn cancel_token_claim_is_exactly_once() {
    loom::model(|| {
        // The worker/deadline-sweep race: both sides try to claim the same
        // token; exactly one may answer the request.
        let token = CancelToken::new();
        let wins = Arc::new(AtomicU64::new(0));
        let hs: Vec<_> = (0..2)
            .map(|_| {
                let token = token.clone();
                let wins = Arc::clone(&wins);
                thread::spawn(move || {
                    if token.claim() {
                        wins.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(wins.load(Ordering::SeqCst), 1, "exactly one claimant");
        assert!(token.is_claimed(), "claimed token stays claimed");
        assert!(!token.claim(), "late claim after the race always loses");
    });
}

#[test]
fn rate_limiter_refill_is_race_free() {
    loom::model(|| {
        // Two readers charge the same bucket at the same (fixed) clock
        // stamps. Burst 1 token, rate 1 token/s: at most one extra charge
        // can be covered by the 0.5 s refill, never two — a lost-update
        // race on the refill arithmetic would overgrant.
        let rl = Arc::new(RateLimiter::new(1, 1, 4));
        assert!(rl.try_charge("c", 1, 0), "burst covers the first charge");
        let hs: Vec<_> = (0..2)
            .map(|_| {
                let rl = Arc::clone(&rl);
                thread::spawn(move || u64::from(rl.try_charge("c", 1, 500_000)))
            })
            .collect();
        let granted: u64 = hs.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(granted, 0, "half a token never covers a whole charge");
        assert_eq!(rl.shed_total(), 2, "both racing charges counted as shed");
        // A full second of refill serves exactly one of two racers.
        let hs: Vec<_> = (0..2)
            .map(|_| {
                let rl = Arc::clone(&rl);
                thread::spawn(move || u64::from(rl.try_charge("c", 1, 1_500_000)))
            })
            .collect();
        let granted: u64 = hs.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(
            granted, 1,
            "refill grants exactly one token, not one per racer"
        );
    });
}

#[test]
fn span_ring_drains_race_free_without_double_counted_drops() {
    const PUSHES: u64 = 3;
    loom::model(|| {
        // Capacity below the push count so some schedules are forced to
        // overwrite (drop) — the interesting interleavings.
        let ring = Arc::new(SpanRing::new(2));
        let pusher = {
            let ring = Arc::clone(&ring);
            thread::spawn(move || {
                for ts in 0..PUSHES {
                    ring.push(RequestSpan::probe(ts));
                }
            })
        };
        let drainers: Vec<_> = (0..2)
            .map(|_| {
                let ring = Arc::clone(&ring);
                thread::spawn(move || ring.drain())
            })
            .collect();
        pusher.join().unwrap();
        let mut results: Vec<(Vec<RequestSpan>, u64)> =
            drainers.into_iter().map(|d| d.join().unwrap()).collect();
        // Final drain collects whatever the racers left behind.
        results.push(ring.drain());

        let mut seen = std::collections::BTreeSet::new();
        let mut drained = 0u64;
        let mut drops = 0u64;
        for (spans, dropped) in &results {
            for s in spans {
                assert!(seen.insert(s.ts_us), "span {} drained twice", s.ts_us);
            }
            drained += spans.len() as u64;
            drops += dropped;
        }
        assert_eq!(
            drained + drops,
            PUSHES,
            "every push is either drained exactly once or counted dropped exactly once"
        );
    });
}
