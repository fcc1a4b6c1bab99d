//! Production limit primitives: request cancellation tokens and the
//! per-client token-bucket rate limiter.
//!
//! **Cancellation.** Every queued job carries a [`CancelToken`]. Exactly
//! one party — the worker that popped the job, or the event loop's
//! deadline sweep — may *claim* the token (an atomic swap), and only the
//! claimant answers the request. That compare-and-swap is the whole
//! exactly-once protocol: a job is never lost (the loser of the race knows
//! the winner will answer) and never double-executed (a worker whose claim
//! fails skips the compute entirely). Model-checked in `tests/loom.rs`.
//!
//! **Rate limiting.** One token bucket per `client` identity string, with
//! weighted costs per endpoint (a `compare` simulation spends more budget
//! than a cached `plan` hit — weighted fairness, not per-message
//! counting). Buckets hold *micro-tokens* (1 token = `MICRO`), refilled
//! by integer arithmetic from a caller-supplied microsecond clock
//! ([`nestwx_obs::clock::micros_since`] in production, fixed values in the
//! loom suite), so refill math is exact and the limiter itself never reads
//! a clock. The client table is LRU-bounded: a flood of distinct client
//! ids evicts the stalest bucket instead of growing without bound — an
//! evicted-and-recreated bucket restarts full, which errs in the client's
//! favor and keeps memory O(cap).

use crate::cache::Lru;
use crate::sync::{lock_unpoisoned, AtomicBool, Mutex, Ordering};
use std::sync::Arc;

/// Micro-tokens per token (see module docs).
pub(crate) const MICRO: u64 = 1_000_000;

/// Exactly-once claim on a queued job's right to answer.
///
/// Cloned into both the job (for the worker) and the event loop's deadline
/// registry (for the expiry sweep); whichever side claims first answers,
/// the other side stands down.
#[derive(Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, unclaimed token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Claims the token. Returns `true` for exactly one caller over the
    /// token's lifetime; everyone else gets `false` and must not answer.
    pub fn claim(&self) -> bool {
        !self.0.swap(true, Ordering::SeqCst)
    }

    /// True once someone claimed the token.
    pub fn is_claimed(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

struct Bucket {
    /// Micro-tokens available.
    micro: u64,
    /// Microsecond stamp of the last refill.
    refilled_us: u64,
}

/// A bounded table of per-client token buckets.
///
/// `try_charge` is the only mutation: refill from elapsed time, then spend
/// `cost` tokens or shed. All state sits behind one mutex — the critical
/// section is a map lookup plus integer arithmetic, far cheaper than the
/// request it gates.
pub struct RateLimiter {
    table: Mutex<Lru<Bucket>>,
    /// Tokens added per second.
    rate: u64,
    /// Bucket capacity in micro-tokens (burst ceiling).
    burst_micro: u64,
    /// Maximum tracked clients.
    client_cap: usize,
    shed: crate::sync::AtomicU64,
    evictions: crate::sync::AtomicU64,
}

impl RateLimiter {
    /// A limiter granting `rate` tokens/second per client with bucket
    /// capacity `burst` tokens, tracking at most `client_cap` clients.
    pub fn new(rate: u64, burst: u64, client_cap: usize) -> RateLimiter {
        RateLimiter {
            table: Mutex::new(Lru::default()),
            rate,
            burst_micro: burst.max(1).saturating_mul(MICRO),
            client_cap: client_cap.max(1),
            shed: crate::sync::AtomicU64::new(0),
            evictions: crate::sync::AtomicU64::new(0),
        }
    }

    /// Spends `cost` tokens from `client`'s bucket at time `now_us`
    /// (microseconds on any monotonic scale shared across calls). Returns
    /// `false` — shed the request — when the bucket cannot cover the cost.
    /// Zero-cost requests always pass without creating a bucket.
    pub fn try_charge(&self, client: &str, cost: u64, now_us: u64) -> bool {
        if cost == 0 {
            return true;
        }
        let cost_micro = cost.saturating_mul(MICRO);
        let mut table = lock_unpoisoned(&self.table);
        if table.touch(client).is_none() {
            // A new client starts with a full bucket; at the cap it takes
            // the least recently used client's place.
            let fresh = Bucket {
                micro: self.burst_micro,
                refilled_us: now_us,
            };
            if table.insert(client.to_string(), fresh, self.client_cap) {
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let Some(bucket) = table.touch(client) else {
            // Unreachable (just inserted), but shedding beats panicking on
            // the request path.
            return false;
        };
        // Exact integer refill: `rate` tokens/s is `rate` micro-tokens/µs.
        let elapsed_us = now_us.saturating_sub(bucket.refilled_us);
        bucket.micro = bucket
            .micro
            .saturating_add(elapsed_us.saturating_mul(self.rate))
            .min(self.burst_micro);
        bucket.refilled_us = now_us;
        if bucket.micro >= cost_micro {
            bucket.micro -= cost_micro;
            true
        } else {
            self.shed.fetch_add(1, Ordering::Relaxed);
            false
        }
    }

    /// Clients currently tracked.
    pub(crate) fn clients_tracked(&self) -> usize {
        lock_unpoisoned(&self.table).len()
    }

    /// Buckets evicted by the client-table cap.
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Charges refused (requests shed).
    pub fn shed_total(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_claims_exactly_once() {
        let t = CancelToken::new();
        assert!(!t.is_claimed());
        assert!(t.claim());
        assert!(!t.claim(), "second claim must lose");
        assert!(t.is_claimed());
        let u = t.clone();
        assert!(!u.claim(), "clones share the claim state");
    }

    #[test]
    fn bucket_starts_full_and_sheds_past_burst() {
        let l = RateLimiter::new(1, 4, 16);
        for i in 0..4 {
            assert!(l.try_charge("c", 1, 0), "burst token {i}");
        }
        assert!(!l.try_charge("c", 1, 0), "bucket empty");
        assert_eq!(l.shed_total(), 1);
    }

    #[test]
    fn refill_is_exact_integer_math() {
        let l = RateLimiter::new(2, 10, 16);
        assert!(l.try_charge("c", 10, 0), "drain the whole burst");
        assert!(!l.try_charge("c", 1, 0));
        // 2 tokens/s → one token every 500_000 µs. At 499_999 µs the bucket
        // holds 999_998 micro-tokens: still short of one token.
        assert!(!l.try_charge("c", 1, 499_999));
        assert!(l.try_charge("c", 1, 500_000), "exactly one token refilled");
        assert!(!l.try_charge("c", 1, 500_000), "and spent");
    }

    #[test]
    fn weighted_costs_spend_proportionally() {
        let l = RateLimiter::new(0, 8, 16);
        assert!(l.try_charge("c", 4, 0));
        assert!(l.try_charge("c", 4, 0));
        assert!(!l.try_charge("c", 1, 0), "8 tokens spent in 2 requests");
        assert!(l.try_charge("c", 0, 0), "zero-cost always passes");
    }

    #[test]
    fn client_table_is_lru_bounded() {
        let l = RateLimiter::new(0, 1, 2);
        assert!(l.try_charge("a", 1, 0));
        assert!(l.try_charge("b", 1, 0));
        assert_eq!(l.clients_tracked(), 2);
        // Touch "a" so "b" is the LRU victim when "c" arrives.
        let _ = l.try_charge("a", 1, 0);
        assert!(l.try_charge("c", 1, 0));
        assert_eq!(l.clients_tracked(), 2, "table never exceeds the cap");
        assert_eq!(l.evictions(), 1);
        // "b" was evicted: it returns with a fresh (full) bucket.
        assert!(l.try_charge("b", 1, 0));
    }

    #[test]
    fn distinct_clients_have_independent_buckets() {
        let l = RateLimiter::new(0, 1, 16);
        assert!(l.try_charge("a", 1, 0));
        assert!(!l.try_charge("a", 1, 0));
        assert!(l.try_charge("b", 1, 0), "b unaffected by a's spend");
    }
}
