//! Live server metrics: per-endpoint counters and latency histograms.
//!
//! Latency goes into the shared [`LogHistogram`] from `nestwx-obs`, so the
//! `stats` endpoint reports the same p50/p90/p99/max summary shape as the
//! simulator's step metrics. Counters are relaxed atomics — `stats` is a
//! monitoring snapshot, not a transaction.

use crate::cache::CacheStats;
use crate::flight::FlightStats;
use crate::protocol::Endpoint;
use crate::sync::{lock_unpoisoned, AtomicU64, Mutex, Ordering};
use nestwx_obs::{HistSummary, LogHistogram};
use serde::Serialize;
use std::time::Duration;

/// `schema` tag of the unified `stats` result envelope.
pub const STATS_SCHEMA: &str = "nestwx-serve-stats";
/// Current version of the `stats` envelope. Version 1 was the untagged
/// PR 4–7 document; version 2 added the schema/version tags and the
/// flight-recorder block; version 3 drops the `batch` block (predicts are
/// ordinary queued jobs, counted under `endpoints.predict`) and changes
/// nothing else.
pub const STATS_VERSION: u64 = 3;

/// Counters plus a latency histogram for one endpoint.
#[derive(Default)]
pub struct EndpointMetrics {
    requests: AtomicU64,
    errors: AtomicU64,
    latency: Mutex<LogHistogram>,
}

impl EndpointMetrics {
    /// Records one completed request (error responses count too — clients
    /// wait for them just the same).
    pub fn record(&self, latency: Duration, ok: bool) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        lock_unpoisoned(&self.latency).record_duration(latency);
    }

    fn snapshot(&self) -> EndpointStats {
        EndpointStats {
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            latency: lock_unpoisoned(&self.latency).summary(),
        }
    }
}

/// All server-side counters. One instance per server, shared by every
/// connection and worker thread.
#[derive(Default)]
pub struct Metrics {
    /// Connections accepted and served.
    pub accepted_conns: AtomicU64,
    /// Connections refused because the connection cap was reached.
    pub rejected_conns: AtomicU64,
    /// Request lines received (including ones that failed to parse).
    pub requests_total: AtomicU64,
    /// Response lines written (every received line gets exactly one).
    pub responses_total: AtomicU64,
    /// Lines answered with malformed/oversized/unsupported_version/bad_request.
    pub protocol_errors: AtomicU64,
    /// Requests answered `deadline_exceeded` before a worker served them.
    pub deadline_expired: AtomicU64,
    /// Requests answered `rate_limited` by the per-client token bucket.
    pub rate_shed: AtomicU64,
    predict: EndpointMetrics,
    plan: EndpointMetrics,
    compare: EndpointMetrics,
    execute: EndpointMetrics,
    stats: EndpointMetrics,
    trace: EndpointMetrics,
    shutdown: EndpointMetrics,
}

impl Metrics {
    /// The per-endpoint metrics cell.
    pub fn endpoint(&self, e: Endpoint) -> &EndpointMetrics {
        match e {
            Endpoint::Predict => &self.predict,
            Endpoint::Plan => &self.plan,
            Endpoint::Compare => &self.compare,
            Endpoint::Execute => &self.execute,
            Endpoint::Stats => &self.stats,
            Endpoint::Trace => &self.trace,
            Endpoint::Shutdown => &self.shutdown,
        }
    }

    /// Builds the full `stats` result (queue/cache/conn/disk figures are
    /// owned by other components and passed in, as are the limit gauges).
    pub fn snapshot(
        &self,
        queue: QueueStats,
        cache: CacheStats,
        live_conns: u64,
        gauges: LimitGauges,
        disk: crate::disk::DiskStats,
        flight: FlightStats,
    ) -> StatsSnapshot {
        StatsSnapshot {
            schema: STATS_SCHEMA,
            version: STATS_VERSION,
            server: ServerStats {
                accepted_conns: self.accepted_conns.load(Ordering::Relaxed),
                rejected_conns: self.rejected_conns.load(Ordering::Relaxed),
                live_conns,
                requests_total: self.requests_total.load(Ordering::Relaxed),
                responses_total: self.responses_total.load(Ordering::Relaxed),
                protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            },
            queue,
            cache,
            disk,
            limits: LimitStats {
                deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
                rate_shed: self.rate_shed.load(Ordering::Relaxed),
                clients_tracked: gauges.clients_tracked,
                rate_evictions: gauges.rate_evictions,
                predictors_cached: gauges.predictors_cached,
                predictor_evictions: gauges.predictor_evictions,
            },
            flight,
            endpoints: EndpointsStats {
                predict: self.predict.snapshot(),
                plan: self.plan.snapshot(),
                compare: self.compare.snapshot(),
                execute: self.execute.snapshot(),
                stats: self.stats.snapshot(),
                trace: self.trace.snapshot(),
                shutdown: self.shutdown.snapshot(),
            },
        }
    }
}

/// Point-in-time gauges owned by the limiter and the predictor map,
/// passed into [`Metrics::snapshot`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LimitGauges {
    /// Clients with a live token bucket.
    pub clients_tracked: u64,
    /// Token buckets evicted by the client-table cap.
    pub rate_evictions: u64,
    /// Predictors resident in the bounded map.
    pub predictors_cached: u64,
    /// Predictors evicted by the map's cap.
    pub predictor_evictions: u64,
}

/// Production-limit figures in the `stats` result.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct LimitStats {
    /// Requests answered `deadline_exceeded`.
    pub deadline_expired: u64,
    /// Requests answered `rate_limited`.
    pub rate_shed: u64,
    /// Clients with a live token bucket.
    pub clients_tracked: u64,
    /// Token buckets evicted by the client-table cap.
    pub rate_evictions: u64,
    /// Predictors resident in the bounded map.
    pub predictors_cached: u64,
    /// Predictors evicted by the map's cap.
    pub predictor_evictions: u64,
}

/// One endpoint's row in the `stats` result.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct EndpointStats {
    /// Requests handled (including error responses).
    pub requests: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// Wall-clock latency summary (seconds), p50/p90/p99 at histogram
    /// bucket resolution.
    pub latency: HistSummary,
}

/// Connection/request totals.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ServerStats {
    /// Connections accepted and served.
    pub accepted_conns: u64,
    /// Connections refused at the connection cap.
    pub rejected_conns: u64,
    /// Connections currently open.
    pub live_conns: u64,
    /// Request lines received.
    pub requests_total: u64,
    /// Response lines written.
    pub responses_total: u64,
    /// Protocol-level rejections.
    pub protocol_errors: u64,
}

/// Bounded-queue figures.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct QueueStats {
    /// Maximum queued jobs.
    pub capacity: u64,
    /// Jobs queued right now.
    pub depth: u64,
    /// Jobs ever accepted.
    pub enqueued: u64,
    /// Jobs ever taken by a worker.
    pub dequeued: u64,
    /// Pushes refused with `overloaded`.
    pub rejected_full: u64,
}

/// Per-endpoint stats table.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct EndpointsStats {
    /// `predict` row.
    pub predict: EndpointStats,
    /// `plan` row.
    pub plan: EndpointStats,
    /// `compare` row.
    pub compare: EndpointStats,
    /// `execute` row.
    pub execute: EndpointStats,
    /// `stats` row.
    pub stats: EndpointStats,
    /// `trace` row.
    pub trace: EndpointStats,
    /// `shutdown` row.
    pub shutdown: EndpointStats,
}

/// The complete `stats` result (schema `nestwx-serve-stats` v3).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct StatsSnapshot {
    /// Always [`STATS_SCHEMA`].
    pub schema: &'static str,
    /// Always [`STATS_VERSION`].
    pub version: u64,
    /// Connection/request totals.
    pub server: ServerStats,
    /// Request-queue figures.
    pub queue: QueueStats,
    /// Plan-cache figures.
    pub cache: CacheStats,
    /// Disk-cache figures (all zero when no `cache_dir` is configured).
    pub disk: crate::disk::DiskStats,
    /// Deadline/rate-limit/bounded-map figures.
    pub limits: LimitStats,
    /// Flight-recorder figures (ring drops, slow-log crossings).
    pub flight: FlightStats,
    /// Per-endpoint counters and latency.
    pub endpoints: EndpointsStats,
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    fn flight_stats() -> FlightStats {
        crate::flight::FlightRecorder::new(true, 2, 64, 1000).stats()
    }

    #[test]
    fn endpoint_rows_accumulate() {
        let m = Metrics::default();
        m.endpoint(Endpoint::Plan)
            .record(Duration::from_millis(10), true);
        m.endpoint(Endpoint::Plan)
            .record(Duration::from_millis(20), false);
        m.endpoint(Endpoint::Stats)
            .record(Duration::from_micros(50), true);
        let snap = m.snapshot(
            QueueStats {
                capacity: 8,
                depth: 0,
                enqueued: 0,
                dequeued: 0,
                rejected_full: 0,
            },
            crate::cache::CacheStats {
                capacity: 0,
                entries: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
                hit_rate: 0.0,
            },
            0,
            LimitGauges::default(),
            crate::disk::DiskStats::default(),
            flight_stats(),
        );
        assert_eq!(snap.endpoints.plan.requests, 2);
        assert_eq!(snap.endpoints.plan.errors, 1);
        assert_eq!(snap.endpoints.plan.latency.count, 2);
        assert!(snap.endpoints.plan.latency.max >= 0.02);
        assert_eq!(snap.endpoints.stats.requests, 1);
        assert_eq!(snap.endpoints.predict.requests, 0);
    }

    #[test]
    fn snapshot_serializes() {
        let m = Metrics::default();
        m.deadline_expired.fetch_add(3, Ordering::Relaxed);
        m.rate_shed.fetch_add(4, Ordering::Relaxed);
        let snap = m.snapshot(
            QueueStats {
                capacity: 4,
                depth: 1,
                enqueued: 9,
                dequeued: 8,
                rejected_full: 2,
            },
            crate::cache::CacheStats {
                capacity: 16,
                entries: 3,
                hits: 5,
                misses: 4,
                evictions: 1,
                hit_rate: 5.0 / 9.0,
            },
            2,
            LimitGauges {
                clients_tracked: 7,
                rate_evictions: 1,
                predictors_cached: 2,
                predictor_evictions: 0,
            },
            crate::disk::DiskStats {
                hits: 6,
                misses: 2,
                writes: 2,
                corrupt: 0,
            },
            flight_stats(),
        );
        let json = serde_json::to_string(&snap).unwrap();
        let v = serde_json::from_str(&json).unwrap();
        assert_eq!(v["schema"].as_str(), Some(STATS_SCHEMA));
        assert_eq!(v["version"].as_u64(), Some(STATS_VERSION));
        assert!(v.get("batch").is_none(), "v3 has no batch block");
        assert_eq!(v["flight"]["recording"].as_bool(), Some(true));
        assert_eq!(v["flight"]["rings"].as_u64(), Some(2));
        assert_eq!(v["flight"]["slow_threshold_us"].as_u64(), Some(1000));
        assert_eq!(v["endpoints"]["trace"]["requests"].as_u64(), Some(0));
        assert_eq!(v["queue"]["rejected_full"].as_u64(), Some(2));
        assert_eq!(v["cache"]["hits"].as_u64(), Some(5));
        assert_eq!(v["disk"]["hits"].as_u64(), Some(6));
        assert_eq!(v["disk"]["writes"].as_u64(), Some(2));
        assert_eq!(v["server"]["live_conns"].as_u64(), Some(2));
        assert_eq!(v["endpoints"]["plan"]["latency"]["count"].as_u64(), Some(0));
        assert_eq!(v["limits"]["deadline_expired"].as_u64(), Some(3));
        assert_eq!(v["limits"]["rate_shed"].as_u64(), Some(4));
        assert_eq!(v["limits"]["clients_tracked"].as_u64(), Some(7));
        assert_eq!(v["limits"]["predictors_cached"].as_u64(), Some(2));
    }
}
