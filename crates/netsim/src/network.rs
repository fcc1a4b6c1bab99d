//! Torus network with per-link occupancy.
//!
//! Messages traverse their dimension-ordered route hop by hop: each link on
//! the route is held for the message's serialisation time and a busy link
//! delays the message head locally (cut-through per hop). Contention
//! therefore emerges from the traffic pattern and the mapping — exactly the
//! effect the paper's topology-aware mappings exploit ("the average number
//! of hops decreases resulting in lesser load on the network … lesser
//! congestion and smaller delay", §4.3.2).

use crate::machine::NetworkParams;
use nestwx_obs::NetDetail;
use nestwx_topo::torus::{NodeCoord, Torus};

/// Mutable network state: one busy-until time per directed link.
#[derive(Debug, Clone)]
pub(crate) struct Network {
    torus: Torus,
    params: NetworkParams,
    busy_until: Vec<f64>,
    /// Reusable route buffer for [`Network::transfer`].
    route_scratch: Vec<u32>,
    /// Optional per-link / per-message detail recording. Purely additive —
    /// nothing here feeds back into transfer times.
    obs: Option<Box<NetDetail>>,
    /// Total messages transferred.
    pub messages: u64,
    /// Aggregate transfers (a transfer batches many messages).
    pub transfers: u64,
    /// Total payload bytes transferred.
    pub bytes: f64,
    /// Total hops traversed.
    pub hops: u64,
    /// Total seconds message heads spent queued behind busy links — the
    /// contention-stall counter of the observability layer. Purely
    /// additive: it never feeds back into transfer times.
    pub stall: f64,
}

impl Network {
    /// A quiet network.
    pub(crate) fn new(torus: Torus, params: NetworkParams) -> Network {
        Network {
            torus,
            params,
            busy_until: vec![0.0; torus.num_links() as usize],
            route_scratch: Vec::new(),
            obs: None,
            messages: 0,
            transfers: 0,
            bytes: 0.0,
            hops: 0,
            stall: 0.0,
        }
    }

    /// Resets link occupancy and counters (recorded detail included, when
    /// enabled).
    pub(crate) fn reset(&mut self) {
        self.busy_until.fill(0.0);
        self.messages = 0;
        self.transfers = 0;
        self.bytes = 0.0;
        self.hops = 0;
        self.stall = 0.0;
        if let Some(o) = &mut self.obs {
            o.clear();
        }
    }

    /// Turns per-link busy accounting and message-latency recording on.
    pub(crate) fn enable_obs(&mut self) {
        if self.obs.is_none() {
            self.obs = Some(Box::new(NetDetail::new(
                self.torus.dims,
                self.torus.num_links() as usize,
            )));
        }
    }

    /// Turns detail recording off and discards what was recorded.
    pub(crate) fn disable_obs(&mut self) {
        self.obs = None;
    }

    /// The recorded detail, when enabled.
    pub(crate) fn obs_detail(&self) -> Option<&NetDetail> {
        self.obs.as_deref()
    }

    /// A snapshot (clone) of the recorded detail, when enabled.
    pub(crate) fn clone_obs_detail(&self) -> Option<NetDetail> {
        self.obs.as_deref().cloned()
    }

    /// Transfers an aggregate of `msgs` messages totalling `bytes` from
    /// node `from` to node `to`, with injection starting at `inject`
    /// (sender-side software overhead already paid by the caller).
    /// Returns the time the payload is available at the receiver
    /// (receiver-side overhead included).
    pub(crate) fn transfer(
        &mut self,
        from: NodeCoord,
        to: NodeCoord,
        bytes: f64,
        msgs: u32,
        inject: f64,
    ) -> f64 {
        self.messages += msgs as u64;
        self.transfers += 1;
        self.bytes += bytes;
        if from == to {
            // Intra-node: memory copy.
            let t = inject + bytes / self.params.mem_bw + self.params.recv_overhead * msgs as f64;
            if let Some(o) = &mut self.obs {
                o.msg_latency.record(t - inject);
            }
            return t;
        }
        self.torus.route_into(from, to, &mut self.route_scratch);
        self.hops += self.route_scratch.len() as u64;
        // Per-hop queuing: the head of the message advances link by link,
        // waiting out each link's current occupancy; each link is then held
        // for the serialisation time. (Cut-through per hop: downstream
        // links are not re-reserved when an upstream link stalls, so
        // convoys stay local.)
        let ser = bytes / self.params.link_bw;
        let mut head = inject;
        let mut stalled = 0.0;
        let mut obs = self.obs.as_deref_mut();
        for &l in &self.route_scratch {
            let start = head.max(self.busy_until[l as usize]);
            stalled += start - head;
            self.busy_until[l as usize] = start + ser;
            if let Some(o) = obs.as_deref_mut() {
                o.link_busy[l as usize] += ser;
            }
            head = start + self.params.hop_latency;
        }
        self.stall += stalled;
        let t = head + ser + self.params.recv_overhead * msgs as f64;
        if let Some(o) = obs {
            o.msg_latency.record(t - inject);
        }
        t
    }

    /// One message of a compiled halo step: [`Network::transfer`] with the
    /// route and the per-transfer arithmetic hoisted to compile time.
    /// `cost` is the serialisation time `bytes / link_bw` — or the
    /// memory-copy time `bytes / mem_bw` of an intra-node message, whose
    /// `route` is empty — and `recv_cost` is `recv_overhead * msgs`. Times
    /// are bitwise those of `transfer`: the precomputed values come from
    /// the same expressions, and over an empty route the loop below
    /// reduces to the intra-node `inject + cost + recv_cost`. The `messages` / `transfers`
    /// / `bytes` / `hops` counters are *not* touched: the compiled step
    /// adds its exact totals once (see `schedule::CompiledStep`), and it
    /// hands the latency samples to [`Network::record_latencies`] itself.
    pub(crate) fn transfer_compiled(
        &mut self,
        route: &[u32],
        cost: f64,
        recv_cost: f64,
        inject: f64,
    ) -> f64 {
        let mut head = inject;
        let mut stalled = 0.0;
        let mut obs = self.obs.as_deref_mut();
        for &l in route {
            let start = head.max(self.busy_until[l as usize]);
            stalled += start - head;
            self.busy_until[l as usize] = start + cost;
            if let Some(o) = obs.as_deref_mut() {
                o.link_busy[l as usize] += cost;
            }
            head = start + self.params.hop_latency;
        }
        self.stall += stalled;
        head + cost + recv_cost
    }

    /// Records the latencies (`arrival − inject`, in transfer order) of the
    /// messages a compiled step sent through [`Network::transfer_compiled`];
    /// with detail recording off the iterator is never consumed. The
    /// samples and their order are those of one `record` inside each
    /// transfer — same counts, same sum, bit for bit — but one tight pass
    /// per step measured ≈ 36 µs cheaper on a 16 k-message step than 16 k
    /// records interleaved with the route walks.
    pub(crate) fn record_latencies(&mut self, latencies: impl Iterator<Item = f64>) {
        if let Some(o) = &mut self.obs {
            for latency in latencies {
                o.msg_latency.record(latency);
            }
        }
    }

    /// Average hops per point-to-point transfer so far — the paper's
    /// "average number of hops" metric (Fig. 12b).
    pub(crate) fn avg_hops(&self) -> f64 {
        if self.transfers == 0 {
            0.0
        } else {
            self.hops as f64 / self.transfers as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> NetworkParams {
        NetworkParams {
            link_bw: 100e6,
            hop_latency: 1e-6,
            send_overhead: 2e-6,
            recv_overhead: 2e-6,
            mem_bw: 1e9,
        }
    }

    #[test]
    fn uncontended_transfer_time() {
        let mut net = Network::new(Torus::new(4, 4, 4), params());
        let a = NodeCoord::new(0, 0, 0);
        let b = NodeCoord::new(2, 0, 0); // 2 hops
        let t = net.transfer(a, b, 1e6, 1, 0.0);
        // ser = 1e6/100e6 = 10 ms; + 2 hops × 1 µs + recv 2 µs.
        assert!((t - (0.01 + 2e-6 + 2e-6)).abs() < 1e-9);
        assert_eq!(net.hops, 2);
    }

    #[test]
    fn intra_node_transfer_uses_memory() {
        let mut net = Network::new(Torus::new(4, 4, 4), params());
        let a = NodeCoord::new(1, 1, 1);
        let t = net.transfer(a, a, 1e6, 1, 0.0);
        assert!((t - (1e6 / 1e9 + 2e-6)).abs() < 1e-12);
        assert_eq!(net.hops, 0);
    }

    #[test]
    fn contention_serialises_messages() {
        let mut net = Network::new(Torus::new(4, 4, 4), params());
        let a = NodeCoord::new(0, 0, 0);
        let b = NodeCoord::new(1, 0, 0);
        let t1 = net.transfer(a, b, 1e6, 1, 0.0);
        // Second message on the same link at the same time must queue.
        let t2 = net.transfer(a, b, 1e6, 1, 0.0);
        assert!(t2 > t1 + 0.009, "second transfer not delayed: {t2} vs {t1}");
    }

    #[test]
    fn disjoint_routes_do_not_interfere() {
        let mut net = Network::new(Torus::new(4, 4, 4), params());
        let t1 = net.transfer(
            NodeCoord::new(0, 0, 0),
            NodeCoord::new(1, 0, 0),
            1e6,
            1,
            0.0,
        );
        let t2 = net.transfer(
            NodeCoord::new(0, 2, 2),
            NodeCoord::new(1, 2, 2),
            1e6,
            1,
            0.0,
        );
        assert!((t1 - t2).abs() < 1e-12);
    }

    #[test]
    fn longer_routes_risk_more_contention() {
        // A far pair crossing a loaded region is delayed; a near pair not.
        let mut net = Network::new(Torus::new(8, 1, 1), params());
        // Load the link 2→3.
        net.transfer(
            NodeCoord::new(2, 0, 0),
            NodeCoord::new(3, 0, 0),
            8e6,
            1,
            0.0,
        );
        let far = net.transfer(
            NodeCoord::new(0, 0, 0),
            NodeCoord::new(4, 0, 0),
            1e6,
            1,
            0.0,
        );
        let mut quiet = Network::new(Torus::new(8, 1, 1), params());
        let far_quiet = quiet.transfer(
            NodeCoord::new(0, 0, 0),
            NodeCoord::new(4, 0, 0),
            1e6,
            1,
            0.0,
        );
        assert!(far > far_quiet);
    }

    #[test]
    fn stall_counts_queuing_only() {
        let mut net = Network::new(Torus::new(4, 4, 4), params());
        let a = NodeCoord::new(0, 0, 0);
        let b = NodeCoord::new(1, 0, 0);
        net.transfer(a, b, 1e6, 1, 0.0);
        assert_eq!(net.stall, 0.0, "uncontended transfer must not stall");
        net.transfer(a, b, 1e6, 1, 0.0);
        // Second message queues behind the first's serialisation (~10 ms).
        assert!(net.stall > 0.009, "stall {} too small", net.stall);
        let before = net.stall;
        net.transfer(a, a, 1e6, 1, 0.0); // intra-node: no links, no stall
        assert_eq!(net.stall, before);
    }

    #[test]
    fn obs_detail_records_links_and_latency_without_changing_times() {
        let torus = Torus::new(4, 4, 4);
        let mut plain = Network::new(torus, params());
        let mut observed = Network::new(torus, params());
        observed.enable_obs();
        let pairs = [
            (NodeCoord::new(0, 0, 0), NodeCoord::new(2, 1, 0)),
            (NodeCoord::new(0, 0, 0), NodeCoord::new(2, 1, 0)),
            (NodeCoord::new(1, 1, 1), NodeCoord::new(1, 1, 1)),
        ];
        for (i, &(from, to)) in pairs.iter().enumerate() {
            let t0 = plain.transfer(from, to, 1e5, 2, 1e-4 * i as f64);
            let t1 = observed.transfer(from, to, 1e5, 2, 1e-4 * i as f64);
            assert_eq!(t0, t1, "detail recording must not change times");
        }
        let d = observed.obs_detail().expect("detail on");
        assert_eq!(d.msg_latency.count(), 3);
        assert!(d.msg_latency.min() > 0.0);
        let busy: f64 = d.link_busy.iter().sum();
        // Two 3-hop routed transfers at ser = 1e5/100e6 = 1 ms per link.
        assert!((busy - 6e-3).abs() < 1e-12, "busy {busy}");
        observed.reset();
        let d = observed.obs_detail().unwrap();
        assert_eq!(d.msg_latency.count(), 0);
        assert_eq!(d.link_busy.iter().sum::<f64>(), 0.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut net = Network::new(Torus::new(4, 4, 4), params());
        net.transfer(
            NodeCoord::new(0, 0, 0),
            NodeCoord::new(2, 2, 2),
            1e6,
            3,
            0.0,
        );
        assert_eq!(net.transfers, 1);
        assert_eq!(net.messages, 3);
        net.reset();
        assert_eq!(net.messages, 0);
        assert_eq!(net.transfers, 0);
        assert_eq!(net.avg_hops(), 0.0);
        let t = net.transfer(
            NodeCoord::new(0, 0, 0),
            NodeCoord::new(1, 0, 0),
            1e6,
            1,
            0.0,
        );
        assert!(t < 0.011);
    }
}
