//! The reference halo engine ([`HaloEngine::Reference`]): the original
//! rebuild-every-step implementation, kept as the oracle the equivalence
//! tests compare the compiled engine against. It re-derives
//! decompositions, neighbour lists and routes on every call and routes
//! each transfer through [`Network::transfer`].
//!
//! [`HaloEngine::Reference`]: super::HaloEngine::Reference
//! [`Network::transfer`]: crate::network::Network::transfer

use super::Simulation;
use crate::schedule::StepTotals;
use nestwx_grid::{Decomposition, ProcGrid, Rect};

/// One aggregated halo transfer waiting to enter the network.
struct PendingMsg {
    inject: f64,
    from: u32,
    to: u32,
    bytes: f64,
    msgs: u32,
}

impl Simulation<'_> {
    /// One integration step of several domains *simultaneously*, each
    /// decomposed over its own processor-grid rectangle: per-rank compute,
    /// then halo exchange with the four neighbours through the contended
    /// network. All domains' messages are routed in global injection order,
    /// so concurrent siblings share links without ordering bias.
    ///
    /// This is the reference engine: it re-derives decompositions and
    /// routes on every call. [`crate::schedule::run_compiled_step`] is the
    /// bitwise-equivalent replay of the precompiled tables.
    pub(super) fn halo_step_multi(&mut self, domains: &[(u32, u32, Rect)]) {
        let halo = self.machine.halo;
        let mpn = halo.messages_per_neighbor();
        let send_ovh = mpn as f64 * self.machine.net.send_overhead;

        let mut pending: Vec<PendingMsg> = Vec::new();
        // (global rank, send_done) per domain, for the completion pass.
        let mut senders: Vec<(u32, f64)> = Vec::new();
        self.step_counter += 1;
        let step = self.step_counter;

        let mut compute_total = 0.0;
        for &(nx, ny, region) in domains {
            // Domains smaller than the region use only the leading ranks.
            let px = region.w.min(nx);
            let py = region.h.min(ny);
            let active = Rect::new(region.x0, region.y0, px, py);
            let sub = ProcGrid::new(px, py);
            let decomp = Decomposition::new(nx, ny, sub);
            let global_ranks = self.grid.ranks_in(&active);

            for (local, &g) in global_ranks.iter().enumerate() {
                let patch = decomp.patch(local as u32);
                let comp = self.machine.compute.step_time_jittered(
                    patch.region.w,
                    patch.region.h,
                    g,
                    step,
                );
                let t_comp = self.ready[g as usize] + comp;
                compute_total += comp;
                if self.scratch.step.record_ranks {
                    self.scratch.step.rank_compute[g as usize] = comp;
                }
                // Post sends to each existing neighbour (within the active
                // region), paying per-message software overhead serially.
                let local_coords = sub.coords_of(local as u32);
                let neighbors =
                    sub.neighbors_within(sub.rank_of(local_coords.0, local_coords.1), &sub.rect());
                let mut t_send = t_comp;
                for nb_local in neighbors.into_iter().flatten() {
                    let (nx_l, ny_l) = sub.coords_of(nb_local);
                    let to_g = self.grid.rank_of(active.x0 + nx_l, active.y0 + ny_l);
                    // Edge length: vertical neighbours exchange rows (patch
                    // width), horizontal ones exchange columns (patch
                    // height).
                    let same_row = ny_l == local_coords.1;
                    let edge = if same_row {
                        patch.region.h
                    } else {
                        patch.region.w
                    };
                    let bytes = halo.edge_bytes(edge) as f64;
                    t_send += send_ovh;
                    pending.push(PendingMsg {
                        inject: t_send,
                        from: g,
                        to: to_g,
                        bytes,
                        msgs: mpn,
                    });
                }
                senders.push((g, t_send));
            }
        }

        // Route messages in injection order for deterministic, unbiased
        // contention. `total_cmp` keeps the sort well-defined even if a
        // pathological parameter set ever produced a NaN injection time.
        pending.sort_by(|a, b| {
            a.inject
                .total_cmp(&b.inject)
                .then(a.from.cmp(&b.from))
                .then(a.to.cmp(&b.to))
        });
        let mut recv_latest: Vec<f64> = vec![0.0; self.grid.len() as usize];
        for m in pending {
            let arrive = self.net.transfer(
                self.mapping.node_coord(m.from),
                self.mapping.node_coord(m.to),
                m.bytes,
                m.msgs,
                m.inject,
            );
            let slot = m.to as usize;
            if arrive > recv_latest[slot] {
                recv_latest[slot] = arrive;
            }
        }

        let mut wait_total = 0.0;
        for (g, send_done) in senders {
            let done = send_done.max(recv_latest[g as usize]);
            let waited = done - send_done;
            wait_total += waited;
            if self.scratch.step.record_ranks {
                self.scratch.step.rank_wait[g as usize] = waited;
            }
            self.mpi_wait[g as usize] += waited;
            self.ready[g as usize] = done;
        }
        self.scratch.step.totals = StepTotals {
            compute: compute_total,
            wait: wait_total,
        };
    }
}
