//! Compiled halo-step schedules: the compile-once, simulate-many hot path.
//!
//! [`crate::sim::Simulation`] used to rebuild the per-domain decomposition,
//! neighbour lists and torus routes on *every* halo step. All of that is a
//! pure function of the (machine, grid, mapping, domain list), so it is
//! hoisted here and built once per simulation, in two layers:
//!
//! * [`NeighborRoutes`] — what depends on (grid, mapping) only. Every halo
//!   message of every step runs between 4-neighbours of the *global*
//!   processor grid, so the node coordinates and the torus routes of those
//!   pairs are computed once and written into one link arena that all the
//!   simulation's steps share.
//! * [`CompiledStep`] — what depends on the domain list: one entry per
//!   sending rank (with its precomputed mean compute time), one entry per
//!   halo message (destination, transfer cost, a slice of the shared link
//!   arena), and the step's exact network-counter totals.
//!
//! [`run_compiled_step`] then replays a table without allocating: injection
//! times are packed into integer sort keys (positive finite `f64` bits are
//! order-isomorphic to `u64`), the pending-message and receive-time buffers
//! live in a reusable [`StepScratch`], and transfers go through
//! [`Network::transfer_compiled`] with the precomputed routes.
//!
//! The replay is **bitwise identical** to the reference implementation
//! (`Simulation::halo_step_multi` with `HaloEngine::Reference`): the same
//! float expressions run in the same order, and the sort reproduces the
//! reference's stable `(inject, from, to)` ordering exactly. The
//! `(from, to)` tie-break is a pure function of the schedule, so it is
//! precomputed as a per-message *tie rank* and the hot sort handles only
//! `(inject bits, tie rank)` pairs — tie ranks are unique, so any correct
//! sort of the pairs is that order. The `tests/equivalence.rs` suite
//! enforces the bitwise guarantee.

use crate::machine::{unit_hash, Machine};
use crate::network::Network;
use nestwx_grid::{Decomposition, ProcGrid, Rect};
use nestwx_topo::torus::NodeCoord;
use nestwx_topo::Mapping;
use std::sync::Arc;

/// The torus routes between 4-neighbours of the global processor grid —
/// the only routes a halo step uses, whatever its domain list. A function
/// of (grid, mapping), built once per simulation.
#[derive(Debug)]
pub(crate) struct NeighborRoutes {
    /// Arena of dimension-ordered route link ids, shared (not copied) by
    /// every [`CompiledStep`] of the simulation.
    links: Arc<[u32]>,
    /// The route from rank `g` to its neighbour in direction `d` — in tie
    /// order, ascending destination rank: N, W, E, S — is
    /// `links[ends[4 * g + d]..ends[4 * g + d + 1]]`. Empty when the two
    /// ranks share a node (or the grid has no such neighbour).
    ends: Vec<u32>,
}

impl NeighborRoutes {
    /// Routes every neighbour pair of `grid` under `mapping`.
    pub(crate) fn new(grid: &ProcGrid, mapping: &Mapping) -> NeighborRoutes {
        let torus = mapping.shape.torus;
        let nodes: Vec<NodeCoord> = (0..grid.len()).map(|g| mapping.node_coord(g)).collect();
        let mut links = Vec::new();
        let mut ends = Vec::with_capacity(4 * nodes.len() + 1);
        ends.push(0);
        for y in 0..grid.py {
            for x in 0..grid.px {
                let g = grid.rank_of(x, y);
                for to in neighbors(g, grid.px, (x, y), (grid.px, grid.py)) {
                    if let Some(to) = to {
                        torus.route_append(nodes[g as usize], nodes[to as usize], &mut links);
                    }
                    ends.push(links.len() as u32);
                }
            }
        }
        NeighborRoutes {
            links: links.into(),
            ends,
        }
    }
}

/// The N, W, E, S neighbours — ascending rank, which is the tie order of
/// its messages — of rank `g` of a grid `grid_px` ranks wide, sitting at
/// `(x, y)` of a `w × h` rectangle of that grid that halos do not leave.
fn neighbors(g: u32, grid_px: u32, (x, y): (u32, u32), (w, h): (u32, u32)) -> [Option<u32>; 4] {
    [
        (y > 0).then(|| g - grid_px),
        (x > 0).then(|| g - 1),
        (x + 1 < w).then(|| g + 1),
        (y + 1 < h).then(|| g + grid_px),
    ]
}

/// One halo message of a compiled step: everything the network transfer
/// needs except the injection time, which depends on run state.
#[derive(Debug, Clone)]
pub(crate) struct CompiledMsg {
    /// Destination global rank.
    pub to: u32,
    /// `[start, end)` range into the simulation's link arena; empty exactly
    /// when sender and receiver share a node (memory copy, no links).
    pub links: (u32, u32),
    /// Precomputed transfer cost: per-link serialisation time
    /// (`bytes / link_bw`), or the memory-copy time (`bytes / mem_bw`)
    /// when intra-node.
    pub cost: f64,
}

/// One sending rank of a compiled step, in the reference's traversal
/// order.
#[derive(Debug, Clone)]
pub(crate) struct CompiledSender {
    /// Global rank.
    pub g: u32,
    /// Mean compute seconds of this rank's patch (`ComputeParams::step_time`
    /// of the patch dimensions); the deterministic jitter factor is applied
    /// at replay time because it depends on the step counter.
    pub step_time: f64,
    /// Messages this sender posts.
    pub(crate) n_msgs: u32,
}

/// A compiled multi-domain halo step, replayable without allocation.
#[derive(Debug, Clone)]
pub(crate) struct CompiledStep {
    /// The `(nx, ny, region)` domain list this step was compiled from. Used
    /// as the interning key and replayed verbatim by the reference engine.
    pub domains: Vec<(u32, u32, Rect)>,
    /// Senders in reference order: per domain, per rank row-major within the
    /// domain's active region.
    pub(crate) senders: Vec<CompiledSender>,
    /// Messages stored in *tie order* — sorted by `(from, to)` — so the
    /// post-sort replay loop indexes them directly by tie rank.
    pub(crate) msgs: Vec<CompiledMsg>,
    /// Push-order message index (sender by sender, each posting to its W,
    /// E, N, S neighbours as the reference does) → its tie rank (its
    /// position in `msgs`). Breaks injection-time ties exactly as the
    /// reference's stable `(inject, from, to)` sort (no `(from, to)` pair
    /// repeats in a step).
    pub(crate) tie_rank: Vec<u32>,
    /// The simulation's link arena (see [`NeighborRoutes`]).
    pub links: Arc<[u32]>,
    /// Σ payload bytes over `msgs`. Payloads are integer-valued `f64`s far
    /// below 2^53, so this sum — like every partial sum of the reference's
    /// per-message `Network::bytes` accumulation — is exact, and adding it
    /// once per replay leaves the counter bitwise where the reference's
    /// message-by-message adds leave it.
    pub bytes: f64,
    /// Σ route lengths over `msgs`.
    pub hops: u64,
}

impl CompiledStep {
    /// Compiles the halo step of `domains` — each an `nx × ny` domain
    /// decomposed over a processor-grid rectangle — mirroring the reference
    /// implementation's traversal order exactly.
    pub(crate) fn compile(
        domains: &[(u32, u32, Rect)],
        machine: &Machine,
        grid: &ProcGrid,
        routes: &NeighborRoutes,
    ) -> CompiledStep {
        let mut senders: Vec<CompiledSender> = Vec::new();
        let mut msgs: Vec<CompiledMsg> = Vec::new();
        let mut tie_rank: Vec<u32> = Vec::new();
        let mut bytes_total = 0.0;
        let mut hops = 0u64;

        for &(nx, ny, region) in domains {
            // Domains smaller than the region use only the leading ranks.
            let px = region.w.min(nx);
            let py = region.h.min(ny);
            let decomp = Decomposition::new(nx, ny, ProcGrid::new(px, py));
            for ly in 0..py {
                for lx in 0..px {
                    let g = grid.rank_of(region.x0 + lx, region.y0 + ly);
                    let patch = decomp.patch_at(lx, ly).region;
                    // Per neighbour in tie order (N, W, E, S): its rank if
                    // the domain has it, its slot in the reference's W, E,
                    // N, S push order, and the edge exchanged — vertical
                    // neighbours exchange rows (patch width), horizontal
                    // ones columns (patch height).
                    let to = neighbors(g, grid.px, (lx, ly), (px, py));
                    let [n, w, e, s] = to.map(|to| u32::from(to.is_some()));
                    let push = [w + e, 0, w, w + e + n];
                    let edge = [patch.w, patch.h, patch.h, patch.w];
                    let first = msgs.len();
                    tie_rank.resize(first + (n + w + e + s) as usize, 0);
                    for (d, to) in to.into_iter().enumerate() {
                        let Some(to) = to else { continue };
                        let at = 4 * g as usize + d;
                        let links = (routes.ends[at], routes.ends[at + 1]);
                        let bytes = machine.halo.edge_bytes(edge[d]) as f64;
                        let cost = if links.0 == links.1 {
                            bytes / machine.net.mem_bw
                        } else {
                            bytes / machine.net.link_bw
                        };
                        bytes_total += bytes;
                        hops += u64::from(links.1 - links.0);
                        tie_rank[first + push[d] as usize] = msgs.len() as u32;
                        msgs.push(CompiledMsg { to, links, cost });
                    }
                    senders.push(CompiledSender {
                        g,
                        step_time: machine.compute.step_time(patch.w, patch.h),
                        n_msgs: n + w + e + s,
                    });
                }
            }
        }
        // `msgs` is now in (from, to) order sender by sender. One domain's
        // senders ascend by rank, so that is the tie order; the senders of
        // side-by-side domains interleave row by row, and each sender's
        // block of messages moves to its rank's place.
        if !senders.windows(2).all(|pair| pair[0].g < pair[1].g) {
            let mut blocks = Vec::with_capacity(senders.len());
            let mut first = 0u32;
            for s in &senders {
                blocks.push((s.g, first, s.n_msgs));
                first += s.n_msgs;
            }
            blocks.sort_unstable();
            let mut moved_to = vec![0u32; msgs.len()];
            let mut in_tie_order = Vec::with_capacity(msgs.len());
            for &(_, first, n_msgs) in &blocks {
                for at in first..first + n_msgs {
                    moved_to[at as usize] = in_tie_order.len() as u32;
                    in_tie_order.push(msgs[at as usize].clone());
                }
            }
            for rank in &mut tie_rank {
                *rank = moved_to[*rank as usize];
            }
            msgs = in_tie_order;
        }
        CompiledStep {
            domains: domains.to_vec(),
            senders,
            msgs,
            tie_rank,
            links: Arc::clone(&routes.links),
            bytes: bytes_total,
            hops,
        }
    }
}

/// Per-step totals of the always-on observability counter core: quantities
/// the per-rank loops see anyway, accumulated into separate sums (two f64
/// adds per sender) so the step engines never have to be re-run to answer
/// "where did this step's time go". Purely additive — nothing here feeds
/// back into `ready`/`mpi_wait`, so results are bitwise identical whether
/// or not anyone reads them.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StepTotals {
    /// Σ over ranks of compute seconds this step (jittered).
    pub compute: f64,
    /// Σ over ranks of halo MPI_Wait seconds this step.
    pub wait: f64,
}

/// Reusable buffers for [`run_compiled_step`].
#[derive(Debug, Clone)]
pub(crate) struct StepScratch {
    /// `(injection-time bits, tie rank)` per pending message; sorting these
    /// pairs reproduces the reference's stable `(inject, from, to)` message
    /// order (see [`CompiledStep::tie_rank`]). Under detail recording the
    /// transfer loop replaces each delivered message's key by the bits of
    /// its latency — the step's `msg_latency` samples, with no buffer of
    /// their own.
    pending: Vec<(u64, u32)>,
    /// Destination buffer of [`sort_pending`]'s distribution pass.
    pending_tmp: Vec<(u64, u32)>,
    /// Its bucket counts (at most two per pending message).
    buckets: Vec<u32>,
    /// Send-completion time per sender, in sender order.
    send_done: Vec<f64>,
    /// Latest halo arrival per global rank.
    recv_latest: Vec<f64>,
    /// Counter-core totals of the most recent step (either engine).
    pub totals: StepTotals,
    /// When set, the step engines also scatter per-rank compute / wait
    /// seconds into `rank_compute` / `rank_wait` (timeline recording).
    pub(crate) record_ranks: bool,
    /// Per-rank compute seconds of the most recent step (valid only for
    /// ranks active in that step, and only when `record_ranks` is set).
    pub(crate) rank_compute: Vec<f64>,
    /// Per-rank halo MPI_Wait seconds of the most recent step (same
    /// validity as `rank_compute`).
    pub(crate) rank_wait: Vec<f64>,
}

impl StepScratch {
    /// Scratch for a simulation over `nranks` global ranks.
    pub(crate) fn new(nranks: usize) -> StepScratch {
        StepScratch {
            pending: Vec::new(),
            pending_tmp: Vec::new(),
            buckets: Vec::new(),
            send_done: Vec::new(),
            recv_latest: vec![0.0; nranks],
            totals: StepTotals::default(),
            record_ranks: false,
            rank_compute: vec![0.0; nranks],
            rank_wait: vec![0.0; nranks],
        }
    }
}

/// Replays a compiled halo step: per-rank compute (with the deterministic
/// per-(rank, step) jitter), message injection in the reference's stable
/// `(inject, from, to)` order through the contended network, then the
/// receive-wait completion pass updating `ready` and `mpi_wait`.
pub(crate) fn run_compiled_step(
    cs: &CompiledStep,
    machine: &Machine,
    net: &mut Network,
    ready: &mut [f64],
    mpi_wait: &mut [f64],
    scratch: &mut StepScratch,
    step: u64,
) {
    let mpn = machine.halo.messages_per_neighbor();
    let send_ovh = mpn as f64 * machine.net.send_overhead;
    let recv_cost = machine.net.recv_overhead * mpn as f64;
    let jitter = machine.compute.jitter;

    // Injection times in push order, scattered into tie-rank slots. Each
    // pair carries its tie rank, so sorting the pairs resolves equal times
    // exactly like the reference's stable sort.
    scratch.pending.resize(cs.msgs.len(), (0, 0));
    scratch.send_done.clear();
    let mut compute_total = 0.0;
    let mut mi = 0usize;
    for s in &cs.senders {
        let comp = s.step_time * (1.0 + jitter * unit_hash(s.g, step));
        let t_comp = ready[s.g as usize] + comp;
        compute_total += comp;
        if scratch.record_ranks {
            scratch.rank_compute[s.g as usize] = comp;
        }
        let mut t_send = t_comp;
        for _ in 0..s.n_msgs {
            t_send += send_ovh;
            // Injection times are sums of positive terms, so their bit
            // patterns sort like the values themselves.
            let tie = cs.tie_rank[mi];
            scratch.pending[tie as usize] = (t_send.to_bits(), tie);
            mi += 1;
        }
        scratch.send_done.push(t_send);
    }
    debug_assert_eq!(mi, cs.msgs.len());

    sort_pending(
        &mut scratch.pending,
        &mut scratch.pending_tmp,
        &mut scratch.buckets,
    );
    scratch.recv_latest.fill(0.0);
    // With detail recording on, a delivered message's key is overwritten by
    // its latency and the step's samples are recorded in one pass below
    // (which, with it off, never looks at them).
    let detail = net.obs_detail().is_some();
    for p in scratch.pending.iter_mut() {
        let (bits, tie) = *p;
        let m = &cs.msgs[tie as usize];
        let route = &cs.links[m.links.0 as usize..m.links.1 as usize];
        let inject = f64::from_bits(bits);
        let arrive = net.transfer_compiled(route, m.cost, recv_cost, inject);
        if detail {
            p.0 = (arrive - inject).to_bits();
        }
        let slot = m.to as usize;
        if arrive > scratch.recv_latest[slot] {
            scratch.recv_latest[slot] = arrive;
        }
    }
    net.record_latencies(scratch.pending.iter().map(|p| f64::from_bits(p.0)));
    // The counters the reference bumps message by message, as the step's
    // exact totals (see [`CompiledStep::bytes`]).
    net.transfers += cs.msgs.len() as u64;
    net.messages += cs.msgs.len() as u64 * u64::from(mpn);
    net.bytes += cs.bytes;
    net.hops += cs.hops;

    let mut wait_total = 0.0;
    for (s, &send_done) in cs.senders.iter().zip(&scratch.send_done) {
        let done = send_done.max(scratch.recv_latest[s.g as usize]);
        let waited = done - send_done;
        wait_total += waited;
        if scratch.record_ranks {
            scratch.rank_wait[s.g as usize] = waited;
        }
        mpi_wait[s.g as usize] += waited;
        ready[s.g as usize] = done;
    }
    scratch.totals = StepTotals {
        compute: compute_total,
        wait: wait_total,
    };
}

/// Steps with fewer messages than this go straight to a comparison sort.
const SMALL_STEP: usize = 128;

/// Sorts pending messages by `(injection-time bits, tie rank)` — the
/// reference's stable `(inject, from, to)` order, since tie ranks are
/// unique and follow `(from, to)`.
///
/// One distribution pass: the keys of a step span a narrow range (±
/// jitter around a few patch sizes' compute times), so `(key − min) >>
/// shift` spreads `n` of them over at most `2n` buckets, most holding one
/// pair or none. Count, prefix-sum, scatter into `tmp`, then
/// comparison-sort the buckets that hold more than one pair. A degenerate
/// key distribution (all keys equal, one crowded bucket) degrades to that
/// comparison sort, never further.
fn sort_pending(pending: &mut Vec<(u64, u32)>, tmp: &mut Vec<(u64, u32)>, buckets: &mut Vec<u32>) {
    let n = pending.len();
    if n < SMALL_STEP {
        pending.sort_unstable();
        return;
    }
    let (mut lo, mut hi) = (u64::MAX, 0u64);
    for &(key, _) in pending.iter() {
        lo = lo.min(key);
        hi = hi.max(key);
    }
    // Buckets of 2^shift keys: the narrowest that cover `hi - lo` with at
    // most 2^⌊log2 2n⌋ of them.
    let key_bits = u64::BITS - (hi - lo).leading_zeros();
    let shift = key_bits.saturating_sub((2 * n).ilog2());
    buckets.clear();
    buckets.resize(((hi - lo) >> shift) as usize + 1, 0);
    debug_assert!(buckets.len() <= 2 * n);
    for &(key, _) in pending.iter() {
        buckets[((key - lo) >> shift) as usize] += 1;
    }
    let mut start = 0u32;
    for b in buckets.iter_mut() {
        let count = *b;
        *b = start;
        start += count;
    }
    tmp.resize(n, (0, 0));
    for &pair in pending.iter() {
        let b = &mut buckets[((pair.0 - lo) >> shift) as usize];
        tmp[*b as usize] = pair;
        *b += 1;
    }
    // Each bucket's entry has advanced from its start to its end.
    let mut start = 0usize;
    for &end in buckets.iter() {
        let end = end as usize;
        if end - start > 1 {
            tmp[start..end].sort_unstable();
        }
        start = end;
    }
    std::mem::swap(pending, tmp);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `sort_pending` on `keys` — tie rank = position, as the replay
    /// fills the buffer — and compares with a full sort of the pairs.
    fn assert_sorts(keys: &[u64], tmp: &mut Vec<(u64, u32)>, buckets: &mut Vec<u32>) {
        let mut pending: Vec<(u64, u32)> = keys.iter().copied().zip(0u32..).collect();
        let mut expect = pending.clone();
        expect.sort();
        sort_pending(&mut pending, tmp, buckets);
        assert_eq!(pending, expect, "n={}", keys.len());
    }

    fn keys(n: usize, f: impl FnMut(usize) -> u64) -> Vec<u64> {
        (0..n).map(f).collect()
    }

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    #[test]
    fn sort_pending_matches_stable_sort() {
        let mut next = xorshift(0x9e3779b97f4a7c15);
        let sizes = [
            0,
            1,
            2,
            100,
            SMALL_STEP - 1,
            SMALL_STEP,
            SMALL_STEP + 1,
            500,
            4096,
            16_384,
        ];
        let base = 0x3fe0_0000_0000_0000u64;
        let (lo, hi) = (0.02_f64.to_bits(), 0.05_f64.to_bits());
        // One scratch across every call: sizes go up and down, so a stale
        // bucket count or a too-short buffer from an earlier call would show.
        let (mut tmp, mut buckets) = (Vec::new(), Vec::new());
        for n in sizes.into_iter().chain(sizes.into_iter().rev()) {
            let cases = [
                // Clustered high bytes (the shape real injection times
                // have) with exact duplicates under different tie ranks.
                keys(n, |i| {
                    base | if i % 7 == 0 { 0 } else { next() & 0xffff_ffff }
                }),
                // All equal; all but one equal (one crowded bucket).
                keys(n, |_| base),
                keys(n, |i| if i == n / 2 { base + (1 << 40) } else { base }),
                // Two tight clusters 2^50 apart.
                keys(n, |i| base + ((i as u64 % 2) << 50) + (next() & 0xff)),
                // Across two exponent boundaries (0.02 .. 0.05).
                keys(n, |_| lo + next() % (hi - lo + 1)),
                // The widest range positive finite keys can span.
                keys(n, |i| match i {
                    0 => f64::MAX.to_bits(),
                    1 => 1,
                    _ => next() % f64::MAX.to_bits() + 1,
                }),
                // Every pair a duplicate of its neighbour, descending.
                keys(n, |i| base + ((n - i) as u64 / 2)),
            ];
            for case in &cases {
                assert_sorts(case, &mut tmp, &mut buckets);
            }
        }
    }

    #[test]
    fn sort_pending_keeps_tie_order_on_equal_keys() {
        let mut input: Vec<(u64, u32)> = (0..300).map(|tie| (42u64, tie)).collect();
        let (mut tmp, mut buckets) = (Vec::new(), Vec::new());
        sort_pending(&mut input, &mut tmp, &mut buckets);
        assert!(input.windows(2).all(|w| w[0].1 < w[1].1));
    }

    /// One message as the pre-construction compile derived it.
    struct OracleMsg {
        from: u32,
        to: u32,
        bytes: f64,
        cost: f64,
        route: Vec<u32>,
    }

    /// The tie order as `compile` used to derive it: walk ranks and
    /// neighbour lists as the reference engine does, route each message,
    /// then comparison-sort the messages by `(from, to)`. Returns the
    /// messages in that order and the push-order → tie-rank table.
    fn oracle(
        domains: &[(u32, u32, Rect)],
        machine: &Machine,
        grid: &ProcGrid,
        mapping: &Mapping,
    ) -> (Vec<OracleMsg>, Vec<u32>) {
        let mut msgs = Vec::new();
        for &(nx, ny, region) in domains {
            let active = Rect::new(region.x0, region.y0, region.w.min(nx), region.h.min(ny));
            let sub = ProcGrid::new(active.w, active.h);
            let decomp = Decomposition::new(nx, ny, sub);
            for (local, &g) in grid.ranks_in(&active).iter().enumerate() {
                let patch = decomp.patch(local as u32).region;
                let (lx, ly) = sub.coords_of(local as u32);
                for nb in sub
                    .neighbors_within(local as u32, &sub.rect())
                    .into_iter()
                    .flatten()
                {
                    let (nb_x, nb_y) = sub.coords_of(nb);
                    let to = grid.rank_of(active.x0 + nb_x, active.y0 + nb_y);
                    let edge = if nb_y == ly { patch.h } else { patch.w };
                    debug_assert!(nb_y == ly || nb_x == lx);
                    let bytes = machine.halo.edge_bytes(edge) as f64;
                    let (a, b) = (mapping.node_coord(g), mapping.node_coord(to));
                    let bw = if a == b {
                        machine.net.mem_bw
                    } else {
                        machine.net.link_bw
                    };
                    msgs.push(OracleMsg {
                        from: g,
                        to,
                        bytes,
                        cost: bytes / bw,
                        route: mapping.shape.torus.route(a, b),
                    });
                }
            }
        }
        let mut by_tie: Vec<u32> = (0..msgs.len() as u32).collect();
        by_tie.sort_unstable_by_key(|&mi| (msgs[mi as usize].from, msgs[mi as usize].to));
        let mut tie_rank = vec![0u32; msgs.len()];
        for (rank, &mi) in by_tie.iter().enumerate() {
            tie_rank[mi as usize] = rank as u32;
        }
        let mut slots: Vec<Option<OracleMsg>> = msgs.into_iter().map(Some).collect();
        let in_tie_order = by_tie
            .iter()
            .filter_map(|&mi| slots[mi as usize].take())
            .collect();
        (in_tie_order, tie_rank)
    }

    fn assert_constructed_order_matches_sorted(domains: &[(u32, u32, Rect)], mapping: &Mapping) {
        let machine = Machine::bgl(64);
        let grid = ProcGrid::near_square(machine.ranks());
        let routes = NeighborRoutes::new(&grid, mapping);
        let cs = CompiledStep::compile(domains, &machine, &grid, &routes);
        let (expect, expect_rank) = oracle(domains, &machine, &grid, mapping);

        assert_eq!(cs.tie_rank, expect_rank);
        let mut seen = vec![false; cs.msgs.len()];
        for &rank in &cs.tie_rank {
            assert!(
                !std::mem::replace(&mut seen[rank as usize], true),
                "tie rank repeats"
            );
        }
        // Push order is sender by sender, so `tie_rank` also says who sent
        // the message at each tie position.
        let mut from = vec![0u32; cs.msgs.len()];
        let mut push = 0;
        for s in &cs.senders {
            for _ in 0..s.n_msgs {
                from[cs.tie_rank[push] as usize] = s.g;
                push += 1;
            }
        }
        assert_eq!(push, cs.msgs.len());
        let endpoints: Vec<(u32, u32)> =
            from.iter().zip(&cs.msgs).map(|(&f, m)| (f, m.to)).collect();
        assert!(
            endpoints.windows(2).all(|w| w[0] < w[1]),
            "not strictly (from, to)"
        );

        assert_eq!(cs.msgs.len(), expect.len());
        for ((m, &from), e) in cs.msgs.iter().zip(&from).zip(&expect) {
            assert_eq!((from, m.to), (e.from, e.to));
            assert_eq!(m.cost.to_bits(), e.cost.to_bits());
            assert_eq!(
                cs.links[m.links.0 as usize..m.links.1 as usize],
                e.route[..]
            );
        }
        assert_eq!(cs.bytes, expect.iter().map(|e| e.bytes).sum::<f64>());
        assert_eq!(
            cs.hops,
            expect.iter().map(|e| e.route.len() as u64).sum::<u64>()
        );
    }

    #[test]
    fn constructed_tie_order_matches_the_sorted_one() {
        let shape = Machine::bgl(64).shape;
        let grid = ProcGrid::near_square(64); // 8×8
        let left = Rect::new(0, 0, 3, 8);
        let right = Rect::new(3, 0, 5, 8);
        let mappings = [
            Mapping::oblivious(shape, 64).unwrap(),
            Mapping::txyz(shape, 64).unwrap(),
            Mapping::partition(shape, &grid, &[left, right]).unwrap(),
        ];
        let cases: [&[(u32, u32, Rect)]; 6] = [
            // One domain over the full grid.
            &[(120, 96, grid.rect())],
            // Side-by-side partitions: sender ranks interleave row by row.
            &[(90, 90, left), (75, 60, right)],
            // The same two, listed right to left.
            &[(75, 60, right), (90, 90, left)],
            // A domain smaller than its region: only the leading 2×3 ranks.
            &[(2, 3, right), (90, 90, left)],
            // A one-rank region sends nothing.
            &[(40, 40, Rect::new(7, 7, 1, 1))],
            // Stacked partitions: senders already ascend across domains.
            &[
                (64, 64, Rect::new(0, 0, 8, 4)),
                (64, 64, Rect::new(0, 4, 8, 4)),
            ],
        ];
        for mapping in &mappings {
            for domains in cases {
                assert_constructed_order_matches_sorted(domains, mapping);
            }
        }
    }
}
