//! Imbalance attribution and link-utilization analysis.
//!
//! Turns the raw recordings ([`ObsSummary`] aggregates, the per-rank
//! [`Timeline`], and the per-link busy accounting) into the quantities the
//! paper argues from: per-nest execution-time ratios (the allocator's
//! input, Algorithm 1), per-nest load-imbalance factors (max/mean), the
//! ranks that most often sit on the critical path, and a torus
//! link-utilization heatmap summarising where routed transfers contend.

use crate::hist::LogHistogram;
use crate::timeline::Timeline;
use crate::ObsSummary;
use serde::Serialize;

/// Per-link network recordings handed over by the network model: one
/// message-latency histogram plus busy-seconds per directed torus link.
#[derive(Debug, Clone)]
pub struct NetDetail {
    /// Injection-to-delivery latency of every transfer.
    pub msg_latency: LogHistogram,
    /// Serialization busy-seconds per directed link, indexed by link id
    /// (`node*6 + dim*2 + direction`).
    pub link_busy: Vec<f64>,
    /// Torus dimensions, for decoding link ids back to coordinates.
    pub(crate) torus_dims: [u32; 3],
}

impl NetDetail {
    /// An empty recording for a torus of the given dimensions.
    pub fn new(torus_dims: [u32; 3], links: usize) -> NetDetail {
        NetDetail {
            msg_latency: LogHistogram::new(),
            link_busy: vec![0.0; links],
            torus_dims,
        }
    }

    /// Clears recorded contents, keeping the shape.
    pub fn clear(&mut self) {
        self.msg_latency.clear();
        for b in &mut self.link_busy {
            *b = 0.0;
        }
    }
}

/// Analysis over one recorded run: imbalance factors, critical-path ranks,
/// and (when per-link recording was on) link utilization.
#[derive(Debug, Clone, Serialize)]
pub struct AnalysisReport {
    /// Whole-run load-imbalance factor: max/mean of per-rank busy
    /// (compute + halo-wait) seconds over the sampled lanes. 1.0 is
    /// perfectly balanced; 0.0 when no timeline was recorded.
    pub overall_imbalance: f64,
    /// Per-nest breakdown with time ratios and imbalance factors.
    pub per_nest: Vec<NestAnalysis>,
    /// Ranks most often on the critical path (largest compute + wait in a
    /// frame), descending by frame count. Empty without a timeline.
    pub critical_ranks: Vec<RankShare>,
    /// Torus link utilization; absent when per-link recording was off.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub links: Option<LinkUtil>,
}

/// Per-nest timing and imbalance.
#[derive(Debug, Clone, Serialize)]
pub struct NestAnalysis {
    /// Nest index.
    pub nest: u32,
    /// Steps recorded for this nest.
    pub steps: u64,
    /// Wall-clock seconds spent in this nest's steps.
    pub time: f64,
    /// Compute seconds.
    pub compute: f64,
    /// Halo-wait seconds.
    pub halo_wait: f64,
    /// This nest's share of the summed per-nest time — the execution-time
    /// ratio the paper's allocator consumes.
    pub time_ratio: f64,
    /// Load-imbalance factor (max/mean per-lane compute over this nest's
    /// frames); 0.0 when the timeline holds no frames for it.
    pub imbalance: f64,
}

/// How often one rank was the critical path.
#[derive(Debug, Clone, Serialize)]
pub struct RankShare {
    /// Global rank.
    pub rank: u32,
    /// Frames where this rank had the largest compute + wait.
    pub frames: u64,
    /// Fraction of all frames.
    pub share: f64,
}

/// Torus link-utilization summary (utilization = busy seconds divided by
/// the run's simulated end time).
#[derive(Debug, Clone, Serialize)]
pub struct LinkUtil {
    /// Directed links in the torus.
    pub links: u64,
    /// Links with any traffic.
    pub active_links: u64,
    /// Total busy seconds over all links.
    pub(crate) total_busy: f64,
    /// Mean utilization over all links.
    pub(crate) mean_util: f64,
    /// Hottest link's utilization.
    pub max_util: f64,
    /// 99th-percentile link utilization.
    pub(crate) p99_util: f64,
    /// The hottest links, descending by busy time.
    pub top: Vec<LinkLoad>,
}

/// One directed torus link and its load.
#[derive(Debug, Clone, Serialize)]
pub struct LinkLoad {
    /// Directed link id (`node*6 + dim*2 + direction`).
    pub link: u32,
    /// Source node index.
    pub node: u32,
    /// Source node x coordinate.
    pub(crate) coord_x: u32,
    /// Source node y coordinate.
    pub(crate) coord_y: u32,
    /// Source node z coordinate.
    pub(crate) coord_z: u32,
    /// Direction: `"x+"`, `"x-"`, `"y+"`, `"y-"`, `"z+"`, `"z-"`.
    pub dim: String,
    /// Busy (serialization) seconds.
    pub busy: f64,
    /// Busy seconds / simulated run end.
    pub(crate) util: f64,
}

/// How many hottest links [`LinkUtil::top`] lists.
const TOP_LINKS: usize = 8;
/// How many critical-path ranks [`AnalysisReport::critical_ranks`] lists.
const TOP_RANKS: usize = 5;

fn decode_link(link: u32, dims: [u32; 3]) -> (u32, u32, u32, u32, String) {
    let node = link / 6;
    let rem = link % 6;
    let dim = rem / 2;
    let positive = rem.is_multiple_of(2);
    let (dx, dy) = (dims[0].max(1), dims[1].max(1));
    let x = node % dx;
    let y = (node / dx) % dy;
    let z = node / (dx * dy);
    let name = format!(
        "{}{}",
        ["x", "y", "z"][dim as usize % 3],
        if positive { "+" } else { "-" }
    );
    (node, x, y, z, name)
}

fn imbalance_of(busy: &[f64]) -> f64 {
    let active: Vec<f64> = busy.iter().copied().filter(|&b| b > 0.0).collect();
    if active.is_empty() {
        return 0.0;
    }
    let max = active.iter().copied().fold(0.0f64, f64::max);
    let mean = active.iter().sum::<f64>() / active.len() as f64;
    if mean > 0.0 {
        max / mean
    } else {
        0.0
    }
}

/// Computes the analysis from whatever was recorded. `last_end` is the
/// simulated end time of the run (denominator for link utilization).
pub(crate) fn compute(
    summary: &ObsSummary,
    timeline: Option<&Timeline>,
    net: Option<&NetDetail>,
    last_end: f64,
) -> AnalysisReport {
    // Per-nest aggregates come straight from the summary (available even
    // without a timeline), ratios from the summed per-nest time.
    let nest_time_total: f64 = summary.per_nest.iter().map(|n| n.time).sum();
    let mut per_nest: Vec<NestAnalysis> = summary
        .per_nest
        .iter()
        .enumerate()
        .map(|(i, n)| NestAnalysis {
            nest: i as u32,
            steps: n.steps,
            time: n.time,
            compute: n.compute,
            halo_wait: n.halo_wait,
            time_ratio: if nest_time_total > 0.0 {
                n.time / nest_time_total
            } else {
                0.0
            },
            imbalance: 0.0,
        })
        .collect();

    let mut overall_imbalance = 0.0;
    let mut critical_ranks = Vec::new();
    if let Some(tl) = timeline {
        let lanes = tl.lanes() as usize;
        if lanes > 0 && tl.frames() > 0 {
            // Whole-run per-lane busy totals.
            let mut busy = vec![0.0f64; lanes];
            // Per-nest per-lane compute (only frames attributed to one nest).
            let mut nest_busy: Vec<Vec<f64>> = per_nest.iter().map(|_| vec![0.0; lanes]).collect();
            let mut crit_counts: Vec<(u32, u64)> = Vec::new();
            for (fi, m) in tl.meta().iter().enumerate() {
                let c = tl.frame_compute(fi);
                let w = tl.frame_wait(fi);
                for l in 0..lanes {
                    busy[l] += c[l] as f64 + w[l] as f64;
                    if m.nest >= 0 {
                        if let Some(nb) = nest_busy.get_mut(m.nest as usize) {
                            nb[l] += c[l] as f64;
                        }
                    }
                }
                match crit_counts.iter_mut().find(|(r, _)| *r == m.crit_rank) {
                    Some((_, n)) => *n += 1,
                    None => crit_counts.push((m.crit_rank, 1)),
                }
            }
            overall_imbalance = imbalance_of(&busy);
            for (n, nb) in per_nest.iter_mut().zip(&nest_busy) {
                n.imbalance = imbalance_of(nb);
            }
            crit_counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            let total_frames = tl.frames() as f64;
            critical_ranks = crit_counts
                .into_iter()
                .take(TOP_RANKS)
                .map(|(rank, frames)| RankShare {
                    rank,
                    frames,
                    share: frames as f64 / total_frames,
                })
                .collect();
        }
    }

    let links = net.map(|net| {
        let span = if last_end > 0.0 { last_end } else { 1.0 };
        let nlinks = net.link_busy.len();
        let active = net.link_busy.iter().filter(|&&b| b > 0.0).count();
        let total: f64 = net.link_busy.iter().sum();
        let max = net.link_busy.iter().copied().fold(0.0f64, f64::max);
        let mut utils = LogHistogram::new();
        for &b in &net.link_busy {
            utils.record(b / span);
        }
        let mut order: Vec<u32> = (0..nlinks as u32).collect();
        order.sort_by(|&a, &b| {
            net.link_busy[b as usize]
                .partial_cmp(&net.link_busy[a as usize])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let top = order
            .into_iter()
            .take(TOP_LINKS)
            .filter(|&l| net.link_busy[l as usize] > 0.0)
            .map(|l| {
                let (node, x, y, z, dim) = decode_link(l, net.torus_dims);
                LinkLoad {
                    link: l,
                    node,
                    coord_x: x,
                    coord_y: y,
                    coord_z: z,
                    dim,
                    busy: net.link_busy[l as usize],
                    util: net.link_busy[l as usize] / span,
                }
            })
            .collect();
        LinkUtil {
            links: nlinks as u64,
            active_links: active as u64,
            total_busy: total,
            mean_util: if nlinks > 0 {
                total / span / nlinks as f64
            } else {
                0.0
            },
            max_util: max / span,
            p99_util: utils.quantile(0.99),
            top,
        }
    });

    AnalysisReport {
        overall_imbalance,
        per_nest,
        critical_ranks,
        links,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::TimelineConfig;
    use crate::NestBreakdown;

    fn summary_with_nests(times: &[f64]) -> ObsSummary {
        let mut s = ObsSummary::default();
        for &t in times {
            s.per_nest.push(NestBreakdown {
                steps: 10,
                time: t,
                compute: t * 0.8,
                halo_wait: t * 0.2,
            });
        }
        s
    }

    #[test]
    fn time_ratios_follow_per_nest_times() {
        let s = summary_with_nests(&[3.0, 1.0]);
        let r = compute(&s, None, None, 4.0);
        assert_eq!(r.per_nest.len(), 2);
        assert!((r.per_nest[0].time_ratio - 0.75).abs() < 1e-12);
        assert!((r.per_nest[1].time_ratio - 0.25).abs() < 1e-12);
        assert_eq!(r.overall_imbalance, 0.0, "no timeline, no imbalance");
        assert!(r.links.is_none());
    }

    #[test]
    fn imbalance_and_critical_ranks_from_timeline() {
        let s = summary_with_nests(&[1.0]);
        let mut tl = Timeline::new(TimelineConfig {
            max_frames: 8,
            max_ranks: 8,
        });
        // Rank 3 works 3×, ranks 0-2 work 1× — imbalance = 3 / 1.5 = 2.
        for step in 1..=4u64 {
            tl.record_step(
                4,
                step,
                0,
                step as f64,
                step as f64 + 3.0,
                0..4u32,
                |g| if g == 3 { 3.0 } else { 1.0 },
                |_| 0.0,
            );
        }
        let r = compute(&s, Some(&tl), None, 16.0);
        assert!((r.overall_imbalance - 2.0).abs() < 1e-6);
        assert!((r.per_nest[0].imbalance - 2.0).abs() < 1e-6);
        assert_eq!(r.critical_ranks[0].rank, 3);
        assert_eq!(r.critical_ranks[0].frames, 4);
        assert!((r.critical_ranks[0].share - 1.0).abs() < 1e-12);
    }

    #[test]
    fn link_util_decodes_hot_links() {
        let s = summary_with_nests(&[]);
        let mut net = NetDetail::new([2, 2, 2], 48);
        // Node 3 = (1,1,0); dim 1 (y), negative direction → link 3*6+1*2+1.
        net.link_busy[3 * 6 + 3] = 2.0;
        net.link_busy[0] = 0.5;
        net.msg_latency.record(1e-6);
        let r = compute(&s, None, Some(&net), 4.0);
        let links = r.links.expect("link detail present");
        assert_eq!(links.links, 48);
        assert_eq!(links.active_links, 2);
        assert!((links.total_busy - 2.5).abs() < 1e-12);
        assert!((links.max_util - 0.5).abs() < 1e-12);
        let hot = &links.top[0];
        assert_eq!(hot.link, 21);
        assert_eq!(hot.node, 3);
        assert_eq!((hot.coord_x, hot.coord_y, hot.coord_z), (1, 1, 0));
        assert_eq!(hot.dim, "y-");
        assert!((hot.util - 0.5).abs() < 1e-12);
        // Second entry is link 0 = node 0, x+.
        assert_eq!(links.top[1].link, 0);
        assert_eq!(links.top[1].dim, "x+");
    }
}
