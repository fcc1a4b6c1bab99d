//! Bounded-memory per-rank timelines.
//!
//! A [`Timeline`] stores, per recorded step and per sampled rank, the
//! compute and halo-wait seconds of that rank in that step, in a
//! columnar layout (`frames × lanes` of `f32`). Two policies bound memory
//! regardless of run length or machine size:
//!
//! * **Rank sampling:** when the machine has more ranks than
//!   `MAX_RANKS` (256), only every `rank_stride`-th rank gets a
//!   lane. Critical-path attribution still sees *every* active rank — only
//!   the per-rank columns are sampled.
//! * **Step decimation:** when the frame buffer reaches
//!   `MAX_FRAMES` (4096), adjacent frames are merged pairwise in
//!   place and the per-frame step stride doubles, so a 10k-step run costs
//!   the same memory as a 100-step run at coarser time resolution.
//!
//! Recording is purely additive — producers hand in values they already
//! computed — so an attached timeline cannot perturb simulation results.

/// Frame-buffer capacity (even); reaching it halves the time resolution.
const MAX_FRAMES: usize = 4096;
/// Maximum per-rank lanes; more ranks than this are stride-sampled.
const MAX_RANKS: usize = 256;

/// Per-frame metadata (a frame covers `step_stride` consecutive recorded
/// steps once decimation has kicked in).
#[derive(Debug, Clone, PartialEq)]
pub struct FrameMeta {
    /// First recorded step in this frame (1-based producer counter).
    pub(crate) step_first: u64,
    /// Last recorded step in this frame.
    pub(crate) step_last: u64,
    /// Nest index of the frame's steps; `-1` for parent/lockstep steps and
    /// `i32::MIN` when merged steps disagree.
    pub nest: i32,
    /// Earliest step start (simulated seconds).
    pub start: f64,
    /// Latest step end (simulated seconds).
    pub end: f64,
    /// Critical-path rank: the rank with the largest compute + wait in any
    /// single step of the frame (over *all* active ranks, not just sampled
    /// lanes).
    pub crit_rank: u32,
    /// That rank's busy (compute + wait) seconds in its step.
    pub(crate) crit_busy: f64,
}

/// Columnar per-rank step timeline with bounded memory.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// `MAX_FRAMES` and `MAX_RANKS` outside this module's tests.
    max_frames: usize,
    max_ranks: usize,
    /// Total ranks of the producer (0 until the first record).
    nranks: u32,
    /// Every `rank_stride`-th rank gets a lane.
    rank_stride: u32,
    /// Sampled lanes (`ceil(nranks / rank_stride)`).
    lanes: u32,
    /// Recorded steps per frame (doubles on each decimation).
    step_stride: u64,
    /// Steps accumulated into the open tail frame (0 = closed).
    open_steps: u64,
    /// Total steps recorded.
    recorded_steps: u64,
    /// Times the buffer was decimated.
    decimations: u32,
    /// `frames × lanes`, frame-major: compute seconds.
    compute: Vec<f32>,
    /// `frames × lanes`: halo-wait seconds.
    wait: Vec<f32>,
    meta: Vec<FrameMeta>,
}

impl Timeline {
    /// [`FrameMeta::nest`] value for decimated frames whose merged steps
    /// belonged to different nests.
    pub(crate) const MIXED_NEST: i32 = i32::MIN;

    /// An empty timeline; lanes are sized on the first recorded step.
    pub(crate) fn new() -> Timeline {
        Timeline {
            max_frames: MAX_FRAMES,
            max_ranks: MAX_RANKS,
            nranks: 0,
            rank_stride: 1,
            lanes: 0,
            step_stride: 1,
            open_steps: 0,
            recorded_steps: 0,
            decimations: 0,
            compute: Vec::new(),
            wait: Vec::new(),
            meta: Vec::new(),
        }
    }

    fn init(&mut self, nranks: u32) {
        let nranks = nranks.max(1);
        self.nranks = nranks;
        self.rank_stride = nranks.div_ceil(self.max_ranks as u32).max(1);
        self.lanes = nranks.div_ceil(self.rank_stride);
    }

    /// Records one step: `active` yields the global ranks that took part,
    /// `compute_of`/`wait_of` return each rank's compute and halo-wait
    /// seconds. `nranks` is the producer's total rank count (fixed for the
    /// timeline's lifetime; the first call sizes the lanes).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_step<I, C, W>(
        &mut self,
        nranks: u32,
        step: u64,
        nest: i32,
        start: f64,
        end: f64,
        active: I,
        compute_of: C,
        wait_of: W,
    ) where
        I: IntoIterator<Item = u32>,
        C: Fn(u32) -> f64,
        W: Fn(u32) -> f64,
    {
        if self.nranks == 0 {
            self.init(nranks);
        }
        debug_assert_eq!(nranks.max(1), self.nranks, "rank count changed mid-run");
        let lanes = self.lanes as usize;
        if self.open_steps == 0 {
            if self.meta.len() >= self.max_frames {
                self.decimate();
            }
            self.meta.push(FrameMeta {
                step_first: step,
                step_last: step,
                nest,
                start,
                end,
                crit_rank: 0,
                crit_busy: f64::NEG_INFINITY,
            });
            let len = self.meta.len() * lanes;
            self.compute.resize(len, 0.0);
            self.wait.resize(len, 0.0);
        }
        let fi = self.meta.len() - 1;
        let base = fi * lanes;
        {
            let m = &mut self.meta[fi];
            m.step_last = step;
            if m.nest != nest {
                m.nest = Self::MIXED_NEST;
            }
            m.start = m.start.min(start);
            m.end = m.end.max(end);
        }
        let mut crit_rank = self.meta[fi].crit_rank;
        let mut crit_busy = self.meta[fi].crit_busy;
        for g in active {
            let c = compute_of(g);
            let w = wait_of(g);
            let busy = c + w;
            if busy > crit_busy {
                crit_busy = busy;
                crit_rank = g;
            }
            if g % self.rank_stride == 0 {
                let lane = (g / self.rank_stride) as usize;
                if lane < lanes {
                    let idx = base + lane;
                    self.compute[idx] += c as f32;
                    self.wait[idx] += w as f32;
                }
            }
        }
        self.meta[fi].crit_rank = crit_rank;
        self.meta[fi].crit_busy = crit_busy;
        self.recorded_steps += 1;
        self.open_steps += 1;
        if self.open_steps >= self.step_stride {
            self.open_steps = 0;
        }
    }

    /// Merges adjacent frame pairs in place and doubles the step stride.
    fn decimate(&mut self) {
        let lanes = self.lanes as usize;
        let pairs = self.meta.len() / 2;
        for i in 0..pairs {
            let (a, b) = (2 * i, 2 * i + 1);
            let (ma, mb) = (self.meta[a].clone(), self.meta[b].clone());
            let (crit_rank, crit_busy) = if ma.crit_busy >= mb.crit_busy {
                (ma.crit_rank, ma.crit_busy)
            } else {
                (mb.crit_rank, mb.crit_busy)
            };
            self.meta[i] = FrameMeta {
                step_first: ma.step_first,
                step_last: mb.step_last,
                nest: if ma.nest == mb.nest {
                    ma.nest
                } else {
                    Self::MIXED_NEST
                },
                start: ma.start.min(mb.start),
                end: ma.end.max(mb.end),
                crit_rank,
                crit_busy,
            };
            for l in 0..lanes {
                self.compute[i * lanes + l] =
                    self.compute[a * lanes + l] + self.compute[b * lanes + l];
                self.wait[i * lanes + l] = self.wait[a * lanes + l] + self.wait[b * lanes + l];
            }
        }
        // `max_frames` is even, so no odd tail frame survives a decimation.
        self.meta.truncate(pairs);
        let len = pairs * lanes;
        self.compute.truncate(len);
        self.wait.truncate(len);
        self.step_stride *= 2;
        self.decimations += 1;
    }

    /// Frames currently held.
    pub fn frames(&self) -> usize {
        self.meta.len()
    }

    /// Sampled per-rank lanes.
    pub fn lanes(&self) -> u32 {
        self.lanes
    }

    /// The producer's total rank count (0 before the first record).
    pub fn nranks(&self) -> u32 {
        self.nranks
    }

    /// Every `rank_stride`-th rank gets a lane.
    pub(crate) fn rank_stride(&self) -> u32 {
        self.rank_stride
    }

    /// Recorded steps covered by one frame.
    pub(crate) fn step_stride(&self) -> u64 {
        self.step_stride
    }

    /// Times the frame buffer was decimated (halved).
    pub(crate) fn decimations(&self) -> u32 {
        self.decimations
    }

    /// Total steps recorded (all retained: decimation merges, never drops).
    pub fn recorded_steps(&self) -> u64 {
        self.recorded_steps
    }

    /// Per-frame metadata, oldest first.
    pub fn meta(&self) -> &[FrameMeta] {
        &self.meta
    }

    /// Per-lane compute seconds of one frame.
    pub fn frame_compute(&self, frame: usize) -> &[f32] {
        let l = self.lanes as usize;
        &self.compute[frame * l..(frame + 1) * l]
    }

    /// Per-lane halo-wait seconds of one frame.
    pub fn frame_wait(&self, frame: usize) -> &[f32] {
        let l = self.lanes as usize;
        &self.wait[frame * l..(frame + 1) * l]
    }

    /// Forgets everything recorded; lanes re-size on the next record.
    pub(crate) fn clear(&mut self) {
        *self = Timeline {
            max_frames: self.max_frames,
            max_ranks: self.max_ranks,
            ..Timeline::new()
        };
    }

    /// An empty timeline with small bounds (`max_frames` even), so tests
    /// reach decimation and rank sampling in a few steps.
    #[cfg(test)]
    pub(crate) fn with_bounds(max_frames: usize, max_ranks: usize) -> Timeline {
        Timeline {
            max_frames,
            max_ranks,
            ..Timeline::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_uniform(tl: &mut Timeline, nranks: u32, steps: u64) {
        for s in 1..=steps {
            tl.record_step(
                nranks,
                s,
                (s % 3) as i32 - 1,
                s as f64,
                s as f64 + 1.0,
                0..nranks,
                |g| 0.25 + g as f64 * 0.01,
                |g| 0.1 + g as f64 * 0.001,
            );
        }
    }

    #[test]
    fn records_per_rank_columns() {
        let mut tl = Timeline::with_bounds(16, 8);
        tl.record_step(4, 1, 0, 0.0, 1.0, 0..4u32, |g| g as f64, |g| 0.5 * g as f64);
        assert_eq!(tl.frames(), 1);
        assert_eq!(tl.lanes(), 4);
        assert_eq!(tl.rank_stride(), 1);
        assert_eq!(tl.frame_compute(0), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(tl.frame_wait(0), &[0.0, 0.5, 1.0, 1.5]);
        let m = &tl.meta()[0];
        assert_eq!(m.crit_rank, 3, "rank 3 has the largest compute+wait");
        assert_eq!(m.nest, 0);
    }

    #[test]
    fn decimation_bounds_frames_and_preserves_totals() {
        let mut tl = Timeline::with_bounds(8, 4);
        record_uniform(&mut tl, 2, 100);
        assert_eq!(tl.recorded_steps(), 100);
        assert!(tl.frames() <= 8, "frames {} exceed cap", tl.frames());
        assert!(tl.decimations() >= 4);
        assert!(tl.step_stride() >= 16);
        // Every recorded step is covered exactly once.
        let covered: u64 = tl
            .meta()
            .iter()
            .map(|m| m.step_last - m.step_first + 1)
            .sum();
        assert_eq!(covered, 100);
        let mut prev_end = 0;
        for m in tl.meta() {
            assert_eq!(m.step_first, prev_end + 1, "frames must tile the run");
            prev_end = m.step_last;
        }
        // Column sums survive decimation: rank 0 computes 0.25 per step.
        let total_c: f32 = (0..tl.frames()).map(|f| tl.frame_compute(f)[0]).sum();
        assert!((total_c - 25.0).abs() < 1e-3, "compute sum {total_c}");
        // Merged frames spanning different nests carry the mixed marker.
        assert!(tl.meta().iter().any(|m| m.nest == Timeline::MIXED_NEST));
    }

    #[test]
    fn rank_sampling_strides_lanes() {
        let mut tl = Timeline::with_bounds(4, 4);
        tl.record_step(16, 1, -1, 0.0, 1.0, 0..16u32, |_| 1.0, |g| g as f64);
        assert_eq!(tl.rank_stride(), 4);
        assert_eq!(tl.lanes(), 4);
        assert_eq!(tl.frame_wait(0), &[0.0, 4.0, 8.0, 12.0]);
        // The critical rank is found among unsampled ranks too.
        assert_eq!(tl.meta()[0].crit_rank, 15);
    }

    #[test]
    fn subset_active_ranks_leave_other_lanes_zero() {
        let mut tl = Timeline::with_bounds(4, 8);
        tl.record_step(8, 1, 2, 0.0, 1.0, 4..8u32, |_| 0.5, |_| 0.25);
        assert_eq!(tl.frame_compute(0)[..4], [0.0; 4]);
        assert_eq!(tl.frame_compute(0)[4..], [0.5; 4]);
        assert_eq!(tl.meta()[0].nest, 2);
    }

    #[test]
    fn clear_resets_and_resizes_on_next_run() {
        let mut tl = Timeline::with_bounds(4, 8);
        record_uniform(&mut tl, 4, 10);
        tl.clear();
        assert_eq!(tl.frames(), 0);
        assert_eq!(tl.recorded_steps(), 0);
        tl.record_step(2, 1, -1, 0.0, 1.0, 0..2u32, |_| 1.0, |_| 0.0);
        assert_eq!(tl.lanes(), 2);
    }
}
