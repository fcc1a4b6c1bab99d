//! Fixed-capacity ring buffer for [`StepMetrics`] records.
//!
//! The recorder keeps the most recent `capacity` steps; older records are
//! overwritten (and counted in [`StepRing::dropped`]) so a long simulation
//! can stay under a fixed memory budget while the aggregate totals in
//! [`crate::ObsSummary`] still cover the whole run.

use crate::StepMetrics;

/// Ring buffer of the most recent step records.
#[derive(Debug, Clone)]
pub struct StepRing {
    buf: Vec<StepMetrics>,
    cap: usize,
    /// Next write position.
    head: usize,
    /// Records dropped because the ring was full.
    dropped: u64,
}

impl StepRing {
    /// An empty ring holding at most `capacity` records (minimum 1).
    pub(crate) fn new(capacity: usize) -> StepRing {
        let cap = capacity.max(1);
        StepRing {
            buf: Vec::with_capacity(cap.min(1024)),
            cap,
            head: 0,
            dropped: 0,
        }
    }

    /// Appends a record, overwriting the oldest once full.
    pub(crate) fn push(&mut self, m: StepMetrics) {
        if self.buf.len() < self.cap {
            self.buf.push(m);
        } else {
            self.buf[self.head] = m;
            self.dropped += 1;
        }
        self.head = (self.head + 1) % self.cap;
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no records are held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum records held.
    pub(crate) fn capacity(&self) -> usize {
        self.cap
    }

    /// Records overwritten so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates records oldest → newest.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &StepMetrics> {
        let split = if self.buf.len() < self.cap {
            0
        } else {
            self.head
        };
        self.buf[split..].iter().chain(self.buf[..split].iter())
    }

    /// The records oldest → newest as a vector.
    pub(crate) fn to_vec(&self) -> Vec<StepMetrics> {
        self.iter().cloned().collect()
    }

    /// Forgets every record (capacity is kept).
    pub(crate) fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StepPhase;

    fn m(step: u64) -> StepMetrics {
        StepMetrics {
            step,
            phase: StepPhase::Parent,
            nest: -1,
            domains: 1,
            start: step as f64,
            end: step as f64 + 1.0,
            compute: 0.0,
            halo_wait: 0.0,
            bytes: 0.0,
            messages: 0,
            transfers: 0,
            hops: 0,
            stall: 0.0,
        }
    }

    #[test]
    fn keeps_most_recent_in_order() {
        let mut r = StepRing::new(3);
        for s in 1..=5 {
            r.push(m(s));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let steps: Vec<u64> = r.iter().map(|x| x.step).collect();
        assert_eq!(steps, vec![3, 4, 5]);
    }

    #[test]
    fn below_capacity_keeps_all() {
        let mut r = StepRing::new(8);
        for s in 1..=3 {
            r.push(m(s));
        }
        assert_eq!(r.dropped(), 0);
        let steps: Vec<u64> = r.iter().map(|x| x.step).collect();
        assert_eq!(steps, vec![1, 2, 3]);
    }

    #[test]
    fn clear_resets() {
        let mut r = StepRing::new(2);
        r.push(m(1));
        r.push(m(2));
        r.push(m(3));
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
        r.push(m(9));
        assert_eq!(r.to_vec()[0].step, 9);
    }
}
