//! Order statistics over raw samples (no histogram buckets: the harness
//! keeps every sample, so percentiles are exact).

/// Median of `values` (mean of the two middle values for even counts).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Median wall time of `rounds` calls of `f`, in µs — how the probes of
/// the traced run time one layer function on its own.
pub fn median_time_us(rounds: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..rounds)
        .map(|_| {
            let t0 = std::time::Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

pub fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

/// Nearest-rank position (1-based) of the `q`-quantile among `n` samples.
/// Whole per-mille arithmetic: `(1.0 - 0.9) * 100.0` is 9.99… in floating point.
fn rank(n: usize, q: f64) -> usize {
    let per_mille = (q * 1000.0).round() as usize;
    (n * per_mille).div_ceil(1000).clamp(1, n.max(1))
}

/// The `q`-quantile (nearest-rank) of an ascending-sorted slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// Percentiles a tail metric may fall back through, highest first.
const LADDER: [f64; 3] = [0.99, 0.90, 0.50];

/// The highest percentile not above `wanted` that still has at least ten
/// samples beyond it — a percentile with fewer is the maximum in disguise.
pub fn pick_percentile(samples: usize, wanted: f64) -> f64 {
    for &q in &LADDER {
        if q <= wanted && samples >= rank(samples, q) + 10 {
            return q;
        }
    }
    0.50
}

/// Median and tail of a latency sample set.
pub struct Latency {
    pub count: usize,
    pub p50: f64,
    /// The percentile actually reported (see [`pick_percentile`]).
    pub tail_q: f64,
    pub tail: f64,
    pub max: f64,
}

pub fn latency(samples: &mut [f64], wanted_tail: f64) -> Latency {
    samples.sort_by(f64::total_cmp);
    let tail_q = pick_percentile(samples.len(), wanted_tail);
    Latency {
        count: samples.len(),
        p50: quantile_sorted(samples, 0.50),
        tail_q,
        tail: quantile_sorted(samples, tail_q),
        max: samples.last().copied().unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.50), 50.0);
        assert_eq!(quantile_sorted(&v, 0.90), 90.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert_eq!(quantile_sorted(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 keeps 1% beyond it: 1000 samples is the first count with ten.
        assert_eq!(pick_percentile(999, 0.99), 0.90);
        assert_eq!(pick_percentile(1000, 0.99), 0.99);
        // p90 keeps 10%: 100 samples.
        assert_eq!(pick_percentile(99, 0.99), 0.50);
        assert_eq!(pick_percentile(100, 0.90), 0.90);
        // Never reports above what the workload declared.
        assert_eq!(pick_percentile(1_000_000, 0.90), 0.90);
        assert_eq!(pick_percentile(0, 0.99), 0.50);
    }

    #[test]
    fn latency_reports_the_picked_percentile() {
        let mut v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let l = latency(&mut v, 0.99);
        assert_eq!(
            (l.count, l.p50, l.tail_q, l.tail, l.max),
            (200, 100.0, 0.90, 180.0, 200.0)
        );
    }
}
