//! Fixed-bucket log-scale histograms for latency-like quantities.
//!
//! Every [`LogHistogram`] uses the *same* bucket layout — bucket 0 for
//! values below [`LogHistogram::MIN_EDGE`], then 63 logarithmically spaced
//! buckets up to [`LogHistogram::MAX_EDGE`] seconds, with everything above
//! saturating into the top bucket — so merging two histograms is a plain
//! element-wise add. Merge is therefore associative and the empty histogram
//! is its identity, which is what makes per-rank histograms reducible
//! across ranks (MPI_Reduce-style) without any renormalisation step.
//!
//! Quantiles come from the cumulative bucket counts and are reported as the
//! bucket's upper edge (clamped to the exact observed maximum), i.e. they
//! are conservative to within one bucket width (~5 buckets per decade).
//!
//! # How a sample finds its bucket
//!
//! The layout is *defined* by `1 + lg(v / MIN_EDGE) · 63 / 13`, truncated
//! (`lg` the base-10 logarithm) — but the detailed recorder tier takes one
//! sample per simulated message, and a libm logarithm each would be most
//! of what it costs, so [`LogHistogram::record`] does not evaluate one.
//! Positive finite `f64`s order like their bit patterns, so the formula is
//! stored as `EDGES`: for each bucket the smallest bit pattern the formula
//! sends there, found once by bisection over bit patterns. A sample's
//! bucket is the number of edges at or below its bits. Its top 15 bits
//! (sign, exponent, three mantissa bits) name an eighth of a binade; a
//! bucket spans 13·log2(10)/63 ≈ 0.69 binades, so at most one edge lies
//! inside an eighth, and `FIRST` (the bucket of each eighth's first value)
//! plus one comparison against the next edge is that count.
//!
//! The lookup is exact, not close: every `f64` lands in the bucket the
//! formula gives it, which the unit tests check against the formula itself
//! (kept there as the oracle). That is why the edges are the formula's own
//! and not `upper_edge`'s `powf` values, which sit up to 17 ulps away —
//! enough to move a sample that lies on an edge into the neighbouring
//! bucket.

use serde::Serialize;

/// Number of buckets (fixed for all histograms).
const BUCKETS: usize = 64;
/// Log-spaced buckets above bucket 0.
const LOG_BUCKETS: f64 = (BUCKETS - 1) as f64;
/// Decades spanned by the log-spaced buckets.
const DECADES: f64 = 13.0;

/// Bit pattern of each bucket's lower edge: the smallest `f64` the layout
/// formula (see the module docs) puts in bucket `i` or above. `EDGES[1]`
/// is [`LogHistogram::MIN_EDGE`]; bucket 0 takes everything below it.
/// These are the formula's values under the libm every locked result in
/// this repo was produced with; re-derive them rather than edit them.
#[rustfmt::skip]
const EDGES: [u64; BUCKETS] = [
    0x0000_0000_0000_0000, 0x3e11_2e0b_e826_d695, 0x3e1b_a116_5f7f_f947, 0x3e26_3796_e1dd_a444,
    0x3e31_dd7c_a9b8_df41, 0x3e3c_bb3c_96c8_cca4, 0x3e47_1a78_6c24_95ac, 0x3e52_93ed_0363_c855,
    0x3e5d_e0a4_1b7a_05d1, 0x3e68_0666_dddb_05a4, 0x3e73_51a4_6ce0_0c46, 0x3e7f_11bf_dd5f_dbcd,
    0x3e88_fbbe_a32d_8926, 0x3e94_16ed_37b9_a6aa, 0x3ea0_2783_b100_dadf, 0x3ea9_fadf_d819_e53e,
    0x3eb4_e414_ac6d_0c60, 0x3ec0_cc7b_79ba_2478, 0x3ecb_042e_6e15_4cb7, 0x3ed5_b96b_28ad_7141,
    0x3ee1_7807_e884_ec94, 0x3eec_1812_5333_1726, 0x3ef6_9744_3ee0_3778, 0x3f02_2a6c_30f9_d688,
    0x3f0d_36f7_9adb_4772, 0x3f17_7df6_d6d9_dd81, 0x3f22_e3ee_34f4_46ad, 0x3f2e_614e_a820_d592,
    0x3f38_6ddd_4fe9_3e5c, 0x3f43_a4d6_9ff2_76ee, 0x3f4f_978c_59c8_4fd5, 0x3f59_6755_a43e_791e,
    0x3f64_6d71_038d_1969, 0x3f70_6d15_1c08_0a42, 0x3f7a_6ac1_8dbb_5f65, 0x3f85_3e0b_f511_b0ba,
    0x3f91_14d3_5226_08c3, 0x3f9b_7886_ac3b_d569, 0x3fa6_16f9_2c4b_35ce, 0x3fb1_c342_8533_d890,
    0x3fbc_910e_ad65_234a, 0x3fc6_f88d_a385_1aaf, 0x3fd2_78a7_0a30_ac63, 0x3fdd_b4c7_760b_cff9,
    0x3fe7_e321_b8d5_34ed, 0x3ff3_3547_efe9_d286, 0x3ffe_e423_4d40_3d94, 0x4008_d711_50b9_9968,
    0x4013_f96f_1ad0_acc3, 0x4020_0fcc_8489_71a4, 0x4029_d4bb_fa17_f94a, 0x4034_c569_61ec_ebbe,
    0x4040_b3d2_1e90_d7b3, 0x404a_dc85_13ac_99a1, 0x4055_9986_acf6_627b, 0x4061_5e62_b580_665a,
    0x406b_eed3_f2f7_9128, 0x4076_761a_13a2_3e25, 0x4082_0fc1_1a48_e1ec, 0x408d_0c14_0cb7_89b5,
    0x4097_5b79_fe2f_e40f, 0x40a2_c832_c82e_573f, 0x40ae_34b5_1f01_e2a2, 0x40b8_4a00_4742_37c6,
];

/// Low bits dropped to get a sample's eighth-of-a-binade index.
const EIGHTH_SHIFT: u32 = 49;
/// Index of the eighth holding [`LogHistogram::MIN_EDGE`].
const FIRST_EIGHTH: usize = (EDGES[1] >> EIGHTH_SHIFT) as usize;
/// Eighths from `MIN_EDGE`'s through the top bucket's lower edge's.
const EIGHTHS: usize = (EDGES[BUCKETS - 1] >> EIGHTH_SHIFT) as usize - FIRST_EIGHTH + 1;

/// The bucket holding the first value of each eighth of a binade (bucket 0
/// for the eighth `MIN_EDGE` sits inside). Eighths are narrower than
/// buckets, so the rest of an eighth is in that bucket or the next — which
/// the build checks, edge by edge.
const FIRST: [u8; EIGHTHS] = {
    let mut first = [0u8; EIGHTHS];
    let mut bucket = 0;
    let mut k = 0;
    while k < EIGHTHS {
        let start = ((FIRST_EIGHTH + k) as u64) << EIGHTH_SHIFT;
        while bucket + 1 < BUCKETS && EDGES[bucket + 1] <= start {
            bucket += 1;
        }
        let next_start = start + (1 << EIGHTH_SHIFT);
        assert!(bucket + 2 >= BUCKETS || EDGES[bucket + 2] >= next_start);
        first[k] = bucket as u8;
        k += 1;
    }
    first
};

/// A mergeable histogram over positive seconds with a fixed log-scale
/// bucket layout. `min`/`max`/`sum` are tracked exactly; quantiles are
/// bucket-resolution approximations.
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Lower edge of bucket 1: values below land in bucket 0.
    pub const MIN_EDGE: f64 = 1e-9;
    /// Upper edge of the top bucket: values at or above saturate into it.
    pub const MAX_EDGE: f64 = 1e4;

    /// An empty histogram (the merge identity).
    pub fn new() -> LogHistogram {
        LogHistogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: 0.0,
        }
    }

    /// Bucket index for a value (non-positive and non-finite values count
    /// as zero seconds, bucket 0): a lookup in `FIRST` and one comparison
    /// against `EDGES`, see the module docs. The two range checks come
    /// first, so the table index is in bounds for every `f64`.
    fn bucket(v: f64) -> usize {
        if !(v.is_finite() && v >= Self::MIN_EDGE) {
            return 0;
        }
        let bits = v.to_bits();
        if bits >= EDGES[BUCKETS - 1] {
            return BUCKETS - 1;
        }
        let first = FIRST[(bits >> EIGHTH_SHIFT) as usize - FIRST_EIGHTH] as usize;
        first + usize::from(bits >= EDGES[first + 1])
    }

    /// Upper edge of a bucket, in seconds.
    fn upper_edge(i: usize) -> f64 {
        if i == 0 {
            Self::MIN_EDGE
        } else {
            Self::MIN_EDGE * 10f64.powf(i as f64 * DECADES / LOG_BUCKETS)
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: f64) {
        let x = if v.is_finite() && v > 0.0 { v } else { 0.0 };
        self.counts[Self::bucket(x)] += 1;
        self.count += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Records a wall-clock duration as seconds — the convenience the
    /// request-latency call sites use.
    pub fn record_duration(&mut self, d: std::time::Duration) {
        self.record(d.as_secs_f64());
    }

    /// Element-wise merge of another histogram into this one. Associative;
    /// merging an empty histogram is a no-op.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of recorded values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact minimum (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Exact maximum (0 when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The `q`-quantile (`0 < q <= 1`) at bucket resolution: the upper edge
    /// of the bucket holding the `ceil(q·count)`-th smallest value, clamped
    /// to the exact observed maximum. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return if i == BUCKETS - 1 {
                    // Saturated top bucket: the edge underestimates, the
                    // exact max is the best bound we have.
                    self.max
                } else {
                    Self::upper_edge(i).min(self.max)
                };
            }
        }
        self.max
    }

    /// The summary row (count, mean, p50/p90/p99, max) for reports.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count,
            mean: self.mean(),
            min: self.min(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            max: self.max(),
        }
    }

    /// Clears all recorded values.
    pub fn clear(&mut self) {
        *self = LogHistogram::new();
    }
}

/// Percentile summary of a [`LogHistogram`] (what the JSON export and the
/// report tables carry; the bucket array stays in memory).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct HistSummary {
    /// Values recorded.
    pub count: u64,
    /// Exact mean in seconds.
    pub mean: f64,
    /// Exact minimum in seconds.
    pub min: f64,
    /// Median, at bucket resolution.
    pub p50: f64,
    /// 90th percentile, at bucket resolution.
    pub p90: f64,
    /// 99th percentile, at bucket resolution.
    pub p99: f64,
    /// Exact maximum in seconds.
    pub max: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(values: &[f64]) -> LogHistogram {
        let mut h = LogHistogram::new();
        for &v in values {
            h.record(v);
        }
        h
    }

    /// The layout's defining formula: the oracle the table is held to.
    fn bucket_log10(v: f64) -> usize {
        if !(v.is_finite() && v >= LogHistogram::MIN_EDGE) {
            return 0;
        }
        let b = 1.0 + (v / LogHistogram::MIN_EDGE).log10() * (LOG_BUCKETS / DECADES);
        (b as usize).min(BUCKETS - 1)
    }

    #[track_caller]
    fn assert_same_bucket(v: f64) {
        assert_eq!(
            LogHistogram::bucket(v),
            bucket_log10(v),
            "{v:e} ({:#018x})",
            v.to_bits()
        );
    }

    #[test]
    fn table_lookup_is_the_log10_formula() {
        // Seeded log-uniform samples over 1e-10..1e5: both out-of-range
        // sides and every bucket (xorshift64, 53 random bits per value).
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut seen = [false; BUCKETS];
        for _ in 0..1_200_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
            let v = 10f64.powf(-10.0 + 15.0 * unit);
            assert_same_bucket(v);
            seen[LogHistogram::bucket(v)] = true;
        }
        assert!(seen.iter().all(|&s| s), "a bucket was never sampled");

        // Both sides of every edge …
        for &edge in &EDGES[1..] {
            for bits in edge - 3..=edge + 3 {
                assert_same_bucket(f64::from_bits(bits));
            }
        }
        // … and of every eighth-binade boundary the first-bucket table is
        // indexed by, from below MIN_EDGE to above MAX_EDGE.
        let eighths = LogHistogram::MAX_EDGE.to_bits() >> EIGHTH_SHIFT;
        for eighth in FIRST_EIGHTH as u64..=eighths + 1 {
            let start = eighth << EIGHTH_SHIFT;
            for bits in start - 3..=start + 3 {
                assert_same_bucket(f64::from_bits(bits));
            }
        }
        for v in [
            0.0,
            -0.0,
            -1.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0, // subnormal
            f64::MAX,
            1e-12,
            1e-9,
            1e4,
            1e9,
        ] {
            assert_same_bucket(v);
        }
        assert_eq!(LogHistogram::bucket(1e-9), 1);
        assert_eq!(LogHistogram::bucket(1e4), BUCKETS - 1);
    }

    #[test]
    fn edge_table_is_the_formulas_own() {
        assert_eq!(EDGES[0], 0);
        assert_eq!(f64::from_bits(EDGES[1]), LogHistogram::MIN_EDGE);
        assert!(EDGES.windows(2).all(|w| w[0] < w[1]), "edges must increase");
        for (i, &edge) in EDGES.iter().enumerate().skip(1) {
            // The smallest f64 the formula puts in bucket i …
            assert_eq!(bucket_log10(f64::from_bits(edge)), i);
            assert_eq!(bucket_log10(f64::from_bits(edge - 1)), i - 1);
            // … which is near, but not, the edge the quantiles report.
            let reported = LogHistogram::upper_edge(i - 1).to_bits();
            let ulps = reported.abs_diff(edge);
            assert!(ulps <= 32, "edge {i} is {ulps} ulps from upper_edge");
        }
    }

    #[test]
    fn merge_is_associative() {
        // Power-of-two values keep the float sums exact, so the merged
        // histograms compare bitwise equal either way around.
        let a = filled(&[0.5, 2.0, 64.0]);
        let b = filled(&[1e-6, 0.25]);
        let c = filled(&[4.0, 4.0, 1e-3]);
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
        assert_eq!(ab_c.count(), 8);
    }

    #[test]
    fn empty_merge_is_identity() {
        let a = filled(&[1e-4, 3.0, 0.02]);
        let mut merged = a.clone();
        merged.merge(&LogHistogram::new());
        assert_eq!(merged, a);
        // Identity from the left as well.
        let mut left = LogHistogram::new();
        left.merge(&a);
        assert_eq!(left, a);
    }

    #[test]
    fn top_bucket_saturates() {
        let mut h = LogHistogram::new();
        h.record(1e9); // far above MAX_EDGE
        h.record(7e3); // inside the top bucket (edges ~6.2e3 .. 1e4)
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 1e9, "max stays exact despite saturation");
        // Both land in the saturated bucket, so every quantile reports the
        // exact max rather than the (underestimating) bucket edge.
        assert_eq!(h.quantile(0.5), 1e9);
        assert_eq!(h.quantile(0.99), 1e9);
    }

    #[test]
    fn quantiles_bracket_values() {
        let mut values = vec![1e-5; 90];
        values.extend([1e-2; 10]);
        let h = filled(&values);
        // p50 must cover the small cluster, p99 the large one; bucket
        // resolution is ~5 buckets/decade, so allow a factor of 2.
        assert!(h.quantile(0.5) >= 1e-5 && h.quantile(0.5) < 2e-5);
        assert!(h.quantile(0.99) >= 1e-2 && h.quantile(0.99) <= h.max());
        assert!(h.quantile(0.5) <= h.quantile(0.9));
        assert!(h.quantile(0.9) <= h.quantile(0.99));
    }

    #[test]
    fn non_positive_and_tiny_values_land_in_bucket_zero() {
        let h = filled(&[0.0, -3.0, f64::NAN, 1e-12]);
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), 0.0);
        assert!(h.quantile(0.99) <= LogHistogram::MIN_EDGE);
        let s = h.summary();
        assert_eq!(s.count, 4);
        assert!(s.p50 <= LogHistogram::MIN_EDGE);
    }

    #[test]
    fn durations_record_as_seconds() {
        let mut h = LogHistogram::new();
        h.record_duration(std::time::Duration::from_millis(250));
        assert_eq!(h.count(), 1);
        assert!((h.sum() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn summary_of_empty_is_zeroed() {
        let s = LogHistogram::new().summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.p99, 0.0);
        assert_eq!(s.max, 0.0);
    }
}
