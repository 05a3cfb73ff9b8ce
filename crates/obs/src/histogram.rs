//! HDR-style log-linear latency histogram.
//!
//! Values (durations, recorded as nanoseconds) are bucketed into
//! logarithmic tiers of [`SUB_BUCKETS`] linear sub-buckets each, the
//! layout HdrHistogram popularized: constant *relative* error (here
//! ≤ 1/32 ≈ 3.1%) across the whole trackable range instead of constant
//! absolute error. Recording is a single relaxed `fetch_add` on one
//! bucket plus min/max maintenance — no locks, safe to hammer from
//! every shard thread of the router's fan-out.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Linear sub-buckets per logarithmic tier (2^5 → ≤ 3.1% relative error).
pub const SUB_BUCKETS: u64 = 32;
const SUB_BITS: u32 = 5;

/// Highest trackable value: ~18.3 minutes in nanoseconds. Larger
/// recordings clamp into the last bucket and count as saturated.
pub const MAX_TRACKABLE_NANOS: u64 = 1 << 40;

/// Tiers: values below `SUB_BUCKETS` are identity-mapped (tier 0);
/// every further power of two above `2^SUB_BITS` adds one tier.
const TIERS: usize = (40 - SUB_BITS as usize) + 1;
const BUCKETS: usize = TIERS * SUB_BUCKETS as usize;

/// A fixed-footprint latency histogram with lock-free recording.
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum_nanos: AtomicU64,
    max_nanos: AtomicU64,
    min_nanos: AtomicU64,
    saturated: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: Box::new([const { AtomicU64::new(0) }; BUCKETS]),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
            min_nanos: AtomicU64::new(u64::MAX),
            saturated: AtomicU64::new(0),
        }
    }

    /// Record one duration. Values above [`MAX_TRACKABLE_NANOS`] clamp
    /// into the top bucket (and count in `saturated`); the true sum and
    /// max still reflect the unclamped value.
    pub fn record(&self, d: Duration) {
        let nanos = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        let clamped = if nanos >= MAX_TRACKABLE_NANOS {
            self.saturated.fetch_add(1, Ordering::Relaxed);
            MAX_TRACKABLE_NANOS - 1
        } else {
            nanos
        };
        self.buckets[bucket_index(clamped)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
        self.min_nanos.fetch_min(nanos, Ordering::Relaxed);
    }

    /// Record one dimensionless value (a count, a size) by reusing the
    /// nanosecond bucket lattice: a value of `n` lands where a duration
    /// of `n` ns would. Readouts come back as [`Duration`]s whose
    /// `as_nanos()` is the value — see
    /// [`HistogramSnapshot::value_percentiles`].
    pub fn record_value(&self, v: u64) {
        self.record(Duration::from_nanos(v));
    }

    /// Recordings so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Recordings that exceeded [`MAX_TRACKABLE_NANOS`].
    pub fn saturated(&self) -> u64 {
        self.saturated.load(Ordering::Relaxed)
    }

    /// Largest recorded value (zero when empty).
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_nanos.load(Ordering::Relaxed))
    }

    /// Smallest recorded value (zero when empty).
    pub fn min(&self) -> Duration {
        let v = self.min_nanos.load(Ordering::Relaxed);
        Duration::from_nanos(if v == u64::MAX { 0 } else { v })
    }

    /// Arithmetic mean of recordings (zero when empty).
    pub fn mean(&self) -> Duration {
        let n = self.count();
        if n == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.sum_nanos.load(Ordering::Relaxed) / n)
    }

    /// The value at quantile `q` (clamped to `[0, 1]`); zero when
    /// empty. Returns the matching bucket's midpoint, clamped into the
    /// observed `[min, max]` so a single sample reports exactly.
    pub fn percentile(&self, q: f64) -> Duration {
        let total = self.count();
        if total == 0 {
            return Duration::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based rank of the sample the quantile lands on.
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                let mid = bucket_low(idx) + bucket_width(idx) / 2;
                let lo = self.min_nanos.load(Ordering::Relaxed);
                let hi = self.max_nanos.load(Ordering::Relaxed);
                // `lo > hi` only transiently, mid-record on another
                // thread; report the raw midpoint then.
                let v = if lo <= hi { mid.clamp(lo, hi) } else { mid };
                return Duration::from_nanos(v);
            }
        }
        self.max()
    }

    /// Fold another histogram's recordings into this one.
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let v = theirs.load(Ordering::Relaxed);
            if v > 0 {
                mine.fetch_add(v, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum_nanos
            .fetch_add(other.sum_nanos.load(Ordering::Relaxed), Ordering::Relaxed);
        self.saturated
            .fetch_add(other.saturated.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max_nanos
            .fetch_max(other.max_nanos.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min_nanos
            .fetch_min(other.min_nanos.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Reset to empty.
    pub fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_nanos.store(0, Ordering::Relaxed);
        self.max_nanos.store(0, Ordering::Relaxed);
        self.min_nanos.store(u64::MAX, Ordering::Relaxed);
        self.saturated.store(0, Ordering::Relaxed);
    }

    /// A point-in-time summary (the percentile set the evaluation
    /// section and `BENCH_*.json` report).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            saturated: self.saturated(),
            p50: self.percentile(0.50),
            p95: self.percentile(0.95),
            p99: self.percentile(0.99),
            mean: self.mean(),
            min: self.min(),
            max: self.max(),
            sum: Duration::from_nanos(self.sum_nanos.load(Ordering::Relaxed)),
        }
    }
}

/// Summary statistics of a [`Histogram`] at one instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Recordings.
    pub count: u64,
    /// Recordings clamped at the trackable maximum.
    pub saturated: u64,
    /// Median.
    pub p50: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// Arithmetic mean.
    pub mean: Duration,
    /// Smallest recording.
    pub min: Duration,
    /// Largest recording.
    pub max: Duration,
    /// Sum of all recordings.
    pub sum: Duration,
}

impl HistogramSnapshot {
    /// Read a value histogram (recorded via
    /// [`Histogram::record_value`]) back as dimensionless numbers:
    /// `(p50, p95, p99, mean, max)`.
    pub fn value_percentiles(&self) -> (u64, u64, u64, u64, u64) {
        let n = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        (
            n(self.p50),
            n(self.p95),
            n(self.p99),
            n(self.mean),
            n(self.max),
        )
    }
}

/// Bucket index for a clamped nanosecond value.
fn bucket_index(nanos: u64) -> usize {
    if nanos < SUB_BUCKETS {
        return nanos as usize;
    }
    let msb = 63 - nanos.leading_zeros();
    let tier = (msb - SUB_BITS + 1) as usize;
    let sub = ((nanos >> (msb - SUB_BITS)) & (SUB_BUCKETS - 1)) as usize;
    tier * SUB_BUCKETS as usize + sub
}

/// Lowest value mapping into bucket `idx`.
fn bucket_low(idx: usize) -> u64 {
    let tier = idx as u64 / SUB_BUCKETS;
    let sub = idx as u64 % SUB_BUCKETS;
    if tier == 0 {
        sub
    } else {
        (SUB_BUCKETS + sub) << (tier - 1)
    }
}

/// Width of bucket `idx` (number of distinct values mapping into it).
fn bucket_width(idx: usize) -> u64 {
    let tier = idx as u64 / SUB_BUCKETS;
    if tier == 0 {
        1
    } else {
        1 << (tier - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.5), Duration::ZERO);
        assert_eq!(h.percentile(0.99), Duration::ZERO);
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.min(), Duration::ZERO);
        assert_eq!(h.max(), Duration::ZERO);
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50, Duration::ZERO);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let h = Histogram::new();
        let v = Duration::from_micros(137);
        h.record(v);
        // Midpoint clamps into [min, max] = [v, v]: exact.
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.percentile(q), v, "q={q}");
        }
        assert_eq!(h.mean(), v);
        assert_eq!(h.min(), v);
        assert_eq!(h.max(), v);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn percentiles_are_monotone_and_accurate() {
        let h = Histogram::new();
        for us in 1..=1_000u64 {
            h.record(Duration::from_micros(us));
        }
        let p50 = h.percentile(0.50).as_nanos() as f64;
        let p95 = h.percentile(0.95).as_nanos() as f64;
        let p99 = h.percentile(0.99).as_nanos() as f64;
        assert!(p50 <= p95 && p95 <= p99);
        // Log-linear layout guarantees ≤ 1/32 relative error, plus one
        // sub-bucket of rank rounding slack.
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.10, "p50={p50}");
        assert!((p95 - 950_000.0).abs() / 950_000.0 < 0.10, "p95={p95}");
        assert!((p99 - 990_000.0).abs() / 990_000.0 < 0.10, "p99={p99}");
    }

    #[test]
    fn saturation_clamps_but_keeps_true_max() {
        let h = Histogram::new();
        let huge = Duration::from_secs(3_600); // over the ~18 min limit
        h.record(huge);
        h.record(Duration::from_millis(1));
        assert_eq!(h.saturated(), 1);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), huge, "max is unclamped");
        // The saturated sample still lands in the top bucket, so the
        // tail percentile reports the trackable ceiling, not garbage.
        let p99 = h.percentile(0.99).as_nanos() as u64;
        assert!(p99 >= MAX_TRACKABLE_NANOS / 2);
        assert!(u128::from(p99) <= huge.as_nanos());
    }

    #[test]
    fn identity_range_is_exact() {
        // Values below SUB_BUCKETS ns map 1:1 to buckets.
        for v in 0..SUB_BUCKETS {
            let idx = bucket_index(v);
            assert_eq!(idx as u64, v);
            assert_eq!(bucket_low(idx), v);
            assert_eq!(bucket_width(idx), 1);
        }
    }

    #[test]
    fn bucket_mapping_is_monotone_and_tight() {
        let values: std::collections::BTreeSet<u64> = (0..40)
            .flat_map(|exp| [0u64, 1, 3].map(|off| (1u64 << exp) + off))
            .filter(|&v| v < MAX_TRACKABLE_NANOS)
            .collect();
        let mut prev = 0usize;
        for v in values {
            let idx = bucket_index(v);
            assert!(idx >= prev, "bucket index must not decrease at {v}");
            prev = idx;
            let lo = bucket_low(idx);
            let w = bucket_width(idx);
            assert!(lo <= v && v < lo + w, "v={v} idx={idx} lo={lo} w={w}");
        }
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(Duration::from_micros(10));
        b.record(Duration::from_micros(1_000));
        b.record(Duration::from_secs(7_200)); // saturates
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.saturated(), 1);
        assert_eq!(a.min(), Duration::from_micros(10));
        assert_eq!(a.max(), Duration::from_secs(7_200));
    }

    #[test]
    fn merged_percentiles_match_recording_the_union() {
        // Per-shard histograms merged into a cluster-wide one must
        // report the same percentiles as one histogram fed the union
        // of samples: merge is bucket-wise addition over identical
        // bucketing, so the equality is exact, not approximate.
        let a = Histogram::new();
        let b = Histogram::new();
        let union = Histogram::new();
        let samples_a: Vec<u64> = (1..=60).map(|i| i * 37).collect(); // 37us..2.2ms
        let samples_b: Vec<u64> = (1..=40).map(|i| i * i * 11 + 5).collect(); // 16us..17.6ms
        for &us in &samples_a {
            a.record(Duration::from_micros(us));
            union.record(Duration::from_micros(us));
        }
        for &us in &samples_b {
            b.record(Duration::from_micros(us));
            union.record(Duration::from_micros(us));
        }
        a.merge(&b);
        for p in [0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(a.percentile(p), union.percentile(p), "p{}", p * 100.0);
        }
        assert_eq!(a.count(), union.count());
        assert_eq!(a.mean(), union.mean());
        assert_eq!(a.min(), union.min());
        assert_eq!(a.max(), union.max());
    }

    #[test]
    fn reset_clears_everything() {
        let h = Histogram::new();
        h.record(Duration::from_millis(5));
        h.record(Duration::from_secs(4_000));
        h.reset();
        assert!(h.is_empty());
        assert_eq!(h.saturated(), 0);
        assert_eq!(h.max(), Duration::ZERO);
        assert_eq!(h.percentile(0.5), Duration::ZERO);
        // And it keeps working after the reset.
        h.record(Duration::from_millis(2));
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..1_000u64 {
                        h.record(Duration::from_nanos(i * (t + 1)));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 4_000);
    }
}
