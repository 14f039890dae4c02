//! The sharded log-linear histogram and its RAII timing span.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Sub-bucket resolution: 2^3 = 8 linear sub-buckets per power-of-two
/// octave, bounding the relative quantile error at 1/8 = 12.5%.
const SUB_BITS: u32 = 3;
/// Values below 16 get one exact bucket each (error 0 where latencies
/// are so small that relative error would be meaningless).
const LINEAR_MAX: u64 = 1 << (SUB_BITS + 1);
/// Octaves covering the rest of the `u64` range: msb 4 through 63.
const OCTAVES: usize = 60;
/// Total fixed bucket count: 16 exact + 60 octaves × 8 sub-buckets.
pub const BUCKETS: usize = LINEAR_MAX as usize + OCTAVES * (1 << SUB_BITS);

/// Write shards: threads stripe across these so concurrent `record`
/// calls don't all contend one cache line. Merged at readout.
const SHARDS: usize = 8;

/// Maps a value to its bucket index. Total over `u64`, monotone, and
/// exact below `LINEAR_MAX`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let shift = msb - SUB_BITS;
        let sub = ((v >> shift) & ((1 << SUB_BITS) - 1)) as usize;
        LINEAR_MAX as usize + (msb - SUB_BITS - 1) as usize * (1 << SUB_BITS) + sub
    }
}

/// Inclusive `(lower, upper)` value range of bucket `idx` — the inverse
/// of [`bucket_index`]: every `v` in the range maps back to `idx`.
#[inline]
pub fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx < LINEAR_MAX as usize {
        (idx as u64, idx as u64)
    } else {
        let rel = idx - LINEAR_MAX as usize;
        let octave = (rel >> SUB_BITS) as u32;
        let sub = (rel & ((1 << SUB_BITS) - 1)) as u64;
        let shift = octave + 1;
        let lower = ((1 << SUB_BITS) + sub) << shift;
        (lower, lower + ((1u64 << shift) - 1))
    }
}

/// One write stripe: its own bucket array plus count/sum/max, all
/// relaxed atomics. Padding against false sharing is not attempted —
/// the bucket arrays themselves are ~4 KiB apart already.
struct Shard {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Round-robin shard assignment: each thread picks a stripe once and
/// keeps it for life, so a steady reader pool spreads evenly and a
/// thread's records never migrate mid-run.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);
thread_local! {
    static MY_SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS; // ord: shard assignment only needs uniqueness-ish spread; the modulo result is thread-local
}

/// A fixed-bucket log-linear histogram (HDR-style) for latency-scale
/// `u64` samples — nanoseconds by convention on timing paths, raw
/// counts elsewhere.
///
/// `record` is lock-free and wait-free on the caller's side: four
/// relaxed atomic RMWs on a thread-striped shard. Readout merges the
/// shards into a [`HistogramSnapshot`]; quantiles are nearest-rank over
/// the merged buckets and return the containing bucket's upper bound,
/// so the reported quantile is an upper estimate within one sub-bucket
/// (≤ 12.5% relative, exact below 16).
pub struct Histogram {
    shards: Box<[Shard]>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram { shards: (0..SHARDS).map(|_| Shard::new()).collect() }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        let shard = &self.shards[MY_SHARD.with(|s| *s)];
        shard.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed); // ord: per-shard tally; the snapshot merge tolerates in-flight skew by design
        shard.count.fetch_add(1, Ordering::Relaxed); // ord: per-shard tally; the snapshot merge tolerates in-flight skew by design
        shard.sum.fetch_add(v, Ordering::Relaxed); // ord: per-shard tally; the snapshot merge tolerates in-flight skew by design
        shard.max.fetch_max(v, Ordering::Relaxed); // ord: per-shard running max; commutative, no publication
    }

    /// Records a duration as nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Starts an RAII span that records its elapsed time into this
    /// histogram when dropped.
    pub fn span(&self) -> Span<'_> {
        Span { hist: self, start: Instant::now() }
    }

    /// Merges all shards into a point-in-time snapshot. Concurrent
    /// `record`s may land on either side of the merge — each sample is
    /// counted exactly once overall, never torn across fields by more
    /// than the in-flight writes.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = vec![0u64; BUCKETS];
        let (mut count, mut sum, mut max) = (0u64, 0u64, 0u64);
        for shard in self.shards.iter() {
            for (acc, b) in buckets.iter_mut().zip(shard.buckets.iter()) {
                *acc += b.load(Ordering::Relaxed); // ord: statistical merge; documented to tolerate in-flight writes
            }
            count += shard.count.load(Ordering::Relaxed); // ord: statistical merge; documented to tolerate in-flight writes
            sum += shard.sum.load(Ordering::Relaxed); // ord: statistical merge; documented to tolerate in-flight writes
            max = max.max(shard.max.load(Ordering::Relaxed)); // ord: statistical merge; documented to tolerate in-flight writes
        }
        HistogramSnapshot { buckets: buckets.into_boxed_slice(), count, sum, max }
    }

    /// Nearest-rank quantile (`q` in `[0, 1]`) over a fresh snapshot.
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.shards.iter().map(|s| s.count.load(Ordering::Relaxed)).sum() // ord: statistical readout; samples need no happens-before edge
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &snap.count)
            .field("p50", &snap.quantile(0.5))
            .field("p99", &snap.quantile(0.99))
            .field("max", &snap.max)
            .finish()
    }
}

/// A merged, immutable view of a [`Histogram`] at one point in time.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Merged per-bucket sample counts (see [`bucket_bounds`]).
    pub buckets: Box<[u64]>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (same unit as the samples).
    pub sum: u64,
    /// Largest sample observed.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Nearest-rank quantile: the upper bound of the bucket containing
    /// the `ceil(q·count)`-th smallest sample. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Never report past the true maximum: the top bucket's
                // bound can overshoot `max` by the sub-bucket width.
                return bucket_bounds(idx).1.min(self.max);
            }
        }
        self.max
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// An RAII timing guard tied to a [`Histogram`]: started by
/// [`Histogram::span`], records the elapsed nanoseconds exactly once —
/// on drop, or eagerly through [`Span::finish`].
pub struct Span<'h> {
    hist: &'h Histogram,
    start: Instant,
}

impl std::fmt::Debug for Span<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Span").field("start", &self.start).finish_non_exhaustive()
    }
}

impl Span<'_> {
    /// Stops the span now and returns the recorded duration.
    pub fn finish(self) -> Duration {
        let elapsed = self.start.elapsed();
        self.hist.record_duration(elapsed);
        std::mem::forget(self);
        elapsed
    }

    /// Time elapsed so far without recording.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.hist.record_duration(self.start.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_and_bounds_are_inverse() {
        // Every bucket's bounds map back to the bucket, and boundaries
        // between adjacent buckets are tight.
        for idx in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(idx);
            assert_eq!(bucket_index(lo), idx, "lower bound of {idx}");
            assert_eq!(bucket_index(hi), idx, "upper bound of {idx}");
            if idx + 1 < BUCKETS {
                assert_eq!(bucket_bounds(idx + 1).0, hi + 1, "gap after {idx}");
            }
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [17u64, 100, 1_000, 123_456, u64::MAX / 3] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v <= hi);
            assert!((hi - lo) as f64 <= lo as f64 / 8.0 + 1.0, "bucket too wide at {v}");
        }
    }

    #[test]
    fn quantiles_and_moments() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1000);
        assert_eq!(snap.sum, 500_500);
        assert_eq!(snap.max, 1000);
        let p50 = snap.quantile(0.5);
        assert!((450..=570).contains(&p50), "p50 {p50}");
        let p99 = snap.quantile(0.99);
        assert!((990..=1000).contains(&p99), "p99 {p99}");
        assert_eq!(snap.quantile(1.0), 1000);
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn span_records_once() {
        let h = Histogram::new();
        {
            let _s = h.span();
        }
        let d = h.span().finish();
        assert_eq!(h.count(), 2);
        assert!(d.as_nanos() > 0);
    }
}
