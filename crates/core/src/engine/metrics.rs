//! Engine observability: queue depth and per-stage latency.
//!
//! Every [`super::CheckpointEngine`] owns one [`EngineMetrics`]; the
//! training thread and the checkpointing worker record into it lock-free
//! (atomics only), and [`EngineMetrics::counters`] snapshots it into the
//! plain [`EngineCounters`] struct that rides along in
//! [`crate::strategy::StrategyStats`].

use lowdiff_util::units::Secs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log2 latency buckets (bucket `b` covers `[2^(b-1), 2^b)` ns).
const BUCKETS: usize = 64;

/// Lock-free log2-bucketed latency histogram (nanosecond resolution).
///
/// Quantiles are bucket upper bounds, so `p50`/`p99` are conservative to
/// within a factor of 2 — plenty for "is persist milliseconds or seconds".
pub struct LatencyHist {
    counts: [AtomicU64; BUCKETS],
    total_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        Self {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            total_nanos: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
        }
    }
}

impl LatencyHist {
    pub fn record(&self, d: Duration) {
        let nanos = d.as_nanos().min(u64::MAX as u128) as u64;
        // 0 → bucket 0; otherwise n lands in bucket (64 - leading_zeros).
        let bucket = (64 - nanos.leading_zeros() as usize).min(BUCKETS - 1);
        self.counts[bucket].fetch_add(1, Ordering::Relaxed);
        self.total_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> StageLatency {
        let counts: [u64; BUCKETS] =
            std::array::from_fn(|b| self.counts[b].load(Ordering::Relaxed));
        let count: u64 = counts.iter().sum();
        let total = Secs(self.total_nanos.load(Ordering::Relaxed) as f64 * 1e-9);
        StageLatency {
            count,
            total,
            p50: Secs(quantile_nanos(&counts, count, 0.50) as f64 * 1e-9),
            p99: Secs(quantile_nanos(&counts, count, 0.99) as f64 * 1e-9),
            max: Secs(self.max_nanos.load(Ordering::Relaxed) as f64 * 1e-9),
            buckets: counts,
        }
    }
}

/// The latency sample at quantile `q`, reported as its bucket upper bound.
fn quantile_nanos(counts: &[u64], total: u64, q: f64) -> u64 {
    if total == 0 {
        return 0;
    }
    let target = ((total as f64 - 1.0) * q).round() as u64;
    let mut cum = 0u64;
    for (b, c) in counts.iter().enumerate() {
        cum += c;
        if cum > target {
            return if b == 0 { 0 } else { 1u64 << b.min(63) };
        }
    }
    1u64 << 63
}

/// Aggregated latency of one pipeline stage.
#[derive(Clone, Copy, Debug)]
pub struct StageLatency {
    /// Samples recorded.
    pub count: u64,
    /// Total time spent in the stage.
    pub total: Secs,
    /// Median sample (log2-bucket upper bound).
    pub p50: Secs,
    /// 99th-percentile sample (log2-bucket upper bound).
    pub p99: Secs,
    /// Largest single sample (exact, not bucketed).
    pub max: Secs,
    /// Raw log2 bucket counts, kept so merges stay statistical: summing
    /// two sides' buckets and re-reading the quantile is exact at bucket
    /// granularity, whereas `max(p99_a, p99_b)` is not any percentile of
    /// the combined population.
    pub buckets: [u64; BUCKETS],
}

impl Default for StageLatency {
    fn default() -> Self {
        Self {
            count: 0,
            total: Secs(0.0),
            p50: Secs(0.0),
            p99: Secs(0.0),
            max: Secs(0.0),
            buckets: [0; BUCKETS],
        }
    }
}

impl StageLatency {
    fn merge(&mut self, other: &StageLatency) {
        self.count += other.count;
        self.total += other.total;
        for (b, c) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += c;
        }
        self.p50 = Secs(quantile_nanos(&self.buckets, self.count, 0.50) as f64 * 1e-9);
        self.p99 = Secs(quantile_nanos(&self.buckets, self.count, 0.99) as f64 * 1e-9);
        if other.max > self.max {
            self.max = other.max;
        }
    }
}

/// Snapshot of an engine's pipeline counters, carried in
/// [`crate::strategy::StrategyStats::engine`].
#[derive(Clone, Debug, Default)]
pub struct EngineCounters {
    /// Jobs waiting in the persist queue when the stats were sampled.
    pub queue_depth: u64,
    /// Peak queue depth observed.
    pub queue_peak: u64,
    /// Queue capacity (0 for synchronous engines — no queue at all).
    pub queue_capacity: u64,
    /// Snapshot stage: state capture + enqueue on the training thread.
    pub snapshot: StageLatency,
    /// Encode stage: codec + CRC (off the training thread for async
    /// engines).
    pub encode: StageLatency,
    /// Persist stage: storage writes including every retry.
    pub persist: StageLatency,
}

impl EngineCounters {
    /// Combine counters from several engines (multi-rank aggregation):
    /// depths/capacities take the max, latencies accumulate.
    pub fn merge(&mut self, other: &EngineCounters) {
        self.queue_depth = self.queue_depth.max(other.queue_depth);
        self.queue_peak = self.queue_peak.max(other.queue_peak);
        self.queue_capacity = self.queue_capacity.max(other.queue_capacity);
        self.snapshot.merge(&other.snapshot);
        self.encode.merge(&other.encode);
        self.persist.merge(&other.persist);
    }

    /// The persist queue is (or last was) completely full — submissions
    /// block the training thread until the worker drains a slot.
    pub fn queue_saturated(&self) -> bool {
        self.queue_capacity > 0 && self.queue_depth >= self.queue_capacity
    }
}

/// Shared atomic counters one engine records into.
#[derive(Default)]
pub struct EngineMetrics {
    queue_depth: AtomicU64,
    queue_peak: AtomicU64,
    queue_capacity: AtomicU64,
    pub(crate) snapshot: LatencyHist,
    pub(crate) encode: LatencyHist,
    pub(crate) persist: LatencyHist,
}

impl EngineMetrics {
    pub(crate) fn set_capacity(&self, cap: u64) {
        self.queue_capacity.store(cap, Ordering::Relaxed);
    }

    pub(crate) fn note_depth(&self, depth: u64) {
        self.queue_depth.store(depth, Ordering::Relaxed);
        self.queue_peak.fetch_max(depth, Ordering::Relaxed);
    }

    pub fn counters(&self) -> EngineCounters {
        EngineCounters {
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            queue_peak: self.queue_peak.load(Ordering::Relaxed),
            queue_capacity: self.queue_capacity.load(Ordering::Relaxed),
            snapshot: self.snapshot.snapshot(),
            encode: self.encode.snapshot(),
            persist: self.persist.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_orders_quantiles() {
        let h = LatencyHist::default();
        for _ in 0..90 {
            h.record(Duration::from_micros(10));
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(50));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert!(s.p50 <= s.p99);
        // p50 within 2x of 10us (bucket upper bound), p99 catches the spikes.
        assert!(s.p50.as_f64() <= 20e-6, "p50 {} too coarse", s.p50);
        assert!(s.p99.as_f64() >= 50e-3, "p99 {} missed the spikes", s.p99);
        assert!(
            (s.max.as_f64() - 50e-3).abs() < 1e-6,
            "max {} is exact",
            s.max
        );
        assert!((s.total.as_f64() - (90.0 * 10e-6 + 10.0 * 50e-3)).abs() < 1e-6);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let s = LatencyHist::default().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99.as_f64(), 0.0);
    }

    #[test]
    fn saturation_needs_a_queue() {
        let mut c = EngineCounters::default();
        assert!(!c.queue_saturated(), "no queue, never saturated");
        c.queue_capacity = 2;
        c.queue_depth = 1;
        assert!(!c.queue_saturated());
        c.queue_depth = 2;
        assert!(c.queue_saturated());
    }

    // Regression: merge used to take max(p99_a, p99_b), which is not a
    // percentile of the combined population. A 0.5% slow tail diluted
    // across a large fast side must *drop out* of the merged p99.
    #[test]
    fn merge_recomputes_p99_from_bucket_counts() {
        let a = EngineMetrics::default();
        for _ in 0..90 {
            a.snapshot.record(Duration::from_micros(10));
        }
        for _ in 0..10 {
            a.snapshot.record(Duration::from_millis(50));
        }
        let b = EngineMetrics::default();
        for _ in 0..1900 {
            b.snapshot.record(Duration::from_micros(10));
        }
        let sa = a.snapshot.snapshot();
        let sb = b.snapshot.snapshot();
        assert!(sa.p99.as_f64() >= 50e-3, "side A alone has a slow p99");
        let mut merged = sa;
        merged.merge(&sb);
        assert_eq!(merged.count, 2000);
        assert!(
            merged.p99.as_f64() <= 20e-6,
            "merged p99 {} must reflect the combined population (slow tail is 0.5%), not max-of-sides",
            merged.p99
        );
        assert!(
            merged.max.as_f64() >= 50e-3,
            "max stays the true max across sides"
        );
        // Bucket counts accumulated: merging again keeps the statistics.
        let mut again = merged;
        again.merge(&sa);
        assert_eq!(again.count, 2100);
        assert!(again.p50 <= again.p99);
    }

    #[test]
    fn merge_takes_max_depth_and_sums_latency() {
        let m = EngineMetrics::default();
        m.set_capacity(4);
        m.note_depth(3);
        m.note_depth(1);
        m.snapshot.record(Duration::from_micros(5));
        let mut a = m.counters();
        assert_eq!(a.queue_depth, 1, "depth is last observed");
        assert_eq!(a.queue_peak, 3);
        let b = m.counters();
        a.merge(&b);
        assert_eq!(a.queue_peak, 3);
        assert_eq!(a.snapshot.count, 2);
    }
}
