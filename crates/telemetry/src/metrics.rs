//! Lock-free recording handles: [`Counter`] and [`Histogram`].
//!
//! Both are cheap-to-clone `Arc` handles onto shared atomics. All
//! atomics use `Relaxed` ordering — metrics need totals, not
//! happens-before edges; a [`crate::Snapshot`] taken while other
//! threads record is a consistent-enough view for reporting.
//!
//! Recording is *single-writer*: increments are relaxed load+store
//! pairs, not read-modify-writes, because an uncontended `lock xadd`
//! still costs ~10 ns and the hot paths (TLB lookup, cache access) fire
//! one or more per event. A simulated machine records from one thread,
//! so nothing is lost; snapshots may be read concurrently from any
//! thread and never observe torn values. If two threads ever record
//! through the *same* cell, increments can be dropped — shard by clone
//! (one handle per thread) and merge snapshots instead.

use crate::snapshot::{HistogramSnapshot, BUCKETS};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Bucket index for a sample: 0 for 0, else `floor(log2(v)) + 1`,
/// clamped so the top bucket absorbs the tail.
#[inline]
pub(crate) fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros() as usize).min(BUCKETS - 1)
}

/// A monotonically increasing metric. Clones share the same cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Creates a standalone counter (registry-less, mostly for tests).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` (single-writer; see the module docs).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.store(self.0.load(Relaxed).wrapping_add(n), Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

#[derive(Debug)]
pub(crate) struct HistogramInner {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramInner {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// A log2-bucketed distribution. Clones share the same cells.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// Creates a standalone histogram (registry-less, mostly for tests).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample (single-writer; see the module docs).
    #[inline]
    pub fn record(&self, value: u64) {
        let inner = &*self.0;
        let bucket = &inner.buckets[bucket_index(value)];
        bucket.store(bucket.load(Relaxed) + 1, Relaxed);
        inner.count.store(inner.count.load(Relaxed) + 1, Relaxed);
        inner
            .sum
            .store(inner.sum.load(Relaxed).wrapping_add(value), Relaxed);
        if value < inner.min.load(Relaxed) {
            inner.min.store(value, Relaxed);
        }
        if value > inner.max.load(Relaxed) {
            inner.max.store(value, Relaxed);
        }
    }

    /// Number of samples recorded so far.
    #[inline]
    pub fn count(&self) -> u64 {
        self.0.count.load(Relaxed)
    }

    /// Freezes the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let inner = &*self.0;
        HistogramSnapshot {
            count: inner.count.load(Relaxed),
            sum: inner.sum.load(Relaxed),
            min: inner.min.load(Relaxed),
            max: inner.max.load(Relaxed),
            buckets: std::array::from_fn(|i| inner.buckets[i].load(Relaxed)),
        }
    }
}

#[allow(dead_code)]
fn _assert_handles_are_send_sync() {
    fn check<T: Send + Sync + Clone>() {}
    check::<Counter>();
    check::<Histogram>();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bucket geometry is part of the exported schema, so pin it down.
    #[test]
    fn bucket_geometry() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn counter_clones_share_state() {
        let a = Counter::new();
        let b = a.clone();
        a.add(2);
        b.incr();
        assert_eq!(a.get(), 3);
        assert_eq!(b.get(), 3);
    }

    #[test]
    fn histogram_records_extrema_and_buckets() {
        let h = Histogram::new();
        for v in [0u64, 1, 5, 5, 300] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 311);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 300);
        assert_eq!(s.buckets[0], 1); // 0
        assert_eq!(s.buckets[1], 1); // 1
        assert_eq!(s.buckets[3], 2); // 5 twice
        assert_eq!(s.buckets[9], 1); // 300
        assert_eq!(s.buckets.iter().sum::<u64>(), 5);
    }
}
