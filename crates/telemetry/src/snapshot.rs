//! Point-in-time views of a registry with delta/merge algebra.

use serde::Serialize;
use std::collections::BTreeMap;

/// Number of log2 buckets in a histogram: bucket 0 holds the value 0,
/// bucket `i` (1..63) holds `[2^(i-1), 2^i)`, bucket 63 holds the tail.
pub const BUCKETS: usize = 64;

/// Frozen state of one histogram. An empty histogram has
/// `count == 0`, `min == u64::MAX`, `max == 0` — the identity for
/// [`HistogramSnapshot::merge`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total number of recorded samples.
    pub count: u64,
    /// Sum of all recorded samples (wrapping, like the live atomics).
    pub sum: u64,
    /// Smallest recorded sample (`u64::MAX` when empty).
    pub min: u64,
    /// Largest recorded sample (0 when empty).
    pub max: u64,
    /// Per-bucket sample counts (see [`BUCKETS`]).
    pub buckets: [u64; BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Mean of the recorded samples, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Folds `other` into `self` as if both sample streams had been
    /// recorded into one histogram. Associative and commutative.
    pub fn merge(&mut self, other: &Self) {
        self.count = self.count.wrapping_add(other.count);
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine = mine.wrapping_add(*theirs);
        }
    }

    /// Samples recorded after `baseline` was taken, assuming `baseline`
    /// is an earlier snapshot of the same histogram. Counts subtract;
    /// `min`/`max` keep `self`'s values (over a single run they only
    /// tighten, so the later snapshot's extrema are the window's), which
    /// makes `later.delta(&earlier).merge(&earlier) == later` hold.
    pub fn delta(&self, baseline: &Self) -> Self {
        let mut buckets = [0u64; BUCKETS];
        for (out, (now, then)) in buckets
            .iter_mut()
            .zip(self.buckets.iter().zip(baseline.buckets.iter()))
        {
            *out = now.wrapping_sub(*then);
        }
        Self {
            count: self.count.wrapping_sub(baseline.count),
            sum: self.sum.wrapping_sub(baseline.sum),
            min: self.min,
            max: self.max,
            buckets,
        }
    }
}

impl Serialize for HistogramSnapshot {
    fn to_value(&self) -> serde::Value {
        let mut map = BTreeMap::new();
        map.insert("count".to_owned(), self.count.to_value());
        map.insert("sum".to_owned(), self.sum.to_value());
        // u64::MAX is a sentinel, not a sample; export empty as null.
        map.insert(
            "min".to_owned(),
            if self.count == 0 {
                serde::Value::Null
            } else {
                self.min.to_value()
            },
        );
        map.insert("max".to_owned(), self.max.to_value());
        map.insert("mean".to_owned(), self.mean().to_value());
        // Trailing zero buckets carry no information; trim them.
        let last = self
            .buckets
            .iter()
            .rposition(|&b| b != 0)
            .map_or(0, |i| i + 1);
        map.insert("buckets".to_owned(), self.buckets[..last].to_value());
        serde::Value::Object(map)
    }
}

/// Frozen state of a whole [`crate::Registry`]: every counter value and
/// every histogram, keyed by hierarchical name.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Span events dropped because the span buffer was full.
    pub span_dropped: u64,
}

impl Snapshot {
    /// Value of the named counter (0 if never registered).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if any samples source registered it.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Folds `other` into `self`: counters and histograms add by name
    /// (union of key sets). Associative and commutative.
    pub fn merge(&mut self, other: &Self) {
        for (name, value) in &other.counters {
            let slot = self.counters.entry(name.clone()).or_insert(0);
            *slot = slot.wrapping_add(*value);
        }
        for (name, hist) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(hist);
        }
        self.span_dropped = self.span_dropped.wrapping_add(other.span_dropped);
    }

    /// Activity after `baseline` was taken, assuming `baseline` is an
    /// earlier snapshot of the same registry. Names missing from the
    /// baseline are treated as zero. See [`HistogramSnapshot::delta`]
    /// for the min/max convention.
    pub fn delta(&self, baseline: &Self) -> Self {
        let counters = self
            .counters
            .iter()
            .map(|(name, value)| (name.clone(), value.wrapping_sub(baseline.counter(name))))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(name, hist)| {
                let windowed = match baseline.histograms.get(name) {
                    Some(then) => hist.delta(then),
                    None => hist.clone(),
                };
                (name.clone(), windowed)
            })
            .collect();
        Self {
            counters,
            histograms,
            span_dropped: self.span_dropped.wrapping_sub(baseline.span_dropped),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(samples: &[u64]) -> HistogramSnapshot {
        let mut h = HistogramSnapshot::default();
        for &s in samples {
            let idx = (64 - s.leading_zeros() as usize).min(BUCKETS - 1);
            h.buckets[idx] += 1;
            h.count += 1;
            h.sum += s;
            h.min = h.min.min(s);
            h.max = h.max.max(s);
        }
        h
    }

    #[test]
    fn merge_identity_is_default() {
        let mut a = hist(&[3, 9, 100]);
        let before = a.clone();
        a.merge(&HistogramSnapshot::default());
        assert_eq!(a, before);
    }

    #[test]
    fn delta_then_merge_reconstitutes() {
        let earlier = hist(&[8, 2]);
        let later = hist(&[8, 2, 1, 4096]);
        let mut window = later.delta(&earlier);
        window.merge(&earlier);
        assert_eq!(window, later);
    }

    #[test]
    fn snapshot_merge_unions_names() {
        let mut a = Snapshot::default();
        a.counters.insert("x".into(), 2);
        let mut b = Snapshot::default();
        b.counters.insert("x".into(), 3);
        b.counters.insert("y".into(), 1);
        a.merge(&b);
        assert_eq!(a.counter("x"), 5);
        assert_eq!(a.counter("y"), 1);
        assert_eq!(a.counter("absent"), 0);
    }

    #[test]
    fn empty_min_exports_as_null() {
        let v = HistogramSnapshot::default().to_value();
        assert_eq!(v.get("min"), Some(&serde::Value::Null));
        let v = hist(&[5]).to_value();
        assert_eq!(v.get("min").and_then(|m| m.as_u64()), Some(5));
    }
}
