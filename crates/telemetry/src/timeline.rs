//! Epoch-resolved telemetry timelines.
//!
//! A [`Timeline`] turns the registry's end-of-run aggregate into a
//! time series: every `interval` instrumented accesses it seals an
//! [`Epoch`] holding the [`Snapshot`] *delta* since the previous
//! boundary. Storage is a bounded merge-halving ring — when the store
//! reaches `capacity` epochs, adjacent pairs merge and the interval
//! doubles, so memory stays O(capacity) for arbitrarily long runs while
//! resolution degrades gracefully (the whole run is always covered at
//! uniform granularity).
//!
//! Because each epoch is a delta between consecutive snapshots of the
//! same registry, the deltas telescope: the sum (merge) of all epoch
//! deltas equals the final snapshot minus the baseline, exactly, no
//! matter how many merge-halvings happened in between. The property
//! tests below pin this conservation law.

use crate::invariants::Violation;
use crate::snapshot::Snapshot;
use serde::Serialize;
use std::collections::BTreeMap;

/// Default bound on stored epochs (must be even; pairs merge at capacity).
pub const DEFAULT_TIMELINE_CAPACITY: usize = 64;

/// One sealed slice of a run: the telemetry delta over `accesses`
/// consecutive instrumented accesses.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Epoch {
    /// Index of the first access covered (0-based, inclusive).
    pub start_access: u64,
    /// Number of accesses covered.
    pub accesses: u64,
    /// Core clock (cycles) when the epoch was sealed.
    pub end_cycle: u64,
    /// Telemetry delta over the epoch.
    pub delta: Snapshot,
}

/// Bounded epoch store. See the module docs for the merge-halving
/// scheme and conservation guarantee.
#[derive(Debug, Clone)]
pub struct Timeline {
    base_interval: u64,
    interval: u64,
    capacity: usize,
    since_boundary: u64,
    total_accesses: u64,
    baseline: Snapshot,
    last: Snapshot,
    epochs: Vec<Epoch>,
}

impl Timeline {
    /// A timeline sealing an epoch every `interval` accesses, holding at
    /// most `capacity` epochs (rounded down to even, floored at 2).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is 0.
    pub fn new(interval: u64, capacity: usize) -> Self {
        Self::with_baseline(interval, capacity, Snapshot::default())
    }

    /// Like [`Timeline::new`], but deltas are taken relative to
    /// `baseline` (typically the registry snapshot at construction or at
    /// the last measurement reset).
    pub fn with_baseline(interval: u64, capacity: usize, baseline: Snapshot) -> Self {
        assert!(interval > 0, "timeline interval must be positive");
        let capacity = (capacity & !1).max(2);
        Timeline {
            base_interval: interval,
            interval,
            capacity,
            since_boundary: 0,
            total_accesses: 0,
            last: baseline.clone(),
            baseline,
            epochs: Vec::with_capacity(capacity),
        }
    }

    /// Counts one instrumented access. Returns `true` when the access
    /// lands on an epoch boundary and the caller should snapshot the
    /// registry and call [`Timeline::seal_epoch`].
    #[inline]
    pub fn record_access(&mut self) -> bool {
        self.total_accesses += 1;
        self.since_boundary += 1;
        self.since_boundary >= self.interval
    }

    /// Seals the in-flight epoch against the current registry snapshot,
    /// merge-halving if the store is at capacity.
    pub fn seal_epoch(&mut self, now: &Snapshot, end_cycle: u64) {
        let start_access = self.total_accesses - self.since_boundary;
        self.epochs.push(Epoch {
            start_access,
            accesses: self.since_boundary,
            end_cycle,
            delta: now.delta(&self.last),
        });
        self.last = now.clone();
        self.since_boundary = 0;
        if self.epochs.len() >= self.capacity {
            self.merge_halve();
        }
    }

    /// Merges adjacent epoch pairs in place and doubles the interval.
    fn merge_halve(&mut self) {
        let old = std::mem::take(&mut self.epochs);
        let mut merged = Vec::with_capacity(self.capacity);
        let mut iter = old.into_iter();
        while let Some(mut a) = iter.next() {
            if let Some(b) = iter.next() {
                a.accesses += b.accesses;
                a.end_cycle = b.end_cycle;
                a.delta.merge(&b.delta);
            }
            merged.push(a);
        }
        self.epochs = merged;
        self.interval *= 2;
    }

    /// Discards all epochs and re-bases on `baseline` (measurement-window
    /// reset). The interval returns to its configured value.
    pub fn restart(&mut self, baseline: Snapshot) {
        self.interval = self.base_interval;
        self.since_boundary = 0;
        self.total_accesses = 0;
        self.last = baseline.clone();
        self.baseline = baseline;
        self.epochs.clear();
    }

    /// Number of sealed epochs so far.
    pub fn epoch_count(&self) -> usize {
        self.epochs.len()
    }

    /// Current (possibly doubled) epoch interval in accesses.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Accesses recorded since the last restart.
    pub fn total_accesses(&self) -> u64 {
        self.total_accesses
    }

    /// Seals any partial tail epoch and freezes the timeline into an
    /// exportable [`TimelineSnapshot`]. The tail epoch is also emitted
    /// when counters moved after the last boundary with no interleaving
    /// access (e.g. teardown activity), so conservation always holds.
    pub fn finish(
        mut self,
        now: &Snapshot,
        end_cycle: u64,
        violations: Vec<Violation>,
    ) -> TimelineSnapshot {
        if self.since_boundary > 0 || *now != self.last {
            let start_access = self.total_accesses - self.since_boundary;
            self.epochs.push(Epoch {
                start_access,
                accesses: self.since_boundary,
                end_cycle,
                delta: now.delta(&self.last),
            });
        }
        TimelineSnapshot {
            base_interval: self.base_interval,
            interval: self.interval,
            total_accesses: self.total_accesses,
            end_cycle,
            total: now.delta(&self.baseline),
            epochs: self.epochs,
            violations,
        }
    }
}

/// A frozen, exportable timeline: the sealed epochs, the whole-window
/// total, and any invariant violations recorded along the way.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineSnapshot {
    /// Configured epoch interval (accesses) before any merge-halving.
    pub base_interval: u64,
    /// Final epoch interval after merge-halving.
    pub interval: u64,
    /// Total instrumented accesses covered.
    pub total_accesses: u64,
    /// Core clock (cycles) at the end of the window.
    pub end_cycle: u64,
    /// The sealed epochs, in time order.
    pub epochs: Vec<Epoch>,
    /// Whole-window delta; always equals the merge of all epoch deltas.
    pub total: Snapshot,
    /// Invariant violations recorded during the window (empty = clean).
    pub violations: Vec<Violation>,
}

/// Aggregate over one third of a timeline (see
/// [`TimelineSnapshot::phases`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSummary {
    /// Number of epochs in the phase.
    pub epochs: usize,
    /// Accesses covered by the phase.
    pub accesses: u64,
    /// Merged telemetry delta over the phase.
    pub delta: Snapshot,
}

impl TimelineSnapshot {
    /// Merge of all epoch deltas — by construction equal to
    /// [`TimelineSnapshot::total`]; exposed so tests can assert it.
    pub fn merged(&self) -> Snapshot {
        let mut sum = Snapshot::default();
        for epoch in &self.epochs {
            sum.merge(&epoch.delta);
        }
        sum
    }

    /// Splits the epochs into thirds by index: `first` = `[0, n/3)`,
    /// `mid` = `[n/3, 2n/3)`, `last` = `[2n/3, n)`. With at least one
    /// epoch, `last` is never empty, so steady-state gates always have
    /// data to bite on.
    pub fn phases(&self) -> [(&'static str, PhaseSummary); 3] {
        let n = self.epochs.len();
        let (a, b) = (n / 3, 2 * n / 3);
        let summarize = |range: std::ops::Range<usize>| {
            let slice = &self.epochs[range];
            let mut delta = Snapshot::default();
            let mut accesses = 0;
            for epoch in slice {
                delta.merge(&epoch.delta);
                accesses += epoch.accesses;
            }
            PhaseSummary {
                epochs: slice.len(),
                accesses,
                delta,
            }
        };
        [
            ("first", summarize(0..a)),
            ("mid", summarize(a..b)),
            ("last", summarize(b..n)),
        ]
    }

    /// Per-epoch values of one counter, in time order.
    pub fn counter_series(&self, name: &str) -> Vec<u64> {
        self.epochs.iter().map(|e| e.delta.counter(name)).collect()
    }
}

impl Serialize for TimelineSnapshot {
    fn to_value(&self) -> serde::Value {
        let mut map = BTreeMap::new();
        map.insert("base_interval".to_owned(), self.base_interval.to_value());
        map.insert("interval".to_owned(), self.interval.to_value());
        map.insert("total_accesses".to_owned(), self.total_accesses.to_value());
        map.insert("end_cycle".to_owned(), self.end_cycle.to_value());
        map.insert("epochs".to_owned(), self.epochs.to_value());
        let mut phases = BTreeMap::new();
        for (name, summary) in self.phases() {
            let mut phase = BTreeMap::new();
            phase.insert("epochs".to_owned(), (summary.epochs as u64).to_value());
            phase.insert("accesses".to_owned(), summary.accesses.to_value());
            phase.insert("delta".to_owned(), summary.delta.to_value());
            phases.insert(name.to_owned(), serde::Value::Object(phase));
        }
        map.insert("phases".to_owned(), serde::Value::Object(phases));
        map.insert("total".to_owned(), self.total.to_value());
        map.insert("violations".to_owned(), self.violations.to_value());
        serde::Value::Object(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{HistogramSnapshot, BUCKETS};

    /// Deterministic xorshift PRNG so the property tests need no
    /// external randomness.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }

        fn below(&mut self, bound: u64) -> u64 {
            self.next() % bound
        }
    }

    fn record_sample(h: &mut HistogramSnapshot, value: u64) {
        let idx = (64 - value.leading_zeros() as usize).min(BUCKETS - 1);
        h.buckets[idx] += 1;
        h.count += 1;
        h.sum += value;
        h.min = h.min.min(value);
        h.max = h.max.max(value);
    }

    /// Simulates a registry whose counters move between accesses and
    /// checks conservation: merge of epoch deltas == total == final
    /// snapshot minus baseline.
    fn run_conservation(seed: u64, interval: u64, capacity: usize, accesses: u64) {
        let mut rng = Rng(seed);
        let mut now = Snapshot::default();
        // A non-trivial baseline: pre-run activity the window must exclude.
        now.counters.insert("a.hits".into(), 17);
        now.counters.insert("b.misses".into(), 5);
        let mut timeline = Timeline::with_baseline(interval, capacity, now.clone());
        let baseline = now.clone();

        let mut cycle = 0u64;
        for _ in 0..accesses {
            for name in ["a.hits", "b.misses", "c.walks"] {
                if rng.below(3) > 0 {
                    *now.counters.entry(name.into()).or_insert(0) += rng.below(4);
                }
            }
            if rng.below(4) == 0 {
                record_sample(
                    now.histograms.entry("lat".into()).or_default(),
                    rng.below(500) + 1,
                );
            }
            cycle += rng.below(9) + 1;
            if timeline.record_access() {
                timeline.seal_epoch(&now, cycle);
            }
        }
        // Teardown activity after the last boundary must still be covered.
        *now.counters.entry("a.hits".into()).or_insert(0) += 3;

        let snap = timeline.finish(&now, cycle, Vec::new());
        // Sealing keeps the store strictly below capacity; finish() may
        // add one tail epoch, so the exported bound is `<= capacity`.
        assert!(
            snap.epochs.len() <= capacity.max(2),
            "capacity bound violated: {} epochs, capacity {}",
            snap.epochs.len(),
            capacity
        );
        assert_eq!(
            snap.epochs.iter().map(|e| e.accesses).sum::<u64>(),
            accesses,
            "epoch accesses must cover the whole run"
        );
        let expected = now.delta(&baseline);
        assert_eq!(snap.total, expected, "total must be final minus baseline");
        let mut merged = snap.merged();
        // Histogram min/max are window extrema, not sums; align them for
        // the comparison the same way delta() defines them.
        for (name, hist) in &mut merged.histograms {
            if let Some(expected) = expected.histograms.get(name) {
                hist.min = expected.min;
                hist.max = expected.max;
            }
        }
        assert_eq!(
            merged.counters, expected.counters,
            "sum of epoch counter deltas must equal the total"
        );
        assert_eq!(
            merged.histograms, expected.histograms,
            "sum of epoch histogram deltas must equal the total"
        );
    }

    #[test]
    fn conservation_holds_for_arbitrary_sequences_and_capacities() {
        let mut case = 0;
        for interval in [1, 2, 3, 7, 64] {
            for capacity in [2, 4, 6, 8, 64] {
                for accesses in [0, 1, 5, 63, 64, 200, 1000] {
                    case += 1;
                    run_conservation(0x9E3779B9 + case, interval, capacity, accesses);
                }
            }
        }
    }

    #[test]
    fn merge_halving_doubles_interval_and_bounds_memory() {
        let mut now = Snapshot::default();
        let mut timeline = Timeline::new(2, 4);
        for i in 0..64u64 {
            *now.counters.entry("x".into()).or_insert(0) += 1;
            if timeline.record_access() {
                timeline.seal_epoch(&now, i);
            }
        }
        // 64 accesses at interval 2 = 32 raw epochs; capacity 4 forces
        // interval up to 32 (2 -> 4 -> 8 -> 16 -> 32).
        assert_eq!(timeline.interval(), 32);
        assert!(timeline.epoch_count() < 4);
        let snap = timeline.finish(&now, 64, Vec::new());
        assert_eq!(snap.merged().counter("x"), 64);
        // Every epoch covers a contiguous range; starts are increasing.
        let mut expected_start = 0;
        for epoch in &snap.epochs {
            assert_eq!(epoch.start_access, expected_start);
            expected_start += epoch.accesses;
        }
        assert_eq!(expected_start, 64);
    }

    #[test]
    fn restart_rebases_and_resets_interval() {
        let mut now = Snapshot::default();
        let mut timeline = Timeline::new(1, 2);
        for i in 0..8u64 {
            *now.counters.entry("x".into()).or_insert(0) += 1;
            if timeline.record_access() {
                timeline.seal_epoch(&now, i);
            }
        }
        assert!(timeline.interval() > 1, "merge-halving should have fired");
        timeline.restart(now.clone());
        assert_eq!(timeline.interval(), 1);
        assert_eq!(timeline.epoch_count(), 0);
        *now.counters.get_mut("x").unwrap() += 5;
        timeline.record_access();
        timeline.seal_epoch(&now, 9);
        let snap = timeline.finish(&now, 9, Vec::new());
        // Only post-restart activity is visible.
        assert_eq!(snap.total.counter("x"), 5);
        assert_eq!(snap.total_accesses, 1);
    }

    #[test]
    fn phases_split_into_thirds_with_last_never_empty() {
        let mut now = Snapshot::default();
        let mut timeline = Timeline::new(1, 64);
        for i in 0..7u64 {
            *now.counters.entry("x".into()).or_insert(0) += i + 1;
            timeline.record_access();
            timeline.seal_epoch(&now, i);
        }
        let snap = timeline.finish(&now, 7, Vec::new());
        let [(_, first), (_, mid), (_, last)] = snap.phases();
        assert_eq!((first.epochs, mid.epochs, last.epochs), (2, 2, 3));
        // 1+2 / 3+4 / 5+6+7
        assert_eq!(first.delta.counter("x"), 3);
        assert_eq!(mid.delta.counter("x"), 7);
        assert_eq!(last.delta.counter("x"), 18);

        // A single epoch lands entirely in `last`.
        let mut one = Snapshot::default();
        let mut tl = Timeline::new(4, 8);
        one.counters.insert("x".into(), 2);
        tl.record_access();
        let snap = tl.finish(&one, 1, Vec::new());
        let [(_, first), (_, mid), (_, last)] = snap.phases();
        assert_eq!((first.epochs, mid.epochs, last.epochs), (0, 0, 1));
        assert_eq!(last.delta.counter("x"), 2);
    }

    #[test]
    fn serialization_exposes_epochs_phases_total_and_violations() {
        let mut now = Snapshot::default();
        let mut timeline = Timeline::new(2, 4);
        for i in 0..6u64 {
            *now.counters.entry("tlb.l2.misses".into()).or_insert(0) += 2;
            if timeline.record_access() {
                timeline.seal_epoch(&now, i);
            }
        }
        let violations = vec![Violation {
            invariant: "demo".into(),
            detail: "x".into(),
            epoch: 1,
        }];
        let v = timeline.finish(&now, 6, violations).to_value();
        assert_eq!(v.get("base_interval").and_then(|x| x.as_u64()), Some(2));
        let epochs = v.get("epochs").and_then(|e| e.as_array()).unwrap();
        assert!(!epochs.is_empty());
        assert!(epochs[0].get("delta").is_some());
        let phases = v.get("phases").unwrap();
        let last = phases.get("last").unwrap();
        assert!(last.get("delta").unwrap().get("counters").is_some());
        assert_eq!(
            v.get("total")
                .and_then(|t| t.get("counters"))
                .and_then(|c| c.get("tlb.l2.misses"))
                .and_then(|x| x.as_u64()),
            Some(12)
        );
        let viols = v.get("violations").and_then(|x| x.as_array()).unwrap();
        assert_eq!(
            viols[0].get("invariant").and_then(|i| i.as_str()),
            Some("demo")
        );
    }
}
