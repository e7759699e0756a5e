//! Cross-counter invariant checking.
//!
//! An [`InvariantSet`] holds named predicates over [`Snapshot`]s —
//! conservation laws like `cache.l3.hits + cache.l3.misses ==
//! cache.l2.misses` and orderings like `evictions <= fills`. The
//! simulator evaluates the set at every timeline epoch boundary, so a
//! counter that drifts out of agreement with its peers is caught within
//! one epoch of the bug that moved it, not at the end of a
//! million-access run.
//!
//! Two modes: [`InvariantMode::FailFast`] panics on the first violation
//! (CI), [`InvariantMode::Record`] collects [`Violation`]s into the
//! timeline export so a long run can report every breakage at once.
//!
//! Checks always receive *cumulative* registry snapshots (never window
//! deltas): every built-in law holds from boot, so measurement-window
//! resets need no special handling.

use crate::snapshot::Snapshot;
use serde::Serialize;

/// What to do when an invariant fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum InvariantMode {
    /// Record the violation and keep running (the default).
    Record,
    /// Panic immediately, naming the offending invariant.
    FailFast,
}

/// One recorded invariant failure.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Violation {
    /// Name of the invariant that failed.
    pub invariant: String,
    /// Human-readable description of the disagreement.
    pub detail: String,
    /// Epoch index (number of completed checks) at which it was caught.
    pub epoch: u64,
}

type Check = Box<dyn FnMut(&Snapshot) -> Result<(), String> + Send>;

/// A registry of named cross-counter invariants.
pub struct InvariantSet {
    mode: InvariantMode,
    checks: Vec<(String, Check)>,
    violations: Vec<Violation>,
    epoch: u64,
}

impl std::fmt::Debug for InvariantSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InvariantSet")
            .field("mode", &self.mode)
            .field("checks", &self.checks.len())
            .field("violations", &self.violations.len())
            .field("epoch", &self.epoch)
            .finish()
    }
}

impl InvariantSet {
    /// An empty set.
    pub fn new(mode: InvariantMode) -> Self {
        InvariantSet {
            mode,
            checks: Vec::new(),
            violations: Vec::new(),
            epoch: 0,
        }
    }

    /// The failure mode.
    pub fn mode(&self) -> InvariantMode {
        self.mode
    }

    /// Number of registered invariants.
    pub fn len(&self) -> usize {
        self.checks.len()
    }

    /// Whether the set has no invariants.
    pub fn is_empty(&self) -> bool {
        self.checks.is_empty()
    }

    /// Registers a named predicate. `check` returns `Err(detail)` when
    /// the snapshot violates the invariant.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        check: impl FnMut(&Snapshot) -> Result<(), String> + Send + 'static,
    ) {
        self.checks.push((name.into(), Box::new(check)));
    }

    /// Registers `small <= big` over two counters.
    pub fn counter_le(&mut self, name: impl Into<String>, small: &str, big: &str) {
        let (small, big) = (small.to_owned(), big.to_owned());
        self.register(name, move |snap| {
            let (s, b) = (snap.counter(&small), snap.counter(&big));
            if s <= b {
                Ok(())
            } else {
                Err(format!("{small} = {s} exceeds {big} = {b}"))
            }
        });
    }

    /// Registers a flow-conservation law: the counters named in `lhs`
    /// must sum to the same value as the counters named in `rhs`.
    pub fn sum_eq(&mut self, name: impl Into<String>, lhs: &[&str], rhs: &[&str]) {
        let lhs: Vec<String> = lhs.iter().map(|s| (*s).to_owned()).collect();
        let rhs: Vec<String> = rhs.iter().map(|s| (*s).to_owned()).collect();
        self.register(name, move |snap| {
            let total = |names: &[String]| names.iter().map(|n| snap.counter(n)).sum::<u64>();
            let (l, r) = (total(&lhs), total(&rhs));
            if l == r {
                Ok(())
            } else {
                Err(format!(
                    "sum({}) = {l} but sum({}) = {r}",
                    lhs.join("+"),
                    rhs.join("+")
                ))
            }
        });
    }

    /// Registers `histogram.count == counter`: a histogram and a counter
    /// fed by the same event stream must agree on the event count.
    pub fn histogram_count_eq(&mut self, name: impl Into<String>, histogram: &str, counter: &str) {
        let (histogram, counter) = (histogram.to_owned(), counter.to_owned());
        self.register(name, move |snap| {
            let h = snap.histogram(&histogram).map_or(0, |h| h.count);
            let c = snap.counter(&counter);
            if h == c {
                Ok(())
            } else {
                Err(format!("{histogram}.count = {h} but {counter} = {c}"))
            }
        });
    }

    /// Evaluates every invariant against `snapshot` and advances the
    /// epoch counter. Returns the number of violations found this call
    /// (always 0 in fail-fast mode — it panics instead).
    ///
    /// # Panics
    ///
    /// In [`InvariantMode::FailFast`], panics on the first violation,
    /// naming the offending invariant.
    pub fn check(&mut self, snapshot: &Snapshot) -> usize {
        let before = self.violations.len();
        let epoch = self.epoch;
        let mode = self.mode;
        for (name, check) in &mut self.checks {
            if let Err(detail) = check(snapshot) {
                fail(&mut self.violations, mode, name, detail, epoch);
            }
        }
        self.epoch += 1;
        self.violations.len() - before
    }

    /// Reports an externally-evaluated violation (machine-state checks
    /// that need more than a snapshot, e.g. TLB residency vs capacity).
    ///
    /// # Panics
    ///
    /// In [`InvariantMode::FailFast`], panics, naming the invariant.
    pub fn report(&mut self, invariant: &str, detail: String) {
        fail(
            &mut self.violations,
            self.mode,
            invariant,
            detail,
            self.epoch,
        );
    }

    /// Violations recorded so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Drains the recorded violations.
    pub fn take_violations(&mut self) -> Vec<Violation> {
        std::mem::take(&mut self.violations)
    }
}

fn fail(
    violations: &mut Vec<Violation>,
    mode: InvariantMode,
    name: &str,
    detail: String,
    epoch: u64,
) {
    if mode == InvariantMode::FailFast {
        panic!("telemetry invariant '{name}' violated at epoch {epoch}: {detail}");
    }
    violations.push(Violation {
        invariant: name.to_owned(),
        detail,
        epoch,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(pairs: &[(&str, u64)]) -> Snapshot {
        let mut s = Snapshot::default();
        for (name, value) in pairs {
            s.counters.insert((*name).to_owned(), *value);
        }
        s
    }

    #[test]
    fn clean_snapshot_passes_all_builtin_shapes() {
        let mut set = InvariantSet::new(InvariantMode::Record);
        set.counter_le("le", "a", "b");
        set.sum_eq("flow", &["x", "y"], &["z"]);
        let s = snap(&[("a", 2), ("b", 5), ("x", 3), ("y", 4), ("z", 7)]);
        assert_eq!(set.check(&s), 0);
        assert!(set.violations().is_empty());
    }

    #[test]
    fn record_mode_collects_named_violations() {
        let mut set = InvariantSet::new(InvariantMode::Record);
        set.counter_le("tlb.shared_within_hits", "shared", "hits");
        let s = snap(&[("shared", 9), ("hits", 3)]);
        assert_eq!(set.check(&s), 1);
        let v = &set.violations()[0];
        assert_eq!(v.invariant, "tlb.shared_within_hits");
        assert_eq!(v.epoch, 0);
        assert!(
            v.detail.contains("9"),
            "detail names the values: {}",
            v.detail
        );
        // A later clean check leaves the record intact and bumps epochs.
        let ok = snap(&[("shared", 1), ("hits", 3)]);
        assert_eq!(set.check(&ok), 0);
        assert_eq!(set.take_violations().len(), 1);
        assert!(set.violations().is_empty());
    }

    #[test]
    #[should_panic(expected = "telemetry invariant 'flow' violated")]
    fn fail_fast_panics_with_the_invariant_name() {
        let mut set = InvariantSet::new(InvariantMode::FailFast);
        set.sum_eq("flow", &["a"], &["b"]);
        set.check(&snap(&[("a", 1), ("b", 2)]));
    }

    #[test]
    fn histogram_count_tracks_counter() {
        let mut set = InvariantSet::new(InvariantMode::Record);
        set.histogram_count_eq("depth", "walk_depth", "walks");
        let mut s = snap(&[("walks", 2)]);
        let h = crate::HistogramSnapshot {
            count: 2,
            ..Default::default()
        };
        s.histograms.insert("walk_depth".to_owned(), h);
        assert_eq!(set.check(&s), 0);
        s.counters.insert("walks".to_owned(), 3);
        assert_eq!(set.check(&s), 1);
    }

    #[test]
    fn report_records_external_violations() {
        let mut set = InvariantSet::new(InvariantMode::Record);
        set.report("tlb.resident_within_capacity", "core 0: 99 > 64".into());
        assert_eq!(set.violations().len(), 1);
        assert_eq!(
            set.violations()[0].invariant,
            "tlb.resident_within_capacity"
        );
    }
}
