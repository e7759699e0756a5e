//! The hierarchical metric registry.
//!
//! Registration (name → handle interning) takes a mutex; recording
//! through the returned handles is lock-free. Components fetch their
//! handles once at construction and keep them, so the mutex is off the
//! hot path entirely.

use crate::metrics::{Counter, Histogram};
use crate::snapshot::Snapshot;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Counter>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

/// Shared handle onto one metric namespace. Clones are views of the
/// same registry; a component that holds any handle keeps the
/// backing storage alive.
#[derive(Debug, Clone, Default)]
pub struct Registry(Arc<RegistryInner>);

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name`, creating it on first use.
    /// All callers asking for the same name share one cell.
    pub fn counter(&self, name: &str) -> Counter {
        let mut counters = self.0.counters.lock().expect("registry lock poisoned");
        counters.entry(name.to_owned()).or_default().clone()
    }

    /// The histogram registered under `name`, creating it on first
    /// use. All callers asking for the same name share one cell.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut histograms = self.0.histograms.lock().expect("registry lock poisoned");
        histograms.entry(name.to_owned()).or_default().clone()
    }

    /// Freezes every registered metric into a [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .0
            .counters
            .lock()
            .expect("registry lock poisoned")
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        let histograms = self
            .0
            .histograms
            .lock()
            .expect("registry lock poisoned")
            .iter()
            .map(|(name, h)| (name.clone(), h.snapshot()))
            .collect();
        Snapshot {
            counters,
            histograms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_shares_one_cell() {
        let registry = Registry::new();
        let a = registry.counter("tlb.l1d.hits");
        let b = registry.counter("tlb.l1d.hits");
        a.add(2);
        b.add(3);
        assert_eq!(registry.snapshot().counter("tlb.l1d.hits"), 5);
    }

    #[test]
    fn snapshot_delta_windows_activity() {
        let registry = Registry::new();
        let hits = registry.counter("hits");
        let lat = registry.histogram("latency");
        hits.add(10);
        lat.record(100);

        let baseline = registry.snapshot();
        hits.add(5);
        lat.record(7);

        let window = registry.snapshot().delta(&baseline);
        assert_eq!(window.counter("hits"), 5);
        let h = window.histogram("latency").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 7);
        assert_eq!(h.min, 7);
    }
}
