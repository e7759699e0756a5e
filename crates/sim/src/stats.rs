//! Measurement plumbing: latency percentiles, MPKI, and the translation
//! cycle breakdown.

use bf_tlb::TlbGroupStats;
use bf_types::Cycles;

/// Latency distribution of completed requests (Data Serving metrics of
/// Fig. 11: mean and 95th-percentile tail).
///
/// # Examples
///
/// ```
/// use bf_sim::LatencyStats;
/// let stats = LatencyStats::from_samples(vec![10, 20, 30, 40, 100]);
/// assert_eq!(stats.mean(), 40.0);
/// assert_eq!(stats.percentile(95.0), 100);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LatencyStats {
    samples: Vec<Cycles>,
}

impl LatencyStats {
    /// Builds from raw samples.
    pub fn from_samples(samples: Vec<Cycles>) -> Self {
        LatencyStats { samples }
    }

    /// Records one request latency.
    pub fn record(&mut self, latency: Cycles) {
        self.samples.push(latency);
    }

    /// Number of completed requests.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Mean latency in cycles (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<u64>() as f64 / self.samples.len() as f64
        }
    }

    /// The `p`-th percentile (nearest-rank; 0 if empty).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in (0, 100].
    pub fn percentile(&self, p: f64) -> Cycles {
        assert!(p > 0.0 && p <= 100.0, "percentile out of range");
        if self.samples.is_empty() {
            return 0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
    }

    /// Merges another distribution into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.samples.extend_from_slice(&other.samples);
    }
}

/// Serializes as a summary object (count/mean/p50/p95/p99), not the raw
/// sample vector — results files stay bounded regardless of run length.
impl serde::Serialize for LatencyStats {
    fn to_value(&self) -> serde::Value {
        let mut map = std::collections::BTreeMap::new();
        map.insert("count".to_string(), serde::Value::U64(self.count() as u64));
        map.insert("mean".to_string(), serde::Value::F64(self.mean()));
        map.insert("p50".to_string(), serde::Value::U64(self.percentile(50.0)));
        map.insert("p95".to_string(), serde::Value::U64(self.percentile(95.0)));
        map.insert("p99".to_string(), serde::Value::U64(self.percentile(99.0)));
        serde::Value::Object(map)
    }
}

/// Where translation time went (useful for debugging the shape of the
/// results; the Table II attribution itself uses the ablation modes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct TranslationBreakdown {
    /// Cycles in TLB lookups (L1 + L2 + ASLR adder).
    pub tlb_cycles: Cycles,
    /// Cycles in hardware page walks (PWC + cache hierarchy).
    pub walk_cycles: Cycles,
    /// Cycles in the OS fault handler.
    pub fault_cycles: Cycles,
    /// Cycles in data/instruction cache accesses.
    pub memory_cycles: Cycles,
    /// Cycles retiring non-memory instructions.
    pub compute_cycles: Cycles,
    /// Cycles in context switches.
    pub switch_cycles: Cycles,
}

impl TranslationBreakdown {
    /// Total accounted cycles.
    pub fn total(&self) -> Cycles {
        self.tlb_cycles
            + self.walk_cycles
            + self.fault_cycles
            + self.memory_cycles
            + self.compute_cycles
            + self.switch_cycles
    }
}

/// Aggregate machine statistics for one measurement window (see
/// [`crate::Machine::stats`]).
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct MachineStats {
    /// Instructions retired (memory accesses + non-memory instructions).
    pub instructions: u64,
    /// Per-stream TLB counters across cores (the `tlb.*` counters).
    pub tlb: TlbGroupStats,
    /// Completed-request latencies.
    pub latency: LatencyStats,
    /// Cycle breakdown.
    pub breakdown: TranslationBreakdown,
    /// Page walks performed (`sim.walks`).
    pub walks: u64,
    /// Minor faults serviced (`os.fault.minor_cycles` samples).
    pub minor_faults: u64,
    /// Major faults serviced (`os.fault.major_cycles` samples).
    pub major_faults: u64,
    /// CoW faults serviced (`os.fault.cow_cycles` samples).
    pub cow_faults: u64,
    /// Faults avoided through shared page tables
    /// (`os.fault.shared_resolved_cycles` samples).
    pub shared_resolved: u64,
}

impl MachineStats {
    /// L2 TLB data-side misses per kilo-instruction (Fig. 10a).
    pub fn l2_data_mpki(&self) -> f64 {
        Self::mpki(self.tlb.l2.data_misses, self.instructions)
    }

    /// L2 TLB instruction-side MPKI (Fig. 10a).
    pub fn l2_instr_mpki(&self) -> f64 {
        Self::mpki(self.tlb.l2.instr_misses, self.instructions)
    }

    /// Fraction of L2 TLB data hits on entries loaded by another process
    /// (Fig. 10b).
    pub fn l2_data_shared_hit_fraction(&self) -> f64 {
        Self::fraction(self.tlb.l2.data_shared_hits, self.tlb.l2.data_hits)
    }

    /// Fraction of L2 TLB instruction hits on entries loaded by another
    /// process (Fig. 10b).
    pub fn l2_instr_shared_hit_fraction(&self) -> f64 {
        Self::fraction(self.tlb.l2.instr_shared_hits, self.tlb.l2.instr_hits)
    }

    /// Total cycles of the window.
    pub fn cycles(&self) -> Cycles {
        self.breakdown.total()
    }

    /// Instructions per cycle over the window.
    pub fn ipc(&self) -> f64 {
        let cycles = self.cycles();
        if cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / cycles as f64
        }
    }

    fn mpki(misses: u64, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            misses as f64 * 1000.0 / instructions as f64
        }
    }

    fn fraction(part: u64, whole: u64) -> f64 {
        if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_percentiles() {
        let stats = LatencyStats::from_samples((1..=100).collect());
        assert!((stats.mean() - 50.5).abs() < 1e-9);
        assert_eq!(stats.percentile(50.0), 50);
        assert_eq!(stats.percentile(95.0), 95);
        assert_eq!(stats.percentile(100.0), 100);
        assert_eq!(stats.count(), 100);
    }

    #[test]
    fn empty_latency_is_zero() {
        let stats = LatencyStats::default();
        assert_eq!(stats.mean(), 0.0);
        assert_eq!(stats.percentile(95.0), 0);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn percentile_zero_rejected() {
        let _ = LatencyStats::from_samples(vec![1]).percentile(0.0);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = LatencyStats::from_samples(vec![1, 2]);
        a.merge(&LatencyStats::from_samples(vec![3]));
        assert_eq!(a.count(), 3);
    }

    #[test]
    fn mpki_and_fractions() {
        let mut stats = MachineStats {
            instructions: 10_000,
            ..Default::default()
        };
        stats.tlb.l2.data_misses = 50;
        stats.tlb.l2.instr_misses = 10;
        stats.tlb.l2.data_hits = 200;
        stats.tlb.l2.data_shared_hits = 50;
        assert!((stats.l2_data_mpki() - 5.0).abs() < 1e-9);
        assert!((stats.l2_instr_mpki() - 1.0).abs() < 1e-9);
        assert!((stats.l2_data_shared_hit_fraction() - 0.25).abs() < 1e-9);
        assert_eq!(stats.l2_instr_shared_hit_fraction(), 0.0);
    }

    #[test]
    fn breakdown_totals() {
        let breakdown = TranslationBreakdown {
            tlb_cycles: 1,
            walk_cycles: 2,
            fault_cycles: 3,
            memory_cycles: 4,
            compute_cycles: 5,
            switch_cycles: 6,
        };
        assert_eq!(breakdown.total(), 21);
        let stats = MachineStats {
            breakdown,
            instructions: 42,
            ..Default::default()
        };
        assert_eq!(stats.cycles(), 21);
        assert!((stats.ipc() - 2.0).abs() < 1e-9);
    }
}
