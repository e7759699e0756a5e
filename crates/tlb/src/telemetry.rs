//! Telemetry handles for the TLB structures.

use bf_telemetry::{Counter, InvariantSet, Registry};

/// Shared counter handles for one TLB role (`l1i`, `l1d`, `l2`).
///
/// Every structure of a role holds a clone of the same handle set, so
/// registry totals aggregate across the per-page-size structures by
/// construction. These counters are the only store of TLB activity:
/// [`crate::TlbGroupStats::from_snapshot`] builds the per-stream view
/// from them.
///
/// Unattached structures hold default (standalone) handles: recording
/// still works, it just is not visible in any registry.
#[derive(Debug, Clone, Default)]
pub struct TlbTelemetry {
    /// Lookups that hit, both streams (`tlb.<role>.hits`).
    pub hits: Counter,
    /// Lookups that missed, both streams (`tlb.<role>.misses`).
    pub misses: Counter,
    /// Hits on entries loaded by a different process
    /// (`tlb.<role>.shared_hits`).
    pub shared_hits: Counter,
    /// Hits on O = 1 private-copy entries (`tlb.<role>.private_copy_hits`).
    pub private_copy_hits: Counter,
    /// Shared → private transitions observed at fill time
    /// (`tlb.<role>.ownership_transitions`).
    pub ownership_transitions: Counter,
    /// CoW faults raised from this role (`tlb.<role>.cow_faults`).
    pub cow_faults: Counter,
    /// Lookups that consulted the PC bitmask (`tlb.<role>.bitmask_checks`).
    pub bitmask_checks: Counter,
    /// Entries installed (`tlb.<role>.fills`).
    pub fills: Counter,
    /// Valid entries evicted (`tlb.<role>.evictions`).
    pub evictions: Counter,
    /// The fetch-stream share of `hits`, `misses` and `shared_hits`
    /// (`tlb.l2.instr_*`). Only the unified L2 keeps it: the L1i serves
    /// only fetches and the L1d only data.
    pub instr: Option<StreamCounters>,
}

/// Hit/miss/shared-hit counters of one access stream.
#[derive(Debug, Clone, Default)]
pub struct StreamCounters {
    /// Lookups that hit.
    pub hits: Counter,
    /// Lookups that missed.
    pub misses: Counter,
    /// Hits on entries loaded by a different process.
    pub shared_hits: Counter,
}

impl TlbTelemetry {
    /// Handles under the `tlb.<role>.*` namespace of `registry`.
    pub fn for_role(registry: &Registry, role: &str) -> Self {
        let counter = |leaf: &str| registry.counter(&format!("tlb.{role}.{leaf}"));
        TlbTelemetry {
            hits: counter("hits"),
            misses: counter("misses"),
            shared_hits: counter("shared_hits"),
            private_copy_hits: counter("private_copy_hits"),
            ownership_transitions: counter("ownership_transitions"),
            cow_faults: counter("cow_faults"),
            bitmask_checks: counter("bitmask_checks"),
            fills: counter("fills"),
            evictions: counter("evictions"),
            instr: (role == "l2").then(|| StreamCounters {
                hits: counter("instr_hits"),
                misses: counter("instr_misses"),
                shared_hits: counter("instr_shared_hits"),
            }),
        }
    }
}

/// Registers the TLB-layer cross-counter invariants for every role.
/// Each law holds cumulatively from boot, by construction of the
/// recording sites in [`crate::Tlb`]:
///
/// - shared hits and private-copy hits are subsets of hits;
/// - every evicted valid entry was installed by a fill first;
/// - the L2's fetch-stream hits, misses and shared hits are subsets of
///   its totals.
pub fn register_invariants(set: &mut InvariantSet) {
    for role in ["l1i", "l1d", "l2"] {
        set.counter_le(
            format!("tlb.{role}.shared_hits_within_hits"),
            &format!("tlb.{role}.shared_hits"),
            &format!("tlb.{role}.hits"),
        );
        set.counter_le(
            format!("tlb.{role}.private_copy_hits_within_hits"),
            &format!("tlb.{role}.private_copy_hits"),
            &format!("tlb.{role}.hits"),
        );
        set.counter_le(
            format!("tlb.{role}.evictions_within_fills"),
            &format!("tlb.{role}.evictions"),
            &format!("tlb.{role}.fills"),
        );
    }
    for leaf in ["hits", "misses", "shared_hits"] {
        set.counter_le(
            format!("tlb.l2.instr_{leaf}_within_{leaf}"),
            &format!("tlb.l2.instr_{leaf}"),
            &format!("tlb.l2.{leaf}"),
        );
    }
}
