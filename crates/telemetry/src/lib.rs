//! # bf-telemetry
//!
//! Observability subsystem for the BabelFish reproduction: hierarchical
//! lock-free [`Counter`]s and log2-bucketed [`Histogram`]s behind a
//! shared [`Registry`], epoch [`Snapshot`]s with delta/merge semantics,
//! bounded merge-halving [`Timeline`]s with cross-counter
//! [`InvariantSet`] checking, a JSON exporter for `results/` artifacts,
//! and a live-run [`heartbeat`] NDJSON event stream for `bf_top` and CI.
//!
//! ## Naming convention
//!
//! Metric names are dot-separated hierarchies owned by the emitting
//! crate: `tlb.l1d.hits`, `cache.l2.walker_misses`, `walk.depth`,
//! `os.fault.cow_cycles`. The registry interns each name once; handles
//! are cheap `Arc` clones that record without taking any lock.

mod export;
pub mod heartbeat;
mod invariants;
mod metrics;
mod profiler;
mod registry;
mod snapshot;
mod timeline;

pub use export::write_json;
pub use invariants::{InvariantMode, InvariantSet, Violation};
pub use metrics::{Counter, Histogram};
pub use profiler::{
    path_name, path_push, path_src, Blame, BlameEntry, PathCount, PathSig, ProfileSnapshot,
    Profiler, RegionCount, RegionKey, SetCounts, SpaceSaving, REGION_SHIFT,
};
pub use registry::Registry;
pub use snapshot::{HistogramSnapshot, Snapshot, BUCKETS};
pub use timeline::{Epoch, PhaseSummary, Timeline, TimelineSnapshot, DEFAULT_TIMELINE_CAPACITY};

/// Always true: the counters are always compiled in. Kept only because
/// the `perf/` benchmark calls it; a benchmark change may drop it.
#[inline]
pub const fn enabled() -> bool {
    true
}
