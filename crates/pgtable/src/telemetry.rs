//! Telemetry handles for the page-table layer.
//!
//! All handles live under the `pgtable.` prefix of the shared
//! [`Registry`]. The [`TableStore`](crate::TableStore) owns one
//! [`PgtableTelemetry`] so that
//! [`AddressSpace::walk`](crate::AddressSpace::walk), which only sees
//! `&TableStore`, can record through the shared `&self` handles.

use bf_telemetry::{Counter, Histogram, Registry};

/// Recording handles for page-table events. Default handles are
/// detached (registry-less); [`PgtableTelemetry::attach`] routes them
/// into a [`Registry`].
#[derive(Debug, Clone, Default)]
pub struct PgtableTelemetry {
    /// Software walks performed (`pgtable.walks`).
    pub walks: Counter,
    /// Levels visited per walk, 1–4 (`pgtable.walk_depth`).
    pub walk_depth: Histogram,
    /// Table pages allocated (`pgtable.tables_allocated`).
    pub tables_allocated: Counter,
    /// Table pages freed by their last sharer (`pgtable.tables_freed`).
    pub tables_freed: Counter,
    /// PC-bitmask bits set — one per MaskPage CoW privatisation event
    /// (`pgtable.maskpage_cow_marks`).
    pub cow_marks: Counter,
}

impl PgtableTelemetry {
    /// Registers the `pgtable.*` handles in `registry`.
    pub fn attach(registry: &Registry) -> Self {
        PgtableTelemetry {
            walks: registry.counter("pgtable.walks"),
            walk_depth: registry.histogram("pgtable.walk_depth"),
            tables_allocated: registry.counter("pgtable.tables_allocated"),
            tables_freed: registry.counter("pgtable.tables_freed"),
            cow_marks: registry.counter("pgtable.maskpage_cow_marks"),
        }
    }
}
