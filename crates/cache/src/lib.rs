//! Cache hierarchy and page-walk-cache models (Table I organisation).
//!
//! The paper's SST-based memory hierarchy is reproduced here as
//! physically-indexed, physically-tagged set-associative caches:
//!
//! * [`SetAssocCache`] — one cache level: LRU replacement over 64 B
//!   lines, tracking residency only (no dirty bits: write-back traffic
//!   costs no cycles in this model).
//! * [`CacheHierarchy`] — per-core L1I/L1D/L2 plus a shared L3 in front of
//!   [`bf_mem::Dram`]. Ordinary loads/stores enter at the L1; hardware
//!   page-walker requests enter at the L2, as in Fig. 7 ("the page walker
//!   issues a cache hierarchy request. The request misses in the L2 and L3
//!   caches and hits in main memory").
//! * [`PageWalkCache`] — the per-core translation cache holding
//!   recently-used PGD/PUD/PMD entries (16 entries per level, 4-way,
//!   1-cycle access; Table I).
//!
//! Because caches are tagged by *physical* line, page-table sharing in
//! BabelFish automatically turns into cache-line reuse: when two processes
//! walk the same shared PTE table, the second walker hits the line the
//! first one brought into the shared L3 (or the local L2 on the same
//! core) — exactly the Fig. 7 effect the paper measures.
//!
//! # Examples
//!
//! ```
//! use bf_cache::{CacheConfig, SetAssocCache};
//!
//! let mut l1 = SetAssocCache::new(CacheConfig::l1_data());
//! let line = 0x1234;
//! assert!(!l1.probe_and_touch(line)); // cold miss
//! l1.fill(line);
//! assert!(l1.probe_and_touch(line)); // now a hit
//! ```

pub mod hierarchy;
pub mod pwc;
pub mod set_assoc;

pub use hierarchy::{register_invariants, AccessOrigin, CacheHierarchy, HierarchyConfig, ServedBy};
pub use pwc::{PageWalkCache, PwcConfig};
pub use set_assoc::{CacheConfig, SetAssocCache};
