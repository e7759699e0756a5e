//! x86-64 four-level page tables with BabelFish multi-level sharing.
//!
//! This crate implements the software half of BabelFish (Sections III-B,
//! IV-B and the Appendix) on top of real, simulated table pages:
//!
//! * [`EntryValue`] — the 64-bit `pte_t`/`pmd_t` encoding, including the
//!   BabelFish O and ORPC bits in the otherwise-unused bits 10 and 9
//!   (Fig. 5a).
//! * [`TableStore`] — owns the simulated physical memory and frame pool,
//!   plus the per-table 16-bit sharer counters of Section IV-B ("one
//!   counter is assigned to each table at the translation level where
//!   sharing occurs").
//! * [`AddressSpace`] — one process's radix tree rooted at a private PGD
//!   (CR3 is never shared, Section IV-B). Directory entries can point to
//!   *shared* lower-level tables: the Fig. 6 configuration where two
//!   processes' PMD entries hold the base of the same PTE table.
//! * [`MaskPage`] — the per-PMD-table-set OS structure holding 512 PC
//!   bitmasks and the ordered `pid_list` of up to 32 CoW writers
//!   (Appendix, Figs. 12/13).
//!
//! Because table pages live at real simulated physical addresses, the
//! hardware walker (in `bf-sim`) reads the same cache lines for every
//! sharer of a table — the effect that makes walks hit in the shared L3
//! in Fig. 7.
//!
//! # Examples
//!
//! ```
//! use bf_pgtable::{AddressSpace, TableStore};
//! use bf_types::*;
//!
//! let mut store = TableStore::new(1 << 20); // 4 GB of frames
//! let mut parent = AddressSpace::new(&mut store, Pid::new(1), Pcid::new(1), Ccid::new(0));
//! let mut child = AddressSpace::new(&mut store, Pid::new(2), Pcid::new(2), Ccid::new(0));
//!
//! let va = VirtAddr::new(0x7f00_0000_0000);
//! let frame = store.frames.alloc().unwrap();
//! parent.map(&mut store, va, frame, PageSize::Size4K,
//!            PageFlags::PRESENT | PageFlags::USER).unwrap();
//!
//! // BabelFish: the child shares the parent's PTE table (Fig. 6).
//! let pte_table = parent.table_at(&store, va, PageTableLevel::Pte).unwrap();
//! child.map_shared_table(&mut store, va, PageTableLevel::Pte, pte_table).unwrap();
//!
//! let walk = child.walk(&store, va);
//! assert_eq!(walk.leaf().unwrap().0.ppn, frame, "child sees the parent's mapping");
//! ```

pub mod entry;
pub mod maskpage;
pub mod space;
pub mod store;
pub mod telemetry;

pub use entry::EntryValue;
pub use maskpage::{MaskPage, MaskPageFull};
pub use space::{AddressSpace, MapError, WalkResult, WalkStep};
pub use store::TableStore;
pub use telemetry::PgtableTelemetry;
