//! Fundamental types shared across the BabelFish reproduction.
//!
//! This crate defines the vocabulary of the whole workspace: virtual and
//! physical addresses, page numbers, the identifiers used to tag TLB
//! entries ([`Pcid`], [`Ccid`], [`Pid`]), page sizes and permission flags,
//! and the x86-64 address-decomposition helpers used by the page walker.
//!
//! Everything here is a plain value type: `Copy`, comparable, hashable and
//! printable, so the higher layers can use them as map keys and in
//! statistics without ceremony.
//!
//! # Examples
//!
//! ```
//! use bf_types::{VirtAddr, PageSize};
//!
//! let va = VirtAddr::new(0x7f12_3456_7123);
//! assert_eq!(va.page_offset(PageSize::Size4K), 0x123);
//! assert_eq!(va.vpn(PageSize::Size4K).base_addr(PageSize::Size4K).raw(), 0x7f12_3456_7000);
//! ```

pub mod addr;
pub mod flags;
pub mod hash;
pub mod ids;
pub mod size;

pub use addr::{PhysAddr, Ppn, VirtAddr, Vpn};
pub use flags::PageFlags;
pub use hash::{FastMap, FastSet};
pub use ids::{Ccid, CoreId, Pcid, Pid};
pub use size::PageSize;

/// Number of entries in one x86-64 page-table page (PGD/PUD/PMD/PTE).
pub const TABLE_ENTRIES: usize = 512;

/// Bytes per 4 KB base page.
pub const PAGE_SIZE_4K: u64 = 4096;

/// Bytes per cache line throughout the modelled hierarchy (Table I).
pub const CACHE_LINE_BYTES: u64 = 64;

/// Bytes per page-table entry (a 64-bit `pte_t`).
pub const PTE_BYTES: u64 = 8;

/// Maximum number of private-copy (CoW-writing) processes a PC bitmask can
/// track per PMD table set (Section III-A: "We limit the number of private
/// copies to 32 to keep the storage modest").
pub const PC_BITMASK_BITS: usize = 32;

/// A simulated clock cycle count.
///
/// Cycles are the single unit of time in the simulator; wall-clock
/// quantities (e.g. the 10 ms scheduling quantum) are converted to cycles
/// at the configured core frequency.
pub type Cycles = u64;

/// The four levels of the x86-64 radix page table, from root to leaf.
///
/// ```
/// use bf_types::PageTableLevel;
/// assert_eq!(PageTableLevel::Pgd.next(), Some(PageTableLevel::Pud));
/// assert_eq!(PageTableLevel::Pte.next(), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum PageTableLevel {
    /// Page Global Directory (root; reached through CR3).
    #[default]
    Pgd,
    /// Page Upper Directory.
    Pud,
    /// Page Middle Directory. 2 MB huge-page leaves live here, as do the
    /// BabelFish O/ORPC bits (Fig. 5a).
    Pmd,
    /// Page Table (leaf level for 4 KB pages).
    Pte,
}

impl PageTableLevel {
    /// All levels from root to leaf, in walk order.
    pub const ALL: [PageTableLevel; 4] = [
        PageTableLevel::Pgd,
        PageTableLevel::Pud,
        PageTableLevel::Pmd,
        PageTableLevel::Pte,
    ];

    /// The level the walker visits after this one, or `None` at the leaf.
    pub fn next(self) -> Option<PageTableLevel> {
        match self {
            PageTableLevel::Pgd => Some(PageTableLevel::Pud),
            PageTableLevel::Pud => Some(PageTableLevel::Pmd),
            PageTableLevel::Pmd => Some(PageTableLevel::Pte),
            PageTableLevel::Pte => None,
        }
    }

    /// Index of this level in walk order (PGD = 0 .. PTE = 3).
    pub fn depth(self) -> usize {
        match self {
            PageTableLevel::Pgd => 0,
            PageTableLevel::Pud => 1,
            PageTableLevel::Pmd => 2,
            PageTableLevel::Pte => 3,
        }
    }

    /// The page size mapped by a *leaf* entry at this level, if leaves are
    /// architecturally permitted here (PUD → 1 GB, PMD → 2 MB, PTE → 4 KB).
    pub fn leaf_page_size(self) -> Option<PageSize> {
        match self {
            PageTableLevel::Pgd => None,
            PageTableLevel::Pud => Some(PageSize::Size1G),
            PageTableLevel::Pmd => Some(PageSize::Size2M),
            PageTableLevel::Pte => Some(PageSize::Size4K),
        }
    }
}

impl std::fmt::Display for PageTableLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PageTableLevel::Pgd => "PGD",
            PageTableLevel::Pud => "PUD",
            PageTableLevel::Pmd => "PMD",
            PageTableLevel::Pte => "PTE",
        };
        f.write_str(s)
    }
}

/// Whether a memory reference is a data read, a data write, or an
/// instruction fetch.
///
/// The distinction matters throughout: writes trigger CoW faults, fetches
/// go through the instruction TLB/L1I, and the statistics of Fig. 10 are
/// reported separately for data and instruction streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Data load.
    Read,
    /// Data store.
    Write,
    /// Instruction fetch.
    Fetch,
}

impl AccessKind {
    /// Every kind, in [`AccessKind::index`] order.
    pub const ALL: [AccessKind; 3] = [AccessKind::Read, AccessKind::Write, AccessKind::Fetch];

    /// Stable small integer for serialization (trace formats, dense
    /// tables): Read = 0, Write = 1, Fetch = 2.
    pub fn index(self) -> u8 {
        match self {
            AccessKind::Read => 0,
            AccessKind::Write => 1,
            AccessKind::Fetch => 2,
        }
    }

    /// Inverse of [`AccessKind::index`]; `None` for out-of-range values.
    pub fn from_index(index: u8) -> Option<AccessKind> {
        AccessKind::ALL.get(index as usize).copied()
    }

    /// `true` for [`AccessKind::Write`].
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }

    /// `true` for [`AccessKind::Fetch`].
    pub fn is_fetch(self) -> bool {
        matches!(self, AccessKind::Fetch)
    }
}

impl std::fmt::Display for AccessKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
            AccessKind::Fetch => "fetch",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_order_is_walk_order() {
        let mut level = PageTableLevel::Pgd;
        let mut seen = vec![level];
        while let Some(next) = level.next() {
            seen.push(next);
            level = next;
        }
        assert_eq!(seen, PageTableLevel::ALL);
    }

    #[test]
    fn level_depths_are_consecutive() {
        for (i, level) in PageTableLevel::ALL.iter().enumerate() {
            assert_eq!(level.depth(), i);
        }
    }

    #[test]
    fn access_kind_index_roundtrips() {
        for (i, kind) in AccessKind::ALL.iter().enumerate() {
            assert_eq!(kind.index() as usize, i);
            assert_eq!(AccessKind::from_index(kind.index()), Some(*kind));
        }
        assert_eq!(AccessKind::from_index(3), None);
    }

    #[test]
    fn leaf_sizes_match_architecture() {
        assert_eq!(PageTableLevel::Pgd.leaf_page_size(), None);
        assert_eq!(PageTableLevel::Pud.leaf_page_size(), Some(PageSize::Size1G));
        assert_eq!(PageTableLevel::Pmd.leaf_page_size(), Some(PageSize::Size2M));
        assert_eq!(PageTableLevel::Pte.leaf_page_size(), Some(PageSize::Size4K));
    }

    #[test]
    fn access_kind_predicates() {
        assert!(AccessKind::Write.is_write());
        assert!(!AccessKind::Read.is_write());
        assert!(AccessKind::Fetch.is_fetch());
        assert!(!AccessKind::Write.is_fetch());
    }

    #[test]
    fn display_impls_are_nonempty() {
        for level in PageTableLevel::ALL {
            assert!(!level.to_string().is_empty());
        }
        for kind in [AccessKind::Read, AccessKind::Write, AccessKind::Fetch] {
            assert!(!kind.to_string().is_empty());
        }
    }
}
