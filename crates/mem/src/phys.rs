//! Sparse backing store for pages with real contents (page tables and
//! MaskPages).

use crate::FrameTable;
use bf_types::{PhysAddr, Ppn, TABLE_ENTRIES};

/// The contents of one materialised page.
type Page = [u64; TABLE_ENTRIES];

/// Word-addressable physical memory for the pages whose *contents* the
/// simulation actually needs: page-table pages and MaskPages.
///
/// Ordinary data pages never materialise here — only their timing matters,
/// and the cache/DRAM models track them by address alone. Page-table pages
/// must hold real entries because the hardware walker reads them back:
/// when BabelFish points two processes' PMD entries at the same PTE table,
/// the walker reads the *same physical words* for both, and the cache
/// model sees the same lines (Fig. 6/7).
///
/// Reads of unpopulated pages return 0, matching zero-filled fresh frames.
/// Pages are found through a [`FrameTable`] indexed by frame number, so
/// a read is two dependent loads to the page pointer and no hashing.
///
/// # Examples
///
/// ```
/// use bf_mem::PhysMemory;
/// use bf_types::{Ppn, PhysAddr};
///
/// let mut mem = PhysMemory::new();
/// let table = Ppn::new(7);
/// mem.write_entry(table, 3, 0xdead_beef);
/// assert_eq!(mem.read_entry(table, 3), 0xdead_beef);
/// let entry_addr = PhysAddr::new(table.base_addr().raw() + 3 * 8);
/// assert_eq!(mem.read_u64(entry_addr), 0xdead_beef);
/// ```
#[derive(Debug, Default)]
pub struct PhysMemory {
    pages: FrameTable<Option<Box<Page>>>,
    /// Pages currently materialised (`Some` slots in `pages`).
    populated: usize,
}

impl PhysMemory {
    /// Creates an empty store.
    pub fn new() -> Self {
        PhysMemory::default()
    }

    /// Number of pages with materialised contents.
    pub fn populated_pages(&self) -> usize {
        self.populated
    }

    /// Reads the 64-bit word at a physical address (must be 8-byte
    /// aligned). Unpopulated pages read as zero.
    ///
    /// # Panics
    ///
    /// Panics on a misaligned address.
    pub fn read_u64(&self, addr: PhysAddr) -> u64 {
        assert_eq!(addr.raw() % 8, 0, "misaligned 64-bit read at {addr}");
        let index = (addr.raw() % 4096 / 8) as usize;
        self.page(addr.ppn()).map_or(0, |page| page[index])
    }

    /// Writes the 64-bit word at a physical address, materialising the
    /// page if needed.
    ///
    /// # Panics
    ///
    /// Panics on a misaligned address.
    pub fn write_u64(&mut self, addr: PhysAddr, value: u64) {
        assert_eq!(addr.raw() % 8, 0, "misaligned 64-bit write at {addr}");
        let index = (addr.raw() % 4096 / 8) as usize;
        self.page_mut(addr.ppn())[index] = value;
    }

    /// Reads entry `index` (0..512) of the table page at `frame`.
    ///
    /// # Panics
    ///
    /// Panics if `index` ≥ 512.
    pub fn read_entry(&self, frame: Ppn, index: usize) -> u64 {
        assert!(index < TABLE_ENTRIES, "entry index {index} out of range");
        self.page(frame).map_or(0, |page| page[index])
    }

    /// Writes entry `index` (0..512) of the table page at `frame`.
    ///
    /// # Panics
    ///
    /// Panics if `index` ≥ 512.
    pub fn write_entry(&mut self, frame: Ppn, index: usize, value: u64) {
        assert!(index < TABLE_ENTRIES, "entry index {index} out of range");
        self.page_mut(frame)[index] = value;
    }

    /// Copies all 512 entries of `src` into `dst` — the bulk copy behind
    /// the BabelFish CoW protocol, which clones a whole page of 512
    /// `pte_t` translations at once (Section III-A).
    pub fn copy_page(&mut self, src: Ppn, dst: Ppn) {
        let contents = self.page(src).copied();
        match contents {
            Some(words) => *self.page_mut(dst) = words,
            None => {
                // Source never written ⇒ all zeros.
                if let Some(page) = self.pages.get_mut(dst).and_then(Option::as_deref_mut) {
                    *page = [0; TABLE_ENTRIES];
                }
            }
        }
    }

    /// Releases the materialised contents of a page (called when a table
    /// frame is freed).
    pub fn release_page(&mut self, frame: Ppn) {
        if let Some(slot) = self.pages.get_mut(frame) {
            if slot.take().is_some() {
                self.populated -= 1;
            }
        }
    }

    #[inline]
    fn page(&self, frame: Ppn) -> Option<&Page> {
        self.pages.get(frame)?.as_deref()
    }

    fn page_mut(&mut self, frame: Ppn) -> &mut Page {
        let slot = self.pages.slot_mut(frame);
        if slot.is_none() {
            self.populated += 1;
        }
        slot.get_or_insert_with(|| Box::new([0; TABLE_ENTRIES]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unpopulated_reads_are_zero() {
        let mem = PhysMemory::new();
        assert_eq!(mem.read_u64(PhysAddr::new(0x1000)), 0);
        assert_eq!(mem.read_entry(Ppn::new(9), 100), 0);
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut mem = PhysMemory::new();
        mem.write_u64(PhysAddr::new(0x2008), 42);
        assert_eq!(mem.read_u64(PhysAddr::new(0x2008)), 42);
        assert_eq!(mem.read_entry(Ppn::new(2), 1), 42);
    }

    #[test]
    fn entry_and_word_views_agree() {
        let mut mem = PhysMemory::new();
        let frame = Ppn::new(5);
        mem.write_entry(frame, 511, 7);
        let addr = PhysAddr::new(frame.base_addr().raw() + 511 * 8);
        assert_eq!(mem.read_u64(addr), 7);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_read_panics() {
        let mem = PhysMemory::new();
        mem.read_u64(PhysAddr::new(0x1001));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn entry_index_bounds_checked() {
        let mem = PhysMemory::new();
        mem.read_entry(Ppn::new(1), 512);
    }

    #[test]
    fn copy_page_duplicates_contents() {
        let mut mem = PhysMemory::new();
        let src = Ppn::new(1);
        let dst = Ppn::new(2);
        for i in 0..TABLE_ENTRIES {
            mem.write_entry(src, i, i as u64 * 3);
        }
        mem.copy_page(src, dst);
        for i in 0..TABLE_ENTRIES {
            assert_eq!(mem.read_entry(dst, i), i as u64 * 3);
        }
        // Copies are independent afterwards.
        mem.write_entry(dst, 0, 999);
        assert_eq!(mem.read_entry(src, 0), 0);
    }

    #[test]
    fn copy_of_unwritten_source_zeroes_destination() {
        let mut mem = PhysMemory::new();
        let dst = Ppn::new(2);
        mem.write_entry(dst, 4, 1234);
        mem.copy_page(Ppn::new(1), dst);
        assert_eq!(mem.read_entry(dst, 4), 0);
    }

    #[test]
    fn release_page_drops_contents() {
        let mut mem = PhysMemory::new();
        let frame = Ppn::new(3);
        mem.write_entry(frame, 0, 1);
        assert_eq!(mem.populated_pages(), 1);
        mem.release_page(frame);
        assert_eq!(mem.populated_pages(), 0);
        assert_eq!(mem.read_entry(frame, 0), 0);
    }
}
