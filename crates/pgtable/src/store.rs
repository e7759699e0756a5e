//! The table store: simulated physical memory, the frame pool, and the
//! per-table sharer counters of Section IV-B.

use crate::entry::EntryValue;
use crate::telemetry::PgtableTelemetry;
use bf_mem::{FrameAllocator, PhysMemory};
use bf_telemetry::Registry;
use bf_types::{FastMap, Ppn};

/// Counters exposed by [`TableStore::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct TableStoreStats {
    /// Table pages currently allocated.
    pub live_tables: u64,
    /// Table pages allocated over the run.
    pub tables_allocated: u64,
    /// Table pages freed when their last sharer released them.
    pub tables_freed: u64,
    /// High-water mark of live table pages.
    pub peak_tables: u64,
}

/// Owns everything the page-table layer needs: the frame pool, the
/// simulated physical memory holding table contents, and one 16-bit
/// sharer counter per table page.
///
/// The counters implement Section IV-B: "BabelFish adds counters to record
/// the number of processes currently sharing pages... When the last sharer
/// of the table terminates or removes its pointer to the table, the
/// counter reaches zero, and the OS can unmap the table." They also feed
/// the 0.048 % space-overhead figure of Section VII-D (16 bits per 512
/// `pte_t`s).
///
/// # Examples
///
/// ```
/// use bf_pgtable::TableStore;
///
/// let mut store = TableStore::new(4096);
/// let table = store.alloc_table().unwrap();
/// store.share_table(table);               // second process points at it
/// assert_eq!(store.sharers(table), 2);
/// assert!(!store.release_table(table));   // first unmap: still live
/// assert!(store.release_table(table));    // last sharer: freed
/// ```
#[derive(Debug)]
pub struct TableStore {
    /// The simulated physical memory (table contents live here).
    pub mem: PhysMemory,
    /// The physical frame pool.
    pub frames: FrameAllocator,
    sharers: FastMap<Ppn, u16>,
    stats: TableStoreStats,
    telem: PgtableTelemetry,
}

impl TableStore {
    /// Creates a store over `frame_capacity` 4 KB frames.
    pub fn new(frame_capacity: u64) -> Self {
        TableStore {
            mem: PhysMemory::new(),
            frames: FrameAllocator::new(frame_capacity),
            sharers: FastMap::default(),
            stats: TableStoreStats::default(),
            telem: PgtableTelemetry::default(),
        }
    }

    /// Routes this store's `pgtable.*` handles into `registry`.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.telem = PgtableTelemetry::attach(registry);
    }

    /// The store's recording handles (used by [`crate::AddressSpace::walk`],
    /// which only sees `&TableStore`).
    pub fn telemetry(&self) -> &PgtableTelemetry {
        &self.telem
    }

    /// Allocates a zeroed table page with one sharer.
    ///
    /// Returns `None` when physical memory is exhausted.
    pub fn alloc_table(&mut self) -> Option<Ppn> {
        let frame = self.frames.alloc()?;
        self.sharers.insert(frame, 1);
        self.stats.tables_allocated += 1;
        self.telem.tables_allocated.incr();
        self.stats.live_tables += 1;
        self.stats.peak_tables = self.stats.peak_tables.max(self.stats.live_tables);
        Some(frame)
    }

    /// Registers another sharer of `table` (a new process pointing its
    /// directory entry at it, Fig. 6).
    ///
    /// # Panics
    ///
    /// Panics if `table` is not a live table, or if the 16-bit counter
    /// would overflow.
    pub fn share_table(&mut self, table: Ppn) {
        let count = self
            .sharers
            .get_mut(&table)
            .unwrap_or_else(|| panic!("share_table on unknown table {table}"));
        *count = count
            .checked_add(1)
            .expect("table sharer counter overflow (16-bit, Section IV-B)");
    }

    /// Removes one sharer; frees the table page (and its simulated
    /// contents) when the counter reaches zero. Returns `true` if freed.
    ///
    /// # Panics
    ///
    /// Panics if `table` is not a live table.
    pub fn release_table(&mut self, table: Ppn) -> bool {
        let count = self
            .sharers
            .get_mut(&table)
            .unwrap_or_else(|| panic!("release_table on unknown table {table}"));
        *count -= 1;
        if *count == 0 {
            self.sharers.remove(&table);
            self.mem.release_page(table);
            self.frames.dec_ref(table);
            self.stats.tables_freed += 1;
            self.telem.tables_freed.incr();
            self.stats.live_tables -= 1;
            true
        } else {
            false
        }
    }

    /// Current sharer count of a table (0 if unknown/freed).
    pub fn sharers(&self, table: Ppn) -> u16 {
        self.sharers.get(&table).copied().unwrap_or(0)
    }

    /// Whether `table` is currently shared by more than one process.
    pub fn is_shared(&self, table: Ppn) -> bool {
        self.sharers(table) > 1
    }

    /// Total references held on tables that are actually shared
    /// (sharer count > 1) — the machine samples this into the
    /// `pgtable.shared_refs` counter track.
    pub fn shared_refs(&self) -> u64 {
        self.sharers
            .values()
            .filter(|&&count| count > 1)
            .map(|&count| count as u64)
            .sum()
    }

    /// Reads the decoded entry at `index` of `table`.
    pub fn read(&self, table: Ppn, index: usize) -> EntryValue {
        EntryValue::decode(self.mem.read_entry(table, index))
    }

    /// Writes the entry at `index` of `table`.
    pub fn write(&mut self, table: Ppn, index: usize, value: EntryValue) {
        self.mem.write_entry(table, index, value.encode());
    }

    /// Clones the 512 entries of `src` into a freshly allocated table —
    /// the bulk copy of the BabelFish CoW protocol (Section III-A).
    ///
    /// Returns `None` when physical memory is exhausted.
    pub fn clone_table(&mut self, src: Ppn) -> Option<Ppn> {
        let dst = self.alloc_table()?;
        self.mem.copy_page(src, dst);
        Some(dst)
    }

    /// Table accounting counters.
    pub fn stats(&self) -> TableStoreStats {
        self.stats
    }

    /// Bytes of sharer-counter metadata currently held (2 bytes per live
    /// table), for the Section VII-D space accounting.
    pub fn counter_bytes(&self) -> u64 {
        self.sharers.len() as u64 * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bf_types::PageFlags;

    #[test]
    fn alloc_starts_with_one_sharer() {
        let mut store = TableStore::new(64);
        let table = store.alloc_table().unwrap();
        assert_eq!(store.sharers(table), 1);
        assert!(!store.is_shared(table));
    }

    #[test]
    fn share_release_lifecycle() {
        let mut store = TableStore::new(64);
        let table = store.alloc_table().unwrap();
        store.share_table(table);
        store.share_table(table);
        assert_eq!(store.sharers(table), 3);
        assert!(store.is_shared(table));
        assert!(!store.release_table(table));
        assert!(!store.release_table(table));
        assert!(store.release_table(table));
        assert_eq!(store.sharers(table), 0);
    }

    #[test]
    fn freed_table_frame_is_recycled() {
        let mut store = TableStore::new(8);
        let table = store.alloc_table().unwrap();
        store.write(table, 0, EntryValue::new(Ppn::new(9), PageFlags::PRESENT));
        store.release_table(table);
        let again = store.alloc_table().unwrap();
        assert_eq!(again, table, "frame should be recycled");
        assert!(
            !store.read(again, 0).is_present(),
            "contents must be zeroed"
        );
    }

    #[test]
    #[should_panic(expected = "unknown table")]
    fn sharing_freed_table_panics() {
        let mut store = TableStore::new(8);
        let table = store.alloc_table().unwrap();
        store.release_table(table);
        store.share_table(table);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut store = TableStore::new(8);
        let table = store.alloc_table().unwrap();
        let value = EntryValue::new(Ppn::new(77), PageFlags::PRESENT | PageFlags::OWNED);
        store.write(table, 13, value);
        assert_eq!(store.read(table, 13), value);
    }

    #[test]
    fn clone_table_copies_and_detaches() {
        let mut store = TableStore::new(16);
        let src = store.alloc_table().unwrap();
        store.write(src, 5, EntryValue::new(Ppn::new(50), PageFlags::PRESENT));
        let dst = store.clone_table(src).unwrap();
        assert_eq!(store.read(dst, 5).ppn, Ppn::new(50));
        store.write(dst, 5, EntryValue::empty());
        assert!(store.read(src, 5).is_present(), "source unaffected");
        assert_eq!(store.sharers(dst), 1);
    }

    #[test]
    fn stats_track_peak_and_frees() {
        let mut store = TableStore::new(16);
        let a = store.alloc_table().unwrap();
        let _b = store.alloc_table().unwrap();
        store.release_table(a);
        let stats = store.stats();
        assert_eq!(stats.tables_allocated, 2);
        assert_eq!(stats.tables_freed, 1);
        assert_eq!(stats.live_tables, 1);
        assert_eq!(stats.peak_tables, 2);
        assert_eq!(store.counter_bytes(), 2);
    }
}
