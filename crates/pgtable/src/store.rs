//! The table store: simulated physical memory, the frame pool, and the
//! per-table sharer counters of Section IV-B.

use crate::entry::EntryValue;
use crate::telemetry::PgtableTelemetry;
use bf_mem::{FrameAllocator, FrameTable, PhysMemory};
use bf_telemetry::Registry;
use bf_types::Ppn;

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
    /// Sharer count per frame; 0 ⇒ not a live table.
    sharers: FrameTable<u16>,
    /// Frames with a nonzero sharer count.
    live_tables: u64,
    telem: PgtableTelemetry,
}

impl TableStore {
    /// Creates a store over `frame_capacity` 4 KB frames.
    pub fn new(frame_capacity: u64) -> Self {
        TableStore {
            mem: PhysMemory::new(),
            frames: FrameAllocator::new(frame_capacity),
            sharers: FrameTable::default(),
            live_tables: 0,
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
        *self.sharers.slot_mut(frame) = 1;
        self.live_tables += 1;
        self.telem.tables_allocated.incr();
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
        let count = self.live_sharers(table, "share_table");
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
        let count = self.live_sharers(table, "release_table");
        *count -= 1;
        if *count == 0 {
            self.live_tables -= 1;
            self.mem.release_page(table);
            self.frames.dec_ref(table);
            self.telem.tables_freed.incr();
            true
        } else {
            false
        }
    }

    /// The sharer count of a live table.
    ///
    /// # Panics
    ///
    /// Panics, naming `op`, if `table` is not a live table.
    fn live_sharers(&mut self, table: Ppn, op: &str) -> &mut u16 {
        match self.sharers.get_mut(table) {
            Some(count) if *count > 0 => count,
            _ => panic!("{op} on unknown table {table}"),
        }
    }

    /// Current sharer count of a table (0 if unknown/freed).
    pub fn sharers(&self, table: Ppn) -> u16 {
        self.sharers.get(table).copied().unwrap_or(0)
    }

    /// Whether `table` is currently shared by more than one process.
    pub fn is_shared(&self, table: Ppn) -> bool {
        self.sharers(table) > 1
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

    /// Table pages currently allocated. The run's allocation and free
    /// counts are the `pgtable.tables_{allocated,freed}` counters.
    pub fn live_tables(&self) -> u64 {
        self.live_tables
    }

    /// Bytes of sharer-counter metadata currently held (2 bytes per live
    /// table), for the Section VII-D space accounting.
    pub fn counter_bytes(&self) -> u64 {
        self.live_tables * 2
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
    fn live_tables_and_counters_track_frees() {
        let registry = Registry::new();
        let mut store = TableStore::new(16);
        store.attach_telemetry(&registry);
        let a = store.alloc_table().unwrap();
        let _b = store.alloc_table().unwrap();
        store.share_table(a);
        assert!(!store.release_table(a));
        assert_eq!(store.live_tables(), 2, "a shared table stays live");
        assert!(store.release_table(a));
        let counters = registry.snapshot();
        assert_eq!(counters.counter("pgtable.tables_allocated"), 2);
        assert_eq!(counters.counter("pgtable.tables_freed"), 1);
        assert_eq!(store.live_tables(), 1);
        assert_eq!(store.counter_bytes(), 2);
    }

    proptest::proptest! {
        /// Random `alloc_table`, `share_table`, `release_table`,
        /// `clone_table`, `write` and `read` sequences give the same
        /// tables, sharer counts, reads, `live_tables` and `counter_bytes`
        /// as the `FastMap<Ppn, u16>` sharer map the frame table replaced,
        /// kept here as the reference.
        #[test]
        fn sharers_match_the_fastmap_reference(
            ops in proptest::collection::vec((0u8..6, 0u64..1 << 20, 0u64..1 << 20), 1..300),
        ) {
            use bf_types::{FastMap, PageFlags};
            const CAPACITY: u64 = 2 * 4096 + 50;
            let mut store = TableStore::new(CAPACITY);
            let mut reference: FastMap<Ppn, u16> = FastMap::default();
            // Fill the low chunk so later tables land in the next one.
            let filler: Vec<Ppn> = (0..4000).map(|_| store.frames.alloc().unwrap()).collect();
            let mut live: Vec<Ppn> = Vec::new();
            for (op, a, b) in ops {
                let pick = (!live.is_empty()).then(|| (a % live.len() as u64) as usize);
                match (op, pick) {
                    (0, _) => {
                        if let Some(table) = store.alloc_table() {
                            proptest::prop_assert_eq!(reference.insert(table, 1), None);
                            live.push(table);
                        }
                    }
                    (1, Some(pick)) => {
                        store.share_table(live[pick]);
                        *reference.get_mut(&live[pick]).unwrap() += 1;
                    }
                    (2, Some(pick)) => {
                        let table = live[pick];
                        let count = reference.get_mut(&table).unwrap();
                        *count -= 1;
                        let freed = *count == 0;
                        if freed {
                            reference.remove(&table);
                            live.retain(|&t| t != table);
                        }
                        proptest::prop_assert_eq!(store.release_table(table), freed);
                    }
                    (3, Some(pick)) => {
                        let src = live[pick];
                        if let Some(copy) = store.clone_table(src) {
                            proptest::prop_assert_eq!(reference.insert(copy, 1), None);
                            live.push(copy);
                            let index = (b % 512) as usize;
                            proptest::prop_assert_eq!(store.read(copy, index), store.read(src, index));
                        }
                    }
                    (4, Some(pick)) => {
                        let value = EntryValue::new(Ppn::new(b), PageFlags::PRESENT);
                        let index = (a % 512) as usize;
                        store.write(live[pick], index, value);
                        proptest::prop_assert_eq!(store.read(live[pick], index), value);
                    }
                    (5, Some(pick)) => {
                        proptest::prop_assert_eq!(
                            store.sharers(live[pick]),
                            reference[&live[pick]]
                        );
                    }
                    _ => {}
                }
                proptest::prop_assert_eq!(store.live_tables(), reference.len() as u64);
                proptest::prop_assert_eq!(store.counter_bytes(), reference.len() as u64 * 2);
            }
            for raw in 0..CAPACITY + 64 {
                let frame = Ppn::new(raw);
                let expected = reference.get(&frame).copied().unwrap_or(0);
                proptest::prop_assert_eq!(store.sharers(frame), expected);
                proptest::prop_assert_eq!(store.is_shared(frame), expected > 1);
            }
            proptest::prop_assert!(filler.iter().all(|&f| store.frames.refcount(f) == 1));
        }
    }
}
