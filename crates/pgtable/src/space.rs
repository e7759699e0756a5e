//! Per-process address spaces: private PGD roots over (possibly shared)
//! lower-level tables.

use crate::entry::EntryValue;
use crate::store::TableStore;
use bf_types::{
    Ccid, PageFlags, PageSize, PageTableLevel, Pcid, PhysAddr, Pid, Ppn, VirtAddr, TABLE_ENTRIES,
};

/// One visited entry during a page walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalkStep {
    /// Level of the table this entry lives in.
    pub level: PageTableLevel,
    /// Frame of the table page.
    pub table: Ppn,
    /// Entry index within the table.
    pub index: usize,
    /// Physical address of the entry (what the hardware walker fetches
    /// through the cache hierarchy).
    pub entry_addr: PhysAddr,
    /// Decoded entry value.
    pub value: EntryValue,
}

/// The outcome of a software page walk: every entry visited, in order,
/// stopping at the first non-present entry or at a leaf.
///
/// The at most four steps are held inline, so a walk allocates nothing.
/// Slots past `len` stay at their default value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalkResult {
    steps: [WalkStep; 4],
    len: usize,
}

impl WalkResult {
    /// The visited entries, root first.
    pub fn steps(&self) -> &[WalkStep] {
        &self.steps[..self.len]
    }

    /// The present leaf translation, if the walk completed: the entry
    /// value and the page size it maps.
    pub fn leaf(&self) -> Option<(EntryValue, PageSize)> {
        let last = self.steps().last()?;
        if !last.value.is_present() {
            return None;
        }
        match last.level {
            PageTableLevel::Pte => Some((last.value, PageSize::Size4K)),
            PageTableLevel::Pmd if last.value.is_huge_leaf() => {
                Some((last.value, PageSize::Size2M))
            }
            PageTableLevel::Pud if last.value.is_huge_leaf() => {
                Some((last.value, PageSize::Size1G))
            }
            _ => None,
        }
    }

    /// The first level whose entry was not present (where a fault must be
    /// serviced), if the walk did not complete.
    pub fn missing_level(&self) -> Option<PageTableLevel> {
        match self.steps().last() {
            None => Some(PageTableLevel::Pgd),
            Some(step) if !step.value.is_present() => Some(step.level),
            _ => None,
        }
    }

    /// The step through the PMD level, if the walk got that far — the
    /// entry carrying the BabelFish O/ORPC bits (Fig. 5a).
    pub fn pmd_step(&self) -> Option<&WalkStep> {
        self.steps().iter().find(|s| s.level == PageTableLevel::Pmd)
    }
}

/// Errors from mapping operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapError {
    /// The frame pool is exhausted.
    OutOfMemory,
    /// A huge mapping was requested at a virtual/physical address that is
    /// not naturally aligned.
    Misaligned,
    /// The slot is already occupied by a conflicting mapping (e.g. a
    /// table where a leaf was requested, or a different shared table).
    Conflict,
    /// Table sharing was requested at the PGD level, which BabelFish
    /// never shares (Section IV-B).
    PgdNeverShared,
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            MapError::OutOfMemory => "physical memory exhausted",
            MapError::Misaligned => "huge mapping is not naturally aligned",
            MapError::Conflict => "conflicting mapping already present",
            MapError::PgdNeverShared => "PGD tables are never shared",
        };
        f.write_str(s)
    }
}

impl std::error::Error for MapError {}

/// One process's four-level page-table tree.
///
/// The PGD is always private ("We always keep the first level of the
/// tables (PGD) private to the process", Section III-B); any lower level
/// may point at tables shared with other members of the CCID group via
/// [`AddressSpace::map_shared_table`].
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug)]
pub struct AddressSpace {
    pid: Pid,
    pcid: Pcid,
    ccid: Ccid,
    pgd: Ppn,
}

/// Flags used for directory (non-leaf) entries.
fn dir_flags() -> PageFlags {
    PageFlags::PRESENT | PageFlags::WRITE | PageFlags::USER
}

impl AddressSpace {
    /// Creates an empty address space with a fresh private PGD.
    ///
    /// # Panics
    ///
    /// Panics if the frame pool cannot supply the PGD page.
    pub fn new(store: &mut TableStore, pid: Pid, pcid: Pcid, ccid: Ccid) -> Self {
        let pgd = store.alloc_table().expect("no memory for PGD");
        AddressSpace {
            pid,
            pcid,
            ccid,
            pgd,
        }
    }

    /// The owning process id.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The process's PCID.
    pub fn pcid(&self) -> Pcid {
        self.pcid
    }

    /// The process's CCID group.
    pub fn ccid(&self) -> Ccid {
        self.ccid
    }

    /// The PGD root frame (the CR3 value).
    pub fn pgd(&self) -> Ppn {
        self.pgd
    }

    /// Software page walk for `va` (Fig. 2), recording each visited
    /// entry. Stops at the first non-present entry or at the leaf.
    pub fn walk(&self, store: &TableStore, va: VirtAddr) -> WalkResult {
        let mut walk = WalkResult::default();
        let mut table = self.pgd;
        for level in PageTableLevel::ALL {
            let index = va.level_index(level);
            let entry_addr = EntryValue::entry_addr(table, index);
            let value = store.read(table, index);
            walk.steps[walk.len] = WalkStep {
                level,
                table,
                index,
                entry_addr,
                value,
            };
            walk.len += 1;
            if !value.is_present() || level == PageTableLevel::Pte || value.is_huge_leaf() {
                break;
            }
            table = value.ppn;
        }
        store.telemetry().walks.incr();
        store.telemetry().walk_depth.record(walk.len as u64);
        store
            .telemetry()
            .spans
            .instant("pgtable.walk", &[("levels", walk.len as u64)]);
        walk
    }

    /// Maps `va → frame` at the given page size, allocating private
    /// intermediate tables as needed and overwriting any previous leaf in
    /// the slot.
    ///
    /// # Errors
    ///
    /// [`MapError::Misaligned`] for unaligned huge mappings,
    /// [`MapError::Conflict`] if the leaf slot holds a table pointer, and
    /// [`MapError::OutOfMemory`] if a table cannot be allocated.
    pub fn map(
        &mut self,
        store: &mut TableStore,
        va: VirtAddr,
        frame: Ppn,
        size: PageSize,
        flags: PageFlags,
    ) -> Result<(), MapError> {
        if size.is_huge()
            && (!va.is_aligned(size) || !frame.raw().is_multiple_of(size.base_pages()))
        {
            return Err(MapError::Misaligned);
        }
        let leaf_level = match size {
            PageSize::Size4K => PageTableLevel::Pte,
            PageSize::Size2M => PageTableLevel::Pmd,
            PageSize::Size1G => PageTableLevel::Pud,
        };
        let table = self.ensure_chain(store, va, leaf_level)?;
        let index = va.level_index(leaf_level);
        let existing = store.read(table, index);
        if existing.is_present() && leaf_level != PageTableLevel::Pte && !existing.is_huge_leaf() {
            return Err(MapError::Conflict);
        }
        let mut leaf_flags = flags | PageFlags::PRESENT;
        if size.is_huge() {
            leaf_flags |= PageFlags::HUGE;
        }
        store.write(table, index, EntryValue::new(frame, leaf_flags));
        Ok(())
    }

    /// Clears the leaf entry for `va` at `size`, returning the previous
    /// value if one was present. Intermediate tables are left in place
    /// (they are torn down by [`AddressSpace::destroy`] or by the last
    /// sharer's release).
    pub fn unmap(
        &mut self,
        store: &mut TableStore,
        va: VirtAddr,
        size: PageSize,
    ) -> Option<EntryValue> {
        let leaf_level = match size {
            PageSize::Size4K => PageTableLevel::Pte,
            PageSize::Size2M => PageTableLevel::Pmd,
            PageSize::Size1G => PageTableLevel::Pud,
        };
        let table = self.table_at(store, va, leaf_level)?;
        let index = va.level_index(leaf_level);
        let value = store.read(table, index);
        if !value.is_present() {
            return None;
        }
        store.write(table, index, EntryValue::empty());
        Some(value)
    }

    /// Rewrites the leaf entry for `va` (used by fault handlers to flip
    /// PRESENT/COW/OWNED bits or redirect a CoW copy).
    ///
    /// Returns `false` if no table chain reaches the leaf level.
    pub fn write_leaf(
        &mut self,
        store: &mut TableStore,
        va: VirtAddr,
        size: PageSize,
        value: EntryValue,
    ) -> bool {
        let leaf_level = match size {
            PageSize::Size4K => PageTableLevel::Pte,
            PageSize::Size2M => PageTableLevel::Pmd,
            PageSize::Size1G => PageTableLevel::Pud,
        };
        match self.table_at(store, va, leaf_level) {
            Some(table) => {
                store.write(table, va.level_index(leaf_level), value);
                true
            }
            None => false,
        }
    }

    /// The frame of the table serving `va` at `level`, if the chain
    /// reaches it. `table_at(.., Pte)` is the PTE-table frame another
    /// process would share (Fig. 6).
    pub fn table_at(&self, store: &TableStore, va: VirtAddr, level: PageTableLevel) -> Option<Ppn> {
        let mut table = self.pgd;
        for l in PageTableLevel::ALL {
            if l == level {
                return Some(table);
            }
            let value = store.read(table, va.level_index(l));
            if !value.is_present() || value.is_huge_leaf() {
                return None;
            }
            table = value.ppn;
        }
        None
    }

    /// Points this process's directory entry at an *existing* table owned
    /// by the CCID group, incrementing the table's sharer counter — the
    /// Fig. 6 operation ("They place in the corresponding entries of their
    /// previous tables (PMD) the base address of the same PTE table").
    ///
    /// `level` names the level of the *shared table* (PTE, PMD or PUD);
    /// the pointer is written one level above it. Intermediate private
    /// tables above the pointer are created as needed.
    ///
    /// # Errors
    ///
    /// [`MapError::PgdNeverShared`] for `level == Pgd`;
    /// [`MapError::Conflict`] if the slot already points elsewhere;
    /// [`MapError::OutOfMemory`] if the private chain cannot be built.
    pub fn map_shared_table(
        &mut self,
        store: &mut TableStore,
        va: VirtAddr,
        level: PageTableLevel,
        shared: Ppn,
    ) -> Result<(), MapError> {
        let parent_level = match level {
            PageTableLevel::Pgd => return Err(MapError::PgdNeverShared),
            PageTableLevel::Pud => PageTableLevel::Pgd,
            PageTableLevel::Pmd => PageTableLevel::Pud,
            PageTableLevel::Pte => PageTableLevel::Pmd,
        };
        let parent = self.ensure_chain(store, va, parent_level)?;
        let index = va.level_index(parent_level);
        let existing = store.read(parent, index);
        if existing.is_present() {
            if existing.ppn == shared {
                return Ok(()); // already pointing at it
            }
            return Err(MapError::Conflict);
        }
        store.write(parent, index, EntryValue::new(shared, dir_flags()));
        store.share_table(shared);
        Ok(())
    }

    /// Replaces the pointer to the table serving `va` at `level` with
    /// `replacement` (sharer count already held by the caller), releasing
    /// one reference on the old table. Returns the old table frame.
    ///
    /// This is the privatisation step of the BabelFish CoW protocol: the
    /// writing process swaps the shared PTE table for its private clone
    /// (Section III-A).
    ///
    /// # Panics
    ///
    /// Panics if no table currently serves `va` at `level`, or if `level`
    /// is PGD.
    pub fn replace_table(
        &mut self,
        store: &mut TableStore,
        va: VirtAddr,
        level: PageTableLevel,
        replacement: Ppn,
    ) -> Ppn {
        let parent_level = match level {
            PageTableLevel::Pgd => panic!("the PGD is never replaced"),
            PageTableLevel::Pud => PageTableLevel::Pgd,
            PageTableLevel::Pmd => PageTableLevel::Pud,
            PageTableLevel::Pte => PageTableLevel::Pmd,
        };
        let parent = self
            .table_at(store, va, parent_level)
            .expect("no chain to the replaced level");
        let index = va.level_index(parent_level);
        let old = store.read(parent, index);
        assert!(old.is_present(), "replacing a non-present table pointer");
        store.write(parent, index, EntryValue::new(replacement, dir_flags()));
        store.release_table(old.ppn);
        old.ppn
    }

    /// Clears the pointer to the table serving `va` at `level`,
    /// releasing one sharer reference on it. Returns the detached table
    /// frame, or `None` if no chain reached that level.
    ///
    /// This is the `munmap` counterpart of
    /// [`AddressSpace::map_shared_table`]: the paper's per-table counters
    /// reach zero "when the last sharer of the table terminates or
    /// removes its pointer to the table" (Section IV-B).
    ///
    /// # Panics
    ///
    /// Panics if `level` is PGD.
    pub fn detach_table(
        &mut self,
        store: &mut TableStore,
        va: VirtAddr,
        level: PageTableLevel,
    ) -> Option<Ppn> {
        let parent_level = match level {
            PageTableLevel::Pgd => panic!("the PGD is never detached"),
            PageTableLevel::Pud => PageTableLevel::Pgd,
            PageTableLevel::Pmd => PageTableLevel::Pud,
            PageTableLevel::Pte => PageTableLevel::Pmd,
        };
        let parent = self.table_at(store, va, parent_level)?;
        let index = va.level_index(parent_level);
        let entry = store.read(parent, index);
        if !entry.is_present() || entry.is_huge_leaf() {
            return None;
        }
        store.write(parent, index, EntryValue::empty());
        store.release_table(entry.ppn);
        Some(entry.ppn)
    }

    /// Sets or clears the BabelFish O/ORPC bits on the *pmd_t* entry
    /// covering `va` (Fig. 5a). Returns `false` if the chain does not
    /// reach the PMD level.
    pub fn set_pmd_opc(
        &mut self,
        store: &mut TableStore,
        va: VirtAddr,
        owned: Option<bool>,
        orpc: Option<bool>,
    ) -> bool {
        let pmd = match self.table_at(store, va, PageTableLevel::Pmd) {
            Some(pmd) => pmd,
            None => return false,
        };
        let index = va.level_index(PageTableLevel::Pmd);
        let mut value = store.read(pmd, index);
        if !value.is_present() {
            return false;
        }
        if let Some(o) = owned {
            value.flags.set(PageFlags::OWNED, o);
        }
        if let Some(r) = orpc {
            value.flags.set(PageFlags::ORPC, r);
        }
        store.write(pmd, index, value);
        true
    }

    /// Visits every present 4 KB/2 MB/1 GB leaf reachable from this
    /// address space, passing `(va, entry, size, pte_table_sharers)`.
    ///
    /// Shared tables are visited once per sharer (per address space) —
    /// callers deduplicate by entry address when counting distinct
    /// `pte_t`s, as the Fig. 9 census does.
    pub fn for_each_leaf<F>(&self, store: &TableStore, mut f: F)
    where
        F: FnMut(VirtAddr, EntryValue, PageSize, u16),
    {
        for pgd_i in 0..TABLE_ENTRIES {
            let pud_e = store.read(self.pgd, pgd_i);
            if !pud_e.is_present() {
                continue;
            }
            for pud_i in 0..TABLE_ENTRIES {
                let pmd_e = store.read(pud_e.ppn, pud_i);
                if !pmd_e.is_present() {
                    continue;
                }
                if pmd_e.is_huge_leaf() {
                    let va = Self::assemble_va(pgd_i, pud_i, 0, 0);
                    f(va, pmd_e, PageSize::Size1G, store.sharers(pud_e.ppn));
                    continue;
                }
                for pmd_i in 0..TABLE_ENTRIES {
                    let pte_e = store.read(pmd_e.ppn, pmd_i);
                    if !pte_e.is_present() {
                        continue;
                    }
                    if pte_e.is_huge_leaf() {
                        let va = Self::assemble_va(pgd_i, pud_i, pmd_i, 0);
                        f(va, pte_e, PageSize::Size2M, store.sharers(pmd_e.ppn));
                        continue;
                    }
                    for pte_i in 0..TABLE_ENTRIES {
                        let leaf = store.read(pte_e.ppn, pte_i);
                        if leaf.is_present() {
                            let va = Self::assemble_va(pgd_i, pud_i, pmd_i, pte_i);
                            f(va, leaf, PageSize::Size4K, store.sharers(pte_e.ppn));
                        }
                    }
                }
            }
        }
    }

    /// Tears down the whole tree, releasing one sharer reference per
    /// table pointer; shared tables survive for their other sharers.
    pub fn destroy(self, store: &mut TableStore) {
        Self::release_tree(store, self.pgd, PageTableLevel::Pgd);
    }

    fn release_tree(store: &mut TableStore, table: Ppn, level: PageTableLevel) {
        // Collect child table pointers before freeing.
        let mut children = Vec::new();
        if level != PageTableLevel::Pte {
            for i in 0..TABLE_ENTRIES {
                let entry = store.read(table, i);
                if entry.is_present() && !entry.is_huge_leaf() {
                    children.push(entry.ppn);
                }
            }
        }
        let freed = store.release_table(table);
        if freed {
            if let Some(next) = level.next() {
                for child in children {
                    Self::release_tree(store, child, next);
                }
            }
        }
    }

    fn ensure_chain(
        &mut self,
        store: &mut TableStore,
        va: VirtAddr,
        target: PageTableLevel,
    ) -> Result<Ppn, MapError> {
        let mut table = self.pgd;
        for level in PageTableLevel::ALL {
            if level == target {
                return Ok(table);
            }
            let index = va.level_index(level);
            let entry = store.read(table, index);
            if entry.is_present() {
                if entry.is_huge_leaf() {
                    return Err(MapError::Conflict);
                }
                table = entry.ppn;
            } else {
                let child = store.alloc_table().ok_or(MapError::OutOfMemory)?;
                store.write(table, index, EntryValue::new(child, dir_flags()));
                table = child;
            }
        }
        Ok(table)
    }

    fn assemble_va(pgd_i: usize, pud_i: usize, pmd_i: usize, pte_i: usize) -> VirtAddr {
        VirtAddr::new(
            ((pgd_i as u64) << 39)
                | ((pud_i as u64) << 30)
                | ((pmd_i as u64) << 21)
                | ((pte_i as u64) << 12),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (TableStore, AddressSpace) {
        let mut store = TableStore::new(1 << 16);
        let space = AddressSpace::new(&mut store, Pid::new(1), Pcid::new(1), Ccid::new(0));
        (store, space)
    }

    fn user_flags() -> PageFlags {
        PageFlags::PRESENT | PageFlags::USER
    }

    #[test]
    fn map_then_walk_finds_leaf() {
        let (mut store, mut space) = setup();
        let va = VirtAddr::new(0x7f12_3456_7000);
        let frame = store.frames.alloc().unwrap();
        space
            .map(&mut store, va, frame, PageSize::Size4K, user_flags())
            .unwrap();
        let walk = space.walk(&store, va);
        assert_eq!(walk.steps().len(), 4, "full 4-level walk");
        let (leaf, size) = walk.leaf().unwrap();
        assert_eq!(leaf.ppn, frame);
        assert_eq!(size, PageSize::Size4K);
        assert!(walk.missing_level().is_none());
    }

    #[test]
    fn walk_of_unmapped_address_reports_missing_level() {
        let (store, space) = setup();
        let walk = space.walk(&store, VirtAddr::new(0x1000));
        assert!(walk.leaf().is_none());
        assert_eq!(walk.missing_level(), Some(PageTableLevel::Pgd));
    }

    #[test]
    fn sibling_pages_share_the_chain() {
        let (mut store, mut space) = setup();
        let va1 = VirtAddr::new(0x1000);
        let va2 = VirtAddr::new(0x2000);
        let f1 = store.frames.alloc().unwrap();
        let f2 = store.frames.alloc().unwrap();
        space
            .map(&mut store, va1, f1, PageSize::Size4K, user_flags())
            .unwrap();
        let tables_before = store.stats().live_tables;
        space
            .map(&mut store, va2, f2, PageSize::Size4K, user_flags())
            .unwrap();
        assert_eq!(
            store.stats().live_tables,
            tables_before,
            "same PTE table reused"
        );
    }

    #[test]
    fn huge_page_maps_at_pmd_level() {
        let (mut store, mut space) = setup();
        let va = VirtAddr::new(0x4000_0000);
        let run = store.frames.alloc_contiguous(512, 512).unwrap();
        space
            .map(&mut store, va, run, PageSize::Size2M, user_flags())
            .unwrap();
        let walk = space.walk(&store, va.offset(0x12345));
        let (leaf, size) = walk.leaf().unwrap();
        assert_eq!(size, PageSize::Size2M);
        assert_eq!(leaf.ppn, run);
        assert_eq!(walk.steps().len(), 3, "walk stops at the PMD leaf");
    }

    #[test]
    fn misaligned_huge_map_fails() {
        let (mut store, mut space) = setup();
        let frame = store.frames.alloc().unwrap();
        let result = space.map(
            &mut store,
            VirtAddr::new(0x4000_1000),
            frame,
            PageSize::Size2M,
            user_flags(),
        );
        assert_eq!(result, Err(MapError::Misaligned));
    }

    #[test]
    fn shared_pte_table_gives_identical_translations() {
        let (mut store, mut a) = setup();
        let mut b = AddressSpace::new(&mut store, Pid::new(2), Pcid::new(2), Ccid::new(0));
        let va = VirtAddr::new(0x7f00_0000_0000);
        let frame = store.frames.alloc().unwrap();
        a.map(&mut store, va, frame, PageSize::Size4K, user_flags())
            .unwrap();

        let pte_table = a.table_at(&store, va, PageTableLevel::Pte).unwrap();
        b.map_shared_table(&mut store, va, PageTableLevel::Pte, pte_table)
            .unwrap();

        assert_eq!(store.sharers(pte_table), 2);
        let walk_b = b.walk(&store, va);
        assert_eq!(walk_b.leaf().unwrap().0.ppn, frame);
        // The two walks read the *same* leaf entry address (Fig. 6).
        let walk_a = a.walk(&store, va);
        assert_eq!(
            walk_a.steps().last().unwrap().entry_addr,
            walk_b.steps().last().unwrap().entry_addr
        );
    }

    #[test]
    fn shared_table_write_is_visible_to_all_sharers() {
        let (mut store, mut a) = setup();
        let mut b = AddressSpace::new(&mut store, Pid::new(2), Pcid::new(2), Ccid::new(0));
        let base = VirtAddr::new(0x7f00_0000_0000);
        let f1 = store.frames.alloc().unwrap();
        a.map(&mut store, base, f1, PageSize::Size4K, user_flags())
            .unwrap();
        let pte_table = a.table_at(&store, base, PageTableLevel::Pte).unwrap();
        b.map_shared_table(&mut store, base, PageTableLevel::Pte, pte_table)
            .unwrap();

        // A faults in a second page of the region: B sees it too — only
        // one minor fault for the group (Section III-B).
        let va2 = base.offset(0x1000);
        let f2 = store.frames.alloc().unwrap();
        a.map(&mut store, va2, f2, PageSize::Size4K, user_flags())
            .unwrap();
        assert_eq!(b.walk(&store, va2).leaf().unwrap().0.ppn, f2);
    }

    #[test]
    fn pmd_level_sharing_works() {
        let (mut store, mut a) = setup();
        let mut b = AddressSpace::new(&mut store, Pid::new(2), Pcid::new(2), Ccid::new(0));
        let va = VirtAddr::new(0x7f00_0000_0000);
        let frame = store.frames.alloc().unwrap();
        a.map(&mut store, va, frame, PageSize::Size4K, user_flags())
            .unwrap();
        let pmd_table = a.table_at(&store, va, PageTableLevel::Pmd).unwrap();
        b.map_shared_table(&mut store, va, PageTableLevel::Pmd, pmd_table)
            .unwrap();
        // B reaches mappings anywhere under that PMD (512 × 2 MB).
        assert_eq!(b.walk(&store, va).leaf().unwrap().0.ppn, frame);
    }

    #[test]
    fn gigabyte_page_maps_at_pud_level() {
        let mut store = TableStore::new(1 << 20);
        let mut space = AddressSpace::new(&mut store, Pid::new(1), Pcid::new(1), Ccid::new(0));
        let va = VirtAddr::new(0x40_0000_0000); // 1 GB-aligned
        let run = store.frames.alloc_contiguous(512 * 512, 512 * 512).unwrap();
        space
            .map(&mut store, va, run, PageSize::Size1G, user_flags())
            .unwrap();
        let walk = space.walk(&store, va.offset(0x1234_5678));
        let (leaf, size) = walk.leaf().unwrap();
        assert_eq!(size, PageSize::Size1G);
        assert_eq!(leaf.ppn, run);
        assert_eq!(walk.steps().len(), 2, "walk stops at the PUD leaf");
        space.destroy(&mut store);
        assert_eq!(store.stats().live_tables, 0);
    }

    #[test]
    fn pud_level_sharing_covers_half_a_terabyte() {
        // §III-B: "processes can share a PUD table, in which case they
        // can share even more mappings."
        let (mut store, mut a) = setup();
        let mut b = AddressSpace::new(&mut store, Pid::new(2), Pcid::new(2), Ccid::new(0));
        let va = VirtAddr::new(0x7f00_0000_0000);
        let frame = store.frames.alloc().unwrap();
        a.map(&mut store, va, frame, PageSize::Size4K, user_flags())
            .unwrap();
        let pud_table = a.table_at(&store, va, PageTableLevel::Pud).unwrap();
        b.map_shared_table(&mut store, va, PageTableLevel::Pud, pud_table)
            .unwrap();
        assert_eq!(store.sharers(pud_table), 2);
        // B reaches anything under the shared PUD, even mappings A adds
        // later in a *different* 1 GB region of the same PUD.
        let far = va.offset(3 << 30);
        let frame2 = store.frames.alloc().unwrap();
        a.map(&mut store, far, frame2, PageSize::Size4K, user_flags())
            .unwrap();
        assert_eq!(b.walk(&store, far).leaf().unwrap().0.ppn, frame2);
        // Tear-down releases correctly from the PUD split point.
        b.destroy(&mut store);
        assert!(a.walk(&store, va).leaf().is_some());
        a.destroy(&mut store);
        assert_eq!(store.stats().live_tables, 0);
    }

    #[test]
    fn pgd_sharing_is_rejected() {
        let (mut store, mut b) = setup();
        let result = b.map_shared_table(
            &mut store,
            VirtAddr::new(0),
            PageTableLevel::Pgd,
            Ppn::new(1),
        );
        assert_eq!(result, Err(MapError::PgdNeverShared));
    }

    #[test]
    fn conflicting_share_is_rejected() {
        let (mut store, mut a) = setup();
        let va = VirtAddr::new(0x1000);
        let frame = store.frames.alloc().unwrap();
        a.map(&mut store, va, frame, PageSize::Size4K, user_flags())
            .unwrap();
        let other = store.alloc_table().unwrap();
        let result = a.map_shared_table(&mut store, va, PageTableLevel::Pte, other);
        assert_eq!(result, Err(MapError::Conflict));
        // Re-sharing the same table is an idempotent no-op.
        let mine = a.table_at(&store, va, PageTableLevel::Pte).unwrap();
        assert!(a
            .map_shared_table(&mut store, va, PageTableLevel::Pte, mine)
            .is_ok());
        assert_eq!(
            store.sharers(mine),
            1,
            "no double count on idempotent share"
        );
    }

    #[test]
    fn replace_table_swaps_and_releases() {
        let (mut store, mut a) = setup();
        let mut b = AddressSpace::new(&mut store, Pid::new(2), Pcid::new(2), Ccid::new(0));
        let va = VirtAddr::new(0x7f00_0000_0000);
        let frame = store.frames.alloc().unwrap();
        a.map(&mut store, va, frame, PageSize::Size4K, user_flags())
            .unwrap();
        let shared = a.table_at(&store, va, PageTableLevel::Pte).unwrap();
        b.map_shared_table(&mut store, va, PageTableLevel::Pte, shared)
            .unwrap();

        // B privatises: clone + replace (the CoW protocol's bulk copy).
        let private = store.clone_table(shared).unwrap();
        let old = b.replace_table(&mut store, va, PageTableLevel::Pte, private);
        assert_eq!(old, shared);
        assert_eq!(store.sharers(shared), 1, "B released its reference");
        assert_eq!(b.table_at(&store, va, PageTableLevel::Pte), Some(private));
        assert_eq!(
            b.walk(&store, va).leaf().unwrap().0.ppn,
            frame,
            "clone kept translations"
        );
    }

    #[test]
    fn detach_table_releases_one_reference() {
        let (mut store, mut a) = setup();
        let mut b = AddressSpace::new(&mut store, Pid::new(2), Pcid::new(2), Ccid::new(0));
        let va = VirtAddr::new(0x7f00_0000_0000);
        let frame = store.frames.alloc().unwrap();
        a.map(&mut store, va, frame, PageSize::Size4K, user_flags())
            .unwrap();
        let shared = a.table_at(&store, va, PageTableLevel::Pte).unwrap();
        b.map_shared_table(&mut store, va, PageTableLevel::Pte, shared)
            .unwrap();
        assert_eq!(store.sharers(shared), 2);
        assert_eq!(
            b.detach_table(&mut store, va, PageTableLevel::Pte),
            Some(shared)
        );
        assert_eq!(store.sharers(shared), 1, "A keeps the table");
        assert!(
            b.walk(&store, va).leaf().is_none(),
            "B no longer maps the page"
        );
        assert!(a.walk(&store, va).leaf().is_some());
        // Detaching again is a no-op.
        assert_eq!(b.detach_table(&mut store, va, PageTableLevel::Pte), None);
        a.destroy(&mut store);
        b.destroy(&mut store);
        assert_eq!(store.stats().live_tables, 0);
    }

    #[test]
    fn set_pmd_opc_round_trips_through_walk() {
        let (mut store, mut a) = setup();
        let va = VirtAddr::new(0x7f00_0000_0000);
        let frame = store.frames.alloc().unwrap();
        a.map(&mut store, va, frame, PageSize::Size4K, user_flags())
            .unwrap();
        assert!(a.set_pmd_opc(&mut store, va, Some(false), Some(true)));
        let walk = a.walk(&store, va);
        let pmd = walk.pmd_step().unwrap();
        assert!(pmd.value.flags.contains(PageFlags::ORPC));
        assert!(!pmd.value.flags.contains(PageFlags::OWNED));
    }

    #[test]
    fn unmap_clears_leaf_and_returns_value() {
        let (mut store, mut a) = setup();
        let va = VirtAddr::new(0x5000);
        let frame = store.frames.alloc().unwrap();
        a.map(&mut store, va, frame, PageSize::Size4K, user_flags())
            .unwrap();
        let old = a.unmap(&mut store, va, PageSize::Size4K).unwrap();
        assert_eq!(old.ppn, frame);
        assert!(a.walk(&store, va).leaf().is_none());
        assert!(a.unmap(&mut store, va, PageSize::Size4K).is_none());
    }

    #[test]
    fn write_leaf_updates_in_place() {
        let (mut store, mut a) = setup();
        let va = VirtAddr::new(0x5000);
        let frame = store.frames.alloc().unwrap();
        a.map(
            &mut store,
            va,
            frame,
            PageSize::Size4K,
            user_flags() | PageFlags::COW,
        )
        .unwrap();
        let (leaf, _) = a.walk(&store, va).leaf().unwrap();
        assert!(leaf.flags.contains(PageFlags::COW));
        let new_frame = store.frames.alloc().unwrap();
        let updated = EntryValue::new(new_frame, user_flags() | PageFlags::WRITE);
        assert!(a.write_leaf(&mut store, va, PageSize::Size4K, updated));
        let (leaf, _) = a.walk(&store, va).leaf().unwrap();
        assert_eq!(leaf.ppn, new_frame);
        assert!(!leaf.flags.contains(PageFlags::COW));
    }

    #[test]
    fn for_each_leaf_visits_all_mappings() {
        let (mut store, mut a) = setup();
        let mut expected = Vec::new();
        for i in 0..10u64 {
            let va = VirtAddr::new(0x10_0000 + i * 0x1000);
            let frame = store.frames.alloc().unwrap();
            a.map(&mut store, va, frame, PageSize::Size4K, user_flags())
                .unwrap();
            expected.push((va, frame));
        }
        let mut seen = Vec::new();
        a.for_each_leaf(&store, |va, entry, size, _| {
            assert_eq!(size, PageSize::Size4K);
            seen.push((va, entry.ppn));
        });
        seen.sort();
        expected.sort();
        assert_eq!(seen, expected);
    }

    #[test]
    fn destroy_frees_private_tables_but_not_shared() {
        let (mut store, mut a) = setup();
        let mut b = AddressSpace::new(&mut store, Pid::new(2), Pcid::new(2), Ccid::new(0));
        let va = VirtAddr::new(0x7f00_0000_0000);
        let frame = store.frames.alloc().unwrap();
        a.map(&mut store, va, frame, PageSize::Size4K, user_flags())
            .unwrap();
        let shared = a.table_at(&store, va, PageTableLevel::Pte).unwrap();
        b.map_shared_table(&mut store, va, PageTableLevel::Pte, shared)
            .unwrap();

        let live_before = store.stats().live_tables;
        b.destroy(&mut store);
        // B's PGD/PUD/PMD are gone; the shared PTE table survives for A.
        assert_eq!(store.stats().live_tables, live_before - 3);
        assert_eq!(store.sharers(shared), 1);
        assert_eq!(a.walk(&store, va).leaf().unwrap().0.ppn, frame);

        a.destroy(&mut store);
        assert_eq!(store.stats().live_tables, 0, "everything torn down");
    }
}
