//! Per-process state: address space, VMAs and mapping cursors.

use crate::aslr::Segment;
use crate::vma::Vma;
use bf_pgtable::AddressSpace;
use bf_types::{Ccid, FastMap, PageSize, Pcid, Pid, VirtAddr};

/// One process (in container workloads, one container — Section II-A:
/// "The resulting containers usually include one process each").
///
/// The kernel owns all processes; this type carries the per-process state
/// the fault handler and scheduler need.
///
/// # Examples
///
/// Processes are created through [`crate::Kernel::spawn`]; see the
/// [crate-level example](crate).
#[derive(Debug)]
pub struct Process {
    pid: Pid,
    pcid: Pcid,
    ccid: Ccid,
    /// The process's page-table tree.
    pub space: AddressSpace,
    vmas: Vec<Vma>,
    /// Next free byte offset per segment (relative to the segment's
    /// group-canonical base).
    cursors: FastMap<Segment, u64>,
}

impl Process {
    /// Builds a process around a fresh address space.
    pub fn new(pid: Pid, pcid: Pcid, ccid: Ccid, space: AddressSpace) -> Self {
        Process {
            pid,
            pcid,
            ccid,
            space,
            vmas: Vec::new(),
            cursors: FastMap::default(),
        }
    }

    /// Process id.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Hardware PCID.
    pub fn pcid(&self) -> Pcid {
        self.pcid
    }

    /// CCID group.
    pub fn ccid(&self) -> Ccid {
        self.ccid
    }

    /// The VMA covering `va`, if any.
    pub fn vma_for(&self, va: VirtAddr) -> Option<&Vma> {
        self.vmas.iter().find(|vma| vma.contains(va))
    }

    /// Mutable access to the VMA covering `va`.
    pub fn vma_for_mut(&mut self, va: VirtAddr) -> Option<&mut Vma> {
        self.vmas.iter_mut().find(|vma| vma.contains(va))
    }

    /// All VMAs.
    pub fn vmas(&self) -> &[Vma] {
        &self.vmas
    }

    /// Registers a VMA.
    ///
    /// # Panics
    ///
    /// Panics if the VMA overlaps an existing one.
    pub fn add_vma(&mut self, vma: Vma) {
        assert!(
            !self
                .vmas
                .iter()
                .any(|v| vma.start() < v.end() && v.start() < vma.end()),
            "VMA {:#x}..{:#x} overlaps an existing mapping",
            vma.start().raw(),
            vma.end().raw()
        );
        self.vmas.push(vma);
    }

    /// Reserves `length` bytes in `segment` (2 MB-aligned so a region
    /// never mixes VMAs), returning the offset from the segment base.
    pub fn reserve(&mut self, segment: Segment, length: u64) -> u64 {
        let cursor = self.cursors.entry(segment).or_insert(0);
        let offset = *cursor;
        let align = PageSize::Size2M.bytes();
        *cursor = (offset + length).div_ceil(align) * align;
        offset
    }

    /// Clones the VMA list and cursors into a forked child (the child
    /// receives the same canonical layout).
    pub fn clone_mappings(&self) -> (Vec<Vma>, FastMap<Segment, u64>) {
        (self.vmas.clone(), self.cursors.clone())
    }

    /// Replaces the VMA list / cursors (fork plumbing).
    pub fn set_mappings(&mut self, vmas: Vec<Vma>, cursors: FastMap<Segment, u64>) {
        self.vmas = vmas;
        self.cursors = cursors;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vma::Backing;
    use bf_pgtable::TableStore;
    use bf_types::PageFlags;

    fn process(store: &mut TableStore) -> Process {
        let space = AddressSpace::new(store, Pid::new(1), Pcid::new(1), Ccid::new(0));
        Process::new(Pid::new(1), Pcid::new(1), Ccid::new(0), space)
    }

    fn vma_at(start: u64, len: u64) -> Vma {
        Vma::new(
            VirtAddr::new(start),
            len,
            Backing::Anon {
                origin: 1,
                thp: false,
            },
            PageFlags::USER,
            Segment::Heap,
        )
    }

    #[test]
    fn vma_lookup_finds_covering_area() {
        let mut store = TableStore::new(64);
        let mut proc = process(&mut store);
        proc.add_vma(vma_at(0x10_0000, 0x2000));
        assert!(proc.vma_for(VirtAddr::new(0x10_1000)).is_some());
        assert!(proc.vma_for(VirtAddr::new(0x10_2000)).is_none());
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_vmas_rejected() {
        let mut store = TableStore::new(64);
        let mut proc = process(&mut store);
        proc.add_vma(vma_at(0x10_0000, 0x2000));
        proc.add_vma(vma_at(0x10_1000, 0x2000));
    }

    #[test]
    fn reserve_advances_by_2mb_regions() {
        let mut store = TableStore::new(64);
        let mut proc = process(&mut store);
        let first = proc.reserve(Segment::Lib, 0x1000);
        let second = proc.reserve(Segment::Lib, 0x1000);
        assert_eq!(first, 0);
        assert_eq!(second, 2 << 20, "next VMA starts in a fresh 2 MB region");
        // Other segments have independent cursors.
        assert_eq!(proc.reserve(Segment::Heap, 0x1000), 0);
    }

    #[test]
    fn clone_mappings_round_trips() {
        let mut store = TableStore::new(64);
        let mut parent = process(&mut store);
        parent.add_vma(vma_at(0x10_0000, 0x2000));
        parent.reserve(Segment::Heap, 0x5000);
        let (vmas, cursors) = parent.clone_mappings();
        let space = AddressSpace::new(&mut store, Pid::new(2), Pcid::new(2), Ccid::new(0));
        let mut child = Process::new(Pid::new(2), Pcid::new(2), Ccid::new(0), space);
        child.set_mappings(vmas, cursors);
        assert_eq!(child.vmas().len(), 1);
        assert_eq!(child.reserve(Segment::Heap, 0x1000), 2 << 20);
    }
}
