//! Property-based tests over the core data structures and cross-crate
//! invariants.

use babelfish::mem::FrameAllocator;
use babelfish::os::{Kernel, KernelConfig, MmapRequest, Segment};
use babelfish::pgtable::{AddressSpace, EntryValue, MaskPage, TableStore};
use babelfish::types::*;
use babelfish::workloads::ZipfianGenerator;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// Encoding a page-table entry and decoding it is the identity for
    /// every frame number and flag combination the model uses.
    #[test]
    fn entry_encode_roundtrip(ppn in 0u64..(1 << 36), bits in 0u64..(1 << 12)) {
        let flags = PageFlags::from_bits(bits);
        let entry = EntryValue::new(Ppn::new(ppn), flags);
        prop_assert_eq!(EntryValue::decode(entry.encode()), entry);
    }

    /// Virtual-address decomposition reassembles to the page base at
    /// every level.
    #[test]
    fn va_decomposition_consistent(raw in 0u64..(1 << 48)) {
        let va = VirtAddr::new(raw);
        let reassembled = ((va.pgd_index() as u64) << 39)
            | ((va.pud_index() as u64) << 30)
            | ((va.pmd_index() as u64) << 21)
            | ((va.pte_index() as u64) << 12)
            | va.page_offset(PageSize::Size4K);
        prop_assert_eq!(reassembled, raw);
        for size in PageSize::ALL {
            prop_assert_eq!(
                va.vpn(size).base_addr(size).raw() + va.page_offset(size),
                raw
            );
        }
    }

    /// The frame allocator never double-allocates a live frame, and
    /// refcounts balance to a full reclaim.
    #[test]
    fn frame_allocator_never_double_allocates(ops in proptest::collection::vec(0u8..3, 1..200)) {
        let mut alloc = FrameAllocator::new(4096);
        let mut live: Vec<Ppn> = Vec::new();
        for op in ops {
            match op {
                0 => {
                    if let Some(frame) = alloc.alloc() {
                        prop_assert!(!live.contains(&frame), "frame {frame} double-allocated");
                        live.push(frame);
                    }
                }
                1 => {
                    if let Some(&frame) = live.first() {
                        alloc.inc_ref(frame);
                        prop_assert!(!alloc.dec_ref(frame), "extra ref cannot free");
                    }
                }
                _ => {
                    if let Some(frame) = live.pop() {
                        prop_assert!(alloc.dec_ref(frame), "last ref must free");
                    }
                }
            }
        }
        for frame in live.drain(..) {
            alloc.dec_ref(frame);
        }
        prop_assert_eq!(alloc.live_frames(), 0);
    }

    /// Random map/unmap sequences: the walk always reports exactly the
    /// mappings currently installed.
    #[test]
    fn page_tables_match_reference_model(
        ops in proptest::collection::vec((0u8..2, 0u64..64), 1..80)
    ) {
        let mut store = TableStore::new(1 << 16);
        let mut space = AddressSpace::new(&mut store, Pid::new(1), Pcid::new(1), Ccid::new(0));
        let mut reference: FastMap<u64, Ppn> = FastMap::default();
        let base = 0x7f00_0000_0000u64;
        for (op, slot) in ops {
            let va = VirtAddr::new(base + slot * 4096);
            if op == 0 {
                let frame = store.frames.alloc().unwrap();
                space
                    .map(&mut store, va, frame, PageSize::Size4K, PageFlags::USER)
                    .unwrap();
                reference.insert(slot, frame);
            } else {
                let removed = space.unmap(&mut store, va, PageSize::Size4K);
                prop_assert_eq!(removed.map(|e| e.ppn), reference.remove(&slot));
            }
        }
        for slot in 0..64u64 {
            let va = VirtAddr::new(base + slot * 4096);
            let walked = space.walk(&store, va).leaf().map(|(e, _)| e.ppn);
            prop_assert_eq!(walked, reference.get(&slot).copied());
        }
        space.destroy(&mut store);
        prop_assert_eq!(store.live_tables(), 0);
    }

    /// MaskPage bit assignment is stable, order-preserving, and bounded
    /// at 32 writers regardless of the pid sequence.
    #[test]
    fn maskpage_assignment_invariants(pids in proptest::collection::vec(1u32..1000, 1..80)) {
        let mut mp = MaskPage::new(Ppn::new(1));
        let mut first_bit: FastMap<u32, usize> = FastMap::default();
        for pid in &pids {
            match mp.assign_bit(Pid::new(*pid)) {
                Ok(bit) => {
                    prop_assert!(bit < 32);
                    if let Some(&prev) = first_bit.get(pid) {
                        prop_assert_eq!(prev, bit, "assignment must be stable");
                    } else {
                        prop_assert_eq!(bit, first_bit.len(), "bits are dense, in order");
                        first_bit.insert(*pid, bit);
                    }
                }
                Err(_) => {
                    prop_assert!(first_bit.len() >= 32, "overflow only past 32 writers");
                    prop_assert!(!first_bit.contains_key(pid));
                }
            }
        }
    }

    /// Zipfian samples always land in range, for any skew and size.
    #[test]
    fn zipf_in_range(items in 1u64..10_000, theta in 0.0f64..0.999, seed in 0u64..1000) {
        let mut zipf = ZipfianGenerator::new(items, theta);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..100 {
            prop_assert!(zipf.sample(&mut rng) < items);
        }
    }

    /// Whatever the fault/fork/write sequence, a translation the kernel
    /// reports through a walk always points at a frame consistent with
    /// what the page cache or CoW history assigned — and table teardown
    /// reclaims everything.
    #[test]
    fn kernel_random_fault_storms_stay_consistent(
        ops in proptest::collection::vec((0u8..4, 0u64..16), 1..60)
    ) {
        let mut config = KernelConfig::babelfish();
        config.thp = false;
        let mut kernel = Kernel::new(config);
        let group = kernel.create_group();
        let root = kernel.spawn(group).unwrap();
        let file = kernel.register_file(16 * 4096);
        let file_va = kernel
            .mmap(root, MmapRequest::file_shared(Segment::Lib, file, 0, 16 * 4096, PageFlags::USER))
            .unwrap();
        let heap_va = kernel
            .mmap(root, MmapRequest::anon(Segment::Heap, 16 * 4096, PageFlags::USER | PageFlags::WRITE, false))
            .unwrap();
        let mut pids = vec![root];

        for (op, page) in ops {
            match op {
                0 => {
                    // Any process reads a shared file page.
                    let pid = pids[page as usize % pids.len()];
                    kernel.handle_fault(pid, file_va.offset(page * 4096), false).unwrap();
                }
                1 => {
                    // Any process writes a heap page.
                    let pid = pids[page as usize % pids.len()];
                    kernel.handle_fault(pid, heap_va.offset(page * 4096), true).unwrap();
                }
                2 if pids.len() < 8 => {
                    let parent = pids[page as usize % pids.len()];
                    let (child, _, _) = kernel.fork(parent).unwrap();
                    pids.push(child);
                }
                _ => {
                    if pids.len() > 1 {
                        let pid = pids.remove(page as usize % pids.len());
                        kernel.exit(pid);
                    }
                }
            }
        }

        // Invariant 1: all live processes see the same frame for shared
        // file pages they have mapped.
        for page in 0..16u64 {
            let va = file_va.offset(page * 4096);
            let mut frames: Vec<Ppn> = pids
                .iter()
                .filter_map(|&pid| kernel.space(pid).walk(kernel.store(), va).leaf())
                .map(|(e, _)| e.ppn)
                .collect();
            frames.dedup();
            prop_assert!(frames.len() <= 1, "shared file page diverged: {frames:?}");
        }
        // Invariant 2: no two processes share a *writable* heap frame.
        for page in 0..16u64 {
            let va = heap_va.offset(page * 4096);
            let mut writable_frames: Vec<Ppn> = pids
                .iter()
                .filter_map(|&pid| kernel.space(pid).walk(kernel.store(), va).leaf())
                .filter(|(e, _)| e.flags.allows_write())
                .map(|(e, _)| e.ppn)
                .collect();
            let before = writable_frames.len();
            writable_frames.sort();
            writable_frames.dedup();
            prop_assert_eq!(writable_frames.len(), before, "writable heap frame shared");
        }
        // Invariant 3: teardown reclaims every table.
        for pid in pids {
            kernel.exit(pid);
        }
        prop_assert_eq!(kernel.store().live_tables(), 0);
    }
}
