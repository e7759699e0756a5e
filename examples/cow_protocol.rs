//! A guided walk through the BabelFish CoW protocol (Section III-A and
//! the Appendix): fork-shared pages, the first write, MaskPage
//! bookkeeping, the single-entry TLB invalidation, and the 33rd-writer
//! overflow.
//!
//! ```sh
//! cargo run --release --example cow_protocol
//! ```

use babelfish::os::{Invalidation, Kernel, KernelConfig, MmapRequest, Segment};
use babelfish::types::{PageFlags, PageTableLevel};

fn main() {
    let mut config = KernelConfig::babelfish();
    config.thp = false;
    let mut kernel = Kernel::new(config);

    // A parent process with one written heap page, then a fork.
    let group = kernel.create_group();
    let parent = kernel.spawn(group).expect("spawn");
    let heap = kernel
        .mmap(
            parent,
            MmapRequest::anon(
                Segment::Heap,
                0x4000,
                PageFlags::USER | PageFlags::WRITE,
                false,
            ),
        )
        .expect("mmap");
    kernel
        .handle_fault(parent, heap, true)
        .expect("first touch");
    let (child, fork_cost, _) = kernel.fork(parent).expect("fork");
    println!("forked {child} from {parent} in {fork_cost} kernel cycles");

    // Both processes now reach the same pte_t through a shared PTE table.
    let parent_entry = kernel.space(parent).walk(kernel.store(), heap);
    let child_entry = kernel.space(child).walk(kernel.store(), heap);
    println!(
        "shared pte_t at {} (CoW: {})",
        parent_entry.steps().last().unwrap().entry_addr,
        child_entry.leaf().unwrap().0.flags.contains(PageFlags::COW),
    );

    // The child writes: the BabelFish CoW protocol runs.
    let resolution = kernel.handle_fault(child, heap, true).expect("CoW");
    println!("\nchild wrote the CoW page:");
    println!(
        "  kind: {:?}, cost: {} cycles",
        resolution.kind, resolution.cost
    );
    for inv in &resolution.invalidations {
        match inv {
            Invalidation::Shared { va, ccid } => println!(
                "  -> invalidate the single shared (O=0) entry for {va} in {ccid} \
                 (Section III-A: the other 511 translations stay cached)"
            ),
            other => println!("  -> {other:?}"),
        }
    }
    println!(
        "  child's PC-bitmask bit: {:?} (position in the MaskPage pid_list)",
        kernel.pc_bit(group, child, heap)
    );
    println!(
        "  MaskPage bitmask for this 2MB region: {:#034b}",
        kernel.pc_bitmask(group, heap)
    );
    let child_leaf = kernel
        .space(child)
        .walk(kernel.store(), heap)
        .leaf()
        .unwrap()
        .0;
    let parent_leaf = kernel
        .space(parent)
        .walk(kernel.store(), heap)
        .leaf()
        .unwrap()
        .0;
    println!(
        "  child now owns {} (O bit: {}), parent still shares {}",
        child_leaf.ppn,
        child_leaf.flags.contains(PageFlags::OWNED),
        parent_leaf.ppn
    );
    let parent_pmd = kernel.space(parent).walk(kernel.store(), heap);
    println!(
        "  parent's pmd_t ORPC bit: {} (hardware now loads the PC bitmask)",
        parent_pmd
            .pmd_step()
            .unwrap()
            .value
            .flags
            .contains(PageFlags::ORPC)
    );

    // Push past the 32-writer limit: the Appendix fallback.
    println!("\nforking 32 more writers to overflow the PC bitmask...");
    let mut writers = Vec::new();
    for _ in 0..32 {
        let (pid, _, _) = kernel.fork(parent).expect("fork");
        writers.push(pid);
    }
    let mut overflowed = false;
    for pid in writers {
        let res = kernel.handle_fault(pid, heap, true).expect("CoW");
        if res
            .invalidations
            .iter()
            .any(|inv| matches!(inv, Invalidation::SharedRange { .. }))
        {
            println!(
                "  writer {pid} was the one-too-many: the whole 2MB region reverted \
                 to private tables (Appendix)"
            );
            overflowed = true;
            break;
        }
    }
    assert!(overflowed, "the 33rd writer must overflow");
    println!(
        "  kernel counters: {} privatisations, {} MaskPage overflows",
        kernel.stats().privatizations,
        kernel.stats().maskpage_overflows
    );

    // Shared tables are reference-counted; tear-down reclaims everything.
    let table = kernel
        .space(parent)
        .table_at(kernel.store(), heap, PageTableLevel::Pte)
        .unwrap();
    println!(
        "\nparent's PTE table {table} has {} sharers",
        kernel.store().sharers(table)
    );
    for pid in kernel.group_members(group) {
        kernel.exit(pid);
    }
    println!(
        "after group exit: {} live tables (everything reclaimed)",
        kernel.store().stats().live_tables
    );
}
