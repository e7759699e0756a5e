//! The paper's Fig. 7 walk-through: containers A (core 0), B (core 1)
//! and C (core 0) access the same canonical page VPN0 in order, under
//! the conventional architecture and under BabelFish.
//!
//! Conventional: every container misses its TLBs, walks its own tables
//! and suffers its own minor fault.
//!
//! BabelFish: B's walk reuses A's page-table entries through the shared
//! L3 and takes no fault; C, on A's core, hits A's TLB entry directly.

use babelfish::os::{MmapRequest, Segment};
use babelfish::types::{AccessKind, PageFlags, Pid, VirtAddr};
use babelfish::{Machine, Mode, SimConfig};

struct Scenario {
    machine: Machine,
    a: Pid,
    b: Pid,
    c: Pid,
    vpn0: VirtAddr,
}

fn setup(mode: Mode) -> Scenario {
    let mut machine = Machine::new(SimConfig::new(2, mode).with_frames(1 << 20));
    let kernel = machine.kernel_mut();
    let group = kernel.create_group();
    let a = kernel.spawn(group).unwrap();
    let b = kernel.spawn(group).unwrap();
    let c = kernel.spawn(group).unwrap();
    // One shared file page (e.g. a library page all three map).
    let file = kernel.register_file(0x10_000);
    let req = MmapRequest::file_shared(Segment::Lib, file, 0, 0x10_000, PageFlags::USER);
    let vpn0 = kernel.mmap(a, req).unwrap();
    assert_eq!(kernel.mmap(b, req).unwrap(), vpn0);
    assert_eq!(kernel.mmap(c, req).unwrap(), vpn0);
    // PPN0 is resident (another tenant read it) but not yet mapped by
    // A, B or C — the Fig. 7 premise "PPN0 is in memory but not yet
    // marked as present in any of the A, B, or C pte_ts".
    let other_group = kernel.create_group();
    let warm = kernel.spawn(other_group).unwrap();
    let warm_va = kernel.mmap(warm, req).unwrap();
    kernel.handle_fault(warm, warm_va, false).unwrap();
    // The scenario's measurement window starts after this setup fault.
    machine.reset_measurement();
    Scenario {
        machine,
        a,
        b,
        c,
        vpn0,
    }
}

#[test]
fn conventional_every_container_pays_full_price() {
    let mut s = setup(Mode::Baseline);
    // A on core 0: full walk + minor fault.
    s.machine.execute_access(0, s.a, s.vpn0, AccessKind::Read);
    let after_a = s.machine.stats();
    assert_eq!(after_a.minor_faults, 1, "A suffers a minor fault");

    // B on core 1: exactly the same process repeats.
    s.machine.execute_access(1, s.b, s.vpn0, AccessKind::Read);
    let after_b = s.machine.stats();
    assert_eq!(after_b.minor_faults, 2, "B suffers its own minor fault");

    // C on core 0 (A's core): *still* repeats everything — "the system
    // does not take advantage of the state that A loaded into the TLB,
    // PWC, or caches because the state was for a different process".
    s.machine.execute_access(0, s.c, s.vpn0, AccessKind::Read);
    let after_c = s.machine.stats();
    assert_eq!(after_c.minor_faults, 3, "C suffers its own minor fault");
    assert_eq!(
        after_c.tlb.l2.hits(),
        0,
        "no one reuses anyone's TLB entries"
    );
}

#[test]
fn babelfish_b_reuses_tables_c_reuses_tlb() {
    let mut s = setup(Mode::babelfish());
    // A on core 0: same as conventional — full walk + minor fault.
    s.machine.execute_access(0, s.a, s.vpn0, AccessKind::Read);
    let after_a = s.machine.stats();
    assert_eq!(after_a.minor_faults, 1);

    // B on core 1: misses its (per-core) TLBs and PWC. Its first touch
    // attaches the group's shared PTE table (a SharedResolved service —
    // the entry A faulted in is already there), then the re-walk
    // succeeds. No minor fault is charged.
    s.machine.execute_access(1, s.b, s.vpn0, AccessKind::Read);
    let after_b = s.machine.stats();
    assert_eq!(after_b.minor_faults, 1, "B does not suffer a minor fault");
    assert_eq!(
        after_b.shared_resolved, 1,
        "B merely attached the shared table"
    );

    // C on core 0: hits the TLB entry A brought in — no walk at all.
    // (C's tables never even map the page: the TLB entry alone serves.)
    let walks_before_c = after_b.walks;
    let latency_c = s.machine.execute_access(0, s.c, s.vpn0, AccessKind::Read);
    let after_c = s.machine.stats();
    assert_eq!(after_c.minor_faults, 1, "C does not fault either");
    assert_eq!(after_c.walks, walks_before_c, "C performs no page walk");
    assert_eq!(
        after_c.tlb.l2.data_shared_hits, 1,
        "C hits A's shared L2 entry"
    );
    assert!(
        latency_c < 40,
        "a very fast translation ({latency_c} cycles)"
    );
}

#[test]
fn babelfish_walk_is_served_from_shared_caches() {
    // Compare B's walk latency across architectures: BabelFish's walk
    // hits cache lines A's walker brought into the shared L3.
    let mut conventional = setup(Mode::Baseline);
    conventional
        .machine
        .execute_access(0, conventional.a, conventional.vpn0, AccessKind::Read);
    let conv_b =
        conventional
            .machine
            .execute_access(1, conventional.b, conventional.vpn0, AccessKind::Read);

    let mut babelfish = setup(Mode::babelfish());
    babelfish
        .machine
        .execute_access(0, babelfish.a, babelfish.vpn0, AccessKind::Read);
    let bf_b = babelfish
        .machine
        .execute_access(1, babelfish.b, babelfish.vpn0, AccessKind::Read);

    assert!(
        bf_b < conv_b / 2,
        "B's access should be much faster under BabelFish: {bf_b} vs {conv_b}"
    );
}
