//! Criterion micro-benchmarks of the TLB structure itself: lookup hits
//! and misses, fills with LRU eviction, and single-VPN invalidation.
//!
//! These pin the set-major key/stamp/payload layout against
//! regressions: a lookup compares one `u64` key per way and reads a
//! payload only on a key match, and a fill makes one pass over a set's
//! keys and stamps.

use bf_tlb::{LookupMode, LookupRequest, Tlb, TlbConfig, TlbFill};
use bf_types::{Ccid, PageFlags, PageSize, Pcid, Pid, Ppn, Vpn};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn fill(vpn: u64, pcid: u16, owned: bool, orpc: bool) -> TlbFill {
    TlbFill {
        vpn: Vpn::new(vpn),
        ppn: Ppn::new(vpn + 1),
        size: PageSize::Size4K,
        flags: PageFlags::PRESENT | PageFlags::USER,
        pcid: Pcid::new(pcid),
        ccid: Ccid::new(1),
        owned,
        orpc,
        pc_bitmask: if orpc { 0b1010 } else { 0 },
        loader: Pid::new(pcid as u32),
    }
}

fn request(vpn: u64, pcid: u16, pc_bit: Option<usize>) -> LookupRequest {
    LookupRequest {
        vpn: Vpn::new(vpn),
        pcid: Pcid::new(pcid),
        ccid: Ccid::new(1),
        pid: Pid::new(pcid as u32),
        pc_bit,
        is_write: false,
    }
}

fn bench_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("tlb");

    // Hit path: every probed VPN is resident.
    let mut tlb = Tlb::new(TlbConfig::l2_4k(), LookupMode::BabelFish);
    for vpn in 0..1024 {
        tlb.fill(fill(vpn, 1, false, false));
    }
    group.bench_function("lookup_hit", |b| {
        let mut vpn = 0u64;
        b.iter(|| {
            vpn = (vpn + 1) % 1024;
            black_box(tlb.lookup(&request(vpn, 2, None)))
        })
    });

    // Miss path: probed VPNs are far beyond anything filled, so every
    // lookup walks all ways of the home set and fails.
    group.bench_function("lookup_miss", |b| {
        let mut vpn = 1 << 32;
        b.iter(|| {
            vpn += 1;
            black_box(tlb.lookup(&request(vpn, 2, None)))
        })
    });

    // Bitmask-consulting shared hit (the 12-cycle Fig. 5 path).
    let mut tlb = Tlb::new(TlbConfig::l2_4k(), LookupMode::BabelFish);
    for vpn in 0..1024 {
        tlb.fill(fill(vpn, 1, false, true));
    }
    group.bench_function("lookup_bitmask_hit", |b| {
        let mut vpn = 0u64;
        b.iter(|| {
            vpn = (vpn + 1) % 1024;
            black_box(tlb.lookup(&request(vpn, 2, Some(0))))
        })
    });

    // Conventional lookup for cross-mode comparison.
    let mut tlb = Tlb::new(TlbConfig::l2_4k(), LookupMode::Conventional);
    for vpn in 0..1024 {
        tlb.fill(fill(vpn, 1, false, false));
    }
    group.bench_function("conventional_hit", |b| {
        let mut vpn = 0u64;
        b.iter(|| {
            vpn = (vpn + 1) % 1024;
            black_box(tlb.lookup(&request(vpn, 1, None)))
        })
    });

    group.finish();
}

fn bench_fill_invalidate(c: &mut Criterion) {
    let mut group = c.benchmark_group("tlb_mutate");

    // Steady-state fill: the structure is full, so every fill evicts the
    // set's LRU way.
    let mut tlb = Tlb::new(TlbConfig::l2_4k(), LookupMode::BabelFish);
    for vpn in 0..4096 {
        tlb.fill(fill(vpn, 1, false, false));
    }
    group.bench_function("fill_evict", |b| {
        let mut vpn = 4096u64;
        b.iter(|| {
            vpn += 1;
            tlb.fill(fill(vpn, 1, false, false));
            black_box(tlb.resident_entries())
        })
    });

    // Single-VPN invalidation probes only the home set; pair it with a
    // refill so there is always something to invalidate.
    let mut tlb = Tlb::new(TlbConfig::l2_4k(), LookupMode::BabelFish);
    for vpn in 0..1024 {
        tlb.fill(fill(vpn, 1, false, false));
    }
    group.bench_function("invalidate_shared", |b| {
        let mut vpn = 0u64;
        b.iter(|| {
            vpn = (vpn + 1) % 1024;
            tlb.invalidate_shared(Vpn::new(vpn), Ccid::new(1));
            tlb.fill(fill(vpn, 1, false, false));
            black_box(tlb.resident_entries())
        })
    });

    group.finish();
}

criterion_group!(benches, bench_lookup, bench_fill_invalidate);
criterion_main!(benches);
