//! Criterion micro-benchmarks of the core data structures: the TLB
//! lookup paths (Fig. 8), MaskPage CoW bookkeeping, the page walk, the
//! cache hierarchy's L1/L2/L3/DRAM paths, the DRAM bank model, the
//! kernel's minor-fault and CoW-break paths, the frame allocator, the Zipfian generator, and the bf-telemetry
//! primitives themselves (the `telemetry` group times one counter
//! increment and one histogram record through a registry handle, and
//! the armed profiler's per-walk tap).

use babelfish::mem::FrameAllocator;
use babelfish::pgtable::MaskPage;
use babelfish::tlb::{LookupMode, LookupRequest, Tlb, TlbConfig, TlbFill};
use babelfish::types::*;
use babelfish::workloads::ZipfianGenerator;
use babelfish::{Machine, Mode, SimConfig};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

fn bench_tlb_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("tlb_lookup");

    // Shared hit with the ORPC short-circuit (the common BabelFish path).
    let mut tlb = Tlb::new(TlbConfig::l2_4k(), LookupMode::BabelFish);
    for vpn in 0..1024 {
        tlb.fill(fill(vpn, 1, false, false));
    }
    group.bench_function("babelfish_shared_hit", |b| {
        let mut vpn = 0u64;
        b.iter(|| {
            vpn = (vpn + 1) % 1024;
            black_box(tlb.lookup(&request(vpn, 2, None)))
        })
    });

    // Shared hit that must consult the PC bitmask (the 12-cycle path).
    let mut tlb = Tlb::new(TlbConfig::l2_4k(), LookupMode::BabelFish);
    for vpn in 0..1024 {
        tlb.fill(fill(vpn, 1, false, true));
    }
    group.bench_function("babelfish_bitmask_hit", |b| {
        let mut vpn = 0u64;
        b.iter(|| {
            vpn = (vpn + 1) % 1024;
            black_box(tlb.lookup(&request(vpn, 2, Some(0))))
        })
    });

    // Owned hit (PCID-checked).
    let mut tlb = Tlb::new(TlbConfig::l2_4k(), LookupMode::BabelFish);
    for vpn in 0..1024 {
        tlb.fill(fill(vpn, 3, true, false));
    }
    group.bench_function("babelfish_owned_hit", |b| {
        let mut vpn = 0u64;
        b.iter(|| {
            vpn = (vpn + 1) % 1024;
            black_box(tlb.lookup(&request(vpn, 3, None)))
        })
    });

    // Conventional hit, for comparison.
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

/// The per-core TLB group's L1 probe on 64 L1-resident accesses per
/// iteration; dividing the number by 64 gives the per-lookup cost.
fn bench_tlb_group(c: &mut Criterion) {
    use babelfish::tlb::{TlbAccess, TlbGroup, TlbGroupConfig};
    let mut group = c.benchmark_group("tlb_group");
    let mut tlbs = TlbGroup::new(TlbGroupConfig::babelfish_aslr_sw());
    let accesses: Vec<TlbAccess> = (0..64u64)
        .map(|i| TlbAccess {
            va: VirtAddr::new(i * 4096),
            pcid: Pcid::new(1),
            ccid: Ccid::new(1),
            pid: Pid::new(1),
            pc_bit: None,
            kind: AccessKind::Read,
        })
        .collect();
    for a in &accesses {
        tlbs.fill_l1(
            a.kind,
            fill(a.va.vpn(PageSize::Size4K).raw(), 1, false, false),
        );
    }
    group.bench_function("scalar_lookup_l1_resident_x64", |b| {
        b.iter(|| {
            for a in &accesses {
                black_box(tlbs.lookup_l1(a));
            }
        })
    });

    // An L2 lookup of a 4 KB page that misses while the 2 MB and 1 GB
    // structures hold nothing, as in a run without huge pages: 1024
    // resident 4 KB entries, probed at VPNs never filled.
    let mut tlbs = TlbGroup::new(TlbGroupConfig::babelfish_aslr_sw());
    for vpn in 0..1024 {
        tlbs.fill(AccessKind::Read, fill(vpn, 1, false, false));
    }
    let mut miss = TlbAccess {
        va: VirtAddr::new(0),
        ..accesses[0]
    };
    let mut vpn = 1u64 << 24;
    group.bench_function("lookup_l2_miss", |b| {
        b.iter(|| {
            vpn += 1;
            miss.va = VirtAddr::new(vpn * 4096);
            black_box(tlbs.lookup_l2(&miss))
        })
    });
    group.finish();
}

fn bench_maskpage(c: &mut Criterion) {
    let mut group = c.benchmark_group("maskpage");
    group.bench_function("assign_and_set", |b| {
        b.iter(|| {
            let mut mp = MaskPage::new(Ppn::new(1));
            for pid in 0..32u32 {
                let bit = mp.assign_bit(Pid::new(pid)).unwrap();
                mp.set_bit((pid % 512) as usize, bit);
            }
            black_box(mp.mask(0))
        })
    });
    let mut mp = MaskPage::new(Ppn::new(1));
    for pid in 0..32u32 {
        mp.assign_bit(Pid::new(pid)).unwrap();
    }
    group.bench_function("bit_of_existing", |b| {
        b.iter(|| black_box(mp.bit_of(Pid::new(17))))
    });
    group.finish();
}

fn bench_machine_access(c: &mut Criterion) {
    let mut group = c.benchmark_group("machine");
    let mut machine = Machine::new(SimConfig::new(1, Mode::babelfish()).with_frames(1 << 20));
    let kernel = machine.kernel_mut();
    let ccid = kernel.create_group();
    let pid = kernel.spawn(ccid).unwrap();
    let file = kernel.register_file(4 << 20);
    let va = kernel
        .mmap(
            pid,
            babelfish::os::MmapRequest::file_shared(
                babelfish::os::Segment::Lib,
                file,
                0,
                4 << 20,
                PageFlags::USER,
            ),
        )
        .unwrap();
    // Warm every page once.
    for page in 0..(4u64 << 20) / 4096 {
        machine.execute_access(0, pid, va.offset(page * 4096), AccessKind::Read);
    }
    group.bench_function("warm_l1_hit_access", |b| {
        b.iter(|| black_box(machine.execute_access(0, pid, va, AccessKind::Read)))
    });
    let pages = (4u64 << 20) / 4096;
    group.bench_function("tlb_resident_sweep", |b| {
        let mut page = 0u64;
        b.iter(|| {
            page = (page + 7) % pages;
            black_box(machine.execute_access(0, pid, va.offset(page * 4096), AccessKind::Read))
        })
    });
    group.finish();
}

/// One `CacheHierarchy::access` on each path a load or a walker request
/// takes through the Table I hierarchy: a core load hitting the L1, a
/// walker request hitting the L2 (walkers enter there, Fig. 7), and
/// walker requests cycling through 1 MB (larger than the L2, so every
/// one hits the L3) and 32 MB (larger than the L3, so every one goes to
/// DRAM). The two streaming paths include the fills they trigger.
///
/// The streams walk lines in order, so the host prefetcher hides the
/// set probes. A core load and a walker request at seeded uniform lines
/// over 64 MB (eight times the L3) touch a random set at every level,
/// which shows the host cost of the set layout. `dram_access` times the
/// DRAM bank model on its own at such lines.
fn bench_cache(c: &mut Criterion) {
    use babelfish::cache::{AccessOrigin, CacheHierarchy, HierarchyConfig};
    use babelfish::mem::{Dram, DramConfig};
    let mut group = c.benchmark_group("cache");
    let core = CoreId::new(0);
    let mut mem = CacheHierarchy::new(HierarchyConfig::table1(1));
    let hot = PhysAddr::new(0x10_0000);
    mem.access(core, hot, AccessKind::Read, AccessOrigin::Core, 0);
    group.bench_function("l1_hit", |b| {
        b.iter(|| {
            mem.access(
                core,
                black_box(hot),
                AccessKind::Read,
                AccessOrigin::Core,
                0,
            )
        })
    });
    let entry = PhysAddr::new(0x20_0000);
    mem.access(core, entry, AccessKind::Read, AccessOrigin::PageWalker, 0);
    group.bench_function("walker_l2_hit", |b| {
        b.iter(|| {
            mem.access(
                core,
                black_box(entry),
                AccessKind::Read,
                AccessOrigin::PageWalker,
                0,
            )
        })
    });
    for (name, bytes) in [("walker_l3_hit", 1u64 << 20), ("walker_dram", 32 << 20)] {
        let lines = bytes / 64;
        for line in 0..lines {
            mem.access(
                core,
                PhysAddr::new(line * 64),
                AccessKind::Read,
                AccessOrigin::PageWalker,
                line,
            );
        }
        let mut line = 0u64;
        let mut now = lines;
        group.bench_function(name, |b| {
            b.iter(|| {
                line = (line + 1) % lines;
                now += 100;
                mem.access(
                    core,
                    PhysAddr::new(line * 64),
                    AccessKind::Read,
                    AccessOrigin::PageWalker,
                    now,
                )
            })
        });
    }
    // The DRAM bank model alone, at the same seeded uniform lines over
    // 64 MB: bank mapping, open-row check and busy-window update.
    let lines = (64u64 << 20) / 64;
    let mut rng = StdRng::seed_from_u64(0xd7a);
    let addrs: Vec<PhysAddr> = (0..1 << 16)
        .map(|_| PhysAddr::new(rng.gen_range(0..lines) * 64))
        .collect();
    let mut dram = Dram::new(DramConfig::default());
    let (mut i, mut now) = (0, 0u64);
    group.bench_function("dram_access", |b| {
        b.iter(|| {
            i = (i + 1) % addrs.len();
            now += 100;
            dram.access(black_box(addrs[i]), now)
        })
    });
    let mut mem = CacheHierarchy::new(HierarchyConfig::table1(1));
    let mut rng = StdRng::seed_from_u64(0x64);
    let mut now = 0u64;
    for (name, origin) in [
        ("core_random_64mb", AccessOrigin::Core),
        ("walker_random_64mb", AccessOrigin::PageWalker),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                now += 100;
                let line = rng.gen_range(0..lines);
                mem.access(
                    core,
                    PhysAddr::new(line * 64),
                    AccessKind::Read,
                    origin,
                    now,
                )
            })
        });
    }
    group.finish();
}

/// A present 4-level software walk and one `PhysMemory::read_entry`,
/// over 256 PTE tables (one mapped page per 2 MB region) so the table
/// store holds a realistic number of populated pages.
fn bench_pgtable(c: &mut Criterion) {
    use babelfish::pgtable::{AddressSpace, TableStore};
    let mut group = c.benchmark_group("pgtable");
    let mut store = TableStore::new(1 << 16);
    let mut space = AddressSpace::new(&mut store, Pid::new(1), Pcid::new(1), Ccid::new(1));
    let regions: Vec<VirtAddr> = (0..256u64)
        .map(|i| VirtAddr::new(0x7f00_0000_0000 + (i << 21)))
        .collect();
    for (i, &va) in regions.iter().enumerate() {
        space
            .map(
                &mut store,
                va,
                Ppn::new(0x8000 + i as u64),
                PageSize::Size4K,
                PageFlags::USER,
            )
            .unwrap();
    }
    let tables: Vec<Ppn> = regions
        .iter()
        .map(|&va| space.table_at(&store, va, PageTableLevel::Pte).unwrap())
        .collect();
    let mut i = 0usize;
    group.bench_function("walk_4level_present", |b| {
        b.iter(|| {
            i = (i + 1) % regions.len();
            black_box(space.walk(&store, regions[i]))
        })
    });
    group.bench_function("read_entry", |b| {
        b.iter(|| {
            i = (i + 1) % tables.len();
            store.mem.read_entry(tables[i], black_box(0))
        })
    });
    group.finish();
}

fn bench_telemetry(c: &mut Criterion) {
    use bf_telemetry::Registry;
    let mut group = c.benchmark_group("telemetry");
    let registry = Registry::new();
    let counter = registry.counter("bench.counter");
    let histogram = registry.histogram("bench.histogram");
    group.bench_function("counter_incr", |b| b.iter(|| black_box(&counter).incr()));
    let mut v = 0u64;
    group.bench_function("histogram_record", |b| {
        b.iter(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            black_box(&histogram).record(v >> 40)
        })
    });

    // The armed profiler tap on one walking access: a `record_miss` and
    // a `record_walk` at the default K = 64. Pages are Zipf-ranked and
    // scattered over 2^17 VPNs (2048 regions per CCID), so most region
    // keys are not monitored and recycle a sketch slot, as in a real
    // walk stream.
    const PAGES: u64 = 1 << 17;
    let mut zipf = ZipfianGenerator::new(PAGES, 0.99);
    let mut rng = StdRng::seed_from_u64(7);
    let paths = [0o1114, 0o1124, 0o1134, 0o1144, 0o2234];
    let stream: Vec<(u16, u32, u64, u64, u32)> = (0..1 << 16)
        .map(|_| {
            let vpn = zipf.sample(&mut rng).wrapping_mul(0x9e37_79b9) % PAGES;
            let ccid = rng.gen_range(1..4u16);
            let pid = u32::from(ccid) * 8 + rng.gen_range(0..8u32);
            let cycles = rng.gen_range(20..400u64);
            (ccid, pid, vpn, cycles, paths[rng.gen_range(0..paths.len())])
        })
        .collect();
    let mut profiler = bf_telemetry::Profiler::new(64);
    let mut i = 0;
    group.bench_function("profiler_record_walk", |b| {
        b.iter(|| {
            let (ccid, pid, vpn, cycles, path) = stream[i];
            i = (i + 1) % stream.len();
            profiler.record_miss(ccid, pid, black_box(vpn));
            profiler.record_walk(ccid, pid, vpn, cycles, path);
        })
    });
    group.finish();
}

/// One full quick experiment cell — the unit of work bf-exec schedules.
/// This is the end-to-end number the data-layout work moves: TLB arena,
/// pid slab, and hoisted instrumentation gate all sit on this path.
fn bench_quick_cell(c: &mut Criterion) {
    use babelfish::experiment::{run_serving, ExperimentConfig};
    use babelfish::ServingVariant;
    let mut group = c.benchmark_group("sweep_cell");
    let mut cfg = ExperimentConfig::smoke_test();
    cfg.warmup_instructions = 1_000;
    cfg.measure_instructions = 4_000;
    group.bench_function("serving_mongodb_tiny", |b| {
        b.iter(|| {
            black_box(run_serving(
                Mode::babelfish(),
                ServingVariant::MongoDb,
                &cfg,
            ))
        })
    });
    group.finish();
}

/// The kernel's fault path on its own, outside the machine: a
/// demand-zero minor fault on a fresh page of a 1 GB anonymous mapping
/// (`minor_fault`; a new mapping is made when one is used up), and the
/// copy-on-write break of a page that a forked child shares with its
/// parent (`cow_break`; the child is re-forked every 4096 pages, so
/// each break also carries 1/4096 of a fork and an exit). Both allocate
/// a frame, which sets its reference count in the frame table, and
/// write one leaf entry; a minor fault also allocates a PTE table every
/// 512 pages. Baseline kernel, THP off, so every page is a 4 KB leaf.
fn bench_os(c: &mut Criterion) {
    use babelfish::os::{FaultKind, Kernel, KernelConfig, MmapRequest, Segment};
    let mut group = c.benchmark_group("os");
    let config = KernelConfig {
        thp: false,
        ..KernelConfig::baseline()
    };
    let rw = PageFlags::USER | PageFlags::WRITE;

    const MAPPING: u64 = 1 << 30;
    let mut kernel = Kernel::new(config);
    let group_id = kernel.create_group();
    let pid = kernel.spawn(group_id).unwrap();
    let heap = MmapRequest::anon(Segment::Heap, MAPPING, rw, false);
    let mut base = kernel.mmap(pid, heap).unwrap();
    let mut page = 0;
    group.bench_function("minor_fault", |b| {
        b.iter(|| {
            if page == MAPPING / 4096 {
                base = kernel.mmap(pid, heap).unwrap();
                page = 0;
            }
            let va = base.offset(page * 4096);
            page += 1;
            black_box(kernel.handle_fault(pid, va, true).unwrap())
        })
    });

    const COW_PAGES: u64 = 4096;
    let mut kernel = Kernel::new(config);
    let group_id = kernel.create_group();
    let parent = kernel.spawn(group_id).unwrap();
    let heap = MmapRequest::anon(Segment::Heap, COW_PAGES * 4096, rw, false);
    let base = kernel.mmap(parent, heap).unwrap();
    for page in 0..COW_PAGES {
        kernel
            .handle_fault(parent, base.offset(page * 4096), true)
            .unwrap();
    }
    let mut child = kernel.fork(parent).unwrap().0;
    let first = kernel.handle_fault(child, base, true).unwrap();
    assert_eq!(first.kind, FaultKind::Cow, "a child's write breaks CoW");
    let mut page = 1;
    group.bench_function("cow_break", |b| {
        b.iter(|| {
            if page == COW_PAGES {
                kernel.exit(child);
                child = kernel.fork(parent).unwrap().0;
                page = 0;
            }
            let va = base.offset(page * 4096);
            page += 1;
            black_box(kernel.handle_fault(child, va, true).unwrap())
        })
    });
    group.finish();
}

fn bench_allocators(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate");
    group.bench_function("frame_alloc_free", |b| {
        let mut alloc = FrameAllocator::new(1 << 16);
        b.iter(|| {
            let f = alloc.alloc().unwrap();
            alloc.dec_ref(f);
            black_box(f)
        })
    });
    group.bench_function("zipfian_sample", |b| {
        let mut zipf = ZipfianGenerator::new(1 << 17, 0.99);
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| black_box(zipf.sample(&mut rng)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_tlb_lookup,
    bench_tlb_group,
    bench_maskpage,
    bench_machine_access,
    bench_cache,
    bench_pgtable,
    bench_quick_cell,
    bench_telemetry,
    bench_os,
    bench_allocators
);
criterion_main!(benches);
