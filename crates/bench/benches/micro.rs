//! Criterion micro-benchmarks of the core data structures: the TLB
//! lookup paths (Fig. 8), MaskPage CoW bookkeeping, the page walk, the
//! cache hierarchy's L1/L2/L3/DRAM paths, the frame allocator, the Zipfian generator, and the bf-telemetry
//! primitives themselves (the `telemetry` group times one counter
//! increment and one histogram record through a registry handle).

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
/// which shows the host cost of the set layout.
fn bench_cache(c: &mut Criterion) {
    use babelfish::cache::{AccessOrigin, CacheHierarchy, HierarchyConfig};
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
    let mut mem = CacheHierarchy::new(HierarchyConfig::table1(1));
    let lines = (64u64 << 20) / 64;
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
    bench_allocators
);
criterion_main!(benches);
