//! The kernel: processes, mmap, fork, the page-fault handler, and
//! BabelFish page-table sharing with MaskPage bookkeeping.

use crate::aslr::{AslrMode, LayoutRandomizer};
use crate::file::{FileId, PageCache};
use crate::process::Process;
use crate::vma::{Backing, MmapRequest, Vma};
use bf_pgtable::{AddressSpace, EntryValue, MaskPage, TableStore, WalkStep};
use bf_telemetry::{Counter, Histogram, Registry};
use bf_types::{
    Ccid, Cycles, FastMap, FastSet, PageFlags, PageSize, PageTableLevel, Pcid, Pid, Ppn, VirtAddr,
    TABLE_ENTRIES,
};

/// Kernel policy and cost model.
///
/// Cycle costs are charged to the faulting process by the simulator; the
/// defaults approximate Linux handler latencies on the Table I machine
/// (2 GHz): a minor fault ≈ 0.8 µs, a major fault (NVMe page-in) ≈ 30 µs,
/// a CoW copy ≈ 1.8 µs plus the BabelFish 512-entry bulk copy when the
/// sharing protocol runs.
///
/// # Examples
///
/// ```
/// use bf_os::KernelConfig;
/// let baseline = KernelConfig::baseline();
/// assert!(!baseline.share_page_tables);
/// let babelfish = KernelConfig::babelfish();
/// assert!(babelfish.share_page_tables);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct KernelConfig {
    /// Enable BabelFish page-table sharing (Section III-B).
    pub share_page_tables: bool,
    /// ASLR configuration (Section IV-D).
    pub aslr: AslrMode,
    /// Transparent huge pages for eligible anonymous VMAs.
    pub thp: bool,
    /// Fraction of THP-eligible 2 MB regions that actually get a huge
    /// page. Real THP coverage is partial (fragmentation, allocation
    /// failures, khugepaged lag — the issues of [41, 57] cited in
    /// Section VIII); the remainder stays 4 KB-mapped, which is what
    /// keeps anonymous buffers a large unshareable slice of Fig. 9.
    pub thp_coverage: f64,
    /// Physical frames available (default: 32 GB).
    pub frame_capacity: u64,
    /// Seed for ASLR layouts.
    pub aslr_seed: u64,
    /// Cost of a minor page fault (page resident, entry installed).
    pub minor_fault_cycles: Cycles,
    /// Cost of a major page fault (page read from storage).
    pub major_fault_cycles: Cycles,
    /// Cost of a conventional CoW fault (allocate + copy 4 KB).
    pub cow_fault_cycles: Cycles,
    /// Extra cost of the BabelFish CoW protocol: clone a page of 512
    /// `pte_t`s, update the MaskPage and pid list (Section III-A).
    pub babelfish_cow_bulk_cycles: Cycles,
    /// Extra cost of a CoW on a 2 MB THP page (copying 2 MB).
    pub thp_cow_copy_cycles: Cycles,
    /// Cost of pointing a PMD entry at an existing shared table.
    pub attach_table_cycles: Cycles,
    /// Fixed cost of `fork`.
    pub fork_base_cycles: Cycles,
    /// Per-`pte_t` cost of copying translations at fork (baseline).
    pub fork_per_entry_cycles: Cycles,
    /// Per-table cost of attaching shared tables at fork (BabelFish).
    pub fork_per_table_cycles: Cycles,
    /// Cost charged for a spurious fault (translation already present).
    pub spurious_fault_cycles: Cycles,
    /// Writers a MaskPage can track before the region reverts to private
    /// tables (32 in the paper's design, Fig. 4; 0 models the
    /// immediate-unshare design of Section VII-D that needs no PC
    /// bitmask).
    pub pc_bitmask_capacity: usize,
}

impl KernelConfig {
    fn common() -> Self {
        KernelConfig {
            share_page_tables: false,
            aslr: AslrMode::Hardware,
            thp: true,
            thp_coverage: 0.4,
            frame_capacity: (32u64 << 30) / 4096,
            aslr_seed: 0xBABE_F15B,
            minor_fault_cycles: 1_600,
            major_fault_cycles: 60_000,
            cow_fault_cycles: 3_600,
            babelfish_cow_bulk_cycles: 1_800,
            thp_cow_copy_cycles: 130_000,
            attach_table_cycles: 400,
            fork_base_cycles: 24_000,
            fork_per_entry_cycles: 14,
            fork_per_table_cycles: 360,
            spurious_fault_cycles: 800,
            pc_bitmask_capacity: bf_types::PC_BITMASK_BITS,
        }
    }

    /// Conventional Linux behaviour: private page tables everywhere.
    pub fn baseline() -> Self {
        Self::common()
    }

    /// BabelFish: page-table sharing on (the TLB half is configured in
    /// the simulator's TLB group).
    pub fn babelfish() -> Self {
        KernelConfig {
            share_page_tables: true,
            ..Self::common()
        }
    }
}

/// Errors from kernel entry points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelError {
    /// Physical memory exhausted.
    OutOfMemory,
    /// Unknown or dead process.
    NoSuchProcess,
    /// PCID/CCID space exhausted.
    OutOfIds,
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            KernelError::OutOfMemory => "physical memory exhausted",
            KernelError::NoSuchProcess => "no such process",
            KernelError::OutOfIds => "identifier space exhausted",
        };
        f.write_str(s)
    }
}

impl std::error::Error for KernelError {}

/// Errors from the fault handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultError {
    /// No VMA covers the address.
    SegFault,
    /// Physical memory exhausted while servicing the fault.
    OutOfMemory,
    /// Unknown process.
    NoSuchProcess,
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FaultError::SegFault => "segmentation fault",
            FaultError::OutOfMemory => "physical memory exhausted",
            FaultError::NoSuchProcess => "no such process",
        };
        f.write_str(s)
    }
}

impl std::error::Error for FaultError {}

/// What kind of fault was serviced (Section II-B taxonomy plus the
/// BabelFish-specific outcomes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub enum FaultKind {
    /// Page was resident; only the entry was installed.
    Minor,
    /// Page was read from storage.
    Major,
    /// Copy-on-write service.
    Cow,
    /// The translation was already present in a just-attached shared
    /// table: the fault another process would have taken is avoided
    /// (Section III-B, Fig. 7 "container B does not suffer any page
    /// fault").
    SharedResolved,
    /// The translation was already present (racing TLB state).
    Spurious,
}

/// TLB invalidations the simulator must apply after a kernel operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invalidation {
    /// Drop the shared (O = 0) entry for one VPN in a CCID group — the
    /// single-entry CoW invalidation of Section III-A.
    Shared {
        /// Canonical address of the page.
        va: VirtAddr,
        /// The CCID group.
        ccid: Ccid,
    },
    /// Drop the shared entries for a whole 2 MB region (MaskPage
    /// overflow fallback, Appendix).
    SharedRange {
        /// First page of the region.
        start: VirtAddr,
        /// Number of 4 KB pages.
        pages: u64,
        /// The CCID group.
        ccid: Ccid,
    },
    /// Drop one process's entry for one page.
    Page {
        /// Address of the page.
        va: VirtAddr,
        /// The process.
        pcid: Pcid,
    },
    /// Drop every private entry of a process (fork CoW transform, exit).
    Process {
        /// The process.
        pcid: Pcid,
    },
}

/// The outcome of a serviced fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultResolution {
    /// What was serviced.
    pub kind: FaultKind,
    /// Cycles of kernel time charged to the faulting process.
    pub cost: Cycles,
    /// TLB invalidations the simulator must apply.
    pub invalidations: Vec<Invalidation>,
}

/// Kernel activity counters that have no registry twin. Faults and
/// forks are counted once, by the `os.fault.*_cycles` and
/// `os.fork.cycles` histograms (see [`Kernel::attach_telemetry`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct KernelStats {
    /// BabelFish region privatisations (512-entry clones).
    pub privatizations: u64,
    /// MaskPage overflows (33rd writer fallback).
    pub maskpage_overflows: u64,
    /// `pte_t`s copied by baseline fork.
    pub fork_pte_copies: u64,
    /// Tables attached instead of copied by BabelFish fork.
    pub fork_tables_attached: u64,
    /// Processes spawned (including forks).
    pub spawns: u64,
    /// THP huge pages mapped.
    pub thp_maps: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct RegionKey {
    ccid: Ccid,
    /// `va >> 21`: the 2 MB region index (one PTE table).
    region: u64,
}

impl RegionKey {
    fn of(ccid: Ccid, va: VirtAddr) -> Self {
        RegionKey {
            ccid,
            region: va.raw() >> 21,
        }
    }

    fn base(&self) -> VirtAddr {
        VirtAddr::new(self.region << 21)
    }
}

/// Identity of what backs a 2 MB region — two processes may share a PTE
/// table only when their mappings are *identical*: same file pages (or
/// same anonymous origin) with the same permissions (Section III-B: "it
/// is not possible for two processes to share a table and want to keep
/// private some of pages mapped by the table").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BackingKey {
    File {
        file: FileId,
        first_page: u64,
        private: bool,
        huge: bool,
        perms: u64,
    },
    Anon {
        origin: u64,
        perms: u64,
    },
}

fn backing_key(vma: &Vma, region_base: VirtAddr) -> BackingKey {
    let probe = if region_base < vma.start() {
        vma.start()
    } else {
        region_base
    };
    match vma.backing() {
        Backing::File { private, huge, .. } => {
            let (file, first_page) = vma.file_page(probe);
            BackingKey::File {
                file,
                first_page,
                private,
                huge,
                perms: vma.perms().bits(),
            }
        }
        Backing::Anon { origin, .. } => BackingKey::Anon {
            origin,
            perms: vma.perms().bits(),
        },
    }
}

#[derive(Debug)]
struct SharedRegion {
    pte_table: Ppn,
    members: Vec<Pid>,
    backing: BackingKey,
}

/// Fault-path latency recorders (`os.fault.*_cycles` histograms of
/// kernel cycles charged per serviced fault, plus `os.fork.cycles`).
#[derive(Debug, Clone, Default)]
struct KernelTelemetry {
    minor_cycles: Histogram,
    major_cycles: Histogram,
    cow_cycles: Histogram,
    shared_resolved_cycles: Histogram,
    spurious_cycles: Histogram,
    fork_cycles: Histogram,
    /// Shared with every MaskPage (same cell as the table store's
    /// `pgtable.maskpage_cow_marks`).
    cow_marks: Counter,
    /// Span tracer for fault/CoW/MaskPage events on sampled accesses.
    spans: bf_telemetry::SpanTracer,
}

impl KernelTelemetry {
    fn attach(registry: &Registry) -> Self {
        KernelTelemetry {
            minor_cycles: registry.histogram("os.fault.minor_cycles"),
            major_cycles: registry.histogram("os.fault.major_cycles"),
            cow_cycles: registry.histogram("os.fault.cow_cycles"),
            shared_resolved_cycles: registry.histogram("os.fault.shared_resolved_cycles"),
            spurious_cycles: registry.histogram("os.fault.spurious_cycles"),
            fork_cycles: registry.histogram("os.fork.cycles"),
            cow_marks: registry.counter("pgtable.maskpage_cow_marks"),
            spans: registry.spans(),
        }
    }

    fn fault_cycles(&self, kind: FaultKind) -> &Histogram {
        match kind {
            FaultKind::Minor => &self.minor_cycles,
            FaultKind::Major => &self.major_cycles,
            FaultKind::Cow => &self.cow_cycles,
            FaultKind::SharedResolved => &self.shared_resolved_cycles,
            FaultKind::Spurious => &self.spurious_cycles,
        }
    }
}

/// The modelled kernel. See the [crate-level documentation](crate) for an
/// overview and example.
#[derive(Debug)]
pub struct Kernel {
    config: KernelConfig,
    store: TableStore,
    page_cache: PageCache,
    aslr: LayoutRandomizer,
    processes: FastMap<Pid, Process>,
    files: FastMap<FileId, u64>,
    shared_regions: FastMap<RegionKey, SharedRegion>,
    /// PMD-table sharing for huge-page mappings: one entry per
    /// (group, 1 GB region) — "if the application uses 2MB huge pages,
    /// BabelFish automatically tries to merge PMD tables" (§IV-C).
    shared_pmd_regions: FastMap<(Ccid, u64), SharedRegion>,
    maskpages: FastMap<(Ccid, u64), MaskPage>,
    overflowed: FastSet<(Ccid, u64)>,
    next_pid: u32,
    next_ccid: u16,
    next_file: u64,
    next_anon_origin: u64,
    free_pcids: Vec<Pcid>,
    next_pcid: u16,
    stats: KernelStats,
    telem: KernelTelemetry,
}

/// Looks up a process the kernel has already validated as live. When
/// that invariant is broken the panic names the pid *and the kernel
/// call site* (`#[track_caller]`), so a `--keep-going` sweep slot or a
/// CI log pinpoints the buggy path instead of an anonymous
/// `Option::unwrap` inside this helper.
///
/// A free function over the `processes` field (not a `&self` method) so
/// callers can keep disjoint borrows of `self.store` et al. alive
/// across the lookup.
#[track_caller]
fn live_process(processes: &FastMap<Pid, Process>, pid: Pid) -> &Process {
    let caller = std::panic::Location::caller();
    processes
        .get(&pid)
        .unwrap_or_else(|| panic!("no such process {pid} (kernel lookup at {caller})"))
}

/// Mutable twin of [`live_process`]; same panic contract.
#[track_caller]
fn live_process_mut(processes: &mut FastMap<Pid, Process>, pid: Pid) -> &mut Process {
    let caller = std::panic::Location::caller();
    processes
        .get_mut(&pid)
        .unwrap_or_else(|| panic!("no such process {pid} (kernel lookup at {caller})"))
}

impl Kernel {
    /// Boots a kernel with the given policy.
    pub fn new(config: KernelConfig) -> Self {
        Kernel {
            store: TableStore::new(config.frame_capacity),
            page_cache: PageCache::new(),
            aslr: LayoutRandomizer::new(config.aslr_seed, config.aslr),
            processes: FastMap::default(),
            files: FastMap::default(),
            shared_regions: FastMap::default(),
            shared_pmd_regions: FastMap::default(),
            maskpages: FastMap::default(),
            overflowed: FastSet::default(),
            next_pid: 1,
            next_ccid: 0,
            next_file: 1,
            next_anon_origin: 1,
            free_pcids: Vec::new(),
            next_pcid: 1,
            config,
            stats: KernelStats::default(),
            telem: KernelTelemetry::default(),
        }
    }

    /// Routes the kernel's `os.*` histograms, the table store's
    /// `pgtable.*` handles, and every MaskPage's CoW-mark counter into
    /// `registry`.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.telem = KernelTelemetry::attach(registry);
        self.store.attach_telemetry(registry);
        for maskpage in self.maskpages.values_mut() {
            maskpage.set_telemetry(self.telem.cow_marks.clone());
        }
    }

    /// The policy this kernel was booted with.
    pub fn config(&self) -> &KernelConfig {
        &self.config
    }

    /// Activity counters.
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }

    /// The page-table store (tables, frames, sharer counters).
    pub fn store(&self) -> &TableStore {
        &self.store
    }

    /// The page cache.
    pub fn page_cache(&self) -> &PageCache {
        &self.page_cache
    }

    /// The ASLR layout source.
    pub fn aslr(&self) -> &LayoutRandomizer {
        &self.aslr
    }

    /// Creates a fresh CCID group.
    ///
    /// # Panics
    ///
    /// Panics when the 12-bit CCID space is exhausted.
    pub fn create_group(&mut self) -> Ccid {
        let ccid = Ccid::new(self.next_ccid);
        self.next_ccid += 1;
        ccid
    }

    /// Registers a simulated file of `len` bytes.
    pub fn register_file(&mut self, len: u64) -> FileId {
        let id = FileId::new(self.next_file);
        self.next_file += 1;
        self.files.insert(id, len);
        id
    }

    /// Length of a registered file.
    pub fn file_len(&self, file: FileId) -> Option<u64> {
        self.files.get(&file).copied()
    }

    /// Spawns an empty process in `group`.
    ///
    /// # Errors
    ///
    /// [`KernelError::OutOfIds`] when the PCID space is exhausted;
    /// [`KernelError::OutOfMemory`] when no frame is left for the PGD.
    pub fn spawn(&mut self, group: Ccid) -> Result<Pid, KernelError> {
        let pid = Pid::new(self.next_pid);
        self.next_pid += 1;
        let pcid = self.alloc_pcid()?;
        let space = AddressSpace::new(&mut self.store, pid, pcid, group);
        self.processes
            .insert(pid, Process::new(pid, pcid, group, space));
        self.stats.spawns += 1;
        Ok(pid)
    }

    /// Whether `pid` is a live process.
    pub fn alive(&self, pid: Pid) -> bool {
        self.processes.contains_key(&pid)
    }

    /// Whether an access at `va` by `pid` can resolve: the process is
    /// live and some VMA covers the address. Salvage replay uses this
    /// to drop accesses whose addresses were mangled by trace damage
    /// instead of panicking inside the fault handler.
    pub fn resolvable(&self, pid: Pid, va: VirtAddr) -> bool {
        self.processes
            .get(&pid)
            .is_some_and(|proc| proc.vma_for(va).is_some())
    }

    /// The live members of a CCID group.
    pub fn group_members(&self, group: Ccid) -> Vec<Pid> {
        let mut members: Vec<Pid> = self
            .processes
            .values()
            .filter(|p| p.ccid() == group)
            .map(|p| p.pid())
            .collect();
        members.sort();
        members
    }

    /// Immutable process access.
    ///
    /// # Panics
    ///
    /// Panics — naming the pid and the call site — if the process does
    /// not exist.
    #[track_caller]
    pub fn process(&self, pid: Pid) -> &Process {
        live_process(&self.processes, pid)
    }

    /// The process's address space.
    ///
    /// # Panics
    ///
    /// Panics if the process does not exist.
    #[track_caller]
    pub fn space(&self, pid: Pid) -> &AddressSpace {
        &self.process(pid).space
    }

    /// The PC-bitmask bit `pid`, a member of `group`, must check for
    /// accesses to `va`'s GB region, if the OS has assigned it one
    /// (Fig. 8 / Appendix).
    pub fn pc_bit(&self, group: Ccid, pid: Pid, va: VirtAddr) -> Option<usize> {
        self.maskpages
            .get(&(group, va.raw() >> 30))
            .and_then(|mp| mp.bit_of(pid))
    }

    /// Frame of the MaskPage covering `va` for `group` (for the timing of
    /// the parallel MaskPage fetch on TLB misses, Appendix).
    pub fn maskpage_frame(&self, group: Ccid, va: VirtAddr) -> Option<Ppn> {
        self.maskpages
            .get(&(group, va.raw() >> 30))
            .map(|mp| mp.frame())
    }

    /// Number of MaskPages currently allocated (Section VII-D space
    /// accounting).
    pub fn maskpage_count(&self) -> usize {
        self.maskpages.len()
    }

    /// Every live MaskPage with its (group, GB-region) key, sorted by
    /// key so walkers (e.g. invariant checks) see a deterministic order
    /// regardless of map iteration order.
    pub fn maskpages(&self) -> Vec<(Ccid, u64, &MaskPage)> {
        let mut pages: Vec<_> = self
            .maskpages
            .iter()
            .map(|(&(ccid, region), mp)| (ccid, region, mp))
            .collect();
        pages.sort_by_key(|&(ccid, region, _)| (ccid, region));
        pages
    }

    /// The PC bitmask the hardware loads into the TLB for `va`'s 2 MB
    /// region (Fig. 13: one bitmask per `pmd_t` entry).
    pub fn pc_bitmask(&self, group: Ccid, va: VirtAddr) -> u32 {
        self.maskpages
            .get(&(group, va.raw() >> 30))
            .map_or(0, |mp| mp.mask(va.pmd_index()))
    }

    /// Zeroes the activity counters (start of a measurement window).
    pub fn reset_stats(&mut self) {
        self.stats = KernelStats::default();
    }

    /// Group-canonical base address of `segment` for `group`.
    pub fn group_segment_base(&self, group: Ccid, segment: crate::aslr::Segment) -> VirtAddr {
        self.aslr.group_segment_base(group, segment)
    }

    /// Maps memory into `pid` at the next free canonical address of the
    /// request's segment, returning the start address. Population is
    /// lazy: the first touch of each page faults it in.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchProcess`] for dead pids.
    pub fn mmap(&mut self, pid: Pid, request: MmapRequest) -> Result<VirtAddr, KernelError> {
        let anon_origin = self.next_anon_origin;
        let proc = self
            .processes
            .get_mut(&pid)
            .ok_or(KernelError::NoSuchProcess)?;
        let group_base = self.aslr.group_segment_base(proc.ccid(), request.segment);
        let offset = proc.reserve(request.segment, request.length);
        let start = group_base.offset(offset);
        let backing = match request.backing {
            Backing::Anon { thp, .. } => {
                self.next_anon_origin += 1;
                Backing::Anon {
                    origin: anon_origin,
                    thp,
                }
            }
            file => file,
        };
        proc.add_vma(Vma::new(
            start,
            request.length,
            backing,
            request.perms,
            request.segment,
        ));
        Ok(start)
    }

    /// Unmaps the VMA starting at `start` from `pid`: releases its
    /// shared-table memberships (the Section IV-B counters drop by one),
    /// detaches/frees its page tables, and returns the TLB invalidations
    /// to apply.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchProcess`] if `pid` is dead or no VMA starts
    /// at `start`.
    pub fn munmap(&mut self, pid: Pid, start: VirtAddr) -> Result<Vec<Invalidation>, KernelError> {
        let (vma, ccid, pcid) = {
            let proc = self.processes.get(&pid).ok_or(KernelError::NoSuchProcess)?;
            let vma = *proc.vma_for(start).ok_or(KernelError::NoSuchProcess)?;
            if vma.start() != start {
                return Err(KernelError::NoSuchProcess);
            }
            (vma, proc.ccid(), proc.pcid())
        };

        let mut region = vma.start().align_down(PageSize::Size2M);
        while region < vma.end() {
            let probe = if region < vma.start() {
                vma.start()
            } else {
                region
            };
            let key = RegionKey::of(ccid, probe);

            // Drop the membership (if any) and detach the table pointer.
            let is_member = self
                .shared_regions
                .get_mut(&key)
                .map(|r| {
                    let was = r.members.contains(&pid);
                    r.members.retain(|&m| m != pid);
                    was
                })
                .unwrap_or(false);
            let shared_table = self.shared_regions.get(&key).map(|r| r.pte_table);
            let proc = live_process_mut(&mut self.processes, pid);
            let own = proc.space.table_at(&self.store, probe, PageTableLevel::Pte);
            match own {
                Some(table) if is_member && Some(table) == shared_table => {
                    proc.space
                        .detach_table(&mut self.store, probe, PageTableLevel::Pte);
                }
                Some(_) => {
                    // Private table (or privatised copy): detach frees it
                    // when this was the last reference.
                    proc.space
                        .detach_table(&mut self.store, probe, PageTableLevel::Pte);
                }
                None => {
                    // Possibly a huge leaf (THP / huge file): clear it.
                    let walk = proc.space.walk(&self.store, probe);
                    if let Some((_, size)) = walk.leaf() {
                        if size != PageSize::Size4K {
                            proc.space.unmap(&mut self.store, probe, size);
                        }
                    }
                }
            }
            // Huge-file PMD memberships (per GB) are dropped too.
            let gb = (ccid, probe.raw() >> 30);
            if let Some(r) = self.shared_pmd_regions.get_mut(&gb) {
                r.members.retain(|&m| m != pid);
            }
            region = region.offset(PageSize::Size2M.bytes());
        }

        // Remove the VMA itself.
        let proc = live_process_mut(&mut self.processes, pid);
        let (vmas, cursors) = proc.clone_mappings();
        let filtered: Vec<Vma> = vmas.into_iter().filter(|v| v.start() != start).collect();
        proc.set_mappings(filtered, cursors);

        Ok(vec![Invalidation::Process { pcid }])
    }

    /// Sets the ACCESSED flag on `leaf`, the present leaf step of a walk,
    /// as the x86 page walker does when it reads the leaf. The simulator
    /// calls it on every TLB fill; the bit drives the "Active" bars of
    /// Fig. 9.
    ///
    /// The step names the entry's table and index, so this is one entry
    /// write and no walk. `leaf` must be current: no page-table write may
    /// come between the walk that produced it and this call.
    pub fn mark_leaf_accessed(&mut self, leaf: &WalkStep) {
        debug_assert!(leaf.value.is_present(), "A is set on present leaves");
        if !leaf.value.flags.contains(PageFlags::ACCESSED) {
            let mut value = leaf.value;
            value.flags |= PageFlags::ACCESSED;
            self.store.write(leaf.table, leaf.index, value);
        }
    }

    fn alloc_pcid(&mut self) -> Result<Pcid, KernelError> {
        if let Some(pcid) = self.free_pcids.pop() {
            return Ok(pcid);
        }
        if u32::from(self.next_pcid) >= (1u32 << Pcid::BITS) {
            return Err(KernelError::OutOfIds);
        }
        let pcid = Pcid::new(self.next_pcid);
        self.next_pcid += 1;
        Ok(pcid)
    }
}

// ---------------------------------------------------------------------
// Fault handling.
// ---------------------------------------------------------------------

impl Kernel {
    /// Services a page fault at `va` for `pid` (Fig. 8 step 6 / step 11
    /// outcomes that reach the OS).
    ///
    /// # Errors
    ///
    /// [`FaultError::SegFault`] when no VMA covers `va`;
    /// [`FaultError::OutOfMemory`] when frames run out.
    pub fn handle_fault(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        is_write: bool,
    ) -> Result<FaultResolution, FaultError> {
        let proc = self.processes.get(&pid).ok_or(FaultError::NoSuchProcess)?;
        let vma = *proc.vma_for(va).ok_or(FaultError::SegFault)?;
        let walk = proc.space.walk(&self.store, va);

        let resolution = if let Some((leaf, size)) = walk.leaf() {
            if is_write && leaf.flags.contains(PageFlags::COW) {
                self.handle_cow(pid, va, &vma, leaf, size)?
            } else {
                FaultResolution {
                    kind: FaultKind::Spurious,
                    cost: self.config.spurious_fault_cycles,
                    invalidations: Vec::new(),
                }
            }
        } else {
            self.populate(pid, va, &vma, is_write)?
        };
        self.telem
            .fault_cycles(resolution.kind)
            .record(resolution.cost);
        // Retrospective span: the cost is only known now, so emit a
        // complete begin/end pair covering the kernel time.
        let span_name = match resolution.kind {
            FaultKind::Minor => "os.fault.minor",
            FaultKind::Major => "os.fault.major",
            FaultKind::Cow => "os.fault.cow",
            FaultKind::SharedResolved => "os.fault.shared_resolved",
            FaultKind::Spurious => "os.fault.spurious",
        };
        self.telem
            .spans
            .span(span_name, resolution.cost, &[("va", va.raw())]);
        Ok(resolution)
    }

    /// Installs a missing translation.
    fn populate(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        vma: &Vma,
        is_write: bool,
    ) -> Result<FaultResolution, FaultError> {
        // Explicit huge-page file mappings: PMD-level leaves, with
        // BabelFish merging whole PMD tables (§IV-C).
        if vma.backing().is_huge_file() {
            return self.populate_huge_file(pid, va, vma);
        }
        // THP: map the whole 2 MB region at the PMD level.
        if self.thp_eligible(vma, va) {
            return self.populate_huge(pid, va, vma);
        }

        let ccid = self.process(pid).ccid();
        let key = RegionKey::of(ccid, va);
        let gb_overflowed = self.overflowed.contains(&(ccid, va.raw() >> 30));
        let share = self.config.share_page_tables && vma.shareable() && !gb_overflowed;

        let mut cost: Cycles = 0;
        let mut invalidations = Vec::new();

        let my_backing = backing_key(vma, key.base());
        if share {
            if let Some(region) = self.shared_regions.get(&key) {
                if region.backing != my_backing {
                    // Same canonical region, different contents (e.g.
                    // different images in one group): never share.
                    let (kind, install_cost) = self.install_leaf(pid, va, vma, is_write, false)?;
                    return Ok(self.finish(kind, cost + install_cost, invalidations));
                }
                let table = region.pte_table;
                let is_member = region.members.contains(&pid);
                let own_table = {
                    let proc = live_process(&self.processes, pid);
                    proc.space.table_at(&self.store, va, PageTableLevel::Pte)
                };
                if !is_member && own_table.is_some() && own_table != Some(table) {
                    // Previously privatised: plain private install.
                    let (kind, install_cost) = self.install_leaf(pid, va, vma, is_write, false)?;
                    return Ok(self.finish(kind, cost + install_cost, invalidations));
                }
                if !is_member {
                    // Attach the shared table (Fig. 6).
                    let proc = live_process_mut(&mut self.processes, pid);
                    proc.space
                        .map_shared_table(&mut self.store, va, PageTableLevel::Pte, table)
                        .map_err(|_| FaultError::OutOfMemory)?;
                    self.shared_regions.get_mut(&key).unwrap().members.push(pid);
                    // If earlier sharers already privatised pages here,
                    // the joiner's pmd_t needs the ORPC bit (Fig. 5a).
                    if self.pc_bitmask(ccid, va) != 0 {
                        let proc = live_process_mut(&mut self.processes, pid);
                        proc.space
                            .set_pmd_opc(&mut self.store, va, None, Some(true));
                    }
                    cost += self.config.attach_table_cycles;
                    // The entry may already be there: fault avoided.
                    let proc = live_process(&self.processes, pid);
                    if proc.space.walk(&self.store, va).leaf().is_some() {
                        return Ok(self.finish(FaultKind::SharedResolved, cost, invalidations));
                    }
                }
                // Installing a *private* page (anonymous data, or a CoW
                // write) into the group's table requires privatisation
                // first — even for a sole member, since the registered
                // table must stay clean for future joiners
                // (Section III-B: sharers cannot keep private pages in a
                // shared table).
                let private_page = matches!(vma.backing(), Backing::Anon { .. })
                    || (is_write && vma.write_is_cow());
                if private_page {
                    let (privatize_cost, mut inv) = self.privatize_region(pid, va)?;
                    cost += privatize_cost;
                    invalidations.append(&mut inv);
                }
                let (kind, install_cost) =
                    self.install_leaf(pid, va, vma, is_write, private_page)?;
                return Ok(self.finish(kind, cost + install_cost, invalidations));
            }
            // First toucher of the region. A clean install is published
            // for the group; a private page keeps the table unregistered
            // (and marked owned) so it is never shared.
            let private_page =
                matches!(vma.backing(), Backing::Anon { .. }) || (is_write && vma.write_is_cow());
            let (kind, install_cost) = self.install_leaf(pid, va, vma, is_write, private_page)?;
            if !private_page {
                let table = self
                    .process(pid)
                    .space
                    .table_at(&self.store, va, PageTableLevel::Pte)
                    .expect("install created the chain");
                if self.table_is_clean(table) {
                    self.store.share_table(table); // the registry's reference
                    self.shared_regions.insert(
                        key,
                        SharedRegion {
                            pte_table: table,
                            members: vec![pid],
                            backing: my_backing,
                        },
                    );
                }
            }
            return Ok(self.finish(kind, cost + install_cost, invalidations));
        }

        let (kind, install_cost) = self.install_leaf(pid, va, vma, is_write, false)?;
        Ok(self.finish(kind, cost + install_cost, invalidations))
    }

    /// Allocates/locates the data frame and writes the leaf entry.
    /// Returns the fault kind and cost. `owned` marks the entry with the
    /// BabelFish O bit (used when installing into a privatised table).
    fn install_leaf(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        vma: &Vma,
        is_write: bool,
        owned: bool,
    ) -> Result<(FaultKind, Cycles), FaultError> {
        let (frame, mut flags, mut kind, mut cost) = match vma.backing() {
            Backing::File { private, .. } => {
                let (file, page) = vma.file_page(va);
                let (frame, resident) = self
                    .page_cache
                    .frame_for(&mut self.store.frames, file, page)
                    .ok_or(FaultError::OutOfMemory)?;
                let mut flags = PageFlags::PRESENT | PageFlags::USER;
                let writable = vma.perms().contains(PageFlags::WRITE);
                if writable && !private {
                    flags |= PageFlags::WRITE;
                }
                if writable && private {
                    flags |= PageFlags::COW;
                }
                if vma.perms().contains(PageFlags::NX) {
                    flags |= PageFlags::NX;
                }
                let (kind, cost) = if resident {
                    (FaultKind::Minor, self.config.minor_fault_cycles)
                } else {
                    (FaultKind::Major, self.config.major_fault_cycles)
                };
                (frame, flags, kind, cost)
            }
            Backing::Anon { .. } => {
                let frame = self.store.frames.alloc().ok_or(FaultError::OutOfMemory)?;
                let mut flags = PageFlags::PRESENT | PageFlags::USER;
                if vma.perms().contains(PageFlags::WRITE) {
                    flags |= PageFlags::WRITE;
                }
                (
                    frame,
                    flags,
                    FaultKind::Minor,
                    self.config.minor_fault_cycles,
                )
            }
        };
        if owned {
            flags |= PageFlags::OWNED;
        }

        // A write that lands on a fresh CoW file page copies immediately.
        if is_write && flags.contains(PageFlags::COW) {
            let copy = self.store.frames.alloc().ok_or(FaultError::OutOfMemory)?;
            flags = flags.without(PageFlags::COW) | PageFlags::WRITE;
            let proc = live_process_mut(&mut self.processes, pid);
            proc.space
                .map(&mut self.store, va, copy, PageSize::Size4K, flags)
                .map_err(|_| FaultError::OutOfMemory)?;
            kind = FaultKind::Cow;
            cost += self.config.cow_fault_cycles;
            return Ok((kind, cost));
        }

        let proc = live_process_mut(&mut self.processes, pid);
        proc.space
            .map(&mut self.store, va, frame, PageSize::Size4K, flags)
            .map_err(|_| FaultError::OutOfMemory)?;
        Ok((kind, cost))
    }

    /// Maps a fresh 2 MB THP page over `va`'s region.
    fn populate_huge(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        vma: &Vma,
    ) -> Result<FaultResolution, FaultError> {
        let run = self
            .store
            .frames
            .alloc_contiguous(512, 512)
            .ok_or(FaultError::OutOfMemory)?;
        let mut flags = PageFlags::PRESENT | PageFlags::USER;
        if vma.perms().contains(PageFlags::WRITE) {
            flags |= PageFlags::WRITE;
        }
        let base = va.align_down(PageSize::Size2M);
        let proc = live_process_mut(&mut self.processes, pid);
        proc.space
            .map(&mut self.store, base, run, PageSize::Size2M, flags)
            .map_err(|_| FaultError::OutOfMemory)?;
        self.stats.thp_maps += 1;
        Ok(FaultResolution {
            kind: FaultKind::Minor,
            cost: self.config.minor_fault_cycles,
            invalidations: Vec::new(),
        })
    }

    /// Maps a 2 MB huge-page chunk of a hugetlbfs-style file, sharing
    /// the covering PMD table across the CCID group when possible
    /// (§IV-C: PMD-table merging for 2 MB pages).
    fn populate_huge_file(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        vma: &Vma,
    ) -> Result<FaultResolution, FaultError> {
        let ccid = self.process(pid).ccid();
        let gb = va.raw() >> 30;
        let share = self.config.share_page_tables && vma.shareable();
        // The PMD-region backing identity is anchored at the GB base.
        let my_backing = backing_key(vma, VirtAddr::new(gb << 30));
        let mut cost: Cycles = 0;

        if share {
            if let Some(region) = self.shared_pmd_regions.get(&(ccid, gb)) {
                if region.backing == my_backing {
                    let table = region.pte_table; // here: a PMD table
                    if !region.members.contains(&pid) {
                        let proc = live_process_mut(&mut self.processes, pid);
                        proc.space
                            .map_shared_table(&mut self.store, va, PageTableLevel::Pmd, table)
                            .map_err(|_| FaultError::OutOfMemory)?;
                        self.shared_pmd_regions
                            .get_mut(&(ccid, gb))
                            .unwrap()
                            .members
                            .push(pid);
                        cost += self.config.attach_table_cycles;
                        let proc = live_process(&self.processes, pid);
                        if proc.space.walk(&self.store, va).leaf().is_some() {
                            return Ok(FaultResolution {
                                kind: FaultKind::SharedResolved,
                                cost,
                                invalidations: Vec::new(),
                            });
                        }
                    }
                    let (kind, install_cost) = self.install_huge_file_leaf(pid, va, vma)?;
                    return Ok(FaultResolution {
                        kind,
                        cost: cost + install_cost,
                        invalidations: Vec::new(),
                    });
                }
                // Different backing at the same GB: private install.
                let (kind, install_cost) = self.install_huge_file_leaf(pid, va, vma)?;
                return Ok(FaultResolution {
                    kind,
                    cost: cost + install_cost,
                    invalidations: Vec::new(),
                });
            }
            // First toucher: install, then publish the PMD table.
            let (kind, install_cost) = self.install_huge_file_leaf(pid, va, vma)?;
            let table = self
                .process(pid)
                .space
                .table_at(&self.store, va, PageTableLevel::Pmd)
                .expect("install created the chain");
            self.store.share_table(table); // registry reference
            self.shared_pmd_regions.insert(
                (ccid, gb),
                SharedRegion {
                    pte_table: table,
                    members: vec![pid],
                    backing: my_backing,
                },
            );
            return Ok(FaultResolution {
                kind,
                cost: cost + install_cost,
                invalidations: Vec::new(),
            });
        }

        let (kind, install_cost) = self.install_huge_file_leaf(pid, va, vma)?;
        Ok(FaultResolution {
            kind,
            cost: cost + install_cost,
            invalidations: Vec::new(),
        })
    }

    /// Locates the huge chunk in the page cache and writes the PMD leaf.
    fn install_huge_file_leaf(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        vma: &Vma,
    ) -> Result<(FaultKind, Cycles), FaultError> {
        let base = va.align_down(PageSize::Size2M);
        let (file, first_page) = vma.file_page(base);
        let chunk = first_page / 512;
        let (run, resident) = self
            .page_cache
            .huge_frame_for(&mut self.store.frames, file, chunk)
            .ok_or(FaultError::OutOfMemory)?;
        let mut flags = PageFlags::PRESENT | PageFlags::USER;
        if vma.perms().contains(PageFlags::WRITE) {
            flags |= PageFlags::WRITE; // MAP_SHARED: writes hit the shared chunk
        }
        let proc = live_process_mut(&mut self.processes, pid);
        proc.space
            .map(&mut self.store, base, run, PageSize::Size2M, flags)
            .map_err(|_| FaultError::OutOfMemory)?;
        let (kind, cost) = if resident {
            (FaultKind::Minor, self.config.minor_fault_cycles)
        } else {
            (FaultKind::Major, self.config.major_fault_cycles)
        };
        Ok((kind, cost))
    }

    fn thp_eligible(&self, vma: &Vma, va: VirtAddr) -> bool {
        if !self.config.thp || !vma.backing().is_thp() {
            return false;
        }
        let base = va.align_down(PageSize::Size2M);
        if base < vma.start() || base.raw() + PageSize::Size2M.bytes() > vma.end().raw() {
            return false;
        }
        // Deterministic partial coverage: hash the (allocation, region)
        // pair so the same region always gets the same outcome.
        let origin = match vma.backing() {
            Backing::Anon { origin, .. } => origin,
            Backing::File { .. } => 0,
        };
        let mut x = (base.raw() >> 21).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ origin;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 31;
        (x % 1000) as f64 / 1000.0 < self.config.thp_coverage
    }

    /// Services a write to a CoW page.
    fn handle_cow(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        _vma: &Vma,
        leaf: EntryValue,
        size: PageSize,
    ) -> Result<FaultResolution, FaultError> {
        // THP CoW: copy the whole 2 MB page.
        if size == PageSize::Size2M {
            let run = self
                .store
                .frames
                .alloc_contiguous(512, 512)
                .ok_or(FaultError::OutOfMemory)?;
            let flags = leaf.flags.without(PageFlags::COW) | PageFlags::WRITE;
            let proc = live_process_mut(&mut self.processes, pid);
            let pcid = proc.pcid();
            let base = va.align_down(PageSize::Size2M);
            proc.space
                .write_leaf(&mut self.store, base, size, EntryValue::new(run, flags));
            self.telem
                .spans
                .instant("os.cow.thp_copy", &[("va", va.raw())]);
            return Ok(FaultResolution {
                kind: FaultKind::Cow,
                cost: self.config.cow_fault_cycles + self.config.thp_cow_copy_cycles,
                invalidations: vec![Invalidation::Page { va: base, pcid }],
            });
        }

        let ccid = self.process(pid).ccid();
        let key = RegionKey::of(ccid, va);
        let in_shared_table = self
            .shared_regions
            .get(&key)
            .map(|region| {
                let own = self
                    .process(pid)
                    .space
                    .table_at(&self.store, va, PageTableLevel::Pte);
                // Even a sole member privatises: the registered table
                // stays clean for future joiners.
                own == Some(region.pte_table)
            })
            .unwrap_or(false);

        let mut cost = self.config.cow_fault_cycles;
        let mut invalidations = Vec::new();
        let mut owned = false;

        if in_shared_table {
            // BabelFish CoW protocol (Section III-A).
            let (privatize_cost, mut inv) = self.privatize_region(pid, va)?;
            cost += privatize_cost;
            invalidations.append(&mut inv);
            owned = true;
        } else {
            let pcid = self.process(pid).pcid();
            invalidations.push(Invalidation::Page { va, pcid });
        }

        // Allocate the private copy of the written page and redirect the
        // (now private) leaf.
        let copy = self.store.frames.alloc().ok_or(FaultError::OutOfMemory)?;
        self.telem
            .spans
            .instant("os.cow.private_copy", &[("va", va.raw())]);
        let mut flags = leaf.flags.without(PageFlags::COW) | PageFlags::WRITE | PageFlags::PRESENT;
        if owned {
            flags |= PageFlags::OWNED;
        }
        let proc = live_process_mut(&mut self.processes, pid);
        proc.space.write_leaf(
            &mut self.store,
            va,
            PageSize::Size4K,
            EntryValue::new(copy, flags),
        );

        Ok(FaultResolution {
            kind: FaultKind::Cow,
            cost,
            invalidations,
        })
    }

    /// The BabelFish privatisation: assign a PC-bitmask bit, clone the
    /// 512-entry PTE table with O bits set, swap the writer's pointer,
    /// set ORPC on the remaining sharers' pmd_t entries, and invalidate
    /// the single shared TLB entry (Section III-A + Appendix).
    fn privatize_region(
        &mut self,
        pid: Pid,
        va: VirtAddr,
    ) -> Result<(Cycles, Vec<Invalidation>), FaultError> {
        let ccid = self.process(pid).ccid();
        let key = RegionKey::of(ccid, va);
        let gb = (ccid, va.raw() >> 30);

        // MaskPage bookkeeping; overflow triggers the Appendix fallback.
        // A capacity of 0 models the no-PC-bitmask design of
        // Section VII-D: sharing stops on the first CoW.
        let capacity = self
            .config
            .pc_bitmask_capacity
            .min(bf_types::PC_BITMASK_BITS);
        if !self.overflowed.contains(&gb) {
            let maskpage = match self.maskpages.get_mut(&gb) {
                Some(mp) => mp,
                None => {
                    let frame = self.store.frames.alloc().ok_or(FaultError::OutOfMemory)?;
                    let mut maskpage = MaskPage::new(frame);
                    maskpage.set_telemetry(self.telem.cow_marks.clone());
                    self.maskpages.entry(gb).or_insert(maskpage)
                }
            };
            let over_capacity = maskpage.bit_of(pid).is_none() && maskpage.writers() >= capacity;
            if over_capacity {
                self.stats.maskpage_overflows += 1;
                self.overflowed.insert(gb);
                return self.revert_region(key, va);
            }
            match maskpage.assign_bit(pid) {
                Ok(bit) => {
                    maskpage.set_bit(va.pmd_index(), bit);
                    self.telem.spans.instant(
                        "os.maskpage.mark",
                        &[("bit", bit as u64), ("pmd", va.pmd_index() as u64)],
                    );
                }
                Err(_) => {
                    self.stats.maskpage_overflows += 1;
                    self.overflowed.insert(gb);
                    return self.revert_region(key, va);
                }
            }
        } else {
            // Post-overflow: everyone already reverted; the caller's
            // table is private. Nothing to do.
            return Ok((0, Vec::new()));
        }

        let Some(region) = self.shared_regions.get_mut(&key) else {
            return Ok((0, Vec::new()));
        };
        let shared_table = region.pte_table;
        region.members.retain(|&m| m != pid);
        let remaining: Vec<Pid> = region.members.clone();

        // Set ORPC on the remaining sharers' pmd_t entries (Fig. 5a).
        for member in &remaining {
            if let Some(proc) = self.processes.get_mut(member) {
                proc.space
                    .set_pmd_opc(&mut self.store, va, None, Some(true));
            }
        }

        // Clone the page of 512 pte_t translations, O bit set on each.
        let private = self
            .store
            .clone_table(shared_table)
            .ok_or(FaultError::OutOfMemory)?;
        for i in 0..TABLE_ENTRIES {
            let mut entry = self.store.read(private, i);
            if entry.is_present() {
                entry.flags |= PageFlags::OWNED;
                self.store.write(private, i, entry);
            }
        }
        let proc = live_process_mut(&mut self.processes, pid);
        proc.space
            .replace_table(&mut self.store, va, PageTableLevel::Pte, private);
        proc.space
            .set_pmd_opc(&mut self.store, va, Some(true), None);

        self.stats.privatizations += 1;
        // Only the single shared entry for this VPN is invalidated; the
        // remaining (up to 511) translations stay in the TLBs.
        Ok((
            self.config.babelfish_cow_bulk_cycles,
            vec![Invalidation::Shared { va, ccid }],
        ))
    }

    /// MaskPage-overflow fallback (Appendix): every sharer of the region
    /// reverts to a private PTE table with O bits.
    fn revert_region(
        &mut self,
        key: RegionKey,
        va: VirtAddr,
    ) -> Result<(Cycles, Vec<Invalidation>), FaultError> {
        let Some(region) = self.shared_regions.remove(&key) else {
            return Ok((0, Vec::new()));
        };
        let shared_table = region.pte_table;
        let registry_release = shared_table;
        let mut cost: Cycles = 0;
        for member in region.members {
            let private = self
                .store
                .clone_table(shared_table)
                .ok_or(FaultError::OutOfMemory)?;
            for i in 0..TABLE_ENTRIES {
                let mut entry = self.store.read(private, i);
                if entry.is_present() {
                    entry.flags |= PageFlags::OWNED;
                    self.store.write(private, i, entry);
                }
            }
            if let Some(proc) = self.processes.get_mut(&member) {
                proc.space
                    .replace_table(&mut self.store, va, PageTableLevel::Pte, private);
                proc.space
                    .set_pmd_opc(&mut self.store, va, Some(true), None);
                // The region is no longer table-shareable for this VMA.
                if let Some(vma) = proc.vma_for_mut(va) {
                    vma.set_shareable(false);
                }
            }
            cost += self.config.babelfish_cow_bulk_cycles;
            self.stats.privatizations += 1;
        }
        // Drop the registry's own reference on the abandoned table.
        self.store.release_table(registry_release);
        let ccid = key.ccid;
        Ok((
            cost,
            vec![Invalidation::SharedRange {
                start: key.base(),
                pages: 512,
                ccid,
            }],
        ))
    }

    fn finish(
        &mut self,
        kind: FaultKind,
        cost: Cycles,
        invalidations: Vec<Invalidation>,
    ) -> FaultResolution {
        FaultResolution {
            kind,
            cost,
            invalidations,
        }
    }

    /// A table may be published for the group only if it holds no
    /// process-private (owned) entries.
    fn table_is_clean(&self, table: Ppn) -> bool {
        (0..TABLE_ENTRIES).all(|i| {
            let entry = self.store.read(table, i);
            !entry.is_present() || !entry.flags.contains(PageFlags::OWNED)
        })
    }
}

// ---------------------------------------------------------------------
// Fork and exit.
// ---------------------------------------------------------------------

impl Kernel {
    /// Forks `parent`, returning the child pid, the kernel cycles spent
    /// and the TLB invalidations to apply (the parent loses write access
    /// to its CoW pages).
    ///
    /// Under the baseline policy the present translations are *copied*
    /// into child tables; under BabelFish the child's directory entries
    /// are pointed at the parent's tables (Section III-B), which is both
    /// cheaper and the source of later fault avoidance.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchProcess`] / [`KernelError::OutOfMemory`] /
    /// [`KernelError::OutOfIds`].
    pub fn fork(
        &mut self,
        parent_pid: Pid,
    ) -> Result<(Pid, Cycles, Vec<Invalidation>), KernelError> {
        if !self.processes.contains_key(&parent_pid) {
            return Err(KernelError::NoSuchProcess);
        }
        let (mut vmas, cursors, ccid, parent_pcid) = {
            let parent = live_process(&self.processes, parent_pid);
            let (vmas, cursors) = parent.clone_mappings();
            (vmas, cursors, parent.ccid(), parent.pcid())
        };
        // Fork-inherited anonymous regions become CoW-shareable.
        for vma in &mut vmas {
            if matches!(vma.backing(), Backing::Anon { thp: false, .. }) {
                vma.set_shareable(true);
            }
        }

        let child_pid = self.spawn(ccid)?;
        {
            let child = live_process_mut(&mut self.processes, child_pid);
            child.set_mappings(vmas.clone(), cursors);
        }
        // Propagate shareability back into the parent's VMAs.
        {
            let parent = live_process_mut(&mut self.processes, parent_pid);
            let (mut parent_vmas, parent_cursors) = parent.clone_mappings();
            for vma in &mut parent_vmas {
                if matches!(vma.backing(), Backing::Anon { thp: false, .. }) {
                    vma.set_shareable(true);
                }
            }
            parent.set_mappings(parent_vmas, parent_cursors);
        }

        let mut cost = self.config.fork_base_cycles;
        let mut any_cow_transform = false;

        for vma in &vmas {
            if vma.backing().is_huge_file() {
                // Huge-file chunks are MAP_SHARED: the child re-faults
                // them (and re-attaches the shared PMD table) lazily.
                continue;
            }
            let thp_vma = vma.backing().is_thp();
            let mut region = vma.start().align_down(PageSize::Size2M);
            while region < vma.end() {
                let probe = if region < vma.start() {
                    vma.start()
                } else {
                    region
                };
                if thp_vma {
                    cost += self.fork_copy_thp_region(
                        parent_pid,
                        child_pid,
                        probe,
                        vma,
                        &mut any_cow_transform,
                    )?;
                } else {
                    let share = self.config.share_page_tables
                        && vma.shareable()
                        && !self.overflowed.contains(&(ccid, probe.raw() >> 30));
                    if share {
                        cost += self.fork_share_region(
                            parent_pid,
                            child_pid,
                            probe,
                            vma,
                            &mut any_cow_transform,
                        )?;
                    } else {
                        cost += self.fork_copy_region(
                            parent_pid,
                            child_pid,
                            probe,
                            vma,
                            &mut any_cow_transform,
                        )?;
                    }
                }
                region = region.offset(PageSize::Size2M.bytes());
            }
        }

        self.telem.fork_cycles.record(cost);
        let invalidations = if any_cow_transform {
            vec![Invalidation::Process { pcid: parent_pcid }]
        } else {
            Vec::new()
        };
        Ok((child_pid, cost, invalidations))
    }

    /// BabelFish fork path for one 2 MB region: attach the child to the
    /// parent's PTE table and CoW-protect the writable private entries.
    fn fork_share_region(
        &mut self,
        parent_pid: Pid,
        child_pid: Pid,
        probe: VirtAddr,
        vma: &Vma,
        any_cow_transform: &mut bool,
    ) -> Result<Cycles, KernelError> {
        let ccid = self.process(parent_pid).ccid();
        let parent_table =
            self.process(parent_pid)
                .space
                .table_at(&self.store, probe, PageTableLevel::Pte);
        let Some(parent_table) = parent_table else {
            return Ok(0); // nothing populated here yet
        };
        let key = RegionKey::of(ccid, probe);
        let my_backing = backing_key(vma, key.base());

        match self.shared_regions.get_mut(&key) {
            Some(region) if region.pte_table == parent_table && region.backing == my_backing => {
                if !region.members.contains(&parent_pid) {
                    region.members.push(parent_pid);
                }
                region.members.push(child_pid);
            }
            Some(_) => {
                // The registered table is someone's other lineage (parent
                // privatised earlier): fall back to copying.
                let mut dummy = false;
                let c = self.fork_copy_region(parent_pid, child_pid, probe, vma, &mut dummy)?;
                *any_cow_transform |= dummy;
                return Ok(c);
            }
            None => {
                if !self.table_is_clean(parent_table) {
                    // The parent has private pages here: fall back to
                    // copying rather than publishing a dirty table.
                    let mut dirty = false;
                    let c = self.fork_copy_region(parent_pid, child_pid, probe, vma, &mut dirty)?;
                    *any_cow_transform |= dirty;
                    return Ok(c);
                }
                self.store.share_table(parent_table); // registry reference
                self.shared_regions.insert(
                    key,
                    SharedRegion {
                        pte_table: parent_table,
                        members: vec![parent_pid, child_pid],
                        backing: my_backing,
                    },
                );
            }
        }

        let child = live_process_mut(&mut self.processes, child_pid);
        child
            .space
            .map_shared_table(&mut self.store, probe, PageTableLevel::Pte, parent_table)
            .map_err(|_| KernelError::OutOfMemory)?;
        self.stats.fork_tables_attached += 1;

        // CoW-protect writable private pages once, in the shared table.
        let needs_cow = matches!(vma.backing(), Backing::Anon { .. }) || vma.write_is_cow();
        if needs_cow {
            for i in 0..TABLE_ENTRIES {
                let mut entry = self.store.read(parent_table, i);
                if entry.is_present() && entry.flags.contains(PageFlags::WRITE) {
                    entry.flags = entry.flags.without(PageFlags::WRITE) | PageFlags::COW;
                    self.store.write(parent_table, i, entry);
                    *any_cow_transform = true;
                }
            }
        }
        Ok(self.config.fork_per_table_cycles)
    }

    /// Baseline fork path for one 2 MB region: copy every present entry
    /// into the child's own tables.
    fn fork_copy_region(
        &mut self,
        parent_pid: Pid,
        child_pid: Pid,
        probe: VirtAddr,
        vma: &Vma,
        any_cow_transform: &mut bool,
    ) -> Result<Cycles, KernelError> {
        let parent_table =
            self.process(parent_pid)
                .space
                .table_at(&self.store, probe, PageTableLevel::Pte);
        let Some(parent_table) = parent_table else {
            return Ok(0);
        };
        let region_base = probe.align_down(PageSize::Size2M);
        let cow_transform = matches!(vma.backing(), Backing::Anon { .. }) || vma.write_is_cow();
        let mut copied: u64 = 0;

        for i in 0..TABLE_ENTRIES {
            let mut entry = self.store.read(parent_table, i);
            if !entry.is_present() {
                continue;
            }
            let va = region_base.offset(i as u64 * 4096);
            if !vma.contains(va) {
                continue;
            }
            if cow_transform && entry.flags.contains(PageFlags::WRITE) {
                entry.flags = entry.flags.without(PageFlags::WRITE) | PageFlags::COW;
                self.store.write(parent_table, i, entry);
                *any_cow_transform = true;
            }
            let entry = self.store.read(parent_table, i);
            let child = live_process_mut(&mut self.processes, child_pid);
            child
                .space
                .map(
                    &mut self.store,
                    va,
                    entry.ppn,
                    PageSize::Size4K,
                    entry.flags,
                )
                .map_err(|_| KernelError::OutOfMemory)?;
            copied += 1;
        }
        self.stats.fork_pte_copies += copied;
        Ok(copied * self.config.fork_per_entry_cycles)
    }

    /// Fork handling for a THP region: copy the PMD leaf with CoW.
    fn fork_copy_thp_region(
        &mut self,
        parent_pid: Pid,
        child_pid: Pid,
        probe: VirtAddr,
        _vma: &Vma,
        any_cow_transform: &mut bool,
    ) -> Result<Cycles, KernelError> {
        let base = probe.align_down(PageSize::Size2M);
        let walk = self.process(parent_pid).space.walk(&self.store, base);
        let Some((mut leaf, size)) = walk.leaf() else {
            return Ok(0);
        };
        if size != PageSize::Size2M {
            return Ok(0);
        }
        if leaf.flags.contains(PageFlags::WRITE) {
            leaf.flags = leaf.flags.without(PageFlags::WRITE) | PageFlags::COW;
            let parent = live_process_mut(&mut self.processes, parent_pid);
            parent.space.write_leaf(&mut self.store, base, size, leaf);
            *any_cow_transform = true;
        }
        let child = live_process_mut(&mut self.processes, child_pid);
        child
            .space
            .map(
                &mut self.store,
                base,
                leaf.ppn,
                PageSize::Size2M,
                leaf.flags.without(PageFlags::HUGE),
            )
            .map_err(|_| KernelError::OutOfMemory)?;
        self.stats.fork_pte_copies += 1;
        Ok(self.config.fork_per_entry_cycles)
    }

    /// Terminates a process: releases its page tables (shared tables
    /// survive for their other sharers, Section IV-B) and returns the
    /// TLB invalidations to apply.
    pub fn exit(&mut self, pid: Pid) -> Vec<Invalidation> {
        let Some(proc) = self.processes.remove(&pid) else {
            return Vec::new();
        };
        let pcid = proc.pcid();
        let ccid = proc.ccid();
        // Drop region memberships (the registry keeps empty regions'
        // tables alive for future group members).
        for region in self.shared_regions.values_mut() {
            region.members.retain(|&m| m != pid);
        }
        for region in self.shared_pmd_regions.values_mut() {
            region.members.retain(|&m| m != pid);
        }
        proc.space.destroy(&mut self.store);
        // When the whole group is gone, release the registry references
        // and MaskPages. Freed frames go onto the allocator's LIFO free
        // list, so release in key order: a later group's tables must get
        // the same frames whatever the maps' iteration order.
        if !self.processes.values().any(|p| p.ccid() == ccid) {
            let mut dead: Vec<RegionKey> = self
                .shared_regions
                .keys()
                .filter(|k| k.ccid == ccid)
                .copied()
                .collect();
            dead.sort_unstable();
            for key in dead {
                let region = self.shared_regions.remove(&key).unwrap();
                self.store.release_table(region.pte_table);
            }
            let mut dead_pmd: Vec<(Ccid, u64)> = self
                .shared_pmd_regions
                .keys()
                .filter(|(g, _)| *g == ccid)
                .copied()
                .collect();
            dead_pmd.sort_unstable();
            for key in dead_pmd {
                let region = self.shared_pmd_regions.remove(&key).unwrap();
                self.store.release_table(region.pte_table);
            }
            self.maskpages.retain(|(g, _), _| *g != ccid);
            self.overflowed.retain(|(g, _)| *g != ccid);
        }
        self.free_pcids.push(pcid);
        vec![Invalidation::Process { pcid }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aslr::Segment;

    fn user_rw() -> PageFlags {
        PageFlags::USER | PageFlags::WRITE
    }

    fn kernel(share: bool) -> Kernel {
        let mut config = if share {
            KernelConfig::babelfish()
        } else {
            KernelConfig::baseline()
        };
        config.thp = false;
        Kernel::new(config)
    }

    /// Two processes in one group, both mapping one shared file.
    fn two_mappers(kernel: &mut Kernel, len: u64) -> (Pid, Pid, VirtAddr) {
        let group = kernel.create_group();
        let a = kernel.spawn(group).unwrap();
        let b = kernel.spawn(group).unwrap();
        let file = kernel.register_file(len);
        let req = MmapRequest::file_shared(Segment::Lib, file, 0, len, PageFlags::USER);
        let va_a = kernel.mmap(a, req).unwrap();
        let va_b = kernel.mmap(b, req).unwrap();
        assert_eq!(va_a, va_b, "canonical layout is identical within the group");
        (a, b, va_a)
    }

    /// The process-lookup panic must name the pid and the *kernel call
    /// site* — that string is all a `--keep-going` failure slot carries.
    #[test]
    fn missing_process_panic_names_pid_and_call_site() {
        let k = kernel(true);
        let message = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            k.process(Pid::new(999));
        }))
        .expect_err("looking up a dead pid must panic");
        let message = message
            .downcast_ref::<String>()
            .expect("panic payload is a formatted string");
        assert!(message.contains("999"), "{message}");
        assert!(message.contains("kernel.rs"), "{message}");
    }

    #[test]
    fn first_touch_is_major_second_process_minor_baseline() {
        let mut k = kernel(false);
        let (a, b, va) = two_mappers(&mut k, 0x4000);
        let fa = k.handle_fault(a, va, false).unwrap();
        assert_eq!(fa.kind, FaultKind::Major, "first touch reads from disk");
        let fb = k.handle_fault(b, va, false).unwrap();
        assert_eq!(fb.kind, FaultKind::Minor, "page already in the page cache");
        // Both map the same PPN (Section II-C).
        let ppn_a = k.space(a).walk(k.store(), va).leaf().unwrap().0.ppn;
        let ppn_b = k.space(b).walk(k.store(), va).leaf().unwrap().0.ppn;
        assert_eq!(ppn_a, ppn_b);
        // ...but through *different* pte_ts.
        assert_ne!(
            k.space(a)
                .walk(k.store(), va)
                .steps()
                .last()
                .unwrap()
                .entry_addr,
            k.space(b)
                .walk(k.store(), va)
                .steps()
                .last()
                .unwrap()
                .entry_addr
        );
    }

    #[test]
    fn babelfish_shares_the_pte_table_and_avoids_the_fault() {
        let mut k = kernel(true);
        let (a, b, va) = two_mappers(&mut k, 0x4000);
        k.handle_fault(a, va, false).unwrap();
        let fb = k.handle_fault(b, va, false).unwrap();
        assert_eq!(
            fb.kind,
            FaultKind::SharedResolved,
            "B reuses A's entry (Fig. 7)"
        );
        assert_eq!(k.telem.shared_resolved_cycles.count(), 1);
        // Identical entry address: one pte_t for the group (Fig. 6).
        assert_eq!(
            k.space(a)
                .walk(k.store(), va)
                .steps()
                .last()
                .unwrap()
                .entry_addr,
            k.space(b)
                .walk(k.store(), va)
                .steps()
                .last()
                .unwrap()
                .entry_addr
        );
        // Later pages of the region fault only once for the whole group.
        let va2 = va.offset(0x1000);
        k.handle_fault(b, va2, false).unwrap();
        assert!(
            k.space(a).walk(k.store(), va2).leaf().is_some(),
            "A sees B's fill"
        );
    }

    #[test]
    fn anon_pages_stay_private_between_unrelated_processes() {
        let mut k = kernel(true);
        let group = k.create_group();
        let a = k.spawn(group).unwrap();
        let b = k.spawn(group).unwrap();
        let req = MmapRequest::anon(Segment::Heap, 0x4000, user_rw(), false);
        let va_a = k.mmap(a, req).unwrap();
        let va_b = k.mmap(b, req).unwrap();
        assert_eq!(va_a, va_b);
        k.handle_fault(a, va_a, true).unwrap();
        k.handle_fault(b, va_b, true).unwrap();
        let ppn_a = k.space(a).walk(k.store(), va_a).leaf().unwrap().0.ppn;
        let ppn_b = k.space(b).walk(k.store(), va_b).leaf().unwrap().0.ppn;
        assert_ne!(ppn_a, ppn_b, "independent anonymous pages");
    }

    #[test]
    fn fork_baseline_copies_fork_babelfish_attaches() {
        for share in [false, true] {
            let mut k = kernel(share);
            let group = k.create_group();
            let parent = k.spawn(group).unwrap();
            let file = k.register_file(0x10_000);
            let va = k
                .mmap(
                    parent,
                    MmapRequest::file_shared(Segment::Lib, file, 0, 0x10_000, PageFlags::USER),
                )
                .unwrap();
            for i in 0..16u64 {
                k.handle_fault(parent, va.offset(i * 0x1000), false)
                    .unwrap();
            }
            let (child, _cost, _inv) = k.fork(parent).unwrap();
            if share {
                assert!(k.stats().fork_tables_attached > 0);
                assert_eq!(k.stats().fork_pte_copies, 0);
                // Child resolves instantly through the shared table.
                assert!(k.space(child).walk(k.store(), va).leaf().is_some());
            } else {
                assert_eq!(k.stats().fork_tables_attached, 0);
                assert_eq!(k.stats().fork_pte_copies, 16);
                assert!(k.space(child).walk(k.store(), va).leaf().is_some());
            }
        }
    }

    #[test]
    fn fork_cow_write_baseline_gives_private_copies() {
        let mut k = kernel(false);
        let group = k.create_group();
        let parent = k.spawn(group).unwrap();
        let va = k
            .mmap(
                parent,
                MmapRequest::anon(Segment::Heap, 0x2000, user_rw(), false),
            )
            .unwrap();
        k.handle_fault(parent, va, true).unwrap();
        let original = k.space(parent).walk(k.store(), va).leaf().unwrap().0.ppn;
        let (child, _, inv) = k.fork(parent).unwrap();
        assert!(
            inv.iter()
                .any(|i| matches!(i, Invalidation::Process { .. })),
            "parent's TLB must drop its writable entries"
        );
        // Both see the frame CoW-protected.
        let leaf_child = k.space(child).walk(k.store(), va).leaf().unwrap().0;
        assert!(leaf_child.flags.contains(PageFlags::COW));
        assert_eq!(leaf_child.ppn, original);
        // Child writes: gets its own frame; parent keeps the original.
        let res = k.handle_fault(child, va, true).unwrap();
        assert_eq!(res.kind, FaultKind::Cow);
        let child_ppn = k.space(child).walk(k.store(), va).leaf().unwrap().0.ppn;
        assert_ne!(child_ppn, original);
        assert_eq!(
            k.space(parent).walk(k.store(), va).leaf().unwrap().0.ppn,
            original
        );
    }

    #[test]
    fn babelfish_cow_runs_the_full_protocol() {
        let mut k = kernel(true);
        let group = k.create_group();
        let parent = k.spawn(group).unwrap();
        let va = k
            .mmap(
                parent,
                MmapRequest::anon(Segment::Heap, 0x4000, user_rw(), false),
            )
            .unwrap();
        k.handle_fault(parent, va, true).unwrap();
        k.handle_fault(parent, va.offset(0x1000), true).unwrap();
        let (child, _, _) = k.fork(parent).unwrap();
        let shared_ppn = k.space(parent).walk(k.store(), va).leaf().unwrap().0.ppn;

        // Child writes: BabelFish privatisation.
        let res = k.handle_fault(child, va, true).unwrap();
        assert_eq!(res.kind, FaultKind::Cow);
        assert!(
            res.invalidations
                .iter()
                .any(|i| matches!(i, Invalidation::Shared { va: v, .. } if *v == va)),
            "single shared-entry invalidation (Section III-A)"
        );
        assert_eq!(k.stats().privatizations, 1);

        // Child has its own frame + O bit; parent keeps the original.
        let child_leaf = k.space(child).walk(k.store(), va).leaf().unwrap().0;
        assert_ne!(child_leaf.ppn, shared_ppn);
        assert!(child_leaf.flags.contains(PageFlags::OWNED));
        assert_eq!(
            k.space(parent).walk(k.store(), va).leaf().unwrap().0.ppn,
            shared_ppn
        );

        // The untouched second page still points at the shared frame in
        // the child's private table, CoW-protected and owned.
        let second = k
            .space(child)
            .walk(k.store(), va.offset(0x1000))
            .leaf()
            .unwrap()
            .0;
        assert!(second.flags.contains(PageFlags::OWNED));
        assert!(second.flags.contains(PageFlags::COW));

        // The child got PC-bitmask bit 0; the parent has none.
        assert_eq!(k.pc_bit(group, child, va), Some(0));
        assert_eq!(k.pc_bit(group, parent, va), None);
        // The remaining sharer's pmd_t has ORPC set.
        let parent_walk = k.space(parent).walk(k.store(), va);
        assert!(parent_walk
            .pmd_step()
            .unwrap()
            .value
            .flags
            .contains(PageFlags::ORPC));
        // The MaskPage is materialised for hardware access.
        assert!(k.maskpage_frame(group, va).is_some());
    }

    #[test]
    fn maskpage_overflow_reverts_region() {
        let mut k = kernel(true);
        let group = k.create_group();
        let root = k.spawn(group).unwrap();
        let va = k
            .mmap(
                root,
                MmapRequest::anon(Segment::Heap, 0x1000, user_rw(), false),
            )
            .unwrap();
        k.handle_fault(root, va, true).unwrap();
        // 33 forked children all write the page.
        let mut children = Vec::new();
        for _ in 0..33 {
            let (child, _, _) = k.fork(root).unwrap();
            children.push(child);
        }
        let mut overflow_seen = false;
        for (i, &child) in children.iter().enumerate() {
            let res = k.handle_fault(child, va, true).unwrap();
            if res
                .invalidations
                .iter()
                .any(|inv| matches!(inv, Invalidation::SharedRange { .. }))
            {
                overflow_seen = true;
                assert!(i >= 31, "overflow can only happen from the 33rd writer on");
            }
        }
        assert!(
            overflow_seen,
            "33+ writers must overflow the 32-bit PC bitmask"
        );
        assert!(k.stats().maskpage_overflows >= 1);
        // Every child still ends with its own private copy.
        let mut ppns: Vec<_> = children
            .iter()
            .map(|&c| k.space(c).walk(k.store(), va).leaf().unwrap().0.ppn)
            .collect();
        ppns.sort();
        ppns.dedup();
        assert_eq!(ppns.len(), children.len());
    }

    #[test]
    fn zero_capacity_bitmask_unshares_on_first_cow() {
        // The Section VII-D immediate-unshare design.
        let mut config = KernelConfig::babelfish();
        config.thp = false;
        config.pc_bitmask_capacity = 0;
        let mut k = Kernel::new(config);
        let group = k.create_group();
        let parent = k.spawn(group).unwrap();
        let va = k
            .mmap(
                parent,
                MmapRequest::anon(Segment::Heap, 0x2000, user_rw(), false),
            )
            .unwrap();
        k.handle_fault(parent, va, true).unwrap();
        let (child, _, _) = k.fork(parent).unwrap();
        let res = k.handle_fault(child, va, true).unwrap();
        assert!(
            res.invalidations
                .iter()
                .any(|inv| matches!(inv, Invalidation::SharedRange { .. })),
            "first CoW must revert the whole region: {:?}",
            res.invalidations
        );
        assert_eq!(k.stats().maskpage_overflows, 1);
        // Both processes still end with correct private state.
        assert_ne!(
            k.space(child).walk(k.store(), va).leaf().unwrap().0.ppn,
            k.space(parent).walk(k.store(), va).leaf().unwrap().0.ppn
        );
    }

    #[test]
    fn map_shared_file_writes_stay_shared() {
        // MAP_SHARED writable mapping (mmap-engine database): no CoW.
        let mut k = kernel(true);
        let group = k.create_group();
        let a = k.spawn(group).unwrap();
        let b = k.spawn(group).unwrap();
        let file = k.register_file(0x2000);
        let req = MmapRequest::file_shared(Segment::FileMap, file, 0, 0x2000, user_rw());
        let va = k.mmap(a, req).unwrap();
        k.mmap(b, req).unwrap();
        let res = k.handle_fault(a, va, true).unwrap();
        assert_ne!(res.kind, FaultKind::Cow);
        let fb = k.handle_fault(b, va, true).unwrap();
        assert_eq!(fb.kind, FaultKind::SharedResolved);
        assert_eq!(
            k.space(a).walk(k.store(), va).leaf().unwrap().0.ppn,
            k.space(b).walk(k.store(), va).leaf().unwrap().0.ppn
        );
    }

    #[test]
    fn private_file_write_copies() {
        let mut k = kernel(false);
        let group = k.create_group();
        let a = k.spawn(group).unwrap();
        let file = k.register_file(0x2000);
        let va = k
            .mmap(
                a,
                MmapRequest::file_private(Segment::Data, file, 0, 0x2000, user_rw()),
            )
            .unwrap();
        // Read first: CoW-protected mapping of the cache frame.
        k.handle_fault(a, va, false).unwrap();
        let leaf = k.space(a).walk(k.store(), va).leaf().unwrap().0;
        assert!(leaf.flags.contains(PageFlags::COW));
        assert!(!leaf.flags.allows_write());
        // Then write: private copy.
        let res = k.handle_fault(a, va, true).unwrap();
        assert_eq!(res.kind, FaultKind::Cow);
        let after = k.space(a).walk(k.store(), va).leaf().unwrap().0;
        assert_ne!(after.ppn, leaf.ppn);
        assert!(after.flags.allows_write());
    }

    #[test]
    fn thp_maps_whole_region() {
        let mut config = KernelConfig::baseline();
        config.thp = true;
        let mut k = Kernel::new(config);
        let group = k.create_group();
        let a = k.spawn(group).unwrap();
        let va = k
            .mmap(
                a,
                MmapRequest::anon(Segment::Heap, 4 << 20, user_rw(), true),
            )
            .unwrap();
        k.handle_fault(a, va.offset(0x12345), false).unwrap();
        let (leaf, size) = k.space(a).walk(k.store(), va).leaf().unwrap();
        assert_eq!(size, PageSize::Size2M);
        assert!(leaf.flags.contains(PageFlags::HUGE));
        assert_eq!(k.stats().thp_maps, 1);
    }

    #[test]
    fn segfault_outside_vmas() {
        let mut k = kernel(false);
        let group = k.create_group();
        let a = k.spawn(group).unwrap();
        assert_eq!(
            k.handle_fault(a, VirtAddr::new(0xdead_b000), false),
            Err(FaultError::SegFault)
        );
    }

    #[test]
    fn spurious_fault_when_translation_present() {
        let mut k = kernel(false);
        let group = k.create_group();
        let a = k.spawn(group).unwrap();
        let file = k.register_file(0x1000);
        let va = k
            .mmap(
                a,
                MmapRequest::file_shared(Segment::Lib, file, 0, 0x1000, PageFlags::USER),
            )
            .unwrap();
        k.handle_fault(a, va, false).unwrap();
        let res = k.handle_fault(a, va, false).unwrap();
        assert_eq!(res.kind, FaultKind::Spurious);
    }

    #[test]
    fn exit_releases_shared_tables_for_survivors() {
        let mut k = kernel(true);
        let (a, b, va) = two_mappers(&mut k, 0x4000);
        k.handle_fault(a, va, false).unwrap();
        k.handle_fault(b, va, false).unwrap();
        let table = k
            .space(a)
            .table_at(k.store(), va, PageTableLevel::Pte)
            .unwrap();
        // Two process pointers + the group registry's own reference.
        assert_eq!(k.store().sharers(table), 3);
        let inv = k.exit(a);
        assert!(matches!(inv[0], Invalidation::Process { .. }));
        assert!(!k.alive(a));
        assert_eq!(k.store().sharers(table), 2, "B + registry keep the table");
        assert!(k.space(b).walk(k.store(), va).leaf().is_some());
        k.exit(b);
        assert_eq!(
            k.store().live_tables(),
            0,
            "group death reclaims everything, including the registry reference"
        );
    }

    #[test]
    fn pcids_are_recycled() {
        let mut k = kernel(false);
        let group = k.create_group();
        let a = k.spawn(group).unwrap();
        let pcid_a = k.process(a).pcid();
        k.exit(a);
        let b = k.spawn(group).unwrap();
        assert_eq!(k.process(b).pcid(), pcid_a);
    }

    #[test]
    fn multiple_writers_accumulate_pc_bits_in_order() {
        // Several processes CoW the same region: each gets the next bit
        // (the Appendix pid_list ordering), and every remaining sharer's
        // lookup state stays consistent.
        let mut k = kernel(true);
        let group = k.create_group();
        let root = k.spawn(group).unwrap();
        let va = k
            .mmap(
                root,
                MmapRequest::anon(Segment::Heap, 0x2000, user_rw(), false),
            )
            .unwrap();
        k.handle_fault(root, va, true).unwrap();
        let mut children = Vec::new();
        for _ in 0..4 {
            let (child, _, _) = k.fork(root).unwrap();
            children.push(child);
        }
        for (i, &child) in children.iter().enumerate() {
            k.handle_fault(child, va, true).unwrap();
            assert_eq!(
                k.pc_bit(group, child, va),
                Some(i),
                "bits assigned in writing order"
            );
        }
        // The bitmask the hardware would load has exactly those bits.
        assert_eq!(k.pc_bitmask(group, va), 0b1111);
        // The non-writing root still has no bit and still shares.
        assert_eq!(k.pc_bit(group, root, va), None);
        assert!(!k
            .space(root)
            .walk(k.store(), va)
            .leaf()
            .unwrap()
            .0
            .flags
            .contains(PageFlags::OWNED));
    }

    #[test]
    fn overflowed_region_installs_privately_ever_after() {
        let mut config = KernelConfig::babelfish();
        config.thp = false;
        config.pc_bitmask_capacity = 1;
        let mut k = Kernel::new(config);
        let group = k.create_group();
        let root = k.spawn(group).unwrap();
        let va = k
            .mmap(
                root,
                MmapRequest::anon(Segment::Heap, 0x4000, user_rw(), false),
            )
            .unwrap();
        k.handle_fault(root, va, true).unwrap();
        let (c1, _, _) = k.fork(root).unwrap();
        let (c2, _, _) = k.fork(root).unwrap();
        k.handle_fault(c1, va, true).unwrap(); // takes the only bit
        k.handle_fault(c2, va, true).unwrap(); // overflows the region
        assert_eq!(k.stats().maskpage_overflows, 1);
        // A later fresh-page fault in the overflowed GB takes the plain
        // private path (zero-fill, writable, no protocol).
        let (c3, _, _) = k.fork(root).unwrap();
        let res = k.handle_fault(c3, va.offset(0x1000), true).unwrap();
        assert_eq!(res.kind, FaultKind::Minor);
        assert!(k
            .space(c3)
            .walk(k.store(), va.offset(0x1000))
            .leaf()
            .unwrap()
            .0
            .flags
            .allows_write());
        // Everyone ends with distinct writable frames.
        let mut frames: Vec<_> = [root, c1, c2]
            .iter()
            .map(|&p| k.space(p).walk(k.store(), va).leaf().unwrap().0.ppn)
            .collect();
        frames.sort();
        frames.dedup();
        assert_eq!(frames.len(), 3);
    }

    #[test]
    fn region_survives_member_exits_for_future_joiners() {
        // The registry keeps the clean table alive: a container started
        // after a predecessor exited still reuses its translations
        // (long-lived page cache + shared tables).
        let mut k = kernel(true);
        let (a, b, va) = two_mappers(&mut k, 0x4000);
        let group = k.process(a).ccid();
        k.handle_fault(a, va, false).unwrap();
        k.exit(a);
        // The newcomer (b never faulted yet) attaches the surviving table.
        let fb = k.handle_fault(b, va, false).unwrap();
        assert_eq!(
            fb.kind,
            FaultKind::SharedResolved,
            "a's table served b after a's exit"
        );
        // A brand-new group member also benefits.
        let c = k.spawn(group).unwrap();
        let file_req = {
            // c must map the same file at the same canonical address:
            // replay the group-canonical mmap (same segment, same file).
            let vma = *k.process(b).vma_for(va).unwrap();
            match vma.backing() {
                Backing::File { file, .. } => {
                    MmapRequest::file_shared(Segment::Lib, file, 0, vma.length(), PageFlags::USER)
                }
                _ => unreachable!(),
            }
        };
        assert_eq!(k.mmap(c, file_req).unwrap(), va);
        let fc = k.handle_fault(c, va, false).unwrap();
        assert_eq!(fc.kind, FaultKind::SharedResolved);
    }

    /// Frames freed when a CCID group dies go onto the allocator's LIFO
    /// free list; the next group's page tables must get them back in the
    /// same order in every kernel, whatever the maps' iteration order.
    #[test]
    fn frame_reuse_after_group_exit_is_deterministic() {
        const REGIONS: u64 = 16;
        let reused_frames = || {
            let mut k = kernel(true);
            let (a, b, va) = two_mappers(&mut k, REGIONS << 21);
            for region in 0..REGIONS {
                k.handle_fault(a, va.offset(region << 21), false).unwrap();
            }
            k.exit(a);
            k.exit(b);
            let group = k.create_group();
            let c = k.spawn(group).unwrap();
            let file = k.register_file(REGIONS << 21);
            let req =
                MmapRequest::file_shared(Segment::Lib, file, 0, REGIONS << 21, PageFlags::USER);
            let va = k.mmap(c, req).unwrap();
            (0..REGIONS)
                .map(|region| {
                    let va = va.offset(region << 21);
                    k.handle_fault(c, va, false).unwrap();
                    k.space(c)
                        .table_at(k.store(), va, PageTableLevel::Pte)
                        .unwrap()
                })
                .collect::<Vec<Ppn>>()
        };
        let first = reused_frames();
        for _ in 0..20 {
            assert_eq!(reused_frames(), first);
        }
    }

    #[test]
    fn munmap_detaches_shared_tables_for_survivors() {
        let mut k = kernel(true);
        let (a, b, va) = two_mappers(&mut k, 0x4000);
        k.handle_fault(a, va, false).unwrap();
        k.handle_fault(b, va, false).unwrap();
        let table = k
            .space(a)
            .table_at(k.store(), va, PageTableLevel::Pte)
            .unwrap();
        assert_eq!(k.store().sharers(table), 3, "a + b + registry");

        let inv = k.munmap(a, va).unwrap();
        assert!(matches!(inv[0], Invalidation::Process { .. }));
        assert_eq!(k.store().sharers(table), 2, "a detached");
        assert!(k.process(a).vma_for(va).is_none(), "VMA gone");
        assert!(
            k.space(b).walk(k.store(), va).leaf().is_some(),
            "b unaffected"
        );
        // a faulting there again now segfaults.
        assert_eq!(k.handle_fault(a, va, false), Err(FaultError::SegFault));
    }

    #[test]
    fn munmap_frees_private_tables() {
        let mut k = kernel(false);
        let group = k.create_group();
        let a = k.spawn(group).unwrap();
        let va = k
            .mmap(
                a,
                MmapRequest::anon(Segment::Heap, 0x4000, user_rw(), false),
            )
            .unwrap();
        k.handle_fault(a, va, true).unwrap();
        let live_before = k.store().live_tables();
        k.munmap(a, va).unwrap();
        assert_eq!(
            k.store().live_tables(),
            live_before - 1,
            "the private PTE table is reclaimed"
        );
    }

    #[test]
    fn munmap_requires_vma_start() {
        let mut k = kernel(false);
        let group = k.create_group();
        let a = k.spawn(group).unwrap();
        let va = k
            .mmap(
                a,
                MmapRequest::anon(Segment::Heap, 0x4000, user_rw(), false),
            )
            .unwrap();
        assert!(
            k.munmap(a, va.offset(0x1000)).is_err(),
            "must name the VMA start"
        );
        assert!(k.munmap(a, va).is_ok());
        assert!(k.munmap(a, va).is_err(), "double munmap fails");
    }

    #[test]
    fn mark_accessed_sets_flag() {
        let mut k = kernel(false);
        let group = k.create_group();
        let a = k.spawn(group).unwrap();
        let file = k.register_file(0x1000);
        let va = k
            .mmap(
                a,
                MmapRequest::file_shared(Segment::Lib, file, 0, 0x1000, PageFlags::USER),
            )
            .unwrap();
        k.handle_fault(a, va, false).unwrap();
        assert!(!k
            .space(a)
            .walk(k.store(), va)
            .leaf()
            .unwrap()
            .0
            .flags
            .contains(PageFlags::ACCESSED));
        let walk = k.space(a).walk(k.store(), va);
        k.mark_leaf_accessed(walk.steps().last().unwrap());
        assert!(k
            .space(a)
            .walk(k.store(), va)
            .leaf()
            .unwrap()
            .0
            .flags
            .contains(PageFlags::ACCESSED));
    }

    #[test]
    fn huge_file_mappings_merge_pmd_tables() {
        // §IV-C: with 2 MB pages, BabelFish merges PMD tables.
        let mut k = kernel(true);
        let group = k.create_group();
        let a = k.spawn(group).unwrap();
        let b = k.spawn(group).unwrap();
        let file = k.register_file(8 << 20);
        let req = MmapRequest::file_shared_huge(Segment::FileMap, file, 0, 8 << 20, user_rw());
        let va = k.mmap(a, req).unwrap();
        assert_eq!(k.mmap(b, req).unwrap(), va);

        let fa = k.handle_fault(a, va, false).unwrap();
        assert_eq!(fa.kind, FaultKind::Major, "first chunk comes from disk");
        let (leaf, size) = k.space(a).walk(k.store(), va).leaf().unwrap();
        assert_eq!(size, PageSize::Size2M);
        assert!(leaf.flags.contains(PageFlags::HUGE));

        // B's first touch attaches A's PMD table: no fault.
        let fb = k.handle_fault(b, va, false).unwrap();
        assert_eq!(fb.kind, FaultKind::SharedResolved);
        let ta = k
            .space(a)
            .table_at(k.store(), va, PageTableLevel::Pmd)
            .unwrap();
        let tb = k
            .space(b)
            .table_at(k.store(), va, PageTableLevel::Pmd)
            .unwrap();
        assert_eq!(ta, tb, "one PMD table for the group");
        assert_eq!(k.store().sharers(ta), 3, "A + B + registry");

        // A later chunk faulted by B is visible to A: one fault per
        // group per 2 MB chunk.
        let va2 = va.offset(2 << 20);
        k.handle_fault(b, va2, false).unwrap();
        assert!(k.space(a).walk(k.store(), va2).leaf().is_some());
        assert_eq!(
            k.space(a).walk(k.store(), va2).leaf().unwrap().0.ppn,
            k.space(b).walk(k.store(), va2).leaf().unwrap().0.ppn
        );

        // Group death reclaims the registry reference too.
        k.exit(a);
        k.exit(b);
        assert_eq!(k.store().live_tables(), 0);
    }

    #[test]
    fn huge_file_mappings_stay_private_without_babelfish() {
        let mut k = kernel(false);
        let group = k.create_group();
        let a = k.spawn(group).unwrap();
        let b = k.spawn(group).unwrap();
        let file = k.register_file(2 << 20);
        let req = MmapRequest::file_shared_huge(Segment::FileMap, file, 0, 2 << 20, user_rw());
        let va = k.mmap(a, req).unwrap();
        k.mmap(b, req).unwrap();
        k.handle_fault(a, va, false).unwrap();
        let fb = k.handle_fault(b, va, false).unwrap();
        assert_eq!(
            fb.kind,
            FaultKind::Minor,
            "chunk resident, but B pays its own fault"
        );
        // Same physical run through the page cache, separate PMD tables.
        assert_eq!(
            k.space(a).walk(k.store(), va).leaf().unwrap().0.ppn,
            k.space(b).walk(k.store(), va).leaf().unwrap().0.ppn
        );
        assert_ne!(
            k.space(a)
                .table_at(k.store(), va, PageTableLevel::Pmd)
                .unwrap(),
            k.space(b)
                .table_at(k.store(), va, PageTableLevel::Pmd)
                .unwrap()
        );
    }

    #[test]
    fn different_backings_never_share_tables() {
        // Two files mapped at the same canonical VA (e.g. two different
        // function images in one group) must keep separate PTE tables.
        let mut k = kernel(true);
        let group = k.create_group();
        let a = k.spawn(group).unwrap();
        let b = k.spawn(group).unwrap();
        let fa = k.register_file(0x2000);
        let fb = k.register_file(0x2000);
        let va_a = k
            .mmap(
                a,
                MmapRequest::file_shared(Segment::FileMap, fa, 0, 0x2000, PageFlags::USER),
            )
            .unwrap();
        let va_b = k
            .mmap(
                b,
                MmapRequest::file_shared(Segment::FileMap, fb, 0, 0x2000, PageFlags::USER),
            )
            .unwrap();
        assert_eq!(va_a, va_b, "same canonical address");
        k.handle_fault(a, va_a, false).unwrap();
        let fb_res = k.handle_fault(b, va_b, false).unwrap();
        assert_ne!(fb_res.kind, FaultKind::SharedResolved);
        // B must see its own file's frame, not A's.
        let ppn_a = k.space(a).walk(k.store(), va_a).leaf().unwrap().0.ppn;
        let ppn_b = k.space(b).walk(k.store(), va_b).leaf().unwrap().0.ppn;
        assert_ne!(ppn_a, ppn_b, "different files => different frames");
        let ta = k
            .space(a)
            .table_at(k.store(), va_a, PageTableLevel::Pte)
            .unwrap();
        let tb = k
            .space(b)
            .table_at(k.store(), va_b, PageTableLevel::Pte)
            .unwrap();
        assert_ne!(ta, tb, "no table sharing across different backings");
    }

    #[test]
    fn different_groups_never_share_tables() {
        let mut k = kernel(true);
        let g1 = k.create_group();
        let g2 = k.create_group();
        let a = k.spawn(g1).unwrap();
        let b = k.spawn(g2).unwrap();
        let file = k.register_file(0x1000);
        let req = MmapRequest::file_shared(Segment::Lib, file, 0, 0x1000, PageFlags::USER);
        let va_a = k.mmap(a, req).unwrap();
        let va_b = k.mmap(b, req).unwrap();
        k.handle_fault(a, va_a, false).unwrap();
        let fb = k.handle_fault(b, va_b, false).unwrap();
        assert_ne!(fb.kind, FaultKind::SharedResolved);
        // Same physical page via the page cache, but separate pte_ts.
        let ta = k
            .space(a)
            .table_at(k.store(), va_a, PageTableLevel::Pte)
            .unwrap();
        let tb = k
            .space(b)
            .table_at(k.store(), va_b, PageTableLevel::Pte)
            .unwrap();
        assert_ne!(ta, tb);
    }
}
