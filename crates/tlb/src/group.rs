//! The full per-core TLB complement of Table I: L1 I-TLB, L1 D-TLBs and
//! unified L2 TLBs for the three page sizes.

use crate::telemetry::TlbTelemetry;
use crate::tlb::{
    Hit, InjectedFlip, LookupMode, LookupRequest, LookupResult, Tlb, TlbConfig, TlbFill, TlbStats,
};
use bf_types::{AccessKind, Ccid, Cycles, PageFlags, PageSize, Pcid, Pid, VirtAddr};

/// Modes for the two TLB levels of one core.
///
/// The paper's default BabelFish configuration models ASLR-HW, where the
/// per-process address transformation sits *between* the L1 and L2 TLBs:
/// "BabelFish's translation sharing is only supported from the L2 TLB
/// down; the L1 TLB does not support TLB entry sharing" (Section IV-D).
/// That corresponds to `l1_mode: Conventional, l2_mode: BabelFish`.
///
/// # Examples
///
/// ```
/// use bf_tlb::{LookupMode, TlbGroupConfig};
/// let config = TlbGroupConfig::babelfish_aslr_hw();
/// assert_eq!(config.l1_mode, LookupMode::Conventional);
/// assert_eq!(config.l2_mode, LookupMode::BabelFish);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbGroupConfig {
    /// Lookup mode of the L1 TLBs.
    pub l1_mode: LookupMode,
    /// Lookup mode of the unified L2 TLBs.
    pub l2_mode: LookupMode,
    /// Use the enlarged conventional L2 of the Section VII-C comparison.
    pub larger_l2: bool,
}

impl TlbGroupConfig {
    /// Conventional baseline: PCID-tagged everywhere.
    pub fn baseline() -> Self {
        TlbGroupConfig {
            l1_mode: LookupMode::Conventional,
            l2_mode: LookupMode::Conventional,
            larger_l2: false,
        }
    }

    /// Baseline with the BabelFish storage re-invested in extra L2
    /// entries (Section VII-C "BabelFish vs Larger TLB").
    pub fn baseline_larger_tlb() -> Self {
        TlbGroupConfig {
            larger_l2: true,
            ..Self::baseline()
        }
    }

    /// BabelFish with ASLR-HW (the paper's default evaluation setting):
    /// sharing from the L2 TLB down only.
    pub fn babelfish_aslr_hw() -> Self {
        TlbGroupConfig {
            l1_mode: LookupMode::Conventional,
            l2_mode: LookupMode::BabelFish,
            larger_l2: false,
        }
    }

    /// BabelFish with ASLR-SW: the whole CCID group shares one layout, so
    /// the L1 TLBs can share entries too.
    pub fn babelfish_aslr_sw() -> Self {
        TlbGroupConfig {
            l1_mode: LookupMode::BabelFish,
            l2_mode: LookupMode::BabelFish,
            larger_l2: false,
        }
    }
}

/// One memory access as seen by the TLB complement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbAccess {
    /// Virtual address being translated. For ASLR-HW this is the
    /// *group-canonical* address (the diff-offset adder has already run —
    /// the simulator charges its 2 cycles separately).
    pub va: VirtAddr,
    /// PCID of the accessing process.
    pub pcid: Pcid,
    /// CCID of the accessing process.
    pub ccid: Ccid,
    /// Pid of the accessing process.
    pub pid: Pid,
    /// The process's PC-bitmask bit for the region, if assigned.
    pub pc_bit: Option<usize>,
    /// Read / write / fetch.
    pub kind: AccessKind,
}

impl TlbAccess {
    fn request(&self, size: PageSize) -> LookupRequest {
        LookupRequest {
            vpn: self.va.vpn(size),
            pcid: self.pcid,
            ccid: self.ccid,
            pid: self.pid,
            pc_bit: self.pc_bit,
            is_write: self.kind.is_write(),
        }
    }
}

/// Per-stream counters for the three TLB roles, summed over page sizes
/// and cores: the Fig. 10 view of the `tlb.*` registry counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct TlbGroupStats {
    /// L1 instruction TLB.
    pub l1i: TlbStats,
    /// L1 data TLBs (all page sizes summed).
    pub l1d: TlbStats,
    /// Unified L2 TLBs (all page sizes summed).
    pub l2: TlbStats,
}

impl TlbGroupStats {
    /// The per-role view of the `tlb.*` counters in `snapshot` (all
    /// cores of a machine record into the same counters). The L1i serves
    /// only fetches and the L1d only data ([`TlbGroup::lookup_l1`]), so
    /// their totals belong to one stream each. The unified L2 splits its
    /// totals with its `tlb.l2.instr_*` counters.
    pub fn from_snapshot(snapshot: &bf_telemetry::Snapshot) -> Self {
        TlbGroupStats {
            l1i: TlbStats::from_role(snapshot, "l1i"),
            l1d: TlbStats::from_role(snapshot, "l1d"),
            l2: TlbStats::from_role(snapshot, "l2"),
        }
    }
}

/// The per-core TLB complement (Table I):
/// * L1 I-TLB: 64-entry 4 KB;
/// * L1 D-TLBs: 64-entry 4 KB, 32-entry 2 MB, 4-entry 1 GB;
/// * L2 unified TLBs: 1536-entry 4 KB, 1536-entry 2 MB, 16-entry 1 GB.
///
/// All same-level structures are probed in parallel (one access time per
/// level); the L2 access costs 10 cycles, or 12 when the PC bitmask had to
/// be consulted (Fig. 5b / Table I).
///
/// # Examples
///
/// ```
/// use bf_tlb::{TlbGroup, TlbGroupConfig, TlbFill};
/// use bf_types::*;
///
/// let mut tlbs = TlbGroup::new(TlbGroupConfig::babelfish_aslr_hw());
/// let access = bf_tlb::group::TlbAccess {
///     va: VirtAddr::new(0x7000_1000),
///     pcid: Pcid::new(1),
///     ccid: Ccid::new(2),
///     pid: Pid::new(10),
///     pc_bit: None,
///     kind: AccessKind::Read,
/// };
/// let (result, cycles) = tlbs.lookup_l1(&access);
/// assert!(!result.entry_present());
/// assert_eq!(cycles, 1);
/// ```
#[derive(Debug)]
pub struct TlbGroup {
    config: TlbGroupConfig,
    l1i: Tlb,
    l1d_4k: Tlb,
    l1d_2m: Tlb,
    l1d_1g: Tlb,
    l2_4k: Tlb,
    l2_2m: Tlb,
    l2_1g: Tlb,
}

impl TlbGroup {
    /// Builds the Table I complement for one core.
    pub fn new(config: TlbGroupConfig) -> Self {
        let l2_4k_config = if config.larger_l2 {
            TlbConfig::l2_4k_larger_baseline()
        } else {
            TlbConfig::l2_4k()
        };
        TlbGroup {
            l1i: Tlb::new(TlbConfig::l1i_4k(), config.l1_mode),
            l1d_4k: Tlb::new(TlbConfig::l1d_4k(), config.l1_mode),
            l1d_2m: Tlb::new(TlbConfig::l1d_2m(), config.l1_mode),
            l1d_1g: Tlb::new(TlbConfig::l1d_1g(), config.l1_mode),
            l2_4k: Tlb::new(l2_4k_config, config.l2_mode),
            l2_2m: Tlb::new(TlbConfig::l2_2m(), config.l2_mode),
            l2_1g: Tlb::new(TlbConfig::l2_1g(), config.l2_mode),
            config,
        }
    }

    /// The configuration this group was built with.
    pub fn config(&self) -> &TlbGroupConfig {
        &self.config
    }

    /// Routes this core's TLB counters into `registry` under the
    /// `tlb.l1i.*`, `tlb.l1d.*` and `tlb.l2.*` namespaces. All cores of
    /// a machine attach to the same registry, so those counters are
    /// machine-wide totals ([`TlbGroupStats::from_snapshot`] reads them).
    pub fn attach_telemetry(&mut self, registry: &bf_telemetry::Registry) {
        self.l1i
            .set_telemetry(TlbTelemetry::for_role(registry, "l1i"));
        let l1d = TlbTelemetry::for_role(registry, "l1d");
        for tlb in [&mut self.l1d_4k, &mut self.l1d_2m, &mut self.l1d_1g] {
            tlb.set_telemetry(l1d.clone());
        }
        let l2 = TlbTelemetry::for_role(registry, "l2");
        for tlb in [&mut self.l2_4k, &mut self.l2_2m, &mut self.l2_1g] {
            tlb.set_telemetry(l2.clone());
        }
    }

    /// Translations currently resident across all seven structures — the
    /// machine checks it against [`TlbGroup::capacity`] at timeline
    /// epoch boundaries.
    pub fn resident_entries(&self) -> usize {
        [
            &self.l1i,
            &self.l1d_4k,
            &self.l1d_2m,
            &self.l1d_1g,
            &self.l2_4k,
            &self.l2_2m,
            &self.l2_1g,
        ]
        .iter()
        .map(|tlb| tlb.resident_entries())
        .sum()
    }

    /// Total entry capacity across all seven structures — the hard upper
    /// bound on [`TlbGroup::resident_entries`], checked as a machine
    /// invariant at timeline epoch boundaries.
    pub fn capacity(&self) -> usize {
        [
            &self.l1i,
            &self.l1d_4k,
            &self.l1d_2m,
            &self.l1d_1g,
            &self.l2_4k,
            &self.l2_2m,
            &self.l2_1g,
        ]
        .iter()
        .map(|tlb| tlb.config().entries)
        .sum()
    }

    /// Probes the L1 level (I-TLB for fetches; the three D-TLBs for
    /// data: 4 KB, then 2 MB, then 1 GB, stopping at the first present
    /// entry). Returns the outcome and the 1-cycle access time.
    pub fn lookup_l1(&mut self, access: &TlbAccess) -> (LookupResult, Cycles) {
        let kind = access.kind;
        let result = 'probe: {
            if kind.is_fetch() {
                break 'probe self
                    .l1i
                    .lookup_kind(&access.request(PageSize::Size4K), kind);
            }
            let result = self
                .l1d_4k
                .lookup_kind(&access.request(PageSize::Size4K), kind);
            if result.entry_present() {
                break 'probe result;
            }
            let result = self
                .l1d_2m
                .lookup_kind(&access.request(PageSize::Size2M), kind);
            if result.entry_present() {
                break 'probe result;
            }
            let result = self
                .l1d_1g
                .lookup_kind(&access.request(PageSize::Size1G), kind);
            if result.entry_present() {
                break 'probe result;
            }
            LookupResult::Miss {
                bitmask_consulted: false,
            }
        };
        (result, 1)
    }

    /// Probes the unified L2 level (all three page sizes in parallel).
    /// Returns the outcome and the access time: 10 cycles, or 12 when the
    /// PC bitmask had to be consulted.
    pub fn lookup_l2(&mut self, access: &TlbAccess) -> (LookupResult, Cycles) {
        let kind = access.kind;
        let mut consulted = false;
        let mut outcome = None;
        for (size, tlb) in [
            (PageSize::Size4K, &mut self.l2_4k),
            (PageSize::Size2M, &mut self.l2_2m),
            (PageSize::Size1G, &mut self.l2_1g),
        ] {
            let result = tlb.lookup_kind(&access.request(size), kind);
            match &result {
                LookupResult::Hit(hit) | LookupResult::CowFault(hit) => {
                    consulted |= hit.bitmask_consulted;
                    outcome = Some(result);
                    break;
                }
                LookupResult::Miss { bitmask_consulted } => {
                    consulted |= bitmask_consulted;
                }
            }
        }
        let short = self.l2_4k.config().access_cycles_short;
        let long = self.l2_4k.config().access_cycles_long;
        let cycles = if consulted { long } else { short };
        let result = outcome.unwrap_or(LookupResult::Miss {
            bitmask_consulted: consulted,
        });
        (result, cycles)
    }

    /// Refills the L1 from an L2 hit: rebuilds the entry's fill from the
    /// hit payload (ownership from the flags, no ORPC/bitmask state — an
    /// L1 entry raising its own CoW faults needs none) and installs it
    /// at the L1 only.
    pub fn refill_l1_from_hit(&mut self, access: &TlbAccess, hit: &Hit) {
        let fill = TlbFill {
            vpn: access.va.vpn(hit.size),
            ppn: hit.ppn,
            size: hit.size,
            flags: hit.flags,
            pcid: access.pcid,
            ccid: access.ccid,
            owned: hit.flags.contains(PageFlags::OWNED),
            orpc: false,
            pc_bitmask: 0,
            loader: access.pid,
        };
        self.fill_l1(access.kind, fill);
    }

    /// Installs a translation at the L2 and, when appropriate, the L1
    /// (fetches fill the I-TLB; 2 MB/1 GB fetch mappings stay L2-only).
    pub fn fill(&mut self, kind: AccessKind, fill: TlbFill) {
        match fill.size {
            PageSize::Size4K => self.l2_4k.fill(fill),
            PageSize::Size2M => self.l2_2m.fill(fill),
            PageSize::Size1G => self.l2_1g.fill(fill),
        }
        self.fill_l1(kind, fill);
    }

    /// Installs a translation at the L1 only (refill after an L2 hit).
    pub fn fill_l1(&mut self, kind: AccessKind, fill: TlbFill) {
        if kind.is_fetch() {
            if fill.size == PageSize::Size4K {
                self.l1i.fill(fill);
            }
            return;
        }
        match fill.size {
            PageSize::Size4K => self.l1d_4k.fill(fill),
            PageSize::Size2M => self.l1d_2m.fill(fill),
            PageSize::Size1G => self.l1d_1g.fill(fill),
        }
    }

    /// The CoW-protocol invalidation: drops the shared (O = 0) entries
    /// for `va` in `ccid` from every structure (Section III-A).
    pub fn invalidate_shared(&mut self, va: VirtAddr, ccid: Ccid) {
        for (size, tlb) in self.all_structures() {
            tlb.invalidate_shared(va.vpn(size), ccid);
        }
    }

    /// Drops one process's entries for `va` from every structure.
    pub fn invalidate_page(&mut self, va: VirtAddr, pcid: Pcid) {
        for (size, tlb) in self.all_structures() {
            tlb.invalidate_page(va.vpn(size), pcid);
        }
    }

    /// Drops a process's private entries everywhere (process exit).
    pub fn invalidate_process(&mut self, pcid: Pcid) {
        for (_, tlb) in self.all_structures() {
            tlb.invalidate_process(pcid);
        }
    }

    /// Drops everything.
    pub fn flush(&mut self) {
        for (_, tlb) in self.all_structures() {
            tlb.flush();
        }
    }

    /// Switches on per-set conflict profiling for the L2 4 KB structure
    /// — the only set-associative array large enough for set imbalance
    /// to matter (the L1s are tiny and fully pressured; 2 MB/1 GB L2s
    /// are small). Idempotent.
    pub fn enable_set_profile(&mut self) {
        self.l2_4k.enable_set_profile();
    }

    /// The L2 4 KB per-set conflict counters, if profiling is enabled.
    pub fn set_profile(&self) -> Option<&bf_telemetry::SetCounts> {
        self.l2_4k.set_profile()
    }

    /// Zeroes the per-set conflict counters (start of a measurement
    /// window).
    pub fn reset_set_profile(&mut self) {
        self.l2_4k.reset_set_profile();
    }

    /// Fault injection: flips one low PPN bit of a resident entry in the
    /// L2 4 KB structure — the largest array of the complement, where a
    /// soft error is overwhelmingly likely to land. `None` when nothing
    /// is resident there. See [`Tlb::inject_ppn_flip`].
    pub fn inject_l2_ppn_flip(&mut self, selector: u64) -> Option<InjectedFlip> {
        self.l2_4k.inject_ppn_flip(selector)
    }

    /// Fault recovery: the consistency re-walk for one injected flip;
    /// `true` when the corruption was still resident and got
    /// invalidated. See [`Tlb::scrub_flip`].
    pub fn scrub_l2_flip(&mut self, flip: &InjectedFlip) -> bool {
        self.l2_4k.scrub_flip(flip)
    }

    fn all_structures(&mut self) -> [(PageSize, &mut Tlb); 7] {
        [
            (PageSize::Size4K, &mut self.l1i),
            (PageSize::Size4K, &mut self.l1d_4k),
            (PageSize::Size2M, &mut self.l1d_2m),
            (PageSize::Size1G, &mut self.l1d_1g),
            (PageSize::Size4K, &mut self.l2_4k),
            (PageSize::Size2M, &mut self.l2_2m),
            (PageSize::Size1G, &mut self.l2_1g),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bf_types::{PageFlags, Ppn};

    fn access(va: u64, pcid: u16, kind: AccessKind) -> TlbAccess {
        TlbAccess {
            va: VirtAddr::new(va),
            pcid: Pcid::new(pcid),
            ccid: Ccid::new(1),
            pid: Pid::new(pcid as u32),
            pc_bit: None,
            kind,
        }
    }

    fn fill_for(va: u64, pcid: u16, size: PageSize) -> TlbFill {
        TlbFill {
            vpn: VirtAddr::new(va).vpn(size),
            ppn: Ppn::new(0x500),
            size,
            flags: PageFlags::PRESENT | PageFlags::USER,
            pcid: Pcid::new(pcid),
            ccid: Ccid::new(1),
            owned: false,
            orpc: false,
            pc_bitmask: 0,
            loader: Pid::new(pcid as u32),
        }
    }

    #[test]
    fn miss_then_fill_then_hit_both_levels() {
        let mut group = TlbGroup::new(TlbGroupConfig::babelfish_aslr_hw());
        let acc = access(0x1234_5000, 1, AccessKind::Read);
        assert!(!group.lookup_l1(&acc).0.entry_present());
        assert!(!group.lookup_l2(&acc).0.entry_present());
        group.fill(AccessKind::Read, fill_for(0x1234_5000, 1, PageSize::Size4K));
        assert!(group.lookup_l1(&acc).0.entry_present());
        assert!(group.lookup_l2(&acc).0.entry_present());
    }

    #[test]
    fn l2_shares_but_conventional_l1_does_not_under_aslr_hw() {
        let mut group = TlbGroup::new(TlbGroupConfig::babelfish_aslr_hw());
        group.fill(AccessKind::Read, fill_for(0x9000, 1, PageSize::Size4K));
        let other = access(0x9000, 2, AccessKind::Read);
        // L1 is conventional: PCID mismatch ⇒ miss.
        assert!(!group.lookup_l1(&other).0.entry_present());
        // L2 is BabelFish: CCID match ⇒ shared hit.
        let (result, _) = group.lookup_l2(&other);
        assert!(result.hit().expect("L2 shared hit").shared);
    }

    #[test]
    fn aslr_sw_shares_at_l1_too() {
        let mut group = TlbGroup::new(TlbGroupConfig::babelfish_aslr_sw());
        group.fill(AccessKind::Read, fill_for(0x9000, 1, PageSize::Size4K));
        let other = access(0x9000, 2, AccessKind::Read);
        assert!(group.lookup_l1(&other).0.entry_present());
    }

    #[test]
    fn l2_timing_depends_on_bitmask() {
        let mut group = TlbGroup::new(TlbGroupConfig::babelfish_aslr_hw());
        let mut plain = fill_for(0xa000, 1, PageSize::Size4K);
        plain.orpc = false;
        group.fill(AccessKind::Read, plain);
        let (_, fast) = group.lookup_l2(&access(0xa000, 2, AccessKind::Read));
        assert_eq!(fast, 10, "ORPC=0 short-circuits to the 10-cycle AT");

        let mut masked = fill_for(0xb000, 1, PageSize::Size4K);
        masked.orpc = true;
        masked.pc_bitmask = 0b10;
        group.fill(AccessKind::Read, masked);
        let (_, slow) = group.lookup_l2(&access(0xb000, 2, AccessKind::Read));
        assert_eq!(slow, 12, "PC-bitmask consult costs the 12-cycle AT");
    }

    #[test]
    fn huge_pages_use_their_own_structures() {
        let mut group = TlbGroup::new(TlbGroupConfig::baseline());
        group.fill(AccessKind::Read, fill_for(0x4000_0000, 1, PageSize::Size2M));
        let acc = access(0x4000_0123, 1, AccessKind::Read);
        let (result, _) = group.lookup_l1(&acc);
        assert_eq!(result.hit().unwrap().size, PageSize::Size2M);
    }

    #[test]
    fn gigabyte_pages_use_the_1g_structures() {
        let mut group = TlbGroup::new(TlbGroupConfig::baseline());
        group.fill(
            AccessKind::Read,
            fill_for(0x40_0000_0000, 1, PageSize::Size1G),
        );
        // Anywhere within the gigabyte hits the same entry.
        let acc = access(0x40_3fff_ffff, 1, AccessKind::Read);
        let (result, _) = group.lookup_l1(&acc);
        assert_eq!(result.hit().unwrap().size, PageSize::Size1G);
        // The 1G L1 structure holds only 4 entries (Table I): a fifth
        // distinct gigabyte evicts the LRU one.
        for i in 1..5u64 {
            group.fill(
                AccessKind::Read,
                fill_for(0x40_0000_0000 + (i << 30), 1, PageSize::Size1G),
            );
        }
        let (result, _) = group.lookup_l1(&access(0x40_0000_0000, 1, AccessKind::Read));
        assert!(
            !result.entry_present(),
            "4-entry FA structure evicted the oldest"
        );
        // ...but the 16-entry L2 1G structure still holds it.
        let (result, _) = group.lookup_l2(&access(0x40_0000_0000, 1, AccessKind::Read));
        assert!(result.entry_present());
    }

    #[test]
    fn fetches_fill_and_hit_the_itlb() {
        let registry = bf_telemetry::Registry::new();
        let mut group = TlbGroup::new(TlbGroupConfig::baseline());
        group.attach_telemetry(&registry);
        group.fill(AccessKind::Fetch, fill_for(0x40_0000, 1, PageSize::Size4K));
        let acc = access(0x40_0000, 1, AccessKind::Fetch);
        assert!(group.lookup_l1(&acc).0.entry_present());
        let stats = TlbGroupStats::from_snapshot(&registry.snapshot());
        assert_eq!(stats.l1i.instr_hits, 1);
        assert_eq!(stats.l1d.hits(), 0);
    }

    #[test]
    fn huge_fetch_mappings_stay_l2_only() {
        let mut group = TlbGroup::new(TlbGroupConfig::baseline());
        group.fill(
            AccessKind::Fetch,
            fill_for(0x4000_0000, 1, PageSize::Size2M),
        );
        let acc = access(0x4000_0000, 1, AccessKind::Fetch);
        assert!(!group.lookup_l1(&acc).0.entry_present());
        assert!(group.lookup_l2(&acc).0.entry_present());
    }

    #[test]
    fn larger_l2_config_increases_capacity() {
        let group = TlbGroup::new(TlbGroupConfig::baseline_larger_tlb());
        assert_eq!(group.l2_4k.config().entries, 2304);
    }

    #[test]
    fn invalidate_shared_covers_both_levels() {
        let mut group = TlbGroup::new(TlbGroupConfig::babelfish_aslr_sw());
        group.fill(AccessKind::Read, fill_for(0xc000, 1, PageSize::Size4K));
        group.invalidate_shared(VirtAddr::new(0xc000), Ccid::new(1));
        let acc = access(0xc000, 1, AccessKind::Read);
        assert!(!group.lookup_l1(&acc).0.entry_present());
        assert!(!group.lookup_l2(&acc).0.entry_present());
    }

    #[test]
    fn group_stats_aggregate_across_sizes_and_cores() {
        let registry = bf_telemetry::Registry::new();
        for _core in 0..2 {
            let mut group = TlbGroup::new(TlbGroupConfig::baseline());
            group.attach_telemetry(&registry);
            group.fill(AccessKind::Read, fill_for(0x1000, 1, PageSize::Size4K));
            group.fill(AccessKind::Read, fill_for(0x4000_0000, 1, PageSize::Size2M));
            group.lookup_l1(&access(0x1000, 1, AccessKind::Read));
            group.lookup_l1(&access(0x4000_0000, 1, AccessKind::Read));
        }
        let stats = TlbGroupStats::from_snapshot(&registry.snapshot());
        assert_eq!(stats.l1d.data_hits, 4);
        assert_eq!(stats.l2.fills, 4);
    }
}
