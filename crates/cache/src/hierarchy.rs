//! The full cache hierarchy: per-core L1/L2, shared L3, then DRAM.

use crate::set_assoc::{CacheConfig, SetAssocCache};
use bf_mem::{Dram, DramConfig};
use bf_telemetry::{Counter, Registry};
use bf_types::{AccessKind, CoreId, Cycles, PhysAddr};

/// Where a memory request enters the hierarchy.
///
/// Ordinary loads/stores/fetches start at the L1. Hardware page-walker
/// requests start at the L2: Fig. 7 shows walker requests probing "the L2
/// and L3 caches and memory", the conventional design point where walker
/// accesses bypass the small L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessOrigin {
    /// A core-issued instruction fetch or data access (enters at L1).
    Core,
    /// A page-walker request for a page-table entry (enters at L2).
    PageWalker,
}

/// Which level ultimately served an access — the classification
/// returned by [`CacheHierarchy::access_classified`] so walk-path
/// profiling can fold each walk step into a signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServedBy {
    /// Hit in the core's L1 (core-origin accesses only).
    L1,
    /// Hit in the core's private L2.
    L2,
    /// Hit in the shared L3.
    L3,
    /// Fetched from DRAM.
    Dram,
}

/// Geometry of the whole hierarchy (defaults are Table I).
///
/// # Examples
///
/// ```
/// use bf_cache::HierarchyConfig;
/// let config = HierarchyConfig::table1(8);
/// assert_eq!(config.cores, 8);
/// assert_eq!(config.l3.size_bytes, 8 * 1024 * 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct HierarchyConfig {
    /// Number of cores (each gets private L1I/L1D/L2).
    pub cores: usize,
    /// Per-core L1 instruction cache.
    pub l1i: CacheConfig,
    /// Per-core L1 data cache.
    pub l1d: CacheConfig,
    /// Per-core unified L2.
    pub l2: CacheConfig,
    /// Shared L3.
    pub l3: CacheConfig,
    /// Main memory.
    pub dram: DramConfig,
}

impl HierarchyConfig {
    /// The Table I server configuration with the given core count.
    pub fn table1(cores: usize) -> Self {
        HierarchyConfig {
            cores,
            l1i: CacheConfig::l1_instr(),
            l1d: CacheConfig::l1_data(),
            l2: CacheConfig::l2(),
            l3: CacheConfig::l3(),
            dram: DramConfig::default(),
        }
    }
}

/// Telemetry handles for the hierarchy: a hit/miss counter pair per
/// level plus the walker-reuse counters of Fig. 7, all machine-wide
/// (private levels aggregate over cores). These counters are the
/// hierarchy's only hit/miss record.
#[derive(Debug, Clone, Default)]
struct HierarchyTelemetry {
    l1i_hits: Counter,
    l1i_misses: Counter,
    l1d_hits: Counter,
    l1d_misses: Counter,
    l2_hits: Counter,
    l2_misses: Counter,
    l3_hits: Counter,
    l3_misses: Counter,
    dram_accesses: Counter,
    walks_served_l2: Counter,
    walks_served_l3: Counter,
    walks_served_dram: Counter,
}

impl HierarchyTelemetry {
    fn from_registry(registry: &Registry) -> Self {
        let counter = |name: &str| registry.counter(name);
        HierarchyTelemetry {
            l1i_hits: counter("cache.l1i.hits"),
            l1i_misses: counter("cache.l1i.misses"),
            l1d_hits: counter("cache.l1d.hits"),
            l1d_misses: counter("cache.l1d.misses"),
            l2_hits: counter("cache.l2.hits"),
            l2_misses: counter("cache.l2.misses"),
            l3_hits: counter("cache.l3.hits"),
            l3_misses: counter("cache.l3.misses"),
            dram_accesses: counter("cache.dram.accesses"),
            walks_served_l2: counter("cache.walks.served_l2"),
            walks_served_l3: counter("cache.walks.served_l3"),
            walks_served_dram: counter("cache.walks.served_dram"),
        }
    }
}

/// Registers the hierarchy's flow-conservation invariants. Each law
/// follows from the structure of [`CacheHierarchy::access`]:
///
/// - every L2 miss probes L3, and nothing else does;
/// - every L3 miss goes to DRAM, and nothing else does;
/// - L2 is probed by L1I misses, L1D misses, and every walker access
///   (walkers enter at L2 and record exactly one `served_*` counter).
pub fn register_invariants(set: &mut bf_telemetry::InvariantSet) {
    set.sum_eq(
        "cache.l3.flow_conservation",
        &["cache.l3.hits", "cache.l3.misses"],
        &["cache.l2.misses"],
    );
    set.sum_eq(
        "cache.dram.flow_conservation",
        &["cache.dram.accesses"],
        &["cache.l3.misses"],
    );
    set.sum_eq(
        "cache.l2.flow_conservation",
        &["cache.l2.hits", "cache.l2.misses"],
        &[
            "cache.l1i.misses",
            "cache.l1d.misses",
            "cache.walks.served_l2",
            "cache.walks.served_l3",
            "cache.walks.served_dram",
        ],
    );
}

/// The modelled memory hierarchy of the 8-core server.
///
/// All caches are physically tagged, so two processes touching the same
/// physical line (a shared library page, or a shared page-table page under
/// BabelFish) reuse each other's cache contents with no extra machinery.
///
/// # Examples
///
/// ```
/// use bf_cache::{AccessOrigin, CacheHierarchy, HierarchyConfig};
/// use bf_types::{AccessKind, CoreId, PhysAddr};
///
/// let mut mem = CacheHierarchy::new(HierarchyConfig::table1(2));
/// let addr = PhysAddr::new(0x4000);
/// let cold = mem.access(CoreId::new(0), addr, AccessKind::Read, AccessOrigin::Core, 0);
/// let warm = mem.access(CoreId::new(0), addr, AccessKind::Read, AccessOrigin::Core, 1_000);
/// assert!(warm < cold);
/// ```
#[derive(Debug)]
pub struct CacheHierarchy {
    config: HierarchyConfig,
    l1i: Vec<SetAssocCache>,
    l1d: Vec<SetAssocCache>,
    l2: Vec<SetAssocCache>,
    l3: SetAssocCache,
    dram: Dram,
    telem: HierarchyTelemetry,
}

impl CacheHierarchy {
    /// Builds the hierarchy for `config.cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `config.cores` is zero.
    pub fn new(config: HierarchyConfig) -> Self {
        assert!(config.cores > 0, "hierarchy needs at least one core");
        CacheHierarchy {
            l1i: (0..config.cores)
                .map(|_| SetAssocCache::new(config.l1i))
                .collect(),
            l1d: (0..config.cores)
                .map(|_| SetAssocCache::new(config.l1d))
                .collect(),
            l2: (0..config.cores)
                .map(|_| SetAssocCache::new(config.l2))
                .collect(),
            l3: SetAssocCache::new(config.l3),
            dram: Dram::new(config.dram),
            config,
            telem: HierarchyTelemetry::default(),
        }
    }

    /// The configuration this hierarchy was built with.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Routes the hierarchy's counters into `registry` under the
    /// `cache.*` namespace (`cache.l1d.hits`, `cache.walks.served_l3`,
    /// …).
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.telem = HierarchyTelemetry::from_registry(registry);
    }

    /// Serves one access and returns its latency in CPU cycles.
    ///
    /// `origin` selects the entry level (core accesses start at L1,
    /// page-walker requests at L2); `kind` selects the L1 (instruction vs
    /// data); `now` timestamps the request for DRAM bank timing.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access(
        &mut self,
        core: CoreId,
        addr: PhysAddr,
        kind: AccessKind,
        origin: AccessOrigin,
        now: Cycles,
    ) -> Cycles {
        self.access_classified(core, addr, kind, origin, now).0
    }

    /// [`CacheHierarchy::access`], additionally reporting which level
    /// ended up serving the line — the walk-path profiler folds this
    /// into per-step signatures.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access_classified(
        &mut self,
        core: CoreId,
        addr: PhysAddr,
        kind: AccessKind,
        origin: AccessOrigin,
        now: Cycles,
    ) -> (Cycles, ServedBy) {
        let c = core.index();
        assert!(c < self.config.cores, "core {core} out of range");
        let line = addr.cache_line();
        let mut latency: Cycles = 0;

        // L1 (core accesses only).
        if origin == AccessOrigin::Core {
            let is_fetch = kind.is_fetch();
            let l1 = if is_fetch {
                &mut self.l1i[c]
            } else {
                &mut self.l1d[c]
            };
            latency += l1.config().access_cycles;
            if l1.probe_and_touch(line) {
                let hits = if is_fetch {
                    &self.telem.l1i_hits
                } else {
                    &self.telem.l1d_hits
                };
                hits.incr();
                return (latency, ServedBy::L1);
            }
            let misses = if is_fetch {
                &self.telem.l1i_misses
            } else {
                &self.telem.l1d_misses
            };
            misses.incr();
        }

        // L2.
        latency += self.l2[c].config().access_cycles;
        if self.l2[c].probe_and_touch(line) {
            self.telem.l2_hits.incr();
            if origin == AccessOrigin::PageWalker {
                self.telem.walks_served_l2.incr();
            } else {
                self.fill_l1(c, kind, line);
            }
            return (latency, ServedBy::L2);
        }
        self.telem.l2_misses.incr();

        // L3 (shared).
        latency += self.l3.config().access_cycles;
        if self.l3.probe_and_touch(line) {
            self.telem.l3_hits.incr();
            self.l2[c].fill(line);
            if origin == AccessOrigin::PageWalker {
                self.telem.walks_served_l3.incr();
            } else {
                self.fill_l1(c, kind, line);
            }
            return (latency, ServedBy::L3);
        }
        self.telem.l3_misses.incr();

        // DRAM.
        latency += self.dram.access(addr, now + latency);
        self.telem.dram_accesses.incr();
        self.l3.fill(line);
        self.l2[c].fill(line);
        if origin == AccessOrigin::PageWalker {
            self.telem.walks_served_dram.incr();
        } else {
            self.fill_l1(c, kind, line);
        }
        (latency, ServedBy::Dram)
    }

    fn fill_l1(&mut self, core: usize, kind: AccessKind, line: u64) {
        let l1 = if kind.is_fetch() {
            &mut self.l1i[core]
        } else {
            &mut self.l1d[core]
        };
        l1.fill(line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy(cores: usize) -> CacheHierarchy {
        CacheHierarchy::new(HierarchyConfig::table1(cores))
    }

    /// A hierarchy whose `cache.*` counters land in the returned registry.
    fn attached(cores: usize) -> (CacheHierarchy, Registry) {
        let registry = Registry::new();
        let mut mem = hierarchy(cores);
        mem.attach_telemetry(&registry);
        (mem, registry)
    }

    #[test]
    fn latency_orders_by_level() {
        let mut mem = hierarchy(1);
        let core = CoreId::new(0);
        let addr = PhysAddr::new(0x10_0000);
        let dram_latency = mem.access(core, addr, AccessKind::Read, AccessOrigin::Core, 0);
        let l1_latency = mem.access(core, addr, AccessKind::Read, AccessOrigin::Core, 10_000);
        assert!(l1_latency < dram_latency);
        assert_eq!(l1_latency, 2, "L1 hit costs the Table I 2-cycle AT");
    }

    #[test]
    fn walker_requests_skip_l1() {
        let (mut mem, registry) = attached(1);
        let core = CoreId::new(0);
        let addr = PhysAddr::new(0x20_0000);
        mem.access(core, addr, AccessKind::Read, AccessOrigin::PageWalker, 0);
        // The walker fill reaches L2 but not L1.
        let l2_hit = mem.access(
            core,
            addr,
            AccessKind::Read,
            AccessOrigin::PageWalker,
            1_000,
        );
        assert_eq!(l2_hit, 8, "second walker request should hit the L2");
        // The walker fill reaches L2 but not L1: a core read of the
        // same line misses its L1d and hits the L2.
        let core_read = mem.access(core, addr, AccessKind::Read, AccessOrigin::Core, 2_000);
        assert_eq!(core_read, 2 + 8);
        let counters = registry.snapshot();
        assert_eq!(counters.counter("cache.l1d.misses"), 1);
        assert_eq!(counters.counter("cache.walks.served_l2"), 1);
    }

    #[test]
    fn cross_core_reuse_through_shared_l3() {
        let (mut mem, registry) = attached(2);
        let addr = PhysAddr::new(0x30_0000);
        // Core 0's walker misses everywhere and fills L3.
        let cold = mem.access(
            CoreId::new(0),
            addr,
            AccessKind::Read,
            AccessOrigin::PageWalker,
            0,
        );
        // Core 1's walker misses its private L2 but hits the shared L3 —
        // the Fig. 7 cross-container reuse.
        let warm = mem.access(
            CoreId::new(1),
            addr,
            AccessKind::Read,
            AccessOrigin::PageWalker,
            1_000,
        );
        assert!(warm < cold);
        assert_eq!(warm, 8 + 32, "L2 miss + L3 hit");
        let counters = registry.snapshot();
        assert_eq!(counters.counter("cache.walks.served_l3"), 1);
        assert_eq!(counters.counter("cache.walks.served_dram"), 1);
    }

    #[test]
    fn fetches_use_instruction_l1() {
        let (mut mem, registry) = attached(1);
        let core = CoreId::new(0);
        let addr = PhysAddr::new(0x40_0000);
        mem.access(core, addr, AccessKind::Fetch, AccessOrigin::Core, 0);
        let counters = registry.snapshot();
        assert_eq!(counters.counter("cache.l1i.misses"), 1);
        assert_eq!(counters.counter("cache.l1d.misses"), 0);
    }

    #[test]
    fn same_core_processes_share_physical_lines() {
        // Two "processes" (the hierarchy does not know about processes —
        // that is the point: physically-tagged caches share naturally).
        let mut mem = hierarchy(1);
        let core = CoreId::new(0);
        let addr = PhysAddr::new(0x50_0000);
        mem.access(core, addr, AccessKind::Read, AccessOrigin::Core, 0);
        let second = mem.access(core, addr, AccessKind::Read, AccessOrigin::Core, 100);
        assert_eq!(second, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn core_bounds_are_checked() {
        let mut mem = hierarchy(1);
        mem.access(
            CoreId::new(1),
            PhysAddr::new(0),
            AccessKind::Read,
            AccessOrigin::Core,
            0,
        );
    }

    proptest::proptest! {
        /// Random core, walker and fetch traffic on 1-4 cores never
        /// breaks the three flow-conservation laws of
        /// [`register_invariants`]. An op is (core, kind, origin, line):
        /// lines crowd a few L1 sets and repeat, so every level both hits
        /// and misses.
        #[test]
        fn random_traffic_conserves_flow(
            cores in 1usize..5,
            ops in proptest::collection::vec((0usize..4, 0u8..3, 0u8..2, 0u64..256), 1..400)
        ) {
            let (mut mem, registry) = attached(cores);
            let mut now = 0;
            for (core, kind, origin, line) in ops {
                let kind = AccessKind::ALL[kind as usize];
                let origin = if origin == 0 {
                    AccessOrigin::Core
                } else {
                    AccessOrigin::PageWalker
                };
                // A 4 KB stride maps every line to L1 set 0 and to eight
                // L2 sets, so the L2 overflows into the L3.
                let addr = PhysAddr::new(line * 64 * 64);
                now += mem.access(CoreId::new(core % cores), addr, kind, origin, now);
            }
            let mut invariants = bf_telemetry::InvariantSet::new(bf_telemetry::InvariantMode::Record);
            register_invariants(&mut invariants);
            proptest::prop_assert_eq!(invariants.check(&registry.snapshot()), 0);
        }
    }
}
