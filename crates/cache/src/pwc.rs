//! The per-core page-walk cache (PWC).

use crate::set_assoc::{probe_or_insert, EMPTY};
use bf_telemetry::{Counter, Registry};
use bf_types::{Cycles, PageTableLevel, PhysAddr};

/// Geometry of the page-walk cache (Table I: 16 entries per level, 4-way,
/// 1-cycle access, caching PGD/PUD/PMD entries — never leaf PTEs).
///
/// # Examples
///
/// ```
/// use bf_cache::PwcConfig;
/// let config = PwcConfig::default();
/// assert_eq!(config.entries_per_level, 16);
/// assert_eq!(config.ways, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct PwcConfig {
    /// Entries per cached level (PGD, PUD, PMD).
    pub entries_per_level: usize,
    /// Associativity.
    pub ways: usize,
    /// Access time in CPU cycles.
    pub access_cycles: Cycles,
}

impl Default for PwcConfig {
    fn default() -> Self {
        PwcConfig {
            entries_per_level: 16,
            ways: 4,
            access_cycles: 1,
        }
    }
}

/// A per-core translation cache over the upper page-table levels.
///
/// Entries are keyed by the *physical address of the page-table entry*
/// they cache. This gives the sharing behaviour the paper exploits for
/// free: when BabelFish makes two processes walk the same shared PMD
/// table, the second process probes the same entry address and hits,
/// whereas separate per-process tables can never hit on each other's
/// entries.
///
/// Leaf PTE entries are never cached here (the PWC "stores a few
/// recently-accessed entries of the first three tables", Section II-B).
///
/// Replacement is LRU, kept as in [`SetAssocCache`](crate::SetAssocCache):
/// each set holds its keys most recently used first, and
/// [`PageWalkCache::probe_or_insert`] moves a hit key to the front or
/// inserts a missing one there, evicting the last slot. The walker
/// touches only the cache hierarchy between a PWC miss and the walk
/// step's completion, so inserting at the miss leaves the PWC as a
/// fill after the fetch would.
///
/// # Examples
///
/// ```
/// use bf_cache::PageWalkCache;
/// use bf_types::{PageTableLevel, PhysAddr};
///
/// let mut pwc = PageWalkCache::new(Default::default());
/// let entry = PhysAddr::new(0x5000);
/// assert!(!pwc.probe_or_insert(PageTableLevel::Pud, entry)); // miss, now cached
/// assert!(pwc.probe_or_insert(PageTableLevel::Pud, entry));
/// ```
#[derive(Debug)]
pub struct PageWalkCache {
    config: PwcConfig,
    /// Every way's key for PGD, PUD, then PMD, each level set-major and
    /// most recent first within a set: way `w` of set `s` at depth `d`
    /// is `keys[(d * sets + s) * config.ways + w]`.
    keys: Vec<u64>,
    /// `sets - 1`: a key's set index is `key & set_mask`.
    set_mask: u64,
    telem_hits: Counter,
    telem_misses: Counter,
}

impl PageWalkCache {
    /// Builds a PWC with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `entries_per_level` is not a positive multiple of `ways`,
    /// or if the set count it implies is not a power of two.
    pub fn new(config: PwcConfig) -> Self {
        assert!(
            config.entries_per_level > 0
                && config.ways > 0
                && config.entries_per_level.is_multiple_of(config.ways),
            "entries_per_level must be a positive multiple of ways"
        );
        let sets = config.entries_per_level / config.ways;
        assert!(
            sets.is_power_of_two(),
            "PWC set count must be a power of two: {} entries / {} ways = {sets} sets",
            config.entries_per_level,
            config.ways
        );
        PageWalkCache {
            config,
            keys: vec![EMPTY; 3 * config.entries_per_level],
            set_mask: sets as u64 - 1,
            telem_hits: Counter::new(),
            telem_misses: Counter::new(),
        }
    }

    /// The geometry this PWC was built with.
    pub fn config(&self) -> &PwcConfig {
        &self.config
    }

    /// Routes this PWC's counters into `registry` as `pwc.hits` /
    /// `pwc.misses`. Per-core PWCs attached to one registry aggregate
    /// into machine-wide totals.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.telem_hits = registry.counter("pwc.hits");
        self.telem_misses = registry.counter("pwc.misses");
    }

    /// Looks up the entry at `entry_addr` for `level` and makes it the
    /// most recently used entry of its set, inserting it (LRU
    /// replacement) when it was absent. Returns whether it was present
    /// and counts the hit or miss.
    ///
    /// # Panics
    ///
    /// Panics if `level` is [`PageTableLevel::Pte`] — leaf entries are not
    /// cached in a PWC.
    pub fn probe_or_insert(&mut self, level: PageTableLevel, entry_addr: PhysAddr) -> bool {
        // Entry addresses / 8 never reach the empty key.
        let key = entry_addr.raw() / 8;
        let hit = probe_or_insert(self.set_mut(level, key), key);
        if hit {
            self.telem_hits.incr();
        } else {
            self.telem_misses.incr();
        }
        hit
    }

    /// The ways of `key`'s set at `level`, most recent first.
    fn set_mut(&mut self, level: PageTableLevel, key: u64) -> &mut [u64] {
        assert!(
            level != PageTableLevel::Pte,
            "PTE entries are not cached in the PWC"
        );
        let ways = self.config.ways;
        let sets = self.set_mask as usize + 1;
        let set = level.depth() * sets + (key & self.set_mask) as usize;
        &mut self.keys[set * ways..(set + 1) * ways]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let registry = Registry::new();
        let mut pwc = PageWalkCache::new(PwcConfig::default());
        pwc.attach_telemetry(&registry);
        let addr = PhysAddr::new(0x1000);
        assert!(!pwc.probe_or_insert(PageTableLevel::Pgd, addr));
        assert!(pwc.probe_or_insert(PageTableLevel::Pgd, addr));
        let counters = registry.snapshot();
        assert_eq!(counters.counter("pwc.hits"), 1);
        assert_eq!(counters.counter("pwc.misses"), 1);
    }

    #[test]
    fn levels_are_independent() {
        let mut pwc = PageWalkCache::new(PwcConfig::default());
        let addr = PhysAddr::new(0x2000);
        pwc.probe_or_insert(PageTableLevel::Pud, addr);
        assert!(!pwc.probe_or_insert(PageTableLevel::Pmd, addr));
        assert!(pwc.probe_or_insert(PageTableLevel::Pud, addr));
    }

    #[test]
    #[should_panic(expected = "not cached")]
    fn pte_level_is_rejected() {
        let mut pwc = PageWalkCache::new(PwcConfig::default());
        pwc.probe_or_insert(PageTableLevel::Pte, PhysAddr::new(0));
    }

    #[test]
    fn capacity_evicts_lru() {
        let config = PwcConfig::default(); // 4 sets of 4 ways
        let mut pwc = PageWalkCache::new(config);
        let sets = (config.entries_per_level / config.ways) as u64;
        // Fill one set past capacity: keys congruent mod sets.
        for i in 0..(config.ways as u64 + 1) {
            pwc.probe_or_insert(PageTableLevel::Pmd, PhysAddr::new(i * sets * 8));
        }
        // The first entry (LRU) must be gone; the newest must be present.
        assert!(!resident(&pwc).contains(&(PageTableLevel::Pmd.depth(), 0)));
        assert!(pwc.probe_or_insert(
            PageTableLevel::Pmd,
            PhysAddr::new(config.ways as u64 * sets * 8)
        ));
    }

    #[test]
    fn refill_refreshes_without_duplicating() {
        let mut pwc = PageWalkCache::new(PwcConfig::default());
        let addr = PhysAddr::new(0x5000);
        pwc.probe_or_insert(PageTableLevel::Pgd, addr);
        pwc.probe_or_insert(PageTableLevel::Pgd, addr);
        assert_eq!(resident(&pwc), [(PageTableLevel::Pgd.depth(), 0x5000 / 8)]);
    }

    #[test]
    #[should_panic(expected = "power of two: 24 entries / 4 ways = 6 sets")]
    fn non_power_of_two_set_count_is_rejected() {
        let _ = PageWalkCache::new(PwcConfig {
            entries_per_level: 24,
            ways: 4,
            access_cycles: 1,
        });
    }

    /// One way of the stamp LRU: the victim is the first invalid way,
    /// else the first way with the smallest stamp.
    #[derive(Debug, Clone, Copy, Default)]
    struct PwcWay {
        valid: bool,
        tag: u64,
        last_used: u64,
    }

    /// A per-level nested-`Vec` PWC with timestamped LRU ways, indexed
    /// with `%`: the reference the move-to-front arena must match
    /// operation for operation.
    struct Oracle {
        levels: [Vec<Vec<PwcWay>>; 3],
        clock: u64,
    }

    impl Oracle {
        fn new(config: PwcConfig) -> Self {
            let sets = config.entries_per_level / config.ways;
            let make = || vec![vec![PwcWay::default(); config.ways]; sets];
            Oracle {
                levels: [make(), make(), make()],
                clock: 0,
            }
        }

        fn set(&mut self, level: PageTableLevel, key: u64) -> &mut Vec<PwcWay> {
            let sets = &mut self.levels[level.depth()];
            let count = sets.len() as u64;
            &mut sets[(key % count) as usize]
        }

        fn probe(&mut self, level: PageTableLevel, key: u64) -> bool {
            self.clock += 1;
            let clock = self.clock;
            self.set(level, key).iter_mut().any(|way| {
                let hit = way.valid && way.tag == key;
                if hit {
                    way.last_used = clock;
                }
                hit
            })
        }

        fn fill(&mut self, level: PageTableLevel, key: u64) {
            self.clock += 1;
            let clock = self.clock;
            let set = self.set(level, key);
            if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == key) {
                way.last_used = clock;
                return;
            }
            let victim = set
                .iter_mut()
                .min_by_key(|w| if w.valid { w.last_used } else { 0 })
                .unwrap();
            *victim = PwcWay {
                valid: true,
                tag: key,
                last_used: clock,
            };
        }

        /// Every valid entry as (level depth, key), sorted.
        fn resident(&self) -> Vec<(usize, u64)> {
            let mut out: Vec<(usize, u64)> = (0..3)
                .flat_map(|d| self.levels[d].iter().flatten().map(move |w| (d, w)))
                .filter(|(_, w)| w.valid)
                .map(|(d, w)| (d, w.tag))
                .collect();
            out.sort_unstable();
            out
        }
    }

    /// The arena's valid entries as (level depth, key), sorted.
    fn resident(pwc: &PageWalkCache) -> Vec<(usize, u64)> {
        let per_level = pwc.config.entries_per_level;
        let mut out: Vec<(usize, u64)> = pwc
            .keys
            .iter()
            .enumerate()
            .filter(|&(_, &key)| key != EMPTY)
            .map(|(i, &key)| (i / per_level, key))
            .collect();
        out.sort_unstable();
        out
    }

    proptest::proptest! {
        /// The move-to-front arena's probe-or-insert gives the stamp LRU
        /// PWC's hits and resident entries, where the oracle probes and
        /// fills on a miss, on the three cached levels. An op is
        /// (level, set, tag); keys crowd four sets so misses evict.
        #[test]
        fn flat_arena_matches_nested_pwc(
            geometry in 0u8..3,
            ops in proptest::collection::vec((0u8..3, 0u64..4, 0u64..10), 1..300)
        ) {
            let config = match geometry {
                0 => PwcConfig::default(),
                1 => PwcConfig { entries_per_level: 64, ways: 8, access_cycles: 1 },
                _ => PwcConfig { entries_per_level: 4, ways: 1, access_cycles: 1 },
            };
            let sets = (config.entries_per_level / config.ways) as u64;
            let mut pwc = PageWalkCache::new(config);
            let mut oracle = Oracle::new(config);
            for (depth, set, tag) in ops {
                let level = PageTableLevel::ALL[depth as usize];
                let key = tag * sets + set;
                let addr = PhysAddr::new(key * 8);
                let hit = oracle.probe(level, key);
                if !hit {
                    oracle.fill(level, key);
                }
                proptest::prop_assert_eq!(pwc.probe_or_insert(level, addr), hit);
                proptest::prop_assert_eq!(resident(&pwc), oracle.resident());
            }
        }
    }

    #[test]
    #[should_panic(expected = "multiple of ways")]
    fn bad_geometry_is_rejected() {
        let _ = PageWalkCache::new(PwcConfig {
            entries_per_level: 10,
            ways: 4,
            access_cycles: 1,
        });
    }
}
