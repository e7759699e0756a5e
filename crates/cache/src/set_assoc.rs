//! A single set-associative, write-back cache level.

use bf_types::{Cycles, CACHE_LINE_BYTES};

/// Geometry and timing of one cache level.
///
/// The constructors provide the Table I configurations. The set count
/// ([`CacheConfig::sets`]) must be a power of two: [`SetAssocCache`]
/// splits a line number into set index and tag with a mask and a shift.
///
/// # Examples
///
/// ```
/// use bf_cache::CacheConfig;
/// let l2 = CacheConfig::l2();
/// assert_eq!(l2.size_bytes, 256 * 1024);
/// assert_eq!(l2.ways, 8);
/// assert_eq!(l2.access_cycles, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (64 throughout Table I).
    pub line_bytes: u64,
    /// Access time in CPU cycles (Table I "AT").
    pub access_cycles: Cycles,
    /// Miss-status holding registers (tracked for statistics).
    pub mshrs: usize,
}

impl CacheConfig {
    /// L1 instruction/data cache: 32 KB, 8-way, 2-cycle AT, 16 MSHRs.
    pub fn l1_data() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            ways: 8,
            line_bytes: CACHE_LINE_BYTES,
            access_cycles: 2,
            mshrs: 16,
        }
    }

    /// L1 instruction cache (same organisation as the data cache).
    pub fn l1_instr() -> Self {
        Self::l1_data()
    }

    /// Private unified L2: 256 KB, 8-way, 8-cycle AT, 16 MSHRs.
    pub fn l2() -> Self {
        CacheConfig {
            size_bytes: 256 * 1024,
            ways: 8,
            line_bytes: CACHE_LINE_BYTES,
            access_cycles: 8,
            mshrs: 16,
        }
    }

    /// Shared L3: 8 MB, 16-way, 32-cycle AT, 128 MSHRs.
    pub fn l3() -> Self {
        CacheConfig {
            size_bytes: 8 * 1024 * 1024,
            ways: 16,
            line_bytes: CACHE_LINE_BYTES,
            access_cycles: 32,
            mshrs: 128,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        (self.size_bytes / self.line_bytes) as usize / self.ways
    }
}

/// Hit/miss/writeback counters exposed by [`SetAssocCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct CacheStats {
    /// Probes that found the line.
    pub hits: u64,
    /// Probes that missed.
    pub misses: u64,
    /// Lines filled.
    pub fills: u64,
    /// Valid lines evicted to make room.
    pub evictions: u64,
    /// Evicted lines that were dirty (write-back traffic).
    pub writebacks: u64,
}

impl CacheStats {
    /// Hit rate in [0, 1]; 0 when the cache has not been probed.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Way {
    valid: bool,
    tag: u64,
    dirty: bool,
    last_used: u64,
}

/// One physically-tagged, set-associative, write-back cache with LRU
/// replacement.
///
/// The cache operates on *line numbers* (`PhysAddr::cache_line()`), not raw
/// addresses, so callers decide the line granularity once.
///
/// # Examples
///
/// ```
/// use bf_cache::{CacheConfig, SetAssocCache};
///
/// let mut cache = SetAssocCache::new(CacheConfig::l1_data());
/// cache.fill(42, true); // bring in line 42, dirtied
/// assert!(cache.probe_and_touch(42, false));
/// cache.invalidate(42);
/// assert!(!cache.probe_and_touch(42, false));
/// ```
#[derive(Debug)]
pub struct SetAssocCache {
    config: CacheConfig,
    /// Every way of every set, set-major: set `s` is
    /// `ways[s * config.ways..(s + 1) * config.ways]`.
    ways: Vec<Way>,
    /// `sets - 1`: a line's set index is `line & set_mask`.
    set_mask: u64,
    /// `log2(sets)`: a line's tag is `line >> set_shift`.
    set_shift: u32,
    clock: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Builds a cache from its geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry's set count is not a power of two (at
    /// least one).
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        assert!(
            sets.is_power_of_two(),
            "cache set count must be a power of two: {} B / {} B lines / {} ways = {sets} sets",
            config.size_bytes,
            config.line_bytes,
            config.ways
        );
        SetAssocCache {
            config,
            ways: vec![Way::default(); sets * config.ways],
            set_mask: sets as u64 - 1,
            set_shift: sets.trailing_zeros(),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The geometry this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up `line`; on a hit, refreshes LRU state and (for writes)
    /// sets the dirty bit. Returns whether the line was present.
    pub fn probe_and_touch(&mut self, line: u64, is_write: bool) -> bool {
        self.clock += 1;
        let clock = self.clock;
        let tag = line >> self.set_shift;
        for way in self.set_mut(line) {
            if way.valid && way.tag == tag {
                way.last_used = clock;
                if is_write {
                    way.dirty = true;
                }
                self.stats.hits += 1;
                return true;
            }
        }
        self.stats.misses += 1;
        false
    }

    /// Inserts `line` (evicting the LRU way if the set is full) and
    /// returns the evicted line number if a valid line was displaced.
    /// `dirty` marks the incoming line as modified.
    pub fn fill(&mut self, line: u64, dirty: bool) -> Option<u64> {
        self.clock += 1;
        let clock = self.clock;
        let tag = line >> self.set_shift;
        let set_bits = line & self.set_mask;
        let set_shift = self.set_shift;
        let set = self.set_mut(line);

        // Already present (e.g. racing fills): refresh.
        if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
            way.last_used = clock;
            way.dirty |= dirty;
            return None;
        }

        // LRU victim: the first invalid way, else the first way with the
        // smallest stamp (valid stamps are at least 1).
        let victim = set
            .iter_mut()
            .min_by_key(|w| if w.valid { w.last_used } else { 0 })
            .expect("cache set has at least one way");
        let evicted = *victim;
        *victim = Way {
            valid: true,
            tag,
            dirty,
            last_used: clock,
        };
        self.stats.fills += 1;
        if evicted.valid {
            self.stats.evictions += 1;
            if evicted.dirty {
                self.stats.writebacks += 1;
            }
            Some((evicted.tag << set_shift) | set_bits)
        } else {
            None
        }
    }

    /// Drops `line` if present (used for cache-coherent invalidations of
    /// page-table lines on unmap).
    pub fn invalidate(&mut self, line: u64) {
        let tag = line >> self.set_shift;
        for way in self.set_mut(line) {
            if way.valid && way.tag == tag {
                way.valid = false;
            }
        }
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.ways.iter().filter(|w| w.valid).count()
    }

    fn set_mut(&mut self, line: u64) -> &mut [Way] {
        let ways = self.config.ways;
        let base = (line & self.set_mask) as usize * ways;
        &mut self.ways[base..base + ways]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 4 sets × 2 ways × 64 B = 512 B.
        SetAssocCache::new(CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
            access_cycles: 1,
            mshrs: 4,
        })
    }

    #[test]
    fn table1_geometries() {
        assert_eq!(CacheConfig::l1_data().sets(), 64);
        assert_eq!(CacheConfig::l2().sets(), 512);
        assert_eq!(CacheConfig::l3().sets(), 8192);
        assert_eq!(CacheConfig::l3().access_cycles, 32);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut cache = tiny();
        assert!(!cache.probe_and_touch(100, false));
        cache.fill(100, false);
        assert!(cache.probe_and_touch(100, false));
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut cache = tiny();
        // Lines 0, 4, 8 map to set 0 (4 sets).
        cache.fill(0, false);
        cache.fill(4, false);
        cache.probe_and_touch(0, false); // 0 is now MRU
        let evicted = cache.fill(8, false);
        assert_eq!(evicted, Some(4), "LRU way (line 4) should be evicted");
        assert!(cache.probe_and_touch(0, false));
        assert!(!cache.probe_and_touch(4, false));
    }

    #[test]
    fn eviction_reports_reconstructed_line() {
        let mut cache = tiny();
        cache.fill(3, false); // set 3
        cache.fill(7, false); // set 3
        let evicted = cache.fill(11, false); // set 3, evicts line 3
        assert_eq!(evicted, Some(3));
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut cache = tiny();
        cache.fill(0, true);
        cache.fill(4, false);
        cache.fill(8, false); // evicts dirty line 0
        assert_eq!(cache.stats().writebacks, 1);
        assert_eq!(cache.stats().evictions, 2 - 1);
    }

    #[test]
    fn write_probe_dirties_line() {
        let mut cache = tiny();
        cache.fill(0, false);
        cache.probe_and_touch(0, true);
        cache.fill(4, false);
        cache.fill(8, false); // evicts line 0, now dirty
        assert_eq!(cache.stats().writebacks, 1);
    }

    #[test]
    fn refill_of_resident_line_does_not_evict() {
        let mut cache = tiny();
        cache.fill(0, false);
        assert_eq!(cache.fill(0, true), None);
        assert_eq!(cache.resident_lines(), 1);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut cache = tiny();
        cache.fill(5, false);
        cache.invalidate(5);
        assert!(!cache.probe_and_touch(5, false));
        assert_eq!(cache.resident_lines(), 0);
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut cache = tiny();
        for line in 0..4 {
            cache.fill(line, false);
        }
        for line in 0..4 {
            assert!(cache.probe_and_touch(line, false));
        }
    }

    #[test]
    #[should_panic(expected = "power of two: 384 B / 64 B lines / 2 ways = 3 sets")]
    fn non_power_of_two_set_count_is_rejected() {
        let _ = SetAssocCache::new(CacheConfig {
            size_bytes: 384,
            ways: 2,
            line_bytes: 64,
            access_cycles: 1,
            mshrs: 4,
        });
    }

    /// The nested-`Vec` LRU cache the flat arena replaced, indexed with
    /// `%` and `/`: the reference the arena must match operation for
    /// operation.
    struct Oracle {
        sets: Vec<Vec<Way>>,
        clock: u64,
        stats: CacheStats,
    }

    impl Oracle {
        fn new(config: CacheConfig) -> Self {
            Oracle {
                sets: vec![vec![Way::default(); config.ways]; config.sets()],
                clock: 0,
                stats: CacheStats::default(),
            }
        }

        fn split(&self, line: u64) -> (usize, u64) {
            let sets = self.sets.len() as u64;
            ((line % sets) as usize, line / sets)
        }

        fn probe_and_touch(&mut self, line: u64, is_write: bool) -> bool {
            self.clock += 1;
            let (set, tag) = self.split(line);
            for way in self.sets[set].iter_mut() {
                if way.valid && way.tag == tag {
                    way.last_used = self.clock;
                    way.dirty |= is_write;
                    self.stats.hits += 1;
                    return true;
                }
            }
            self.stats.misses += 1;
            false
        }

        fn fill(&mut self, line: u64, dirty: bool) -> Option<u64> {
            self.clock += 1;
            let (set_index, tag) = self.split(line);
            let sets_count = self.sets.len() as u64;
            let set = &mut self.sets[set_index];
            if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
                way.last_used = self.clock;
                way.dirty |= dirty;
                return None;
            }
            let victim_index = set
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| if w.valid { w.last_used } else { 0 })
                .map(|(i, _)| i)
                .unwrap();
            let victim = set[victim_index];
            set[victim_index] = Way {
                valid: true,
                tag,
                dirty,
                last_used: self.clock,
            };
            self.stats.fills += 1;
            if victim.valid {
                self.stats.evictions += 1;
                if victim.dirty {
                    self.stats.writebacks += 1;
                }
                Some(victim.tag * sets_count + set_index as u64)
            } else {
                None
            }
        }

        fn invalidate(&mut self, line: u64) {
            let (set, tag) = self.split(line);
            for way in self.sets[set].iter_mut() {
                if way.valid && way.tag == tag {
                    way.valid = false;
                }
            }
        }

        fn resident_lines(&self) -> usize {
            self.sets.iter().flatten().filter(|w| w.valid).count()
        }
    }

    /// Replays `ops` on the arena and the oracle, comparing every result.
    /// An op is (kind, set, tag, raw line): lines mostly crowd four sets
    /// so fills evict; kind 4 uses the raw line to reach every set.
    fn matches_oracle(
        config: CacheConfig,
        ops: &[(u8, u64, u64, u64)],
    ) -> Result<(), proptest::TestCaseError> {
        let mut cache = SetAssocCache::new(config);
        let mut oracle = Oracle::new(config);
        let sets = config.sets() as u64;
        for &(kind, set, tag, raw) in ops {
            let line = if kind == 4 { raw } else { tag * sets + set };
            match kind {
                0 | 4 => proptest::prop_assert_eq!(
                    cache.probe_and_touch(line, tag % 2 == 0),
                    oracle.probe_and_touch(line, tag % 2 == 0)
                ),
                1 | 2 => proptest::prop_assert_eq!(
                    cache.fill(line, kind == 2),
                    oracle.fill(line, kind == 2)
                ),
                _ => {
                    cache.invalidate(line);
                    oracle.invalidate(line);
                }
            }
            proptest::prop_assert_eq!(cache.stats(), oracle.stats);
        }
        proptest::prop_assert_eq!(cache.resident_lines(), oracle.resident_lines());
        Ok(())
    }

    fn geometry(index: u8) -> CacheConfig {
        match index {
            0 => *tiny().config(),
            1 => CacheConfig::l1_data(),
            2 => CacheConfig::l2(),
            _ => CacheConfig::l3(),
        }
    }

    proptest::proptest! {
        /// The flat arena gives the nested-`Vec` LRU's hits, evicted
        /// lines, stats and residency on the tiny and Table I geometries.
        #[test]
        fn flat_arena_matches_nested_lru(
            index in 0u8..4,
            ops in proptest::collection::vec((0u8..6, 0u64..4, 0u64..40, 0u64..1 << 40), 1..300)
        ) {
            matches_oracle(geometry(index), &ops)?;
        }
    }

    #[test]
    fn hit_rate_reflects_traffic() {
        let mut cache = tiny();
        cache.fill(0, false);
        cache.probe_and_touch(0, false);
        cache.probe_and_touch(1, false);
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-9);
    }
}
