//! A single set-associative cache level.

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

/// Tag of an empty way. Real tags are `line >> set_shift` of a
/// physical line number, which never reaches it.
pub(crate) const EMPTY: u64 = u64::MAX;

/// Moves `tag` to the front of `set`, a recency-ordered run of ways, if
/// it is there; otherwise inserts it at the front, dropping the last
/// way (the least recent, or an empty way if the set has one). Returns
/// whether `tag` was there.
pub(crate) fn probe_or_insert(set: &mut [u64], tag: u64) -> bool {
    match set.iter().position(|&t| t == tag) {
        Some(way) => {
            set[..=way].rotate_right(1);
            true
        }
        None => {
            set.rotate_right(1);
            set[0] = tag;
            false
        }
    }
}

/// One physically-tagged, set-associative cache with LRU replacement.
///
/// It tracks residency only: no level charges cycles for write-back
/// traffic, so lines carry no dirty bit.
///
/// Each set keeps its tags in recency order, most recently used first.
/// [`SetAssocCache::probe_or_insert`] is the only access: a hit moves
/// its tag to the front, and a miss inserts the tag at the front and
/// drops the last slot, so the order is exactly the LRU order of
/// timestamps: no way needs a stamp and one scan of one `u64` per way
/// serves both the probe and the fill. Empty ways always sit at the
/// tail, so a miss takes one while the set has any.
///
/// A miss fills at once, before the levels below are probed. The
/// hierarchy touches only other levels between a level's miss and the
/// fill it would make when the line comes back, so filling early leaves
/// every set as a probe now and a fill later would.
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
/// assert!(!cache.probe_or_insert(42)); // cold miss, now resident
/// assert!(cache.probe_or_insert(42));
/// ```
#[derive(Debug)]
pub struct SetAssocCache {
    config: CacheConfig,
    /// Every way's tag, set-major and most recent first within a set:
    /// set `s` is `tags[s * config.ways..(s + 1) * config.ways]`.
    tags: Vec<u64>,
    /// `sets - 1`: a line's set index is `line & set_mask`.
    set_mask: u64,
    /// `log2(sets)`: a line's tag is `line >> set_shift`.
    set_shift: u32,
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
            tags: vec![EMPTY; sets * config.ways],
            set_mask: sets as u64 - 1,
            set_shift: sets.trailing_zeros(),
        }
    }

    /// The geometry this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Looks up `line` and makes it the most recently used line of its
    /// set, inserting it (and evicting the least recent line if the set
    /// is full) when it was absent. Returns whether it was present.
    pub fn probe_or_insert(&mut self, line: u64) -> bool {
        let tag = self.tag(line);
        probe_or_insert(self.set_mut(line), tag)
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != EMPTY).count()
    }

    fn tag(&self, line: u64) -> u64 {
        let tag = line >> self.set_shift;
        debug_assert_ne!(tag, EMPTY, "line {line:#x} has the empty tag");
        tag
    }

    fn set_mut(&mut self, line: u64) -> &mut [u64] {
        let ways = self.config.ways;
        let base = (line & self.set_mask) as usize * ways;
        &mut self.tags[base..base + ways]
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

    /// Every resident line of `cache`, sorted.
    fn lines(cache: &SetAssocCache) -> Vec<u64> {
        let ways = cache.config.ways;
        let mut out: Vec<u64> = (0..cache.tags.len())
            .filter(|&i| cache.tags[i] != EMPTY)
            .map(|i| (cache.tags[i] << cache.set_shift) | (i / ways) as u64)
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut cache = tiny();
        assert!(!cache.probe_or_insert(100));
        assert!(cache.probe_or_insert(100));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut cache = tiny();
        // Lines 0, 4, 8 map to set 0 (4 sets).
        cache.probe_or_insert(0);
        cache.probe_or_insert(4);
        assert!(cache.probe_or_insert(0)); // 0 is now MRU
        assert!(!cache.probe_or_insert(8));
        assert_eq!(lines(&cache), [0, 8], "LRU way (line 4) should be evicted");
    }

    #[test]
    fn refill_of_resident_line_does_not_evict() {
        let mut cache = tiny();
        cache.probe_or_insert(0);
        assert!(cache.probe_or_insert(0));
        assert_eq!(cache.resident_lines(), 1);
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut cache = tiny();
        for line in 0..4 {
            assert!(!cache.probe_or_insert(line));
        }
        for line in 0..4 {
            assert!(cache.probe_or_insert(line));
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

    /// One way of the stamp LRU: the victim is the first invalid way,
    /// else the first way with the smallest stamp.
    #[derive(Debug, Clone, Copy, Default)]
    struct Way {
        valid: bool,
        tag: u64,
        last_used: u64,
    }

    /// A nested-`Vec` cache with timestamped LRU ways, indexed with `%`
    /// and `/`: the reference the move-to-front arena must match
    /// operation for operation.
    struct Oracle {
        sets: Vec<Vec<Way>>,
        clock: u64,
    }

    impl Oracle {
        fn new(config: CacheConfig) -> Self {
            Oracle {
                sets: vec![vec![Way::default(); config.ways]; config.sets()],
                clock: 0,
            }
        }

        fn split(&self, line: u64) -> (usize, u64) {
            let sets = self.sets.len() as u64;
            ((line % sets) as usize, line / sets)
        }

        fn probe_and_touch(&mut self, line: u64) -> bool {
            self.clock += 1;
            let (set, tag) = self.split(line);
            for way in self.sets[set].iter_mut() {
                if way.valid && way.tag == tag {
                    way.last_used = self.clock;
                    return true;
                }
            }
            false
        }

        fn fill(&mut self, line: u64) -> Option<u64> {
            self.clock += 1;
            let (set_index, tag) = self.split(line);
            let sets_count = self.sets.len() as u64;
            let set = &mut self.sets[set_index];
            if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
                way.last_used = self.clock;
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
                last_used: self.clock,
            };
            if victim.valid {
                Some(victim.tag * sets_count + set_index as u64)
            } else {
                None
            }
        }

        fn resident_lines(&self) -> usize {
            self.sets.iter().flatten().filter(|w| w.valid).count()
        }

        /// Every resident line, sorted.
        fn lines(&self) -> Vec<u64> {
            let sets = self.sets.len() as u64;
            let mut out: Vec<u64> = (0..self.sets.len())
                .flat_map(|s| self.sets[s].iter().map(move |w| (s as u64, w)))
                .filter(|(_, w)| w.valid)
                .map(|(s, w)| w.tag * sets + s)
                .collect();
            out.sort_unstable();
            out
        }
    }

    /// Replays `ops` on the arena and the oracle, comparing every hit
    /// and the resident lines. An arena `probe_or_insert` is an oracle
    /// probe followed, on a miss, by a fill. An op is (kind, set, tag,
    /// raw line): lines mostly crowd four sets so misses evict; odd
    /// kinds use the raw line to reach every set.
    fn matches_oracle(
        config: CacheConfig,
        ops: &[(u8, u64, u64, u64)],
    ) -> Result<(), proptest::TestCaseError> {
        let mut cache = SetAssocCache::new(config);
        let mut oracle = Oracle::new(config);
        let sets = config.sets() as u64;
        for &(kind, set, tag, raw) in ops {
            let line = if kind % 2 == 1 { raw } else { tag * sets + set };
            let hit = oracle.probe_and_touch(line);
            if !hit {
                oracle.fill(line);
            }
            proptest::prop_assert_eq!(cache.probe_or_insert(line), hit);
        }
        proptest::prop_assert_eq!(lines(&cache), oracle.lines());
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
        /// The move-to-front arena's probe-or-insert gives the stamp
        /// LRU's hits and resident lines on the tiny and Table I
        /// geometries.
        #[test]
        fn flat_arena_matches_nested_lru(
            index in 0u8..4,
            ops in proptest::collection::vec((0u8..4, 0u64..4, 0u64..40, 0u64..1 << 40), 1..300)
        ) {
            matches_oracle(geometry(index), &ops)?;
        }
    }
}
