//! Bounded-memory miss-attribution profiling.
//!
//! A [`Profiler`] answers *where* translation cost comes from, in O(K)
//! memory regardless of footprint:
//!
//! * **Hot regions** — two [`SpaceSaving`] heavy-hitter sketches over
//!   virtual page regions, keyed by `(CCID, VPN >> REGION_SHIFT)`: one
//!   counts TLB misses per region, one counts page-walk cycles. The
//!   sketch guarantees every reported count overestimates the truth by
//!   at most `total / K`, and that any key whose true count exceeds
//!   `total / K` is present — a guaranteed-error top-K.
//! * **Walk paths** — each hardware walk folds into a compact
//!   [`PathSig`] (which level's entry was served by the PWC, the L2,
//!   the L3 or DRAM), accumulated per `(CCID, pid)` as folded-stack
//!   counts exportable in flamegraph `folded` format.
//! * **Blame** — exact per-`(CCID, pid)` miss/walk/walk-cycle counters
//!   (bounded by the process count, not the footprint), so BabelFish
//!   sharing wins show up as attribution collapsing from N private
//!   stacks onto one shared stack.
//!
//! The machine owns per-TLB-set conflict counters separately (they live
//! next to the TLB arrays) and hands them in at snapshot time as
//! [`SetCounts`].
//!
//! Everything here is plain data. The machine only constructs a
//! `Profiler` when profiling was requested, exactly like epoch
//! timelines.

use bf_types::FastMap;
use serde::Serialize;
use std::collections::BTreeMap;

/// log2 pages per profiled region: 64 × 4 KB = 256 KB regions, small
/// enough to localise a hot structure, large enough that K regions
/// cover a meaningful footprint.
pub const REGION_SHIFT: u32 = 6;

/// A sketch key: the container (CCID) plus the page region
/// (`VPN >> REGION_SHIFT`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionKey {
    /// Container CCID group of the accessing process.
    pub ccid: u16,
    /// Virtual page region (4 KB VPN right-shifted by [`REGION_SHIFT`]).
    pub region: u64,
}

/// The Space-Saving heavy-hitter sketch (Metwally, Agrawal & El Abbadi):
/// at most `capacity` monitored keys; an unmonitored arrival recycles
/// the minimum counter, inheriting its count as `error`.
///
/// Guarantees, with `N` = total observed weight and `K` = capacity:
/// for every monitored key, `count - error <= true <= count` and
/// `error <= N / K`; every key with true weight `> N / K` is monitored.
/// The property test below pins both against an exact oracle.
///
/// Fully deterministic: ties on the minimum recycle the lowest slot
/// index, and [`SpaceSaving::entries`] orders by `(count desc, key)`.
///
/// The slots are stored as parallel arrays, and a winner (tournament)
/// tree over `K.next_power_of_two()` leaves keeps the minimum slot at
/// its root. Unfilled leaves count as `u64::MAX` and the left child
/// wins ties, so the root is always the lowest-indexed minimum. Every
/// count change replays one leaf-to-root path, an O(log K) update.
#[derive(Debug, Clone)]
pub struct SpaceSaving {
    keys: Vec<RegionKey>,
    /// One count per tree leaf; `u64::MAX` past the filled slots.
    counts: Vec<u64>,
    /// Maximum possible overestimation each slot inherited when it was
    /// recycled from the previous minimum.
    errors: Vec<u64>,
    index: FastMap<RegionKey, usize>,
    /// Heap-ordered winner tree: node `n` holds the slot winning its
    /// subtree, children are `2n` and `2n + 1`, and leaf `i` sits at
    /// node `counts.len() + i`. Node 0 is unused.
    tree: Vec<u32>,
    capacity: usize,
    total: u64,
}

impl SpaceSaving {
    /// Builds an empty sketch monitoring at most `capacity` keys.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or its tree's nodes overflow a `u32`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "sketch capacity must be positive");
        let leaves = capacity.next_power_of_two();
        let nodes =
            u32::try_from(2 * leaves).expect("sketch capacity must fit a u32 tree node index");
        let mut sketch = SpaceSaving {
            keys: Vec::with_capacity(capacity),
            counts: vec![u64::MAX; leaves],
            errors: Vec::with_capacity(capacity),
            index: FastMap::with_capacity_and_hasher(capacity, Default::default()),
            // Leaf nodes hold their own slot; `rebuild` fills the rest.
            tree: (0..nodes).map(|n| n.saturating_sub(nodes / 2)).collect(),
            capacity,
            total: 0,
        };
        sketch.rebuild();
        sketch
    }

    /// Total observed weight (the `N` of the error bound).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The sketch's guaranteed error bound: no reported count
    /// overestimates its key's true weight by more than this.
    pub fn error_bound(&self) -> u64 {
        self.total / self.capacity as u64
    }

    /// Observes `weight` on `key`.
    pub fn observe(&mut self, key: RegionKey, weight: u64) {
        self.total += weight;
        let slot = match self.index.get(&key) {
            Some(&slot) => {
                self.counts[slot] += weight;
                slot
            }
            None if self.keys.len() < self.capacity => {
                let slot = self.keys.len();
                self.index.insert(key, slot);
                self.keys.push(key);
                self.errors.push(0);
                self.counts[slot] = weight;
                slot
            }
            None => {
                // Recycle the minimum counter (the root's first minimum).
                let slot = self.tree[1] as usize;
                self.index.remove(&self.keys[slot]);
                self.index.insert(key, slot);
                self.keys[slot] = key;
                self.errors[slot] = self.counts[slot];
                self.counts[slot] += weight;
                slot
            }
        };
        self.replay(slot);
    }

    /// The winner of two slots: the smaller count, the left on ties.
    #[inline]
    fn winner(&self, left: u32, right: u32) -> u32 {
        if self.counts[right as usize] < self.counts[left as usize] {
            right
        } else {
            left
        }
    }

    /// Replays the matches on `slot`'s leaf-to-root path.
    #[inline]
    fn replay(&mut self, slot: usize) {
        let mut node = (self.counts.len() + slot) / 2;
        while node > 0 {
            self.tree[node] = self.winner(self.tree[2 * node], self.tree[2 * node + 1]);
            node /= 2;
        }
    }

    /// Replays every match, bottom-up.
    fn rebuild(&mut self) {
        for node in (1..self.counts.len()).rev() {
            self.tree[node] = self.winner(self.tree[2 * node], self.tree[2 * node + 1]);
        }
    }

    /// Monitored keys ordered by count descending (key ascending on
    /// ties), each with its worst-case overestimation.
    pub fn entries(&self) -> Vec<RegionCount> {
        let mut out: Vec<RegionCount> = self
            .keys
            .iter()
            .zip(&self.counts)
            .zip(&self.errors)
            .map(|((key, &count), &error)| RegionCount {
                ccid: key.ccid,
                region: key.region,
                count,
                error,
            })
            .collect();
        out.sort_by(|a, b| {
            b.count
                .cmp(&a.count)
                .then_with(|| (a.ccid, a.region).cmp(&(b.ccid, b.region)))
        });
        out
    }

    /// Drops all monitored keys and resets the total.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.counts.fill(u64::MAX);
        self.errors.clear();
        self.index.clear();
        self.rebuild();
        self.total = 0;
    }
}

/// One exported sketch entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct RegionCount {
    /// Container CCID.
    pub ccid: u16,
    /// Page region (`VPN >> REGION_SHIFT`).
    pub region: u64,
    /// Estimated weight (never underestimates the truth).
    pub count: u64,
    /// Worst-case overestimation of `count`.
    pub error: u64,
}

/// A page walk folded to its serving points: 3 bits per level in walk
/// order (PGD first), each recording where that level's entry came
/// from. Zero is never a valid step, so the step count is recoverable.
pub type PathSig = u32;

/// Serving points of one walk step.
pub mod path_src {
    /// Entry served by the page-walk cache.
    pub const PWC: u32 = 1;
    /// Entry served by the L2 cache.
    pub const L2: u32 = 2;
    /// Entry served by the shared L3.
    pub const L3: u32 = 3;
    /// Entry fetched from DRAM.
    pub const DRAM: u32 = 4;
}

/// Appends one step's serving point to a signature.
#[inline]
pub fn path_push(sig: PathSig, src: u32) -> PathSig {
    (sig << 3) | src
}

/// Decodes a signature into `level:source` frames joined with `;`
/// (e.g. `pgd:pwc;pud:pwc;pmd:l2;pte:dram`). Steps are always the walk
/// levels from the PGD down, so the level name follows from position.
pub fn path_name(sig: PathSig) -> String {
    let mut srcs = Vec::new();
    let mut rest = sig;
    while rest != 0 {
        srcs.push(rest & 0b111);
        rest >>= 3;
    }
    srcs.reverse();
    const LEVELS: [&str; 4] = ["pgd", "pud", "pmd", "pte"];
    let mut out = String::new();
    for (i, src) in srcs.iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        out.push_str(LEVELS.get(i).copied().unwrap_or("x"));
        out.push(':');
        out.push_str(match *src {
            path_src::PWC => "pwc",
            path_src::L2 => "l2",
            path_src::L3 => "l3",
            path_src::DRAM => "dram",
            _ => "?",
        });
    }
    out
}

/// Exact per-`(CCID, pid)` attribution counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct Blame {
    /// Accesses that required at least one hardware walk.
    pub misses: u64,
    /// Hardware walks performed (fault retries walk again).
    pub walks: u64,
    /// Cycles spent in those walks.
    pub walk_cycles: u64,
}

/// One exported blame row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct BlameEntry {
    /// Container CCID.
    pub ccid: u16,
    /// Process id.
    pub pid: u32,
    /// Accesses that required at least one hardware walk.
    pub misses: u64,
    /// Hardware walks performed.
    pub walks: u64,
    /// Cycles spent walking.
    pub walk_cycles: u64,
}

/// One exported folded walk path.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct PathCount {
    /// Container CCID.
    pub ccid: u16,
    /// Process id.
    pub pid: u32,
    /// Decoded signature, e.g. `pgd:pwc;pud:pwc;pte:dram`.
    pub path: String,
    /// Walks that folded to this signature.
    pub count: u64,
}

/// Per-TLB-set conflict counters, aggregated over cores by the machine
/// and handed in at snapshot time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SetCounts {
    /// Misses whose VPN mapped to each set.
    pub misses: Vec<u64>,
    /// Evictions from each set.
    pub evictions: Vec<u64>,
}

impl SetCounts {
    /// Element-wise accumulation (for summing cores).
    pub fn merge(&mut self, other: &SetCounts) {
        if self.misses.len() < other.misses.len() {
            self.misses.resize(other.misses.len(), 0);
            self.evictions.resize(other.evictions.len(), 0);
        }
        for (a, b) in self.misses.iter_mut().zip(&other.misses) {
            *a += b;
        }
        for (a, b) in self.evictions.iter_mut().zip(&other.evictions) {
            *a += b;
        }
    }

    /// Share of all set-mapped misses landing in the hottest tenth of
    /// the sets (1.0 = perfectly conflict-skewed, ~0.1 = uniform).
    /// Zero when no misses were recorded.
    pub fn top_decile_share(&self) -> f64 {
        let total: u64 = self.misses.iter().sum();
        if total == 0 || self.misses.is_empty() {
            return 0.0;
        }
        let mut sorted = self.misses.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let decile = sorted.len().div_ceil(10);
        let top: u64 = sorted[..decile].iter().sum();
        top as f64 / total as f64
    }

    /// Max-over-mean miss skew (1.0 = perfectly balanced). Zero when no
    /// misses were recorded.
    pub fn skew(&self) -> f64 {
        let total: u64 = self.misses.iter().sum();
        if total == 0 || self.misses.is_empty() {
            return 0.0;
        }
        let max = *self.misses.iter().max().expect("non-empty") as f64;
        max / (total as f64 / self.misses.len() as f64)
    }
}

impl Serialize for SetCounts {
    fn to_value(&self) -> serde::Value {
        let mut map = BTreeMap::new();
        map.insert("sets".to_owned(), (self.misses.len() as u64).to_value());
        map.insert("misses".to_owned(), self.misses.to_value());
        map.insert("evictions".to_owned(), self.evictions.to_value());
        map.insert(
            "total_misses".to_owned(),
            self.misses.iter().sum::<u64>().to_value(),
        );
        map.insert(
            "total_evictions".to_owned(),
            self.evictions.iter().sum::<u64>().to_value(),
        );
        map.insert("skew".to_owned(), self.skew().to_value());
        map.insert(
            "top_decile_share".to_owned(),
            self.top_decile_share().to_value(),
        );
        serde::Value::Object(map)
    }
}

/// The online attribution state: two region sketches, exact blame, and
/// folded walk paths. Created per machine when `--profile` is on.
#[derive(Debug, Clone)]
pub struct Profiler {
    top_k: usize,
    miss_regions: SpaceSaving,
    walk_regions: SpaceSaving,
    blame: FastMap<(u16, u32), Blame>,
    paths: FastMap<(u16, u32, PathSig), u64>,
}

impl Profiler {
    /// Builds a profiler whose sketches monitor `top_k` regions each.
    ///
    /// # Panics
    ///
    /// Panics if `top_k` is zero.
    pub fn new(top_k: usize) -> Self {
        Profiler {
            top_k,
            miss_regions: SpaceSaving::new(top_k),
            walk_regions: SpaceSaving::new(top_k),
            blame: FastMap::default(),
            paths: FastMap::default(),
        }
    }

    /// Records one access that missed the TLBs (is about to walk).
    pub fn record_miss(&mut self, ccid: u16, pid: u32, vpn: u64) {
        self.miss_regions.observe(
            RegionKey {
                ccid,
                region: vpn >> REGION_SHIFT,
            },
            1,
        );
        self.blame.entry((ccid, pid)).or_default().misses += 1;
    }

    /// Records one completed hardware walk.
    pub fn record_walk(&mut self, ccid: u16, pid: u32, vpn: u64, cycles: u64, path: PathSig) {
        self.walk_regions.observe(
            RegionKey {
                ccid,
                region: vpn >> REGION_SHIFT,
            },
            cycles,
        );
        let blame = self.blame.entry((ccid, pid)).or_default();
        blame.walks += 1;
        blame.walk_cycles += cycles;
        *self.paths.entry((ccid, pid, path)).or_insert(0) += 1;
    }

    /// Drops all recorded attribution (start of the measurement window).
    pub fn reset(&mut self) {
        self.miss_regions.clear();
        self.walk_regions.clear();
        self.blame.clear();
        self.paths.clear();
    }

    /// Freezes the current attribution into an exportable snapshot.
    /// `sets` carries the machine's aggregated per-TLB-set counters.
    /// Blame and paths are sorted by key, so the export does not depend
    /// on map iteration order.
    pub fn snapshot(&self, sets: Option<SetCounts>) -> ProfileSnapshot {
        let total_walks = self.blame.values().map(|b| b.walks).sum();
        let mut blame: Vec<_> = self.blame.iter().collect();
        blame.sort_unstable_by_key(|&(&key, _)| key);
        let mut paths: Vec<_> = self.paths.iter().collect();
        paths.sort_unstable_by_key(|&(&key, _)| key);
        ProfileSnapshot {
            top_k: self.top_k as u64,
            region_shift: REGION_SHIFT,
            total_misses: self.miss_regions.total(),
            total_walks,
            total_walk_cycles: self.walk_regions.total(),
            miss_regions: self.miss_regions.entries(),
            walk_regions: self.walk_regions.entries(),
            blame: blame
                .into_iter()
                .map(|(&(ccid, pid), b)| BlameEntry {
                    ccid,
                    pid,
                    misses: b.misses,
                    walks: b.walks,
                    walk_cycles: b.walk_cycles,
                })
                .collect(),
            paths: paths
                .into_iter()
                .map(|(&(ccid, pid, sig), &count)| PathCount {
                    ccid,
                    pid,
                    path: path_name(sig),
                    count,
                })
                .collect(),
            sets,
        }
    }
}

/// A frozen, exportable attribution profile. Everything is ordered
/// deterministically (sketches by count-then-key, blame and paths by
/// key), so serialising the same run twice is byte-identical — the
/// property the live-vs-replay CI gate bites on.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSnapshot {
    /// Sketch capacity (the K of the error bound).
    pub top_k: u64,
    /// log2 pages per region.
    pub region_shift: u32,
    /// Total misses observed (the N of the miss sketch's bound).
    pub total_misses: u64,
    /// Total hardware walks.
    pub total_walks: u64,
    /// Total walk cycles (the N of the walk-cycle sketch's bound).
    pub total_walk_cycles: u64,
    /// Miss-hot regions, count descending.
    pub miss_regions: Vec<RegionCount>,
    /// Walk-cycle-hot regions, count descending.
    pub walk_regions: Vec<RegionCount>,
    /// Exact per-(CCID, pid) attribution.
    pub blame: Vec<BlameEntry>,
    /// Folded walk paths per (CCID, pid).
    pub paths: Vec<PathCount>,
    /// Per-TLB-set conflict counters (the L2 4 KB structure).
    pub sets: Option<SetCounts>,
}

impl ProfileSnapshot {
    /// Share of all recorded misses attributed to the hottest region
    /// (an upper estimate, like every sketch count). Zero when nothing
    /// was recorded.
    pub fn miss_top_share(&self) -> f64 {
        match (self.miss_regions.first(), self.total_misses) {
            (Some(top), n) if n > 0 => top.count as f64 / n as f64,
            _ => 0.0,
        }
    }

    /// The folded-stack flamegraph lines:
    /// `ccid<C>;pid<P>;<level:source;...> <count>`, one walk path per
    /// line, ready for `flamegraph.pl` / `inferno-flamegraph`.
    pub fn folded_lines(&self) -> Vec<String> {
        self.paths
            .iter()
            .map(|p| format!("ccid{};pid{};{} {}", p.ccid, p.pid, p.path, p.count))
            .collect()
    }
}

impl Serialize for ProfileSnapshot {
    fn to_value(&self) -> serde::Value {
        let mut map = BTreeMap::new();
        map.insert("top_k".to_owned(), self.top_k.to_value());
        map.insert(
            "region_shift".to_owned(),
            (self.region_shift as u64).to_value(),
        );
        map.insert("total_misses".to_owned(), self.total_misses.to_value());
        map.insert("total_walks".to_owned(), self.total_walks.to_value());
        map.insert(
            "total_walk_cycles".to_owned(),
            self.total_walk_cycles.to_value(),
        );
        map.insert(
            "miss_error_bound".to_owned(),
            (self.total_misses / self.top_k.max(1)).to_value(),
        );
        map.insert(
            "miss_top_share".to_owned(),
            self.miss_top_share().to_value(),
        );
        map.insert("miss_regions".to_owned(), self.miss_regions.to_value());
        map.insert("walk_regions".to_owned(), self.walk_regions.to_value());
        map.insert("blame".to_owned(), self.blame.to_value());
        map.insert("paths".to_owned(), self.paths.to_value());
        map.insert("sets".to_owned(), self.sets.to_value());
        serde::Value::Object(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift PRNG so the property tests need no
    /// external randomness.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }

        fn below(&mut self, bound: u64) -> u64 {
            self.next() % bound
        }
    }

    fn key(ccid: u16, region: u64) -> RegionKey {
        RegionKey { ccid, region }
    }

    /// The linear-scan Space-Saving sketch the winner tree replaced,
    /// kept as the oracle for its victim choice: recycling scans every
    /// slot for the first minimum.
    struct ScanSpaceSaving {
        slots: Vec<RegionCount>,
        capacity: usize,
        total: u64,
    }

    impl ScanSpaceSaving {
        fn new(capacity: usize) -> Self {
            ScanSpaceSaving {
                slots: Vec::new(),
                capacity,
                total: 0,
            }
        }

        fn observe(&mut self, key: RegionKey, weight: u64) {
            self.total += weight;
            let found = self
                .slots
                .iter_mut()
                .find(|s| (s.ccid, s.region) == (key.ccid, key.region));
            if let Some(slot) = found {
                slot.count += weight;
            } else if self.slots.len() < self.capacity {
                self.slots.push(RegionCount {
                    ccid: key.ccid,
                    region: key.region,
                    count: weight,
                    error: 0,
                });
            } else {
                let slot = self.slots.iter_mut().min_by_key(|s| s.count).unwrap();
                *slot = RegionCount {
                    ccid: key.ccid,
                    region: key.region,
                    count: slot.count + weight,
                    error: slot.count,
                };
            }
        }

        fn entries(&self) -> Vec<RegionCount> {
            let mut out = self.slots.clone();
            out.sort_by(|a, b| {
                b.count
                    .cmp(&a.count)
                    .then_with(|| (a.ccid, a.region).cmp(&(b.ccid, b.region)))
            });
            out
        }

        fn clear(&mut self) {
            self.slots.clear();
            self.total = 0;
        }
    }

    /// The winner tree recycles exactly the scan's victim. Weight-1
    /// streams over a small key space make count ties the common case,
    /// so a tree that let the right child win ties would evict another
    /// key; capacities include non-powers of two, whose padded leaves
    /// must never win, and a mid-stream `clear` must reset the tree.
    #[test]
    fn winner_tree_matches_linear_scan_sketch() {
        for capacity in [1usize, 2, 3, 5, 8, 64, 100] {
            for (seed, keys, max_weight) in [
                (0x5eed_u64, 12u64, 1u64),
                (0xfeed, 400, 1),
                (0xc0de, 300, 6),
            ] {
                let mut rng = Rng(seed ^ capacity as u64);
                let mut tree = SpaceSaving::new(capacity);
                let mut scan = ScanSpaceSaving::new(capacity);
                for op in 0..4000 {
                    if op == 2500 {
                        tree.clear();
                        scan.clear();
                    } else {
                        let k = key(rng.below(2) as u16, rng.below(keys));
                        let weight = 1 + rng.below(max_weight);
                        tree.observe(k, weight);
                        scan.observe(k, weight);
                    }
                    assert_eq!(tree.entries(), scan.entries(), "K={capacity} op {op}");
                    assert_eq!(tree.total(), scan.total);
                    assert_eq!(tree.error_bound(), scan.total / capacity as u64);
                }
            }
        }
    }

    #[test]
    fn sketch_exact_when_under_capacity() {
        let mut sketch = SpaceSaving::new(8);
        for i in 0..5u64 {
            sketch.observe(key(1, i), i + 1);
        }
        let entries = sketch.entries();
        assert_eq!(entries.len(), 5);
        assert_eq!(entries[0].count, 5);
        assert_eq!(entries[0].region, 4);
        assert!(entries.iter().all(|e| e.error == 0));
        assert_eq!(sketch.total(), 15);
    }

    #[test]
    fn sketch_recycles_minimum_and_inherits_error() {
        let mut sketch = SpaceSaving::new(2);
        sketch.observe(key(1, 0), 10);
        sketch.observe(key(1, 1), 3);
        sketch.observe(key(1, 2), 1); // recycles region 1 (count 3)
        let entries = sketch.entries();
        assert_eq!(entries.len(), 2);
        let recycled = entries.iter().find(|e| e.region == 2).unwrap();
        assert_eq!(recycled.count, 4);
        assert_eq!(recycled.error, 3);
    }

    /// The Space-Saving guarantees against an exact oracle, over a
    /// skewed deterministic stream:
    ///
    /// 1. every monitored count is within `[true, true + N/K]`;
    /// 2. the slot's own `error` also bounds the overestimation;
    /// 3. every key with true weight above `N/K` is monitored.
    #[test]
    fn sketch_top_k_within_epsilon_n_of_oracle() {
        for (seed, k, rounds) in [
            (0x1234u64, 16usize, 4000u64),
            (0xbeef, 8, 2500),
            (7, 32, 6000),
        ] {
            let mut rng = Rng(seed);
            let mut sketch = SpaceSaving::new(k);
            let mut oracle: FastMap<RegionKey, u64> = FastMap::default();
            for _ in 0..rounds {
                // Zipf-ish: half the stream hits 4 hot keys, the rest
                // spreads over 64, with weights 1..=4.
                let region = if rng.below(2) == 0 {
                    rng.below(4)
                } else {
                    rng.below(64)
                };
                let ccid = (rng.below(3)) as u16;
                let weight = 1 + rng.below(4);
                sketch.observe(key(ccid, region), weight);
                *oracle.entry(key(ccid, region)).or_insert(0) += weight;
            }
            let n: u64 = oracle.values().sum();
            assert_eq!(sketch.total(), n);
            let bound = n / k as u64;
            assert_eq!(sketch.error_bound(), bound);

            let entries = sketch.entries();
            let monitored: FastMap<RegionKey, &RegionCount> =
                entries.iter().map(|e| (key(e.ccid, e.region), e)).collect();
            for entry in &entries {
                let truth = oracle
                    .get(&key(entry.ccid, entry.region))
                    .copied()
                    .unwrap_or(0);
                assert!(
                    entry.count >= truth,
                    "sketch must never underestimate: {entry:?} vs true {truth}"
                );
                assert!(
                    entry.count - truth <= bound,
                    "overestimation {} exceeds eps*N = {bound} for {entry:?}",
                    entry.count - truth
                );
                assert!(
                    entry.count - truth <= entry.error,
                    "per-slot error bound violated for {entry:?} (true {truth})"
                );
            }
            for (k_, &truth) in &oracle {
                if truth > bound {
                    assert!(
                        monitored.contains_key(k_),
                        "heavy key {k_:?} (true {truth} > {bound}) missing from sketch"
                    );
                }
            }
        }
    }

    #[test]
    fn sketch_entries_order_is_deterministic() {
        let mut a = SpaceSaving::new(4);
        let mut b = SpaceSaving::new(4);
        // Same multiset of observations, different arrival order.
        for (ccid, region, w) in [(1u16, 5u64, 2u64), (2, 9, 2), (1, 1, 7)] {
            a.observe(key(ccid, region), w);
        }
        for (ccid, region, w) in [(1u16, 1u64, 7u64), (2, 9, 2), (1, 5, 2)] {
            b.observe(key(ccid, region), w);
        }
        assert_eq!(a.entries(), b.entries());
    }

    #[test]
    fn path_signatures_round_trip() {
        let mut sig = 0;
        for src in [path_src::PWC, path_src::PWC, path_src::L2, path_src::DRAM] {
            sig = path_push(sig, src);
        }
        assert_eq!(path_name(sig), "pgd:pwc;pud:pwc;pmd:l2;pte:dram");
        // A 2 MB-leaf walk stops at the PMD.
        let mut short = 0;
        for src in [path_src::L3, path_src::PWC, path_src::DRAM] {
            short = path_push(short, src);
        }
        assert_eq!(path_name(short), "pgd:l3;pud:pwc;pmd:dram");
        assert_eq!(path_name(0), "");
    }

    #[test]
    fn profiler_accumulates_blame_and_paths() {
        let mut p = Profiler::new(8);
        p.record_miss(1, 10, 0x40);
        p.record_walk(1, 10, 0x40, 100, path_push(0, path_src::DRAM));
        p.record_miss(1, 11, 0x40);
        p.record_walk(1, 11, 0x40, 50, path_push(0, path_src::DRAM));
        p.record_walk(1, 11, 0x40, 30, path_push(0, path_src::L2));
        let snap = p.snapshot(None);
        assert_eq!(snap.total_misses, 2);
        assert_eq!(snap.total_walks, 3);
        assert_eq!(snap.total_walk_cycles, 180);
        assert_eq!(snap.blame.len(), 2);
        let b11 = snap.blame.iter().find(|b| b.pid == 11).unwrap();
        assert_eq!((b11.misses, b11.walks, b11.walk_cycles), (1, 2, 80));
        // Both pids share one region: the miss sketch has a single key.
        assert_eq!(snap.miss_regions.len(), 1);
        assert_eq!(snap.miss_regions[0].count, 2);
        let folded = snap.folded_lines();
        assert!(folded.contains(&"ccid1;pid10;pgd:dram 1".to_owned()));
        assert!(folded.contains(&"ccid1;pid11;pgd:l2 1".to_owned()));
    }

    /// Blame and paths export sorted by key whatever the arrival
    /// order: records arrive in descending (ccid, pid) order here.
    #[test]
    fn snapshot_sorts_blame_and_paths_by_key() {
        let dram = path_push(0, path_src::DRAM);
        let pwc_l2 = path_push(path_push(0, path_src::PWC), path_src::L2);
        let mut p = Profiler::new(4);
        // Processes that miss but never walk: blame rows, no paths.
        for pid in (20..40).rev() {
            p.record_miss(4, pid, 0x80);
        }
        for (ccid, pid, path) in [
            (3u16, 9u32, dram),
            (3, 9, pwc_l2),
            (3, 2, dram),
            (2, 7, pwc_l2),
            (2, 7, dram),
            (2, 7, pwc_l2),
            (1, 5, dram),
        ] {
            p.record_miss(ccid, pid, 0x40);
            p.record_walk(ccid, pid, 0x40, 10, path);
        }
        let snap = p.snapshot(None);
        let blame: Vec<_> = snap
            .blame
            .iter()
            .map(|b| (b.ccid, b.pid, b.walks))
            .collect();
        let mut expected = vec![(1, 5, 1), (2, 7, 3), (3, 2, 1), (3, 9, 2)];
        expected.extend((20..40).map(|pid| (4, pid, 0)));
        assert_eq!(blame, expected);
        // pgd:dram (sig 4) sorts before pgd:pwc;pud:l2 (sig 0o12).
        assert_eq!(
            snap.folded_lines(),
            [
                "ccid1;pid5;pgd:dram 1",
                "ccid2;pid7;pgd:dram 1",
                "ccid2;pid7;pgd:pwc;pud:l2 2",
                "ccid3;pid2;pgd:dram 1",
                "ccid3;pid9;pgd:dram 1",
                "ccid3;pid9;pgd:pwc;pud:l2 1",
            ]
        );
    }

    #[test]
    fn profiler_reset_clears_everything() {
        let mut p = Profiler::new(4);
        p.record_miss(1, 1, 7);
        p.record_walk(1, 1, 7, 10, path_push(0, path_src::PWC));
        p.reset();
        let snap = p.snapshot(None);
        assert_eq!(snap.total_misses, 0);
        assert_eq!(snap.total_walks, 0);
        assert!(snap.miss_regions.is_empty());
        assert!(snap.blame.is_empty());
        assert!(snap.paths.is_empty());
    }

    #[test]
    fn set_counts_summaries() {
        let counts = SetCounts {
            misses: vec![90, 1, 1, 1, 1, 1, 1, 1, 1, 2],
            evictions: vec![0; 10],
        };
        assert!((counts.top_decile_share() - 0.9).abs() < 1e-9);
        assert!((counts.skew() - 9.0).abs() < 1e-9);
        let empty = SetCounts::default();
        assert_eq!(empty.top_decile_share(), 0.0);
        assert_eq!(empty.skew(), 0.0);
    }

    #[test]
    fn set_counts_merge_resizes() {
        let mut a = SetCounts::default();
        let b = SetCounts {
            misses: vec![1, 2],
            evictions: vec![0, 3],
        };
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.misses, vec![2, 4]);
        assert_eq!(a.evictions, vec![0, 6]);
    }

    #[test]
    fn snapshot_serialises_deterministically() {
        let mut p = Profiler::new(4);
        p.record_miss(2, 7, 0x80);
        p.record_walk(
            2,
            7,
            0x80,
            42,
            path_push(path_push(0, path_src::PWC), path_src::DRAM),
        );
        let sets = SetCounts {
            misses: vec![3, 0],
            evictions: vec![1, 0],
        };
        let v1 = p.snapshot(Some(sets.clone())).to_value();
        let v2 = p.snapshot(Some(sets)).to_value();
        assert_eq!(format!("{v1:?}"), format!("{v2:?}"));
        assert_eq!(v1.get("total_misses").and_then(|x| x.as_u64()), Some(1));
        assert_eq!(
            v1.get("sets")
                .and_then(|s| s.get("total_misses"))
                .and_then(|x| x.as_u64()),
            Some(3)
        );
        let paths = v1.get("paths").and_then(|p| p.as_array()).unwrap();
        assert_eq!(
            paths[0].get("path").and_then(|x| x.as_str()),
            Some("pgd:pwc;pud:dram")
        );
    }
}
