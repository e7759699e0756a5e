//! A frame-indexed table: one value per physical frame, stored in
//! chunks that are allocated when a frame in them is first written.

use bf_types::Ppn;

/// log2 of the frames per chunk.
const CHUNK_SHIFT: u32 = 12;

/// Frames per chunk: 4096 frames, 16 MB of modelled memory.
const CHUNK_FRAMES: usize = 1 << CHUNK_SHIFT;

/// One value of type `T` per physical frame, indexed by frame number.
///
/// Two levels: a directory of chunk pointers indexed by `ppn >> 12`,
/// and chunks of 4096 values. A chunk is allocated the first time one
/// of its frames is written through [`FrameTable::slot_mut`]. Resident
/// memory therefore follows the frames in use — the singletons at the
/// bottom of the pool and the huge-page runs carved from its top — not
/// the size of the pool, and a lookup is two dependent loads with no
/// hashing. Chunks live as long as the table.
///
/// Frames whose chunk was never allocated read as absent
/// ([`FrameTable::get`] returns `None`); every slot of an allocated
/// chunk starts as `T::default()`.
///
/// # Examples
///
/// ```
/// use bf_mem::FrameTable;
/// use bf_types::Ppn;
///
/// let mut counts: FrameTable<u32> = FrameTable::default();
/// assert_eq!(counts.get(Ppn::new(9)), None);
/// *counts.slot_mut(Ppn::new(9)) += 2;
/// assert_eq!(counts.get(Ppn::new(9)), Some(&2));
/// assert_eq!(counts.get(Ppn::new(10)), Some(&0), "same chunk, default slot");
/// ```
#[derive(Default)]
pub struct FrameTable<T> {
    chunks: Vec<Option<Box<[T; CHUNK_FRAMES]>>>,
}

impl<T: Default> FrameTable<T> {
    /// The slot of `frame`, or `None` if its chunk was never allocated.
    #[inline]
    pub fn get(&self, frame: Ppn) -> Option<&T> {
        let (chunk, slot) = split(frame);
        Some(&self.chunks.get(chunk)?.as_deref()?[slot])
    }

    /// The slot of `frame` for writing, or `None` if its chunk was never
    /// allocated. Allocates nothing.
    #[inline]
    pub fn get_mut(&mut self, frame: Ppn) -> Option<&mut T> {
        let (chunk, slot) = split(frame);
        Some(&mut self.chunks.get_mut(chunk)?.as_deref_mut()?[slot])
    }

    /// The slot of `frame` for writing, allocating its chunk (every slot
    /// `T::default()`) on first touch.
    pub fn slot_mut(&mut self, frame: Ppn) -> &mut T {
        let (chunk, slot) = split(frame);
        if chunk >= self.chunks.len() {
            self.chunks.resize_with(chunk + 1, || None);
        }
        &mut self.chunks[chunk].get_or_insert_with(new_chunk)[slot]
    }
}

impl<T> std::fmt::Debug for FrameTable<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameTable")
            .field(
                "chunks",
                &self.chunks.iter().filter(|c| c.is_some()).count(),
            )
            .finish()
    }
}

/// Directory index and slot index of `frame`.
#[inline]
fn split(frame: Ppn) -> (usize, usize) {
    let raw = frame.raw() as usize;
    (raw >> CHUNK_SHIFT, raw & (CHUNK_FRAMES - 1))
}

fn new_chunk<T: Default>() -> Box<[T; CHUNK_FRAMES]> {
    let slots: Box<[T]> = std::iter::repeat_with(T::default)
        .take(CHUNK_FRAMES)
        .collect();
    slots
        .try_into()
        .unwrap_or_else(|_| unreachable!("a chunk holds CHUNK_FRAMES slots"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_chunks_read_none_and_get_mut_allocates_nothing() {
        let mut table: FrameTable<u16> = FrameTable::default();
        assert_eq!(table.get(Ppn::new(0)), None);
        assert_eq!(table.get_mut(Ppn::new(1 << 23)), None);
        assert!(table.chunks.is_empty());
    }

    #[test]
    fn chunks_are_allocated_on_first_touch_only() {
        let mut table: FrameTable<u32> = FrameTable::default();
        let top = Ppn::new((1 << 23) - 1);
        *table.slot_mut(top) = 7;
        assert_eq!(table.chunks.len(), 1 << (23 - CHUNK_SHIFT));
        assert_eq!(table.chunks.iter().filter(|c| c.is_some()).count(), 1);
        *table.slot_mut(Ppn::new(3)) = 1;
        assert_eq!(table.chunks.iter().filter(|c| c.is_some()).count(), 2);
        assert_eq!(table.get(top), Some(&7));
        assert_eq!(table.get(Ppn::new(3)), Some(&1));
        assert_eq!(table.get(Ppn::new(4)), Some(&0));
        assert_eq!(table.get(Ppn::new(CHUNK_FRAMES as u64)), None);
        assert_eq!(format!("{table:?}"), "FrameTable { chunks: 2 }");
    }

    #[test]
    fn neighbouring_frames_across_a_chunk_boundary_are_distinct() {
        let mut table: FrameTable<u64> = FrameTable::default();
        let last = Ppn::new(CHUNK_FRAMES as u64 - 1);
        let first = Ppn::new(CHUNK_FRAMES as u64);
        *table.slot_mut(last) = 1;
        *table.slot_mut(first) = 2;
        *table.get_mut(last).unwrap() += 10;
        assert_eq!(table.get(last), Some(&11));
        assert_eq!(table.get(first), Some(&2));
    }

    /// The `FastMap` implementations of `PhysMemory` and `FrameAllocator`
    /// that the frame table replaced, kept as the reference for
    /// `frame_table_matches_the_fastmap_references`.
    mod reference {
        use bf_types::{FastMap, Ppn, TABLE_ENTRIES};

        #[derive(Default)]
        pub struct PhysMemory {
            pages: FastMap<Ppn, Box<[u64; TABLE_ENTRIES]>>,
        }

        impl PhysMemory {
            pub fn populated_pages(&self) -> usize {
                self.pages.len()
            }

            pub fn read_entry(&self, frame: Ppn, index: usize) -> u64 {
                self.pages.get(&frame).map_or(0, |page| page[index])
            }

            pub fn write_entry(&mut self, frame: Ppn, index: usize, value: u64) {
                self.page_mut(frame)[index] = value;
            }

            pub fn copy_page(&mut self, src: Ppn, dst: Ppn) {
                match self.pages.get(&src).map(|p| **p) {
                    Some(words) => *self.page_mut(dst) = words,
                    None => {
                        if let Some(page) = self.pages.get_mut(&dst) {
                            **page = [0; TABLE_ENTRIES];
                        }
                    }
                }
            }

            pub fn release_page(&mut self, frame: Ppn) {
                self.pages.remove(&frame);
            }

            fn page_mut(&mut self, frame: Ppn) -> &mut [u64; TABLE_ENTRIES] {
                self.pages
                    .entry(frame)
                    .or_insert_with(|| Box::new([0; TABLE_ENTRIES]))
            }
        }

        pub struct FrameAllocator {
            bump_low: u64,
            bump_high: u64,
            free_list: Vec<Ppn>,
            refcounts: FastMap<Ppn, u32>,
        }

        impl FrameAllocator {
            pub fn new(capacity: u64) -> Self {
                FrameAllocator {
                    bump_low: 1,
                    bump_high: capacity,
                    free_list: Vec::new(),
                    refcounts: FastMap::default(),
                }
            }

            pub fn live_frames(&self) -> u64 {
                self.refcounts.len() as u64
            }

            pub fn alloc(&mut self) -> Option<Ppn> {
                let frame = if let Some(frame) = self.free_list.pop() {
                    frame
                } else if self.bump_low < self.bump_high {
                    self.bump_low += 1;
                    Ppn::new(self.bump_low - 1)
                } else {
                    return None;
                };
                self.refcounts.insert(frame, 1);
                Some(frame)
            }

            pub fn alloc_contiguous(&mut self, count: u64, align: u64) -> Option<Ppn> {
                let end = self.bump_high;
                let start = end.checked_sub(count)? / align * align;
                if start < self.bump_low || start + count > end {
                    return None;
                }
                self.bump_high = start;
                for i in 0..count {
                    self.refcounts.insert(Ppn::new(start + i), 1);
                }
                Some(Ppn::new(start))
            }

            pub fn refcount(&self, frame: Ppn) -> u32 {
                self.refcounts.get(&frame).copied().unwrap_or(0)
            }

            pub fn inc_ref(&mut self, frame: Ppn) {
                *self.refcounts.get_mut(&frame).expect("live frame") += 1;
            }

            pub fn dec_ref(&mut self, frame: Ppn) -> bool {
                let count = self.refcounts.get_mut(&frame).expect("live frame");
                *count -= 1;
                if *count == 0 {
                    self.refcounts.remove(&frame);
                    self.free_list.push(frame);
                    true
                } else {
                    false
                }
            }
        }
    }

    proptest::proptest! {
        /// Random `alloc`, `alloc_contiguous`, `inc_ref`, `dec_ref`,
        /// `write_entry`, `read_entry`, `copy_page` and `release_page`
        /// sequences give the same frames (free-list reuse included),
        /// reads, reference counts, `live_frames` and `populated_pages`
        /// as the `FastMap` references. Pools span three to five chunks,
        /// and huge-page-sized runs come from the top.
        #[test]
        fn frame_table_matches_the_fastmap_references(
            pool in 0u64..3,
            ops in proptest::collection::vec((0u8..8, 0u64..1 << 20, 0u64..1 << 20, 0u64..u64::MAX), 1..300),
        ) {
            use crate::{FrameAllocator, PhysMemory};
            let capacity = [2 * CHUNK_FRAMES as u64 + 100, 3 * CHUNK_FRAMES as u64, 20_000][pool as usize];
            let mut frames = FrameAllocator::new(capacity);
            let mut mem = PhysMemory::new();
            let mut ref_frames = reference::FrameAllocator::new(capacity);
            let mut ref_mem = reference::PhysMemory::default();
            let mut live: Vec<Ppn> = Vec::new();
            // Entry operations pick from 24 frames spread over every chunk
            // of the pool (and past its end), so copies and releases often
            // meet populated pages.
            let pages: Vec<Ppn> = (0..24).map(|i| Ppn::new(i * (capacity + 64) / 24 + i % 3)).collect();
            for (op, a, b, value) in ops {
                let frame = pages[(a % 24) as usize];
                let other = pages[(b % 24) as usize];
                let index = (value % 512) as usize;
                match op {
                    0 => {
                        let got = frames.alloc();
                        proptest::prop_assert_eq!(got, ref_frames.alloc());
                        live.extend(got);
                    }
                    1 => {
                        let count = 1 + a % 1024;
                        let align = [1, 8, 512][(b % 3) as usize];
                        let got = frames.alloc_contiguous(count, align);
                        proptest::prop_assert_eq!(got, ref_frames.alloc_contiguous(count, align));
                        if let Some(start) = got {
                            live.extend((0..count).map(|i| start.offset(i)));
                        }
                    }
                    2 | 3 if !live.is_empty() => {
                        let pick = (a % live.len() as u64) as usize;
                        let frame = live[pick];
                        if op == 2 {
                            frames.inc_ref(frame);
                            ref_frames.inc_ref(frame);
                            live.push(frame);
                        } else {
                            let freed = frames.dec_ref(frame);
                            proptest::prop_assert_eq!(freed, ref_frames.dec_ref(frame));
                            live.swap_remove(pick);
                        }
                    }
                    4 => {
                        mem.write_entry(frame, index, value);
                        ref_mem.write_entry(frame, index, value);
                    }
                    5 => {
                        proptest::prop_assert_eq!(
                            mem.read_entry(frame, index),
                            ref_mem.read_entry(frame, index)
                        );
                    }
                    6 => {
                        mem.copy_page(frame, other);
                        ref_mem.copy_page(frame, other);
                    }
                    7 => {
                        mem.release_page(frame);
                        ref_mem.release_page(frame);
                    }
                    _ => {}
                }
                proptest::prop_assert_eq!(frames.live_frames(), ref_frames.live_frames());
                proptest::prop_assert_eq!(mem.populated_pages(), ref_mem.populated_pages());
            }
            for raw in 0..capacity + 64 {
                let frame = Ppn::new(raw);
                proptest::prop_assert_eq!(frames.refcount(frame), ref_frames.refcount(frame));
            }
            for &frame in &pages {
                for index in 0..512 {
                    proptest::prop_assert_eq!(
                        mem.read_entry(frame, index),
                        ref_mem.read_entry(frame, index)
                    );
                }
            }
        }
    }
}
