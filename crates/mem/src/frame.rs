//! Physical frame allocator with per-frame reference counts.

use crate::FrameTable;
use bf_types::Ppn;

/// Allocates 4 KB physical frames and aligned contiguous runs (for 2 MB /
/// 1 GB huge pages) from a fixed pool, and reference-counts them.
///
/// Reference counts are what let the kernel substrate share one physical
/// frame among many mappings — the file page cache mapping a library into
/// ten containers, or a CoW page shared between a parent and its forked
/// children (Section II-C). A frame returns to the free pool when its last
/// reference is dropped.
///
/// Singleton 4 KB frames are recycled through a free list; contiguous runs
/// are carved from a bump pointer at the top of the pool (runs are rare
/// and long-lived in the modelled workloads, so fragmentation of the run
/// region is not modelled). Reference counts live in a [`FrameTable`],
/// so the counts of a huge-page run occupy one chunk near the top of the
/// pool and a count lookup hashes nothing.
///
/// # Examples
///
/// ```
/// use bf_mem::FrameAllocator;
///
/// let mut alloc = FrameAllocator::new(2048);
/// let huge = alloc.alloc_contiguous(512, 512).expect("2 MB run");
/// assert_eq!(huge.raw() % 512, 0, "huge pages are naturally aligned");
/// ```
#[derive(Debug)]
pub struct FrameAllocator {
    /// Total frames in the pool.
    capacity: u64,
    /// Next never-used frame for singleton allocation (grows upward).
    bump_low: u64,
    /// One-past-the-end of the region still available to `bump_high`
    /// (contiguous runs grow downward from the top).
    bump_high: u64,
    /// Recycled singleton frames.
    free_list: Vec<Ppn>,
    /// Reference count per frame; 0 ⇒ free.
    refcounts: FrameTable<u32>,
    /// Frames with a nonzero reference count.
    live: u64,
}

impl FrameAllocator {
    /// Creates an allocator managing `capacity` 4 KB frames, i.e.
    /// `capacity * 4096` bytes of physical memory.
    ///
    /// Frame numbers start at 1: frame 0 is reserved so a zero entry in a
    /// page table can never alias a real frame.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 1, "capacity must exceed the reserved frame 0");
        FrameAllocator {
            capacity,
            bump_low: 1,
            bump_high: capacity,
            free_list: Vec::new(),
            refcounts: FrameTable::default(),
            live: 0,
        }
    }

    /// Number of frames the pool was created with.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of frames currently live (reference count ≥ 1).
    pub fn live_frames(&self) -> u64 {
        self.live
    }

    /// Allocates one 4 KB frame with reference count 1.
    ///
    /// Returns `None` when the pool is exhausted (the modelled 32 GB never
    /// fills in the paper's workloads, but callers must handle it — an
    /// exhausted pool is the "out of memory" condition).
    pub fn alloc(&mut self) -> Option<Ppn> {
        let frame = if let Some(frame) = self.free_list.pop() {
            frame
        } else if self.bump_low < self.bump_high {
            let frame = Ppn::new(self.bump_low);
            self.bump_low += 1;
            frame
        } else {
            return None;
        };
        *self.refcounts.slot_mut(frame) = 1;
        self.live += 1;
        Some(frame)
    }

    /// Allocates `count` physically consecutive frames whose first frame
    /// number is a multiple of `align` (huge pages are naturally aligned:
    /// 512/512 for 2 MB, 262144/262144 for 1 GB). Every frame in the run
    /// starts with reference count 1.
    ///
    /// Returns `None` if the remaining contiguous region cannot satisfy
    /// the request.
    pub fn alloc_contiguous(&mut self, count: u64, align: u64) -> Option<Ppn> {
        assert!(count > 0 && align > 0, "count and align must be positive");
        // Carve downward from the top, aligning the start.
        let end = self.bump_high;
        let start = end.checked_sub(count)? / align * align;
        if start < self.bump_low || start + count > end {
            return None;
        }
        self.bump_high = start;
        for i in 0..count {
            *self.refcounts.slot_mut(Ppn::new(start + i)) = 1;
        }
        self.live += count;
        Some(Ppn::new(start))
    }

    /// Current reference count of a frame (0 if free).
    pub fn refcount(&self, frame: Ppn) -> u32 {
        self.refcounts.get(frame).copied().unwrap_or(0)
    }

    /// Adds a reference to a live frame.
    ///
    /// # Panics
    ///
    /// Panics if the frame is not live — incrementing a freed frame is a
    /// use-after-free in the modelled kernel.
    pub fn inc_ref(&mut self, frame: Ppn) {
        *self.live_count(frame, "inc_ref") += 1;
    }

    /// Drops a reference; frees the frame and returns `true` when the last
    /// reference is dropped.
    ///
    /// # Panics
    ///
    /// Panics if the frame is not live.
    pub fn dec_ref(&mut self, frame: Ppn) -> bool {
        let count = self.live_count(frame, "dec_ref");
        *count -= 1;
        if *count == 0 {
            self.live -= 1;
            self.free_list.push(frame);
            true
        } else {
            false
        }
    }

    /// The reference count of a live frame.
    ///
    /// # Panics
    ///
    /// Panics, naming `op`, if the frame is free.
    fn live_count(&mut self, frame: Ppn, op: &str) -> &mut u32 {
        match self.refcounts.get_mut(frame) {
            Some(count) if *count > 0 => count,
            _ => panic!("{op} on free frame {frame}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_returns_distinct_frames() {
        let mut alloc = FrameAllocator::new(16);
        let a = alloc.alloc().unwrap();
        let b = alloc.alloc().unwrap();
        assert_ne!(a, b);
        assert_eq!(alloc.live_frames(), 2);
    }

    #[test]
    fn frame_zero_is_reserved() {
        let mut alloc = FrameAllocator::new(16);
        for _ in 0..10 {
            assert_ne!(alloc.alloc().unwrap().raw(), 0);
        }
    }

    #[test]
    fn freed_frames_are_recycled() {
        let mut alloc = FrameAllocator::new(4);
        let a = alloc.alloc().unwrap();
        assert!(alloc.dec_ref(a));
        let b = alloc.alloc().unwrap();
        assert_eq!(a, b, "free list should recycle the freed frame");
    }

    #[test]
    fn pool_exhaustion_returns_none() {
        let mut alloc = FrameAllocator::new(3);
        assert!(alloc.alloc().is_some());
        assert!(alloc.alloc().is_some());
        assert!(alloc.alloc().is_none());
    }

    #[test]
    fn refcounting_shares_frames() {
        let mut alloc = FrameAllocator::new(8);
        let frame = alloc.alloc().unwrap();
        alloc.inc_ref(frame);
        alloc.inc_ref(frame);
        assert_eq!(alloc.refcount(frame), 3);
        assert!(!alloc.dec_ref(frame));
        assert!(!alloc.dec_ref(frame));
        assert!(alloc.dec_ref(frame));
        assert_eq!(alloc.refcount(frame), 0);
    }

    #[test]
    #[should_panic(expected = "free frame")]
    fn inc_ref_on_free_frame_panics() {
        let mut alloc = FrameAllocator::new(8);
        alloc.inc_ref(Ppn::new(5));
    }

    #[test]
    #[should_panic(expected = "free frame")]
    fn double_free_panics() {
        let mut alloc = FrameAllocator::new(8);
        let frame = alloc.alloc().unwrap();
        alloc.dec_ref(frame);
        alloc.dec_ref(frame);
    }

    #[test]
    fn contiguous_runs_are_aligned_and_live() {
        let mut alloc = FrameAllocator::new(4096);
        let run = alloc.alloc_contiguous(512, 512).unwrap();
        assert_eq!(run.raw() % 512, 0);
        for i in 0..512 {
            assert_eq!(alloc.refcount(run.offset(i)), 1);
        }
    }

    #[test]
    fn contiguous_and_singleton_do_not_overlap() {
        let mut alloc = FrameAllocator::new(2048);
        let run = alloc.alloc_contiguous(512, 512).unwrap();
        for _ in 0..100 {
            let single = alloc.alloc().unwrap();
            assert!(
                single.raw() < run.raw() || single.raw() >= run.raw() + 512,
                "singleton {single} fell inside the contiguous run"
            );
        }
    }

    #[test]
    fn contiguous_exhaustion_returns_none() {
        // 1100 frames leave room for exactly one aligned 512-frame run
        // (frame 0 is reserved, so a run at frame 0 is not allowed).
        let mut alloc = FrameAllocator::new(1100);
        assert!(alloc.alloc_contiguous(512, 512).is_some());
        assert!(alloc.alloc_contiguous(512, 512).is_none());
    }

    #[test]
    fn stats_track_activity() {
        let mut alloc = FrameAllocator::new(64);
        let a = alloc.alloc().unwrap();
        let _b = alloc.alloc().unwrap();
        alloc.inc_ref(a);
        alloc.dec_ref(a);
        assert_eq!(alloc.live_frames(), 2, "a shared frame stays live");
        alloc.dec_ref(a);
        assert_eq!(alloc.live_frames(), 1);
        alloc.alloc_contiguous(8, 8).unwrap();
        assert_eq!(alloc.live_frames(), 9);
    }
}
