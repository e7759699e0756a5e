//! Files and the page cache.

use bf_mem::FrameAllocator;
use bf_types::{FastMap, Ppn};

/// Identifier of a simulated file (a container-image layer member, a
/// mounted data set, a shared library, ...).
///
/// # Examples
///
/// ```
/// use bf_os::FileId;
/// let id = FileId::new(3);
/// assert_eq!(id.raw(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(u64);

impl FileId {
    /// Wraps a raw file id.
    pub fn new(raw: u64) -> Self {
        FileId(raw)
    }

    /// The raw id.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for FileId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "file{}", self.0)
    }
}

/// Counters exposed by [`PageCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageCacheStats {
    /// Lookups that found the page resident (minor-fault path).
    pub hits: u64,
    /// Lookups that had to read the page "from disk" (major-fault path).
    pub fills: u64,
}

/// The kernel page cache: one physical frame per (file, page) pair,
/// shared by every process that maps the file.
///
/// This is what makes "the Linux kernel avoid having multiple copies of
/// the same physical page in memory" (Section II-C): two containers
/// mapping the same library page get the same PPN, which is the
/// precondition for BabelFish's translation sharing.
///
/// # Examples
///
/// ```
/// use bf_mem::FrameAllocator;
/// use bf_os::{FileId, PageCache};
///
/// let mut frames = FrameAllocator::new(1024);
/// let mut cache = PageCache::new();
/// let file = FileId::new(1);
/// let (frame, was_resident) = cache.frame_for(&mut frames, file, 0).unwrap();
/// assert!(!was_resident, "first touch reads from disk");
/// let (again, resident) = cache.frame_for(&mut frames, file, 0).unwrap();
/// assert_eq!(frame, again, "every mapper shares the frame");
/// assert!(resident);
/// ```
#[derive(Debug, Default)]
pub struct PageCache {
    resident: FastMap<(FileId, u64), Ppn>,
    resident_huge: FastMap<(FileId, u64), Ppn>,
    stats: PageCacheStats,
}

impl PageCache {
    /// Creates an empty page cache.
    pub fn new() -> Self {
        PageCache::default()
    }

    /// Returns the frame holding page `page_index` of `file`, reading it
    /// in (allocating a frame) if absent. The boolean is `true` when the
    /// page was already resident — i.e. the fault it serves is *minor*.
    ///
    /// Returns `None` when physical memory is exhausted.
    pub fn frame_for(
        &mut self,
        frames: &mut FrameAllocator,
        file: FileId,
        page_index: u64,
    ) -> Option<(Ppn, bool)> {
        if let Some(&frame) = self.resident.get(&(file, page_index)) {
            self.stats.hits += 1;
            return Some((frame, true));
        }
        let frame = frames.alloc()?;
        self.resident.insert((file, page_index), frame);
        self.stats.fills += 1;
        Some((frame, false))
    }

    /// Returns the 512-frame run holding 2 MB chunk `chunk_index` of
    /// `file` (hugetlbfs-style huge file pages), reading it in if absent.
    /// The boolean is `true` when the chunk was already resident.
    ///
    /// Returns `None` when physical memory is exhausted.
    pub fn huge_frame_for(
        &mut self,
        frames: &mut FrameAllocator,
        file: FileId,
        chunk_index: u64,
    ) -> Option<(Ppn, bool)> {
        if let Some(&run) = self.resident_huge.get(&(file, chunk_index)) {
            self.stats.hits += 1;
            return Some((run, true));
        }
        let run = frames.alloc_contiguous(512, 512)?;
        self.resident_huge.insert((file, chunk_index), run);
        self.stats.fills += 1;
        Some((run, false))
    }

    /// Whether a page is resident (without faulting it in).
    pub fn is_resident(&self, file: FileId, page_index: u64) -> bool {
        self.resident.contains_key(&(file, page_index))
    }

    /// Number of resident pages.
    pub fn resident_pages(&self) -> usize {
        self.resident.len()
    }

    /// Counters.
    pub fn stats(&self) -> PageCacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_fills_then_hits() {
        let mut frames = FrameAllocator::new(64);
        let mut cache = PageCache::new();
        let file = FileId::new(7);
        let (f0, resident0) = cache.frame_for(&mut frames, file, 3).unwrap();
        assert!(!resident0);
        let (f1, resident1) = cache.frame_for(&mut frames, file, 3).unwrap();
        assert!(resident1);
        assert_eq!(f0, f1);
        assert_eq!(cache.stats(), PageCacheStats { hits: 1, fills: 1 });
    }

    #[test]
    fn distinct_pages_get_distinct_frames() {
        let mut frames = FrameAllocator::new(64);
        let mut cache = PageCache::new();
        let file = FileId::new(7);
        let (a, _) = cache.frame_for(&mut frames, file, 0).unwrap();
        let (b, _) = cache.frame_for(&mut frames, file, 1).unwrap();
        let (c, _) = cache.frame_for(&mut frames, FileId::new(8), 0).unwrap();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(cache.resident_pages(), 3);
    }

    #[test]
    fn residency_query_does_not_fill() {
        let mut frames = FrameAllocator::new(64);
        let mut cache = PageCache::new();
        let file = FileId::new(1);
        assert!(!cache.is_resident(file, 0));
        cache.frame_for(&mut frames, file, 0).unwrap();
        assert!(cache.is_resident(file, 0));
    }

    #[test]
    fn huge_chunks_share_runs() {
        let mut frames = FrameAllocator::new(4096);
        let mut cache = PageCache::new();
        let file = FileId::new(2);
        let (run, resident) = cache.huge_frame_for(&mut frames, file, 0).unwrap();
        assert!(!resident);
        assert_eq!(run.raw() % 512, 0, "huge runs are aligned");
        let (again, resident) = cache.huge_frame_for(&mut frames, file, 0).unwrap();
        assert!(resident);
        assert_eq!(run, again);
        // Base pages and huge chunks are independent namespaces.
        let (base, _) = cache.frame_for(&mut frames, file, 0).unwrap();
        assert_ne!(base, run);
    }

    #[test]
    fn exhaustion_propagates() {
        let mut frames = FrameAllocator::new(2);
        let mut cache = PageCache::new();
        assert!(cache.frame_for(&mut frames, FileId::new(1), 0).is_some());
        assert!(cache.frame_for(&mut frames, FileId::new(1), 1).is_none());
    }
}
