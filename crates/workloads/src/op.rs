//! The operation stream interface between workloads and the simulator.

use bf_containers::Region;
use bf_types::{AccessKind, VirtAddr};
use rand::rngs::StdRng;
use rand::Rng;

/// One unit of simulated work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Execute `instrs_before` non-memory instructions, then perform the
    /// memory access.
    Access {
        /// Address accessed.
        va: VirtAddr,
        /// Read / write / instruction fetch.
        kind: AccessKind,
        /// Non-memory instructions preceding the access.
        instrs_before: u32,
    },
    /// A request completed (latency-percentile boundary for the Fig. 11
    /// Data Serving metrics).
    RequestEnd,
    /// The workload ran to completion (functions).
    Done,
}

/// A deterministic op-stream generator bound to one container.
///
/// Serving and compute workloads are infinite (the simulator stops them
/// after an instruction budget); functions emit [`Op::Done`].
pub trait Workload {
    /// Produces the next operation.
    fn next_op(&mut self) -> Op;

    /// Human-readable name for reports.
    fn label(&self) -> &str;
}

/// Models the instruction-fetch stream: a working set of hot code pages
/// with occasional jumps into the long tail (library/middleware calls).
///
/// Each call to [`CodeFetcher::fetch`] returns the address of the next
/// instruction cache line to fetch; the page changes rarely for regular
/// code (high locality) and more often for branchy code.
///
/// # Examples
///
/// ```
/// use bf_containers::Region;
/// use bf_types::VirtAddr;
/// use bf_workloads::CodeFetcher;
/// use rand::SeedableRng;
///
/// let code = vec![Region::new(VirtAddr::new(0x40_0000), 0x10_000)];
/// let mut fetcher = CodeFetcher::new(code, 0.1);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let va = fetcher.fetch(&mut rng);
/// assert!(va.raw() >= 0x40_0000 && va.raw() < 0x41_0000);
/// ```
#[derive(Debug, Clone)]
pub struct CodeFetcher {
    regions: Vec<Region>,
    total_pages: u64,
    jump_prob: f64,
    current_page: u64,
    offset_in_page: u64,
    /// Hot working set: a small number of pages that receive most jumps.
    hot_pages: Vec<u64>,
}

impl CodeFetcher {
    /// Builds a fetcher over the container's code regions. `jump_prob`
    /// is the per-fetch probability of leaving the current page.
    ///
    /// # Panics
    ///
    /// Panics if `regions` is empty or maps no pages.
    pub fn new(regions: Vec<Region>, jump_prob: f64) -> Self {
        let regions: Vec<Region> = regions.into_iter().filter(|r| !r.is_empty()).collect();
        let total_pages: u64 = regions.iter().map(|r| r.pages()).sum();
        assert!(total_pages > 0, "code fetcher needs at least one code page");
        // The hot set: first few pages of each region (entry points).
        let mut hot_pages = Vec::new();
        let mut base = 0u64;
        for region in &regions {
            for p in 0..region.pages().min(4) {
                hot_pages.push(base + p);
            }
            base += region.pages();
        }
        CodeFetcher {
            regions,
            total_pages,
            jump_prob,
            current_page: 0,
            offset_in_page: 0,
            hot_pages,
        }
    }

    /// The next instruction fetch address.
    pub fn fetch(&mut self, rng: &mut StdRng) -> VirtAddr {
        if rng.gen_bool(self.jump_prob) {
            // 75% of jumps stay in the hot working set.
            self.current_page = if rng.gen_bool(0.75) {
                self.hot_pages[rng.gen_range(0..self.hot_pages.len())]
            } else {
                rng.gen_range(0..self.total_pages)
            };
            self.offset_in_page = rng.gen_range(0..64) * 64;
        } else {
            // Sequential fall-through within the page.
            self.offset_in_page = (self.offset_in_page + 64) % 4096;
            if self.offset_in_page == 0 {
                self.current_page = (self.current_page + 1) % self.total_pages;
            }
        }
        self.page_addr(self.current_page)
            .offset(self.offset_in_page)
    }

    /// Total code pages covered.
    pub fn pages(&self) -> u64 {
        self.total_pages
    }

    fn page_addr(&self, mut index: u64) -> VirtAddr {
        for region in &self.regions {
            if index < region.pages() {
                return region.page(index);
            }
            index -= region.pages();
        }
        unreachable!("page index within total_pages");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn regions() -> Vec<Region> {
        vec![
            Region::new(VirtAddr::new(0x40_0000), 0x8_000),
            Region::new(VirtAddr::new(0x80_0000), 0x4_000),
        ]
    }

    #[test]
    fn fetches_stay_in_code_regions() {
        let mut fetcher = CodeFetcher::new(regions(), 0.2);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let va = fetcher.fetch(&mut rng).raw();
            let in_first = (0x40_0000..0x40_8000).contains(&va);
            let in_second = (0x80_0000..0x80_4000).contains(&va);
            assert!(in_first || in_second, "fetch at {va:#x} escaped");
        }
    }

    #[test]
    fn sequential_code_mostly_stays_on_page() {
        let mut fetcher = CodeFetcher::new(regions(), 0.0);
        let mut rng = StdRng::seed_from_u64(2);
        let first = fetcher.fetch(&mut rng);
        let second = fetcher.fetch(&mut rng);
        assert_eq!(second.raw() - first.raw(), 64, "line-sequential fetches");
    }

    #[test]
    fn high_jump_prob_spreads_pages() {
        let mut fetcher = CodeFetcher::new(regions(), 1.0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut pages = std::collections::HashSet::new();
        for _ in 0..1_000 {
            pages.insert(fetcher.fetch(&mut rng).raw() >> 12);
        }
        assert!(pages.len() > 4, "jumps should visit many pages");
    }

    #[test]
    fn empty_regions_are_filtered() {
        let mut regions = regions();
        regions.push(Region::empty());
        let fetcher = CodeFetcher::new(regions, 0.1);
        assert_eq!(fetcher.pages(), 8 + 4);
    }

    #[test]
    #[should_panic(expected = "at least one code page")]
    fn no_pages_panics() {
        let _ = CodeFetcher::new(vec![Region::empty()], 0.1);
    }
}
