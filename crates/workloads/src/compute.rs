//! Compute workloads: GraphChi-style PageRank and FIO-style random I/O
//! (Section VI).

use crate::op::{CodeFetcher, Op, Workload};
use bf_containers::ContainerLayout;
use bf_types::AccessKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// GraphChi running PageRank over a shared 500 MB graph: sequential
/// scans over vertex blocks interleaved with low-locality neighbour
/// lookups, plus heavy private edge buffering ("GraphChi operates on
/// shared vertices, but uses internal buffering for the edges",
/// Section VII-A) — the combination that gives it the smallest BabelFish
/// gains of the compute pair.
///
/// # Examples
///
/// ```no_run
/// # use bf_workloads::{GraphCompute, Workload};
/// # fn layout() -> bf_containers::ContainerLayout { unimplemented!() }
/// let mut pagerank = GraphCompute::new(layout(), 7);
/// let op = pagerank.next_op();
/// ```
#[derive(Debug)]
pub struct GraphCompute {
    layout: ContainerLayout,
    fetcher: CodeFetcher,
    rng: StdRng,
    scan_cursor: u64,
    step: u32,
    label: String,
}

impl GraphCompute {
    /// Builds the PageRank generator.
    ///
    /// # Panics
    ///
    /// Panics if the layout has no dataset or heap.
    pub fn new(layout: ContainerLayout, seed: u64) -> Self {
        assert!(
            !layout.dataset.is_empty(),
            "graph compute requires a dataset (the graph)"
        );
        assert!(
            !layout.heap.is_empty(),
            "graph compute requires a heap (edge buffers)"
        );
        GraphCompute {
            fetcher: CodeFetcher::new(layout.code_regions(), 0.05),
            rng: StdRng::seed_from_u64(seed),
            scan_cursor: seed % layout.dataset.pages().max(1),
            step: 0,
            label: format!("graphchi-{seed}"),
            layout,
        }
    }
}

impl Workload for GraphCompute {
    fn next_op(&mut self) -> Op {
        self.step = self.step.wrapping_add(1);
        match self.step % 8 {
            // Occasional instruction fetch: PageRank's code is tight and
            // regular (48% shared instruction hits in Fig. 10b).
            0 => Op::Access {
                va: self.fetcher.fetch(&mut self.rng),
                kind: AccessKind::Fetch,
                instrs_before: 20,
            },
            // Sequential vertex-block scan (each container starts at its
            // own offset).
            1 => {
                self.scan_cursor = (self.scan_cursor + 1) % self.layout.dataset.pages();
                Op::Access {
                    va: self.layout.dataset.page(self.scan_cursor),
                    kind: AccessKind::Read,
                    instrs_before: 40,
                }
            }
            // Low-locality neighbour lookups across the whole graph —
            // "fairly random, causing variation between the data pages
            // accessed by the two containers" (Section VII-B).
            2 | 3 => {
                let page = self.rng.gen_range(0..self.layout.dataset.pages());
                let offset = self.rng.gen_range(0..64u64) * 64;
                Op::Access {
                    va: self.layout.dataset.page(page).offset(offset),
                    kind: AccessKind::Read,
                    instrs_before: 35,
                }
            }
            // Private edge buffers: GraphChi "uses internal buffering
            // for the edges. As a result, most of the active pte_ts are
            // unshareable" (Section VII-A) — buffering dominates the op
            // mix.
            _ => {
                let pages = (self.layout.heap.pages() / 2).max(1);
                let page = self.rng.gen_range(0..pages);
                let kind = if self.rng.gen_bool(0.6) {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                Op::Access {
                    va: self.layout.heap.page(page),
                    kind,
                    instrs_before: 25,
                }
            }
        }
    }

    fn label(&self) -> &str {
        &self.label
    }
}

/// FIO performing in-memory operations on a shared random dataset with
/// *regular* access patterns — sequential 64 KB runs at random starting
/// points, which lets one container's translations serve the other
/// ("FIO has higher gains because its more regular access patterns
/// enable higher shared translation reuse", Section VII-C).
///
/// # Examples
///
/// ```no_run
/// # use bf_workloads::{FioCompute, Workload};
/// # fn layout() -> bf_containers::ContainerLayout { unimplemented!() }
/// let mut fio = FioCompute::new(layout(), 7);
/// let op = fio.next_op();
/// ```
#[derive(Debug)]
pub struct FioCompute {
    layout: ContainerLayout,
    fetcher: CodeFetcher,
    rng: StdRng,
    run_page: u64,
    run_remaining: u32,
    step: u32,
    label: String,
}

impl FioCompute {
    /// Pages per sequential run (64 KB).
    const RUN_PAGES: u32 = 16;

    /// Builds the FIO generator.
    ///
    /// # Panics
    ///
    /// Panics if the layout has no dataset.
    pub fn new(layout: ContainerLayout, seed: u64) -> Self {
        assert!(!layout.dataset.is_empty(), "fio requires a dataset");
        FioCompute {
            fetcher: CodeFetcher::new(layout.code_regions(), 0.04),
            rng: StdRng::seed_from_u64(seed),
            run_page: 0,
            run_remaining: 0,
            step: 0,
            label: format!("fio-{seed}"),
            layout,
        }
    }
}

impl Workload for FioCompute {
    fn next_op(&mut self) -> Op {
        self.step = self.step.wrapping_add(1);
        if self.step.is_multiple_of(16) {
            return Op::Access {
                va: self.fetcher.fetch(&mut self.rng),
                kind: AccessKind::Fetch,
                instrs_before: 15,
            };
        }
        if self.run_remaining == 0 {
            // Start a new sequential run at a random (aligned) offset —
            // runs are aligned so co-located containers land on the same
            // page sets.
            let runs = (self.layout.dataset.pages() / Self::RUN_PAGES as u64).max(1);
            self.run_page = self.rng.gen_range(0..runs) * Self::RUN_PAGES as u64;
            self.run_remaining = Self::RUN_PAGES;
        }
        let page = self.run_page + (Self::RUN_PAGES - self.run_remaining) as u64;
        self.run_remaining -= 1;
        let kind = if self.rng.gen_bool(0.3) {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        Op::Access {
            va: self.layout.dataset.page(page % self.layout.dataset.pages()),
            kind,
            instrs_before: 30,
        }
    }

    fn label(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bf_containers::Region;
    use bf_types::VirtAddr;

    fn layout() -> ContainerLayout {
        ContainerLayout {
            code: Region::new(VirtAddr::new(0x40_0000), 0x8_000),
            data: Region::empty(),
            libs: vec![],
            lib_data: Region::empty(),
            middleware: Region::empty(),
            infra: vec![],
            dataset: Region::new(VirtAddr::new(0x1_0000_0000), 8 << 20),
            heap: Region::new(VirtAddr::new(0x2_0000_0000), 2 << 20),
            stack: Region::empty(),
        }
    }

    #[test]
    fn graph_ops_cover_scan_random_and_buffers() {
        let lay = layout();
        let mut graph = GraphCompute::new(lay.clone(), 1);
        let mut dataset_reads = 0;
        let mut heap_writes = 0;
        let mut fetches = 0;
        for _ in 0..1_000 {
            match graph.next_op() {
                Op::Access {
                    va,
                    kind: AccessKind::Read,
                    ..
                } if va >= lay.dataset.start => dataset_reads += 1,
                Op::Access {
                    kind: AccessKind::Write,
                    ..
                } => heap_writes += 1,
                Op::Access {
                    kind: AccessKind::Fetch,
                    ..
                } => fetches += 1,
                _ => {}
            }
        }
        assert!(dataset_reads > 300);
        assert!(heap_writes > 100, "internal edge buffering is substantial");
        assert!(fetches > 50);
    }

    #[test]
    fn graph_random_lookups_have_low_locality() {
        let mut graph = GraphCompute::new(layout(), 1);
        let mut pages = bf_types::FastSet::default();
        for _ in 0..2_000 {
            if let Op::Access {
                va,
                kind: AccessKind::Read,
                ..
            } = graph.next_op()
            {
                pages.insert(va.raw() >> 12);
            }
        }
        assert!(
            pages.len() > 500,
            "neighbour lookups spread wide: {}",
            pages.len()
        );
    }

    #[test]
    fn fio_runs_are_sequential() {
        let mut fio = FioCompute::new(layout(), 1);
        let mut last: Option<u64> = None;
        let mut sequential = 0;
        let mut total = 0;
        for _ in 0..2_000 {
            if let Op::Access { va, kind, .. } = fio.next_op() {
                if kind == AccessKind::Fetch {
                    continue;
                }
                let page = va.raw() >> 12;
                if let Some(prev) = last {
                    total += 1;
                    if page == prev + 1 || page == prev {
                        sequential += 1;
                    }
                }
                last = Some(page);
            }
        }
        assert!(
            sequential * 10 > total * 8,
            "FIO should be mostly sequential: {sequential}/{total}"
        );
    }

    #[test]
    fn fio_aligned_runs_overlap_across_containers() {
        let lay = layout();
        let collect = |seed: u64| {
            let mut fio = FioCompute::new(lay.clone(), seed);
            let mut pages = bf_types::FastSet::default();
            for _ in 0..3_000 {
                if let Op::Access { va, kind, .. } = fio.next_op() {
                    if kind != AccessKind::Fetch {
                        pages.insert(va.raw() >> 12);
                    }
                }
            }
            pages
        };
        let a = collect(1);
        let b = collect(2);
        let overlap = a.intersection(&b).count();
        assert!(
            overlap * 3 > a.len(),
            "aligned runs share many pages: {overlap}/{}",
            a.len()
        );
    }

    #[test]
    fn workload_labels_are_distinct() {
        let lay = layout();
        assert_ne!(
            GraphCompute::new(lay.clone(), 1).label(),
            GraphCompute::new(lay.clone(), 2).label()
        );
        assert!(FioCompute::new(lay, 9).label().contains("fio"));
    }
}
