//! Serverless functions: Parse, Hash and Marshal with dense/sparse
//! access patterns (Section VI).

use crate::op::{CodeFetcher, Op, Workload};
use bf_containers::ContainerLayout;
use bf_types::AccessKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The three containerized C/C++ functions of Section VI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FunctionKind {
    /// Parses an input string into tokens.
    Parse,
    /// djb2-based hashing of the input.
    Hash,
    /// Transforms an input string into an integer.
    Marshal,
}

impl FunctionKind {
    /// All three functions, the set co-scheduled on each core.
    pub const ALL: [FunctionKind; 3] = [
        FunctionKind::Parse,
        FunctionKind::Hash,
        FunctionKind::Marshal,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            FunctionKind::Parse => "parse",
            FunctionKind::Hash => "hash",
            FunctionKind::Marshal => "marshal",
        }
    }

    /// Total input accesses the function performs (same work for dense
    /// and sparse — "a function performs the same work; we only change
    /// the distance between one accessed element and the next").
    fn work_accesses(self) -> u32 {
        match self {
            // Parse leads and makes the full pass over the input; the
            // followers' footprints sit inside it (the paper's leading
            // function "behaves similarly in both BabelFish and Baseline
            // due to cold start effects", Section VII-C).
            FunctionKind::Parse => 10_240,
            FunctionKind::Hash => 8_192,
            FunctionKind::Marshal => 6_144,
        }
    }

    /// Startup code fetches (runtime + libc init over the shared
    /// catalog libraries).
    fn init_fetches(self) -> u32 {
        768
    }
}

/// Dense vs sparse input traversal (Section VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessDensity {
    /// "access all the data in a page before moving to the next page":
    /// 64 accesses per 4 KB page.
    Dense,
    /// "access about 10 % of a page before moving to the next one":
    /// 6 accesses per page ⇒ ~10× the page footprint for the same work.
    Sparse,
}

impl AccessDensity {
    /// Accesses per input page.
    pub fn accesses_per_page(self) -> u32 {
        match self {
            AccessDensity::Dense => 64,
            AccessDensity::Sparse => 6,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            AccessDensity::Dense => "dense",
            AccessDensity::Sparse => "sparse",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Init(u32),
    Work { access: u32 },
    Output(u32),
    Finished,
}

/// One function invocation: library/runtime initialisation fetches, a
/// dense or sparse pass over the shared input data, a small burst of
/// heap output writes, then [`Op::Done`].
///
/// The input lives in the container's dataset region — the mounted input
/// all three functions read ("Data pte_ts are few, but also shareable
/// across functions", Section VII-A).
///
/// # Examples
///
/// ```no_run
/// # use bf_workloads::{AccessDensity, FunctionKind, FunctionWorkload, Workload};
/// # fn layout() -> bf_containers::ContainerLayout { unimplemented!() }
/// let mut f = FunctionWorkload::new(FunctionKind::Parse, AccessDensity::Sparse, layout(), 1);
/// let op = f.next_op();
/// ```
#[derive(Debug)]
pub struct FunctionWorkload {
    kind: FunctionKind,
    density: AccessDensity,
    layout: ContainerLayout,
    fetcher: CodeFetcher,
    rng: StdRng,
    phase: Phase,
    input_page_start: u64,
    label: String,
}

impl FunctionWorkload {
    /// Heap output writes at the end.
    const OUTPUT_WRITES: u32 = 64;

    /// Builds one invocation.
    ///
    /// # Panics
    ///
    /// Panics if the layout lacks a dataset (the input) or heap.
    pub fn new(
        kind: FunctionKind,
        density: AccessDensity,
        layout: ContainerLayout,
        seed: u64,
    ) -> Self {
        assert!(
            !layout.dataset.is_empty(),
            "functions need the shared input mapping"
        );
        assert!(!layout.heap.is_empty(), "functions need a heap");
        let rng = StdRng::seed_from_u64(seed);
        // Every function reads the same mounted input from the start
        // (the paper's functions all operate on one input dataset,
        // Section VI) — what makes the data pte_ts "shareable across
        // functions" (Section VII-A).
        let input_page_start = 0;
        FunctionWorkload {
            label: format!("{}-{}-{seed}", kind.name(), density.name()),
            fetcher: CodeFetcher::new(layout.code_regions(), 0.2),
            rng,
            phase: Phase::Init(0),
            input_page_start,
            kind,
            density,
            layout,
        }
    }

    /// The function being run.
    pub fn kind(&self) -> FunctionKind {
        self.kind
    }

    /// The traversal density.
    pub fn density(&self) -> AccessDensity {
        self.density
    }

    /// Pages of input this invocation will touch.
    pub fn input_footprint_pages(&self) -> u64 {
        (self.kind.work_accesses() / self.density.accesses_per_page()) as u64
    }
}

impl Workload for FunctionWorkload {
    fn next_op(&mut self) -> Op {
        match self.phase {
            Phase::Init(done) => {
                self.phase = if done + 1 >= self.kind.init_fetches() {
                    Phase::Work { access: 0 }
                } else {
                    Phase::Init(done + 1)
                };
                Op::Access {
                    va: self.fetcher.fetch(&mut self.rng),
                    kind: AccessKind::Fetch,
                    instrs_before: 12,
                }
            }
            Phase::Work { access } => {
                let per_page = self.density.accesses_per_page();
                let page_index = access / per_page;
                let within = access % per_page;
                let page =
                    (self.input_page_start + page_index as u64) % self.layout.dataset.pages();
                // Dense walks the whole page line by line; sparse samples
                // a few lines then moves on.
                let line = match self.density {
                    AccessDensity::Dense => within as u64,
                    AccessDensity::Sparse => (within as u64 * 11) % 64,
                };
                self.phase = if access + 1 >= self.kind.work_accesses() {
                    Phase::Output(0)
                } else {
                    Phase::Work { access: access + 1 }
                };
                Op::Access {
                    va: self.layout.dataset.page(page).offset(line * 64),
                    kind: AccessKind::Read,
                    instrs_before: 18,
                }
            }
            Phase::Output(done) => {
                self.phase = if done + 1 >= Self::OUTPUT_WRITES {
                    Phase::Finished
                } else {
                    Phase::Output(done + 1)
                };
                let page = self.rng.gen_range(0..self.layout.heap.pages().clamp(1, 16));
                Op::Access {
                    va: self.layout.heap.page(page),
                    kind: AccessKind::Write,
                    instrs_before: 15,
                }
            }
            Phase::Finished => Op::Done,
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
            libs: vec![Region::new(VirtAddr::new(0x60_0000), 0x40_000)],
            lib_data: Region::empty(),
            middleware: Region::empty(),
            infra: vec![Region::new(VirtAddr::new(0x80_0000), 0x20_000)],
            dataset: Region::new(VirtAddr::new(0x1_0000_0000), 16 << 20),
            heap: Region::new(VirtAddr::new(0x2_0000_0000), 1 << 20),
            stack: Region::empty(),
        }
    }

    fn run_to_done(workload: &mut FunctionWorkload) -> Vec<Op> {
        let mut ops = Vec::new();
        loop {
            let op = workload.next_op();
            if op == Op::Done {
                return ops;
            }
            ops.push(op);
        }
    }

    #[test]
    fn function_terminates_with_done() {
        let mut f = FunctionWorkload::new(FunctionKind::Parse, AccessDensity::Dense, layout(), 1);
        let ops = run_to_done(&mut f);
        let expected = FunctionKind::Parse.init_fetches()
            + FunctionKind::Parse.work_accesses()
            + FunctionWorkload::OUTPUT_WRITES;
        assert_eq!(ops.len() as u32, expected);
        // Done is sticky.
        assert_eq!(f.next_op(), Op::Done);
    }

    #[test]
    fn sparse_touches_about_10x_more_pages_for_same_work() {
        let touched = |density: AccessDensity| {
            let mut f = FunctionWorkload::new(FunctionKind::Hash, density, layout(), 2);
            let mut pages = bf_types::FastSet::default();
            for op in run_to_done(&mut f) {
                if let Op::Access {
                    va,
                    kind: AccessKind::Read,
                    ..
                } = op
                {
                    pages.insert(va.raw() >> 12);
                }
            }
            pages.len()
        };
        let dense = touched(AccessDensity::Dense);
        let sparse = touched(AccessDensity::Sparse);
        let ratio = sparse as f64 / dense as f64;
        assert!(
            (8.0..13.0).contains(&ratio),
            "sparse/dense footprint ratio {ratio} should be ≈ 10.7 (64/6)"
        );
    }

    #[test]
    fn same_work_both_densities() {
        let count_reads = |density: AccessDensity| {
            let mut f = FunctionWorkload::new(FunctionKind::Marshal, density, layout(), 3);
            run_to_done(&mut f)
                .iter()
                .filter(|op| {
                    matches!(
                        op,
                        Op::Access {
                            kind: AccessKind::Read,
                            ..
                        }
                    )
                })
                .count()
        };
        assert_eq!(
            count_reads(AccessDensity::Dense),
            count_reads(AccessDensity::Sparse)
        );
    }

    #[test]
    fn dense_walks_pages_fully_before_moving() {
        let mut f = FunctionWorkload::new(FunctionKind::Parse, AccessDensity::Dense, layout(), 4);
        let reads: Vec<u64> = run_to_done(&mut f)
            .iter()
            .filter_map(|op| match op {
                Op::Access {
                    va,
                    kind: AccessKind::Read,
                    ..
                } => Some(va.raw() >> 12),
                _ => None,
            })
            .collect();
        // Consecutive reads stay on a page for 64 accesses.
        let changes = reads.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(changes as u32 + 1, FunctionKind::Parse.work_accesses() / 64);
    }

    #[test]
    fn init_fetches_cover_library_pages() {
        let lay = layout();
        let mut f = FunctionWorkload::new(FunctionKind::Hash, AccessDensity::Dense, lay.clone(), 5);
        let mut lib_fetches = 0;
        for op in run_to_done(&mut f) {
            if let Op::Access {
                va,
                kind: AccessKind::Fetch,
                ..
            } = op
            {
                if va >= lay.libs[0].start && va.raw() < lay.libs[0].start.raw() + lay.libs[0].bytes
                {
                    lib_fetches += 1;
                }
            }
        }
        assert!(
            lib_fetches > 0,
            "initialisation touches the shared libraries"
        );
    }

    #[test]
    fn footprint_accessor_matches_density() {
        let dense = FunctionWorkload::new(FunctionKind::Hash, AccessDensity::Dense, layout(), 1);
        let sparse = FunctionWorkload::new(FunctionKind::Hash, AccessDensity::Sparse, layout(), 1);
        assert!(sparse.input_footprint_pages() > dense.input_footprint_pages() * 8);
    }
}
