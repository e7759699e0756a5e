//! Data-serving workloads: the YCSB-driven ArangoDB / MongoDB / HTTPd
//! request loops (Section VI).

use crate::op::{CodeFetcher, Op, Workload};
use crate::zipf::ZipfianGenerator;
use bf_containers::ContainerLayout;
use bf_types::AccessKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which paper application the generator imitates. The variants differ
/// in where the work lands, reproducing the Table II split:
///
/// * `MongoDb` — memory-mapped storage engine: requests hammer the shared
///   mmapped dataset (large TLB footprint ⇒ most gains from L2 TLB entry
///   sharing, Table II fraction 0.77).
/// * `ArangoDb` — RocksDB-style engine: more work in private internal
///   structures and only part on the shared dataset (gains lean on page
///   table sharing, fraction 0.25).
/// * `Httpd` — stream server: small per-request footprint, code-fetch
///   heavy, short dataset touches (fraction 0.81 but smaller totals).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServingVariant {
    /// Document store over a memory-mapped engine.
    MongoDb,
    /// Key-value/document store with internal buffering.
    ArangoDb,
    /// HTTP server streaming file content.
    Httpd,
}

impl ServingVariant {
    /// All variants, in the paper's reporting order.
    pub const ALL: [ServingVariant; 3] = [
        ServingVariant::MongoDb,
        ServingVariant::ArangoDb,
        ServingVariant::Httpd,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ServingVariant::MongoDb => "mongodb",
            ServingVariant::ArangoDb => "arangodb",
            ServingVariant::Httpd => "httpd",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct VariantProfile {
    /// Code fetches at the start of a request.
    request_fetches: u32,
    /// Zipfian dataset reads per request.
    dataset_reads: u32,
    /// Private heap accesses per request (internal structures).
    heap_ops: u32,
    /// Fraction of heap ops that are writes.
    heap_write_frac: f64,
    /// Zipf skew over dataset pages.
    zipf_theta: f64,
    /// Fraction of dataset reads that hit the *common* hot head
    /// (indexes, catalogs, B-tree upper levels — the same for every
    /// client) rather than the client's own section of the key space.
    shared_head_frac: f64,
    /// Non-memory instructions between accesses.
    think_instrs: u32,
}

impl ServingVariant {
    fn profile(self) -> VariantProfile {
        match self {
            ServingVariant::MongoDb => VariantProfile {
                request_fetches: 8,
                dataset_reads: 24,
                heap_ops: 4,
                heap_write_frac: 0.5,
                zipf_theta: 0.85,
                shared_head_frac: 0.6,
                think_instrs: 30,
            },
            ServingVariant::ArangoDb => VariantProfile {
                request_fetches: 10,
                dataset_reads: 10,
                heap_ops: 24,
                heap_write_frac: 0.6,
                zipf_theta: 0.9,
                shared_head_frac: 0.45,
                think_instrs: 30,
            },
            ServingVariant::Httpd => VariantProfile {
                request_fetches: 16,
                dataset_reads: 6,
                heap_ops: 8,
                heap_write_frac: 0.7,
                zipf_theta: 0.95,
                shared_head_frac: 0.7,
                think_instrs: 25,
            },
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Fetch(u32),
    Dataset(u32),
    Heap(u32),
    EndRequest,
}

/// A YCSB-like request loop over one container's layout.
///
/// Each request: parse/dispatch code fetches → Zipfian reads of the
/// shared dataset → private heap (internal-structure) accesses →
/// [`Op::RequestEnd`]. Each container is driven by a distinct client
/// (seed), so two co-located containers serve different requests over
/// partially-overlapping pages, as in Section VI.
///
/// # Examples
///
/// ```no_run
/// # use bf_workloads::{DataServing, ServingVariant, Workload};
/// # fn layout() -> bf_containers::ContainerLayout { unimplemented!() }
/// let mut workload = DataServing::new(ServingVariant::MongoDb, layout(), 42);
/// let op = workload.next_op();
/// ```
#[derive(Debug)]
pub struct DataServing {
    variant: ServingVariant,
    layout: ContainerLayout,
    profile: VariantProfile,
    zipf: ZipfianGenerator,
    fetcher: CodeFetcher,
    rng: StdRng,
    phase: Phase,
    /// Each client works on its own section of the key space
    /// ("containers run the same application on different sections of a
    /// common data set", Section I) — a per-container hot offset.
    client_offset: u64,
    label: String,
}

impl DataServing {
    /// Builds a request generator for `variant` over `layout`, seeded
    /// per container.
    ///
    /// # Panics
    ///
    /// Panics if the layout has no dataset or heap.
    pub fn new(variant: ServingVariant, layout: ContainerLayout, seed: u64) -> Self {
        assert!(
            !layout.dataset.is_empty(),
            "data serving requires a dataset"
        );
        assert!(!layout.heap.is_empty(), "data serving requires a heap");
        let profile = variant.profile();
        let zipf = ZipfianGenerator::new(layout.dataset.pages(), profile.zipf_theta);
        let fetcher = CodeFetcher::new(layout.code_regions(), 0.12);
        let mut rng = StdRng::seed_from_u64(seed);
        let client_offset = rng.gen_range(0..layout.dataset.pages());
        DataServing {
            label: format!("{}-{}", variant.name(), seed),
            variant,
            profile,
            zipf,
            fetcher,
            rng,
            phase: Phase::Fetch(0),
            client_offset,
            layout,
        }
    }

    /// The modelled application.
    pub fn variant(&self) -> ServingVariant {
        self.variant
    }
}

impl Workload for DataServing {
    fn next_op(&mut self) -> Op {
        let think = self.profile.think_instrs;
        match self.phase {
            Phase::Fetch(done) => {
                self.phase = if done + 1 >= self.profile.request_fetches {
                    Phase::Dataset(0)
                } else {
                    Phase::Fetch(done + 1)
                };
                Op::Access {
                    va: self.fetcher.fetch(&mut self.rng),
                    kind: AccessKind::Fetch,
                    instrs_before: think / 2,
                }
            }
            Phase::Dataset(done) => {
                self.phase = if done + 1 >= self.profile.dataset_reads {
                    Phase::Heap(0)
                } else {
                    Phase::Dataset(done + 1)
                };
                // Index/catalog reads hit the common hot head; record
                // reads land in this client's own section of the key
                // space ("each container serves different requests and
                // accesses different data, [but] a large number of the
                // pages accessed is the same across containers",
                // Section I).
                let zipf_page = self.zipf.sample(&mut self.rng);
                let page = if self.rng.gen_bool(self.profile.shared_head_frac) {
                    zipf_page
                } else {
                    (zipf_page + self.client_offset) % self.layout.dataset.pages()
                };
                let offset = self.rng.gen_range(0..64u64) * 64;
                Op::Access {
                    va: self.layout.dataset.page(page).offset(offset),
                    kind: AccessKind::Read,
                    instrs_before: think,
                }
            }
            Phase::Heap(done) => {
                self.phase = if done + 1 >= self.profile.heap_ops {
                    Phase::EndRequest
                } else {
                    Phase::Heap(done + 1)
                };
                // Internal structures: a modest private working set.
                let working_pages = (self.layout.heap.pages() / 8).max(1);
                let page = self.rng.gen_range(0..working_pages);
                let kind = if self.rng.gen_bool(self.profile.heap_write_frac) {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                Op::Access {
                    va: self.layout.heap.page(page),
                    kind,
                    instrs_before: think,
                }
            }
            Phase::EndRequest => {
                self.phase = Phase::Fetch(0);
                Op::RequestEnd
            }
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
            code: Region::new(VirtAddr::new(0x40_0000), 0x10_000),
            data: Region::new(VirtAddr::new(0x50_0000), 0x4_000),
            libs: vec![Region::new(VirtAddr::new(0x60_0000), 0x20_000)],
            lib_data: Region::empty(),
            middleware: Region::new(VirtAddr::new(0x70_0000), 0x10_000),
            infra: vec![],
            dataset: Region::new(VirtAddr::new(0x1_0000_0000), 4 << 20),
            heap: Region::new(VirtAddr::new(0x2_0000_0000), 1 << 20),
            stack: Region::new(VirtAddr::new(0x3_0000_0000), 0x10_000),
        }
    }

    fn collect_request(workload: &mut DataServing) -> Vec<Op> {
        let mut ops = Vec::new();
        loop {
            let op = workload.next_op();
            ops.push(op);
            if op == Op::RequestEnd {
                return ops;
            }
        }
    }

    #[test]
    fn request_has_expected_structure() {
        let mut workload = DataServing::new(ServingVariant::MongoDb, layout(), 1);
        let ops = collect_request(&mut workload);
        let profile = ServingVariant::MongoDb.profile();
        let fetches = ops
            .iter()
            .filter(|op| {
                matches!(
                    op,
                    Op::Access {
                        kind: AccessKind::Fetch,
                        ..
                    }
                )
            })
            .count() as u32;
        assert_eq!(fetches, profile.request_fetches);
        assert_eq!(
            ops.len() as u32,
            profile.request_fetches + profile.dataset_reads + profile.heap_ops + 1
        );
        assert_eq!(*ops.last().unwrap(), Op::RequestEnd);
    }

    #[test]
    fn dataset_reads_hit_the_dataset_region() {
        let lay = layout();
        let mut workload = DataServing::new(ServingVariant::ArangoDb, lay.clone(), 2);
        for _ in 0..500 {
            if let Op::Access {
                va,
                kind: AccessKind::Read,
                ..
            } = workload.next_op()
            {
                let in_dataset = va >= lay.dataset.start
                    && va.raw() < lay.dataset.start.raw() + lay.dataset.bytes;
                let in_heap =
                    va >= lay.heap.start && va.raw() < lay.heap.start.raw() + lay.heap.bytes;
                assert!(in_dataset || in_heap, "read at {va} escaped dataset/heap");
            }
        }
    }

    #[test]
    fn different_seeds_access_different_sections() {
        let lay = layout();
        let mut a = DataServing::new(ServingVariant::MongoDb, lay.clone(), 1);
        let mut b = DataServing::new(ServingVariant::MongoDb, lay, 2);
        let pages = |w: &mut DataServing| -> bf_types::FastSet<u64> {
            let mut set = bf_types::FastSet::default();
            for _ in 0..2_000 {
                if let Op::Access {
                    va,
                    kind: AccessKind::Read,
                    ..
                } = w.next_op()
                {
                    set.insert(va.raw() >> 12);
                }
            }
            set
        };
        let pa = pages(&mut a);
        let pb = pages(&mut b);
        let overlap = pa.intersection(&pb).count();
        assert!(overlap > 0, "partial overlap expected");
        assert!(
            overlap < pa.len().min(pb.len()),
            "but not identical sections"
        );
    }

    #[test]
    fn variants_differ_in_dataset_intensity() {
        let lay = layout();
        let count_dataset = |variant: ServingVariant| {
            let mut w = DataServing::new(variant, lay.clone(), 3);
            let ops = {
                let mut v = Vec::new();
                loop {
                    let op = w.next_op();
                    v.push(op);
                    if op == Op::RequestEnd {
                        break;
                    }
                }
                v
            };
            ops.iter()
                .filter(|op| {
                    matches!(op, Op::Access { va, kind: AccessKind::Read, .. }
                        if *va >= lay.dataset.start
                            && va.raw() < lay.dataset.start.raw() + lay.dataset.bytes)
                })
                .count()
        };
        assert!(
            count_dataset(ServingVariant::MongoDb) > count_dataset(ServingVariant::Httpd),
            "the mmap engine touches the dataset much more per request"
        );
    }

    #[test]
    #[should_panic(expected = "dataset")]
    fn missing_dataset_panics() {
        let mut lay = layout();
        lay.dataset = Region::empty();
        let _ = DataServing::new(ServingVariant::MongoDb, lay, 1);
    }
}
