//! Workload generators reproducing the paper's three workload classes
//! (Section VI):
//!
//! * **Data Serving** — YCSB-driven ArangoDB, MongoDB and HTTPd:
//!   [`DataServing`] issues request loops of code fetches, Zipfian
//!   dataset accesses through the mounted 500 MB file, and private
//!   buffer writes. The three variants differ in how much work goes to
//!   the shared mmapped dataset versus private internal structures —
//!   which is what moves the Table II TLB-vs-page-table split.
//! * **Compute** — GraphChi PageRank and FIO: [`GraphCompute`] does
//!   low-locality vertex/neighbour traversals (little shared-translation
//!   reuse, like the paper's GraphChi), [`FioCompute`] does regular
//!   random I/O runs over the dataset (high reuse).
//! * **Functions** — the containerized Parse/Hash/Marshal functions on a
//!   common input, with *dense* and *sparse* page-touch patterns ("in
//!   dense, we access all the data in a page before moving to the next
//!   page; in sparse, we access about 10 % of a page", Section VI).
//!
//! Every generator is a deterministic function of its seed and emits a
//! stream of [`Op`]s the simulator executes.
//!
//! # Examples
//!
//! ```
//! use bf_workloads::{Op, Workload, ZipfianGenerator};
//! use rand::SeedableRng;
//!
//! let mut zipf = ZipfianGenerator::new(1000, 0.99);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let item = zipf.sample(&mut rng);
//! assert!(item < 1000);
//! ```

pub mod compute;
pub mod functions;
pub mod op;
pub mod serving;
pub mod zipf;

pub use compute::{FioCompute, GraphCompute};
pub use functions::{AccessDensity, FunctionKind, FunctionWorkload};
pub use op::{CodeFetcher, Op, Workload};
pub use serving::{DataServing, ServingVariant};
pub use zipf::ZipfianGenerator;
