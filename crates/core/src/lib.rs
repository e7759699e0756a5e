//! # BabelFish: fusing address translations for containers
//!
//! A full reproduction of *BabelFish: Fusing Address Translations for
//! Containers* (Skarlatos et al., ISCA 2020) as a Rust library: the
//! CCID-tagged TLB with the Ownership–PrivateCopy field (Section III-A),
//! multi-level page-table sharing with MaskPage CoW bookkeeping
//! (Section III-B + Appendix), and every substrate the paper's evaluation
//! stack needed — caches, DRAM, page walker, a Linux-like kernel, a
//! Docker-like container runtime, and the YCSB/compute/FaaS workloads.
//!
//! ## Quick start
//!
//! ```
//! use babelfish::experiment::{self, ExperimentConfig};
//! use babelfish::{Mode, ServingVariant};
//!
//! // A miniature run of the paper's Fig. 11 data-serving comparison.
//! let config = ExperimentConfig::smoke_test();
//! let baseline = experiment::run_serving(Mode::Baseline, ServingVariant::Httpd, &config);
//! let babelfish = experiment::run_serving(Mode::babelfish(), ServingVariant::Httpd, &config);
//! assert!(babelfish.mean_latency <= baseline.mean_latency * 1.05,
//!         "BabelFish should not lose: {} vs {}",
//!         babelfish.mean_latency, baseline.mean_latency);
//! ```
//!
//! ## Layering
//!
//! The substrate crates are re-exported here so a single dependency gives
//! access to every level:
//!
//! * [`types`], [`mem`], [`cache`] — hardware building blocks;
//! * [`tlb`], [`pgtable`] — the paper's contribution;
//! * [`os`], [`containers`], [`workloads`] — the software stack;
//! * [`sim`] — the Table I machine;
//! * [`analytic`] — Table III / Section VII-D models;
//! * [`exec`] — deterministic parallel execution of experiment sweeps;
//! * [`capture`] + [`replay`] — compact binary trace capture of access
//!   streams and their deterministic replay.

pub mod exec;
pub mod experiment;
pub mod replay;

pub use bf_analytic as analytic;
pub use bf_cache as cache;
pub use bf_capture as capture;
pub use bf_containers as containers;
pub use bf_mem as mem;
pub use bf_os as os;
pub use bf_pgtable as pgtable;
pub use bf_sim as sim;
pub use bf_tlb as tlb;
pub use bf_types as types;
pub use bf_workloads as workloads;

pub use bf_analytic::{AreaOverhead, SpaceOverhead, SramModel, TlbEntryLayout};
pub use bf_containers::{BringupProfile, Container, ContainerRuntime, ImageSpec};
pub use bf_os::{pagemap, AslrMode, Kernel, KernelConfig};
pub use bf_sim::{FaultPlan, Machine, MachineStats, Mode, SimConfig};
pub use bf_workloads::{AccessDensity, FunctionKind, ServingVariant};
