//! Physical memory substrate: frame allocation, backing store for
//! page-table pages, and a DRAMSim2-style main-memory timing model.
//!
//! The paper's evaluation stack used DRAMSim2 under SST for main-memory
//! timing and Simics for the actual memory contents (Section VI). This
//! crate provides the equivalents:
//!
//! * [`FrameAllocator`] — allocates 4 KB physical frames (and aligned
//!   contiguous runs for huge pages) out of the modelled 32 GB, with
//!   per-frame reference counts so CoW pages and the file page cache can
//!   share frames.
//! * [`PhysMemory`] — a sparse word-addressable store holding the pages
//!   that have real contents in the simulation: page-table pages and
//!   MaskPages. The hardware page walker reads entries *through the cache
//!   model* at their physical addresses, which is what makes page-table
//!   sharing produce cache reuse (Fig. 7).
//! * [`Dram`] — channel/rank/bank timing with open-row tracking
//!   (row-buffer hits vs misses) and bank busy queueing.
//!
//! # Examples
//!
//! ```
//! use bf_mem::FrameAllocator;
//!
//! let mut alloc = FrameAllocator::new(1024); // 4 MB of frames
//! let frame = alloc.alloc().expect("frames available");
//! alloc.inc_ref(frame);             // second sharer
//! assert!(!alloc.dec_ref(frame));   // still referenced
//! assert!(alloc.dec_ref(frame));    // last reference dropped, frame freed
//! ```

pub mod dram;
pub mod frame;
pub mod phys;

pub use dram::{Dram, DramConfig};
pub use frame::FrameAllocator;
pub use phys::PhysMemory;
