//! The cycle-approximate multicore simulator: the reproduction's
//! equivalent of the paper's Simics + SST + DRAMSim2 stack (Section VI).
//!
//! [`Machine`] assembles, per Table I:
//!
//! * 8 out-of-order-issue cores (modelled as 2-issue in-order cycle
//!   accounting), each with the full [`bf_tlb::TlbGroup`] TLB complement
//!   and a [`bf_cache::PageWalkCache`];
//! * per-core L1I/L1D/L2 caches and a shared L3 over DRAM
//!   ([`bf_cache::CacheHierarchy`]);
//! * the [`bf_os::Kernel`] with its page tables in simulated physical
//!   memory — the hardware page walker issues its loads *through the
//!   cache hierarchy at the entries' physical addresses*, so shared page
//!   tables produce the Fig. 7 cache reuse with no special-casing;
//! * the [`bf_os::Scheduler`] multiplexing 2–3 containers per core with
//!   the 10 ms quantum.
//!
//! Every memory operation follows the paper's translation pipeline:
//! L1 TLB (1 cycle) → optional 2-cycle ASLR transformation → L2 TLB
//! (10 or 12 cycles, Fig. 5b) → page walk (PWC + cache hierarchy,
//! entering at the L2 per Fig. 7) → fault handler if needed → data access.
//!
//! # Examples
//!
//! ```
//! use bf_sim::{Machine, Mode, SimConfig};
//!
//! let machine = Machine::new(SimConfig::new(2, Mode::babelfish()));
//! assert_eq!(machine.config().cores, 2);
//! ```

pub mod config;
pub mod machine;
pub mod stats;

pub use bf_fault::FaultPlan;
pub use config::{Mode, SimConfig};
pub use machine::{CaptureSink, Machine, ALLOC_RETRY_BACKOFF};
pub use stats::{LatencyStats, MachineStats, TranslationBreakdown};
