//! TLB models: the conventional PCID-tagged TLB and the BabelFish
//! CCID-tagged TLB with the Ownership–PrivateCopy (O-PC) field.
//!
//! This crate implements the hardware half of BabelFish's TLB-entry
//! sharing (Section III-A):
//!
//! * [`OpcField`] — the O-PC field of Fig. 4: the Ownership bit, the
//!   32-bit PrivateCopy (PC) bitmask, and the ORPC bit (logic OR of the
//!   bitmask).
//! * [`Tlb`] — one set-associative TLB structure. In
//!   [`LookupMode::Conventional`] an access hits on a {VPN, PCID} match
//!   (Fig. 1); in [`LookupMode::BabelFish`] the full Fig. 8 flowchart is
//!   implemented: {VPN, CCID} match, then the O-PC/PCID checks, including
//!   CoW-write fault detection.
//! * [`TlbGroup`] — the per-core L1 (I + D) and L2 structures for all
//!   three page sizes with the Table I geometries and access times,
//!   including the 10-vs-12-cycle L2 access asymmetry controlled by the
//!   ORPC short-circuit (Fig. 5b).
//!
//! # Examples
//!
//! ```
//! use bf_tlb::{LookupMode, LookupRequest, Tlb, TlbConfig, TlbFill};
//! use bf_types::*;
//!
//! let mut tlb = Tlb::new(TlbConfig::l2_4k(), LookupMode::BabelFish);
//! let fill = TlbFill {
//!     vpn: Vpn::new(0x1000),
//!     ppn: Ppn::new(0x77),
//!     size: PageSize::Size4K,
//!     flags: PageFlags::PRESENT | PageFlags::USER,
//!     pcid: Pcid::new(1),
//!     ccid: Ccid::new(9),
//!     owned: false,
//!     orpc: false,
//!     pc_bitmask: 0,
//!     loader: Pid::new(100),
//! };
//! tlb.fill(fill);
//!
//! // A *different* process of the same CCID group hits the shared entry.
//! let req = LookupRequest {
//!     vpn: Vpn::new(0x1000),
//!     pcid: Pcid::new(2),
//!     ccid: Ccid::new(9),
//!     pid: Pid::new(200),
//!     pc_bit: None,
//!     is_write: false,
//! };
//! let result = tlb.lookup(&req);
//! let hit = result.hit().expect("shared hit");
//! assert_eq!(hit.ppn, Ppn::new(0x77));
//! assert!(hit.shared, "entry was loaded by a different process");
//! ```

pub mod group;
pub mod opc;
pub mod telemetry;
pub mod tlb;

pub use group::{TlbAccess, TlbGroup, TlbGroupConfig, TlbGroupStats};
pub use opc::OpcField;
pub use telemetry::{register_invariants, StreamCounters, TlbTelemetry};
pub use tlb::{
    Hit, InjectedFlip, LookupMode, LookupRequest, LookupResult, Tlb, TlbConfig, TlbFill, TlbStats,
};
