//! Simulation configuration (Table I parameters + the evaluated modes).

use bf_cache::{HierarchyConfig, PwcConfig};
use bf_os::{AslrMode, KernelConfig};
use bf_tlb::TlbGroupConfig;
use bf_types::Cycles;

/// Which system is being simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Conventional server (the paper's Baseline).
    Baseline,
    /// Conventional server whose L2 TLB is enlarged by BabelFish's
    /// storage budget (Section VII-C "BabelFish vs Larger TLB").
    BaselineLargerTlb,
    /// BabelFish, with its two sharing mechanisms independently
    /// switchable (the Table II attribution runs `share_tlb` only) and
    /// the ASLR configuration of Section IV-D.
    BabelFish {
        /// Share TLB entries via CCID tags (Section III-A).
        share_tlb: bool,
        /// Share page-table entries (Section III-B).
        share_page_tables: bool,
        /// ASLR-SW or ASLR-HW (the paper evaluates ASLR-HW).
        aslr: AslrMode,
    },
}

impl Mode {
    /// Full BabelFish with ASLR-HW — the paper's evaluated configuration.
    pub fn babelfish() -> Mode {
        Mode::BabelFish {
            share_tlb: true,
            share_page_tables: true,
            aslr: AslrMode::Hardware,
        }
    }

    /// BabelFish with only TLB-entry sharing (Table II attribution).
    pub fn babelfish_tlb_only() -> Mode {
        Mode::BabelFish {
            share_tlb: true,
            share_page_tables: false,
            aslr: AslrMode::Hardware,
        }
    }

    /// BabelFish with only page-table sharing.
    pub fn babelfish_pt_only() -> Mode {
        Mode::BabelFish {
            share_tlb: false,
            share_page_tables: true,
            aslr: AslrMode::Hardware,
        }
    }

    /// Whether this mode pays the 2-cycle ASLR transformation on L1 TLB
    /// misses (BabelFish under ASLR-HW, Section IV-D).
    pub fn aslr_transformation(&self) -> bool {
        matches!(
            self,
            Mode::BabelFish {
                share_tlb: true,
                aslr: AslrMode::Hardware,
                ..
            }
        )
    }

    /// The TLB-group configuration this mode implies.
    pub fn tlb_config(&self) -> TlbGroupConfig {
        match self {
            Mode::Baseline => TlbGroupConfig::baseline(),
            Mode::BaselineLargerTlb => TlbGroupConfig::baseline_larger_tlb(),
            Mode::BabelFish {
                share_tlb: false, ..
            } => TlbGroupConfig::baseline(),
            Mode::BabelFish {
                share_tlb: true,
                aslr,
                ..
            } => match aslr {
                AslrMode::Hardware => TlbGroupConfig::babelfish_aslr_hw(),
                AslrMode::SoftwareOnly => TlbGroupConfig::babelfish_aslr_sw(),
            },
        }
    }

    /// The kernel configuration this mode implies.
    pub fn kernel_config(&self) -> KernelConfig {
        match self {
            Mode::Baseline | Mode::BaselineLargerTlb => KernelConfig::baseline(),
            Mode::BabelFish {
                share_page_tables,
                aslr,
                ..
            } => {
                let mut config = if *share_page_tables {
                    KernelConfig::babelfish()
                } else {
                    KernelConfig::baseline()
                };
                config.aslr = *aslr;
                config
            }
        }
    }

    /// Inverse of [`Mode::name`] for the evaluated configurations
    /// (trace replay and CLI mode overrides). `babelfish-disabled` is
    /// not constructible by name — it only arises from hand-built
    /// configurations.
    pub fn from_name(name: &str) -> Option<Mode> {
        match name {
            "baseline" => Some(Mode::Baseline),
            "baseline-larger-tlb" => Some(Mode::BaselineLargerTlb),
            "babelfish" => Some(Mode::babelfish()),
            "babelfish-tlb-only" => Some(Mode::babelfish_tlb_only()),
            "babelfish-pt-only" => Some(Mode::babelfish_pt_only()),
            _ => None,
        }
    }

    /// Short name for reports.
    ///
    /// Serialization note: `Mode` serializes as an object carrying this
    /// name plus the BabelFish switches (hand-written because the shim
    /// derive does not handle data-carrying enum variants).
    pub fn name(&self) -> &'static str {
        match self {
            Mode::Baseline => "baseline",
            Mode::BaselineLargerTlb => "baseline-larger-tlb",
            Mode::BabelFish {
                share_tlb: true,
                share_page_tables: true,
                ..
            } => "babelfish",
            Mode::BabelFish {
                share_tlb: true,
                share_page_tables: false,
                ..
            } => "babelfish-tlb-only",
            Mode::BabelFish {
                share_tlb: false,
                share_page_tables: true,
                ..
            } => "babelfish-pt-only",
            Mode::BabelFish { .. } => "babelfish-disabled",
        }
    }
}

impl serde::Serialize for Mode {
    fn to_value(&self) -> serde::Value {
        let mut map = std::collections::BTreeMap::new();
        map.insert(
            "name".to_string(),
            serde::Value::String(self.name().to_string()),
        );
        if let Mode::BabelFish {
            share_tlb,
            share_page_tables,
            aslr,
        } = self
        {
            map.insert("share_tlb".to_string(), serde::Value::Bool(*share_tlb));
            map.insert(
                "share_page_tables".to_string(),
                serde::Value::Bool(*share_page_tables),
            );
            map.insert("aslr".to_string(), aslr.to_value());
        }
        serde::Value::Object(map)
    }
}

/// Full machine configuration; `new` fills in the Table I defaults.
///
/// # Examples
///
/// ```
/// use bf_sim::{Mode, SimConfig};
/// let config = SimConfig::new(8, Mode::Baseline);
/// assert_eq!(config.quantum_cycles, 20_000_000, "10 ms at 2 GHz");
/// ```
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct SimConfig {
    /// Core count (8 in Table I).
    pub cores: usize,
    /// System mode.
    pub mode: Mode,
    /// Cache hierarchy geometry.
    pub hierarchy: HierarchyConfig,
    /// Page-walk cache geometry.
    pub pwc: PwcConfig,
    /// Issue width (2-issue OoO in Table I): non-memory instructions
    /// retire at this rate.
    pub issue_width: u64,
    /// Scheduling quantum in cycles (10 ms at 2 GHz).
    pub quantum_cycles: Cycles,
    /// Context-switch cost in cycles.
    pub context_switch_cycles: Cycles,
    /// ASLR diff-offset adder latency on an L1 TLB miss (Section IV-D /
    /// Table I "ASLR Transformation: 2 cycles on L1 TLB miss").
    pub aslr_transform_cycles: Cycles,
    /// Fraction of *data/ifetch* cache-miss latency hidden by the
    /// out-of-order core's memory-level parallelism (128-entry ROB,
    /// Table I). Page walks and TLB accesses serialize with the access
    /// and are never overlapped — the asymmetry that makes translation
    /// latency expensive on real OoO cores.
    pub memory_overlap: f64,
    /// Kernel cost-model overrides (derived from `mode` by default).
    pub kernel: KernelConfig,
    /// Seal a telemetry timeline epoch every N memory accesses (0
    /// disables the timeline; see [`bf_telemetry::Timeline`]).
    pub timeline_every: u64,
    /// Panic on the first telemetry invariant violation at an epoch
    /// boundary instead of recording it into the timeline.
    pub timeline_fail_fast: bool,
    /// Miss-attribution profiling: the top-K capacity of the hot-region
    /// sketches (0 disables profiling; see [`bf_telemetry::Profiler`]).
    pub profile_top_k: u64,
    /// Emit a heartbeat progress event every N memory accesses (0
    /// disables progress events; effective only while the process-wide
    /// [`bf_telemetry::heartbeat`] stream is armed).
    pub heartbeat_every: u64,
}

impl SimConfig {
    /// Table I defaults for `cores` cores in `mode`.
    pub fn new(cores: usize, mode: Mode) -> Self {
        SimConfig {
            cores,
            mode,
            hierarchy: HierarchyConfig::table1(cores),
            pwc: PwcConfig::default(),
            issue_width: 2,
            quantum_cycles: 20_000_000,
            context_switch_cycles: 3_000,
            aslr_transform_cycles: 2,
            memory_overlap: 0.6,
            kernel: mode.kernel_config(),
            timeline_every: 0,
            timeline_fail_fast: false,
            profile_top_k: 0,
            heartbeat_every: 0,
        }
    }

    /// Same configuration with a different frame pool (smaller pools
    /// speed up tests).
    pub fn with_frames(mut self, frames: u64) -> Self {
        self.kernel.frame_capacity = frames;
        self
    }

    /// Disables THP (the MongoDB/ArangoDB configurations — Section VI).
    pub fn without_thp(mut self) -> Self {
        self.kernel.thp = false;
        self
    }

    /// Ignored: the machine has no span tracer. Kept only because the
    /// `perf/` benchmark calls it; a benchmark change may drop it.
    #[doc(hidden)]
    pub fn with_trace_sampling(self, _every: u64) -> Self {
        self
    }

    /// Enables epoch timelines every `every` accesses (0 = off), with
    /// invariant violations either panicking (`fail_fast`) or recorded
    /// into the timeline export.
    pub fn with_timeline(mut self, every: u64, fail_fast: bool) -> Self {
        self.timeline_every = every;
        self.timeline_fail_fast = fail_fast;
        self
    }

    /// Enables miss-attribution profiling with `top_k`-entry hot-region
    /// sketches (0 = off).
    pub fn with_profile(mut self, top_k: u64) -> Self {
        self.profile_top_k = top_k;
        self
    }

    /// Emits a heartbeat progress event every `every` accesses (0 =
    /// off); a no-op unless the process heartbeat stream is armed.
    pub fn with_heartbeat(mut self, every: u64) -> Self {
        self.heartbeat_every = every;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_implies_consistent_configs() {
        let full = Mode::babelfish();
        assert!(full.kernel_config().share_page_tables);
        assert!(full.aslr_transformation());
        assert_eq!(full.tlb_config(), TlbGroupConfig::babelfish_aslr_hw());

        let tlb_only = Mode::babelfish_tlb_only();
        assert!(!tlb_only.kernel_config().share_page_tables);
        assert_eq!(tlb_only.tlb_config(), TlbGroupConfig::babelfish_aslr_hw());

        let pt_only = Mode::babelfish_pt_only();
        assert!(pt_only.kernel_config().share_page_tables);
        assert_eq!(pt_only.tlb_config(), TlbGroupConfig::baseline());
        assert!(!pt_only.aslr_transformation());

        assert_eq!(Mode::Baseline.tlb_config(), TlbGroupConfig::baseline());
        assert!(!Mode::Baseline.aslr_transformation());
        assert!(Mode::BaselineLargerTlb.tlb_config().larger_l2);
    }

    #[test]
    fn aslr_sw_shares_l1() {
        let mode = Mode::BabelFish {
            share_tlb: true,
            share_page_tables: true,
            aslr: AslrMode::SoftwareOnly,
        };
        assert_eq!(mode.tlb_config(), TlbGroupConfig::babelfish_aslr_sw());
        assert!(!mode.aslr_transformation(), "ASLR-SW needs no adder");
    }

    #[test]
    fn from_name_inverts_name() {
        for mode in [
            Mode::Baseline,
            Mode::BaselineLargerTlb,
            Mode::babelfish(),
            Mode::babelfish_tlb_only(),
            Mode::babelfish_pt_only(),
        ] {
            assert_eq!(Mode::from_name(mode.name()), Some(mode));
        }
        assert_eq!(Mode::from_name("victima"), None);
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            Mode::Baseline.name(),
            Mode::BaselineLargerTlb.name(),
            Mode::babelfish().name(),
            Mode::babelfish_tlb_only().name(),
            Mode::babelfish_pt_only().name(),
        ];
        let mut unique = names.to_vec();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn table1_defaults() {
        let config = SimConfig::new(8, Mode::Baseline);
        assert_eq!(config.hierarchy.cores, 8);
        assert_eq!(config.issue_width, 2);
        assert_eq!(config.aslr_transform_cycles, 2);
        let smaller = config.with_frames(1024);
        assert_eq!(smaller.kernel.frame_capacity, 1024);
        assert!(!config.without_thp().kernel.thp);
    }
}
