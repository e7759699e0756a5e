//! The multicore machine: cores, TLBs, caches, walker, kernel and
//! scheduler wired together.

use crate::config::SimConfig;
use crate::stats::{LatencyStats, MachineStats, TranslationBreakdown};
use bf_cache::{AccessOrigin, CacheHierarchy, PageWalkCache, ServedBy};
use bf_containers::{BringupProfile, Container};
use bf_fault::{FaultPlan, SiteSampler, SITE_ALLOC_FAIL, SITE_TLB_BITFLIP, SITE_WALK_STALL};
use bf_os::{Invalidation, Kernel, SchedDecision, Scheduler};
use bf_pgtable::WalkResult;
use bf_telemetry::{
    path_push, path_src, Counter, Histogram, InvariantMode, InvariantSet, PathSig, ProfileSnapshot,
    Profiler, Registry, SetCounts, Snapshot, Timeline, TimelineSnapshot, DEFAULT_TIMELINE_CAPACITY,
};
use bf_tlb::group::TlbAccess;
use bf_tlb::{InjectedFlip, LookupResult, TlbFill, TlbGroup};
use bf_types::{AccessKind, CoreId, Cycles, PageFlags, PageSize, PageTableLevel, Pid, VirtAddr};
use bf_workloads::{Op, Workload};

struct CoreState {
    tlbs: TlbGroup,
    pwc: PageWalkCache,
    clock: Cycles,
    instructions: u64,
    active: bool,
}

/// Maps a cache-hierarchy classification to its walk-path source code.
fn served_src(served: ServedBy) -> u32 {
    match served {
        // Walker requests enter at the L2; L1 cannot occur here.
        ServedBy::L1 | ServedBy::L2 => path_src::L2,
        ServedBy::L3 => path_src::L3,
        ServedBy::Dram => path_src::DRAM,
    }
}

/// Receives the machine's replayable event stream: everything the
/// scheduler-driven loop consumes — accesses with their leading
/// instruction counts, context-switch charges, request latencies, and
/// the measurement reset. A sink attached via
/// [`Machine::attach_capture`] sees exactly the events that, fed back
/// through [`Machine::replay_access`] and friends against an
/// identically-prepared machine, reproduce the run bit for bit.
///
/// The trait lives here (not in `bf-capture`) so the simulator stays
/// independent of the trace format; `bf-core` adapts a
/// `bf_capture::TraceWriter` into this trait.
pub trait CaptureSink: Send {
    /// One memory access on `core` by `pid`, preceded by
    /// `instrs_before` non-memory instructions.
    fn access(&mut self, core: u32, pid: Pid, va: VirtAddr, kind: AccessKind, instrs_before: u32);
    /// A context switch charged on `core`.
    fn switch(&mut self, core: u32, cost: Cycles);
    /// A request completed with the given measured latency.
    fn request_end(&mut self, cycles: Cycles);
    /// [`Machine::reset_measurement`] ran (warm-up → measured window).
    fn reset(&mut self);
}

/// Everything the machine tracks per attached process. Stored in a
/// dense slab indexed by raw pid (the kernel allocates pids
/// sequentially from 1), so the per-access lookups in `step_core` are
/// a bounds-checked array index instead of three `HashMap` probes.
struct ProcState {
    workload: Box<dyn Workload>,
    core: usize,
    /// Core clock at the start of the in-flight request, once the first
    /// request boundary has been seen.
    request_start: Option<Cycles>,
}

/// Machine-level recording handles (`sim.*` names).
#[derive(Debug, Clone, Default)]
struct SimTelemetry {
    walks: Counter,
    instructions: Counter,
    request_cycles: Histogram,
}

impl SimTelemetry {
    fn attach(registry: &Registry) -> Self {
        SimTelemetry {
            walks: registry.counter("sim.walks"),
            instructions: registry.counter("sim.instructions"),
            request_cycles: registry.histogram("sim.request_cycles"),
        }
    }
}

/// Epoch-timeline state, boxed off the hot path: one pointer-sized
/// `Option` in [`Machine`], only dereferenced at epoch ticks.
#[derive(Debug)]
struct TimelineState {
    timeline: Timeline,
    invariants: InvariantSet,
}

/// Backoff charged when an injected transient allocation failure forces
/// the fault handler to retry (the retry itself always succeeds, so the
/// only architectural effect is the added latency).
pub const ALLOC_RETRY_BACKOFF: Cycles = 1200;

/// Deterministic fault-injection state, boxed off the hot path exactly
/// like [`TimelineState`]: one pointer-sized `Option` in [`Machine`],
/// touched only behind the hoisted `fault_armed` gate on the miss/walk/
/// fault paths — never on the hit path.
struct FaultEngine {
    /// L2-miss-path bit-flip sampler (disarmed when the plan has none).
    bitflip: SiteSampler,
    /// Page-walk stall sampler.
    walk_stall: SiteSampler,
    /// Stall cycles charged per fired walk stall.
    stall_cycles: Cycles,
    /// Transient allocation-failure sampler.
    alloc_fail: SiteSampler,
    /// Oracle records of injected-but-not-yet-scrubbed bit-flips, per
    /// core. The on-miss-path consistency re-walk and the epoch-boundary
    /// sweep both drain these, so `detected == injected` holds at every
    /// invariant check and no corrupt translation survives a boundary.
    pending: Vec<Vec<InjectedFlip>>,
    /// Faults injected (bit-flips that landed on a resident entry, walk
    /// stalls, allocation failures).
    injected: Counter,
    /// Faults detected (consistency re-walks, walker timeouts, failed
    /// allocations observed by the retry path).
    detected: Counter,
    /// Faults recovered (invalidate+refill, bounded-backoff retry).
    recovered: Counter,
}

/// The simulated server (see the [crate docs](crate) for the modelled
/// pipeline).
///
/// Typical use: create, build containers through
/// [`bf_containers::ContainerRuntime`] against [`Machine::kernel_mut`],
/// attach workloads with [`Machine::attach`], warm up, then
/// [`Machine::reset_measurement`] and run the measured window.
pub struct Machine {
    config: SimConfig,
    kernel: Kernel,
    cores: Vec<CoreState>,
    hierarchy: CacheHierarchy,
    sched: Scheduler,
    /// Dense per-process slab, indexed by raw pid.
    procs: Vec<Option<ProcState>>,
    latency: LatencyStats,
    breakdown: TranslationBreakdown,
    registry: Registry,
    telem: SimTelemetry,
    /// Hoisted gate of the end-of-access tail (`epoch_tick`,
    /// `progress_tick`): true when either tap is armed. The single
    /// end-of-access branch in `execute_access` tests this flag.
    /// Profiling records inline on the miss and walk paths instead.
    instrumented: bool,
    /// Epoch timeline + invariant checking (None unless
    /// [`SimConfig::timeline_every`] is set).
    timeline: Option<Box<TimelineState>>,
    /// Miss-attribution profiler (None unless
    /// [`SimConfig::profile_top_k`] is set).
    profiler: Option<Box<Profiler>>,
    /// Trace-capture sink (None unless [`Machine::attach_capture`] was
    /// called). Tees live in `step_core`/`reset_measurement`, never in
    /// `execute_access`, so the translation hot path is untouched and
    /// the capture-off cost is one predictable `Option` branch per
    /// scheduler event.
    capture: Option<Box<dyn CaptureSink>>,
    /// Fault-injection engine (None until [`Machine::arm_faults`]).
    faults: Option<Box<FaultEngine>>,
    /// Hoisted fault gate, mirroring `instrumented`: the
    /// unarmed miss path pays one predictable branch and the hit path
    /// pays nothing.
    fault_armed: bool,
    /// Registry state at the last [`Machine::reset_measurement`];
    /// [`Machine::telemetry_snapshot`] reports the delta since then.
    telemetry_baseline: Snapshot,
    /// Heartbeat progress emitter (None unless
    /// [`SimConfig::heartbeat_every`] is set *and* the process-wide
    /// heartbeat stream is armed). Ticked once per access next to the
    /// epoch timeline, so progress boundaries land on the exact same
    /// access live and in replay.
    progress: Option<Box<ProgressState>>,
}

/// Heartbeat progress bookkeeping: cumulative accesses and the next
/// boundary (always the next multiple of `every`).
struct ProgressState {
    every: u64,
    accesses: u64,
    next: u64,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("mode", &self.config.mode.name())
            .field("cores", &self.cores.len())
            .field(
                "workloads",
                &self.procs.iter().filter(|p| p.is_some()).count(),
            )
            .finish()
    }
}

impl Machine {
    /// Builds the machine for `config`, with every component's counters
    /// routed into one fresh [`Registry`].
    pub fn new(config: SimConfig) -> Self {
        let registry = Registry::new();
        let profiling = config.profile_top_k > 0;
        let progress_on = config.heartbeat_every > 0 && bf_telemetry::heartbeat::armed();
        let cores = (0..config.cores)
            .map(|_| {
                let mut tlbs = TlbGroup::new(config.mode.tlb_config());
                tlbs.attach_telemetry(&registry);
                if profiling {
                    tlbs.enable_set_profile();
                }
                let mut pwc = PageWalkCache::new(config.pwc);
                pwc.attach_telemetry(&registry);
                CoreState {
                    tlbs,
                    pwc,
                    clock: 0,
                    instructions: 0,
                    active: true,
                }
            })
            .collect();
        let mut kernel = Kernel::new(config.kernel);
        kernel.attach_telemetry(&registry);
        let mut hierarchy = CacheHierarchy::new(config.hierarchy);
        hierarchy.attach_telemetry(&registry);
        let timeline_on = config.timeline_every > 0;
        let timeline = timeline_on.then(|| {
            let mode = if config.timeline_fail_fast {
                InvariantMode::FailFast
            } else {
                InvariantMode::Record
            };
            let mut invariants = InvariantSet::new(mode);
            bf_tlb::register_invariants(&mut invariants);
            bf_cache::register_invariants(&mut invariants);
            bf_os::register_invariants(&mut invariants);
            Box::new(TimelineState {
                timeline: Timeline::with_baseline(
                    config.timeline_every,
                    DEFAULT_TIMELINE_CAPACITY,
                    registry.snapshot(),
                ),
                invariants,
            })
        });
        let progress = progress_on.then(|| {
            Box::new(ProgressState {
                every: config.heartbeat_every,
                accesses: 0,
                next: config.heartbeat_every,
            })
        });
        Machine {
            kernel,
            cores,
            hierarchy,
            sched: Scheduler::new(
                config.cores,
                config.quantum_cycles,
                config.context_switch_cycles,
            ),
            procs: Vec::new(),
            latency: LatencyStats::default(),
            breakdown: TranslationBreakdown::default(),
            telem: SimTelemetry::attach(&registry),
            instrumented: timeline.is_some() || progress.is_some(),
            timeline,
            profiler: profiling.then(|| Box::new(Profiler::new(config.profile_top_k as usize))),
            capture: None,
            faults: None,
            fault_armed: false,
            telemetry_baseline: registry.snapshot(),
            progress,
            registry,
            config,
        }
    }

    /// The machine-wide telemetry registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Telemetry snapshot of the current measurement window: counter and
    /// histogram deltas since the last [`Machine::reset_measurement`]
    /// (or boot).
    pub fn telemetry_snapshot(&self) -> Snapshot {
        self.registry.snapshot().delta(&self.telemetry_baseline)
    }

    /// Attaches a capture sink. From now on every scheduler-driven
    /// event (access, context switch, request end, measurement reset)
    /// is teed into it — including events produced by the `replay_*`
    /// entry points, so a replayed run can itself be re-captured.
    pub fn attach_capture(&mut self, sink: Box<dyn CaptureSink>) {
        self.capture = Some(sink);
    }

    /// Detaches and returns the capture sink, if any.
    pub fn take_capture(&mut self) -> Option<Box<dyn CaptureSink>> {
        self.capture.take()
    }

    /// Arms deterministic fault injection per `plan`. No-op when the
    /// plan carries no machine-level faults (trace/cell clauses are
    /// handled upstream). Call before driving the machine; the samplers
    /// are keyed on (plan seed, site, per-site sequence number), so two
    /// machines armed with the same plan inject identically regardless
    /// of host threads.
    ///
    /// When an epoch timeline is active, also registers the fault
    /// accounting invariants: `fault.detected == fault.injected` and
    /// `fault.recovered <= fault.detected` at every epoch boundary.
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        if !plan.arms_machine() {
            return;
        }
        let engine = FaultEngine {
            bitflip: plan
                .tlb_bitflip
                .map(|p| plan.sampler(SITE_TLB_BITFLIP, p))
                .unwrap_or_else(SiteSampler::disarmed),
            walk_stall: plan
                .walk_stall
                .map(|s| plan.sampler(SITE_WALK_STALL, s.probability))
                .unwrap_or_else(SiteSampler::disarmed),
            stall_cycles: plan.walk_stall.map(|s| s.cycles).unwrap_or(0),
            alloc_fail: plan
                .alloc_fail
                .map(|p| plan.sampler(SITE_ALLOC_FAIL, p))
                .unwrap_or_else(SiteSampler::disarmed),
            pending: self.cores.iter().map(|_| Vec::new()).collect(),
            injected: self.registry.counter("fault.injected"),
            detected: self.registry.counter("fault.detected"),
            recovered: self.registry.counter("fault.recovered"),
        };
        if let Some(state) = self.timeline.as_deref_mut() {
            state.invariants.sum_eq(
                "fault.detected_eq_injected",
                &["fault.detected"],
                &["fault.injected"],
            );
            state.invariants.counter_le(
                "fault.recovered_le_detected",
                "fault.recovered",
                "fault.detected",
            );
        }
        self.faults = Some(Box::new(engine));
        self.fault_armed = true;
    }

    /// Drains every pending injected corruption through the consistency
    /// re-walk (detect + invalidate), so `detected == injected` and no
    /// corrupt translation is resident. Runs automatically at epoch
    /// boundaries, measurement resets, and timeline finish; harnesses
    /// call it once more before taking their final snapshots.
    pub fn quiesce_faults(&mut self) {
        if self.fault_armed {
            self.scrub_all_faults();
        }
    }

    /// Scrubs one core's pending bit-flips: the consistency re-walk
    /// detects each injected corruption and recovers by invalidating the
    /// entry (the normal refill path restores a clean translation).
    /// Corruptions that already left the TLB via eviction or a
    /// same-identity refill count as detected+recovered too — the
    /// re-walk verified the structure holds no corrupt translation.
    fn scrub_core_faults(engine: &mut FaultEngine, core_index: usize, core: &mut CoreState) {
        for flip in engine.pending[core_index].drain(..) {
            core.tlbs.scrub_l2_flip(&flip);
            engine.detected.incr();
            engine.recovered.incr();
        }
    }

    /// Scrubs every core's pending bit-flips (epoch boundaries and
    /// end-of-window quiesce).
    fn scrub_all_faults(&mut self) {
        let Some(mut engine) = self.faults.take() else {
            return;
        };
        for (core_index, core) in self.cores.iter_mut().enumerate() {
            Self::scrub_core_faults(&mut engine, core_index, core);
        }
        self.faults = Some(engine);
    }

    /// The armed miss-path hook: runs the consistency re-walk for this
    /// core, then samples the bit-flip site and, when it fires, corrupts
    /// one resident L2 entry (recording the oracle for later scrubs).
    /// Injection happens only on the miss path — the order of miss
    /// events is part of the determinism contract, the hit path is not
    /// instrumented.
    fn fault_miss_path(&mut self, core_index: usize) {
        let Some(mut engine) = self.faults.take() else {
            return;
        };
        Self::scrub_core_faults(&mut engine, core_index, &mut self.cores[core_index]);
        if let Some(selector) = engine.bitflip.fire() {
            if let Some(flip) = self.cores[core_index].tlbs.inject_l2_ppn_flip(selector) {
                engine.pending[core_index].push(flip);
                engine.injected.incr();
            }
        }
        self.faults = Some(engine);
    }

    /// Samples the walk-stall site: a fired stall models a transient
    /// walker hiccup, detected by its timeout and retried after the
    /// plan's backoff. Returns the cycles to charge (0 when not fired).
    fn fault_walk_stall(&mut self) -> Cycles {
        let Some(engine) = self.faults.as_deref_mut() else {
            return 0;
        };
        if engine.walk_stall.fire().is_some() {
            engine.injected.incr();
            engine.detected.incr();
            engine.recovered.incr();
            engine.stall_cycles
        } else {
            0
        }
    }

    /// Samples the alloc-fail site: a fired failure models the frame
    /// allocator transiently refusing, detected by the fault handler and
    /// retried after [`ALLOC_RETRY_BACKOFF`] cycles (the retry always
    /// succeeds). Returns the cycles to charge (0 when not fired).
    fn fault_alloc_retry(&mut self) -> Cycles {
        let Some(engine) = self.faults.as_deref_mut() else {
            return 0;
        };
        if engine.alloc_fail.fire().is_some() {
            engine.injected.incr();
            engine.detected.incr();
            engine.recovered.incr();
            ALLOC_RETRY_BACKOFF
        } else {
            0
        }
    }

    /// Replays one captured access: replicates `step_core`'s
    /// `Op::Access` accounting (compute cycles, instruction counters)
    /// and runs the access through the full translation pipeline — but
    /// takes no scheduling decision; captured [`CaptureSink::switch`]
    /// events stand in for the scheduler.
    pub fn replay_access(
        &mut self,
        core: u32,
        pid: Pid,
        va: VirtAddr,
        kind: AccessKind,
        instrs_before: u32,
    ) {
        if let Some(sink) = self.capture.as_mut() {
            sink.access(core, pid, va, kind, instrs_before);
        }
        let core_index = core as usize;
        let compute = instrs_before as u64 / self.config.issue_width.max(1);
        self.cores[core_index].clock += compute;
        self.cores[core_index].instructions += instrs_before as u64 + 1;
        self.telem.instructions.add(instrs_before as u64 + 1);
        self.breakdown.compute_cycles += compute;
        self.execute_access(core_index, pid, va, kind);
    }

    /// Whether a replayed access would resolve: the core exists, the
    /// process is live, and some VMA covers `va`. Salvage replay drops
    /// records that fail this check — a damaged trace can decode to
    /// mangled addresses — instead of panicking in the fault handler.
    pub fn replayable(&self, core: u32, pid: Pid, va: VirtAddr) -> bool {
        (core as usize) < self.cores.len() && self.kernel.resolvable(pid, va)
    }

    /// Replays one captured context switch (clock + breakdown charge).
    pub fn replay_switch(&mut self, core: u32, cost: Cycles) {
        if let Some(sink) = self.capture.as_mut() {
            sink.switch(core, cost);
        }
        self.cores[core as usize].clock += cost;
        self.breakdown.switch_cycles += cost;
    }

    /// Replays one captured request completion. The latency was
    /// measured live, so it is recorded directly instead of being
    /// re-derived from request-start bookkeeping.
    pub fn replay_request_end(&mut self, cycles: Cycles) {
        if let Some(sink) = self.capture.as_mut() {
            sink.request_end(cycles);
        }
        self.latency.record(cycles);
        self.telem.request_cycles.record(cycles);
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The kernel (for census queries and direct inspection).
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Mutable kernel access (container creation goes through here).
    pub fn kernel_mut(&mut self) -> &mut Kernel {
        &mut self.kernel
    }

    /// Slot of `pid` in the dense process slab.
    #[inline(always)]
    fn proc_slot(pid: Pid) -> usize {
        pid.raw() as usize
    }

    /// Assigns `pid` to `core` and gives it a workload to run.
    pub fn attach(&mut self, core: CoreId, pid: Pid, workload: Box<dyn Workload>) {
        self.sched.assign(core, pid);
        let slot = Self::proc_slot(pid);
        if slot >= self.procs.len() {
            self.procs.resize_with(slot + 1, || None);
        }
        self.procs[slot] = Some(ProcState {
            workload,
            core: core.index(),
            request_start: None,
        });
        self.cores[core.index()].active = true;
    }

    /// Terminates a process: kernel exit + TLB cleanup + scheduler
    /// removal.
    pub fn exit_process(&mut self, pid: Pid) {
        let invalidations = self.kernel.exit(pid);
        self.apply_invalidations(&invalidations);
        self.sched.remove(pid);
        if let Some(slot) = self.procs.get_mut(Self::proc_slot(pid)) {
            *slot = None;
        }
    }

    /// Applies kernel-issued TLB invalidations to every core (the
    /// paper's local + remote TLB invalidation, Section III-A).
    pub fn apply_invalidations(&mut self, invalidations: &[Invalidation]) {
        for inv in invalidations {
            for core in &mut self.cores {
                match *inv {
                    Invalidation::Shared { va, ccid } => core.tlbs.invalidate_shared(va, ccid),
                    Invalidation::SharedRange { start, pages, ccid } => {
                        for page in 0..pages {
                            core.tlbs.invalidate_shared(start.offset(page * 4096), ccid);
                        }
                    }
                    Invalidation::Page { va, pcid } => core.tlbs.invalidate_page(va, pcid),
                    Invalidation::Process { pcid } => core.tlbs.invalidate_process(pcid),
                }
            }
        }
    }

    /// Zeroes every measurement counter (after warm-up). Architectural
    /// state — TLB/cache/PWC contents, page tables, clocks — is kept.
    pub fn reset_measurement(&mut self) {
        // Quiesce injected faults first so the telemetry baseline (and
        // every later delta) sees `fault.detected == fault.injected`.
        self.quiesce_faults();
        if let Some(sink) = self.capture.as_mut() {
            sink.reset();
        }
        for core in &mut self.cores {
            core.instructions = 0;
        }
        self.kernel.reset_stats();
        self.latency = LatencyStats::default();
        self.breakdown = TranslationBreakdown::default();
        self.telemetry_baseline = self.registry.snapshot();
        if let Some(state) = self.timeline.as_mut() {
            state.timeline.restart(self.telemetry_baseline.clone());
        }
        if let Some(profiler) = self.profiler.as_deref_mut() {
            profiler.reset();
            for core in &mut self.cores {
                core.tlbs.reset_set_profile();
            }
        }
        let clocks: Vec<Cycles> = self.cores.iter().map(|c| c.clock).collect();
        for proc in self.procs.iter_mut().flatten() {
            if proc.request_start.is_some() {
                proc.request_start = Some(clocks[proc.core]);
            }
        }
    }

    /// Statistics of the current measurement window. The TLB, walk and
    /// fault counts are read from the registry window of
    /// [`Machine::telemetry_snapshot`], so they include faults serviced
    /// directly through [`Machine::kernel_mut`] within the window.
    pub fn stats(&self) -> MachineStats {
        let window = self.telemetry_snapshot();
        let faults = |kind: &str| {
            window
                .histogram(&format!("os.fault.{kind}_cycles"))
                .map_or(0, |h| h.count)
        };
        MachineStats {
            instructions: self.cores.iter().map(|core| core.instructions).sum(),
            tlb: bf_tlb::TlbGroupStats::from_snapshot(&window),
            latency: self.latency.clone(),
            breakdown: self.breakdown,
            walks: window.counter("sim.walks"),
            minor_faults: faults("minor"),
            major_faults: faults("major"),
            cow_faults: faults("cow"),
            shared_resolved: faults("shared_resolved"),
        }
    }

    /// Clock of `core` (cycles since boot).
    pub fn core_clock(&self, core: CoreId) -> Cycles {
        self.cores[core.index()].clock
    }

    /// Retires `instrs` non-memory instructions on `core` (used by
    /// callers that drive accesses manually instead of through the
    /// scheduler, e.g. the run-to-completion function harness).
    pub fn retire(&mut self, core: CoreId, instrs: u64) {
        let cycles = instrs / self.config.issue_width.max(1);
        let state = &mut self.cores[core.index()];
        state.clock += cycles;
        state.instructions += instrs;
        self.telem.instructions.add(instrs);
        self.breakdown.compute_cycles += cycles;
    }

    /// Runs every core until each has retired `budget` instructions in
    /// this measurement window (cores with nothing runnable stop early).
    pub fn run_instructions(&mut self, budget: u64) {
        loop {
            let next = self
                .cores
                .iter()
                .enumerate()
                .filter(|(i, c)| {
                    c.active && c.instructions < budget && self.sched_has_work(CoreId::new(*i))
                })
                .min_by_key(|(_, c)| c.clock)
                .map(|(i, _)| i);
            match next {
                Some(core) => {
                    self.step_core(core);
                }
                None => break,
            }
        }
    }

    /// Runs until every attached workload has emitted [`Op::Done`]
    /// (functions run to completion; their processes exit).
    pub fn run_until_done(&mut self) {
        loop {
            let next = self
                .cores
                .iter()
                .enumerate()
                .filter(|(i, c)| c.active && self.sched_has_work(CoreId::new(*i)))
                .min_by_key(|(_, c)| c.clock)
                .map(|(i, _)| i);
            match next {
                Some(core) => {
                    self.step_core(core);
                }
                None => break,
            }
        }
    }

    fn sched_has_work(&self, core: CoreId) -> bool {
        self.sched.load(core) > 0
    }

    /// Executes one scheduling decision + one workload op on `core`.
    fn step_core(&mut self, core_index: usize) {
        let core_id = CoreId::new(core_index);
        let pid = match self.sched.current(core_id) {
            Some(pid) => pid,
            None => match self.sched.tick(core_id, 0) {
                SchedDecision::Switch { to, cost, .. } => {
                    if let Some(sink) = self.capture.as_mut() {
                        sink.switch(core_index as u32, cost);
                    }
                    self.cores[core_index].clock += cost;
                    self.breakdown.switch_cycles += cost;
                    to
                }
                SchedDecision::Idle => {
                    self.cores[core_index].active = false;
                    return;
                }
                SchedDecision::Continue => unreachable!("tick with no current cannot continue"),
            },
        };

        let op = match self
            .procs
            .get_mut(Self::proc_slot(pid))
            .and_then(|p| p.as_mut())
        {
            Some(proc) => proc.workload.next_op(),
            None => {
                // Process without a workload (exited): drop it.
                self.sched.remove(pid);
                return;
            }
        };

        match op {
            Op::Access {
                va,
                kind,
                instrs_before,
            } => {
                if let Some(sink) = self.capture.as_mut() {
                    sink.access(core_index as u32, pid, va, kind, instrs_before);
                }
                let compute = instrs_before as u64 / self.config.issue_width.max(1);
                self.cores[core_index].clock += compute;
                self.cores[core_index].instructions += instrs_before as u64 + 1;
                self.telem.instructions.add(instrs_before as u64 + 1);
                self.breakdown.compute_cycles += compute;
                let access_cycles = self.execute_access(core_index, pid, va, kind);
                let decision = self.sched.tick(core_id, compute + access_cycles);
                if let SchedDecision::Switch { cost, .. } = decision {
                    if let Some(sink) = self.capture.as_mut() {
                        sink.switch(core_index as u32, cost);
                    }
                    self.cores[core_index].clock += cost;
                    self.breakdown.switch_cycles += cost;
                }
            }
            Op::RequestEnd => {
                let clock = self.cores[core_index].clock;
                let proc = self.procs[Self::proc_slot(pid)]
                    .as_mut()
                    .expect("RequestEnd from an attached process");
                let start = proc.request_start.unwrap_or(clock);
                proc.request_start = Some(clock);
                if clock > start {
                    if let Some(sink) = self.capture.as_mut() {
                        sink.request_end(clock - start);
                    }
                    self.latency.record(clock - start);
                    self.telem.request_cycles.record(clock - start);
                }
            }
            Op::Done => {
                self.exit_process(pid);
            }
        }
    }

    /// Executes one memory access through the full translation + memory
    /// pipeline, advancing the core clock. Returns the access latency.
    ///
    /// # Panics
    ///
    /// Panics if the address segfaults (workloads only touch their own
    /// mappings) or a fault cannot be resolved.
    pub fn execute_access(
        &mut self,
        core_index: usize,
        pid: Pid,
        va: VirtAddr,
        kind: AccessKind,
    ) -> Cycles {
        let access = self.make_access(pid, va, kind);
        let cycles = self.execute_access_inner(core_index, &access);
        // Hoisted instrumentation gate: the fully-off hot path pays only
        // this single end-of-access branch.
        if self.instrumented {
            self.epoch_tick(core_index);
            self.progress_tick();
        }
        cycles
    }

    /// Resolves the per-process translation-tagging state for one
    /// access: PCID/CCID from a single process-table lookup, the O-PC
    /// PrivateCopy bit from the CCID group's MaskPage.
    fn make_access(&self, pid: Pid, va: VirtAddr, kind: AccessKind) -> TlbAccess {
        let proc = self.kernel.process(pid);
        let ccid = proc.ccid();
        TlbAccess {
            va,
            pcid: proc.pcid(),
            ccid,
            pid,
            pc_bit: self.kernel.pc_bit(ccid, pid, va),
            kind,
        }
    }

    /// The translation + memory pipeline for one prepared access:
    /// L1 TLB → L2 TLB → CoW-hit fault handling → the page-walk/fault
    /// convergence loop → the data access through the cache hierarchy.
    /// Advances the core clock and returns the access latency. Does
    /// *not* run the end-of-access instrumentation tail (epoch and
    /// progress ticks); [`Machine::execute_access`] owns that.
    fn execute_access_inner(&mut self, core_index: usize, access: &TlbAccess) -> Cycles {
        let mut cycles: Cycles = 0;
        let is_write = access.kind.is_write();

        // --- L1 TLB ---
        let (l1_result, l1_cycles) = self.cores[core_index].tlbs.lookup_l1(access);
        cycles += l1_cycles;
        self.breakdown.tlb_cycles += l1_cycles;

        let mut translated: Option<(bf_types::Ppn, PageSize)> = None;
        let mut faulted_cow_hit = false;
        match l1_result {
            LookupResult::Hit(hit) => translated = Some((hit.ppn, hit.size)),
            LookupResult::CowFault(_) => faulted_cow_hit = true,
            LookupResult::Miss { .. } => {}
        }

        // --- L2 TLB (on L1 miss) ---
        if translated.is_none() && !faulted_cow_hit {
            if self.config.mode.aslr_transformation() {
                cycles += self.config.aslr_transform_cycles;
                self.breakdown.tlb_cycles += self.config.aslr_transform_cycles;
            }
            let (l2_result, l2_cycles) = self.cores[core_index].tlbs.lookup_l2(access);
            cycles += l2_cycles;
            self.breakdown.tlb_cycles += l2_cycles;
            match l2_result {
                LookupResult::Hit(hit) => {
                    // Refill the L1 from the L2 entry.
                    self.cores[core_index].tlbs.refill_l1_from_hit(access, &hit);
                    translated = Some((hit.ppn, hit.size));
                }
                LookupResult::CowFault(_) => faulted_cow_hit = true,
                LookupResult::Miss { .. } => {}
            }
        }

        let core_id = CoreId::new(core_index);
        let pid = access.pid;
        let va = access.va;
        let kind = access.kind;

        // --- CoW fault raised from a TLB hit (Fig. 8 step 6) ---
        if faulted_cow_hit {
            if self.fault_armed {
                let backoff = self.fault_alloc_retry();
                cycles += backoff;
                self.breakdown.fault_cycles += backoff;
            }
            let resolution = self
                .kernel
                .handle_fault(pid, va, is_write)
                .expect("CoW fault resolution failed");
            cycles += resolution.cost;
            self.breakdown.fault_cycles += resolution.cost;
            self.apply_invalidations(&resolution.invalidations);
        }

        // --- Page walk(s) ---
        if translated.is_none() {
            if self.fault_armed {
                self.fault_miss_path(core_index);
            }
            if let Some(profiler) = self.profiler.as_deref_mut() {
                profiler.record_miss(access.ccid.raw(), pid.raw(), va.vpn(PageSize::Size4K).raw());
            }
            let mut attempts = 0;
            loop {
                attempts += 1;
                assert!(
                    attempts <= 4,
                    "fault loop did not converge at {va} for {pid}"
                );
                let (mut walk_cycles, walk, path) = self.hardware_walk(core_index, access);
                if self.fault_armed {
                    // Transient walk stall: detected by the walker's
                    // timeout, retried after the plan's backoff; the
                    // retry always succeeds, so the only architectural
                    // effect is the added walk latency.
                    walk_cycles += self.fault_walk_stall();
                }
                if let Some(profiler) = self.profiler.as_deref_mut() {
                    profiler.record_walk(
                        access.ccid.raw(),
                        pid.raw(),
                        va.vpn(PageSize::Size4K).raw(),
                        walk_cycles,
                        path,
                    );
                }
                cycles += walk_cycles;
                self.breakdown.walk_cycles += walk_cycles;
                self.telem.walks.incr();

                let leaf = walk.leaf();
                let cow_write = leaf
                    .map(|(entry, _)| is_write && entry.flags.contains(PageFlags::COW))
                    .unwrap_or(false);
                if let Some((entry, size)) = leaf {
                    if !cow_write {
                        // Install into L2 + L1 with the O-PC state drawn
                        // from the pmd_t (and MaskPage if ORPC).
                        let pmd_flags = walk
                            .pmd_step()
                            .map(|s| s.value.flags)
                            .unwrap_or(PageFlags::empty());
                        let fill = self.fill_from_walk(pid, va, entry, size, pmd_flags, access);
                        self.cores[core_index].tlbs.fill(kind, fill);
                        // The walker sets A on the leaf it just read;
                        // nothing has written the tables since.
                        let leaf_step = walk.steps().last().expect("a leaf ends the walk");
                        self.kernel.mark_leaf_accessed(leaf_step);
                        translated = Some((entry.ppn, size));
                        break;
                    }
                }
                // Fault: missing translation or CoW write.
                if self.fault_armed {
                    let backoff = self.fault_alloc_retry();
                    cycles += backoff;
                    self.breakdown.fault_cycles += backoff;
                }
                let resolution = self
                    .kernel
                    .handle_fault(pid, va, is_write)
                    .unwrap_or_else(|e| panic!("unresolvable fault at {va} for {pid}: {e}"));
                cycles += resolution.cost;
                self.breakdown.fault_cycles += resolution.cost;
                self.apply_invalidations(&resolution.invalidations);
            }
        }

        // --- The data / instruction access itself ---
        let (ppn, size) = translated.expect("translation must have succeeded");
        let paddr = ppn.base_addr().offset(va.page_offset(size));
        let now = self.cores[core_index].clock + cycles;
        let raw_mem = self
            .hierarchy
            .access(core_id, paddr, kind, AccessOrigin::Core, now);
        // The OoO core hides part of the data latency through MLP; the
        // translation path above cannot be hidden.
        let mem_cycles = ((raw_mem as f64) * (1.0 - self.config.memory_overlap))
            .round()
            .max(1.0) as Cycles;
        cycles += mem_cycles;
        self.breakdown.memory_cycles += mem_cycles;
        self.cores[core_index].clock += cycles;
        cycles
    }

    /// Counts one access against the timeline and, at epoch boundaries,
    /// seals the epoch and runs the invariant set. Off the hot path: the
    /// caller only reaches here when instrumentation is on.
    fn epoch_tick(&mut self, core_index: usize) {
        let Some(mut state) = self.timeline.take() else {
            return; // heartbeat progress on, timeline off
        };
        if state.timeline.record_access() {
            if self.fault_armed {
                // Epoch-boundary consistency sweep: every injected
                // corruption is detected and repaired before the
                // snapshot, so the fault invariants hold exactly.
                self.scrub_all_faults();
            }
            let snapshot = self.registry.snapshot();
            state
                .timeline
                .seal_epoch(&snapshot, self.cores[core_index].clock);
            self.check_machine_invariants(&mut state.invariants);
            state.invariants.check(&snapshot);
        }
        self.timeline = Some(state);
    }

    /// Counts one access toward the heartbeat progress boundary and, on
    /// reaching it, emits a `progress` event with the cumulative
    /// access/instruction/L2-miss counters. Off the hot path: reached
    /// only behind the `instrumented` gate, and a no-op unless the
    /// heartbeat is armed for this machine.
    fn progress_tick(&mut self) {
        let Some(progress) = self.progress.as_mut() else {
            return;
        };
        progress.accesses += 1;
        if progress.accesses < progress.next {
            return;
        }
        progress.next += progress.every;
        let accesses = progress.accesses;
        let snapshot = self.registry.snapshot();
        bf_telemetry::heartbeat::progress(
            accesses,
            snapshot.counter("sim.instructions"),
            snapshot.counter("tlb.l2.misses"),
        );
    }

    /// Structural invariants that need machine state, not just counters:
    /// TLB residency against capacity and MaskPage bit/pid-list
    /// consistency (in deterministic key order).
    fn check_machine_invariants(&self, invariants: &mut InvariantSet) {
        for (i, core) in self.cores.iter().enumerate() {
            let resident = core.tlbs.resident_entries();
            let capacity = core.tlbs.capacity();
            if resident > capacity {
                invariants.report(
                    "tlb.resident_within_capacity",
                    format!("core {i}: {resident} resident entries exceed capacity {capacity}"),
                );
            }
        }
        for (ccid, region, maskpage) in self.kernel.maskpages() {
            if let Err(detail) = maskpage.validate() {
                invariants.report(
                    "os.maskpage.bits_within_pid_list",
                    format!("ccid {} GB-region {region}: {detail}", ccid.raw()),
                );
            }
        }
    }

    /// Seals the in-flight epoch against the current registry state and
    /// returns the frozen timeline with any recorded invariant
    /// violations. `None` when timelines are off; consumes the timeline,
    /// so later accesses are no longer tracked.
    pub fn take_timeline(&mut self) -> Option<TimelineSnapshot> {
        self.quiesce_faults();
        let mut state = *self.timeline.take()?;
        self.check_machine_invariants(&mut state.invariants);
        let snapshot = self.registry.snapshot();
        state.invariants.check(&snapshot);
        let end_cycle = self.cores.iter().map(|c| c.clock).max().unwrap_or(0);
        Some(
            state
                .timeline
                .finish(&snapshot, end_cycle, state.invariants.take_violations()),
        )
    }

    /// Finishes the miss-attribution profile for this measurement
    /// window, aggregating the per-core L2 TLB set counters into the
    /// snapshot, and consumes the profiler. `None` when
    /// [`SimConfig::profile_top_k`] was zero.
    pub fn take_profile(&mut self) -> Option<ProfileSnapshot> {
        let profiler = self.profiler.take()?;
        let mut sets = SetCounts::default();
        for core in &self.cores {
            if let Some(sp) = core.tlbs.set_profile() {
                sets.merge(sp);
            }
        }
        Some(profiler.snapshot(Some(sets)))
    }

    /// Test-only corruption hook: bumps a registry counter out from
    /// under its owning component, so the invariant-checking path can be
    /// exercised end to end. Not for simulation use.
    #[doc(hidden)]
    pub fn debug_corrupt_counter(&self, name: &str, delta: u64) {
        self.registry.counter(name).add(delta);
    }

    /// The hardware page walk: PWC probes for the upper levels, cache
    /// hierarchy accesses (entering at the L2, Fig. 7) for the rest, the
    /// MaskPage fetched in parallel with the `pte_t` when the `pmd_t` has
    /// ORPC set (Appendix).
    ///
    /// Also returns the walk's [`PathSig`] — one 3-bit frame per level
    /// recording what served the entry (PWC / L2 / L3 / DRAM). Building
    /// it is a shift-or per step; the profiler consumes it when enabled
    /// and it is dead otherwise. The parallel MaskPage fetch is not part
    /// of the signature (it overlaps the `pte_t` fetch and attributes
    /// no serial latency of its own).
    fn hardware_walk(
        &mut self,
        core_index: usize,
        access: &TlbAccess,
    ) -> (Cycles, WalkResult, PathSig) {
        let core_id = CoreId::new(core_index);
        let va = access.va;
        let walk = self.kernel.space(access.pid).walk(self.kernel.store(), va);
        let mut cycles: Cycles = 0;
        let mut path: PathSig = 0;
        let steps = walk.steps();
        let last = steps.len().saturating_sub(1);

        for (i, step) in steps.iter().enumerate() {
            let is_final = i == last;
            let upper_level = matches!(
                step.level,
                PageTableLevel::Pgd | PageTableLevel::Pud | PageTableLevel::Pmd
            ) && !is_final;

            if upper_level {
                let core = &mut self.cores[core_index];
                cycles += core.pwc.config().access_cycles;
                if core.pwc.probe(step.level, step.entry_addr) {
                    path = path_push(path, path_src::PWC);
                } else {
                    let now = core.clock + cycles;
                    let (t, served) = self.hierarchy.access_classified(
                        core_id,
                        step.entry_addr,
                        AccessKind::Read,
                        AccessOrigin::PageWalker,
                        now,
                    );
                    cycles += t;
                    path = path_push(path, served_src(served));
                    self.cores[core_index].pwc.fill(step.level, step.entry_addr);
                }
            } else {
                // Final fetch (pte_t, or the level where the walk ends).
                let now = self.cores[core_index].clock + cycles;
                let (t_entry, served) = self.hierarchy.access_classified(
                    core_id,
                    step.entry_addr,
                    AccessKind::Read,
                    AccessOrigin::PageWalker,
                    now,
                );
                path = path_push(path, served_src(served));
                // Parallel MaskPage fetch when ORPC is set on the pmd_t.
                let orpc = walk
                    .pmd_step()
                    .map(|s| s.value.flags.contains(PageFlags::ORPC))
                    .unwrap_or(false);
                let t_mask = if orpc {
                    match self.kernel.maskpage_frame(access.ccid, va) {
                        Some(frame) => {
                            let line = (va.pmd_index() as u64 * 4) / 64 * 64;
                            self.hierarchy.access(
                                core_id,
                                frame.base_addr().offset(line),
                                AccessKind::Read,
                                AccessOrigin::PageWalker,
                                now,
                            )
                        }
                        None => 0,
                    }
                } else {
                    0
                };
                cycles += t_entry.max(t_mask);
            }
        }
        (cycles, walk, path)
    }

    fn fill_from_walk(
        &self,
        pid: Pid,
        va: VirtAddr,
        entry: bf_pgtable::EntryValue,
        size: PageSize,
        pmd_flags: PageFlags,
        access: &TlbAccess,
    ) -> TlbFill {
        let owned = entry.flags.contains(PageFlags::OWNED) || pmd_flags.contains(PageFlags::OWNED);
        let orpc = !owned && pmd_flags.contains(PageFlags::ORPC);
        let ccid = access.ccid;
        TlbFill {
            vpn: va.vpn(size),
            ppn: entry.ppn,
            size,
            flags: entry.flags,
            pcid: access.pcid,
            ccid,
            owned,
            orpc,
            pc_bitmask: if orpc {
                self.kernel.pc_bitmask(ccid, va)
            } else {
                0
            },
            loader: pid,
        }
    }

    /// Faults in every page of `pid`'s VMAs without charging time — the
    /// simulation equivalent of the paper's minute-long OS warm-up
    /// (Section VI), which leaves the steady-state working set resident
    /// and mapped in every container before measurement begins.
    ///
    /// Anonymous/writable regions are touched with writes (so CoW state
    /// resolves as it would after real execution); read-only and
    /// CoW-file regions are touched with reads.
    pub fn prefault(&mut self, pid: Pid) {
        let vmas: Vec<(VirtAddr, u64, bool)> = self
            .kernel
            .process(pid)
            .vmas()
            .iter()
            .map(|vma| {
                let write = matches!(vma.backing(), bf_os::Backing::Anon { .. })
                    && vma.perms().contains(PageFlags::WRITE);
                (vma.start(), vma.pages(), write)
            })
            .collect();
        for (start, pages, write) in vmas {
            for page in 0..pages {
                let va = start.offset(page * 4096);
                // Present translations need no service.
                if self
                    .kernel
                    .space(pid)
                    .walk(self.kernel.store(), va)
                    .leaf()
                    .is_some()
                {
                    continue;
                }
                match self.kernel.handle_fault(pid, va, write) {
                    Ok(resolution) => {
                        let invalidations = resolution.invalidations;
                        self.apply_invalidations(&invalidations);
                    }
                    Err(e) => panic!("prefault failed at {va} for {pid}: {e}"),
                }
            }
        }
    }

    /// Measures a container's bring-up: the creation cost (fork/mmaps +
    /// docker engine) plus the simulated execution of the `docker start`
    /// touch sequence (Section VII-C).
    pub fn measure_bringup(
        &mut self,
        core: CoreId,
        container: &Container,
        profile: &BringupProfile,
        seed: u64,
    ) -> Cycles {
        self.apply_invalidations(container.creation_invalidations());
        let mut total = container.creation_cost();
        self.cores[core.index()].clock += container.creation_cost();
        for step in profile.steps(container.layout(), seed) {
            total += self.execute_access(core.index(), container.pid(), step.va, step.kind);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Mode;
    use bf_containers::{ContainerRuntime, ImageSpec};
    use bf_os::MmapRequest;
    use bf_os::Segment;

    fn machine(mode: Mode) -> Machine {
        Machine::new(SimConfig::new(2, mode).with_frames(1 << 20))
    }

    /// Creates a process with one file mapping and returns (pid, va).
    fn process_with_file(machine: &mut Machine, pages: u64) -> (Pid, VirtAddr) {
        let kernel = machine.kernel_mut();
        let group = kernel.create_group();
        let pid = kernel.spawn(group).unwrap();
        let file = kernel.register_file(pages * 4096);
        let va = kernel
            .mmap(
                pid,
                MmapRequest::file_shared(Segment::Lib, file, 0, pages * 4096, PageFlags::USER),
            )
            .unwrap();
        (pid, va)
    }

    #[test]
    fn first_access_walks_and_faults_second_hits_l1() {
        let mut m = machine(Mode::Baseline);
        let (pid, va) = process_with_file(&mut m, 4);
        let cold = m.execute_access(0, pid, va, AccessKind::Read);
        let warm = m.execute_access(0, pid, va, AccessKind::Read);
        assert!(cold > warm, "cold {cold} vs warm {warm}");
        assert!(warm <= 1 + 2 + 2, "L1 TLB hit + L1 cache access");
        let stats = m.stats();
        // The cold access walks, faults, then re-walks successfully.
        assert_eq!(stats.walks, 2);
        assert_eq!(stats.major_faults, 1, "first touch reads from disk");
    }

    #[test]
    fn babelfish_second_container_reuses_translation() {
        let mut m = machine(Mode::babelfish());
        let kernel = m.kernel_mut();
        let group = kernel.create_group();
        let a = kernel.spawn(group).unwrap();
        let b = kernel.spawn(group).unwrap();
        let file = kernel.register_file(16 * 4096);
        let req = MmapRequest::file_shared(Segment::Lib, file, 0, 16 * 4096, PageFlags::USER);
        let va = kernel.mmap(a, req).unwrap();
        kernel.mmap(b, req).unwrap();

        m.execute_access(0, a, va, AccessKind::Read);
        // Same core, different process: the L2 TLB entry is shared.
        let shared = m.execute_access(0, b, va, AccessKind::Read);
        let stats = m.stats();
        assert_eq!(stats.tlb.l2.data_shared_hits, 1, "B hit A's L2 entry");
        assert_eq!(
            stats.minor_faults + stats.major_faults,
            1,
            "B faulted nothing"
        );
        // The shared path pays L1 miss + ASLR + L2 hit + memory, well
        // under a walk + fault.
        assert!(shared < 100, "shared access latency {shared}");
    }

    #[test]
    fn baseline_second_container_pays_fault_and_walk() {
        let mut m = machine(Mode::Baseline);
        let kernel = m.kernel_mut();
        let group = kernel.create_group();
        let a = kernel.spawn(group).unwrap();
        let b = kernel.spawn(group).unwrap();
        let file = kernel.register_file(16 * 4096);
        let req = MmapRequest::file_shared(Segment::Lib, file, 0, 16 * 4096, PageFlags::USER);
        let va = kernel.mmap(a, req).unwrap();
        kernel.mmap(b, req).unwrap();

        m.execute_access(0, a, va, AccessKind::Read);
        m.execute_access(0, b, va, AccessKind::Read);
        let stats = m.stats();
        assert_eq!(stats.tlb.l2.data_shared_hits, 0);
        assert_eq!(stats.walks, 4, "each container walks, faults, re-walks");
        assert_eq!(stats.major_faults, 1);
        assert_eq!(
            stats.minor_faults, 1,
            "B pays its own minor fault (Fig. 7 top)"
        );
    }

    #[test]
    fn cow_write_through_tlb_triggers_fault_and_invalidation() {
        let mut m = machine(Mode::babelfish());
        let kernel = m.kernel_mut();
        let group = kernel.create_group();
        let parent = kernel.spawn(group).unwrap();
        let va = kernel
            .mmap(
                parent,
                MmapRequest::anon(
                    Segment::Heap,
                    0x4000,
                    PageFlags::USER | PageFlags::WRITE,
                    false,
                ),
            )
            .unwrap();
        kernel.handle_fault(parent, va, true).unwrap();
        let (child, _, inv) = kernel.fork(parent).unwrap();
        m.apply_invalidations(&inv.clone());

        // Parent reads (loads shared CoW entry into the TLB), child writes.
        m.execute_access(0, parent, va, AccessKind::Read);
        m.execute_access(1, child, va, AccessKind::Write);
        let stats = m.stats();
        assert!(stats.cow_faults >= 1);
        // Parent's next read misses the (invalidated) shared entry but
        // re-walks successfully to the original frame.
        m.execute_access(0, parent, va, AccessKind::Read);
        let leaf = m
            .kernel()
            .space(parent)
            .walk(m.kernel().store(), va)
            .leaf()
            .unwrap();
        assert!(!leaf.0.flags.contains(PageFlags::OWNED));
    }

    #[test]
    fn scheduler_multiplexes_two_containers() {
        let mut m = machine(Mode::Baseline);
        let kernel = m.kernel_mut();
        let mut runtime = ContainerRuntime::new(kernel);
        let image = runtime.build_image(kernel, &ImageSpec::compute("fio", 2 << 20));
        let group = runtime.create_group(kernel);
        let c1 = runtime.create_container(kernel, &image, group).unwrap();
        let c2 = runtime.create_container(kernel, &image, group).unwrap();
        let w1 = Box::new(bf_workloads::FioCompute::new(c1.layout().clone(), 1));
        let w2 = Box::new(bf_workloads::FioCompute::new(c2.layout().clone(), 2));
        m.attach(CoreId::new(0), c1.pid(), w1);
        m.attach(CoreId::new(0), c2.pid(), w2);
        m.run_instructions(20_000);
        let stats = m.stats();
        assert!(stats.instructions >= 20_000);
        assert!(stats.walks > 0);
        assert!(stats.ipc() > 0.0);
    }

    #[test]
    fn functions_run_to_completion_and_exit() {
        let mut m = machine(Mode::babelfish());
        let kernel = m.kernel_mut();
        let mut runtime = ContainerRuntime::new(kernel);
        let mut spec = ImageSpec::function("parse");
        spec.dataset_bytes = 4 << 20; // the shared input
        let image = runtime.build_image(kernel, &spec);
        let group = runtime.create_group(kernel);
        let c = runtime.create_container(kernel, &image, group).unwrap();
        let w = Box::new(bf_workloads::FunctionWorkload::new(
            bf_workloads::FunctionKind::Parse,
            bf_workloads::AccessDensity::Dense,
            c.layout().clone(),
            1,
        ));
        m.attach(CoreId::new(0), c.pid(), w);
        m.run_until_done();
        assert!(!m.kernel().alive(c.pid()), "function container exited");
    }

    #[test]
    fn request_latencies_are_recorded() {
        let mut m = machine(Mode::Baseline);
        let kernel = m.kernel_mut();
        let mut runtime = ContainerRuntime::new(kernel);
        let image = runtime.build_image(kernel, &ImageSpec::data_serving("httpd", 2 << 20));
        let group = runtime.create_group(kernel);
        let c = runtime.create_container(kernel, &image, group).unwrap();
        let w = Box::new(bf_workloads::DataServing::new(
            bf_workloads::ServingVariant::Httpd,
            c.layout().clone(),
            1,
        ));
        m.attach(CoreId::new(0), c.pid(), w);
        m.run_instructions(10_000);
        assert!(m.stats().latency.count() > 0, "requests completed");
    }

    #[test]
    fn reset_measurement_clears_counters_keeps_state() {
        let mut m = machine(Mode::Baseline);
        let (pid, va) = process_with_file(&mut m, 4);
        m.execute_access(0, pid, va, AccessKind::Read);
        assert!(m.stats().walks > 0);
        m.reset_measurement();
        let stats = m.stats();
        assert_eq!(stats.walks, 0);
        assert_eq!(stats.tlb.l2.misses(), 0);
        // Architectural state preserved: the next access still hits.
        let warm = m.execute_access(0, pid, va, AccessKind::Read);
        assert!(warm <= 5);
    }

    #[test]
    fn prefault_reaches_steady_state() {
        let mut m = machine(Mode::Baseline);
        let kernel = m.kernel_mut();
        let group = kernel.create_group();
        let pid = kernel.spawn(group).unwrap();
        let file = kernel.register_file(64 * 4096);
        let va = kernel
            .mmap(
                pid,
                MmapRequest::file_shared(Segment::Lib, file, 0, 64 * 4096, PageFlags::USER),
            )
            .unwrap();
        let heap = kernel
            .mmap(
                pid,
                MmapRequest::anon(
                    Segment::Heap,
                    32 * 4096,
                    PageFlags::USER | PageFlags::WRITE,
                    false,
                ),
            )
            .unwrap();
        m.prefault(pid);
        m.reset_measurement();
        for page in 0..64u64 {
            m.execute_access(0, pid, va.offset(page * 4096), AccessKind::Read);
        }
        for page in 0..32u64 {
            m.execute_access(0, pid, heap.offset(page * 4096), AccessKind::Write);
        }
        let stats = m.stats();
        assert_eq!(
            stats.minor_faults + stats.major_faults + stats.cow_faults,
            0,
            "prefaulted state must not fault"
        );
    }

    #[test]
    fn tlb_fill_sets_accessed_without_a_second_walk() {
        let mut m = machine(Mode::Baseline);
        let (pid, va) = process_with_file(&mut m, 8);
        m.prefault(pid);
        let accessed = |m: &Machine, page: u64| {
            let walk = m
                .kernel()
                .space(pid)
                .walk(m.kernel().store(), va.offset(page * 4096));
            walk.leaf().unwrap().0.flags.contains(PageFlags::ACCESSED)
        };
        assert!(
            (0..8).all(|page| !accessed(&m, page)),
            "faults leave A clear"
        );
        m.reset_measurement();
        for page in 0..8u64 {
            for _ in 0..2 {
                m.execute_access(0, pid, va.offset(page * 4096), AccessKind::Read);
            }
        }
        let window = m.telemetry_snapshot();
        let stats = m.stats();
        assert_eq!(
            stats.minor_faults + stats.major_faults + stats.cow_faults,
            0
        );
        assert_eq!(window.counter("sim.walks"), 8, "one walk per first touch");
        assert_eq!(
            window.counter("pgtable.walks"),
            window.counter("sim.walks"),
            "one software walk per hardware walk"
        );
        assert!((0..8).all(|page| accessed(&m, page)), "each fill set A");
    }

    #[test]
    fn huge_file_mappings_use_2mb_tlb_structures() {
        let mut m = machine(Mode::babelfish());
        let kernel = m.kernel_mut();
        let group = kernel.create_group();
        let a = kernel.spawn(group).unwrap();
        let b = kernel.spawn(group).unwrap();
        let file = kernel.register_file(4 << 20);
        let req = MmapRequest::file_shared_huge(
            Segment::FileMap,
            file,
            0,
            4 << 20,
            PageFlags::USER | PageFlags::WRITE,
        );
        let va = kernel.mmap(a, req).unwrap();
        kernel.mmap(b, req).unwrap();

        m.execute_access(0, a, va, AccessKind::Read);
        // A different 4 KB page *within the same huge page*: still no
        // further walk — the 2 MB L1 TLB structure covers it.
        let walks_after_first = m.stats().walks;
        m.execute_access(0, a, va.offset(0x12345), AccessKind::Read);
        assert_eq!(
            m.stats().walks,
            walks_after_first,
            "no walk within the huge page"
        );
        // The other container shares the L2 entry (same core).
        m.execute_access(0, b, va.offset(0x1000), AccessKind::Read);
        let stats = m.stats();
        assert_eq!(
            stats.tlb.l2.data_shared_hits, 1,
            "B hit A's shared 2MB entry"
        );
        assert_eq!(stats.major_faults, 1, "one chunk read for the group");
    }

    #[test]
    fn aslr_sw_shares_l1_entries_between_processes() {
        let mode = Mode::BabelFish {
            share_tlb: true,
            share_page_tables: true,
            aslr: bf_os::AslrMode::SoftwareOnly,
        };
        let mut m = machine(mode);
        let kernel = m.kernel_mut();
        let group = kernel.create_group();
        let a = kernel.spawn(group).unwrap();
        let b = kernel.spawn(group).unwrap();
        let file = kernel.register_file(4 * 4096);
        let req = MmapRequest::file_shared(Segment::Lib, file, 0, 4 * 4096, PageFlags::USER);
        let va = kernel.mmap(a, req).unwrap();
        kernel.mmap(b, req).unwrap();
        m.execute_access(0, a, va, AccessKind::Read);
        let shared = m.execute_access(0, b, va, AccessKind::Read);
        assert!(
            shared <= 4,
            "ASLR-SW allows an L1 TLB shared hit, got {shared}"
        );
        assert_eq!(m.stats().tlb.l1d.data_shared_hits, 1);
    }

    #[test]
    fn cow_invalidation_reaches_remote_cores() {
        let mut m = machine(Mode::babelfish());
        let kernel = m.kernel_mut();
        let group = kernel.create_group();
        let parent = kernel.spawn(group).unwrap();
        let va = kernel
            .mmap(
                parent,
                MmapRequest::anon(
                    Segment::Heap,
                    0x2000,
                    PageFlags::USER | PageFlags::WRITE,
                    false,
                ),
            )
            .unwrap();
        kernel.handle_fault(parent, va, true).unwrap();
        let (child, _, inv) = kernel.fork(parent).unwrap();
        m.apply_invalidations(&inv.clone());

        // Parent loads the shared CoW entry on core 1.
        m.execute_access(1, parent, va, AccessKind::Read);
        let l2_misses_before = m.stats().tlb.l2.misses();
        // Child writes on core 0: the shared entry on core 1 must die.
        m.execute_access(0, child, va, AccessKind::Write);
        // Parent re-reads on core 1: must re-walk (its entry was shot down).
        m.execute_access(1, parent, va, AccessKind::Read);
        assert!(
            m.stats().tlb.l2.misses() > l2_misses_before,
            "remote shared entry must have been invalidated"
        );
    }

    #[test]
    fn memory_overlap_hides_data_latency_only() {
        let mut no_overlap = SimConfig::new(1, Mode::Baseline).with_frames(1 << 20);
        no_overlap.memory_overlap = 0.0;
        let mut machine_a = Machine::new(no_overlap);
        let (pid_a, va_a) = {
            let kernel = machine_a.kernel_mut();
            let g = kernel.create_group();
            let pid = kernel.spawn(g).unwrap();
            let file = kernel.register_file(4096);
            let va = kernel
                .mmap(
                    pid,
                    MmapRequest::file_shared(Segment::Lib, file, 0, 4096, PageFlags::USER),
                )
                .unwrap();
            (pid, va)
        };
        let cold_a = machine_a.execute_access(0, pid_a, va_a, AccessKind::Read);

        let mut with_overlap = SimConfig::new(1, Mode::Baseline).with_frames(1 << 20);
        with_overlap.memory_overlap = 0.9;
        let mut machine_b = Machine::new(with_overlap);
        let (pid_b, va_b) = {
            let kernel = machine_b.kernel_mut();
            let g = kernel.create_group();
            let pid = kernel.spawn(g).unwrap();
            let file = kernel.register_file(4096);
            let va = kernel
                .mmap(
                    pid,
                    MmapRequest::file_shared(Segment::Lib, file, 0, 4096, PageFlags::USER),
                )
                .unwrap();
            (pid, va)
        };
        let cold_b = machine_b.execute_access(0, pid_b, va_b, AccessKind::Read);
        assert!(cold_b < cold_a, "higher MLP hides more data latency");
        // But the walk/fault portion is untouched: both still paid it.
        assert!(machine_b.stats().breakdown.walk_cycles > 0);
        assert_eq!(
            machine_a.stats().breakdown.walk_cycles,
            machine_b.stats().breakdown.walk_cycles,
            "translation latency is never overlapped"
        );
    }

    #[test]
    fn larger_tlb_mode_has_more_capacity_no_sharing() {
        let mut m = machine(Mode::BaselineLargerTlb);
        let kernel = m.kernel_mut();
        let group = kernel.create_group();
        let a = kernel.spawn(group).unwrap();
        let b = kernel.spawn(group).unwrap();
        let file = kernel.register_file(4 * 4096);
        let req = MmapRequest::file_shared(Segment::Lib, file, 0, 4 * 4096, PageFlags::USER);
        let va = kernel.mmap(a, req).unwrap();
        kernel.mmap(b, req).unwrap();
        m.execute_access(0, a, va, AccessKind::Read);
        m.execute_access(0, b, va, AccessKind::Read);
        let stats = m.stats();
        assert_eq!(
            stats.tlb.l2.data_shared_hits, 0,
            "a bigger TLB still cannot share"
        );
        assert_eq!(stats.minor_faults, 1, "and B still pays its fault");
    }

    #[test]
    fn l2_view_splits_fetch_and_data_streams() {
        let mut m = machine(Mode::babelfish());
        let kernel = m.kernel_mut();
        let group = kernel.create_group();
        let a = kernel.spawn(group).unwrap();
        let b = kernel.spawn(group).unwrap();
        let file = kernel.register_file(2 * 4096);
        let req = MmapRequest::file_shared(Segment::Lib, file, 0, 2 * 4096, PageFlags::USER);
        let va = kernel.mmap(a, req).unwrap();
        assert_eq!(kernel.mmap(b, req).unwrap(), va);
        // A loads one page by fetch and one by read into core 0's TLBs.
        m.execute_access(0, a, va, AccessKind::Fetch);
        m.execute_access(0, a, va.offset(4096), AccessKind::Read);
        // B misses its PCID-tagged L1s and hits A's shared L2 entries.
        for (offset, kind) in [(0, AccessKind::Fetch), (4096, AccessKind::Read)] {
            m.reset_measurement();
            m.execute_access(0, b, va.offset(offset), kind);
            let stats = m.stats();
            let window = m.telemetry_snapshot();
            let fetches = u64::from(kind.is_fetch());
            assert_eq!(stats.walks, 0, "{kind:?} served by the L2");
            assert_eq!(stats.tlb.l2.instr_hits, fetches, "{kind:?}");
            assert_eq!(stats.tlb.l2.data_hits, 1 - fetches, "{kind:?}");
            assert_eq!(window.counter("tlb.l2.instr_hits"), fetches, "{kind:?}");
            assert_eq!(window.counter("tlb.l2.hits"), 1, "{kind:?}");
            assert_eq!(stats.tlb.l1i.instr_misses, fetches, "{kind:?}");
            // One L1d miss per page-size structure probed.
            assert_eq!(stats.tlb.l1d.data_misses, 3 * (1 - fetches), "{kind:?}");
        }
    }

    #[test]
    fn telemetry_snapshot_windows_at_reset() {
        let mut m = machine(Mode::babelfish());
        let (pid, va) = process_with_file(&mut m, 4);
        m.execute_access(0, pid, va, AccessKind::Read);
        let before = m.stats();
        assert!(before.walks > 0 && before.major_faults > 0);
        assert_ne!(before.tlb, bf_tlb::TlbGroupStats::default());
        m.reset_measurement();
        let snap = m.telemetry_snapshot();
        assert_eq!(snap.counter("sim.walks"), 0, "delta restarts at reset");
        let after = m.stats();
        assert_eq!(after.tlb, bf_tlb::TlbGroupStats::default());
        assert_eq!(
            (after.walks, after.minor_faults, after.major_faults),
            (0, 0, 0),
            "stats() windows with the registry"
        );
        assert_eq!((after.cow_faults, after.shared_resolved), (0, 0));
        m.execute_access(0, pid, va, AccessKind::Read);
        assert_eq!(m.stats().tlb.l1d.data_hits, 1);
    }

    #[test]
    fn bringup_is_measurable() {
        let mut m = machine(Mode::babelfish());
        let kernel = m.kernel_mut();
        let mut runtime = ContainerRuntime::new(kernel);
        let image = runtime.build_image(kernel, &ImageSpec::function("hash"));
        let group = runtime.create_group(kernel);
        let c1 = runtime.create_container(kernel, &image, group).unwrap();
        let profile = BringupProfile::default();
        let t1 = m.measure_bringup(CoreId::new(0), &c1, &profile, 1);
        let kernel = m.kernel_mut();
        let c2 = runtime.create_container(kernel, &image, group).unwrap();
        let t2 = m.measure_bringup(CoreId::new(0), &c2, &profile, 2);
        assert!(t1 > 0 && t2 > 0);
        assert!(t2 < t1, "warm bring-up is faster: {t2} vs {t1}");
    }

    fn timeline_machine(every: u64, fail_fast: bool) -> Machine {
        Machine::new(
            SimConfig::new(2, Mode::babelfish())
                .with_frames(1 << 20)
                .with_timeline(every, fail_fast),
        )
    }

    #[test]
    fn timeline_off_means_no_snapshot() {
        let mut m = machine(Mode::babelfish());
        let (pid, va) = process_with_file(&mut m, 4);
        m.execute_access(0, pid, va, AccessKind::Read);
        assert!(m.take_timeline().is_none());
    }

    #[test]
    fn timeline_epochs_conserve_the_measurement_window() {
        let mut m = timeline_machine(4, true);
        let (pid, va) = process_with_file(&mut m, 16);
        // Warm-up, then a windowed measurement like the runners do.
        for i in 0..8u64 {
            m.execute_access(0, pid, VirtAddr::new(va.raw() + i * 4096), AccessKind::Read);
        }
        m.reset_measurement();
        for round in 0..3 {
            for i in 0..16u64 {
                let kind = if round == 1 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                m.execute_access(0, pid, VirtAddr::new(va.raw() + i * 4096), kind);
            }
        }
        let window = m.telemetry_snapshot();
        let timeline = m.take_timeline().expect("timeline configured");
        assert!(timeline.violations.is_empty(), "{:?}", timeline.violations);
        assert_eq!(timeline.total_accesses, 48);
        assert!(timeline.epochs.len() > 1, "several epochs sealed");
        assert_eq!(
            timeline.total, window,
            "timeline total is exactly the measurement window"
        );
        assert_eq!(
            timeline.merged().counters,
            window.counters,
            "epoch deltas sum to the window"
        );
        // A second take yields nothing: the timeline was consumed.
        assert!(m.take_timeline().is_none());
    }

    #[test]
    fn corrupted_counter_is_caught_at_the_next_epoch_boundary() {
        let mut m = timeline_machine(4, false);
        let (pid, va) = process_with_file(&mut m, 8);
        m.execute_access(0, pid, va, AccessKind::Read);
        // Break `shared_hits <= hits` out from under the TLB.
        m.debug_corrupt_counter("tlb.l2.shared_hits", 1_000_000);
        for i in 0..8u64 {
            m.execute_access(0, pid, VirtAddr::new(va.raw() + i * 4096), AccessKind::Read);
        }
        let timeline = m.take_timeline().expect("timeline configured");
        assert!(
            timeline
                .violations
                .iter()
                .any(|v| v.invariant == "tlb.l2.shared_hits_within_hits"),
            "offending invariant named: {:?}",
            timeline.violations
        );
        // Record mode keeps flagging at every boundary; the first catch
        // happened at the first epoch boundary after the corruption.
        assert_eq!(timeline.violations[0].epoch, 0);
    }

    #[test]
    #[should_panic(expected = "telemetry invariant 'tlb.l2.shared_hits_within_hits'")]
    fn fail_fast_panics_on_corruption() {
        let mut m = timeline_machine(2, true);
        let (pid, va) = process_with_file(&mut m, 8);
        m.debug_corrupt_counter("tlb.l2.shared_hits", 1_000_000);
        for i in 0..4u64 {
            m.execute_access(0, pid, VirtAddr::new(va.raw() + i * 4096), AccessKind::Read);
        }
    }

    #[test]
    fn instructions_counter_matches_core_totals() {
        let mut m = timeline_machine(8, true);
        let (pid, _va) = process_with_file(&mut m, 4);
        m.retire(CoreId::new(0), 500);
        let _ = pid;
        let stats = m.stats();
        assert_eq!(
            m.telemetry_snapshot().counter("sim.instructions"),
            stats.instructions
        );
    }

    /// One captured scheduler event, for the in-memory test sink.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Event {
        Access(u32, Pid, VirtAddr, AccessKind, u32),
        Switch(u32, Cycles),
        RequestEnd(Cycles),
        Reset,
    }

    /// Capture sink recording into a shared vector (the handle stays
    /// with the test while the machine owns the boxed sink).
    struct VecSink(std::sync::Arc<std::sync::Mutex<Vec<Event>>>);

    impl CaptureSink for VecSink {
        fn access(&mut self, core: u32, pid: Pid, va: VirtAddr, kind: AccessKind, instrs: u32) {
            self.0
                .lock()
                .unwrap()
                .push(Event::Access(core, pid, va, kind, instrs));
        }
        fn switch(&mut self, core: u32, cost: Cycles) {
            self.0.lock().unwrap().push(Event::Switch(core, cost));
        }
        fn request_end(&mut self, cycles: Cycles) {
            self.0.lock().unwrap().push(Event::RequestEnd(cycles));
        }
        fn reset(&mut self) {
            self.0.lock().unwrap().push(Event::Reset);
        }
    }

    /// Identical serving setup on a fresh machine; returns the machine
    /// plus the two containers (deterministic across calls).
    fn serving_pair() -> (Machine, Container, Container) {
        let mut m = machine(Mode::babelfish());
        let kernel = m.kernel_mut();
        let mut runtime = ContainerRuntime::new(kernel);
        let image = runtime.build_image(kernel, &ImageSpec::data_serving("mongodb", 2 << 20));
        let group = runtime.create_group(kernel);
        let c1 = runtime.create_container(kernel, &image, group).unwrap();
        let c2 = runtime.create_container(kernel, &image, group).unwrap();
        (m, c1, c2)
    }

    /// Attaches a MongoDB serving workload for `c` on `core`.
    fn attach_serving(m: &mut Machine, core: usize, c: &Container, seed: u64) {
        m.attach(
            CoreId::new(core),
            c.pid(),
            Box::new(bf_workloads::DataServing::new(
                bf_workloads::ServingVariant::MongoDb,
                c.layout().clone(),
                seed,
            )),
        );
    }

    /// Warm-up + measured window with a capture sink attached; returns
    /// the captured stream.
    fn drive_live(m: &mut Machine) -> Vec<Event> {
        let events = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        m.attach_capture(Box::new(VecSink(events.clone())));
        m.run_instructions(5_000);
        m.reset_measurement();
        m.run_instructions(15_000);
        m.take_capture();
        let captured = events.lock().unwrap().clone();
        captured
    }

    /// Full-state comparison: counters, clocks, telemetry.
    fn assert_same_state(a: &Machine, b: &Machine, what: &str) {
        assert_eq!(
            format!("{:?}", a.stats()),
            format!("{:?}", b.stats()),
            "{what}: stats"
        );
        for core in 0..a.config().cores {
            assert_eq!(
                a.core_clock(CoreId::new(core)),
                b.core_clock(CoreId::new(core)),
                "{what}: core {core} clock"
            );
        }
        assert_eq!(
            a.telemetry_snapshot(),
            b.telemetry_snapshot(),
            "{what}: telemetry"
        );
    }

    #[test]
    fn captured_run_replays_to_identical_state() {
        // Live run: two serving containers multiplexed on one core,
        // capture attached from the start.
        let (mut live, c1, c2) = serving_pair();
        attach_serving(&mut live, 0, &c1, 1);
        attach_serving(&mut live, 0, &c2, 2);
        let captured = drive_live(&mut live);
        assert!(captured.iter().any(|e| matches!(e, Event::Reset)));

        // Replay against an identically-prepared machine, re-capturing.
        let (mut replay, _, _) = serving_pair();
        let reevents = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        replay.attach_capture(Box::new(VecSink(reevents.clone())));
        for event in &captured {
            match *event {
                Event::Access(core, pid, va, kind, instrs) => {
                    replay.replay_access(core, pid, va, kind, instrs)
                }
                Event::Switch(core, cost) => replay.replay_switch(core, cost),
                Event::RequestEnd(cycles) => replay.replay_request_end(cycles),
                Event::Reset => replay.reset_measurement(),
            }
        }
        replay.take_capture();

        // Counters, clocks, telemetry, and the re-captured stream all
        // match.
        assert_same_state(&live, &replay, "replay");
        assert_eq!(captured, *reevents.lock().unwrap());
    }

    /// Strides a cold file mapping so every access takes the miss path.
    fn stride_cold_pages(m: &mut Machine, pid: Pid, va: VirtAddr, pages: u64) {
        for i in 0..pages {
            m.execute_access(0, pid, va.offset(i * 4096), AccessKind::Read);
        }
    }

    /// The machine's `fault.{injected,detected,recovered}` counters.
    fn fault_counts(m: &Machine) -> [u64; 3] {
        let snap = m.registry().snapshot();
        ["fault.injected", "fault.detected", "fault.recovered"].map(|name| snap.counter(name))
    }

    #[test]
    fn armed_bitflips_are_injected_detected_and_recovered() {
        let mut m = machine(Mode::babelfish());
        m.arm_faults(FaultPlan::parse("tlb-bitflip@p=1").unwrap());
        let (pid, va) = process_with_file(&mut m, 64);
        stride_cold_pages(&mut m, pid, va, 64);
        m.quiesce_faults();
        let [injected, detected, recovered] = fault_counts(&m);
        assert!(injected > 0, "p=1 on 64 cold misses must inject");
        assert_eq!(detected, injected);
        assert_eq!(recovered, detected);
        // Zero residual corruption: every page still translates to the
        // frame the page table holds (a corrupt survivor would hit with
        // a wrong PPN and perturb nothing visible — so re-walk oracle:
        // scrubbed entries refill cleanly and hit thereafter).
        for i in 0..64 {
            m.execute_access(0, pid, va.offset(i * 4096), AccessKind::Read);
        }
        m.quiesce_faults();
        let [injected, detected, _] = fault_counts(&m);
        assert_eq!(detected, injected);
    }

    #[test]
    fn fault_injection_is_deterministic_across_machines() {
        let run = || {
            let mut m = machine(Mode::babelfish());
            m.arm_faults(
                FaultPlan::parse("tlb-bitflip@p=0.5;walk-stall@p=0.5,cycles=700;alloc-fail@p=0.5")
                    .unwrap(),
            );
            let (pid, va) = process_with_file(&mut m, 48);
            stride_cold_pages(&mut m, pid, va, 48);
            m.quiesce_faults();
            (
                fault_counts(&m),
                format!("{:?}", m.stats()),
                m.core_clock(CoreId::new(0)),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.0, b.0, "fault accounting replays identically");
        assert_eq!(a.1, b.1, "machine statistics replay identically");
        assert_eq!(a.2, b.2, "clocks replay identically");
    }

    #[test]
    fn walk_stall_and_alloc_fail_add_bounded_latency_without_panicking() {
        let run = |spec: Option<&str>| {
            let mut m = machine(Mode::Baseline);
            if let Some(spec) = spec {
                m.arm_faults(FaultPlan::parse(spec).unwrap());
            }
            let (pid, va) = process_with_file(&mut m, 8);
            stride_cold_pages(&mut m, pid, va, 8);
            (m.core_clock(CoreId::new(0)), m.stats().walks)
        };
        let (clean_clock, clean_walks) = run(None);
        let (stalled_clock, stalled_walks) = run(Some("walk-stall@p=1,cycles=500;alloc-fail@p=1"));
        assert_eq!(clean_walks, stalled_walks, "retries never add walks");
        assert!(
            stalled_clock > clean_clock,
            "stalls and retry backoffs must cost cycles ({stalled_clock} vs {clean_clock})"
        );
    }

    #[test]
    fn plan_without_machine_faults_stays_unarmed() {
        let mut m = machine(Mode::Baseline);
        m.arm_faults(FaultPlan::parse("trace-corrupt@block=0;cell-panic@idx=1").unwrap());
        assert!(
            !m.registry()
                .snapshot()
                .counters
                .contains_key("fault.injected"),
            "no machine-level fault site armed"
        );
        let (pid, va) = process_with_file(&mut m, 4);
        stride_cold_pages(&mut m, pid, va, 4);

        let mut clean = machine(Mode::Baseline);
        let (pid2, va2) = process_with_file(&mut clean, 4);
        stride_cold_pages(&mut clean, pid2, va2, 4);
        assert_eq!(
            format!("{:?}", m.stats()),
            format!("{:?}", clean.stats()),
            "an unarmed plan must not perturb the run"
        );
    }
}
