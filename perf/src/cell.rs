//! The benchmark's own cell runners.
//!
//! Each runner rebuilds what one library entry point does —
//! [`run_timed_window`](babelfish::experiment::run_timed_window),
//! [`replay_trace`](babelfish::replay::replay_trace) and
//! [`run_functions`](babelfish::experiment::run_functions) — from the
//! public `Machine`, `ContainerRuntime` and workload calls, so every
//! phase can be timed from outside the simulator. The correctness gate
//! compares each runner's result document with the library's byte for
//! byte, so a timing can never come from a cell that computed something
//! else.
//!
//! A [`Hook`] sits around every access the runners feed and around
//! container bring-up: [`Plain`] compiles to the bare calls, the traced
//! run's [`Probe`](crate::traced::Probe) times and classifies them.

use babelfish::capture::{Record, TraceReader, TraceWriter};
use babelfish::containers::{
    BringupProfile, Container, ContainerLayout, ContainerRuntime, ImageFile, ImageFileKind,
    ImageSpec,
};
use babelfish::experiment::{
    run_captured, CaptureApp, ComputeKind, ExperimentConfig, FunctionsResult, WindowResult,
};
use babelfish::replay;
use babelfish::sim::{CaptureSink, Machine, Mode, SimConfig};
use babelfish::types::{AccessKind, CoreId, Cycles, Pid, VirtAddr};
use babelfish::workloads::{
    AccessDensity, DataServing, FioCompute, FunctionKind, FunctionWorkload, GraphCompute, Op,
    ServingVariant, Workload,
};
use bf_telemetry::Snapshot;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Host seconds spent in each set-up phase of a cell.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupTimes {
    /// `Machine::new`, the container runtime and the CCID group (for
    /// FaaS also the shared input file).
    pub machine_s: f64,
    /// `ContainerRuntime::{build_image, create_container}`.
    pub image_s: f64,
    /// `Machine::measure_bringup`.
    pub bringup_s: f64,
    /// `Machine::prefault` (FaaS has no prefault phase).
    pub prefault_s: f64,
}

impl SetupTimes {
    /// All four phases.
    pub fn total(&self) -> f64 {
        self.machine_s + self.image_s + self.bringup_s + self.prefault_s
    }

    /// Phase-wise sum.
    pub fn add(&mut self, other: &SetupTimes) {
        self.machine_s += other.machine_s;
        self.image_s += other.image_s;
        self.bringup_s += other.bringup_s;
        self.prefault_s += other.prefault_s;
    }

    /// Phase-wise scaling (per-cell means of a FaaS rep).
    pub fn scaled(&self, factor: f64) -> SetupTimes {
        SetupTimes {
            machine_s: self.machine_s * factor,
            image_s: self.image_s * factor,
            bringup_s: self.bringup_s * factor,
            prefault_s: self.prefault_s * factor,
        }
    }
}

/// What the correctness gate compares, plus the simulated results the
/// `model.*` and counter-derived metrics are read from.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The whole serialized result document.
    pub doc: String,
    /// The simulated results alone (cycles and machine statistics,
    /// without telemetry, timeline or profile): what an armed cell must
    /// still match.
    pub model: String,
    /// Simulated cycles of the measured window (FaaS: summed over the
    /// three functions).
    pub exec_cycles: Cycles,
    /// L2 TLB data misses per kilo-instruction.
    pub l2_data_mpki: f64,
    /// Hardware page walks in the measured window.
    pub walks: u64,
    /// Registry delta of the measured window.
    pub telemetry: Snapshot,
}

fn json<T: serde::Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).expect("result documents always serialize")
}

impl Outcome {
    /// The outcome of a live or replayed window.
    pub fn of_window(result: &WindowResult) -> Outcome {
        Outcome {
            doc: json(result),
            model: format!("{} {}", result.exec_cycles, json(&result.stats)),
            exec_cycles: result.exec_cycles,
            l2_data_mpki: result.stats.l2_data_mpki(),
            walks: result.stats.walks,
            telemetry: result.telemetry.clone(),
        }
    }

    /// The outcome of a FaaS run.
    pub fn of_functions(result: &FunctionsResult) -> Outcome {
        let cycles = |pairs: &[(String, Cycles)]| -> String {
            let list: Vec<String> = pairs.iter().map(|(n, c)| format!("{n}={c}")).collect();
            list.join(",")
        };
        Outcome {
            doc: json(result),
            model: format!(
                "{} {} {}",
                cycles(&result.bringup_cycles),
                cycles(&result.exec_cycles),
                json(&result.stats)
            ),
            exec_cycles: result.exec_cycles.iter().map(|(_, c)| c).sum(),
            l2_data_mpki: result.stats.l2_data_mpki(),
            walks: result.stats.walks,
            telemetry: result.telemetry.clone(),
        }
    }
}

/// One cell as a runner ran it.
#[derive(Debug)]
pub struct Cell {
    /// The result and its serialized documents.
    pub outcome: Outcome,
    /// Set-up phase times.
    pub setup: SetupTimes,
    /// Host seconds of the fed stream: the warm-up and measured windows
    /// (live), the record feed (replay), or the function runs (FaaS).
    pub feed_s: f64,
    /// Host seconds of the whole cell, set-up and teardown included.
    pub cell_s: f64,
    /// Accesses the runner itself fed (replay records, FaaS ops; 0 for
    /// live cells, whose scheduler draws them inside the library).
    pub accesses: u64,
    /// The deployed containers (pid, layout), in deployment order.
    pub containers: Vec<(Pid, ContainerLayout)>,
}

/// Wraps container bring-up and every access a runner feeds.
pub trait Hook {
    /// Called once the cell's machine exists.
    fn attach(&mut self, _machine: &Machine) {}

    /// Brings up one container; the default is the library's call.
    fn bringup(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        container: &Container,
        profile: &BringupProfile,
        seed: u64,
    ) -> Cycles {
        machine.measure_bringup(core, container, profile, seed)
    }

    /// Feeds one access.
    fn access<R>(&mut self, machine: &mut Machine, op: impl FnOnce(&mut Machine) -> R) -> R;
}

/// The untraced hook: the bare library calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct Plain;

impl Hook for Plain {
    #[inline(always)]
    fn access<R>(&mut self, machine: &mut Machine, op: impl FnOnce(&mut Machine) -> R) -> R {
        op(machine)
    }
}

/// Instrumentation a replayed cell arms on top of the trace header's
/// configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Taps {
    /// Seal a telemetry timeline epoch every N accesses (0 = off).
    pub timeline_every: u64,
    /// Miss-attribution profile top-K (0 = off).
    pub profile_top_k: u64,
}

impl Taps {
    /// Arms these taps in `cfg`.
    pub fn arm(self, cfg: &mut ExperimentConfig) {
        cfg.timeline_every = self.timeline_every;
        cfg.profile_top_k = self.profile_top_k;
    }

    /// The library's replay options for these taps.
    pub fn replay_options(self) -> replay::ReplayOptions {
        replay::ReplayOptions {
            timeline_every: self.timeline_every,
            profile_top_k: self.profile_top_k,
            ..replay::ReplayOptions::default()
        }
    }
}

/// Same machine configuration the experiment layer derives from `cfg`.
fn sim_config(mode: Mode, cfg: &ExperimentConfig, thp: bool) -> SimConfig {
    let mut sim = SimConfig::new(cfg.cores, mode)
        .with_frames(cfg.frames)
        .with_trace_sampling(cfg.trace_sample_every)
        .with_timeline(cfg.timeline_every, cfg.timeline_fail_fast)
        .with_profile(cfg.profile_top_k)
        .with_heartbeat(cfg.heartbeat_every);
    sim.quantum_cycles = cfg.quantum_cycles;
    if !thp {
        sim = sim.without_thp();
    }
    sim
}

/// Section VI: MongoDB and ArangoDB run with THP off; HTTPd and the
/// compute applications keep it.
fn thp(app: CaptureApp) -> bool {
    matches!(
        app,
        CaptureApp::Serving(ServingVariant::Httpd) | CaptureApp::Compute(_)
    )
}

fn seconds_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// A deployed machine: bring-up and prefault done, nothing attached.
struct Deployed {
    machine: Machine,
    containers: Vec<(CoreId, Container)>,
    setup: SetupTimes,
}

/// `capture_setup` phase by phase: machine, image, then per container
/// create, bring up and prefault.
fn deploy<H: Hook>(mode: Mode, app: CaptureApp, cfg: &ExperimentConfig, hook: &mut H) -> Deployed {
    let mut setup = SetupTimes::default();
    let start = Instant::now();
    let mut machine = Machine::new(sim_config(mode, cfg, thp(app)));
    hook.attach(&machine);
    let mut runtime = ContainerRuntime::new(machine.kernel_mut());
    setup.machine_s += seconds_since(start);

    let start = Instant::now();
    let spec = match app {
        CaptureApp::Serving(variant) => ImageSpec::data_serving(variant.name(), cfg.dataset_bytes),
        CaptureApp::Compute(kind) => ImageSpec::compute(kind.name(), cfg.dataset_bytes),
    };
    let image = runtime.build_image(machine.kernel_mut(), &spec);
    let group = runtime.create_group(machine.kernel_mut());
    setup.image_s += seconds_since(start);

    let profile = BringupProfile::default();
    let mut containers = Vec::new();
    for core in 0..cfg.cores {
        let core = CoreId::new(core);
        for _slot in 0..cfg.containers_per_core {
            let start = Instant::now();
            let container = runtime
                .create_container(machine.kernel_mut(), &image, group)
                .expect("container creation failed");
            let created = Instant::now();
            hook.bringup(&mut machine, core, &container, &profile, cfg.seed);
            let brought_up = Instant::now();
            machine.prefault(container.pid());
            setup.image_s += (created - start).as_secs_f64();
            setup.bringup_s += (brought_up - created).as_secs_f64();
            setup.prefault_s += seconds_since(brought_up);
            containers.push((core, container));
        }
    }
    Deployed {
        machine,
        containers,
        setup,
    }
}

fn clocks(machine: &Machine, cores: usize) -> Vec<Cycles> {
    (0..cores)
        .map(|c| machine.core_clock(CoreId::new(c)))
        .collect()
}

/// Mean per-core clock delta since `start` (the window's exec cycles).
fn mean_clock_delta(machine: &Machine, start: &[Cycles]) -> Cycles {
    let total: Cycles = start
        .iter()
        .enumerate()
        .map(|(core, &s)| machine.core_clock(CoreId::new(core)).saturating_sub(s))
        .sum();
    total / start.len().max(1) as u64
}

/// Takes the window's observability artifacts in the order the library
/// does, then the statistics.
fn window_result(machine: &mut Machine, exec_cycles: Cycles) -> WindowResult {
    let telemetry = machine.telemetry_snapshot();
    let timeline = machine.take_timeline();
    let profile = machine.take_profile();
    WindowResult {
        exec_cycles,
        stats: machine.stats(),
        telemetry,
        timeline,
        profile,
    }
}

fn pids_and_layouts(containers: &[(CoreId, Container)]) -> Vec<(Pid, ContainerLayout)> {
    containers
        .iter()
        .map(|(_, c)| (c.pid(), c.layout().clone()))
        .collect()
}

/// The live generator the experiment layer attaches for container `i`.
pub fn generator(
    app: CaptureApp,
    layout: ContainerLayout,
    cfg: &ExperimentConfig,
    i: usize,
) -> Box<dyn Workload> {
    let seed = cfg.seed + i as u64;
    match app {
        CaptureApp::Serving(variant) => Box::new(DataServing::new(variant, layout, seed)),
        CaptureApp::Compute(ComputeKind::GraphChi) => Box::new(GraphCompute::new(layout, seed)),
        CaptureApp::Compute(ComputeKind::Fio) => Box::new(FioCompute::new(layout, seed)),
    }
}

/// One live cell: the benchmark's twin of `run_timed_window`.
pub fn live_cell(mode: Mode, app: CaptureApp, cfg: &ExperimentConfig) -> Cell {
    let start = Instant::now();
    let Deployed {
        mut machine,
        containers,
        setup,
    } = deploy(mode, app, cfg, &mut Plain);
    for (i, (core, container)) in containers.iter().enumerate() {
        let workload = generator(app, container.layout().clone(), cfg, i);
        machine.attach(*core, container.pid(), workload);
    }

    let feed = Instant::now();
    machine.run_instructions(cfg.warmup_instructions);
    machine.reset_measurement();
    let clock_start = clocks(&machine, cfg.cores);
    machine.run_instructions(cfg.measure_instructions);
    machine.quiesce_faults();
    let exec_cycles = mean_clock_delta(&machine, &clock_start);
    let feed_s = seconds_since(feed);

    let result = window_result(&mut machine, exec_cycles);
    drop(machine);
    let cell_s = seconds_since(start);
    Cell {
        outcome: Outcome::of_window(&result),
        setup,
        feed_s,
        cell_s,
        accesses: 0,
        containers: pids_and_layouts(&containers),
    }
}

/// One replayed cell: the benchmark's twin of `replay_trace`, reading
/// the `.bft` bytes in `trace`.
pub fn replay_cell<H: Hook>(trace: &[u8], taps: Taps, hook: &mut H) -> Cell {
    let start = Instant::now();
    let reader = TraceReader::new(trace).expect("captured trace has a valid header");
    let (mode, app, mut cfg) =
        replay::meta_config(reader.meta()).expect("captured trace header names its config");
    taps.arm(&mut cfg);
    let Deployed {
        mut machine,
        containers,
        setup,
    } = deploy(mode, app, &cfg, hook);

    let mut clock_start = None;
    let mut accesses = 0;
    let feed = Instant::now();
    for record in reader {
        match record.expect("captured trace decodes") {
            Record::Access {
                core,
                pid,
                va,
                kind,
                instrs_before,
            } => {
                hook.access(&mut machine, |m| {
                    m.replay_access(core, pid, va, kind, instrs_before)
                });
                accesses += 1;
            }
            Record::Switch { core, cost } => machine.replay_switch(core, cost),
            Record::RequestEnd { cycles } => machine.replay_request_end(cycles),
            Record::Reset => {
                machine.reset_measurement();
                clock_start = Some(clocks(&machine, cfg.cores));
            }
        }
    }
    let feed_s = seconds_since(feed);

    let exec_cycles = clock_start.map_or(0, |s| mean_clock_delta(&machine, &s));
    let result = window_result(&mut machine, exec_cycles);
    drop(machine);
    let cell_s = seconds_since(start);
    Cell {
        outcome: Outcome::of_window(&result),
        setup,
        feed_s,
        cell_s,
        accesses,
        containers: pids_and_layouts(&containers),
    }
}

/// One FaaS cell: the benchmark's twin of `run_functions` — a fresh
/// machine, the three functions started in sequence on core 0 from a
/// shared input and run to completion with no scheduler.
pub fn faas_cell<H: Hook>(
    mode: Mode,
    density: AccessDensity,
    cfg: &ExperimentConfig,
    hook: &mut H,
) -> Cell {
    let start = Instant::now();
    let mut setup = SetupTimes::default();
    let mut machine = Machine::new(sim_config(mode, cfg, true));
    hook.attach(&machine);
    let mut runtime = ContainerRuntime::new(machine.kernel_mut());
    let group = runtime.create_group(machine.kernel_mut());
    let core = CoreId::new(0);
    let profile = BringupProfile::default();
    let input = ImageFile {
        file: machine.kernel_mut().register_file(cfg.function_input_bytes),
        bytes: cfg.function_input_bytes,
        kind: ImageFileKind::Dataset,
    };
    setup.machine_s = seconds_since(start);

    let mut bringups = Vec::new();
    let mut execs = Vec::new();
    let mut containers = Vec::new();
    let mut feed_s = 0.0;
    let mut accesses = 0;
    for (i, kind) in FunctionKind::ALL.iter().enumerate() {
        let phase = Instant::now();
        let mut spec = ImageSpec::function(kind.name());
        spec.dataset_bytes = cfg.function_input_bytes;
        let image = runtime.build_image_with_dataset(machine.kernel_mut(), &spec, input);
        let container = runtime
            .create_container(machine.kernel_mut(), &image, group)
            .expect("function container creation failed");
        let created = Instant::now();
        let bringup = hook.bringup(&mut machine, core, &container, &profile, cfg.seed);
        setup.image_s += (created - phase).as_secs_f64();
        setup.bringup_s += seconds_since(created);
        bringups.push((kind.name().to_owned(), bringup));

        let pid = container.pid();
        let mut workload = FunctionWorkload::new(
            *kind,
            density,
            container.layout().clone(),
            cfg.seed + i as u64,
        );
        let run = Instant::now();
        let clock_start = machine.core_clock(core);
        loop {
            match workload.next_op() {
                Op::Access {
                    va,
                    kind,
                    instrs_before,
                } => {
                    hook.access(&mut machine, |m| {
                        m.retire(core, instrs_before as u64 + 1);
                        m.execute_access(core.index(), pid, va, kind)
                    });
                    accesses += 1;
                }
                Op::RequestEnd => {}
                Op::Done => break,
            }
        }
        execs.push((
            kind.name().to_owned(),
            machine.core_clock(core) - clock_start,
        ));
        feed_s += seconds_since(run);
        containers.push((pid, container.layout().clone()));
    }

    machine.quiesce_faults();
    let telemetry = machine.telemetry_snapshot();
    let timeline = machine.take_timeline();
    let profile = machine.take_profile();
    let result = FunctionsResult {
        bringup_cycles: bringups,
        exec_cycles: execs,
        stats: machine.stats(),
        telemetry,
        timeline,
        profile,
    };
    drop(machine);
    let cell_s = seconds_since(start);
    Cell {
        outcome: Outcome::of_functions(&result),
        setup,
        feed_s,
        cell_s,
        accesses,
        containers,
    }
}

/// A capture sink encoding into memory, so neither the capture nor the
/// replays that read it back touch the file system.
#[derive(Clone)]
struct MemorySink(Arc<Mutex<TraceWriter<Vec<u8>>>>);

impl MemorySink {
    fn push(&mut self, record: Record) {
        self.0
            .lock()
            .expect("capture sink lock poisoned")
            .record(&record)
            .expect("writing a trace into memory cannot fail");
    }
}

impl CaptureSink for MemorySink {
    fn access(&mut self, core: u32, pid: Pid, va: VirtAddr, kind: AccessKind, instrs_before: u32) {
        self.push(Record::Access {
            core,
            pid,
            va,
            kind,
            instrs_before,
        });
    }

    fn switch(&mut self, core: u32, cost: Cycles) {
        self.push(Record::Switch { core, cost });
    }

    fn request_end(&mut self, cycles: Cycles) {
        self.push(Record::RequestEnd { cycles });
    }

    fn reset(&mut self) {
        self.push(Record::Reset);
    }
}

/// Captures a live run of `app` (the library's `run_captured`) into an
/// in-memory `.bft` trace. Returns the run's outcome and the trace.
pub fn capture(mode: Mode, app: CaptureApp, cfg: &ExperimentConfig) -> (Outcome, Vec<u8>) {
    let meta = replay::capture_meta(mode, app, cfg);
    let writer = TraceWriter::new(Vec::new(), &meta).expect("trace header fits in memory");
    let sink = MemorySink(Arc::new(Mutex::new(writer)));
    let (result, attached) = run_captured(mode, app, cfg, Box::new(sink.clone()));
    drop(attached);
    let writer = Arc::try_unwrap(sink.0)
        .unwrap_or_else(|_| panic!("the machine kept a handle on its capture sink"))
        .into_inner()
        .expect("capture sink lock poisoned");
    let trace = writer
        .finish()
        .expect("writing a trace into memory cannot fail");
    (Outcome::of_window(&result), trace)
}

/// Record counts of a captured trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCounts {
    /// Access records (warm-up and measured window).
    pub accesses: u64,
    /// Access records after the reset marker (the measured window).
    pub window_accesses: u64,
}

impl TraceCounts {
    /// Counts the records of `trace`.
    pub fn scan(trace: &[u8]) -> TraceCounts {
        let mut counts = TraceCounts::default();
        let mut measuring = false;
        for record in TraceReader::new(trace).expect("captured trace has a valid header") {
            match record.expect("captured trace decodes") {
                Record::Access { .. } => {
                    counts.accesses += 1;
                    counts.window_accesses += measuring as u64;
                }
                Record::Reset => measuring = true,
                Record::Switch { .. } | Record::RequestEnd { .. } => {}
            }
        }
        counts
    }
}
