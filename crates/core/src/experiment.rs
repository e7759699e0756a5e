//! High-level experiment runners: one call per paper experiment.
//!
//! These functions assemble the full stack (machine + runtime + images +
//! workloads) under the paper's Section VI methodology: container
//! bring-up and OS warm-up first, then an architectural warm-up window,
//! then the measured window. Each bench binary in `bf-bench` is a thin
//! wrapper over one of these.

use bf_containers::{BringupProfile, ContainerRuntime, ImageSpec};
use bf_os::pagemap::{self, CensusReport};
use bf_sim::{CaptureSink, FaultPlan, Machine, MachineStats, Mode, SimConfig};
use bf_telemetry::{ProfileSnapshot, Snapshot, TimelineSnapshot};
use bf_types::{Ccid, CoreId, Cycles, Pid};
use bf_workloads::{
    AccessDensity, DataServing, FioCompute, FunctionKind, FunctionWorkload, GraphCompute, Op,
    ServingVariant, Workload,
};

/// The compute pair of Section VI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComputeKind {
    /// GraphChi running PageRank on a 500 MB SNAP graph.
    GraphChi,
    /// FIO doing in-memory operations on a random 500 MB dataset.
    Fio,
}

impl ComputeKind {
    /// Both compute applications.
    pub const ALL: [ComputeKind; 2] = [ComputeKind::GraphChi, ComputeKind::Fio];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ComputeKind::GraphChi => "graphchi",
            ComputeKind::Fio => "fio",
        }
    }
}

/// An application for the Fig. 9 census.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CensusApp {
    /// One of the data-serving applications.
    Serving(ServingVariant),
    /// One of the compute applications.
    Compute(ComputeKind),
    /// The three-function FaaS group.
    Functions,
}

impl CensusApp {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CensusApp::Serving(v) => v.name(),
            CensusApp::Compute(c) => c.name(),
            CensusApp::Functions => "functions",
        }
    }
}

/// An application whose access stream can be captured to (and replayed
/// from) a `.bft` trace: the scheduler-driven serving and compute
/// classes. The FaaS functions run to completion outside the scheduler
/// loop (`drive_to_done`), so they are not capturable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CaptureApp {
    /// One of the data-serving applications.
    Serving(ServingVariant),
    /// One of the compute applications.
    Compute(ComputeKind),
}

impl CaptureApp {
    /// Display name (also the trace header's `app` value).
    pub fn name(self) -> &'static str {
        match self {
            CaptureApp::Serving(v) => v.name(),
            CaptureApp::Compute(c) => c.name(),
        }
    }

    /// Inverse of [`CaptureApp::name`].
    pub fn from_name(name: &str) -> Option<CaptureApp> {
        ServingVariant::ALL
            .iter()
            .map(|&v| CaptureApp::Serving(v))
            .chain(ComputeKind::ALL.iter().map(|&c| CaptureApp::Compute(c)))
            .find(|app| app.name() == name)
    }

    /// Whether the app runs with transparent huge pages (Section VI:
    /// MongoDB/ArangoDB disable THP; HTTPd and the compute apps keep
    /// it).
    fn thp(self) -> bool {
        match self {
            CaptureApp::Serving(variant) => matches!(variant, ServingVariant::Httpd),
            CaptureApp::Compute(_) => true,
        }
    }
}

/// Scaled-down Section VI methodology knobs.
///
/// The paper simulates 4 B instructions over 500 MB datasets on 8 cores;
/// the defaults here scale that to laptop-runnable sizes while keeping
/// footprints comfortably past the L2 TLB reach (1536 × 4 KB = 6 MB), so
/// the pressure effects survive the scaling. `paper_scaled()` is the
/// bench default; `smoke_test()` keeps unit tests fast.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Core count.
    pub cores: usize,
    /// Containers per core (Section VI: 2 for serving/compute).
    pub containers_per_core: usize,
    /// Mounted-dataset size (paper: 500 MB).
    pub dataset_bytes: u64,
    /// Shared FaaS input size.
    pub function_input_bytes: u64,
    /// Architectural warm-up instructions per core.
    pub warmup_instructions: u64,
    /// Measured instructions per core.
    pub measure_instructions: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Physical frames for the kernel.
    pub frames: u64,
    /// Scheduling quantum in cycles. The paper's 10 ms quantum spans
    /// ~0.5 % of its 4 B-instruction window; scaling the window down
    /// requires scaling the quantum too, or co-located containers never
    /// interleave at all within the measurement.
    pub quantum_cycles: u64,
    /// Ignored: the simulator has no span tracer. Kept, and still
    /// serialized, only because the `perf/` benchmark names it and every
    /// committed `config` block and `config_hash` includes it; a
    /// benchmark change may drop it.
    pub trace_sample_every: u64,
    /// Seal a telemetry timeline epoch every N memory accesses (0
    /// disables timelines).
    pub timeline_every: u64,
    /// Panic on the first invariant violation at an epoch boundary
    /// instead of recording it into the timeline export.
    pub timeline_fail_fast: bool,
    /// Miss-attribution profiling: top-K capacity of the hot-region
    /// sketches (0 disables profiling).
    pub profile_top_k: u64,
    /// Deterministic fault-injection plan (None runs clean). Armed plans
    /// perturb only the miss/walk/fault paths; unarmed runs are
    /// byte-identical to builds without the fault subsystem.
    pub faults: Option<FaultPlan>,
    /// Heartbeat progress-event interval in accesses (0 disables
    /// progress events; only effective while the process-wide
    /// [`bf_telemetry::heartbeat`] stream is armed).
    pub heartbeat_every: u64,
}

/// Hand-written so the JSON surface stays exactly the committed field
/// set: `faults` is a chaos-testing knob that is None in every committed
/// document, and `heartbeat_every` only adds observer-side events, so
/// neither may perturb committed baselines or config-equality checks on
/// emitted documents.
impl serde::Serialize for ExperimentConfig {
    fn to_value(&self) -> serde::Value {
        let mut map = std::collections::BTreeMap::new();
        map.insert("cores".to_owned(), self.cores.to_value());
        map.insert(
            "containers_per_core".to_owned(),
            self.containers_per_core.to_value(),
        );
        map.insert("dataset_bytes".to_owned(), self.dataset_bytes.to_value());
        map.insert(
            "function_input_bytes".to_owned(),
            self.function_input_bytes.to_value(),
        );
        map.insert(
            "warmup_instructions".to_owned(),
            self.warmup_instructions.to_value(),
        );
        map.insert(
            "measure_instructions".to_owned(),
            self.measure_instructions.to_value(),
        );
        map.insert("seed".to_owned(), self.seed.to_value());
        map.insert("frames".to_owned(), self.frames.to_value());
        map.insert("quantum_cycles".to_owned(), self.quantum_cycles.to_value());
        map.insert(
            "trace_sample_every".to_owned(),
            self.trace_sample_every.to_value(),
        );
        map.insert("timeline_every".to_owned(), self.timeline_every.to_value());
        map.insert(
            "timeline_fail_fast".to_owned(),
            self.timeline_fail_fast.to_value(),
        );
        map.insert("profile_top_k".to_owned(), self.profile_top_k.to_value());
        serde::Value::Object(map)
    }
}

impl ExperimentConfig {
    /// The bench default: big enough for the paper's pressure effects.
    pub fn paper_scaled() -> Self {
        ExperimentConfig {
            cores: 4,
            containers_per_core: 2,
            dataset_bytes: 64 << 20,
            function_input_bytes: 16 << 20,
            warmup_instructions: 400_000,
            measure_instructions: 1_500_000,
            seed: 0x5eed,
            frames: 1 << 21, // 8 GB
            quantum_cycles: 100_000,
            trace_sample_every: 0,
            timeline_every: 0,
            timeline_fail_fast: false,
            profile_top_k: 0,
            faults: None,
            heartbeat_every: 0,
        }
    }

    /// A miniature configuration for tests and doc examples.
    pub fn smoke_test() -> Self {
        ExperimentConfig {
            cores: 1,
            containers_per_core: 2,
            dataset_bytes: 8 << 20,
            function_input_bytes: 4 << 20,
            warmup_instructions: 30_000,
            measure_instructions: 120_000,
            seed: 0x5eed,
            frames: 1 << 20, // 4 GB
            quantum_cycles: 40_000,
            trace_sample_every: 0,
            timeline_every: 0,
            timeline_fail_fast: false,
            profile_top_k: 0,
            faults: None,
            heartbeat_every: 0,
        }
    }

    /// Validates the configuration up front, so a bad sweep fails with a
    /// named error before any machine is built instead of panicking
    /// mid-run (e.g. on a division by a zero core count).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cores == 0 {
            return Err(ConfigError::ZeroCores);
        }
        if self.containers_per_core == 0 {
            return Err(ConfigError::ZeroContainersPerCore);
        }
        if self.dataset_bytes == 0 {
            return Err(ConfigError::ZeroDatasetBytes);
        }
        if self.function_input_bytes == 0 {
            return Err(ConfigError::ZeroFunctionInputBytes);
        }
        if self.measure_instructions == 0 {
            return Err(ConfigError::ZeroMeasureInstructions);
        }
        if self.quantum_cycles == 0 {
            return Err(ConfigError::ZeroQuantumCycles);
        }
        if self.frames == 0 {
            return Err(ConfigError::ZeroFrames);
        }
        Ok(())
    }
}

/// A rejected [`ExperimentConfig`] field, named so callers can print an
/// actionable message (and tests can assert the exact rejection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `cores == 0`: no machine to build.
    ZeroCores,
    /// `containers_per_core == 0`: nothing to deploy.
    ZeroContainersPerCore,
    /// `dataset_bytes == 0`: serving/compute images need a dataset.
    ZeroDatasetBytes,
    /// `function_input_bytes == 0`: the FaaS trio mounts a shared input.
    ZeroFunctionInputBytes,
    /// `measure_instructions == 0`: an empty measurement window.
    ZeroMeasureInstructions,
    /// `quantum_cycles == 0`: the scheduler would never advance.
    ZeroQuantumCycles,
    /// `frames == 0`: the kernel has no physical memory.
    ZeroFrames,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (field, why) = match self {
            ConfigError::ZeroCores => ("cores", "no machine to build"),
            ConfigError::ZeroContainersPerCore => ("containers_per_core", "nothing to deploy"),
            ConfigError::ZeroDatasetBytes => ("dataset_bytes", "images need a dataset"),
            ConfigError::ZeroFunctionInputBytes => {
                ("function_input_bytes", "functions mount a shared input")
            }
            ConfigError::ZeroMeasureInstructions => {
                ("measure_instructions", "empty measurement window")
            }
            ConfigError::ZeroQuantumCycles => ("quantum_cycles", "scheduler would never advance"),
            ConfigError::ZeroFrames => ("frames", "kernel has no physical memory"),
        };
        write!(
            f,
            "invalid experiment config: {field} must be non-zero ({why})"
        )
    }
}

impl std::error::Error for ConfigError {}

/// Result of a data-serving run (Fig. 11 latency metrics).
#[derive(Debug, Clone, serde::Serialize)]
pub struct ServingResult {
    /// Mean request latency in cycles.
    pub mean_latency: f64,
    /// 95th-percentile (tail) latency in cycles.
    pub p95_latency: Cycles,
    /// Cycles the measured window took (average across cores).
    pub exec_cycles: Cycles,
    /// Full machine statistics of the window.
    pub stats: MachineStats,
    /// Registry snapshot of the measurement window.
    pub telemetry: Snapshot,
    /// Epoch timeline of the measurement window (None unless
    /// [`ExperimentConfig::timeline_every`] is set).
    pub timeline: Option<TimelineSnapshot>,
    /// Miss-attribution profile of the measurement window (None unless
    /// [`ExperimentConfig::profile_top_k`] is set).
    pub profile: Option<ProfileSnapshot>,
}

/// Result of a compute run (Fig. 11 execution-time metric).
#[derive(Debug, Clone, serde::Serialize)]
pub struct ComputeResult {
    /// Cycles to retire the measured instruction budget (average across
    /// cores) — the execution-time proxy.
    pub exec_cycles: Cycles,
    /// Full machine statistics of the window.
    pub stats: MachineStats,
    /// Registry snapshot of the measurement window.
    pub telemetry: Snapshot,
    /// Epoch timeline of the measurement window (None unless
    /// [`ExperimentConfig::timeline_every`] is set).
    pub timeline: Option<TimelineSnapshot>,
    /// Miss-attribution profile of the measurement window (None unless
    /// [`ExperimentConfig::profile_top_k`] is set).
    pub profile: Option<ProfileSnapshot>,
}

/// Result of one capture or replay measurement window: the
/// mode/app-independent subset shared by live-captured and replayed
/// runs, so the two can be compared field for field (serving latency
/// metrics live inside `stats.latency`).
#[derive(Debug, Clone, serde::Serialize)]
pub struct WindowResult {
    /// Cycles the measured window took (average across cores).
    pub exec_cycles: Cycles,
    /// Full machine statistics of the window.
    pub stats: MachineStats,
    /// Registry snapshot of the measurement window.
    pub telemetry: Snapshot,
    /// Epoch timeline of the measurement window (None unless
    /// [`ExperimentConfig::timeline_every`] is set).
    pub timeline: Option<TimelineSnapshot>,
    /// Miss-attribution profile of the measurement window (None unless
    /// [`ExperimentConfig::profile_top_k`] is set).
    pub profile: Option<ProfileSnapshot>,
}

/// Result of a FaaS run (Section VII-C function metrics).
#[derive(Debug, Clone, serde::Serialize)]
pub struct FunctionsResult {
    /// (function name, bring-up cycles), in start order.
    pub bringup_cycles: Vec<(String, Cycles)>,
    /// (function name, execution cycles), in start order. The first
    /// entry is the *leading* function, which the paper excludes from
    /// the Fig. 11 reductions due to cold-start symmetry.
    pub exec_cycles: Vec<(String, Cycles)>,
    /// Full machine statistics over the whole run.
    pub stats: MachineStats,
    /// Registry snapshot over the whole run.
    pub telemetry: Snapshot,
    /// Epoch timeline over the whole run (None unless
    /// [`ExperimentConfig::timeline_every`] is set).
    pub timeline: Option<TimelineSnapshot>,
    /// Miss-attribution profile over the whole run (None unless
    /// [`ExperimentConfig::profile_top_k`] is set).
    pub profile: Option<ProfileSnapshot>,
}

impl FunctionsResult {
    /// Mean execution cycles of the non-leading functions (what Fig. 11
    /// reports).
    pub fn follower_mean_exec(&self) -> f64 {
        let followers = &self.exec_cycles[1..];
        if followers.is_empty() {
            return 0.0;
        }
        followers.iter().map(|(_, c)| *c).sum::<u64>() as f64 / followers.len() as f64
    }

    /// Mean bring-up cycles across all started containers.
    pub fn mean_bringup(&self) -> f64 {
        if self.bringup_cycles.is_empty() {
            return 0.0;
        }
        self.bringup_cycles.iter().map(|(_, c)| *c).sum::<u64>() as f64
            / self.bringup_cycles.len() as f64
    }
}

fn sim_config(mode: Mode, cfg: &ExperimentConfig, thp: bool) -> SimConfig {
    let mut sim = SimConfig::new(cfg.cores, mode)
        .with_frames(cfg.frames)
        .with_timeline(cfg.timeline_every, cfg.timeline_fail_fast)
        .with_profile(cfg.profile_top_k)
        .with_heartbeat(cfg.heartbeat_every);
    sim.quantum_cycles = cfg.quantum_cycles;
    if !thp {
        sim = sim.without_thp();
    }
    sim
}

/// Takes the end-of-run observability artifacts off a finished machine
/// — the measured-window telemetry delta, the epoch timeline, and the
/// miss-attribution profile — and reports them to the heartbeat stream
/// (fault counters, invariant violations, and the counters `cell_finish`
/// summarises). One implementation for every runner, so the heartbeat
/// sees every cell the same way.
fn window_observability(
    machine: &mut Machine,
) -> (Snapshot, Option<TimelineSnapshot>, Option<ProfileSnapshot>) {
    let telemetry = machine.telemetry_snapshot();
    let timeline = machine.take_timeline();
    let profile = machine.take_profile();
    bf_telemetry::heartbeat::cell_report(&telemetry, timeline.as_ref());
    (telemetry, timeline, profile)
}

/// Brings up `containers_per_core` containers of `image` per core in one
/// CCID group, running each one's `docker start` touch sequence, and
/// returns their pids (per core).
fn deploy_containers(
    machine: &mut Machine,
    runtime: &mut ContainerRuntime,
    image: &bf_containers::ContainerImage,
    group: Ccid,
    cfg: &ExperimentConfig,
) -> Vec<(CoreId, bf_containers::Container)> {
    let profile = BringupProfile::default();
    let mut deployed = Vec::new();
    for core in 0..cfg.cores {
        for _slot in 0..cfg.containers_per_core {
            let container = runtime
                .create_container(machine.kernel_mut(), image, group)
                .expect("container creation failed");
            // Same bring-up seed for every container: they execute the
            // same init path over the same shared pages ("containers
            // first read several pages shared by other containers",
            // Section III-A).
            machine.measure_bringup(CoreId::new(core), &container, &profile, cfg.seed);
            // The paper warms the OS for a minute before measuring
            // (Section VI): by then the steady-state working set is
            // fully mapped in every container.
            machine.prefault(container.pid());
            deployed.push((CoreId::new(core), container));
        }
    }
    deployed
}

/// Runs one data-serving experiment (Fig. 9/10/11 serving rows).
pub fn run_serving(mode: Mode, variant: ServingVariant, cfg: &ExperimentConfig) -> ServingResult {
    let (mut machine, exec_cycles) = serving_machine(mode, variant, cfg);
    let stats = machine.stats();
    let (telemetry, timeline, profile) = window_observability(&mut machine);
    ServingResult {
        mean_latency: stats.latency.mean(),
        p95_latency: stats.latency.percentile(95.0),
        exec_cycles,
        stats,
        telemetry,
        timeline,
        profile,
    }
}

/// Like [`run_serving`] but hands back the whole machine, so callers can
/// inspect kernel structures (used by the Section VII-D measured-overhead
/// accounting).
pub fn run_serving_machine(mode: Mode, variant: ServingVariant, cfg: &ExperimentConfig) -> Machine {
    serving_machine(mode, variant, cfg).0
}

fn serving_machine(
    mode: Mode,
    variant: ServingVariant,
    cfg: &ExperimentConfig,
) -> (Machine, Cycles) {
    let app = CaptureApp::Serving(variant);
    let (mut machine, deployed) = capture_setup(mode, app, cfg);
    attach_app_workloads(&mut machine, app, deployed, cfg);
    let exec_cycles = run_measurement_window(&mut machine, cfg);
    (machine, exec_cycles)
}

/// Runs one compute experiment (Fig. 9/10/11 compute rows).
pub fn run_compute(mode: Mode, kind: ComputeKind, cfg: &ExperimentConfig) -> ComputeResult {
    let app = CaptureApp::Compute(kind);
    let (mut machine, deployed) = capture_setup(mode, app, cfg);
    attach_app_workloads(&mut machine, app, deployed, cfg);
    let exec_cycles = run_measurement_window(&mut machine, cfg);

    let (telemetry, timeline, profile) = window_observability(&mut machine);
    ComputeResult {
        exec_cycles,
        stats: machine.stats(),
        telemetry,
        timeline,
        profile,
    }
}

/// The machine-preparation half every capturable experiment shares:
/// build the machine for `mode`/`app`, build the image, and deploy the
/// containers (bring-up + prefault) — but attach nothing. A replay
/// reaches the exact same architectural state by calling this with the
/// configuration recorded in the trace header, then feeding the trace
/// instead of live workloads.
pub fn capture_setup(
    mode: Mode,
    app: CaptureApp,
    cfg: &ExperimentConfig,
) -> (Machine, Vec<(CoreId, bf_containers::Container)>) {
    let mut machine = Machine::new(sim_config(mode, cfg, app.thp()));
    if let Some(plan) = cfg.faults {
        machine.arm_faults(plan);
    }
    let mut runtime = ContainerRuntime::new(machine.kernel_mut());
    let spec = match app {
        CaptureApp::Serving(variant) => ImageSpec::data_serving(variant.name(), cfg.dataset_bytes),
        CaptureApp::Compute(kind) => ImageSpec::compute(kind.name(), cfg.dataset_bytes),
    };
    let image = runtime.build_image(machine.kernel_mut(), &spec);
    let group = runtime.create_group(machine.kernel_mut());
    let deployed = deploy_containers(&mut machine, &mut runtime, &image, group, cfg);
    (machine, deployed)
}

/// Attaches `app`'s live workload generators to the deployed containers.
fn attach_app_workloads(
    machine: &mut Machine,
    app: CaptureApp,
    deployed: Vec<(CoreId, bf_containers::Container)>,
    cfg: &ExperimentConfig,
) {
    for (i, (core, container)) in deployed.into_iter().enumerate() {
        let layout = container.layout().clone();
        let seed = cfg.seed + i as u64;
        let workload: Box<dyn Workload> = match app {
            CaptureApp::Serving(variant) => Box::new(DataServing::new(variant, layout, seed)),
            CaptureApp::Compute(ComputeKind::GraphChi) => Box::new(GraphCompute::new(layout, seed)),
            CaptureApp::Compute(ComputeKind::Fio) => Box::new(FioCompute::new(layout, seed)),
        };
        machine.attach(core, container.pid(), workload);
    }
}

/// Warm-up, reset, measured window; returns the mean per-core clock
/// delta over the measured window.
fn run_measurement_window(machine: &mut Machine, cfg: &ExperimentConfig) -> Cycles {
    // Progress-target hint for the heartbeat: the windows retire
    // warmup + measure instructions on every core. Deterministic (pure
    // config), so the derived `frac` on progress events is too.
    bf_telemetry::heartbeat::cell_target(
        (cfg.warmup_instructions + cfg.measure_instructions) * cfg.cores as u64,
    );
    machine.run_instructions(cfg.warmup_instructions);
    machine.reset_measurement();
    let clock_start: Vec<Cycles> = (0..cfg.cores)
        .map(|c| machine.core_clock(CoreId::new(c)))
        .collect();
    machine.run_instructions(cfg.measure_instructions);
    // Drain any still-latent injected corruptions so the final stats /
    // telemetry snapshots see `fault.detected == fault.injected` (no-op
    // when faults are unarmed).
    machine.quiesce_faults();
    mean_clock_delta(machine, &clock_start)
}

/// Runs `app` live under `mode` with no capture attached and returns
/// the window result plus the wall-clock seconds the warm-up + measured
/// windows took (machine setup — image build, deploy, bring-up,
/// prefault — is excluded). The `bf_perf` benchmark times its live
/// cells through this entry point; the returned result is
/// byte-identical to an untimed run's.
pub fn run_timed_window(
    mode: Mode,
    app: CaptureApp,
    cfg: &ExperimentConfig,
) -> (WindowResult, f64) {
    let (mut machine, deployed) = capture_setup(mode, app, cfg);
    attach_app_workloads(&mut machine, app, deployed, cfg);
    let start = std::time::Instant::now();
    let exec_cycles = run_measurement_window(&mut machine, cfg);
    let seconds = start.elapsed().as_secs_f64();
    let (telemetry, timeline, profile) = window_observability(&mut machine);
    (
        WindowResult {
            exec_cycles,
            stats: machine.stats(),
            telemetry,
            timeline,
            profile,
        },
        seconds,
    )
}

/// Runs `app` live under `mode` with `sink` capturing the scheduler
/// event stream (warm-up included, with the reset marker separating it
/// from the measured window). Returns the window result plus the sink
/// for flushing. Bring-up and prefault happen *before* the sink
/// attaches — replay re-runs them deterministically via
/// [`capture_setup`] instead of reading them from the trace.
pub fn run_captured(
    mode: Mode,
    app: CaptureApp,
    cfg: &ExperimentConfig,
    sink: Box<dyn CaptureSink>,
) -> (WindowResult, Box<dyn CaptureSink>) {
    let (mut machine, deployed) = capture_setup(mode, app, cfg);
    attach_app_workloads(&mut machine, app, deployed, cfg);
    machine.attach_capture(sink);
    let exec_cycles = run_measurement_window(&mut machine, cfg);
    let sink = machine
        .take_capture()
        .expect("capture sink still attached after the run");
    let (telemetry, timeline, profile) = window_observability(&mut machine);
    (
        WindowResult {
            exec_cycles,
            stats: machine.stats(),
            telemetry,
            timeline,
            profile,
        },
        sink,
    )
}

/// Runs the FaaS experiment: the three functions started in sequence on
/// one core from pre-created images (`docker start`), run to completion
/// (Section VI: "there is no warm-up. We run all the three functions from
/// the beginning to completion").
pub fn run_functions(
    mode: Mode,
    density: AccessDensity,
    cfg: &ExperimentConfig,
) -> FunctionsResult {
    let mut machine = Machine::new(sim_config(mode, cfg, true));
    if let Some(plan) = cfg.faults {
        machine.arm_faults(plan);
    }
    let mut runtime = ContainerRuntime::new(machine.kernel_mut());
    let group = runtime.create_group(machine.kernel_mut());
    let core = CoreId::new(0);
    let profile = BringupProfile::default();

    let mut bringups = Vec::new();
    let mut execs = Vec::new();

    // One mounted input shared by all three functions (Section VI).
    let input = shared_input(&mut machine, cfg);

    for (i, kind) in FunctionKind::ALL.iter().enumerate() {
        let mut spec = ImageSpec::function(kind.name());
        spec.dataset_bytes = cfg.function_input_bytes;
        let image = runtime.build_image_with_dataset(machine.kernel_mut(), &spec, input);
        let container = runtime
            .create_container(machine.kernel_mut(), &image, group)
            .expect("function container creation failed");
        let bringup = machine.measure_bringup(core, &container, &profile, cfg.seed);
        bringups.push((kind.name().to_owned(), bringup));

        let mut workload = FunctionWorkload::new(
            *kind,
            density,
            container.layout().clone(),
            cfg.seed + i as u64,
        );
        let exec = drive_to_done(&mut machine, core, container.pid(), &mut workload);
        execs.push((kind.name().to_owned(), exec));
        // The container stays resident (the paper co-schedules all three
        // per core), so its TLB/page-cache state can serve the next one.
    }

    machine.quiesce_faults();
    let (telemetry, timeline, profile) = window_observability(&mut machine);
    FunctionsResult {
        bringup_cycles: bringups,
        exec_cycles: execs,
        stats: machine.stats(),
        telemetry,
        timeline,
        profile,
    }
}

/// Runs the Fig. 9 census: deploy the app's containers, execute a
/// touch window, and count `pte_t` shareability.
pub fn run_census(app: CensusApp, cfg: &ExperimentConfig) -> CensusReport {
    run_census_timed(app, cfg).0
}

/// Like [`run_census`], also returning the run's epoch timeline (None
/// unless [`ExperimentConfig::timeline_every`] is set) and its
/// miss-attribution profile (None unless
/// [`ExperimentConfig::profile_top_k`] is set).
pub fn run_census_timed(
    app: CensusApp,
    cfg: &ExperimentConfig,
) -> (
    CensusReport,
    Option<TimelineSnapshot>,
    Option<ProfileSnapshot>,
) {
    // Fig. 9 was measured natively (no BabelFish), so run the baseline.
    match app {
        CensusApp::Serving(variant) => {
            let thp = matches!(variant, ServingVariant::Httpd);
            let mut machine = Machine::new(sim_config(Mode::Baseline, cfg, thp));
            let mut runtime = ContainerRuntime::new(machine.kernel_mut());
            let spec = ImageSpec::data_serving(variant.name(), cfg.dataset_bytes);
            let image = runtime.build_image(machine.kernel_mut(), &spec);
            let group = runtime.create_group(machine.kernel_mut());
            for (i, (core, container)) in
                deploy_containers(&mut machine, &mut runtime, &image, group, cfg)
                    .into_iter()
                    .enumerate()
            {
                let workload =
                    DataServing::new(variant, container.layout().clone(), cfg.seed + i as u64);
                machine.attach(core, container.pid(), Box::new(workload));
            }
            machine.run_instructions(cfg.measure_instructions);
            let report = pagemap::census(machine.kernel(), group);
            let (_telemetry, timeline, profile) = window_observability(&mut machine);
            (report, timeline, profile)
        }
        CensusApp::Compute(kind) => {
            let mut machine = Machine::new(sim_config(Mode::Baseline, cfg, true));
            let mut runtime = ContainerRuntime::new(machine.kernel_mut());
            let spec = ImageSpec::compute(kind.name(), cfg.dataset_bytes);
            let image = runtime.build_image(machine.kernel_mut(), &spec);
            let group = runtime.create_group(machine.kernel_mut());
            for (i, (core, container)) in
                deploy_containers(&mut machine, &mut runtime, &image, group, cfg)
                    .into_iter()
                    .enumerate()
            {
                let layout = container.layout().clone();
                let seed = cfg.seed + i as u64;
                let workload: Box<dyn Workload> = match kind {
                    ComputeKind::GraphChi => Box::new(GraphCompute::new(layout, seed)),
                    ComputeKind::Fio => Box::new(FioCompute::new(layout, seed)),
                };
                machine.attach(core, container.pid(), workload);
            }
            machine.run_instructions(cfg.measure_instructions);
            let report = pagemap::census(machine.kernel(), group);
            let (_telemetry, timeline, profile) = window_observability(&mut machine);
            (report, timeline, profile)
        }
        CensusApp::Functions => {
            // Three *live* functions (the census needs their tables).
            let mut machine = Machine::new(sim_config(Mode::Baseline, cfg, true));
            let mut runtime = ContainerRuntime::new(machine.kernel_mut());
            let group = runtime.create_group(machine.kernel_mut());
            let core = CoreId::new(0);
            let profile = BringupProfile::default();
            let input = shared_input(&mut machine, cfg);
            for (i, kind) in FunctionKind::ALL.iter().enumerate() {
                let mut spec = ImageSpec::function(kind.name());
                spec.dataset_bytes = cfg.function_input_bytes;
                let image = runtime.build_image_with_dataset(machine.kernel_mut(), &spec, input);
                let container = runtime
                    .create_container(machine.kernel_mut(), &image, group)
                    .expect("function container creation failed");
                machine.measure_bringup(core, &container, &profile, cfg.seed);
                let mut workload = FunctionWorkload::new(
                    *kind,
                    AccessDensity::Dense,
                    container.layout().clone(),
                    cfg.seed + i as u64,
                );
                // Run to completion but keep the process alive for the
                // census.
                drive_to_done(&mut machine, core, container.pid(), &mut workload);
            }
            let report = pagemap::census(machine.kernel(), group);
            let (_telemetry, timeline, profile) = window_observability(&mut machine);
            (report, timeline, profile)
        }
    }
}

/// Registers the single input file the three functions all mount.
fn shared_input(machine: &mut Machine, cfg: &ExperimentConfig) -> bf_containers::ImageFile {
    bf_containers::ImageFile {
        file: machine.kernel_mut().register_file(cfg.function_input_bytes),
        bytes: cfg.function_input_bytes,
        kind: bf_containers::ImageFileKind::Dataset,
    }
}

/// Drives a run-to-completion workload directly (no scheduler), charging
/// compute and memory time, and returns the elapsed cycles.
fn drive_to_done(
    machine: &mut Machine,
    core: CoreId,
    pid: Pid,
    workload: &mut dyn Workload,
) -> Cycles {
    let start = machine.core_clock(core);
    loop {
        match workload.next_op() {
            Op::Access {
                va,
                kind,
                instrs_before,
            } => {
                machine.retire(core, instrs_before as u64 + 1);
                machine.execute_access(core.index(), pid, va, kind);
            }
            Op::RequestEnd => {}
            Op::Done => break,
        }
    }
    machine.core_clock(core) - start
}

pub(crate) fn mean_clock_delta(machine: &Machine, start: &[Cycles]) -> Cycles {
    let total: Cycles = start
        .iter()
        .enumerate()
        .map(|(core, &s)| machine.core_clock(CoreId::new(core)).saturating_sub(s))
        .sum();
    total / start.len().max(1) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::smoke_test();
        cfg.warmup_instructions = 10_000;
        cfg.measure_instructions = 40_000;
        cfg.dataset_bytes = 4 << 20;
        cfg.function_input_bytes = 2 << 20;
        cfg
    }

    #[test]
    fn valid_configs_pass_validation() {
        assert_eq!(ExperimentConfig::paper_scaled().validate(), Ok(()));
        assert_eq!(ExperimentConfig::smoke_test().validate(), Ok(()));
        // Zero warm-up is fine: the measured window just starts cold.
        let mut cfg = ExperimentConfig::smoke_test();
        cfg.warmup_instructions = 0;
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn zero_cores_is_rejected() {
        let mut cfg = ExperimentConfig::smoke_test();
        cfg.cores = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroCores));
    }

    #[test]
    fn zero_containers_per_core_is_rejected() {
        let mut cfg = ExperimentConfig::smoke_test();
        cfg.containers_per_core = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroContainersPerCore));
    }

    #[test]
    fn zero_dataset_bytes_is_rejected() {
        let mut cfg = ExperimentConfig::smoke_test();
        cfg.dataset_bytes = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroDatasetBytes));
    }

    #[test]
    fn zero_function_input_bytes_is_rejected() {
        let mut cfg = ExperimentConfig::smoke_test();
        cfg.function_input_bytes = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroFunctionInputBytes));
    }

    #[test]
    fn zero_measure_instructions_is_rejected() {
        let mut cfg = ExperimentConfig::smoke_test();
        cfg.measure_instructions = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroMeasureInstructions));
    }

    #[test]
    fn zero_quantum_cycles_is_rejected() {
        let mut cfg = ExperimentConfig::smoke_test();
        cfg.quantum_cycles = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroQuantumCycles));
    }

    #[test]
    fn zero_frames_is_rejected() {
        let mut cfg = ExperimentConfig::smoke_test();
        cfg.frames = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroFrames));
    }

    #[test]
    fn config_errors_name_the_field() {
        assert!(ConfigError::ZeroCores.to_string().contains("cores"));
        assert!(ConfigError::ZeroFrames.to_string().contains("frames"));
    }

    #[test]
    fn config_serialization_excludes_chaos_knobs() {
        let mut cfg = ExperimentConfig::smoke_test();
        cfg.faults = FaultPlan::parse("tlb-bitflip@p=0.5").ok();
        let clean = ExperimentConfig::smoke_test();
        use serde::Serialize as _;
        assert_eq!(
            cfg.to_value(),
            clean.to_value(),
            "faults must not leak into emitted documents"
        );
    }

    #[test]
    fn serving_babelfish_beats_baseline() {
        let cfg = tiny();
        let base = run_serving(Mode::Baseline, ServingVariant::MongoDb, &cfg);
        let bf = run_serving(Mode::babelfish(), ServingVariant::MongoDb, &cfg);
        assert!(base.stats.latency.count() > 10, "requests completed");
        assert!(
            bf.mean_latency < base.mean_latency,
            "BabelFish mean latency {} should beat baseline {}",
            bf.mean_latency,
            base.mean_latency
        );
        assert!(
            bf.stats.l2_data_mpki() < base.stats.l2_data_mpki(),
            "MPKI should drop: {} vs {}",
            bf.stats.l2_data_mpki(),
            base.stats.l2_data_mpki()
        );
        assert!(bf.stats.l2_data_shared_hit_fraction() > 0.0);
        assert_eq!(base.stats.l2_data_shared_hit_fraction(), 0.0);
    }

    #[test]
    fn compute_babelfish_reduces_exec_time() {
        let cfg = tiny();
        let base = run_compute(Mode::Baseline, ComputeKind::Fio, &cfg);
        let bf = run_compute(Mode::babelfish(), ComputeKind::Fio, &cfg);
        assert!(
            bf.exec_cycles < base.exec_cycles,
            "BabelFish exec {} should beat baseline {}",
            bf.exec_cycles,
            base.exec_cycles
        );
    }

    #[test]
    fn functions_sparse_gains_exceed_dense() {
        let cfg = tiny();
        let reduction = |density: AccessDensity| {
            let base = run_functions(Mode::Baseline, density, &cfg);
            let bf = run_functions(Mode::babelfish(), density, &cfg);
            1.0 - bf.follower_mean_exec() / base.follower_mean_exec()
        };
        let dense = reduction(AccessDensity::Dense);
        let sparse = reduction(AccessDensity::Sparse);
        assert!(dense > 0.0, "dense functions should gain ({dense})");
        assert!(
            sparse > dense,
            "sparse functions gain more (sparse {sparse} vs dense {dense})"
        );
    }

    #[test]
    fn functions_bringup_improves() {
        let cfg = tiny();
        let base = run_functions(Mode::Baseline, AccessDensity::Dense, &cfg);
        let bf = run_functions(Mode::babelfish(), AccessDensity::Dense, &cfg);
        assert!(
            bf.mean_bringup() < base.mean_bringup(),
            "bring-up should improve: {} vs {}",
            bf.mean_bringup(),
            base.mean_bringup()
        );
    }

    #[test]
    fn census_reports_shareability() {
        let cfg = tiny();
        let report = run_census(CensusApp::Serving(ServingVariant::Httpd), &cfg);
        assert!(report.total.total() > 0);
        assert!(
            report.shareable_fraction() > 0.2,
            "{}",
            report.shareable_fraction()
        );
        assert!(report.active_reduction() > 0.0);

        let functions = run_census(CensusApp::Functions, &cfg);
        assert!(
            functions.shareable_fraction() > report.shareable_fraction() * 0.8,
            "functions are highly shareable ({})",
            functions.shareable_fraction()
        );
    }
}
