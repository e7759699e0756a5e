//! # bf-perf: host-time benchmark of the BabelFish simulator
//!
//! Four workloads, one per container class of the paper's evaluation
//! (Section VI) plus the trace-replay path, each measured end to end
//! (host ns per simulated access, cell time, set-up time, peak memory)
//! and layer by layer (set-up phases, counter-derived ratios, and a
//! traced run that times every access from outside the simulator). The
//! simulator is driven only through its public entry points; see
//! `README.md` for the workloads, the metrics and the method.

pub mod cell;
pub mod report;
pub mod traced;

use babelfish::capture::{Record, TraceMeta, TraceReader};
use babelfish::containers::{BringupProfile, ContainerLayout};
use babelfish::experiment::{
    run_functions, run_timed_window, CaptureApp, ComputeKind, ExperimentConfig,
};
use babelfish::replay;
use babelfish::sim::Mode;
use babelfish::types::Pid;
use babelfish::workloads::{
    AccessDensity, FunctionKind, FunctionWorkload, Op, ServingVariant, Workload,
};
use bf_telemetry::Snapshot;
use cell::{Cell, Outcome, Plain, SetupTimes, Taps, TraceCounts};
use report::Report;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use traced::{Probe, TraceSummary};

/// The default workload seed.
pub const DEFAULT_SEED: u64 = 0x5eed;

/// The default timed budget per workload, in seconds.
pub const DEFAULT_SECONDS: f64 = 10.0;

/// Cells of one FaaS rep (paper-scaled).
const FAAS_CELLS: usize = 60;

/// The taps `replay-mongodb-profiled` arms.
pub const PROFILED: Taps = Taps {
    timeline_every: 4096,
    profile_top_k: 64,
};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchWorkload {
    /// mongodb x BabelFish, live: scheduler, Zipfian generators, the
    /// shared-TLB path.
    ServeMongodb,
    /// fio x baseline, THP on, live: the conventional TLB path at the
    /// highest walk rate.
    ComputeFioBaseline,
    /// The three functions, sparse, x BabelFish: fresh machines, the
    /// fault path with writes, no scheduler.
    FaasSparse,
    /// `ServeMongodb`'s cell replayed from its trace with the timeline
    /// and profiler taps armed.
    ReplayMongodbProfiled,
}

impl BenchWorkload {
    /// Every workload, in run order.
    pub const ALL: [BenchWorkload; 4] = [
        BenchWorkload::ServeMongodb,
        BenchWorkload::ComputeFioBaseline,
        BenchWorkload::FaasSparse,
        BenchWorkload::ReplayMongodbProfiled,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            BenchWorkload::ServeMongodb => "serve-mongodb",
            BenchWorkload::ComputeFioBaseline => "compute-fio-baseline",
            BenchWorkload::FaasSparse => "faas-sparse",
            BenchWorkload::ReplayMongodbProfiled => "replay-mongodb-profiled",
        }
    }

    /// Inverse of [`BenchWorkload::name`].
    pub fn from_name(name: &str) -> Option<BenchWorkload> {
        BenchWorkload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Which metric sets a run computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sets {
    /// End-to-end metrics only (`--trace 0`).
    EndToEnd,
    /// Per-layer metrics, traced run included (`--trace 1`).
    PerLayer,
    /// Both (no `--trace`).
    Both,
}

impl Sets {
    /// Whether the end-to-end metrics are emitted.
    pub fn end_to_end(self) -> bool {
        self != Sets::PerLayer
    }

    /// Whether the per-layer metrics are computed and emitted.
    pub fn per_layer(self) -> bool {
        self != Sets::EndToEnd
    }
}

/// One workload run's settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// The workload.
    pub workload: BenchWorkload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Timed budget: reps run until it is spent.
    pub seconds: f64,
    /// Metric sets to compute.
    pub sets: Sets,
    /// Smoke-test sizes and a single rep.
    pub quick: bool,
}

impl Options {
    /// The experiment configuration of every cell: paper-scaled with a
    /// six-fold measured window (about a second of host time per live
    /// window), or the smoke-test sizes with `quick`.
    pub fn config(&self) -> ExperimentConfig {
        let mut cfg = if self.quick {
            ExperimentConfig::smoke_test()
        } else {
            let mut cfg = ExperimentConfig::paper_scaled();
            cfg.measure_instructions *= 6;
            cfg
        };
        cfg.seed = self.seed;
        cfg
    }

    fn faas_cells(&self) -> usize {
        if self.quick {
            2
        } else {
            FAAS_CELLS
        }
    }

    /// Operations of each single-layer probe: cache-hierarchy accesses,
    /// and the least number of records the codec probe encodes and
    /// decodes.
    fn probe_ops(&self) -> usize {
        if self.quick {
            1 << 14
        } else {
            1 << 20
        }
    }

    /// Runs of each single-purpose measurement of the traced run (the
    /// armed, unarmed, untraced and traced cells); the fastest counts,
    /// as with the timed reps.
    fn tries(&self) -> usize {
        if self.quick {
            1
        } else {
            3
        }
    }
}

/// Cell accounting for the correctness gate.
#[derive(Default)]
struct Gate {
    report: Report,
}

impl Gate {
    /// Runs one cell; a panic counts it failed and yields `None`.
    fn cell<T>(&mut self, what: &str, run: impl FnOnce() -> T) -> Option<T> {
        self.report.attempted += 1;
        match catch_unwind(AssertUnwindSafe(run)) {
            Ok(value) => Some(value),
            Err(panic) => {
                let message = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                self.fail(format!("{what} panicked: {message}"));
                None
            }
        }
    }

    /// Runs one cell and checks `field` of its outcome against the
    /// reference's; a mismatch counts the cell failed (but still
    /// yields it, so its timing is visible).
    fn checked(
        &mut self,
        what: &str,
        field: fn(&Outcome) -> &str,
        reference: &Outcome,
        run: impl FnOnce() -> Cell,
    ) -> Option<Cell> {
        let cell = self.cell(what, run)?;
        if field(&cell.outcome) != field(reference) {
            self.fail(format!("{what}: result differs from the library reference"));
        }
        Some(cell)
    }

    fn fail(&mut self, error: String) {
        self.report.failed += 1;
        self.report.errors.push(error);
    }
}

fn doc(outcome: &Outcome) -> &str {
    &outcome.doc
}

fn model(outcome: &Outcome) -> &str {
    &outcome.model
}

/// One timed rep's end-to-end readings.
struct Rep {
    ns_per_access: f64,
    cell_s: f64,
    setup: SetupTimes,
}

/// Reps until `opts.seconds` is spent (one with `quick`), timing the
/// host reference loop before each.
fn timed_reps(opts: &Options, mut rep: impl FnMut() -> Option<Rep>) -> (Vec<Rep>, Vec<f64>) {
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut reps = Vec::new();
    let mut reference = Vec::new();
    loop {
        reference.push(traced::reference_ms());
        if let Some(r) = rep() {
            reps.push(r);
        }
        if opts.quick || Instant::now() >= deadline {
            break;
        }
    }
    (reps, reference)
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics and the reps' set-up phases.
///
/// Every rep does byte-identical work (the gate checks it), so the
/// spread between reps is host interference, which only ever adds
/// time: the fastest rep is the estimate it disturbs least, and it is
/// what `ns_per_access` and `cell_s` report. On the shared reference
/// host, ten runs' per-run medians spread up to 39% (IQR over median),
/// their minima up to 12%. `setup_s` is the median of the reps'
/// set-ups. The text output shows every timing's quartiles too.
fn report_reps(report: &mut Report, sets: Sets, reps: &[Rep], reference_ms: &[f64]) {
    if reps.is_empty() {
        return;
    }
    let pick = |f: fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    report.timing("ns_per_access", "ns", &pick(|r| r.ns_per_access), |s| s.min);
    report.timing("cell_s", "s", &pick(|r| r.cell_s), |s| s.min);
    report.timing("setup_s", "s", &pick(|r| r.setup.total()), |s| s.median);
    report.value("peak_rss_mb", "MB", peak_rss_mb());
    if sets.per_layer() {
        report.layer_median("setup.machine_s", "s", &pick(|r| r.setup.machine_s));
        report.layer_median("setup.image_s", "s", &pick(|r| r.setup.image_s));
        report.layer_median("setup.bringup_s", "s", &pick(|r| r.setup.bringup_s));
        report.layer_median("setup.prefault_s", "s", &pick(|r| r.setup.prefault_s));
        report.layer_median("host.ref_ms", "ms", reference_ms);
    }
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    numerator as f64 / denominator.max(1) as f64
}

/// The deterministic per-layer metrics: simulated results and ratios
/// of the reference window's counters. `accesses` is the fed stream,
/// `window_accesses` the accesses inside the reference's telemetry
/// window.
fn report_model(report: &mut Report, reference: &Outcome, accesses: u64, window_accesses: u64) {
    report.layer("model.accesses", "count", accesses as f64);
    report.layer("model.exec_cycles", "cycles", reference.exec_cycles as f64);
    report.layer("model.l2_data_mpki", "1/kinstr", reference.l2_data_mpki);
    report.layer("model.walks", "count", reference.walks as f64);

    let t: &Snapshot = &reference.telemetry;
    let c = |name: &str| t.counter(name);
    let faults = |name: &str| t.histogram(name).map_or(0, |h| h.count);
    let l1_hits = c("tlb.l1d.hits") + c("tlb.l1i.hits");
    let l2_lookups = window_accesses.saturating_sub(l1_hits);
    let hit_ratio = |level: &str| {
        let hits = c(&format!("cache.{level}.hits"));
        ratio(hits, hits + c(&format!("cache.{level}.misses")))
    };
    let walker_requests =
        c("cache.walks.served_l2") + c("cache.walks.served_l3") + c("cache.walks.served_dram");
    let all_faults: u64 = traced::FAULT_HISTOGRAMS
        .iter()
        .map(|name| faults(name))
        .sum();
    let per_kaccess = |count: u64| 1e3 * ratio(count, window_accesses);

    report.counted(
        "tlb.l1.miss_ratio",
        "ratio",
        1.0 - ratio(l1_hits, window_accesses),
    );
    report.counted(
        "tlb.l2.miss_ratio",
        "ratio",
        1.0 - ratio(c("tlb.l2.hits"), l2_lookups),
    );
    report.counted(
        "tlb.l2.shared_hit_frac",
        "ratio",
        ratio(c("tlb.l2.shared_hits"), c("tlb.l2.hits")),
    );
    report.counted(
        "cache.pwc.hit_ratio",
        "ratio",
        ratio(c("pwc.hits"), c("pwc.hits") + c("pwc.misses")),
    );
    report.counted("cache.l1d.hit_ratio", "ratio", hit_ratio("l1d"));
    report.counted("cache.l2.hit_ratio", "ratio", hit_ratio("l2"));
    report.counted("cache.l3.hit_ratio", "ratio", hit_ratio("l3"));
    report.counted(
        "cache.walk_dram_frac",
        "ratio",
        ratio(c("cache.walks.served_dram"), walker_requests),
    );
    report.counted(
        "mem.dram.per_kaccess",
        "1/kaccess",
        per_kaccess(c("cache.dram.accesses")),
    );
    report.counted(
        "pgtable.walks_per_kaccess",
        "1/kaccess",
        per_kaccess(c("pgtable.walks")),
    );
    report.counted(
        "os.faults_per_kaccess",
        "1/kaccess",
        per_kaccess(all_faults),
    );
    report.counted(
        "os.cow_per_kaccess",
        "1/kaccess",
        per_kaccess(faults("os.fault.cow_cycles")),
    );
}

/// What the traced run and the layer probes measured.
struct Traced {
    summary: TraceSummary,
    /// Host ns per access of the same stream fed untraced.
    untraced_ns: f64,
    /// Host ns per access of the traced feed, wall clock.
    traced_wall_ns: f64,
    /// Host ns per access of the input source the traced calls leave
    /// out: trace decode (replay-fed streams) or the generator (FaaS).
    source_ns: f64,
    next_op_ns: f64,
    codec: traced::Codec,
    hierarchy_ns: f64,
    armed_overhead: f64,
}

/// (share, median ns) metric names of the access classes, in
/// [`TraceSummary`] order.
const CLASS_METRICS: [(&str, &str); 4] = [
    ("sim.l1_hit.frac", "sim.l1_hit.ns"),
    ("sim.l2_hit.frac", "sim.l2_hit.ns"),
    ("sim.walk.frac", "sim.walk.ns"),
    ("sim.fault.frac", "sim.fault.ns"),
];

fn report_traced(report: &mut Report, t: &Traced) {
    let s = &t.summary;
    for (c, (frac, ns)) in CLASS_METRICS.into_iter().enumerate() {
        report.counted(frac, "ratio", s.frac[c]);
        report.counted(ns, "ns", s.ns[c]);
    }
    report.counted("sim.access.ns_p99", "ns", s.p99_ns);
    report.counted("tlb.l2_self_ns", "ns", s.ns[1] - s.ns[0]);
    report.counted("sim.walk_self_ns", "ns", s.ns[2] - s.ns[1]);
    report.counted("os.fault_self_ns", "ns", s.ns[3] - s.ns[2]);
    report.layer("workloads.next_op_ns", "ns", t.next_op_ns);
    report.layer("capture.decode_ns", "ns", t.codec.decode_ns);
    report.layer("capture.encode_ns", "ns", t.codec.encode_ns);
    report.layer(
        "capture.bytes_per_record",
        "B/record",
        t.codec.bytes_per_record,
    );
    report.layer("cache.hierarchy_ns", "ns", t.hierarchy_ns);
    report.layer("telemetry.armed_overhead_frac", "ratio", t.armed_overhead);
    report.layer("trace.timer_ns", "ns", s.timer_ns);
    report.layer(
        "trace.overhead_frac",
        "ratio",
        t.traced_wall_ns / t.untraced_ns - 1.0,
    );
    report.counted("trace.classified_share", "ratio", s.classified_share);
    let accounted = s.feed_self_ns / s.feed_accesses.max(1) as f64 + t.source_ns;
    report.layer(
        "trace.residual_frac",
        "ratio",
        accounted / t.untraced_ns - 1.0,
    );
}

/// Runs one workload and reports it.
pub fn run(opts: &Options) -> Report {
    let mut gate = Gate::default();
    // `None` means a cell the rest depends on failed; the gate holds
    // the failure.
    let _ = match opts.workload {
        BenchWorkload::ServeMongodb => live(
            opts,
            &mut gate,
            Mode::babelfish(),
            CaptureApp::Serving(ServingVariant::MongoDb),
        ),
        BenchWorkload::ComputeFioBaseline => live(
            opts,
            &mut gate,
            Mode::Baseline,
            CaptureApp::Compute(ComputeKind::Fio),
        ),
        BenchWorkload::FaasSparse => faas(opts, &mut gate),
        BenchWorkload::ReplayMongodbProfiled => replay_profiled(opts, &mut gate),
    };
    gate.report
}

/// The fastest rep's ns per access: what `ns_per_access` reports.
fn fastest_ns(reps: &[Rep]) -> f64 {
    reps.iter()
        .map(|r| r.ns_per_access)
        .fold(f64::INFINITY, f64::min)
}

/// Host ns per access of `seconds` over `accesses`.
fn per_access(seconds: f64, accesses: u64) -> f64 {
    seconds * 1e9 / accesses.max(1) as f64
}

/// Keeps the faster of `best` and `candidate` by the time `speed`
/// reads from each.
fn faster<T>(best: Option<T>, candidate: T, speed: impl Fn(&T) -> f64) -> Option<T> {
    match best {
        Some(best) if speed(&best) <= speed(&candidate) => Some(best),
        _ => Some(candidate),
    }
}

fn cell_ns(cell: &Cell) -> f64 {
    per_access(cell.feed_s, cell.accesses)
}

/// Replays `trace` under a fresh [`Probe`]; the traced cell must
/// reproduce the reference document.
fn traced_replay(
    gate: &mut Gate,
    trace: &[u8],
    taps: Taps,
    reference: &Outcome,
    timer_ns: f64,
) -> Option<(TraceSummary, Cell)> {
    let mut probe = Probe::new(true);
    let cell = gate.checked("traced replay cell", doc, reference, || {
        cell::replay_cell(trace, taps, &mut probe)
    })?;
    Some((probe.summary(timer_ns), cell))
}

/// The single-layer probes of a replay-fed workload: its generators
/// over the trace's access count, the codec over the trace's records,
/// and the cache hierarchy.
fn replay_probes(
    opts: &Options,
    app: CaptureApp,
    trace: &[u8],
    containers: &[(Pid, ContainerLayout)],
    accesses: u64,
) -> (f64, traced::Codec, f64) {
    let cfg = opts.config();
    let generators = containers
        .iter()
        .enumerate()
        .map(|(i, (_, layout))| cell::generator(app, layout.clone(), &cfg, i))
        .collect();
    let next_op_ns = traced::next_op_ns(generators, accesses);
    let reader = TraceReader::new(trace).expect("captured trace has a valid header");
    let meta = reader.meta().clone();
    let records: Vec<Record> = reader
        .take(opts.probe_ops())
        .map(|r| r.expect("captured trace decodes"))
        .collect();
    let codec = traced::codec(&meta, &records, opts.probe_ops());
    (next_op_ns, codec, hierarchy_ns(opts))
}

fn hierarchy_ns(opts: &Options) -> f64 {
    let cfg = opts.config();
    traced::hierarchy_ns(cfg.cores, cfg.dataset_bytes, cfg.seed, opts.probe_ops())
}

/// `serve-mongodb` and `compute-fio-baseline`.
fn live(opts: &Options, gate: &mut Gate, mode: Mode, app: CaptureApp) -> Option<()> {
    let cfg = opts.config();
    let reference = gate.cell("reference run_timed_window", || {
        Outcome::of_window(&run_timed_window(mode, app, &cfg).0)
    })?;
    // The capture gives the access count every cell feeds; it must
    // reproduce the reference too.
    let (captured, trace) = gate.cell("capture", || cell::capture(mode, app, &cfg))?;
    if captured.doc != reference.doc {
        gate.fail("capture: result differs from the library reference".into());
    }
    let counts = TraceCounts::scan(&trace);

    let (reps, reference_ms) = timed_reps(opts, || {
        let cell = gate.checked("live cell", doc, &reference, || {
            cell::live_cell(mode, app, &cfg)
        })?;
        Some(Rep {
            ns_per_access: per_access(cell.feed_s, counts.accesses),
            cell_s: cell.cell_s,
            setup: cell.setup,
        })
    });
    report_reps(&mut gate.report, opts.sets, &reps, &reference_ms);
    if !opts.sets.per_layer() || reps.is_empty() {
        return Some(());
    }
    report_model(
        &mut gate.report,
        &reference,
        counts.accesses,
        counts.window_accesses,
    );

    // The traced run's baseline is the same stream replayed untraced (it
    // must reproduce the live reference document exactly). Each round
    // runs an armed live cell, an untraced and a traced replay, so host
    // drift reaches the untraced and traced cells alike; the fastest of
    // each counts. The armed cells compare with the fastest timed rep.
    let mut armed_cfg = cfg;
    PROFILED.arm(&mut armed_cfg);
    let timer_ns = traced::calibrate_timer();
    let (mut armed, mut untraced, mut traced) = (None, None, None);
    for _ in 0..opts.tries() {
        let cell = gate.checked("armed live cell", model, &reference, || {
            cell::live_cell(mode, app, &armed_cfg)
        })?;
        armed = faster(armed, cell, |cell| cell.feed_s);
        let cell = gate.checked("untraced replay cell", doc, &reference, || {
            cell::replay_cell(&trace, Taps::default(), &mut Plain)
        })?;
        untraced = faster(untraced, cell, cell_ns);
        let candidate = traced_replay(gate, &trace, Taps::default(), &reference, timer_ns)?;
        traced = faster(traced, candidate, |(_, cell)| cell_ns(cell));
    }
    let ((armed, untraced), (summary, traced)) = armed.zip(untraced).zip(traced)?;
    let (next_op_ns, codec, hierarchy_ns) =
        replay_probes(opts, app, &trace, &traced.containers, counts.accesses);
    report_traced(
        &mut gate.report,
        &Traced {
            summary,
            untraced_ns: cell_ns(&untraced),
            traced_wall_ns: cell_ns(&traced),
            source_ns: codec.decode_ns,
            next_op_ns,
            codec,
            hierarchy_ns,
            armed_overhead: per_access(armed.feed_s, counts.accesses) / fastest_ns(&reps) - 1.0,
        },
    );
    Some(())
}

/// `replay-mongodb-profiled`.
fn replay_profiled(opts: &Options, gate: &mut Gate) -> Option<()> {
    let cfg = opts.config();
    let (mode, app) = (
        Mode::babelfish(),
        CaptureApp::Serving(ServingVariant::MongoDb),
    );
    let (captured, trace) = gate.cell("capture", || cell::capture(mode, app, &cfg))?;
    let reference = gate.cell("reference replay_trace", || {
        let reader = TraceReader::new(&trace[..]).expect("captured trace has a valid header");
        let outcome = replay::replay_trace(reader, PROFILED.replay_options())
            .expect("captured trace replays");
        Outcome::of_window(&outcome.result)
    })?;
    // Replay reproduces what the live run computed; the taps only add
    // the timeline and the profile.
    if captured.model != reference.model {
        gate.fail("reference replay: model differs from the live capture".into());
    }
    let counts = TraceCounts::scan(&trace);

    let (reps, reference_ms) = timed_reps(opts, || {
        let cell = gate.checked("replay cell", doc, &reference, || {
            cell::replay_cell(&trace, PROFILED, &mut Plain)
        })?;
        Some(Rep {
            ns_per_access: per_access(cell.feed_s, cell.accesses),
            cell_s: cell.cell_s,
            setup: cell.setup,
        })
    });
    report_reps(&mut gate.report, opts.sets, &reps, &reference_ms);
    if !opts.sets.per_layer() || reps.is_empty() {
        return Some(());
    }
    report_model(
        &mut gate.report,
        &reference,
        counts.accesses,
        counts.window_accesses,
    );

    // Each round runs an unarmed, an untraced and a traced cell, so host
    // drift reaches all three alike; the fastest of each counts.
    let timer_ns = traced::calibrate_timer();
    let (mut unarmed, mut untraced, mut traced) = (None, None, None);
    for _ in 0..opts.tries() {
        let cell = gate.checked("unarmed replay cell", model, &reference, || {
            cell::replay_cell(&trace, Taps::default(), &mut Plain)
        })?;
        unarmed = faster(unarmed, cell, cell_ns);
        let cell = gate.checked("untraced replay cell", doc, &reference, || {
            cell::replay_cell(&trace, PROFILED, &mut Plain)
        })?;
        untraced = faster(untraced, cell, cell_ns);
        let candidate = traced_replay(gate, &trace, PROFILED, &reference, timer_ns)?;
        traced = faster(traced, candidate, |(_, cell)| cell_ns(cell));
    }
    let ((unarmed, untraced), (summary, traced)) = unarmed.zip(untraced).zip(traced)?;
    let (next_op_ns, codec, hierarchy_ns) =
        replay_probes(opts, app, &trace, &traced.containers, counts.accesses);
    report_traced(
        &mut gate.report,
        &Traced {
            summary,
            untraced_ns: cell_ns(&untraced),
            traced_wall_ns: cell_ns(&traced),
            source_ns: codec.decode_ns,
            next_op_ns,
            codec,
            hierarchy_ns,
            armed_overhead: cell_ns(&untraced) / cell_ns(&unarmed) - 1.0,
        },
    );
    Some(())
}

/// Runs one FaaS rep (`cells` fresh-machine cells, each checked against
/// the reference's `field`) and sums it into per-cell means.
fn faas_rep(
    opts: &Options,
    gate: &mut Gate,
    what: &str,
    reference: &Outcome,
    field: fn(&Outcome) -> &str,
    mut run: impl FnMut() -> Cell,
) -> Option<Rep> {
    let cells = opts.faas_cells();
    let (mut feed_s, mut cell_s, mut accesses) = (0.0, 0.0, 0);
    let mut setup = SetupTimes::default();
    for _ in 0..cells {
        let cell = gate.checked(what, field, reference, &mut run)?;
        feed_s += cell.feed_s;
        cell_s += cell.cell_s;
        accesses += cell.accesses;
        setup.add(&cell.setup);
    }
    let per_cell = 1.0 / cells as f64;
    Some(Rep {
        ns_per_access: per_access(feed_s, accesses),
        cell_s: cell_s * per_cell,
        setup: setup.scaled(per_cell),
    })
}

/// `faas-sparse`.
fn faas(opts: &Options, gate: &mut Gate) -> Option<()> {
    let cfg = opts.config();
    let (mode, density) = (Mode::babelfish(), AccessDensity::Sparse);
    let reference = gate.cell("reference run_functions", || {
        Outcome::of_functions(&run_functions(mode, density, &cfg))
    })?;
    let (reps, reference_ms) = timed_reps(opts, || {
        faas_rep(opts, gate, "faas cell", &reference, doc, || {
            cell::faas_cell(mode, density, &cfg, &mut Plain)
        })
    });
    report_reps(&mut gate.report, opts.sets, &reps, &reference_ms);
    if !opts.sets.per_layer() || reps.is_empty() {
        return Some(());
    }

    // Each round runs an untraced, an armed and a traced rep, so host
    // drift reaches all three alike; the fastest of each counts.
    let mut armed_cfg = cfg;
    PROFILED.arm(&mut armed_cfg);
    let timer_ns = traced::calibrate_timer();
    let mut cell_accesses = 0;
    let mut containers = Vec::new();
    let rep_ns = |rep: &Rep| rep.ns_per_access;
    let (mut untraced, mut armed, mut traced) = (None, None, None);
    for _ in 0..opts.tries() {
        let rep = faas_rep(opts, gate, "untraced faas cell", &reference, doc, || {
            cell::faas_cell(mode, density, &cfg, &mut Plain)
        })?;
        untraced = faster(untraced, rep, rep_ns);
        let rep = faas_rep(opts, gate, "armed faas cell", &reference, model, || {
            cell::faas_cell(mode, density, &armed_cfg, &mut Plain)
        })?;
        armed = faster(armed, rep, rep_ns);
        let mut probe = Probe::new(false);
        let rep = faas_rep(opts, gate, "traced faas cell", &reference, doc, || {
            let cell = cell::faas_cell(mode, density, &cfg, &mut probe);
            cell_accesses = cell.accesses;
            containers.clone_from(&cell.containers);
            cell
        })?;
        traced = faster(traced, (rep, probe), |(rep, _)| rep.ns_per_access);
    }
    let ((untraced, armed), (traced, probe)) = untraced.zip(armed).zip(traced)?;

    // The run's telemetry window is the whole run: bring-up touches and
    // function ops.
    let profile = BringupProfile::default();
    let bringup_accesses: u64 = containers
        .iter()
        .map(|(_, layout)| profile.steps(layout, cfg.seed).len() as u64)
        .sum();
    report_model(
        &mut gate.report,
        &reference,
        cell_accesses,
        cell_accesses + bringup_accesses,
    );

    let functions = |cells: usize| -> Vec<Box<dyn Workload>> {
        (0..cells)
            .flat_map(|_| FunctionKind::ALL.iter().zip(&containers).enumerate())
            .map(|(i, (kind, (_, layout)))| {
                let seed = cfg.seed + i as u64;
                Box::new(FunctionWorkload::new(*kind, density, layout.clone(), seed))
                    as Box<dyn Workload>
            })
            .collect()
    };
    let next_op_ns = traced::next_op_ns(functions(opts.faas_cells()), u64::MAX);
    // One cell's function ops as trace records, for the codec probe.
    let mut records = Vec::new();
    for (mut generator, &(pid, _)) in functions(1).into_iter().zip(&containers) {
        loop {
            match generator.next_op() {
                Op::Access {
                    va,
                    kind,
                    instrs_before,
                } => records.push(Record::Access {
                    core: 0,
                    pid,
                    va,
                    kind,
                    instrs_before,
                }),
                Op::RequestEnd => {}
                Op::Done => break,
            }
        }
    }
    report_traced(
        &mut gate.report,
        &Traced {
            summary: probe.summary(timer_ns),
            untraced_ns: untraced.ns_per_access,
            traced_wall_ns: traced.ns_per_access,
            source_ns: next_op_ns,
            next_op_ns,
            codec: traced::codec(&TraceMeta::new(), &records, opts.probe_ops()),
            hierarchy_ns: hierarchy_ns(opts),
            armed_overhead: armed.ns_per_access / untraced.ns_per_access - 1.0,
        },
    );
    Some(())
}
