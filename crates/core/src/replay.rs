//! Trace capture to files + the deterministic replay driver.
//!
//! Bridges [`bf_capture`]'s format to the experiment layer:
//! [`CaptureFile`] adapts a [`bf_capture::TraceWriter`] into the
//! simulator's [`CaptureSink`], [`capture_to_file`] records a live run,
//! and [`replay_trace`] rebuilds the machine from the trace header via
//! [`experiment::capture_setup`] and feeds the recorded stream through
//! the `Machine::replay_*` entry points — no workload generators
//! involved. Determinism contract: the replayed window's counters,
//! clocks, and timeline match the live run exactly, and re-capturing a
//! replay yields a byte-identical trace.

use crate::experiment::{self, CaptureApp, ExperimentConfig, WindowResult};
use bf_capture::{Record, SalvageReader, SalvageReport, TraceMeta, TraceReader, TraceWriter};
use bf_sim::{CaptureSink, Mode};
use bf_types::{AccessKind, CoreId, Cycles, Pid, VirtAddr};
use std::io::{BufWriter, Read};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// A [`CaptureSink`] streaming into a `.bft` file. Cheaply cloneable —
/// the caller keeps one handle for [`CaptureFile::finish`] while the
/// machine owns a boxed clone. Write errors are latched and surfaced at
/// finish (the sink trait has no error channel).
#[derive(Clone)]
pub struct CaptureFile {
    inner: Arc<Mutex<CaptureFileInner>>,
}

struct CaptureFileInner {
    writer: Option<TraceWriter<BufWriter<std::fs::File>>>,
    error: Option<std::io::Error>,
}

impl CaptureFile {
    /// Creates `path` and writes the trace header for `meta`.
    pub fn create(path: impl AsRef<Path>, meta: &TraceMeta) -> std::io::Result<CaptureFile> {
        let file = std::fs::File::create(path)?;
        let writer = TraceWriter::new(BufWriter::new(file), meta)?;
        Ok(CaptureFile {
            inner: Arc::new(Mutex::new(CaptureFileInner {
                writer: Some(writer),
                error: None,
            })),
        })
    }

    /// A boxed sink handle to hand to [`bf_sim::Machine::attach_capture`].
    pub fn sink(&self) -> Box<dyn CaptureSink> {
        Box::new(self.clone())
    }

    /// Flushes the final block and surfaces any latched write error.
    /// Returns the total records written.
    pub fn finish(self) -> std::io::Result<u64> {
        let mut inner = self.inner.lock().unwrap();
        if let Some(error) = inner.error.take() {
            return Err(error);
        }
        let writer = inner
            .writer
            .take()
            .ok_or_else(|| std::io::Error::other("capture file already finished"))?;
        let records = writer.records();
        writer.finish()?;
        Ok(records)
    }

    /// Chaos knob: deliberately damage the block with this zero-based
    /// index as it is flushed (the `trace-corrupt@block=N` fault spec).
    pub fn corrupt_block(&self, index: u64) {
        if let Some(writer) = self.inner.lock().unwrap().writer.as_mut() {
            writer.corrupt_block(index);
        }
    }

    fn push(&mut self, record: Record) {
        let mut inner = self.inner.lock().unwrap();
        if inner.error.is_some() {
            return;
        }
        if let Some(writer) = inner.writer.as_mut() {
            if let Err(error) = writer.record(&record) {
                inner.error = Some(error);
            }
        }
    }
}

impl CaptureSink for CaptureFile {
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

impl std::fmt::Debug for CaptureFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CaptureFile").finish()
    }
}

/// Builds the trace header for a run of `app` under `mode` with `cfg`:
/// everything [`replay_trace`] needs to rebuild an identical machine.
/// Instrumentation knobs (timelines, profiling) are deliberately
/// *not* recorded — they don't shape the access stream, and replay
/// chooses its own.
pub fn capture_meta(mode: Mode, app: CaptureApp, cfg: &ExperimentConfig) -> TraceMeta {
    let mut meta = TraceMeta::new();
    meta.set("mode", mode.name());
    meta.set("app", app.name());
    meta.set("cores", cfg.cores);
    meta.set("containers_per_core", cfg.containers_per_core);
    meta.set("dataset_bytes", cfg.dataset_bytes);
    meta.set("function_input_bytes", cfg.function_input_bytes);
    meta.set("warmup_instructions", cfg.warmup_instructions);
    meta.set("measure_instructions", cfg.measure_instructions);
    meta.set("seed", cfg.seed);
    meta.set("frames", cfg.frames);
    meta.set("quantum_cycles", cfg.quantum_cycles);
    meta
}

/// Reconstructs `(mode, app, cfg)` from a trace header. The returned
/// configuration has instrumentation off; callers layer their own.
pub fn meta_config(meta: &TraceMeta) -> Result<(Mode, CaptureApp, ExperimentConfig), String> {
    let field = |key: &str| {
        meta.get_u64(key)
            .ok_or_else(|| format!("trace header missing numeric '{key}'"))
    };
    let mode_name = meta.get("mode").ok_or("trace header missing 'mode'")?;
    let mode =
        Mode::from_name(mode_name).ok_or_else(|| format!("unknown trace mode '{mode_name}'"))?;
    let app_name = meta.get("app").ok_or("trace header missing 'app'")?;
    let app =
        CaptureApp::from_name(app_name).ok_or_else(|| format!("unknown trace app '{app_name}'"))?;
    let cfg = ExperimentConfig {
        cores: field("cores")? as usize,
        containers_per_core: field("containers_per_core")? as usize,
        dataset_bytes: field("dataset_bytes")?,
        function_input_bytes: field("function_input_bytes")?,
        warmup_instructions: field("warmup_instructions")?,
        measure_instructions: field("measure_instructions")?,
        seed: field("seed")?,
        frames: field("frames")?,
        quantum_cycles: field("quantum_cycles")?,
        trace_sample_every: 0,
        timeline_every: 0,
        timeline_fail_fast: false,
        profile_top_k: 0,
        faults: None,
        heartbeat_every: 0,
    };
    Ok((mode, app, cfg))
}

/// Records a live run of `app` under `mode` into `path`. Returns the
/// window result (identical to what a replay of the file reproduces).
pub fn capture_to_file(
    mode: Mode,
    app: CaptureApp,
    cfg: &ExperimentConfig,
    path: impl AsRef<Path>,
) -> std::io::Result<WindowResult> {
    let capture = CaptureFile::create(&path, &capture_meta(mode, app, cfg))?;
    if let Some(block) = cfg.faults.and_then(|plan| plan.trace_corrupt) {
        capture.corrupt_block(block);
    }
    let (result, sink) = experiment::run_captured(mode, app, cfg, capture.sink());
    drop(sink); // the clone handle below owns the writer
    capture.finish()?;
    Ok(result)
}

/// Knobs a replay may layer on top of the trace header's configuration.
#[derive(Default)]
pub struct ReplayOptions {
    /// Replay against a different mode than the one captured (the
    /// cross-configuration use case). Counters then legitimately
    /// diverge from the live run.
    pub mode: Option<Mode>,
    /// Seal a timeline epoch every N accesses during replay (0 = off).
    /// Must match the live run's setting for timeline-identical output.
    pub timeline_every: u64,
    /// Panic on the first invariant violation at an epoch boundary.
    pub timeline_fail_fast: bool,
    /// Miss-attribution profiling with this top-K sketch capacity
    /// during replay (0 = off). Profiling a replayed trace attributes
    /// exactly what profiling the live run would have (capture once,
    /// profile anywhere).
    pub profile_top_k: u64,
    /// Tee the replayed stream into this sink (capture→replay→capture).
    pub recapture: Option<Box<dyn CaptureSink>>,
    /// Salvage mode ([`replay_file`] only): read the trace through the
    /// resynchronizing [`SalvageReader`] instead of the strict reader,
    /// so a damaged file replays its recoverable records and the
    /// outcome carries the loss accounting instead of failing on the
    /// first corrupt block.
    pub salvage: bool,
    /// Heartbeat progress-event interval in accesses during replay
    /// (0 = off; only effective while the process heartbeat is armed).
    pub heartbeat_every: u64,
}

/// Outcome of [`replay_trace`].
#[derive(Debug, Clone, serde::Serialize)]
pub struct ReplayOutcome {
    /// The mode the replay actually ran (header or override).
    pub mode: Mode,
    /// The traced application.
    pub app: &'static str,
    /// The experiment configuration reconstructed from the header
    /// (instrumentation fields reflect the replay's own options).
    pub config: ExperimentConfig,
    /// The replayed measurement window.
    pub result: WindowResult,
    /// Records fed into the machine (excludes the reset marker).
    pub records_replayed: u64,
    /// Access records a salvage replay dropped because they no longer
    /// resolved against the machine (addresses mangled by the trace
    /// damage the salvage pass skipped over). Always 0 on strict reads.
    pub records_dropped: u64,
    /// Loss accounting when the trace was read in salvage mode (None
    /// for strict reads).
    pub salvage: Option<SalvageReport>,
}

/// Replays a trace: rebuilds the machine from the header (same deploy,
/// bring-up, and prefault as the live run), then drives
/// `Machine::replay_*` straight from the reader. An optional capture
/// sink provided via `ReplayOptions::recapture` sees the identical
/// stream back.
pub fn replay_trace<R: Read>(
    mut reader: TraceReader<R>,
    options: ReplayOptions,
) -> std::io::Result<ReplayOutcome> {
    let meta = reader.meta().clone();
    replay_records(&meta, &mut reader, options)
}

/// The mode/reader-independent replay loop: rebuilds the machine from
/// `meta` and feeds `records` through it. Both the strict and the
/// salvage read paths funnel here.
fn replay_records(
    meta: &TraceMeta,
    records: &mut dyn Iterator<Item = std::io::Result<Record>>,
    options: ReplayOptions,
) -> std::io::Result<ReplayOutcome> {
    let (header_mode, app, mut cfg) = meta_config(meta).map_err(std::io::Error::other)?;
    let mode = options.mode.unwrap_or(header_mode);
    cfg.timeline_every = options.timeline_every;
    cfg.timeline_fail_fast = options.timeline_fail_fast;
    cfg.profile_top_k = options.profile_top_k;
    cfg.heartbeat_every = options.heartbeat_every;

    let (mut machine, deployed) = experiment::capture_setup(mode, app, &cfg);
    drop(deployed); // replay needs no workloads attached
    if let Some(sink) = options.recapture {
        machine.attach_capture(sink);
    }

    let mut clock_start: Option<Vec<Cycles>> = None;
    let mut records_replayed = 0u64;
    let mut records_dropped = 0u64;
    for record in records {
        match record? {
            Record::Access {
                core,
                pid,
                va,
                kind,
                instrs_before,
            } => {
                // A salvage read can decode accesses whose addresses
                // were mangled by the skipped damage (the codec's delta
                // baselines were lost with the block). Dropping them is
                // graceful; feeding them to the machine is a panic.
                if options.salvage && !machine.replayable(core, pid, va) {
                    records_dropped += 1;
                    continue;
                }
                machine.replay_access(core, pid, va, kind, instrs_before);
            }
            Record::Switch { core, cost } => machine.replay_switch(core, cost),
            Record::RequestEnd { cycles } => machine.replay_request_end(cycles),
            Record::Reset => {
                machine.reset_measurement();
                clock_start = Some(
                    (0..cfg.cores)
                        .map(|c| machine.core_clock(CoreId::new(c)))
                        .collect(),
                );
                continue;
            }
        }
        records_replayed += 1;
    }
    machine.take_capture();

    let exec_cycles = match clock_start {
        Some(start) => experiment::mean_clock_delta(&machine, &start),
        None => 0,
    };
    let telemetry = machine.telemetry_snapshot();
    let timeline = machine.take_timeline();
    let profile = machine.take_profile();
    bf_telemetry::heartbeat::cell_report(&telemetry, timeline.as_ref());
    Ok(ReplayOutcome {
        mode,
        app: app.name(),
        config: cfg,
        result: WindowResult {
            exec_cycles,
            stats: machine.stats(),
            telemetry,
            timeline,
            profile,
        },
        records_replayed,
        records_dropped,
        salvage: None,
    })
}

/// Convenience: [`replay_trace`] over a file path. With
/// [`ReplayOptions::salvage`] set, the trace is read through the
/// resynchronizing salvage reader and the outcome carries its
/// [`SalvageReport`].
pub fn replay_file(
    path: impl AsRef<Path>,
    options: ReplayOptions,
) -> std::io::Result<ReplayOutcome> {
    if options.salvage {
        let mut reader = SalvageReader::open(path)?;
        let meta = reader.meta().clone();
        let mut outcome = replay_records(&meta, &mut reader.by_ref().map(Ok), options)?;
        outcome.salvage = Some(reader.report());
        return Ok(outcome);
    }
    replay_trace(TraceReader::open(path)?, options)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::smoke_test();
        cfg.warmup_instructions = 8_000;
        cfg.measure_instructions = 30_000;
        cfg.dataset_bytes = 4 << 20;
        cfg
    }

    /// A scratch trace under the system temp dir, named per process and
    /// removed on drop, so a test that panics leaves nothing behind.
    struct TempTrace(std::path::PathBuf);

    impl TempTrace {
        fn new(name: &str) -> Self {
            let file = format!("bf-capture-test-{}-{name}.bft", std::process::id());
            TempTrace(std::env::temp_dir().join(file))
        }
    }

    impl AsRef<Path> for TempTrace {
        fn as_ref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempTrace {
        fn drop(&mut self) {
            std::fs::remove_file(&self.0).ok();
        }
    }

    #[test]
    fn meta_roundtrips_config() {
        let cfg = tiny();
        let app = CaptureApp::Serving(bf_workloads::ServingVariant::MongoDb);
        let meta = capture_meta(Mode::babelfish(), app, &cfg);
        let (mode, app2, cfg2) = meta_config(&meta).unwrap();
        assert_eq!(mode, Mode::babelfish());
        assert_eq!(app2, app);
        assert_eq!(cfg2.cores, cfg.cores);
        assert_eq!(cfg2.seed, cfg.seed);
        assert_eq!(cfg2.quantum_cycles, cfg.quantum_cycles);
        assert_eq!(cfg2.timeline_every, 0, "instrumentation not recorded");
    }

    #[test]
    fn capture_then_replay_matches_live_exactly() {
        let cfg = tiny();
        let app = CaptureApp::Serving(bf_workloads::ServingVariant::MongoDb);
        let path = TempTrace::new("replay");

        let live = capture_to_file(Mode::babelfish(), app, &cfg, &path).unwrap();
        let replayed = replay_file(&path, ReplayOptions::default()).unwrap();

        assert_eq!(replayed.mode, Mode::babelfish());
        assert_eq!(replayed.app, "mongodb");
        assert!(replayed.records_replayed > 0);
        assert_eq!(live.exec_cycles, replayed.result.exec_cycles);
        assert_eq!(
            format!("{:?}", live.stats),
            format!("{:?}", replayed.result.stats)
        );
        assert_eq!(live.telemetry, replayed.result.telemetry);
    }

    #[test]
    fn corrupt_capture_fails_strict_and_salvages_with_exact_loss() {
        let mut cfg = tiny();
        cfg.faults = Some(bf_sim::FaultPlan::parse("trace-corrupt@block=1").unwrap());
        let app = CaptureApp::Serving(bf_workloads::ServingVariant::MongoDb);
        let path = TempTrace::new("salvage");

        capture_to_file(Mode::babelfish(), app, &cfg, &path).unwrap();

        // Strict replay refuses the damaged file, naming the block.
        let err = replay_file(&path, ReplayOptions::default()).unwrap_err();
        assert!(err.to_string().contains("corrupt block 1"), "{err}");

        // Salvage replay completes and accounts the loss exactly.
        let outcome = replay_file(
            &path,
            ReplayOptions {
                salvage: true,
                ..Default::default()
            },
        )
        .unwrap();
        let report = outcome.salvage.expect("salvage report present");
        assert_eq!(report.blocks_skipped, 1);
        assert!(report.exact, "a bad-CRC block has an exact loss count");
        assert!(report.records_lost > 0);
        assert!(outcome.records_replayed > 0);
    }

    #[test]
    fn clean_salvage_replay_matches_strict_replay_exactly() {
        let cfg = tiny();
        let app = CaptureApp::Compute(crate::experiment::ComputeKind::Fio);
        let path = TempTrace::new("salvage-clean");

        capture_to_file(Mode::babelfish(), app, &cfg, &path).unwrap();
        let strict = replay_file(&path, ReplayOptions::default()).unwrap();
        let salvaged = replay_file(
            &path,
            ReplayOptions {
                salvage: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(strict.result.exec_cycles, salvaged.result.exec_cycles);
        assert_eq!(strict.result.telemetry, salvaged.result.telemetry);
        assert_eq!(strict.records_replayed, salvaged.records_replayed);
        let report = salvaged.salvage.unwrap();
        assert_eq!(report.records_lost, 0);
        assert_eq!(report.blocks_skipped, 0);
        assert!(report.exact);
    }

    #[test]
    fn replay_against_other_mode_runs() {
        let cfg = tiny();
        let app = CaptureApp::Compute(crate::experiment::ComputeKind::Fio);
        let path = TempTrace::new("xmode");

        capture_to_file(Mode::babelfish(), app, &cfg, &path).unwrap();
        let outcome = replay_file(
            &path,
            ReplayOptions {
                mode: Some(Mode::Baseline),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(outcome.mode, Mode::Baseline);
        assert_eq!(
            outcome.result.stats.tlb.l2.data_shared_hits, 0,
            "baseline replay of the same stream shares nothing"
        );
    }
}
