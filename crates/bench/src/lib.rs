//! Shared plumbing for the benchmark binaries that regenerate the
//! paper's tables and figures.
//!
//! Each binary in `src/bin/` reproduces one table or figure of the
//! evaluation (Section VII); see `DESIGN.md` for the per-experiment
//! index and `EXPERIMENTS.md` for recorded paper-vs-measured results.
//! Binaries accept an optional `--quick` flag to run the smoke-test
//! configuration instead of the full scaled one.

use babelfish::experiment::ExperimentConfig;
use bf_telemetry::{ProfileSnapshot, TimelineSnapshot};
use serde::{Serialize, Value};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

pub mod capture;
pub mod grid;
pub mod report;

/// Percentage reduction of `new` relative to `base` (positive = better).
///
/// # Examples
///
/// ```
/// assert_eq!(bf_bench::reduction_pct(200.0, 150.0), 25.0);
/// ```
pub fn reduction_pct(base: f64, new: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        (1.0 - new / base) * 100.0
    }
}

/// Default epoch interval (accesses) for a bare `--timeline` flag.
pub const DEFAULT_TIMELINE_EPOCH: u64 = 4096;

/// Default hot-region sketch capacity for a bare `--profile` flag.
pub const DEFAULT_PROFILE_K: u64 = 64;

/// Default heartbeat file for a bare `--heartbeat` flag.
pub const DEFAULT_HEARTBEAT_FILE: &str = "results/heartbeat.ndjson";

/// Default in-cell progress interval (accesses) between heartbeat
/// `progress` events (`BF_HEARTBEAT_EVERY` overrides).
pub const DEFAULT_HEARTBEAT_EVERY: u64 = 32768;

/// Everything the figure binaries take from the command line, parsed
/// once by [`parse_args`].
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Experiment size + instrumentation taps (`--quick`,
    /// `--timeline[=N]`, `--invariants[=MODE]`, `--profile[=K]`,
    /// `--faults=SPEC`).
    pub cfg: ExperimentConfig,
    /// Worker threads for the cell sweep (`--threads N`, `BF_THREADS`,
    /// or the host's available parallelism).
    pub threads: usize,
    /// Suppress per-cell progress lines (`--quiet`).
    pub quiet: bool,
    /// Record the canonical capture cell to this `.bft` trace and exit
    /// instead of running the figure sweep (`--capture=FILE`).
    pub capture: Option<String>,
    /// Graceful sweep degradation (`--keep-going`): a panicking sweep
    /// cell becomes a structured failure slot instead of aborting the
    /// whole run; the process still exits non-zero.
    pub keep_going: bool,
    /// Heartbeat NDJSON sink resolved from `--heartbeat[=FILE]` or
    /// `BF_HEARTBEAT` (`None` = live observability off).
    pub heartbeat: Option<String>,
    /// Raw `--faults`/`BF_FAULTS` spec string as the user wrote it
    /// (the parsed plan lives in `cfg.faults`); stamped into run
    /// manifests, the only record of the spec in a results document.
    pub faults_spec: Option<String>,
    /// Emits the heartbeat `run_end` event when the last clone drops
    /// (end of `main`) — no per-binary epilogue needed.
    pub heartbeat_guard: HeartbeatGuard,
}

/// Drop guard carried by [`BenchArgs`]: fires the heartbeat `run_end`
/// event when the last clone goes out of scope. `finish` is idempotent
/// and a no-op while the heartbeat is unarmed, so the guard is safe to
/// create (and drop) in tests and help paths.
#[derive(Debug, Clone, Default)]
pub struct HeartbeatGuard {
    _finish: Arc<FinishOnDrop>,
}

#[derive(Debug, Default)]
struct FinishOnDrop;

impl Drop for FinishOnDrop {
    fn drop(&mut self) {
        bf_telemetry::heartbeat::finish();
    }
}

const USAGE: &str = "options:
  --quick             smoke-test configuration instead of the full paper-scaled one
  --timeline[=N]      seal a telemetry epoch every N accesses and write
                      results/<figure>-timeline-latest.json (default N=4096;
                      BF_TIMELINE=N also works)
  --invariants[=MODE] cross-counter invariant checking at epoch boundaries:
                      'fail' panics on the first violation, 'record' (the
                      default when --timeline is on) stores violations in the
                      timeline export; implies --timeline
  --profile[=K]       miss-attribution profiling with top-K hot-region sketches
                      (hot pages, TLB set conflicts, walk paths, per-container
                      blame) and write results/<figure>-profile-latest.json
                      (default K=64; BF_PROFILE=K also works; render with
                      bf_report profile)
  --threads N         worker threads for the experiment sweep (BF_THREADS also
                      works; defaults to the host's available parallelism)
  --capture=FILE      record the canonical capture cell (mongodb x babelfish, or
                      BF_CAPTURE_APP/BF_CAPTURE_MODE) under this binary's
                      configuration into FILE as a .bft trace, write the
                      capture-<app>-<mode> results document, and exit
  --faults=SPEC       arm the deterministic fault-injection plan: ';'-separated
                      clauses like tlb-bitflip@p=1e-5, walk-stall@p=1e-4,cycles=2000,
                      alloc-fail@p=1e-6, trace-corrupt@block=3, cell-panic@idx=2,
                      seed=N (BF_FAULTS=SPEC also works); injection is
                      byte-reproducible at any --threads, and unarmed
                      runs are byte-identical to builds without the subsystem
  --keep-going        don't abort the sweep when a cell panics: the failed cell
                      becomes a structured {cell, error} slot in the results
                      document, every other cell completes normally, and the
                      process exits non-zero with a failure summary
  --heartbeat[=FILE]  append a live NDJSON heartbeat event stream to FILE while
                      the run executes: run_start with the full run manifest,
                      per-cell start/finish with counter deltas and l2_mpki,
                      periodic in-cell progress snapshots with ETA, fault and
                      invariant-violation events, and run_end (default
                      FILE=results/heartbeat.ndjson; BF_HEARTBEAT=FILE also
                      works; progress interval via BF_HEARTBEAT_EVERY, default
                      32768 accesses; watch live with bf_top, or validate in CI
                      with bf_top --once)
  --quiet             suppress per-cell progress lines on stderr
  -h, --help          this message";

/// Parses the benchmark command line (everything after argv[0]).
///
/// Unlike the old per-flag scanners this walks the arguments exactly
/// once and rejects anything it does not understand, so a typo like
/// `--quik` fails loudly instead of silently running the full
/// paper-scaled configuration.
fn parse(args: impl Iterator<Item = String>) -> Result<BenchArgs, String> {
    let mut quick = false;
    let mut quiet = false;
    let mut timeline: Option<u64> = None;
    let mut profile: Option<u64> = None;
    let mut fail_fast: Option<bool> = None;
    let mut threads: Option<usize> = None;
    let mut capture: Option<String> = None;
    let mut faults: Option<babelfish::FaultPlan> = None;
    let mut faults_spec: Option<String> = None;
    let mut heartbeat: Option<String> = None;
    let mut keep_going = false;
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--quiet" => quiet = true,
            "--keep-going" => keep_going = true,
            "--heartbeat" => heartbeat = Some(DEFAULT_HEARTBEAT_FILE.to_owned()),
            "--timeline" => timeline = Some(DEFAULT_TIMELINE_EPOCH),
            "--profile" => profile = Some(DEFAULT_PROFILE_K),
            "--invariants" => fail_fast = Some(true),
            "--threads" => {
                let value = args
                    .next()
                    .ok_or_else(|| "--threads requires a value".to_owned())?;
                threads = Some(
                    value
                        .parse()
                        .map_err(|_| format!("invalid --threads value: {value}"))?,
                );
            }
            "-h" | "--help" => return Err(String::new()),
            _ => {
                if let Some(n) = arg.strip_prefix("--timeline=") {
                    timeline = Some(
                        n.parse()
                            .map_err(|_| format!("invalid --timeline value: {n}"))?,
                    );
                } else if let Some(k) = arg.strip_prefix("--profile=") {
                    let k: u64 = k
                        .parse()
                        .map_err(|_| format!("invalid --profile value: {k}"))?;
                    if k == 0 {
                        return Err("--profile needs a positive K".to_owned());
                    }
                    profile = Some(k);
                } else if let Some(mode) = arg.strip_prefix("--invariants=") {
                    fail_fast = Some(match mode {
                        "fail" => true,
                        "record" => false,
                        _ => return Err(format!("invalid --invariants mode: {mode}")),
                    });
                } else if let Some(n) = arg.strip_prefix("--threads=") {
                    threads = Some(
                        n.parse()
                            .map_err(|_| format!("invalid --threads value: {n}"))?,
                    );
                } else if let Some(path) = arg.strip_prefix("--capture=") {
                    capture = Some(path.to_owned());
                } else if let Some(spec) = arg.strip_prefix("--faults=") {
                    faults = Some(babelfish::FaultPlan::parse(spec)?);
                    faults_spec = Some(spec.to_owned());
                } else if let Some(path) = arg.strip_prefix("--heartbeat=") {
                    if path.is_empty() {
                        return Err("--heartbeat= needs a file after '='".to_owned());
                    }
                    heartbeat = Some(path.to_owned());
                } else if arg == "--capture" {
                    return Err("--capture requires a file: --capture=FILE".to_owned());
                } else if arg == "--faults" {
                    return Err("--faults requires a spec: --faults=SPEC".to_owned());
                } else {
                    return Err(format!("unknown argument: {arg}"));
                }
            }
        }
    }
    let mut cfg = if quick {
        ExperimentConfig::smoke_test()
    } else {
        ExperimentConfig::paper_scaled()
    };
    let env_u64 = |name: &str| std::env::var(name).ok().and_then(|v| v.parse().ok());
    cfg.timeline_every = timeline.unwrap_or_else(|| {
        // --invariants alone turns the timeline on (invariants only run
        // at epoch boundaries).
        let implied = if fail_fast.is_some() {
            DEFAULT_TIMELINE_EPOCH
        } else {
            0
        };
        env_u64("BF_TIMELINE").unwrap_or(implied)
    });
    cfg.timeline_fail_fast = fail_fast.unwrap_or(false);
    cfg.profile_top_k = profile.unwrap_or_else(|| env_u64("BF_PROFILE").unwrap_or(0));
    cfg.faults = match faults {
        Some(plan) => Some(plan),
        None => {
            let plan = babelfish::FaultPlan::from_env()?;
            if plan.is_some() {
                faults_spec = std::env::var("BF_FAULTS").ok();
            }
            plan
        }
    };
    let heartbeat =
        heartbeat.or_else(|| std::env::var("BF_HEARTBEAT").ok().filter(|p| !p.is_empty()));
    cfg.heartbeat_every = if heartbeat.is_some() {
        env_u64("BF_HEARTBEAT_EVERY").unwrap_or(DEFAULT_HEARTBEAT_EVERY)
    } else {
        0
    };
    cfg.validate().map_err(|err| err.to_string())?;
    Ok(BenchArgs {
        cfg,
        threads: babelfish::exec::thread_count(threads),
        quiet,
        capture,
        keep_going,
        heartbeat,
        faults_spec,
        heartbeat_guard: HeartbeatGuard::default(),
    })
}

/// Parses the process arguments into a [`BenchArgs`], printing the
/// usage message and exiting non-zero on anything unrecognised.
pub fn parse_args() -> BenchArgs {
    match parse(std::env::args().skip(1)) {
        Ok(args) => {
            set_run_context(RunContext {
                faults_spec: args.faults_spec.clone(),
                threads: args.threads,
                heartbeat: args.heartbeat.clone().map(PathBuf::from),
                heartbeat_every: args.cfg.heartbeat_every,
                config: Some(args.cfg.to_value()),
            });
            args
        }
        Err(message) => {
            let program = std::env::args().next().unwrap_or_else(|| "bench".into());
            if message.is_empty() {
                // -h / --help: usage to stdout, success.
                println!("usage: {program} [options]\n{USAGE}");
                std::process::exit(0);
            }
            eprintln!("error: {message}\nusage: {program} [options]\n{USAGE}");
            std::process::exit(2);
        }
    }
}

/// Process-wide run identity recorded once at argument-parse time and
/// consumed by [`stamp_manifest`] and the heartbeat `run_start` event.
/// Binaries with their own parsers (`bf_replay`) call
/// [`set_run_context`] themselves; a process that never sets one (unit
/// tests, library use) stamps the defaults: no faults, zero
/// threads, heartbeat off.
#[derive(Debug, Default)]
pub struct RunContext {
    /// Raw fault spec string (`--faults`/`BF_FAULTS`) or `None`.
    pub faults_spec: Option<String>,
    /// Resolved sweep worker count (heartbeat manifest only — affects
    /// only wall clock).
    pub threads: usize,
    /// Heartbeat NDJSON sink, when live observability is on.
    pub heartbeat: Option<PathBuf>,
    /// In-cell progress interval in accesses (0 = no progress events).
    pub heartbeat_every: u64,
    /// The run's serialized [`ExperimentConfig`], for the run-start
    /// manifest (docs hash their own embedded `config` instead).
    pub config: Option<Value>,
}

static RUN_CONTEXT: OnceLock<RunContext> = OnceLock::new();

fn run_context() -> &'static RunContext {
    RUN_CONTEXT.get_or_init(RunContext::default)
}

/// Records the process-wide [`RunContext`] (first call wins) and, when
/// it names a heartbeat sink, arms the [`bf_telemetry::heartbeat`]
/// stream with a `run_start` manifest. [`parse_args`] calls this for
/// every figure binary; `bf_replay` calls it from its own parser.
pub fn set_run_context(ctx: RunContext) {
    if let Some(path) = &ctx.heartbeat {
        let mut manifest = stable_manifest(ctx.config.as_ref(), ctx.faults_spec.as_deref());
        if let Value::Object(map) = &mut manifest {
            map.insert("volatile".to_owned(), volatile_manifest(ctx.threads));
        }
        if let Err(e) = bf_telemetry::heartbeat::arm(path, manifest, ctx.heartbeat_every) {
            eprintln!("error: opening heartbeat file {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    let _ = RUN_CONTEXT.set(ctx);
}

/// The stable half of a run manifest — every field is a pure function
/// of the run's configuration and the build, so committed baseline
/// documents stay byte-identical run to run:
/// `config_hash` (FNV-1a over the compact serialized config), `seed`,
/// `faults` (raw spec string or null), and `crate_version`.
fn stable_manifest(config: Option<&Value>, faults_spec: Option<&str>) -> Value {
    let config_hash = match config.map(serde_json::to_string) {
        Some(Ok(json)) => Value::String(format!("{:016x}", fnv1a(json.as_bytes()))),
        _ => Value::Null,
    };
    let seed = config
        .and_then(|c| c.get("seed"))
        .cloned()
        .unwrap_or(Value::Null);
    json_object([
        ("config_hash", config_hash),
        ("seed", seed),
        (
            "faults",
            faults_spec
                .map(|s| Value::String(s.to_owned()))
                .unwrap_or(Value::Null),
        ),
        (
            "crate_version",
            Value::String(env!("CARGO_PKG_VERSION").to_owned()),
        ),
    ])
}

/// The wall-clock half of a run manifest. Attached only to the
/// heartbeat `run_start` event, under the single `volatile` key that
/// `strip_volatile_line` removes — results documents never contain
/// host-dependent bytes, armed or not.
fn volatile_manifest(threads: usize) -> Value {
    let started_unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| Value::U64(d.as_secs()))
        .unwrap_or(Value::Null);
    json_object([
        ("hostname", hostname()),
        ("git_rev", git_rev()),
        ("started_unix", started_unix),
        ("threads", Value::U64(threads as u64)),
    ])
}

/// 64-bit FNV-1a — tiny, dependency-free, and stable across platforms,
/// which is all the manifest's config fingerprint needs.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn hostname() -> Value {
    std::env::var("HOSTNAME")
        .ok()
        .or_else(|| {
            std::fs::read_to_string("/proc/sys/kernel/hostname")
                .ok()
                .map(|s| s.trim().to_owned())
        })
        .filter(|s| !s.is_empty())
        .map(Value::String)
        .unwrap_or(Value::Null)
}

fn git_rev() -> Value {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| Value::String(s.trim().to_owned()))
        .filter(|s| !matches!(s, Value::String(s) if s.is_empty()))
        .unwrap_or(Value::Null)
}

/// Returns `doc` with the run manifest stamped under its `manifest`
/// key. Every field derives from the document's own embedded `config`
/// and the fault spec, so the document is byte-identical whether or
/// not the heartbeat is armed, and a replayed trace stamps the same
/// identity as the capture run regardless of which binary wrote it.
pub fn stamp_manifest(doc: &Value) -> Value {
    let manifest = stable_manifest(doc.get("config"), run_context().faults_spec.as_deref());
    let mut doc = doc.clone();
    if let Value::Object(map) = &mut doc {
        map.insert("manifest".to_owned(), manifest);
    }
    doc
}

/// [`emit_results`] without the stdout line, shared with its timeline
/// and profile twins.
fn write_latest(stem: &str, doc: &Value) -> PathBuf {
    let doc = stamp_manifest(doc);
    let path = Path::new("results").join(format!("{stem}-latest.json"));
    if let Err(e) = bf_telemetry::write_json(&path, &doc) {
        exit_write_error(named_io_error(&path, e));
    }
    bf_telemetry::heartbeat::results_written(&path, doc.get("figure").and_then(Value::as_str));
    path
}

/// Wraps a write failure with the offending path, so the bench binaries
/// can report `writing results/x.json: No space left on device` instead
/// of panicking.
fn named_io_error(path: &Path, err: std::io::Error) -> std::io::Error {
    std::io::Error::other(format!("writing {}: {err}", path.display()))
}

/// Error epilogue for the emit helpers: report and exit 1, no panic.
fn exit_write_error(err: std::io::Error) -> ! {
    eprintln!("error: {err}");
    std::process::exit(1);
}

/// The standard results epilogue of every figure binary: stamps the
/// run manifest into `doc` (see [`stamp_manifest`]), writes it to
/// `results/<stem>-latest.json` — overwritten on every run, the file
/// CI's byte-exact baseline comparisons point at — reports the write
/// on the heartbeat stream and prints a `wrote <path>` line. Returns
/// the path. A write failure is reported (naming the path) and exits 1
/// instead of panicking.
pub fn emit_results(stem: &str, doc: &Value) -> PathBuf {
    let path = write_latest(stem, doc);
    println!("\nwrote {}", path.display());
    path
}

/// The timeline twin of [`emit_results`]: writes the [`timeline_doc`]
/// to `results/<stem>-timeline-latest.json` and prints its pointer
/// line. Quietly does nothing when timelines were off for the run
/// (`cfg.timeline_every == 0`).
pub fn emit_timeline_results(
    stem: &str,
    cfg: &ExperimentConfig,
    cells: &[(String, Option<TimelineSnapshot>)],
) {
    if cfg.timeline_every == 0 {
        return;
    }
    let path = write_latest(&format!("{stem}-timeline"), &timeline_doc(stem, cfg, cells));
    println!("wrote {} (render with bf_report timeline)", path.display());
}

/// The profile twin of [`emit_results`]: writes the [`profile_doc`] to
/// `results/<stem>-profile-latest.json` and prints its pointer line.
/// Quietly does nothing when profiling was off for the run
/// (`cfg.profile_top_k == 0`).
pub fn emit_profile_results(
    stem: &str,
    cfg: &ExperimentConfig,
    cells: &[(String, Option<ProfileSnapshot>)],
) {
    if cfg.profile_top_k == 0 {
        return;
    }
    let path = write_latest(&format!("{stem}-profile"), &profile_doc(stem, cfg, cells));
    println!("wrote {} (render with bf_report profile)", path.display());
}

/// Prints a per-cell progress line to stderr unless `--quiet` was given.
/// Progress goes to stderr so the figure tables and JSON paths on stdout
/// stay machine-consumable.
pub fn progress(quiet: bool, message: &str) {
    if !quiet {
        eprintln!("  [{message}]");
    }
}

/// Builds the `<stem>-timeline` results document: one entry per sweep
/// cell, in submission order, each carrying the cell's
/// [`TimelineSnapshot`] (or `null` for cells that ran without one).
/// Each phase additionally gets a derived `l2_mpki` (L2 TLB misses per
/// kilo-instruction over that phase), which `bf_report timeline` prints
/// in its phase table.
pub fn timeline_doc(
    stem: &str,
    cfg: &ExperimentConfig,
    cells: &[(String, Option<TimelineSnapshot>)],
) -> Value {
    let rows = cells
        .iter()
        .map(|(name, timeline)| {
            let mut value = json_object([
                ("name", Value::String(name.clone())),
                ("timeline", timeline.to_value()),
            ]);
            annotate_phase_mpki(&mut value);
            value
        })
        .collect();
    json_object([
        ("figure", Value::String(format!("{stem}-timeline"))),
        ("config", cfg.to_value()),
        ("cells", Value::Array(rows)),
    ])
}

/// Inserts `l2_mpki` into every phase summary of one cell value:
/// `1000 * tlb.l2.misses / sim.instructions` over the phase delta.
/// Phases that retired no instructions (e.g. an empty `first` third)
/// get no entry rather than a division by zero.
fn annotate_phase_mpki(cell: &mut Value) {
    let phases = cell
        .get_mut("timeline")
        .and_then(|t| t.get_mut("phases"))
        .and_then(|p| match p {
            Value::Object(map) => Some(map),
            _ => None,
        });
    let Some(phases) = phases else { return };
    for phase in phases.values_mut() {
        let Some(delta) = phase.get("delta") else {
            continue;
        };
        let counter = |name: &str| {
            delta
                .get("counters")
                .and_then(|c| c.get(name))
                .and_then(Value::as_u64)
                .unwrap_or(0)
        };
        let instructions = counter("sim.instructions");
        if instructions == 0 {
            continue;
        }
        let mpki = 1000.0 * counter("tlb.l2.misses") as f64 / instructions as f64;
        if let Value::Object(map) = phase {
            map.insert("l2_mpki".to_owned(), Value::F64(mpki));
        }
    }
}

/// Builds the `<stem>-profile` results document: one entry per sweep
/// cell, in submission order, each carrying the cell's
/// [`ProfileSnapshot`] (or `null` for cells that ran without one). The
/// snapshot serialization includes derived scalars (`miss_top_share`,
/// `sets.skew`, `sets.top_decile_share`) that `bf_report profile`
/// prints.
pub fn profile_doc(
    stem: &str,
    cfg: &ExperimentConfig,
    cells: &[(String, Option<ProfileSnapshot>)],
) -> Value {
    let rows = cells
        .iter()
        .map(|(name, profile)| {
            json_object([
                ("name", Value::String(name.clone())),
                ("profile", profile.to_value()),
            ])
        })
        .collect();
    json_object([
        ("figure", Value::String(format!("{stem}-profile"))),
        ("config", cfg.to_value()),
        ("cells", Value::Array(rows)),
    ])
}

/// Shared argument contract for binaries that take no options: `-h` /
/// `--help` prints `usage` and exits 0; anything else is rejected with
/// exit 2. Keeps the zero-option bins on the same help/unknown-flag
/// contract the `parse_args` bins follow.
pub fn reject_args(program: &str, usage: &str) {
    let Some(arg) = std::env::args().nth(1) else {
        return;
    };
    match arg.as_str() {
        "-h" | "--help" => {
            println!("usage: {program}\n{usage}");
            std::process::exit(0);
        }
        other => {
            eprintln!("error: unknown argument: {other}\nusage: {program}\n{usage}");
            std::process::exit(2);
        }
    }
}

/// Prints a rule-of-dashes header.
pub fn header(title: &str) {
    println!("\n{title}");
    println!("{}", "-".repeat(title.len().max(8)));
}

/// Formats a `(measured, paper)` pair for a table cell.
pub fn versus(measured: f64, paper: f64, unit: &str) -> String {
    format!("{measured:>7.1}{unit} (paper: {paper:>5.1}{unit})")
}

/// Builds a JSON object from `(key, value)` pairs — sugar for the
/// results documents the figure binaries write under `results/`.
///
/// # Examples
///
/// ```
/// use serde::Value;
/// let doc = bf_bench::json_object([("answer", Value::U64(42))]);
/// assert_eq!(doc.get("answer").and_then(Value::as_u64), Some(42));
/// ```
pub fn json_object<const N: usize>(entries: [(&str, Value); N]) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_math() {
        assert!((reduction_pct(100.0, 89.0) - 11.0).abs() < 1e-9);
        assert_eq!(reduction_pct(0.0, 5.0), 0.0);
        assert!(
            reduction_pct(100.0, 120.0) < 0.0,
            "regressions are negative"
        );
    }

    fn parse_ok(args: &[&str]) -> BenchArgs {
        parse(args.iter().map(|s| s.to_string())).expect("args should parse")
    }

    #[test]
    fn quick_trace_and_threads_parse_in_one_pass() {
        let args = parse_ok(&["--quick", "--threads", "4"]);
        assert_eq!(
            args.cfg.measure_instructions,
            babelfish::experiment::ExperimentConfig::smoke_test().measure_instructions
        );
        assert_eq!(args.threads, 4);
        let args = parse_ok(&["--threads=2"]);
        assert_eq!(args.threads, 2);
    }

    #[test]
    fn unknown_flags_are_rejected() {
        assert!(parse(["--quik".to_string()].into_iter()).is_err());
        assert!(parse(["extra".to_string()].into_iter()).is_err());
        assert!(parse(["--threads".to_string()].into_iter()).is_err());
        assert!(parse(["--threads".to_string(), "x".to_string()].into_iter()).is_err());
        assert!(parse(["--trace".to_string()].into_iter()).is_err());
        assert!(parse(["--timeline=abc".to_string()].into_iter()).is_err());
        assert!(parse(["--invariants=explode".to_string()].into_iter()).is_err());
        assert!(parse(["--quiet=1".to_string()].into_iter()).is_err());
        assert!(
            parse(["--capture".to_string()].into_iter()).is_err(),
            "--capture needs =FILE"
        );
        assert!(parse(["--replay".to_string()].into_iter()).is_err());
    }

    #[test]
    fn capture_and_replay_flags_parse_but_exclude_each_other() {
        let args = parse_ok(&["--quick", "--capture=t.bft"]);
        assert_eq!(args.capture.as_deref(), Some("t.bft"));
        assert_eq!(parse_ok(&["--quick"]).capture, None);

        // Replay belongs to bf_replay alone: the figure binaries reject
        // the flag, with or without --capture beside it.
        assert!(
            parse(["--capture=a.bft".to_string(), "--replay".to_string()].into_iter()).is_err()
        );
    }

    #[test]
    fn timeline_invariants_and_quiet_parse() {
        let args = parse_ok(&["--quick", "--timeline=128", "--quiet"]);
        assert_eq!(args.cfg.timeline_every, 128);
        assert!(!args.cfg.timeline_fail_fast, "record is the default mode");
        assert!(args.quiet);

        let args = parse_ok(&["--timeline"]);
        assert_eq!(args.cfg.timeline_every, DEFAULT_TIMELINE_EPOCH);
        assert!(!args.quiet);

        let args = parse_ok(&["--timeline=64", "--invariants=fail"]);
        assert_eq!(args.cfg.timeline_every, 64);
        assert!(args.cfg.timeline_fail_fast);

        let args = parse_ok(&["--timeline=64", "--invariants=record"]);
        assert!(!args.cfg.timeline_fail_fast);

        // --invariants alone implies the timeline (invariants only run
        // at epoch boundaries).
        let args = parse_ok(&["--invariants"]);
        assert_eq!(args.cfg.timeline_every, DEFAULT_TIMELINE_EPOCH);
        assert!(args.cfg.timeline_fail_fast);

        let args = parse_ok(&["--quick"]);
        assert_eq!(args.cfg.timeline_every, 0, "timelines default to off");
    }

    #[test]
    fn profile_flag_parses() {
        let args = parse_ok(&["--quick", "--profile"]);
        assert_eq!(args.cfg.profile_top_k, DEFAULT_PROFILE_K);

        let args = parse_ok(&["--profile=128", "--quick"]);
        assert_eq!(args.cfg.profile_top_k, 128);

        let args = parse_ok(&["--quick"]);
        assert_eq!(args.cfg.profile_top_k, 0, "profiling defaults to off");

        assert!(parse(["--profile=abc".to_string()].into_iter()).is_err());
        assert!(
            parse(["--profile=0".to_string()].into_iter()).is_err(),
            "a zero-capacity sketch is rejected, not silently off"
        );
    }

    #[test]
    fn fault_and_keep_going_flags_parse() {
        let args = parse_ok(&["--quick"]);
        assert!(args.cfg.faults.is_none(), "faults default to unarmed");
        assert!(!args.keep_going);

        let args = parse_ok(&["--quick", "--keep-going"]);
        assert!(args.keep_going);

        let args = parse_ok(&["--quick", "--faults=tlb-bitflip@p=1e-4;seed=7"]);
        let plan = args.cfg.faults.expect("spec should arm a plan");
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.tlb_bitflip, Some(1e-4));

        let args = parse_ok(&["--quick", "--faults=cell-panic@idx=2"]);
        assert_eq!(args.cfg.faults.unwrap().cell_panic, Some(2));

        assert!(
            parse(["--faults".to_string()].into_iter()).is_err(),
            "--faults needs =SPEC"
        );
        assert!(parse(["--faults=warp-core@p=1".to_string()].into_iter()).is_err());
    }

    #[test]
    fn timeline_doc_annotates_phase_mpki() {
        use bf_telemetry::{Snapshot, Timeline};

        // Three epochs with known misses/instructions so the phase MPKI
        // is exact: each epoch adds 5 misses and 1000 instructions.
        let mut now = Snapshot::default();
        let mut timeline = Timeline::new(4, 8);
        for accesses in 1..=12u64 {
            if timeline.record_access() {
                *now.counters.entry("tlb.l2.misses".to_owned()).or_insert(0) += 5;
                *now.counters
                    .entry("sim.instructions".to_owned())
                    .or_insert(0) += 1000;
                timeline.seal_epoch(&now, accesses);
            }
        }
        let snapshot = timeline.finish(&now, 12, Vec::new());
        let cfg = ExperimentConfig::smoke_test();
        let doc = timeline_doc("unit", &cfg, &[("cell".to_owned(), Some(snapshot))]);
        let flat = report::flatten(&doc);
        assert_eq!(
            flat.get("cells.cell.timeline.phases.last.l2_mpki"),
            Some(&5.0),
            "5 misses per 1000 instructions = 5 MPKI"
        );
        assert_eq!(
            flat.get("cells.cell.timeline.phases.first.l2_mpki"),
            Some(&5.0)
        );
    }

    #[test]
    fn versus_formats_both_numbers() {
        let s = versus(12.5, 11.0, "%");
        assert!(s.contains("12.5%"));
        assert!(s.contains("11.0%"));
    }
}
