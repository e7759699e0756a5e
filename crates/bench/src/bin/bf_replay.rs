//! `bf_replay`: drive the simulator from a captured `.bft` trace.
//!
//! Rebuilds the machine from the trace header (same image, deploy,
//! bring-up, and prefault as the capturing run), feeds the recorded
//! access stream straight into the machine — no workload generators —
//! and writes the standard `replay-<app>-<mode>` results document. With
//! the defaults the replayed counters match the live run *exactly*;
//! `--mode` replays the same stream against a different machine
//! configuration (e.g. a baseline trace through BabelFish).
//!
//! ```text
//! bf_replay ci/traces/fig10-quick.bft
//! bf_replay ci/traces/fig10-quick.bft --mode=baseline
//! bf_replay ci/traces/fig10-quick.bft --timeline=4096
//! ```

use babelfish::capture::TraceReader;
use babelfish::replay::{capture_meta, meta_config, replay_file, CaptureFile, ReplayOptions};
use babelfish::Mode;
use bf_bench::{
    header, DEFAULT_HEARTBEAT_EVERY, DEFAULT_HEARTBEAT_FILE, DEFAULT_PROFILE_K,
    DEFAULT_TIMELINE_EPOCH,
};

const USAGE: &str = "options:
  --mode=NAME     replay against NAME (baseline, baseline-larger-tlb, babelfish,
                  babelfish-tlb-only, babelfish-pt-only) instead of the captured
                  mode; counters then legitimately diverge from the live run
  --timeline[=N]  seal a telemetry epoch every N accesses and write
                  results/replay-<app>-<mode>-timeline-latest.json (default
                  N=4096); must match the capturing run's setting for
                  byte-identical timeline output
  --profile[=K]   miss-attribution profiling with top-K hot-region sketches
                  (default K=64); writes
                  results/replay-<app>-<mode>-profile-latest.json, byte-identical
                  to the same flag on the capturing run
  --recapture=F   tee the replayed stream back into a new trace at F; without
                  --mode the new file is byte-identical to the input (the
                  capture -> replay -> capture determinism check)
  --salvage       read the trace in salvage mode: skip corrupt blocks, resync
                  at the next self-consistent block header, replay whatever
                  decodes, and print the loss accounting (blocks skipped,
                  records lost, whether the accounting is exact)
  --heartbeat[=FILE]
                  append live NDJSON heartbeat events (run manifest, progress
                  snapshots with ETA, counter report, results pointers) to FILE
                  during the replay (default FILE=results/heartbeat.ndjson;
                  BF_HEARTBEAT=FILE and BF_HEARTBEAT_EVERY=N also work; watch
                  live with bf_top)
  -h, --help      this message

exit codes:
  0  success
  2  usage or I/O error
  3  corrupt trace (strict replay hit a damaged block; retry with --salvage)";

struct ReplayArgs {
    trace: String,
    mode: Option<Mode>,
    timeline_every: u64,
    profile_top_k: u64,
    recapture: Option<String>,
    salvage: bool,
    heartbeat: Option<String>,
    heartbeat_every: u64,
}

fn parse(args: impl Iterator<Item = String>) -> Result<ReplayArgs, String> {
    let mut trace: Option<String> = None;
    let mut mode = None;
    let mut timeline_every = 0;
    let mut profile_top_k = 0;
    let mut recapture = None;
    let mut salvage = false;
    let mut heartbeat: Option<String> = None;
    for arg in args {
        match arg.as_str() {
            "--timeline" => timeline_every = DEFAULT_TIMELINE_EPOCH,
            "--profile" => profile_top_k = DEFAULT_PROFILE_K,
            "--salvage" => salvage = true,
            "--heartbeat" => heartbeat = Some(DEFAULT_HEARTBEAT_FILE.to_owned()),
            "-h" | "--help" => return Err(String::new()),
            _ => {
                if let Some(name) = arg.strip_prefix("--mode=") {
                    mode = Some(
                        Mode::from_name(name).ok_or_else(|| format!("unknown mode '{name}'"))?,
                    );
                } else if let Some(n) = arg.strip_prefix("--timeline=") {
                    timeline_every = n
                        .parse()
                        .map_err(|_| format!("invalid --timeline value: {n}"))?;
                } else if let Some(n) = arg.strip_prefix("--profile=") {
                    profile_top_k = n
                        .parse()
                        .ok()
                        .filter(|&k: &u64| k > 0)
                        .ok_or_else(|| format!("invalid --profile value: {n}"))?;
                } else if let Some(path) = arg.strip_prefix("--recapture=") {
                    recapture = Some(path.to_owned());
                } else if let Some(path) = arg.strip_prefix("--heartbeat=") {
                    if path.is_empty() {
                        return Err("--heartbeat= needs a file after '='".to_owned());
                    }
                    heartbeat = Some(path.to_owned());
                } else if arg.starts_with('-') {
                    return Err(format!("unknown argument: {arg}"));
                } else if trace.is_none() {
                    trace = Some(arg);
                } else {
                    return Err(format!("unexpected extra argument: {arg}"));
                }
            }
        }
    }
    let heartbeat =
        heartbeat.or_else(|| std::env::var("BF_HEARTBEAT").ok().filter(|p| !p.is_empty()));
    let heartbeat_every = if heartbeat.is_some() {
        std::env::var("BF_HEARTBEAT_EVERY")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_HEARTBEAT_EVERY)
    } else {
        0
    };
    Ok(ReplayArgs {
        trace: trace.ok_or("a trace file is required")?,
        mode,
        timeline_every,
        profile_top_k,
        recapture,
        salvage,
        heartbeat,
        heartbeat_every,
    })
}

/// Exit code when a strict replay fails on a damaged trace.
const EXIT_CORRUPT_TRACE: i32 = 3;

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            let program = std::env::args()
                .next()
                .unwrap_or_else(|| "bf_replay".into());
            if message.is_empty() {
                println!("usage: {program} <trace.bft> [options]\n{USAGE}");
                std::process::exit(0);
            }
            eprintln!("error: {message}\nusage: {program} <trace.bft> [options]\n{USAGE}");
            std::process::exit(2);
        }
    };

    // Arm the heartbeat (and record the manifest context) before the
    // replay starts. The replay's config comes from the trace header,
    // so the run-start manifest carries no config hash here — the
    // results documents still stamp the full identity from their own
    // embedded config, identical to the capturing run's.
    bf_bench::set_run_context(bf_bench::RunContext {
        faults_spec: None,
        threads: 1,
        heartbeat: args.heartbeat.clone().map(std::path::PathBuf::from),
        heartbeat_every: args.heartbeat_every,
        config: None,
    });

    // The recapture file's header is built from the input's header (and
    // the mode actually replayed), so a default-mode round trip is
    // byte-identical end to end.
    let recapture_file = args.recapture.as_ref().map(|path| {
        let header = TraceReader::open(&args.trace)
            .and_then(|reader| meta_config(reader.meta()).map_err(std::io::Error::other))
            .and_then(|(header_mode, app, cfg)| {
                let mode = args.mode.unwrap_or(header_mode);
                CaptureFile::create(path, &capture_meta(mode, app, &cfg))
            });
        match header {
            Ok(file) => file,
            Err(error) => {
                eprintln!("error: creating {path}: {error}");
                std::process::exit(2);
            }
        }
    });
    let options = ReplayOptions {
        mode: args.mode,
        timeline_every: args.timeline_every,
        timeline_fail_fast: false,
        profile_top_k: args.profile_top_k,
        recapture: recapture_file.as_ref().map(|file| file.sink()),
        salvage: args.salvage,
        heartbeat_every: args.heartbeat_every,
    };
    let start = std::time::Instant::now();
    let outcome = match replay_file(&args.trace, options) {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!("error: replaying {}: {error}", args.trace);
            let code = if error.to_string().contains("corrupt block") {
                EXIT_CORRUPT_TRACE
            } else {
                2
            };
            std::process::exit(code);
        }
    };
    let seconds = start.elapsed().as_secs_f64();
    if let (Some(file), Some(path)) = (recapture_file, &args.recapture) {
        match file.finish() {
            Ok(records) => println!("recaptured {records} records into {path}"),
            Err(error) => {
                eprintln!("error: finishing {path}: {error}");
                std::process::exit(2);
            }
        }
    }
    let mode_name = outcome.mode.name();
    let stats = &outcome.result.stats;

    header(&format!("Replay: {} x {mode_name}", outcome.app));
    println!("trace            {}", args.trace);
    println!("records          {}", outcome.records_replayed);
    println!("instructions     {}", stats.instructions);
    println!("exec cycles      {}", outcome.result.exec_cycles);
    println!(
        "L2 TLB MPKI      D {:.3} / I {:.3}",
        stats.l2_data_mpki(),
        stats.l2_instr_mpki()
    );
    if stats.latency.count() > 0 {
        println!(
            "request latency  mean {:.0} / p95 {} ({} requests)",
            stats.latency.mean(),
            stats.latency.percentile(95.0),
            stats.latency.count()
        );
    }
    println!(
        "throughput       {:.0} records/s ({seconds:.3}s wall)",
        outcome.records_replayed as f64 / seconds.max(1e-9)
    );
    if let Some(report) = &outcome.salvage {
        println!("salvage          {report}");
    }
    if outcome.records_dropped > 0 {
        println!(
            "dropped          {} records decoded but unreplayable (addresses mangled by the damage)",
            outcome.records_dropped
        );
    }

    let stem = format!("replay-{}-{mode_name}", outcome.app);
    let doc =
        bf_bench::capture::window_doc(outcome.mode, outcome.app, &outcome.config, &outcome.result);
    bf_bench::emit_results(&stem, &doc);
    let cell_name = format!("{}-{mode_name}", outcome.app);
    let cells = [(cell_name.clone(), outcome.result.timeline.clone())];
    bf_bench::emit_timeline_results(&stem, &outcome.config, &cells);
    let profile_cells = [(cell_name, outcome.result.profile.clone())];
    bf_bench::emit_profile_results(&stem, &outcome.config, &profile_cells);
    bf_telemetry::heartbeat::finish();
}
