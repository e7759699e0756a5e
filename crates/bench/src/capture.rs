//! The `--capture=FILE` / `--replay=FILE` preflight shared by the sweep
//! binaries.
//!
//! When either flag is present the binary does not run its figure sweep:
//! it records (or replays) one *canonical capture cell* under the
//! binary's configuration, writes a standard results document, and
//! exits. The cell defaults to mongodb x babelfish — the paper's
//! flagship serving pair — and can be redirected with `BF_CAPTURE_APP` /
//! `BF_CAPTURE_MODE`; `BF_CAPTURE_CONTAINERS` / `BF_CAPTURE_QUANTUM`
//! override the density knobs (how the committed serving-churn trace was
//! produced).
//!
//! The capture run writes `results/capture-<app>-<mode>-latest.json` and
//! a replay of the same trace writes `results/replay-<app>-<mode>-latest.json`;
//! the two documents are **byte-identical** when the runs used the same
//! instrumentation flags — the determinism contract CI's `cmp` leans on.

use crate::BenchArgs;
use babelfish::experiment::{CaptureApp, ExperimentConfig, WindowResult};
use babelfish::replay::{self, ReplayOptions};
use babelfish::Mode;
use serde::{Serialize, Value};

/// The canonical capture cell when the `BF_CAPTURE_*` variables are
/// unset.
pub const DEFAULT_APP: &str = "mongodb";
/// See [`DEFAULT_APP`].
pub const DEFAULT_MODE: &str = "babelfish";

/// The comparable results document for one captured or replayed window.
/// Deliberately contains nothing run-specific beyond the window itself,
/// so a live capture and its replay render to identical bytes.
pub fn window_doc(mode: Mode, app: &str, cfg: &ExperimentConfig, window: &WindowResult) -> Value {
    crate::json_object([
        ("figure", Value::String("trace-window".to_owned())),
        ("mode", Value::String(mode.name().to_owned())),
        ("app", Value::String(app.to_owned())),
        ("config", cfg.to_value()),
        // The headline derived metrics, pre-computed so regression
        // gates can name them directly (`l2_data_mpki=~0%`).
        ("l2_data_mpki", Value::F64(window.stats.l2_data_mpki())),
        ("l2_instr_mpki", Value::F64(window.stats.l2_instr_mpki())),
        ("window", window.to_value()),
    ])
}

/// Runs the `--capture` / `--replay` preflight if either flag was given,
/// then exits the process (0 on success, 2 on error). A no-op when
/// neither flag is present. Every sweep binary calls this straight after
/// [`crate::parse_args`].
pub fn preflight(args: &BenchArgs) {
    if args.capture.is_none() && args.replay.is_none() {
        return;
    }
    match run_preflight(args) {
        Ok(()) => std::process::exit(0),
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    }
}

fn run_preflight(args: &BenchArgs) -> Result<(), String> {
    if let Some(path) = &args.capture {
        run_capture(path, &args.cfg)
    } else if let Some(path) = &args.replay {
        run_replay(path, &args.cfg)
    } else {
        Ok(())
    }
}

fn env_override(name: &str, default: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| default.to_owned())
}

fn run_capture(path: &str, cfg: &ExperimentConfig) -> Result<(), String> {
    let app_name = env_override("BF_CAPTURE_APP", DEFAULT_APP);
    let mode_name = env_override("BF_CAPTURE_MODE", DEFAULT_MODE);
    let app = CaptureApp::from_name(&app_name)
        .ok_or_else(|| format!("unknown BF_CAPTURE_APP '{app_name}'"))?;
    let mode = Mode::from_name(&mode_name)
        .ok_or_else(|| format!("unknown BF_CAPTURE_MODE '{mode_name}'"))?;
    let mut cfg = *cfg;
    if let Ok(n) = std::env::var("BF_CAPTURE_CONTAINERS") {
        cfg.containers_per_core = n
            .parse()
            .map_err(|_| format!("invalid BF_CAPTURE_CONTAINERS '{n}'"))?;
    }
    if let Ok(n) = std::env::var("BF_CAPTURE_QUANTUM") {
        cfg.quantum_cycles = n
            .parse()
            .map_err(|_| format!("invalid BF_CAPTURE_QUANTUM '{n}'"))?;
    }

    let window = replay::capture_to_file(mode, app, &cfg, path)
        .map_err(|e| format!("capturing to {path}: {e}"))?;
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    println!(
        "captured {path}: {app_name} x {mode_name}, {} instructions, {bytes} bytes",
        window.stats.instructions
    );

    let stem = format!("capture-{app_name}-{mode_name}");
    let doc = window_doc(mode, app.name(), &cfg, &window);
    crate::emit_results(&stem, &doc);
    let cell_name = format!("{app_name}-{mode_name}");
    let cells = [(cell_name.clone(), window.timeline.clone())];
    crate::emit_timeline_results(&stem, &cfg, &cells);
    let profile_cells = [(cell_name, window.profile.clone())];
    crate::emit_profile_results(&stem, &cfg, &profile_cells);
    Ok(())
}

fn run_replay(path: &str, cfg: &ExperimentConfig) -> Result<(), String> {
    // The binary's instrumentation flags carry over to the replay; they
    // must match the capturing run's for byte-identical output.
    let options = ReplayOptions {
        mode: None,
        trace_sample_every: cfg.trace_sample_every,
        timeline_every: cfg.timeline_every,
        timeline_fail_fast: cfg.timeline_fail_fast,
        profile_top_k: cfg.profile_top_k,
        recapture: None,
        salvage: false,
        heartbeat_every: cfg.heartbeat_every,
    };
    let outcome =
        replay::replay_file(path, options).map_err(|e| format!("replaying {path}: {e}"))?;
    let mode_name = outcome.mode.name();
    println!(
        "replayed {path}: {} x {mode_name}, {} records, {} instructions",
        outcome.app, outcome.records_replayed, outcome.result.stats.instructions
    );

    let stem = format!("replay-{}-{mode_name}", outcome.app);
    let doc = window_doc(outcome.mode, outcome.app, &outcome.config, &outcome.result);
    crate::emit_results(&stem, &doc);
    let cell_name = format!("{}-{mode_name}", outcome.app);
    let cells = [(cell_name.clone(), outcome.result.timeline.clone())];
    crate::emit_timeline_results(&stem, &outcome.config, &cells);
    let profile_cells = [(cell_name, outcome.result.profile.clone())];
    crate::emit_profile_results(&stem, &outcome.config, &profile_cells);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_docs_of_identical_windows_render_identically() {
        let cfg = ExperimentConfig::smoke_test();
        let app = CaptureApp::from_name(DEFAULT_APP).unwrap();
        let mode = Mode::from_name(DEFAULT_MODE).unwrap();
        let (window, _sink) =
            babelfish::experiment::run_captured(mode, app, &cfg, Box::new(NullSink));
        let a = serde_json::to_string(&window_doc(mode, app.name(), &cfg, &window)).unwrap();
        let b = serde_json::to_string(&window_doc(mode, app.name(), &cfg, &window)).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("\"figure\""));
    }

    struct NullSink;
    impl babelfish::sim::CaptureSink for NullSink {
        fn access(
            &mut self,
            _core: u32,
            _pid: babelfish::types::Pid,
            _va: babelfish::types::VirtAddr,
            _kind: babelfish::types::AccessKind,
            _instrs_before: u32,
        ) {
        }
        fn switch(&mut self, _core: u32, _cost: babelfish::types::Cycles) {}
        fn request_end(&mut self, _cycles: babelfish::types::Cycles) {}
        fn reset(&mut self) {}
    }
}
