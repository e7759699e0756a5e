//! The `--capture=FILE` preflight shared by the figure binaries.
//!
//! When the flag is present the binary does not run its figure sweep:
//! it records one *canonical capture cell* under the binary's
//! configuration, writes a standard results document, and exits. The
//! cell defaults to mongodb x babelfish — the paper's flagship serving
//! pair — and can be redirected with `BF_CAPTURE_APP` /
//! `BF_CAPTURE_MODE`; `BF_CAPTURE_CONTAINERS` / `BF_CAPTURE_QUANTUM`
//! override the density knobs (how the committed serving-churn trace was
//! produced).
//!
//! The capture run writes `results/capture-<app>-<mode>-latest.json`,
//! and `bf_replay` of the same trace writes
//! `results/replay-<app>-<mode>-latest.json` through [`window_doc`]; the
//! two documents are **byte-identical** when the runs used the same
//! instrumentation flags — the determinism contract CI's `cmp` leans on.

use crate::BenchArgs;
use babelfish::experiment::{CaptureApp, ExperimentConfig, WindowResult};
use babelfish::replay;
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
        // The headline derived metrics, pre-computed so a reader (or
        // `bf_report diff`) finds them at the top level.
        ("l2_data_mpki", Value::F64(window.stats.l2_data_mpki())),
        ("l2_instr_mpki", Value::F64(window.stats.l2_instr_mpki())),
        ("window", window.to_value()),
    ])
}

/// Runs the `--capture` preflight if the flag was given, then exits the
/// process (0 on success, 2 on error). A no-op when the flag is absent.
/// Every binary that parses its options with [`crate::parse_args`]
/// calls this before it runs anything else.
pub fn preflight(args: &BenchArgs) {
    let Some(path) = &args.capture else {
        return;
    };
    match run_capture(path, &args.cfg) {
        Ok(()) => std::process::exit(0),
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
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
