//! The benchmark's own runners reproduce the library entry points byte
//! for byte — untraced and traced — at tiny sizes, for two seeds.

use babelfish::experiment::{
    run_functions, run_timed_window, CaptureApp, ComputeKind, ExperimentConfig,
};
use babelfish::replay;
use babelfish::sim::Mode;
use babelfish::workloads::{AccessDensity, ServingVariant};
use bf_perf::cell::{self, Outcome, Plain, Taps, TraceCounts};
use bf_perf::traced::Probe;
use bf_perf::PROFILED;

const SEEDS: [u64; 2] = [0x5eed, 7];

fn tiny(seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::smoke_test();
    cfg.warmup_instructions = 8_000;
    cfg.measure_instructions = 30_000;
    cfg.dataset_bytes = 4 << 20;
    cfg.function_input_bytes = 2 << 20;
    cfg.seed = seed;
    cfg
}

/// Asserts two result documents are byte-identical, naming the first
/// difference instead of printing both documents.
fn assert_same(got: &str, want: &str, what: &str) {
    if got == want {
        return;
    }
    let at = got
        .bytes()
        .zip(want.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(want.len()));
    let context = |doc: &str| {
        doc.get(at.saturating_sub(40)..(at + 40).min(doc.len()))
            .unwrap_or("")
            .to_owned()
    };
    panic!(
        "{what}: documents differ at byte {at}\n  got:  ...{}...\n  want: ...{}...",
        context(got),
        context(want)
    );
}

/// Every traced access was classified, when the counters exist.
fn assert_classified(probe: Probe, accesses: u64) {
    let summary = probe.summary(0.0);
    assert_eq!(
        summary.feed_accesses, accesses,
        "probe saw every fed access"
    );
    if bf_telemetry::enabled() {
        assert_eq!(summary.classified_share, 1.0);
    }
}

#[test]
fn live_and_replay_runners_match_the_library() {
    let apps = [
        (
            Mode::babelfish(),
            CaptureApp::Serving(ServingVariant::MongoDb),
        ),
        (Mode::Baseline, CaptureApp::Compute(ComputeKind::Fio)),
    ];
    for seed in SEEDS {
        let cfg = tiny(seed);
        for (mode, app) in apps {
            let reference = Outcome::of_window(&run_timed_window(mode, app, &cfg).0);
            let live = cell::live_cell(mode, app, &cfg);
            assert_same(
                &live.outcome.doc,
                &reference.doc,
                &format!("live cell, seed {seed}"),
            );

            let (captured, trace) = cell::capture(mode, app, &cfg);
            assert_same(
                &captured.doc,
                &reference.doc,
                &format!("capture, seed {seed}"),
            );
            let counts = TraceCounts::scan(&trace);
            assert!(counts.window_accesses > 0 && counts.window_accesses < counts.accesses);

            // The live document is the replayed one: model identical
            // between live and replay.
            let replayed = cell::replay_cell(&trace, Taps::default(), &mut Plain);
            assert_same(
                &replayed.outcome.doc,
                &reference.doc,
                &format!("replay cell, seed {seed}"),
            );
            assert_eq!(replayed.accesses, counts.accesses);

            let mut probe = Probe::new(true);
            let traced = cell::replay_cell(&trace, Taps::default(), &mut probe);
            assert_same(
                &traced.outcome.doc,
                &reference.doc,
                &format!("traced replay, seed {seed}"),
            );
            assert_classified(probe, counts.accesses);
        }
    }
}

#[test]
fn profiled_replay_runner_matches_the_library() {
    let (mode, app) = (
        Mode::babelfish(),
        CaptureApp::Serving(ServingVariant::MongoDb),
    );
    for seed in SEEDS {
        let (captured, trace) = cell::capture(mode, app, &tiny(seed));
        let reader = babelfish::capture::TraceReader::new(&trace[..]).unwrap();
        let outcome = replay::replay_trace(reader, PROFILED.replay_options()).unwrap();
        let reference = Outcome::of_window(&outcome.result);
        assert_same(
            &captured.model,
            &reference.model,
            "taps leave the model alone",
        );

        let plain = cell::replay_cell(&trace, PROFILED, &mut Plain);
        assert_same(
            &plain.outcome.doc,
            &reference.doc,
            &format!("profiled replay, seed {seed}"),
        );
        let mut probe = Probe::new(true);
        let traced = cell::replay_cell(&trace, PROFILED, &mut probe);
        assert_same(
            &traced.outcome.doc,
            &reference.doc,
            &format!("traced profiled, seed {seed}"),
        );
        assert_classified(probe, plain.accesses);
    }
}

#[test]
fn faas_runner_matches_the_library() {
    let (mode, density) = (Mode::babelfish(), AccessDensity::Sparse);
    for seed in SEEDS {
        let cfg = tiny(seed);
        let reference = Outcome::of_functions(&run_functions(mode, density, &cfg));
        let plain = cell::faas_cell(mode, density, &cfg, &mut Plain);
        assert_same(
            &plain.outcome.doc,
            &reference.doc,
            &format!("faas cell, seed {seed}"),
        );
        assert!(plain.accesses > 0);

        let mut probe = Probe::new(false);
        let traced = cell::faas_cell(mode, density, &cfg, &mut probe);
        assert_same(
            &traced.outcome.doc,
            &reference.doc,
            &format!("traced faas, seed {seed}"),
        );
        assert_classified(probe, plain.accesses);
    }
}
