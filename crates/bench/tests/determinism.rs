//! The bf-exec contract: a sweep's results depend only on the cell
//! list, never on the worker count. This drives the same Fig. 10 sweep
//! serially and on four workers and requires byte-identical JSON and
//! identical per-cell telemetry snapshots — the property the CI timing
//! job gates on for the real `--quick` dataset. The timeline tests
//! extend the contract to the `--timeline` export: epoch boundaries are
//! counted in simulated accesses, so the timeline document must also be
//! byte-identical across thread counts, and a clean run must record no
//! invariant violations.

use babelfish::experiment::ExperimentConfig;
use bf_bench::grid::{self, fig10_doc, App, Cell, BASELINE_VS_BABELFISH};

/// The Fig. 10 grid: every application under Baseline and BabelFish.
fn fig10_cells(cfg: &ExperimentConfig, threads: usize) -> Vec<Cell> {
    grid::run(cfg, &App::ALL, &BASELINE_VS_BABELFISH, threads, true)
}

/// A config small enough that 14 cells finish in seconds but large
/// enough that every workload actually touches the TLB hierarchy.
fn tiny_config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::smoke_test();
    cfg.warmup_instructions = 1_000;
    cfg.measure_instructions = 4_000;
    cfg
}

#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    let cfg = tiny_config();
    let serial = fig10_cells(&cfg, 1);
    let parallel = fig10_cells(&cfg, 4);

    // Cell order is submission order in both cases.
    let names: Vec<_> = serial.iter().map(|c| &c.name).collect();
    assert_eq!(names, parallel.iter().map(|c| &c.name).collect::<Vec<_>>());

    // Each cell's private telemetry registry must be unaffected by the
    // other cells running concurrently.
    for (s, p) in serial.iter().zip(parallel.iter()) {
        assert_eq!(
            s.outcome.telemetry(),
            p.outcome.telemetry(),
            "{}: telemetry drifted across thread counts",
            s.name
        );
    }

    // And the JSON document the binary writes must match byte for byte.
    let doc_serial = serde_json::to_string(&fig10_doc(&cfg, &serial)).unwrap();
    let doc_parallel = serde_json::to_string(&fig10_doc(&cfg, &parallel)).unwrap();
    assert_eq!(
        doc_serial, doc_parallel,
        "results JSON must not depend on --threads"
    );
}

#[test]
fn timeline_export_is_byte_identical_across_thread_counts() {
    let mut cfg = tiny_config();
    cfg.timeline_every = 16;
    let serial = fig10_cells(&cfg, 1);
    let parallel = fig10_cells(&cfg, 4);

    let doc_serial = serde_json::to_string(&bf_bench::timeline_doc(
        "fig10_tlb",
        &cfg,
        &grid::timelines(&serial),
    ))
    .unwrap();
    let doc_parallel = serde_json::to_string(&bf_bench::timeline_doc(
        "fig10_tlb",
        &cfg,
        &grid::timelines(&parallel),
    ))
    .unwrap();
    assert_eq!(
        doc_serial, doc_parallel,
        "timeline JSON must not depend on --threads"
    );
}

#[test]
fn profile_export_is_byte_identical_across_thread_counts() {
    let mut cfg = tiny_config();
    cfg.profile_top_k = 32;
    let serial = fig10_cells(&cfg, 1);
    let parallel = fig10_cells(&cfg, 4);

    let doc_serial = serde_json::to_string(&bf_bench::profile_doc(
        "fig10_tlb",
        &cfg,
        &grid::profiles(&serial),
    ))
    .unwrap();
    let doc_parallel = serde_json::to_string(&bf_bench::profile_doc(
        "fig10_tlb",
        &cfg,
        &grid::profiles(&parallel),
    ))
    .unwrap();
    assert_eq!(
        doc_serial, doc_parallel,
        "profile JSON must not depend on --threads"
    );
    // A sweep this small must still attribute real misses — an empty
    // profile would make the byte-identity above vacuous.
    assert!(
        doc_serial.contains("\"miss_regions\":[{"),
        "expected monitored hot regions in {doc_serial}"
    );
}

#[test]
fn clean_fig10_run_records_timelines_without_violations() {
    let mut cfg = tiny_config();
    cfg.timeline_every = 16;
    // Record mode: a violated invariant would land in the export (and
    // fail this test) instead of panicking with less context.
    cfg.timeline_fail_fast = false;
    for (name, timeline) in grid::timelines(&fig10_cells(&cfg, 2)) {
        let timeline = timeline.unwrap_or_else(|| panic!("{name}: no timeline recorded"));
        assert!(
            timeline.violations.is_empty(),
            "{name}: clean run must not violate invariants: {:?}",
            timeline.violations
        );
        assert!(
            !timeline.epochs.is_empty(),
            "{name}: expected at least one sealed epoch"
        );
        // The conservation law, end to end through the experiment
        // runner: epoch deltas merge back to the window total.
        assert_eq!(
            timeline.merged().counters,
            timeline.total.counters,
            "{name}: epoch deltas must sum to the window total"
        );
    }
}
