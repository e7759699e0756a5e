//! End-to-end span tracing: run a real machine with tracing on, export
//! the Chrome trace, and validate it — plus the snapshot-schema pins for
//! the drop counters.

use babelfish::experiment::{run_serving_machine, ExperimentConfig};
use babelfish::{Mode, ServingVariant};
use bf_telemetry::{validate_chrome_trace, SpanPhase};
use serde::Serialize;

fn traced_cfg() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::smoke_test();
    cfg.warmup_instructions = 10_000;
    cfg.measure_instructions = 60_000;
    cfg.dataset_bytes = 4 << 20;
    cfg.trace_sample_every = 1;
    cfg
}

#[test]
fn traced_run_exports_valid_chrome_trace() {
    let machine = run_serving_machine(Mode::babelfish(), ServingVariant::MongoDb, &traced_cfg());
    let spans = machine.spans();
    let doc = spans.chrome_trace();
    let summary = validate_chrome_trace(&doc).expect("machine trace must validate");

    assert_eq!(summary.begins, summary.ends, "balanced B/E pairs");
    assert!(summary.begins > 100, "a real run records plenty of spans");
    assert!(summary.metadata > 0, "tracks are named");
    assert!(
        summary.max_depth >= 2,
        "TLB/walk spans nest under the access span (depth {})",
        summary.max_depth
    );

    let events = spans.events();
    let names: std::collections::BTreeSet<&str> = events.iter().map(|e| e.name).collect();
    assert!(names.contains("access"), "top-level access spans");
    assert!(names.contains("tlb.l1"), "L1 TLB lookup spans");
    assert!(
        names.contains("tlb.occupancy") && names.contains("pgtable.shared_refs"),
        "machine counter tracks present: {names:?}"
    );
    assert!(
        events.iter().any(|e| e.phase == SpanPhase::Counter),
        "counter samples recorded"
    );
    // Every sampled access traced at least the L1 probe: instants exist.
    assert!(events.iter().any(|e| e.phase == SpanPhase::Instant));
}

#[test]
fn untraced_run_records_no_spans() {
    let mut cfg = traced_cfg();
    cfg.trace_sample_every = 0;
    let machine = run_serving_machine(Mode::babelfish(), ServingVariant::MongoDb, &cfg);
    assert!(machine.spans().is_empty(), "sampling 0 disables tracing");
}

#[test]
fn snapshot_schema_pins_drop_counters() {
    let machine = run_serving_machine(Mode::babelfish(), ServingVariant::MongoDb, &traced_cfg());
    let snapshot = machine.telemetry_snapshot().to_value();
    // The span-drop count must survive into the JSON results documents.
    assert!(
        snapshot
            .get("span_dropped")
            .and_then(|v| v.as_u64())
            .is_some(),
        "span_dropped missing from snapshot export"
    );
    // Spans are the only event trace, so no other drop counter exists.
    let serde::Value::Object(fields) = &snapshot else {
        panic!("snapshot exports as an object: {snapshot:?}");
    };
    let keys: Vec<&str> = fields.keys().map(String::as_str).collect();
    assert_eq!(keys, ["counters", "histograms", "span_dropped"]);
}
