//! The JSON results schema: the exported `stats` view must follow the
//! stream split of the exported registry counters, and the config types
//! must survive a serialize → parse round trip.

use babelfish::experiment::{run_serving, ExperimentConfig};
use babelfish::{Mode, ServingVariant, SimConfig};
use serde::{Serialize, Value};

fn cfg() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::smoke_test();
    cfg.warmup_instructions = 20_000;
    cfg.measure_instructions = 100_000;
    cfg
}

/// One `u64` member of a serialized JSON object.
fn field(object: &Value, name: &str) -> u64 {
    object
        .get(name)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("{name} missing"))
}

#[test]
fn exported_json_stats_follow_the_stream_split() {
    let result = run_serving(Mode::babelfish(), ServingVariant::MongoDb, &cfg());

    // Serialize the whole result document and re-parse it from text, the
    // same path the figure binaries take through `write_json`.
    let text = serde_json::to_string_pretty(&result).expect("serialize");
    let doc = serde_json::from_str(&text).expect("parse");
    let tlb = doc
        .get("stats")
        .and_then(|s| s.get("tlb"))
        .expect("stats.tlb member");
    let counters = doc
        .get("telemetry")
        .and_then(|t| t.get("counters"))
        .expect("telemetry.counters member");

    // Each role's two streams sum to its registry totals; the L1i holds
    // only fetches, the L1d only data, and the L2's fetch stream is its
    // `tlb.l2.instr_*` counters.
    for level in ["l1i", "l1d", "l2"] {
        let stats = tlb.get(level).expect("stats.tlb level");
        for outcome in ["hits", "misses", "shared_hits"] {
            let data = field(stats, &format!("data_{outcome}"));
            let instr = field(stats, &format!("instr_{outcome}"));
            let total = field(counters, &format!("tlb.{level}.{outcome}"));
            assert_eq!(data + instr, total, "{level} {outcome}");
            match level {
                "l1i" => assert_eq!(data, 0, "l1i data_{outcome}"),
                "l1d" => assert_eq!(instr, 0, "l1d instr_{outcome}"),
                _ => assert_eq!(instr, field(counters, &format!("tlb.l2.instr_{outcome}"))),
            }
        }
    }
    let l2 = tlb.get("l2").expect("stats.tlb.l2");
    assert!(field(l2, "instr_hits") > 0 && field(l2, "data_hits") > 0);
    assert!(!counters
        .as_object()
        .unwrap()
        .contains_key("tlb.l1i.instr_hits"));
    assert_eq!(
        field(doc.get("stats").unwrap(), "walks"),
        field(counters, "sim.walks")
    );
}

#[test]
fn config_types_round_trip_through_json() {
    let experiment = ExperimentConfig::paper_scaled();
    let parsed = serde_json::from_str(&serde_json::to_string(&experiment).unwrap()).unwrap();
    assert_eq!(parsed, experiment.to_value());

    let sim = SimConfig::new(2, Mode::babelfish());
    let parsed = serde_json::from_str(&serde_json::to_string_pretty(&sim).unwrap()).unwrap();
    assert_eq!(parsed, sim.to_value());
    assert_eq!(
        parsed
            .get("mode")
            .and_then(|m| m.get("name"))
            .and_then(Value::as_str),
        Some("babelfish")
    );
}
