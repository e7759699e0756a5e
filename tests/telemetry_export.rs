//! The JSON results schema: exported documents must agree with the
//! legacy in-memory stats, and the config types must survive a
//! serialize → parse round trip.

use babelfish::experiment::{run_serving, ExperimentConfig};
use babelfish::{Mode, ServingVariant, SimConfig};
use serde::{Serialize, Value};

fn cfg() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::smoke_test();
    cfg.warmup_instructions = 20_000;
    cfg.measure_instructions = 100_000;
    cfg
}

/// Sums the data+instr hit (or miss) fields of one serialized TLB level.
fn level_total(stats: &Value, level: &str, outcome: &str) -> u64 {
    let level = stats
        .get("tlb")
        .and_then(|t| t.get(level))
        .unwrap_or_else(|| panic!("stats.tlb.{level} missing"));
    ["data", "instr"]
        .iter()
        .map(|side| {
            level
                .get(&format!("{side}_{outcome}"))
                .and_then(Value::as_u64)
                .unwrap_or_else(|| panic!("stats.tlb field {side}_{outcome} missing"))
        })
        .sum()
}

#[test]
fn exported_json_tlb_totals_match_legacy_stats() {
    let result = run_serving(Mode::babelfish(), ServingVariant::MongoDb, &cfg());

    // Serialize the whole result document and re-parse it from text, the
    // same path the figure binaries take through `write_json`.
    let text = serde_json::to_string_pretty(&result).expect("serialize");
    let doc = serde_json::from_str(&text).expect("parse");
    let stats = doc.get("stats").expect("stats member");

    // The serialized legacy stats agree with the in-memory ones.
    for (level, legacy) in [
        ("l1d", &result.stats.tlb.l1d),
        ("l1i", &result.stats.tlb.l1i),
        ("l2", &result.stats.tlb.l2),
    ] {
        assert_eq!(
            level_total(stats, level, "hits"),
            legacy.hits(),
            "{level} hits"
        );
        assert_eq!(
            level_total(stats, level, "misses"),
            legacy.misses(),
            "{level} misses"
        );
    }

    // And the telemetry counters in the same document agree with both.
    let counters = doc
        .get("telemetry")
        .and_then(|t| t.get("counters"))
        .and_then(Value::as_object)
        .expect("telemetry.counters member");
    let counter = |name: &str| {
        counters
            .get(name)
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("{name} missing"))
    };
    assert_eq!(counter("tlb.l1d.hits"), result.stats.tlb.l1d.hits());
    assert_eq!(counter("tlb.l1d.misses"), result.stats.tlb.l1d.misses());
    assert_eq!(counter("tlb.l2.hits"), result.stats.tlb.l2.hits());
    assert_eq!(counter("tlb.l2.misses"), result.stats.tlb.l2.misses());
    assert_eq!(counter("sim.walks"), result.stats.walks);
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
