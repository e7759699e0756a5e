//! Determinism contract of the live heartbeat stream: with the
//! volatile wall-clock fields stripped, the NDJSON emitted by a sweep
//! is byte-identical regardless of the thread count the run used, and
//! armed fault injection reports its fault events deterministically.
//! The stream closes with exactly one `run_end`, after everything else,
//! and arming it leaves the results document untouched.
//! Runs the real figure binaries end to end so
//! the claim covers the arming, manifest, progress-tick, and
//! reorder-buffer plumbing exactly as users exercise it.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Spec reused across the fault-determinism runs: arms every injector
/// at quick-visible rates with a pinned fault seed.
const FAULT_SPEC: &str =
    "tlb-bitflip@p=1e-3;walk-stall@p=1e-3,cycles=2000;alloc-fail@p=1e-4;seed=7";

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bf-heartbeat-e2e-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `<bin> --quick --heartbeat=<dir>/heartbeat.ndjson` in its own
/// scratch directory (the results documents land there, not in the
/// repo) and returns that directory. `BF_HEARTBEAT_EVERY` is forced low
/// enough that the quick cells emit in-cell progress snapshots — the
/// part of the stream most exposed to thread skew.
fn run_armed(bin: &str, name: &str, extra: &[&str]) -> PathBuf {
    let dir = temp_dir(name);
    let heartbeat = dir.join("heartbeat.ndjson");
    let out = Command::new(bin)
        .arg("--quick")
        .arg(format!("--heartbeat={}", heartbeat.display()))
        .args(extra)
        .env("BF_HEARTBEAT_EVERY", "512")
        .env_remove("BF_HEARTBEAT")
        .env_remove("BF_FAULTS")
        .current_dir(&dir)
        .output()
        .unwrap_or_else(|e| panic!("running {bin} for {name}: {e}"));
    assert!(
        out.status.success(),
        "{bin} {extra:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    dir
}

/// The heartbeat stream of a [`run_armed`] run, with the volatile
/// fields stripped.
fn stripped_stream_of(bin: &str, name: &str, extra: &[&str]) -> Vec<String> {
    let dir = run_armed(bin, name, extra);
    let lines = read_stripped(&dir.join("heartbeat.ndjson"));
    std::fs::remove_dir_all(&dir).ok();
    lines
}

fn stripped_stream(name: &str, extra: &[&str]) -> Vec<String> {
    stripped_stream_of(env!("CARGO_BIN_EXE_fig10_tlb"), name, extra)
}

fn read_stripped(heartbeat: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(heartbeat)
        .unwrap_or_else(|e| panic!("reading {}: {e}", heartbeat.display()));
    text.lines()
        .map(|line| {
            bf_telemetry::heartbeat::strip_volatile_line(line)
                .unwrap_or_else(|| panic!("unparseable heartbeat line: {line}"))
        })
        .collect()
}

fn events_of_kind<'a>(lines: &'a [String], kind: &str) -> Vec<&'a String> {
    let needle = format!("\"event\":\"{kind}\"");
    lines.iter().filter(|l| l.contains(&needle)).collect()
}

#[test]
fn stripped_stream_is_byte_identical_across_threads() {
    let reference = stripped_stream("t1", &["--threads=1"]);
    assert!(
        !events_of_kind(&reference, "progress").is_empty(),
        "the quick run emitted no progress snapshots — the comparison \
         would not cover the in-cell tick path"
    );
    assert!(
        !events_of_kind(&reference, "run_start").is_empty()
            && !events_of_kind(&reference, "run_end").is_empty(),
        "stream must be bracketed by run_start/run_end"
    );

    let threads4 = stripped_stream("t4", &["--threads=4"]);
    assert!(
        reference == threads4,
        "stripped heartbeat diverged between --threads 1 and 4:\n\
         1 thread : {} lines\n4 threads: {} lines",
        reference.len(),
        threads4.len()
    );
}

#[test]
fn armed_fault_runs_report_fault_events_deterministically() {
    let spec = format!("--faults={FAULT_SPEC}");
    let first = stripped_stream("faults-a", &["--threads=1", &spec]);
    let faults = events_of_kind(&first, "faults");
    assert!(
        !faults.is_empty(),
        "armed quick run reported no fault events"
    );
    // Non-zero injected counters actually made it into the report.
    assert!(
        faults.iter().any(|l| !l.contains("\"counters\":{}")),
        "fault events carry no counters: {faults:?}"
    );

    // Same spec, different thread count: the whole stripped stream —
    // fault events included — must be reproduced byte for byte.
    let second = stripped_stream("faults-b", &["--threads=4", &spec]);
    assert!(
        first == second,
        "armed fault streams diverged across thread counts:\n\
         run a: {} lines\nrun b: {} lines",
        first.len(),
        second.len()
    );
}

/// Binaries without a sweep keep their parsed arguments (and with them
/// the heartbeat guard) alive for the whole run, so `run_end` is
/// written once, after every `progress` event.
#[test]
fn run_end_is_the_last_line_of_a_non_sweep_binary() {
    let lines = stripped_stream_of(
        env!("CARGO_BIN_EXE_resource_overheads"),
        "resource-overheads",
        &[],
    );
    assert!(
        !events_of_kind(&lines, "progress").is_empty(),
        "the quick run emitted no progress snapshots"
    );
    assert_eq!(
        events_of_kind(&lines, "run_end").len(),
        1,
        "exactly one run_end"
    );
    let last = lines.last().expect("empty heartbeat stream");
    assert!(
        last.contains("\"event\":\"run_end\""),
        "run_end is not the last line: {last}"
    );
}

/// Arming the heartbeat adds nothing to the results document: the
/// armed run writes exactly one JSON file, and it is the committed
/// unarmed baseline byte for byte.
#[test]
fn armed_run_writes_the_unarmed_document() {
    let dir = run_armed(
        env!("CARGO_BIN_EXE_fig10_tlb"),
        "armed-doc",
        &["--threads=1"],
    );
    let results = dir.join("results");
    let mut written: Vec<String> = std::fs::read_dir(&results)
        .unwrap_or_else(|e| panic!("reading {}: {e}", results.display()))
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".json"))
        .collect();
    written.sort();
    let actual = std::fs::read(results.join("fig10_tlb-latest.json"));
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(written, ["fig10_tlb-latest.json"], "one results document");
    let baseline =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../ci/baseline/fig10_tlb-quick.json");
    let expected =
        std::fs::read(&baseline).unwrap_or_else(|e| panic!("reading {}: {e}", baseline.display()));
    let actual = actual.unwrap();
    assert!(
        actual == expected,
        "armed document differs from {}",
        baseline.display()
    );
}
