//! `bf-report`: explain how two results documents differ, and validate
//! the single-file exports.
//!
//! The figure binaries write nested JSON documents (stats, telemetry
//! snapshots, derived figures). This module flattens such a document
//! into dotted-path metrics — histograms become `.count`/`.mean`/
//! `.p50`/`.p90`/`.p99` — so two runs can be compared metric by metric:
//!
//! ```text
//! bf-report diff ci/baseline/fig10_tlb-quick.json results/fig10_tlb-latest.json
//! ```
//!
//! The simulator is deterministic, so CI compares every output with its
//! committed baseline byte for byte (`cmp`, `diff`, `sha256sum -c`);
//! `diff` is how a person reads a mismatch, not a gate.
//!
//! `timeline` renders a `<figure>-timeline-latest.json` export written
//! by the figure binaries under `--timeline`: per-cell ASCII sparklines
//! of each metric's per-epoch rate, the first/mid/last phase summary,
//! and the window total of every other counter. It also validates the export — epoch deltas must sum to the
//! whole-window total and the recorded invariant-violation list must be
//! empty — and exits 1 otherwise:
//!
//! ```text
//! bf-report timeline results/fig10_tlb-timeline-latest.json
//! ```

use serde::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Flattens a results document into `dotted.path -> f64` metrics.
///
/// Objects recurse with `.key` segments; arrays of objects use the
/// element's `app`/`name` field as the segment when present (the shape
/// the figure binaries emit for their `rows`), else the index. Objects
/// carrying both `count` and `buckets` are treated as histogram
/// snapshots and summarised into count/mean/percentiles instead of
/// being walked bucket by bucket.
pub fn flatten(doc: &Value) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    walk(doc, String::new(), &mut out);
    out
}

fn walk(value: &Value, path: String, out: &mut BTreeMap<String, f64>) {
    match value {
        Value::Object(map) => {
            if map.contains_key("count") && map.contains_key("buckets") {
                flatten_histogram(map, &path, out);
                return;
            }
            for (key, child) in map {
                // The top-level run manifest is run identity, not
                // metrics: diff must never show it.
                if path.is_empty() && key == "manifest" {
                    continue;
                }
                walk(child, join(&path, key), out);
            }
        }
        Value::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                let segment = item
                    .get("app")
                    .or_else(|| item.get("name"))
                    .and_then(Value::as_str)
                    .map(str::to_owned)
                    .unwrap_or_else(|| i.to_string());
                walk(item, join(&path, &segment), out);
            }
        }
        _ => {
            if let Some(n) = value.as_f64() {
                out.insert(path, n);
            }
        }
    }
}

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_owned()
    } else {
        format!("{path}.{key}")
    }
}

/// Summarises one histogram snapshot (the `bf-telemetry` log2-bucket
/// export: bucket 0 holds the value 0, bucket `i` holds
/// `[2^(i-1), 2^i)`).
fn flatten_histogram(map: &BTreeMap<String, Value>, path: &str, out: &mut BTreeMap<String, f64>) {
    let count = map.get("count").and_then(Value::as_f64).unwrap_or(0.0);
    out.insert(join(path, "count"), count);
    if let Some(mean) = map.get("mean").and_then(Value::as_f64) {
        out.insert(join(path, "mean"), mean);
    }
    let buckets: Vec<u64> = map
        .get("buckets")
        .and_then(Value::as_array)
        .map(|a| a.iter().filter_map(Value::as_u64).collect())
        .unwrap_or_default();
    for (label, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
        out.insert(join(path, label), bucket_percentile(&buckets, q));
    }
}

/// The `q`-quantile upper bound from log2 bucket counts (bucket `i`'s
/// representative value is `2^i - 1`; bucket 0 is exactly 0).
fn bucket_percentile(buckets: &[u64], q: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = (q * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, &n) in buckets.iter().enumerate() {
        seen += n;
        if seen >= target {
            return if i == 0 {
                0.0
            } else {
                ((1u64 << i) - 1) as f64
            };
        }
    }
    ((1u64 << (buckets.len() - 1)) - 1) as f64
}

/// One metric's movement between two documents.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Dotted metric path.
    pub name: String,
    /// Value in the first (baseline) document, if present.
    pub base: Option<f64>,
    /// Value in the second (current) document, if present.
    pub current: Option<f64>,
}

impl DiffRow {
    /// Relative change in percent (`+` = current larger). `None` when
    /// either side is missing or the baseline is zero with movement.
    pub fn ratio_pct(&self) -> Option<f64> {
        let (base, current) = (self.base?, self.current?);
        if base == 0.0 {
            return if current == 0.0 { Some(0.0) } else { None };
        }
        Some((current - base) / base.abs() * 100.0)
    }

    /// Sort key: biggest relative movers first, metrics that appeared or
    /// vanished (or moved off a zero baseline) ahead of everything.
    fn magnitude(&self) -> f64 {
        self.ratio_pct().map_or(f64::INFINITY, f64::abs)
    }
}

/// Flattens both documents and returns every metric whose value moved
/// (or exists on only one side), biggest relative movement first.
pub fn diff(base: &Value, current: &Value) -> Vec<DiffRow> {
    let base = flatten(base);
    let current = flatten(current);
    let mut names: Vec<&String> = base.keys().chain(current.keys()).collect();
    names.sort();
    names.dedup();
    let mut rows: Vec<DiffRow> = names
        .into_iter()
        .map(|name| DiffRow {
            name: name.clone(),
            base: base.get(name).copied(),
            current: current.get(name).copied(),
        })
        .filter(|row| row.base != row.current)
        .collect();
    rows.sort_by(|a, b| {
        b.magnitude()
            .partial_cmp(&a.magnitude())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.name.cmp(&b.name))
    });
    rows
}

/// Renders the top `top` diff rows as an aligned text table. Metrics
/// present in only one of the two documents are pulled out of the table
/// into explicit "only in base" / "only in current" sections with
/// exact counts, so a renamed or vanished metric can never hide inside
/// a long list of small movers.
pub fn render_diff(rows: &[DiffRow], top: usize) -> String {
    let changed: Vec<&DiffRow> = rows
        .iter()
        .filter(|r| r.base.is_some() && r.current.is_some())
        .collect();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<56} {:>14} {:>14} {:>9}",
        "metric", "base", "current", "change"
    );
    for row in changed.iter().take(top) {
        let fmt = |v: Option<f64>| v.map_or("-".to_owned(), |n| format!("{n:.3}"));
        let change = row
            .ratio_pct()
            .map_or("off-zero".to_owned(), |p| format!("{p:+.1}%"));
        let _ = writeln!(
            out,
            "{:<56} {:>14} {:>14} {:>9}",
            row.name,
            fmt(row.base),
            fmt(row.current),
            change
        );
    }
    if changed.len() > top {
        let _ = writeln!(out, "... and {} more changed metrics", changed.len() - top);
    }
    for (label, side) in [
        ("only in base", Side::Base),
        ("only in current", Side::Current),
    ] {
        let one_sided: Vec<&DiffRow> = rows
            .iter()
            .filter(|r| match side {
                Side::Base => r.current.is_none(),
                Side::Current => r.base.is_none(),
            })
            .collect();
        if one_sided.is_empty() {
            continue;
        }
        let _ = writeln!(out, "\n{} metric(s) {label}:", one_sided.len());
        for row in one_sided.iter().take(top) {
            let value = match side {
                Side::Base => row.base,
                Side::Current => row.current,
            };
            let _ = writeln!(out, "  {:<56} {:>14.3}", row.name, value.unwrap_or(0.0));
        }
        if one_sided.len() > top {
            let _ = writeln!(out, "  ... and {} more", one_sided.len() - top);
        }
    }
    out
}

/// Which document a one-sided [`DiffRow`] exists in.
enum Side {
    Base,
    Current,
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e:?}"))
}

/// Exit code when a trace fails block CRC / record-count validation.
pub const EXIT_CORRUPT_TRACE: i32 = 3;

/// `bf-report trace <file.bft>`: print the trace header and stream
/// statistics while validating every block CRC and record count.
/// Corruption exits [`EXIT_CORRUPT_TRACE`]. `--salvage` reads a damaged
/// trace in resync mode instead: corrupt blocks are skipped, decoding
/// resumes at the next self-consistent block header, and the loss
/// accounting is printed (exit 0 — salvage succeeding is the point).
fn run_trace(args: &[String]) -> Result<i32, String> {
    use babelfish::capture::{SalvageReader, TraceReader, TraceStats};

    let mut files = Vec::new();
    let mut salvage = false;
    for arg in args {
        if arg == "--salvage" {
            salvage = true;
        } else if arg.starts_with('-') {
            return Err(format!("unknown trace argument '{arg}'\n{USAGE}"));
        } else {
            files.push(arg.clone());
        }
    }
    let [path] = files.as_slice() else {
        return Err(format!(
            "trace mode takes one .bft file, got {}\n{USAGE}",
            files.len()
        ));
    };
    if salvage {
        let mut reader = SalvageReader::open(path).map_err(|e| format!("opening {path}: {e}"))?;
        println!("{path} (salvage):");
        for (key, value) in reader.meta().entries() {
            println!("  {key} = {value}");
        }
        let yielded = reader.by_ref().count();
        let report = reader.report();
        println!("  {yielded} records decoded");
        println!("  {report}");
        return Ok(0);
    }
    let reader = TraceReader::open(path).map_err(|e| format!("opening {path}: {e}"))?;
    println!("{path}:");
    for (key, value) in reader.meta().entries() {
        println!("  {key} = {value}");
    }
    // The scan decodes every record, which validates every block's CRC
    // and declared record count along the way.
    match TraceStats::scan(reader) {
        Ok(stats) => {
            println!(
                "  {} records in {} blocks ({} payload bytes, {:.2} bytes/record)",
                stats.records,
                stats.blocks,
                stats.payload_bytes,
                stats.bytes_per_record()
            );
            println!(
                "  {} accesses, {} switches, {} request ends, {} resets, {} streams",
                stats.accesses, stats.switches, stats.request_ends, stats.resets, stats.streams
            );
            println!("  all block CRCs and record counts valid");
            Ok(0)
        }
        Err(error) => {
            println!("FAIL  {path}: {error}");
            Ok(EXIT_CORRUPT_TRACE)
        }
    }
}

/// The metrics `bf-report timeline` sparklines by default (override
/// with `--metric`).
const DEFAULT_TIMELINE_METRICS: [&str; 4] = [
    "tlb.l2.misses",
    "pgtable.walks",
    "cache.dram.accesses",
    "sim.instructions",
];

/// Density ramp for the ASCII sparklines (space = zero, `@` = the
/// series maximum).
const SPARK_RAMP: &[u8] = b" .:-=+*#@";

/// Renders `values` as one ASCII sparkline character per element,
/// normalised to the series maximum.
pub fn sparkline(values: &[f64]) -> String {
    let max = values.iter().cloned().fold(0.0f64, f64::max);
    values
        .iter()
        .map(|&v| {
            let idx = if max <= 0.0 {
                0
            } else {
                ((v / max) * (SPARK_RAMP.len() - 1) as f64).round() as usize
            };
            SPARK_RAMP[idx.min(SPARK_RAMP.len() - 1)] as char
        })
        .collect()
}

/// One cell of a `<figure>-timeline` document, picked apart for
/// rendering and validation. Cells that ran without a timeline (the
/// JSON `null`) are skipped by [`timeline_cells`].
struct TimelineCell<'a> {
    name: String,
    timeline: &'a Value,
}

/// Extracts the non-null cells of a timeline document, in order.
fn timeline_cells(doc: &Value) -> Result<Vec<TimelineCell<'_>>, String> {
    let cells = doc
        .get("cells")
        .and_then(Value::as_array)
        .ok_or("document has no 'cells' array — not a timeline export?")?;
    Ok(cells
        .iter()
        .enumerate()
        .filter_map(|(i, cell)| {
            let timeline = cell.get("timeline")?;
            if matches!(timeline, Value::Null) {
                return None;
            }
            Some(TimelineCell {
                name: cell
                    .get("name")
                    .and_then(Value::as_str)
                    .map_or_else(|| i.to_string(), str::to_owned),
                timeline,
            })
        })
        .collect())
}

/// Validates the conservation law of one timeline document: for every
/// cell, the epoch deltas of each counter must sum to the whole-window
/// total, the epoch access counts must sum to `total_accesses`, and the
/// recorded violation list must be empty. Returns every failure as a
/// human-readable line (empty = clean).
pub fn validate_timeline_doc(doc: &Value) -> Result<Vec<String>, String> {
    let mut failures = Vec::new();
    for cell in timeline_cells(doc)? {
        let epochs = cell
            .timeline
            .get("epochs")
            .and_then(Value::as_array)
            .unwrap_or(&[]);
        let accesses: u64 = epochs
            .iter()
            .filter_map(|e| e.get("accesses").and_then(Value::as_u64))
            .sum();
        let total_accesses = cell
            .timeline
            .get("total_accesses")
            .and_then(Value::as_u64)
            .unwrap_or(0);
        if accesses != total_accesses {
            failures.push(format!(
                "{}: epoch accesses sum to {accesses}, total_accesses says {total_accesses}",
                cell.name
            ));
        }
        if let Some(totals) = cell
            .timeline
            .get("total")
            .and_then(|t| t.get("counters"))
            .and_then(Value::as_object)
        {
            for (counter, total) in totals {
                let total = total.as_u64().unwrap_or(0);
                let summed: u64 = epochs
                    .iter()
                    .filter_map(|e| {
                        e.get("delta")
                            .and_then(|d| d.get("counters"))
                            .and_then(|c| c.get(counter))
                            .and_then(Value::as_u64)
                    })
                    .sum();
                if summed != total {
                    failures.push(format!(
                        "{}: counter '{counter}' epochs sum to {summed}, total says {total}",
                        cell.name
                    ));
                }
            }
        }
        if let Some(violations) = cell
            .timeline
            .get("violations")
            .and_then(Value::as_array)
            .filter(|v| !v.is_empty())
        {
            for violation in violations {
                let invariant = violation
                    .get("invariant")
                    .and_then(Value::as_str)
                    .unwrap_or("?");
                let detail = violation
                    .get("detail")
                    .and_then(Value::as_str)
                    .unwrap_or("");
                let epoch = violation.get("epoch").and_then(Value::as_u64).unwrap_or(0);
                failures.push(format!(
                    "{}: invariant '{invariant}' violated at epoch {epoch}: {detail}",
                    cell.name
                ));
            }
        }
    }
    Ok(failures)
}

/// Renders one timeline document: per-cell sparklines of each chosen
/// metric's per-epoch rate (events per 1000 accesses), the
/// first/mid/last phase summary table, and one `totals` line with the
/// window total of every counter not sparklined, so a change to any
/// counter shows in the rendered summary.
fn render_timeline(doc: &Value, metrics: &[String]) -> Result<(), String> {
    for cell in timeline_cells(doc)? {
        let epochs = cell
            .timeline
            .get("epochs")
            .and_then(Value::as_array)
            .unwrap_or(&[]);
        let interval = cell
            .timeline
            .get("interval")
            .and_then(Value::as_u64)
            .unwrap_or(0);
        let base_interval = cell
            .timeline
            .get("base_interval")
            .and_then(Value::as_u64)
            .unwrap_or(0);
        let total_accesses = cell
            .timeline
            .get("total_accesses")
            .and_then(Value::as_u64)
            .unwrap_or(0);
        println!(
            "\n{}: {} epochs x {} accesses ({} total{})",
            cell.name,
            epochs.len(),
            interval,
            total_accesses,
            if interval != base_interval {
                format!(", merge-halved from {base_interval}")
            } else {
                String::new()
            }
        );
        for metric in metrics {
            // Per-epoch rate: counter delta per 1000 accesses, so cells
            // of different epoch intervals stay comparable.
            let rates: Vec<f64> = epochs
                .iter()
                .map(|e| {
                    let n = e
                        .get("delta")
                        .and_then(|d| d.get("counters"))
                        .and_then(|c| c.get(metric))
                        .and_then(Value::as_u64)
                        .unwrap_or(0);
                    let accesses = e.get("accesses").and_then(Value::as_u64).unwrap_or(0);
                    if accesses == 0 {
                        0.0
                    } else {
                        1000.0 * n as f64 / accesses as f64
                    }
                })
                .collect();
            let max = rates.iter().cloned().fold(0.0f64, f64::max);
            println!(
                "  {:<24} |{}| peak {:.1}/1k",
                metric,
                sparkline(&rates),
                max
            );
        }
        if let Some(phases) = cell
            .timeline
            .get("phases")
            .and_then(Value::as_object)
            .filter(|p| !p.is_empty())
        {
            println!(
                "  {:<8} {:>7} {:>10} {:>10}",
                "phase", "epochs", "accesses", "l2_mpki"
            );
            for name in ["first", "mid", "last"] {
                let Some(phase) = phases.get(name) else {
                    continue;
                };
                let get = |k: &str| phase.get(k).and_then(Value::as_u64).unwrap_or(0);
                let mpki = phase
                    .get("l2_mpki")
                    .and_then(Value::as_f64)
                    .map_or("-".to_owned(), |m| format!("{m:.3}"));
                println!(
                    "  {:<8} {:>7} {:>10} {:>10}",
                    name,
                    get("epochs"),
                    get("accesses"),
                    mpki
                );
            }
        }
        if let Some(totals) = cell
            .timeline
            .get("total")
            .and_then(|t| t.get("counters"))
            .and_then(Value::as_object)
        {
            let mut line = String::from("  totals");
            for (counter, total) in totals.iter().filter(|(c, _)| !metrics.contains(*c)) {
                let _ = write!(line, " {counter}={}", total.as_u64().unwrap_or(0));
            }
            println!("{line}");
        }
    }
    Ok(())
}

/// `bf-report timeline <file>`: validate the conservation law and
/// recorded invariants of `<file>` and render sparklines and phase
/// summaries. Returns `Ok(true)` — exit code 1 — when validation fails.
fn run_timeline(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut metrics: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--metric" => metrics.push(iter.next().ok_or("--metric needs a counter name")?.clone()),
            other if !other.starts_with("--") => files.push(other.to_owned()),
            other => return Err(format!("unknown timeline argument '{other}'\n{USAGE}")),
        }
    }
    if metrics.is_empty() {
        metrics = DEFAULT_TIMELINE_METRICS
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
    }
    let [path] = files.as_slice() else {
        return Err(format!(
            "timeline mode takes one JSON file, got {}\n{USAGE}",
            files.len()
        ));
    };
    let doc = load(path)?;
    render_timeline(&doc, &metrics)?;
    let failures = validate_timeline_doc(&doc)?;
    if failures.is_empty() {
        println!("\ntimeline OK: conservation holds, no invariant violations");
        Ok(false)
    } else {
        for failure in &failures {
            println!("FAIL  {failure}");
        }
        println!(
            "\ntimeline validation FAILED ({} problem(s))",
            failures.len()
        );
        Ok(true)
    }
}

/// The keys every serialized [`bf_telemetry::ProfileSnapshot`] must
/// carry; `bf-report profile` refuses documents missing any of them, so
/// the CI schema check is just a render.
const PROFILE_KEYS: [&str; 12] = [
    "top_k",
    "region_shift",
    "total_misses",
    "total_walks",
    "total_walk_cycles",
    "miss_error_bound",
    "miss_top_share",
    "miss_regions",
    "walk_regions",
    "blame",
    "paths",
    "sets",
];

/// Validates a `<figure>-profile` document and returns its cells as
/// `(name, profile-or-null)` pairs. Errors name the first missing key.
fn validate_profile_doc(doc: &Value) -> Result<Vec<(String, &Value)>, String> {
    let figure = doc
        .get("figure")
        .and_then(Value::as_str)
        .ok_or("not a profile document: no 'figure' key")?;
    if !figure.ends_with("-profile") {
        return Err(format!(
            "'{figure}' is not a profile document (expected a '<figure>-profile' export)"
        ));
    }
    let cells = doc
        .get("cells")
        .and_then(Value::as_array)
        .ok_or("profile document has no 'cells' array")?;
    let mut out = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let name = cell
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("cell {i} has no 'name'"))?;
        let profile = cell
            .get("profile")
            .ok_or_else(|| format!("cell '{name}' has no 'profile' key"))?;
        if !matches!(profile, Value::Null) {
            for key in PROFILE_KEYS {
                if profile.get(key).is_none() {
                    return Err(format!("cell '{name}': profile is missing '{key}'"));
                }
            }
        }
        out.push((name.to_owned(), profile));
    }
    Ok(out)
}

/// Renders one cell's region sketch (`miss_regions` / `walk_regions`)
/// as a top-N table. `unit` labels the count column.
fn render_region_table(profile: &Value, key: &str, unit: &str, top: usize) {
    let regions = profile.get(key).and_then(Value::as_array).unwrap_or(&[]);
    let shift = profile
        .get("region_shift")
        .and_then(Value::as_u64)
        .unwrap_or(0);
    if regions.is_empty() {
        println!("  (no {key})");
        return;
    }
    println!(
        "  {:<6} {:>18} {:>14} {:>12}",
        "ccid", "region base", unit, "err<="
    );
    for entry in regions.iter().take(top) {
        let ccid = entry.get("ccid").and_then(Value::as_u64).unwrap_or(0);
        let region = entry.get("region").and_then(Value::as_u64).unwrap_or(0);
        let count = entry.get("count").and_then(Value::as_u64).unwrap_or(0);
        let error = entry.get("error").and_then(Value::as_u64).unwrap_or(0);
        println!(
            "  {:<6} {:>#18x} {:>14} {:>12}",
            ccid,
            region << (shift + 12),
            count,
            error
        );
    }
    if regions.len() > top {
        println!("  ... {} more monitored regions", regions.len() - top);
    }
}

/// Renders a `<figure>-profile` export: per-cell top-N hot-region
/// tables (misses and walk cycles), the L2 TLB set-conflict summary,
/// per-container blame, and the hottest walk paths. `--folded FILE`
/// additionally writes every cell's walk paths as folded stacks
/// (`cell;ccidN;pidN;pgd:...;pte:... count`) ready for
/// `flamegraph.pl` / `inferno-flamegraph`. Errors (exit 2) when the
/// document does not match the profile export schema.
fn run_profile(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut top = 10usize;
    let mut folded: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--top" => {
                let n = iter.next().ok_or("--top needs a number")?;
                top = n.parse().map_err(|_| format!("bad --top '{n}'"))?;
            }
            "--folded" => folded = Some(iter.next().ok_or("--folded needs a path")?.clone()),
            other if !other.starts_with("--") => files.push(other.to_owned()),
            other => return Err(format!("unknown profile argument '{other}'\n{USAGE}")),
        }
    }
    let [path] = files.as_slice() else {
        return Err(format!(
            "profile mode takes one JSON file, got {}\n{USAGE}",
            files.len()
        ));
    };
    let doc = load(path)?;
    let cells = validate_profile_doc(&doc)?;

    let mut folded_text = String::new();
    for (name, profile) in &cells {
        println!("\ncell {name}");
        println!("{}", "-".repeat(name.len() + 5));
        if matches!(profile, Value::Null) {
            println!("  (no profile: cell ran without --profile)");
            continue;
        }
        let scalar = |key: &str| profile.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        println!(
            "  misses {} / walks {} / walk cycles {}  (sketch K={}, count error <= {})",
            scalar("total_misses"),
            scalar("total_walks"),
            scalar("total_walk_cycles"),
            scalar("top_k"),
            scalar("miss_error_bound"),
        );
        println!(
            "  top-K miss share: {:.1}%",
            scalar("miss_top_share") * 100.0
        );

        println!("\n  hottest regions by TLB misses:");
        render_region_table(profile, "miss_regions", "misses", top);
        println!("\n  hottest regions by walk cycles:");
        render_region_table(profile, "walk_regions", "cycles", top);

        if let Some(sets) = profile
            .get("sets")
            .filter(|s| !matches!(s, Value::Null))
            .and_then(Value::as_object)
        {
            let get = |key: &str| sets.get(key).and_then(Value::as_f64).unwrap_or(0.0);
            println!(
                "\n  L2 TLB sets: {} sets, {} misses, {} evictions, skew(max/mean) {:.2}, top-decile share {:.1}%",
                get("sets"),
                get("total_misses"),
                get("total_evictions"),
                get("skew"),
                get("top_decile_share") * 100.0
            );
        }

        let blame = profile
            .get("blame")
            .and_then(Value::as_array)
            .unwrap_or(&[]);
        if !blame.is_empty() {
            println!("\n  blame (per ccid/pid):");
            println!(
                "  {:<6} {:<8} {:>12} {:>10} {:>14}",
                "ccid", "pid", "misses", "walks", "walk cycles"
            );
            for entry in blame.iter().take(top) {
                let get = |key: &str| entry.get(key).and_then(Value::as_u64).unwrap_or(0);
                println!(
                    "  {:<6} {:<8} {:>12} {:>10} {:>14}",
                    get("ccid"),
                    get("pid"),
                    get("misses"),
                    get("walks"),
                    get("walk_cycles")
                );
            }
            if blame.len() > top {
                println!("  ... {} more containers", blame.len() - top);
            }
        }

        let paths = profile
            .get("paths")
            .and_then(Value::as_array)
            .unwrap_or(&[]);
        if !paths.is_empty() {
            println!("\n  hottest walk paths:");
            let mut by_count: Vec<&Value> = paths.iter().collect();
            by_count.sort_by_key(|p| std::cmp::Reverse(p.get("count").and_then(Value::as_u64)));
            for entry in by_count.iter().take(top) {
                println!(
                    "  {:>10}  ccid{} pid{}  {}",
                    entry.get("count").and_then(Value::as_u64).unwrap_or(0),
                    entry.get("ccid").and_then(Value::as_u64).unwrap_or(0),
                    entry.get("pid").and_then(Value::as_u64).unwrap_or(0),
                    entry.get("path").and_then(Value::as_str).unwrap_or("?"),
                );
            }
        }
        for entry in paths {
            let _ = writeln!(
                folded_text,
                "{name};ccid{};pid{};{} {}",
                entry.get("ccid").and_then(Value::as_u64).unwrap_or(0),
                entry.get("pid").and_then(Value::as_u64).unwrap_or(0),
                entry.get("path").and_then(Value::as_str).unwrap_or("?"),
                entry.get("count").and_then(Value::as_u64).unwrap_or(0),
            );
        }
    }

    if let Some(folded_path) = folded {
        std::fs::write(&folded_path, folded_text)
            .map_err(|e| format!("writing {folded_path}: {e}"))?;
        println!("\nwrote {folded_path} (render: flamegraph.pl {folded_path} > profile.svg)");
    }
    Ok(false)
}

/// The `bf-report` command line: one of the subcommands listed in the
/// usage text. Returns the process exit code (0 ok, 1 failed
/// validation, 2 usage/IO error, 3 corrupt trace — see the usage
/// text). `--help` anywhere prints the usage to stdout and exits
/// 0; no arguments or an unknown subcommand prints it to stderr and
/// exits 2.
pub fn run_cli(args: &[String]) -> i32 {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return 0;
    }
    if args.is_empty() {
        eprintln!("bf-report: a subcommand is required\n{USAGE}");
        return 2;
    }
    match run(args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("bf-report: {message}");
            2
        }
    }
}

const USAGE: &str = "usage: bf-report <subcommand> [args...]

subcommands:
  timeline  timeline <file.json> [--metric NAME ...]
            render + validate a <figure>-timeline export
  trace     trace <trace.bft> [--salvage]
            summarise a captured binary trace and validate its block
            CRCs; --salvage skips corrupt blocks, resyncs at the next
            valid block header, and prints the exact loss accounting
  diff      diff <base.json> <current.json> [--top N]
            flatten two results documents and show metric movement
  profile   profile <figure-profile.json> [--top N] [--folded FILE]
            render a <figure>-profile export: hot regions, TLB set
            conflicts, per-container blame, walk-path flamegraph stacks

  -h, --help  print this message

exit codes:
  0  success
  1  timeline validation failure
  2  usage or I/O error
  3  corrupt trace (CRC/framing damage; try trace --salvage)";

/// Folds a bool-style subcommand result (`true` = failed) into the
/// classic 0/1 exit codes.
fn exit_flag(failed: bool) -> i32 {
    if failed {
        1
    } else {
        0
    }
}

fn run(args: &[String]) -> Result<i32, String> {
    match args.first().map(String::as_str).unwrap_or_default() {
        "timeline" => run_timeline(&args[1..]).map(exit_flag),
        "trace" => run_trace(&args[1..]),
        "profile" => run_profile(&args[1..]).map(exit_flag),
        "diff" => run_diff(&args[1..]).map(|()| 0),
        other => Err(format!("unknown subcommand '{other}'\n{USAGE}")),
    }
}

/// `bf-report diff <base> <current>`: print every metric that moved
/// between the two documents, biggest relative movement first.
fn run_diff(args: &[String]) -> Result<(), String> {
    let mut files = Vec::new();
    let mut top = 20usize;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--top" => {
                let n = iter.next().ok_or("--top needs a number")?;
                top = n.parse().map_err(|_| format!("bad --top '{n}'"))?;
            }
            other if !other.starts_with("--") => files.push(other.to_owned()),
            other => return Err(format!("unknown diff argument '{other}'\n{USAGE}")),
        }
    }
    let [base_path, current_path] = files.as_slice() else {
        return Err(format!(
            "diff mode takes two JSON files, got {}\n{USAGE}",
            files.len()
        ));
    };
    let rows = diff(&load(base_path)?, &load(current_path)?);
    print!("{}", render_diff(&rows, top));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json_object;

    #[test]
    fn flatten_uses_app_names_and_histograms() {
        let doc = json_object([
            (
                "rows",
                Value::Array(vec![json_object([
                    ("app", Value::String("fio".to_owned())),
                    ("x", Value::U64(7)),
                ])]),
            ),
            (
                "latency",
                json_object([
                    ("count", Value::U64(4)),
                    ("mean", Value::F64(2.5)),
                    (
                        "buckets",
                        Value::Array(vec![
                            Value::U64(1), // value 0
                            Value::U64(1), // value 1
                            Value::U64(2), // values 2..4
                        ]),
                    ),
                ]),
            ),
        ]);
        let flat = flatten(&doc);
        assert_eq!(flat.get("rows.fio.x"), Some(&7.0));
        assert_eq!(flat.get("latency.count"), Some(&4.0));
        assert_eq!(flat.get("latency.p50"), Some(&1.0));
        assert_eq!(flat.get("latency.p99"), Some(&3.0));
        assert!(
            !flat.keys().any(|k| k.starts_with("latency.buckets")),
            "histograms are summarised, not walked"
        );
    }

    #[test]
    fn manifest_is_invisible_to_diff() {
        // Two documents with identical metrics but entirely different
        // manifests: diff shows nothing.
        let manifest = |hash: &str, seed: u64| {
            json_object([
                ("config_hash", Value::String(hash.to_owned())),
                ("seed", Value::U64(seed)),
            ])
        };
        let base = json_object([
            ("l2_mpki", Value::F64(12.5)),
            ("manifest", manifest("aaaaaaaaaaaaaaaa", 1)),
        ]);
        let current = json_object([
            ("l2_mpki", Value::F64(12.5)),
            ("manifest", manifest("bbbbbbbbbbbbbbbb", 4)),
        ]);

        assert!(
            !flatten(&base).keys().any(|k| k.contains("manifest")),
            "manifest leaked into flattened metrics"
        );
        assert!(
            diff(&base, &current).is_empty(),
            "manifest-only differences must not diff"
        );
    }

    #[test]
    fn diff_ranks_biggest_movers_first() {
        let a = json_object([("x", Value::F64(100.0)), ("y", Value::F64(10.0))]);
        let b = json_object([("x", Value::F64(101.0)), ("y", Value::F64(20.0))]);
        let rows = diff(&a, &b);
        assert_eq!(rows[0].name, "y");
        assert_eq!(rows[0].ratio_pct(), Some(100.0));
        assert_eq!(rows[1].name, "x");
    }

    #[test]
    fn one_sided_metrics_get_explicit_sections() {
        let base = json_object([
            ("gone_metric", Value::F64(3.0)),
            ("shared", Value::F64(1.0)),
        ]);
        let current = json_object([("new_metric", Value::F64(7.0)), ("shared", Value::F64(2.0))]);
        let rows = diff(&base, &current);
        let text = render_diff(&rows, 20);
        assert!(text.contains("1 metric(s) only in base:"), "{text}");
        assert!(text.contains("gone_metric"), "{text}");
        assert!(text.contains("1 metric(s) only in current:"), "{text}");
        assert!(text.contains("new_metric"), "{text}");
        assert!(text.contains("shared"), "two-sided movement still tabled");

        // One-sided rows must not eat the changed-metrics budget: with
        // top=1 the single changed metric still appears.
        let squeezed = render_diff(&rows, 1);
        assert!(squeezed.contains("shared"), "{squeezed}");
        assert!(squeezed.contains("gone_metric"), "{squeezed}");

        // No sections when both documents cover the same metrics.
        let clean = render_diff(&diff(&base, &base), 20);
        assert!(!clean.contains("only in"), "{clean}");
    }

    #[test]
    fn trace_mode_validates_and_compares() {
        use babelfish::capture::{Record, TraceMeta, TraceWriter};
        use babelfish::types::{AccessKind, Pid, VirtAddr};

        let dir = std::env::temp_dir().join(format!("bf-report-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, records: &[Record]| {
            let mut meta = TraceMeta::new();
            meta.set("mode", "babelfish");
            let path = dir.join(name);
            let mut writer = TraceWriter::new(Vec::new(), &meta).unwrap();
            for record in records {
                writer.record(record).unwrap();
            }
            std::fs::write(&path, writer.finish().unwrap()).unwrap();
            path.display().to_string()
        };
        let access = |va: u64| Record::Access {
            core: 0,
            pid: Pid::new(1),
            va: VirtAddr::new(va),
            kind: AccessKind::Read,
            instrs_before: 2,
        };
        let a = write("a.bft", &[access(0x1000), Record::Reset, access(0x2000)]);

        let args = |files: &[&str]| {
            std::iter::once("trace".to_owned())
                .chain(files.iter().map(|s| (*s).to_owned()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run_cli(&args(&[&a])), 0, "clean trace validates");
        assert_eq!(run_cli(&args(&[&a, &a])), 2, "one file per call");

        // Corrupt one payload byte: validation must exit 3, and the
        // salvage pass over the same bytes must still succeed (exit 0).
        let mut bytes = std::fs::read(&a).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let corrupt = dir.join("corrupt.bft").display().to_string();
        std::fs::write(&corrupt, bytes).unwrap();
        assert_eq!(run_cli(&args(&[&corrupt])), EXIT_CORRUPT_TRACE);
        assert_eq!(run_cli(&args(&[&corrupt, "--salvage"])), 0);

        std::fs::remove_dir_all(&dir).ok();
    }

    /// Pins the documented exit-code contract: the codes appear in the
    /// usage text and keep their values — scripts and CI grep for them.
    #[test]
    fn exit_codes_are_pinned_and_documented() {
        assert_eq!(EXIT_CORRUPT_TRACE, 3);
        assert!(USAGE.contains("exit codes"), "{USAGE}");
        assert!(USAGE.contains("3  corrupt trace"), "{USAGE}");
        assert!(USAGE.contains("--salvage"), "{USAGE}");
    }

    #[test]
    fn sparkline_normalises_to_the_peak() {
        assert_eq!(sparkline(&[0.0, 4.0, 8.0]), " =@");
        assert_eq!(sparkline(&[0.0, 0.0]), "  ", "all-zero series stays flat");
        assert_eq!(sparkline(&[]), "");
    }

    fn timeline_export_doc(epoch_misses: [u64; 2], total_misses: u64) -> Value {
        let epoch = |misses: u64| {
            json_object([
                ("accesses", Value::U64(64)),
                (
                    "delta",
                    json_object([(
                        "counters",
                        json_object([("tlb.l2.misses", Value::U64(misses))]),
                    )]),
                ),
            ])
        };
        json_object([(
            "cells",
            Value::Array(vec![json_object([
                ("name", Value::String("cell".to_owned())),
                (
                    "timeline",
                    json_object([
                        ("total_accesses", Value::U64(128)),
                        (
                            "epochs",
                            Value::Array(vec![epoch(epoch_misses[0]), epoch(epoch_misses[1])]),
                        ),
                        (
                            "total",
                            json_object([(
                                "counters",
                                json_object([("tlb.l2.misses", Value::U64(total_misses))]),
                            )]),
                        ),
                        ("violations", Value::Array(vec![])),
                    ]),
                ),
            ])]),
        )])
    }

    #[test]
    fn timeline_validation_checks_conservation_and_violations() {
        let clean = timeline_export_doc([3, 4], 7);
        assert!(validate_timeline_doc(&clean).unwrap().is_empty());

        // Epoch deltas no longer sum to the total: validation must name
        // the counter.
        let broken = timeline_export_doc([3, 4], 9);
        let failures = validate_timeline_doc(&broken).unwrap();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("tlb.l2.misses"), "{failures:?}");

        // Cells without a timeline (null) are skipped, not errors.
        let off = json_object([(
            "cells",
            Value::Array(vec![json_object([
                ("name", Value::String("cell".to_owned())),
                ("timeline", Value::Null),
            ])]),
        )]);
        assert!(validate_timeline_doc(&off).unwrap().is_empty());

        // A recorded invariant violation fails validation by name.
        let mut violated = timeline_export_doc([3, 4], 7);
        if let Some(Value::Array(violations)) = violated
            .get_mut("cells")
            .and_then(|c| match c {
                Value::Array(cells) => cells.first_mut(),
                _ => None,
            })
            .and_then(|cell| cell.get_mut("timeline"))
            .and_then(|t| t.get_mut("violations"))
        {
            violations.push(json_object([
                (
                    "invariant",
                    Value::String("tlb.l2.shared_hits_within_hits".to_owned()),
                ),
                ("detail", Value::String("counter corrupted".to_owned())),
                ("epoch", Value::U64(3)),
            ]));
        } else {
            panic!("test document lost its violations array");
        }
        let failures = validate_timeline_doc(&violated).unwrap();
        assert_eq!(failures.len(), 1);
        assert!(
            failures[0].contains("tlb.l2.shared_hits_within_hits"),
            "{failures:?}"
        );

        // Not a timeline document at all: a hard error, not a pass.
        assert!(validate_timeline_doc(&json_object([])).is_err());
    }

    #[test]
    fn help_exits_zero_and_no_args_exits_two() {
        assert_eq!(run_cli(&["--help".to_owned()]), 0);
        assert_eq!(run_cli(&["-h".to_owned()]), 0);
        assert_eq!(run_cli(&[]), 2);
        assert_eq!(run_cli(&["frobnicate".to_owned()]), 2);
        assert_eq!(run_cli(&["time".to_owned()]), 2);
        assert_eq!(run_cli(&["check".to_owned()]), 2);
        // Every subcommand is in the usage text.
        for sub in ["timeline", "trace", "diff", "profile"] {
            assert!(USAGE.contains(sub), "usage is missing '{sub}'");
        }
    }

    #[test]
    fn profile_doc_validation_names_missing_keys() {
        // A real snapshot round-trips through the document builder.
        let mut profiler = bf_telemetry::Profiler::new(4);
        profiler.record_miss(1, 7, 0x40);
        profiler.record_walk(1, 7, 0x40, 30, 0o1112);
        let snapshot = profiler.snapshot(None);
        let cfg = babelfish::experiment::ExperimentConfig::smoke_test();
        let doc = crate::profile_doc(
            "fig10_tlb",
            &cfg,
            &[
                ("mongodb-babelfish".to_owned(), Some(snapshot)),
                ("mongodb-baseline".to_owned(), None),
            ],
        );
        let cells = validate_profile_doc(&doc).unwrap();
        assert_eq!(cells.len(), 2);
        assert!(matches!(cells[1].1, Value::Null));

        // Dropping a required key is reported by name.
        let mut broken = doc.clone();
        if let Some(Value::Array(cells)) = broken.get_mut("cells") {
            if let Some(Value::Object(profile)) = cells[0].get_mut("profile") {
                profile.remove("miss_regions");
            }
        }
        let err = validate_profile_doc(&broken).unwrap_err();
        assert!(err.contains("miss_regions"), "{err}");

        // A non-profile document is rejected outright.
        assert!(validate_profile_doc(&json_object([(
            "figure",
            Value::String("fig10_tlb-timeline".to_owned())
        )]))
        .is_err());
    }
}
