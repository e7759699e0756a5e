//! Sweep definitions shared between the figure binaries and the
//! determinism tests.
//!
//! Each function builds the figure's experiment cells as a
//! [`Sweep`], runs them on `threads` workers,
//! and reassembles the results in cell order. Every cell constructs its
//! own `Machine` (and therefore its own private telemetry `Registry`),
//! so cells share no mutable state and the collected rows — and any
//! JSON document derived from them — are byte-identical for every
//! thread count.

use crate::{json_object, progress, reduction_pct};
use babelfish::exec::{CellFailure, Sweep};
use babelfish::experiment::{
    run_compute, run_functions, run_serving, ComputeKind, ComputeResult, ExperimentConfig,
    FunctionsResult, ServingResult,
};
use babelfish::{AccessDensity, MachineStats, Mode, ServingVariant};
use bf_telemetry::{ProfileSnapshot, Snapshot, TimelineSnapshot};
use serde::{Serialize, Value};

/// One application row of Fig. 10: Baseline and BabelFish stats plus
/// their telemetry snapshots and (when `--timeline` is on) epoch
/// timelines.
pub struct Fig10Row {
    /// Application name.
    pub name: &'static str,
    /// Baseline stats.
    pub base: MachineStats,
    /// BabelFish stats.
    pub babelfish: MachineStats,
    /// Baseline telemetry snapshot.
    pub base_telemetry: Snapshot,
    /// BabelFish telemetry snapshot.
    pub babelfish_telemetry: Snapshot,
    /// Baseline epoch timeline (None unless timelines are on).
    pub base_timeline: Option<TimelineSnapshot>,
    /// BabelFish epoch timeline (None unless timelines are on).
    pub babelfish_timeline: Option<TimelineSnapshot>,
    /// Baseline miss-attribution profile (None unless profiling is on).
    pub base_profile: Option<ProfileSnapshot>,
    /// BabelFish miss-attribution profile (None unless profiling is on).
    pub babelfish_profile: Option<ProfileSnapshot>,
}

/// What one Fig. 10 cell produces: stats, telemetry, epoch timeline,
/// miss-attribution profile.
pub type Fig10Cell = (
    MachineStats,
    Snapshot,
    Option<TimelineSnapshot>,
    Option<ProfileSnapshot>,
);

/// One Fig. 10 application: its name plus a boxed runner producing the
/// raw data for one mode.
type Fig10App = (
    &'static str,
    Box<dyn Fn(Mode, &ExperimentConfig) -> Fig10Cell + Send + Sync>,
);

/// The seven Fig. 10 applications in paper order.
fn fig10_apps() -> Vec<Fig10App> {
    let mut apps: Vec<Fig10App> = Vec::new();
    for variant in ServingVariant::ALL {
        apps.push((
            variant.name(),
            Box::new(move |mode, cfg| {
                let r = run_serving(mode, variant, cfg);
                (r.stats, r.telemetry, r.timeline, r.profile)
            }),
        ));
    }
    for kind in ComputeKind::ALL {
        apps.push((
            kind.name(),
            Box::new(move |mode, cfg| {
                let r = run_compute(mode, kind, cfg);
                (r.stats, r.telemetry, r.timeline, r.profile)
            }),
        ));
    }
    for (name, density) in [
        ("fn-dense", AccessDensity::Dense),
        ("fn-sparse", AccessDensity::Sparse),
    ] {
        apps.push((
            name,
            Box::new(move |mode, cfg| {
                let r = run_functions(mode, density, cfg);
                (r.stats, r.telemetry, r.timeline, r.profile)
            }),
        ));
    }
    apps
}

/// Panics when the configuration's fault plan targets this submission
/// index with a `cell-panic@idx=N` clause — the deterministic trigger
/// the `--keep-going` chaos tests use. No-op on clean configurations.
fn maybe_cell_panic(cfg: &ExperimentConfig, index: usize) {
    if cfg.faults.and_then(|plan| plan.cell_panic) == Some(index) {
        panic!("deliberate fault: cell-panic@idx={index}");
    }
}

/// Builds the 14-cell Fig. 10 sweep (every application under Baseline
/// and BabelFish, in submission order) plus the matching cell names.
fn fig10_sweep(cfg: ExperimentConfig, quiet: bool) -> (Sweep<Fig10Cell>, Vec<String>) {
    let mut sweep = Sweep::new();
    let mut cell_names = Vec::new();
    for (name, runner) in fig10_apps() {
        let runner = std::sync::Arc::new(runner);
        for (mode, mode_name) in [
            (Mode::Baseline, "baseline"),
            (Mode::babelfish(), "babelfish"),
        ] {
            let index = cell_names.len();
            cell_names.push(format!("{name}-{mode_name}"));
            let runner = runner.clone();
            sweep.cell(move || {
                maybe_cell_panic(&cfg, index);
                let r = runner(mode, &cfg);
                progress(quiet, &format!("{name}-{mode_name} done"));
                r
            });
        }
    }
    bf_telemetry::heartbeat::name_cells(&cell_names);
    (sweep, cell_names)
}

/// Runs the Fig. 10 cells — every application under Baseline and
/// BabelFish — on `threads` workers. `quiet` suppresses the per-cell
/// progress lines.
pub fn fig10_rows(cfg: &ExperimentConfig, threads: usize, quiet: bool) -> Vec<Fig10Row> {
    let (sweep, _) = fig10_sweep(*cfg, quiet);
    let names: Vec<&'static str> = fig10_apps().into_iter().map(|(name, _)| name).collect();
    let mut results = sweep.run(threads).into_iter();
    names
        .into_iter()
        .map(|name| {
            let (base, base_telemetry, base_timeline, base_profile) =
                results.next().expect("base cell");
            let (babelfish, babelfish_telemetry, babelfish_timeline, babelfish_profile) =
                results.next().expect("babelfish cell");
            Fig10Row {
                name,
                base,
                babelfish,
                base_telemetry,
                babelfish_telemetry,
                base_timeline,
                babelfish_timeline,
                base_profile,
                babelfish_profile,
            }
        })
        .collect()
}

/// The `--keep-going` variant of [`fig10_rows`]: every cell runs to
/// completion even when some panic (including a deliberate
/// `cell-panic@idx=N` fault clause); each slot carries the cell's name
/// and either its data or the panic it died with, in submission order.
pub fn fig10_cells_keep_going(
    cfg: &ExperimentConfig,
    threads: usize,
    quiet: bool,
) -> Vec<(String, Result<Fig10Cell, CellFailure>)> {
    let (sweep, names) = fig10_sweep(*cfg, quiet);
    names
        .into_iter()
        .zip(sweep.run_keep_going(threads))
        .collect()
}

/// The Fig. 10 `--keep-going` results document: successful cells carry
/// their stats + telemetry exactly as [`fig10_doc`] records them;
/// failed cells become structured `{cell, error}` slots. Submission
/// order is preserved either way, so the document is byte-identical for
/// every `--threads` value.
pub fn fig10_keep_going_doc(
    cfg: &ExperimentConfig,
    cells: &[(String, Result<Fig10Cell, CellFailure>)],
) -> Value {
    let rows = cells
        .iter()
        .map(|(name, outcome)| match outcome {
            Ok((stats, telemetry, _, _)) => json_object([
                ("cell", Value::String(name.clone())),
                ("stats", stats.to_value()),
                ("telemetry", telemetry.to_value()),
            ]),
            Err(failure) => json_object([
                ("cell", Value::String(name.clone())),
                ("error", Value::String(failure.error.clone())),
            ]),
        })
        .collect();
    json_object([
        ("figure", Value::String("fig10_tlb-keepgoing".to_owned())),
        ("config", cfg.to_value()),
        ("cells", Value::Array(rows)),
    ])
}

/// The Fig. 10 rows as `(cell-name, timeline)` pairs in submission
/// order — the shape [`crate::emit_timeline_results`] takes.
pub fn fig10_timeline_cells(rows: &[Fig10Row]) -> Vec<(String, Option<TimelineSnapshot>)> {
    rows.iter()
        .flat_map(|row| {
            [
                (format!("{}-baseline", row.name), row.base_timeline.clone()),
                (
                    format!("{}-babelfish", row.name),
                    row.babelfish_timeline.clone(),
                ),
            ]
        })
        .collect()
}

/// The Fig. 10 rows as `(cell-name, profile)` pairs in submission
/// order — the shape [`crate::emit_profile_results`] takes.
pub fn fig10_profile_cells(rows: &[Fig10Row]) -> Vec<(String, Option<ProfileSnapshot>)> {
    rows.iter()
        .flat_map(|row| {
            [
                (format!("{}-baseline", row.name), row.base_profile.clone()),
                (
                    format!("{}-babelfish", row.name),
                    row.babelfish_profile.clone(),
                ),
            ]
        })
        .collect()
}

/// One row of the Fig. 10 JSON export: the raw stats and telemetry for
/// both modes plus the derived Fig. 10a/10b numbers.
pub fn fig10_row_value(row: &Fig10Row) -> Value {
    json_object([
        ("app", Value::String(row.name.to_owned())),
        (
            "baseline",
            json_object([
                ("stats", row.base.to_value()),
                ("telemetry", row.base_telemetry.to_value()),
            ]),
        ),
        (
            "babelfish",
            json_object([
                ("stats", row.babelfish.to_value()),
                ("telemetry", row.babelfish_telemetry.to_value()),
            ]),
        ),
        (
            "d_mpki_reduction_pct",
            Value::F64(reduction_pct(
                row.base.l2_data_mpki(),
                row.babelfish.l2_data_mpki(),
            )),
        ),
        (
            "i_mpki_reduction_pct",
            Value::F64(reduction_pct(
                row.base.l2_instr_mpki(),
                row.babelfish.l2_instr_mpki(),
            )),
        ),
        (
            "data_shared_hit_fraction",
            Value::F64(row.babelfish.l2_data_shared_hit_fraction()),
        ),
        (
            "instr_shared_hit_fraction",
            Value::F64(row.babelfish.l2_instr_shared_hit_fraction()),
        ),
    ])
}

/// The complete Fig. 10 results document.
pub fn fig10_doc(cfg: &ExperimentConfig, rows: &[Fig10Row]) -> Value {
    json_object([
        ("figure", Value::String("fig10_tlb".to_owned())),
        ("config", cfg.to_value()),
        (
            "rows",
            Value::Array(rows.iter().map(fig10_row_value).collect()),
        ),
    ])
}

/// The Fig. 11 dataset: per-application Baseline/BabelFish result pairs
/// for the three workload classes.
pub struct Fig11Data {
    /// `(app, baseline, babelfish)` per serving variant.
    pub serving: Vec<(&'static str, ServingResult, ServingResult)>,
    /// `(app, baseline, babelfish)` per compute kind.
    pub compute: Vec<(&'static str, ComputeResult, ComputeResult)>,
    /// `(label, baseline, babelfish)` per function density.
    pub functions: Vec<(&'static str, FunctionsResult, FunctionsResult)>,
}

enum Fig11Cell {
    Serving(Box<ServingResult>),
    Compute(Box<ComputeResult>),
    Functions(Box<FunctionsResult>),
}

impl Fig11Cell {
    fn serving(self) -> ServingResult {
        match self {
            Fig11Cell::Serving(r) => *r,
            _ => unreachable!("cell order fixed at submission"),
        }
    }
    fn compute(self) -> ComputeResult {
        match self {
            Fig11Cell::Compute(r) => *r,
            _ => unreachable!("cell order fixed at submission"),
        }
    }
    fn functions(self) -> FunctionsResult {
        match self {
            Fig11Cell::Functions(r) => *r,
            _ => unreachable!("cell order fixed at submission"),
        }
    }
}

/// Runs the Fig. 11 cells — serving, compute, and function workloads,
/// Baseline and BabelFish — on `threads` workers. `quiet` suppresses
/// the per-cell progress lines.
pub fn fig11_data(cfg: &ExperimentConfig, threads: usize, quiet: bool) -> Fig11Data {
    let cfg = *cfg;
    let mut sweep = Sweep::new();
    for variant in ServingVariant::ALL {
        for mode in [Mode::Baseline, Mode::babelfish()] {
            sweep.cell(move || {
                let r = Fig11Cell::Serving(Box::new(run_serving(mode, variant, &cfg)));
                progress(quiet, &format!("{}-{} done", variant.name(), mode.name()));
                r
            });
        }
    }
    for kind in ComputeKind::ALL {
        for mode in [Mode::Baseline, Mode::babelfish()] {
            sweep.cell(move || {
                let r = Fig11Cell::Compute(Box::new(run_compute(mode, kind, &cfg)));
                progress(quiet, &format!("{}-{} done", kind.name(), mode.name()));
                r
            });
        }
    }
    for density in [AccessDensity::Dense, AccessDensity::Sparse] {
        for mode in [Mode::Baseline, Mode::babelfish()] {
            sweep.cell(move || {
                let r = Fig11Cell::Functions(Box::new(run_functions(mode, density, &cfg)));
                progress(quiet, &format!("functions-{} done", mode.name()));
                r
            });
        }
    }
    let cell_names: Vec<String> = ServingVariant::ALL
        .iter()
        .map(|v| v.name())
        .chain(ComputeKind::ALL.iter().map(|k| k.name()))
        .flat_map(|name| [format!("{name}-baseline"), format!("{name}-babelfish")])
        .chain(
            ["fn-dense", "fn-sparse"]
                .iter()
                .flat_map(|label| [format!("{label}-baseline"), format!("{label}-babelfish")]),
        )
        .collect();
    bf_telemetry::heartbeat::name_cells(&cell_names);

    let mut cells = sweep.run(threads).into_iter();
    let mut next = || cells.next().expect("cell count fixed at submission");
    Fig11Data {
        serving: ServingVariant::ALL
            .iter()
            .map(|v| (v.name(), next().serving(), next().serving()))
            .collect(),
        compute: ComputeKind::ALL
            .iter()
            .map(|k| (k.name(), next().compute(), next().compute()))
            .collect(),
        functions: ["dense", "sparse"]
            .iter()
            .map(|label| (*label, next().functions(), next().functions()))
            .collect(),
    }
}

/// The Fig. 11 cells as `(cell-name, timeline)` pairs in submission
/// order — the shape [`crate::emit_timeline_results`] takes.
pub fn fig11_timeline_cells(data: &Fig11Data) -> Vec<(String, Option<TimelineSnapshot>)> {
    let mut cells = Vec::new();
    for (name, base, bf) in &data.serving {
        cells.push((format!("{name}-baseline"), base.timeline.clone()));
        cells.push((format!("{name}-babelfish"), bf.timeline.clone()));
    }
    for (name, base, bf) in &data.compute {
        cells.push((format!("{name}-baseline"), base.timeline.clone()));
        cells.push((format!("{name}-babelfish"), bf.timeline.clone()));
    }
    for (label, base, bf) in &data.functions {
        cells.push((format!("fn-{label}-baseline"), base.timeline.clone()));
        cells.push((format!("fn-{label}-babelfish"), bf.timeline.clone()));
    }
    cells
}

/// The Fig. 11 cells as `(cell-name, profile)` pairs in submission
/// order — the shape [`crate::emit_profile_results`] takes.
pub fn fig11_profile_cells(data: &Fig11Data) -> Vec<(String, Option<ProfileSnapshot>)> {
    let mut cells = Vec::new();
    for (name, base, bf) in &data.serving {
        cells.push((format!("{name}-baseline"), base.profile.clone()));
        cells.push((format!("{name}-babelfish"), bf.profile.clone()));
    }
    for (name, base, bf) in &data.compute {
        cells.push((format!("{name}-baseline"), base.profile.clone()));
        cells.push((format!("{name}-babelfish"), bf.profile.clone()));
    }
    for (label, base, bf) in &data.functions {
        cells.push((format!("fn-{label}-baseline"), base.profile.clone()));
        cells.push((format!("fn-{label}-babelfish"), bf.profile.clone()));
    }
    cells
}

/// The Fig. 11 results document (latency/execution reductions per app).
pub fn fig11_doc(cfg: &ExperimentConfig, data: &Fig11Data) -> Value {
    let serving: Vec<Value> = data
        .serving
        .iter()
        .map(|(name, base, bf)| {
            json_object([
                ("app", Value::String((*name).to_owned())),
                (
                    "mean_latency_reduction_pct",
                    Value::F64(reduction_pct(base.mean_latency, bf.mean_latency)),
                ),
                (
                    "p95_latency_reduction_pct",
                    Value::F64(reduction_pct(
                        base.p95_latency as f64,
                        bf.p95_latency as f64,
                    )),
                ),
            ])
        })
        .collect();
    let compute: Vec<Value> = data
        .compute
        .iter()
        .map(|(name, base, bf)| {
            json_object([
                ("app", Value::String((*name).to_owned())),
                (
                    "exec_reduction_pct",
                    Value::F64(reduction_pct(
                        base.exec_cycles as f64,
                        bf.exec_cycles as f64,
                    )),
                ),
            ])
        })
        .collect();
    let functions: Vec<Value> = data
        .functions
        .iter()
        .map(|(label, base, bf)| {
            json_object([
                ("density", Value::String((*label).to_owned())),
                (
                    "follower_exec_reduction_pct",
                    Value::F64(reduction_pct(
                        base.follower_mean_exec(),
                        bf.follower_mean_exec(),
                    )),
                ),
            ])
        })
        .collect();
    json_object([
        ("figure", Value::String("fig11_performance".to_owned())),
        ("config", cfg.to_value()),
        ("serving", Value::Array(serving)),
        ("compute", Value::Array(compute)),
        ("functions", Value::Array(functions)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::smoke_test();
        cfg.measure_instructions = 4_000;
        cfg.warmup_instructions = 1_000;
        cfg
    }

    #[test]
    fn fig10_rows_keep_submission_order() {
        let rows = fig10_rows(&tiny(), 2, true);
        let names: Vec<&str> = rows.iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            [
                "mongodb",
                "arangodb",
                "httpd",
                "graphchi",
                "fio",
                "fn-dense",
                "fn-sparse"
            ]
        );
    }
}
