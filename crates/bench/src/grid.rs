//! The evaluation grid shared by the paper-table binaries and the
//! determinism tests: the seven applications of Section VI crossed with
//! the modes one table compares.
//!
//! [`run`] submits the cells app-major (every mode of the first
//! application, then every mode of the next) as one [`Sweep`], names
//! each cell `<app>-<mode>` once, runs the sweep on `threads` workers
//! and returns the cells in submission order. That one name is the
//! progress line, the heartbeat cell name and the key of the
//! timeline/profile exports. Every cell constructs its own `Machine`
//! (and therefore its own private telemetry `Registry`), so cells share
//! no mutable state and every document derived from them is
//! byte-identical for every thread count.

use crate::{json_object, progress, reduction_pct};
use babelfish::exec::{CellFailure, Sweep};
use babelfish::experiment::{
    run_compute, run_functions, run_serving, ComputeKind, ComputeResult, ExperimentConfig,
    FunctionsResult, ServingResult,
};
use babelfish::{AccessDensity, AslrMode, MachineStats, Mode, ServingVariant};
use bf_telemetry::{ProfileSnapshot, Snapshot, TimelineSnapshot};
use serde::{Serialize, Value};

/// One application of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    /// A data-serving application.
    Serving(ServingVariant),
    /// A compute application.
    Compute(ComputeKind),
    /// The three-function FaaS group at one input access density.
    Functions(AccessDensity),
}

impl App {
    /// The seven applications in paper order.
    pub const ALL: [App; 7] = [
        App::Serving(ServingVariant::MongoDb),
        App::Serving(ServingVariant::ArangoDb),
        App::Serving(ServingVariant::Httpd),
        App::Compute(ComputeKind::GraphChi),
        App::Compute(ComputeKind::Fio),
        App::Functions(AccessDensity::Dense),
        App::Functions(AccessDensity::Sparse),
    ];

    /// Display name: the workload's own name, or `fn-<density>`.
    pub fn name(self) -> &'static str {
        match self {
            App::Serving(variant) => variant.name(),
            App::Compute(kind) => kind.name(),
            App::Functions(AccessDensity::Dense) => "fn-dense",
            App::Functions(AccessDensity::Sparse) => "fn-sparse",
        }
    }

    fn run(self, mode: Mode, cfg: &ExperimentConfig) -> Outcome {
        match self {
            App::Serving(variant) => Outcome::Serving(run_serving(mode, variant, cfg)),
            App::Compute(kind) => Outcome::Compute(run_compute(mode, kind, cfg)),
            App::Functions(density) => Outcome::Functions(run_functions(mode, density, cfg)),
        }
    }
}

/// The two modes most tables compare: the paper's Baseline and full
/// BabelFish under ASLR-HW ([`Mode::babelfish`]).
pub const BASELINE_VS_BABELFISH: [Mode; 2] = [
    Mode::Baseline,
    Mode::BabelFish {
        share_tlb: true,
        share_page_tables: true,
        aslr: AslrMode::Hardware,
    },
];

/// What one cell produced: its application's own result.
#[derive(Debug)]
pub enum Outcome {
    /// A data-serving run.
    Serving(ServingResult),
    /// A compute run.
    Compute(ComputeResult),
    /// A FaaS run.
    Functions(FunctionsResult),
}

impl Outcome {
    /// Machine statistics of the measured window.
    pub fn stats(&self) -> &MachineStats {
        match self {
            Outcome::Serving(r) => &r.stats,
            Outcome::Compute(r) => &r.stats,
            Outcome::Functions(r) => &r.stats,
        }
    }

    /// Registry snapshot of the measured window.
    pub fn telemetry(&self) -> &Snapshot {
        match self {
            Outcome::Serving(r) => &r.telemetry,
            Outcome::Compute(r) => &r.telemetry,
            Outcome::Functions(r) => &r.telemetry,
        }
    }

    /// Epoch timeline (None unless timelines are on).
    pub fn timeline(&self) -> Option<&TimelineSnapshot> {
        match self {
            Outcome::Serving(r) => r.timeline.as_ref(),
            Outcome::Compute(r) => r.timeline.as_ref(),
            Outcome::Functions(r) => r.timeline.as_ref(),
        }
    }

    /// Miss-attribution profile (None unless profiling is on).
    pub fn profile(&self) -> Option<&ProfileSnapshot> {
        match self {
            Outcome::Serving(r) => r.profile.as_ref(),
            Outcome::Compute(r) => r.profile.as_ref(),
            Outcome::Functions(r) => r.profile.as_ref(),
        }
    }

    /// The time the paper's performance tables compare (lower is
    /// better): mean request latency for serving, execution cycles for
    /// compute, the non-leading functions' mean execution cycles for
    /// FaaS.
    pub fn headline(&self) -> f64 {
        match self {
            Outcome::Serving(r) => r.mean_latency,
            Outcome::Compute(r) => r.exec_cycles as f64,
            Outcome::Functions(r) => r.follower_mean_exec(),
        }
    }
}

/// One cell of a grid run: its application and mode, its `<app>-<mode>`
/// name, and what it produced.
#[derive(Debug)]
pub struct Cell<T = Outcome> {
    /// The application.
    pub app: App,
    /// The simulated system.
    pub mode: Mode,
    /// `<app>-<mode>`, e.g. `fn-dense-baseline`.
    pub name: String,
    /// The cell's result ([`Outcome`], or under [`run_keep_going`]
    /// the panic it died with).
    pub outcome: T,
}

impl<T> Cell<T> {
    fn with<U>(self, outcome: U) -> Cell<U> {
        Cell {
            app: self.app,
            mode: self.mode,
            name: self.name,
            outcome,
        }
    }
}

/// Builds the app-major sweep of `apps × modes` and registers the cell
/// names with the heartbeat. A `cell-panic@idx=N` clause in the fault
/// plan makes cell `N` panic before it runs.
fn sweep(
    cfg: &ExperimentConfig,
    apps: &[App],
    modes: &[Mode],
    quiet: bool,
) -> (Sweep<Outcome>, Vec<Cell<()>>) {
    let cfg = *cfg;
    let mut sweep = Sweep::new();
    let mut cells = Vec::new();
    for &app in apps {
        for &mode in modes {
            let name = format!("{}-{}", app.name(), mode.name());
            let index = cells.len();
            let done = format!("{name} done");
            sweep.cell(move || {
                if cfg.faults.and_then(|plan| plan.cell_panic) == Some(index) {
                    panic!("deliberate fault: cell-panic@idx={index}");
                }
                let outcome = app.run(mode, &cfg);
                progress(quiet, &done);
                outcome
            });
            cells.push(Cell {
                app,
                mode,
                name,
                outcome: (),
            });
        }
    }
    let names: Vec<String> = cells.iter().map(|c| c.name.clone()).collect();
    bf_telemetry::heartbeat::name_cells(&names);
    (sweep, cells)
}

/// Runs every application in `apps` under every mode in `modes` on
/// `threads` workers and returns the cells app-major, so
/// `cells.chunks(modes.len())` yields one row per application. `quiet`
/// suppresses the per-cell progress lines. A panicking cell aborts the
/// run.
pub fn run(
    cfg: &ExperimentConfig,
    apps: &[App],
    modes: &[Mode],
    threads: usize,
    quiet: bool,
) -> Vec<Cell> {
    let (sweep, cells) = sweep(cfg, apps, modes, quiet);
    cells
        .into_iter()
        .zip(sweep.run(threads))
        .map(|(cell, outcome)| cell.with(outcome))
        .collect()
}

/// The `--keep-going` variant of [`run`]: every cell runs to completion
/// even when some panic, and each slot carries either its outcome or
/// the panic it died with, in the same order.
pub fn run_keep_going(
    cfg: &ExperimentConfig,
    apps: &[App],
    modes: &[Mode],
    threads: usize,
    quiet: bool,
) -> Vec<Cell<Result<Outcome, CellFailure>>> {
    let (sweep, cells) = sweep(cfg, apps, modes, quiet);
    cells
        .into_iter()
        .zip(sweep.run_keep_going(threads))
        .map(|(cell, outcome)| cell.with(outcome))
        .collect()
}

/// The cells as `(name, timeline)` pairs — the shape
/// [`crate::timeline_doc`] takes.
pub fn timelines(cells: &[Cell]) -> Vec<(String, Option<TimelineSnapshot>)> {
    cells
        .iter()
        .map(|c| (c.name.clone(), c.outcome.timeline().cloned()))
        .collect()
}

/// The cells as `(name, profile)` pairs — the shape
/// [`crate::profile_doc`] takes.
pub fn profiles(cells: &[Cell]) -> Vec<(String, Option<ProfileSnapshot>)> {
    cells
        .iter()
        .map(|c| (c.name.clone(), c.outcome.profile().cloned()))
        .collect()
}

/// Writes the `<stem>-timeline` and `<stem>-profile` documents of a grid
/// run; each is skipped when its tap was off.
pub fn emit_exports(stem: &str, cfg: &ExperimentConfig, cells: &[Cell]) {
    crate::emit_timeline_results(stem, cfg, &timelines(cells));
    crate::emit_profile_results(stem, cfg, &profiles(cells));
}

/// One row of the Fig. 10 JSON export: the raw stats and telemetry for
/// both modes plus the derived Fig. 10a/10b numbers.
fn fig10_row_value(base: &Cell, bf: &Cell) -> Value {
    let mode_value = |cell: &Cell| {
        json_object([
            ("stats", cell.outcome.stats().to_value()),
            ("telemetry", cell.outcome.telemetry().to_value()),
        ])
    };
    let (b, f) = (base.outcome.stats(), bf.outcome.stats());
    json_object([
        ("app", Value::String(base.app.name().to_owned())),
        ("baseline", mode_value(base)),
        ("babelfish", mode_value(bf)),
        (
            "d_mpki_reduction_pct",
            Value::F64(reduction_pct(b.l2_data_mpki(), f.l2_data_mpki())),
        ),
        (
            "i_mpki_reduction_pct",
            Value::F64(reduction_pct(b.l2_instr_mpki(), f.l2_instr_mpki())),
        ),
        (
            "data_shared_hit_fraction",
            Value::F64(f.l2_data_shared_hit_fraction()),
        ),
        (
            "instr_shared_hit_fraction",
            Value::F64(f.l2_instr_shared_hit_fraction()),
        ),
    ])
}

/// The complete Fig. 10 results document of a
/// [`BASELINE_VS_BABELFISH`] grid run.
pub fn fig10_doc(cfg: &ExperimentConfig, cells: &[Cell]) -> Value {
    let rows = cells
        .chunks(2)
        .map(|pair| fig10_row_value(&pair[0], &pair[1]))
        .collect();
    json_object([
        ("figure", Value::String("fig10_tlb".to_owned())),
        ("config", cfg.to_value()),
        ("rows", Value::Array(rows)),
    ])
}

/// The Fig. 10 `--keep-going` results document: successful cells carry
/// their stats + telemetry exactly as [`fig10_doc`] records them;
/// failed cells become structured `{cell, error}` slots. Submission
/// order is preserved either way, so the document is byte-identical for
/// every `--threads` value.
pub fn fig10_keep_going_doc(
    cfg: &ExperimentConfig,
    cells: &[Cell<Result<Outcome, CellFailure>>],
) -> Value {
    let rows = cells
        .iter()
        .map(|cell| {
            let name = ("cell", Value::String(cell.name.clone()));
            match &cell.outcome {
                Ok(outcome) => json_object([
                    name,
                    ("stats", outcome.stats().to_value()),
                    ("telemetry", outcome.telemetry().to_value()),
                ]),
                Err(failure) => {
                    json_object([name, ("error", Value::String(failure.error.clone()))])
                }
            }
        })
        .collect();
    json_object([
        ("figure", Value::String("fig10_tlb-keepgoing".to_owned())),
        ("config", cfg.to_value()),
        ("cells", Value::Array(rows)),
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
    fn fig10_cells_keep_submission_order() {
        assert_eq!(BASELINE_VS_BABELFISH[1], Mode::babelfish());
        let cells = run(&tiny(), &App::ALL, &BASELINE_VS_BABELFISH, 2, true);
        let names: Vec<&str> = cells.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "mongodb-baseline",
                "mongodb-babelfish",
                "arangodb-baseline",
                "arangodb-babelfish",
                "httpd-baseline",
                "httpd-babelfish",
                "graphchi-baseline",
                "graphchi-babelfish",
                "fio-baseline",
                "fio-babelfish",
                "fn-dense-baseline",
                "fn-dense-babelfish",
                "fn-sparse-baseline",
                "fn-sparse-babelfish",
            ]
        );
    }

    #[test]
    fn keep_going_fails_only_the_targeted_cell_at_any_thread_count() {
        let mut cfg = tiny();
        cfg.faults = Some(babelfish::FaultPlan::parse("cell-panic@idx=2").unwrap());
        let doc = |threads| {
            let cells = run_keep_going(&cfg, &App::ALL, &BASELINE_VS_BABELFISH, threads, true);
            assert_eq!(cells.len(), 14);
            for (i, cell) in cells.iter().enumerate() {
                if i == 2 {
                    assert_eq!(cell.name, "arangodb-baseline");
                    let failure = cell.outcome.as_ref().expect_err("slot 2 must fail");
                    assert_eq!(failure.error, "deliberate fault: cell-panic@idx=2");
                } else {
                    assert!(cell.outcome.is_ok(), "{} failed", cell.name);
                }
            }
            serde_json::to_string(&fig10_keep_going_doc(&cfg, &cells)).unwrap()
        };
        assert_eq!(
            doc(1),
            doc(4),
            "keep-going document must not depend on --threads"
        );
    }
}
