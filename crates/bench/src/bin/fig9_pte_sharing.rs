//! Fig. 9: page-table-entry sharing characterisation.
//!
//! For each application, prints the three bars of Fig. 9 — total
//! `pte_t`s, active `pte_t`s, and active `pte_t`s under BabelFish — each
//! broken into shareable / unshareable / THP, normalised to the total.
//! Paper reference points: 53 % of serving+compute `pte_t`s shareable on
//! average (functions ≈ 94 %), BabelFish cutting active `pte_t`s by
//! ≈ 30 % (serving/compute) and ≈ 57 % (functions).
//! Also writes the census dataset to
//! `results/fig9_pte_sharing-latest.json`.

use babelfish::exec::Sweep;
use babelfish::experiment::{run_census_timed, CensusApp, ComputeKind};
use babelfish::ServingVariant;
use bf_bench::{header, json_object, progress};
use serde::{Serialize, Value};

fn main() {
    let args = bf_bench::parse_args();
    bf_bench::capture::preflight(&args);
    let mut cfg = args.cfg;
    // The paper's Fig. 9 was measured natively with two containers of
    // each application (three functions): "Since this plot corresponds
    // to only two containers, the reduction in shareable active pte_ts
    // is at most half" (Section VII-A).
    cfg.cores = 1;
    header("Fig. 9: pte_t shareability (normalised to each app's total)");
    println!(
        "{:<10} {:>7} {:>7} {:>7} | {:>7} {:>7} {:>7} | {:>9} {:>10}",
        "app", "shr", "unshr", "thp", "act.shr", "act.uns", "act.thp", "bf.active", "reduction"
    );

    let apps = [
        CensusApp::Serving(ServingVariant::MongoDb),
        CensusApp::Serving(ServingVariant::ArangoDb),
        CensusApp::Serving(ServingVariant::Httpd),
        CensusApp::Compute(ComputeKind::GraphChi),
        CensusApp::Compute(ComputeKind::Fio),
        CensusApp::Functions,
    ];

    let mut serving_compute_share = Vec::new();
    let mut serving_compute_reduction = Vec::new();
    let mut function_share = 0.0;
    let mut function_reduction = 0.0;
    let mut json_rows = Vec::new();

    let quiet = args.quiet;
    let mut sweep = Sweep::new();
    for app in apps {
        sweep.cell(move || {
            let r = run_census_timed(app, &cfg);
            progress(quiet, &format!("{} done", app.name()));
            r
        });
    }
    let mut reports = Vec::new();
    let mut timeline_cells = Vec::new();
    let mut profile_cells = Vec::new();
    for (app, (report, timeline, profile)) in apps.iter().zip(sweep.run(args.threads)) {
        reports.push(report);
        timeline_cells.push((app.name().to_owned(), timeline));
        profile_cells.push((app.name().to_owned(), profile));
    }

    for (app, report) in apps.into_iter().zip(reports) {
        json_rows.push(json_object([
            ("app", Value::String(app.name().to_owned())),
            ("census", report.to_value()),
            (
                "shareable_fraction",
                Value::F64(report.shareable_fraction()),
            ),
            ("active_reduction", Value::F64(report.active_reduction())),
        ]));
        let total = report.total.total().max(1) as f64;
        let norm = |x: u64| x as f64 / total;
        println!(
            "{:<10} {:>6.1}% {:>6.1}% {:>6.1}% | {:>6.1}% {:>6.1}% {:>6.1}% | {:>8.1}% {:>9.1}%",
            app.name(),
            norm(report.total.shareable) * 100.0,
            norm(report.total.unshareable) * 100.0,
            norm(report.total.thp) * 100.0,
            norm(report.active.shareable) * 100.0,
            norm(report.active.unshareable) * 100.0,
            norm(report.active.thp) * 100.0,
            norm(report.babelfish_active) * 100.0,
            report.active_reduction() * 100.0,
        );
        if matches!(app, CensusApp::Functions) {
            function_share = report.shareable_fraction() * 100.0;
            function_reduction = report.active_reduction() * 100.0;
        } else {
            serving_compute_share.push(report.shareable_fraction() * 100.0);
            serving_compute_reduction.push(report.active_reduction() * 100.0);
        }
    }

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    header("Fig. 9 summary vs paper");
    println!(
        "serving+compute shareable:      {}",
        bf_bench::versus(mean(&serving_compute_share), 53.0, "%")
    );
    println!(
        "serving+compute active reduction: {}",
        bf_bench::versus(mean(&serving_compute_reduction), 30.0, "%")
    );
    println!(
        "functions shareable:            {}",
        bf_bench::versus(function_share, 94.0, "%")
    );
    println!(
        "functions active reduction:     {}",
        bf_bench::versus(function_reduction, 57.0, "%")
    );

    let doc = json_object([
        ("figure", Value::String("fig9_pte_sharing".to_owned())),
        ("config", cfg.to_value()),
        ("rows", Value::Array(json_rows)),
        (
            "summary",
            json_object([
                (
                    "serving_compute_shareable_pct",
                    Value::F64(mean(&serving_compute_share)),
                ),
                (
                    "serving_compute_active_reduction_pct",
                    Value::F64(mean(&serving_compute_reduction)),
                ),
                ("functions_shareable_pct", Value::F64(function_share)),
                (
                    "functions_active_reduction_pct",
                    Value::F64(function_reduction),
                ),
            ]),
        ),
    ]);
    bf_bench::emit_results("fig9_pte_sharing", &doc);
    bf_bench::emit_timeline_results("fig9_pte_sharing", &cfg, &timeline_cells);
    bf_bench::emit_profile_results("fig9_pte_sharing", &cfg, &profile_cells);
}
