//! Fig. 11: latency / execution-time reduction attained by BabelFish.
//!
//! * Data Serving: mean and 95th-percentile request latency (paper:
//!   −11 % mean, −18 % tail on average).
//! * Compute: execution time (paper: −11 % on average).
//! * Functions: execution time of the non-leading functions (paper:
//!   −10 % dense, −55 % sparse on average).
//!
//! Cells execute in parallel on the bf-exec sweep runner (`--threads`)
//! with deterministic output; the derived reductions are also written
//! to `results/fig11_performance-latest.json`.

use babelfish::experiment::{ComputeResult, FunctionsResult, ServingResult};
use bf_bench::grid::{self, App, Outcome, BASELINE_VS_BABELFISH};
use bf_bench::{header, json_object, reduction_pct, versus};
use serde::{Serialize, Value};

/// `(name, baseline, babelfish)` of one application.
type Pair<'a, R> = (&'static str, &'a R, &'a R);

fn main() {
    let args = bf_bench::parse_args();
    bf_bench::capture::preflight(&args);
    let cells = grid::run(
        &args.cfg,
        &App::ALL,
        &BASELINE_VS_BABELFISH,
        args.threads,
        args.quiet,
    );
    let mut serving: Vec<Pair<ServingResult>> = Vec::new();
    let mut compute: Vec<Pair<ComputeResult>> = Vec::new();
    let mut functions: Vec<Pair<FunctionsResult>> = Vec::new();
    for pair in cells.chunks(2) {
        match (pair[0].app, &pair[0].outcome, &pair[1].outcome) {
            (App::Serving(v), Outcome::Serving(b), Outcome::Serving(f)) => {
                serving.push((v.name(), b, f))
            }
            (App::Compute(k), Outcome::Compute(b), Outcome::Compute(f)) => {
                compute.push((k.name(), b, f))
            }
            (App::Functions(d), Outcome::Functions(b), Outcome::Functions(f)) => {
                functions.push((d.name(), b, f))
            }
            _ => unreachable!("both cells of an app hold that app's result type"),
        }
    }

    header("Fig. 11: Data Serving latency reduction");
    println!("{:<10} {:>10} {:>10}", "app", "mean", "p95(tail)");
    let mut mean_reductions = Vec::new();
    let mut tail_reductions = Vec::new();
    let mut serving_doc = Vec::new();
    for (name, base, bf) in &serving {
        let mean_red = reduction_pct(base.mean_latency, bf.mean_latency);
        let tail_red = reduction_pct(base.p95_latency as f64, bf.p95_latency as f64);
        println!("{:<10} {:>9.1}% {:>9.1}%", name, mean_red, tail_red);
        mean_reductions.push(mean_red);
        tail_reductions.push(tail_red);
        serving_doc.push(json_object([
            ("app", Value::String((*name).to_owned())),
            ("mean_latency_reduction_pct", Value::F64(mean_red)),
            ("p95_latency_reduction_pct", Value::F64(tail_red)),
        ]));
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "mean latency reduction:  {}",
        versus(mean(&mean_reductions), 11.0, "%")
    );
    println!(
        "tail latency reduction:  {}",
        versus(mean(&tail_reductions), 18.0, "%")
    );

    header("Fig. 11: Compute execution-time reduction");
    let mut compute_reductions = Vec::new();
    let mut compute_doc = Vec::new();
    for (name, base, bf) in &compute {
        let red = reduction_pct(base.exec_cycles as f64, bf.exec_cycles as f64);
        println!("{:<10} {:>9.1}%", name, red);
        compute_reductions.push(red);
        compute_doc.push(json_object([
            ("app", Value::String((*name).to_owned())),
            ("exec_reduction_pct", Value::F64(red)),
        ]));
    }
    println!(
        "compute time reduction:  {}",
        versus(mean(&compute_reductions), 11.0, "%")
    );

    header("Fig. 11: Function execution-time reduction (non-leading functions)");
    let mut functions_doc = Vec::new();
    for ((label, base, bf), paper) in functions.iter().zip([10.0, 55.0]) {
        let red = reduction_pct(base.follower_mean_exec(), bf.follower_mean_exec());
        println!("{:<10} {}", label, versus(red, paper, "%"));
        functions_doc.push(json_object([
            ("density", Value::String((*label).to_owned())),
            ("follower_exec_reduction_pct", Value::F64(red)),
        ]));
        // Per-function detail.
        for ((name, b), (_, f)) in base.exec_cycles.iter().zip(bf.exec_cycles.iter()) {
            println!(
                "    {:<18} {:>12} -> {:>12} cycles ({:>5.1}%)",
                format!("{name}-{label}"),
                b,
                f,
                reduction_pct(*b as f64, *f as f64)
            );
        }
    }

    let doc = json_object([
        ("figure", Value::String("fig11_performance".to_owned())),
        ("config", args.cfg.to_value()),
        ("serving", Value::Array(serving_doc)),
        ("compute", Value::Array(compute_doc)),
        ("functions", Value::Array(functions_doc)),
    ]);
    bf_bench::emit_results("fig11_performance", &doc);
    grid::emit_exports("fig11_performance", &args.cfg, &cells);
}
