//! Table II: fraction of BabelFish's gains that come from L2 TLB entry
//! sharing (the rest comes from page-table sharing).
//!
//! The fraction is derived by ablation, as the independent mechanisms
//! allow: `(T_baseline − T_tlb_only) / (T_baseline − T_full)`.
//! Paper reference: MongoDB 0.77, ArangoDB 0.25, HTTPd 0.81 (avg 0.61);
//! GraphChi 0.11, FIO 0.29 (avg 0.20); dense functions ≈ 0.20, sparse
//! ≈ 0.01.

use babelfish::experiment::{run_compute, run_functions, run_serving, ComputeKind};
use babelfish::{AccessDensity, Mode, ServingVariant};
use bf_bench::header;

/// The unclamped attribution ratio, or `None` when full BabelFish
/// gained nothing over the baseline (there is no gain to attribute).
/// Below 0, TLB-only sharing ran slower than the baseline; above 1, it
/// beat full BabelFish.
fn raw_fraction(base: f64, tlb_only: f64, full: f64) -> Option<f64> {
    let total_gain = base - full;
    (total_gain > 0.0).then(|| (base - tlb_only) / total_gain)
}

/// Prints one table row: the ratio clamped to [0, 1], the raw ratio,
/// and the paper's value.
fn row(label: &str, base: f64, tlb_only: f64, full: f64, paper: f64) {
    let cell = |v: Option<f64>| v.map_or_else(|| "—".to_owned(), |v| format!("{v:.2}"));
    let raw = raw_fraction(base, tlb_only, full);
    println!(
        "{:<14} {:>9} {:>8} {:>8.2}",
        label,
        cell(raw.map(|r| r.clamp(0.0, 1.0))),
        cell(raw),
        paper
    );
}

fn main() {
    let cfg = bf_bench::config_from_args();
    header("Table II: fraction of time reduction due to L2 TLB effects");
    println!(
        "{:<14} {:>9} {:>8} {:>8}",
        "workload", "measured", "raw", "paper"
    );

    let paper_serving = [0.77, 0.25, 0.81];
    for (variant, paper) in ServingVariant::ALL.into_iter().zip(paper_serving) {
        let base = run_serving(Mode::Baseline, variant, &cfg).mean_latency;
        let tlb = run_serving(Mode::babelfish_tlb_only(), variant, &cfg).mean_latency;
        let full = run_serving(Mode::babelfish(), variant, &cfg).mean_latency;
        row(variant.name(), base, tlb, full, paper);
    }

    let paper_compute = [0.11, 0.29];
    for (kind, paper) in ComputeKind::ALL.into_iter().zip(paper_compute) {
        let base = run_compute(Mode::Baseline, kind, &cfg).exec_cycles as f64;
        let tlb = run_compute(Mode::babelfish_tlb_only(), kind, &cfg).exec_cycles as f64;
        let full = run_compute(Mode::babelfish(), kind, &cfg).exec_cycles as f64;
        row(kind.name(), base, tlb, full, paper);
    }

    for (label, density, paper) in [
        ("fn-dense", AccessDensity::Dense, 0.20),
        ("fn-sparse", AccessDensity::Sparse, 0.01),
    ] {
        let base = run_functions(Mode::Baseline, density, &cfg).follower_mean_exec();
        let tlb = run_functions(Mode::babelfish_tlb_only(), density, &cfg).follower_mean_exec();
        let full = run_functions(Mode::babelfish(), density, &cfg).follower_mean_exec();
        row(label, base, tlb, full, paper);
    }

    println!("\n(1.0 = all gains from TLB entry sharing; 0.0 = all from page tables;");
    println!(" raw < 0 = TLB-only sharing slower than baseline; — = no gain to attribute)");
}
