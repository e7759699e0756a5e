//! Table II: fraction of BabelFish's gains that come from L2 TLB entry
//! sharing (the rest comes from page-table sharing).
//!
//! The fraction is derived by ablation, as the independent mechanisms
//! allow: `(T_baseline − T_tlb_only) / (T_baseline − T_full)`.
//! Paper reference: MongoDB 0.77, ArangoDB 0.25, HTTPd 0.81 (avg 0.61);
//! GraphChi 0.11, FIO 0.29 (avg 0.20); dense functions ≈ 0.20, sparse
//! ≈ 0.01.

use babelfish::Mode;
use bf_bench::grid::{self, App};
use bf_bench::header;

/// The paper's fractions, in [`App::ALL`] order.
const PAPER: [f64; 7] = [0.77, 0.25, 0.81, 0.11, 0.29, 0.20, 0.01];

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
    let args = bf_bench::parse_args();
    bf_bench::capture::preflight(&args);
    let modes = [
        Mode::Baseline,
        Mode::babelfish_tlb_only(),
        Mode::babelfish(),
    ];
    let cells = grid::run(&args.cfg, &App::ALL, &modes, args.threads, args.quiet);

    header("Table II: fraction of time reduction due to L2 TLB effects");
    println!(
        "{:<14} {:>9} {:>8} {:>8}",
        "workload", "measured", "raw", "paper"
    );
    for (app_cells, paper) in cells.chunks(modes.len()).zip(PAPER) {
        let [base, tlb, full] = [0, 1, 2].map(|i| app_cells[i].outcome.headline());
        row(app_cells[0].app.name(), base, tlb, full, paper);
    }

    println!("\n(1.0 = all gains from TLB entry sharing; 0.0 = all from page tables;");
    println!(" raw < 0 = TLB-only sharing slower than baseline; — = no gain to attribute)");
    grid::emit_exports("table2_tlb_fraction", &args.cfg, &cells);
}
