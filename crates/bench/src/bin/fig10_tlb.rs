//! Fig. 10a (L2 TLB MPKI reduction) and Fig. 10b (shared-hit fraction).
//!
//! Runs Baseline and BabelFish for every application — cells execute in
//! parallel on the bf-exec sweep runner (`--threads`) with
//! deterministic, thread-count-independent output — and prints the
//! data/instruction L2 TLB MPKI reduction (Fig. 10a) and the fraction of
//! L2 TLB hits served by entries another process loaded (Fig. 10b).
//! Also writes the full dataset — stats, telemetry snapshots, and
//! the derived figures — to `results/fig10_tlb-latest.json`.
//! Paper reference points: Data Serving D-MPKI −66 %, I-MPKI −96 %;
//! GraphChi shared hits 48 % (I) / 12 % (D).

use bf_bench::sweeps::{
    fig10_cells_keep_going, fig10_doc, fig10_keep_going_doc, fig10_profile_cells,
    fig10_timeline_cells,
};
use bf_bench::{header, reduction_pct};

/// The `--keep-going` sweep: every cell runs even if some panic; failed
/// cells become `{cell, error}` slots in the results document and the
/// process exits non-zero with a failure summary.
fn run_keep_going(args: &bf_bench::BenchArgs) -> ! {
    // Cell panics are caught and reported in the failure summary; the
    // default hook's per-thread backtraces would only interleave noise.
    std::panic::set_hook(Box::new(|_| {}));
    let cells = fig10_cells_keep_going(&args.cfg, args.threads, args.quiet);
    let doc = fig10_keep_going_doc(&args.cfg, &cells);
    bf_bench::emit_results("fig10_tlb-keepgoing", &doc);
    let failures: Vec<_> = cells
        .iter()
        .filter_map(|(name, outcome)| outcome.as_ref().err().map(|f| (name, f)))
        .collect();
    if failures.is_empty() {
        println!("keep-going sweep: all {} cells completed", cells.len());
        std::process::exit(0);
    }
    eprintln!(
        "keep-going sweep: {} of {} cells failed",
        failures.len(),
        cells.len()
    );
    for (name, failure) in &failures {
        eprintln!("  {name}: {failure}");
    }
    std::process::exit(1);
}

fn main() {
    let args = bf_bench::parse_args();
    bf_bench::capture::preflight(&args);
    if args.keep_going {
        run_keep_going(&args);
    }
    let rows = bf_bench::sweeps::fig10_rows(&args.cfg, args.threads, args.quiet);

    header("Fig. 10a: L2 TLB MPKI (Baseline -> BabelFish, reduction)");
    println!(
        "{:<10} {:>9} {:>9} {:>8} | {:>9} {:>9} {:>8}",
        "app", "D-base", "D-bf", "D-red", "I-base", "I-bf", "I-red"
    );
    for row in &rows {
        println!(
            "{:<10} {:>9.3} {:>9.3} {:>7.1}% | {:>9.3} {:>9.3} {:>7.1}%",
            row.name,
            row.base.l2_data_mpki(),
            row.babelfish.l2_data_mpki(),
            reduction_pct(row.base.l2_data_mpki(), row.babelfish.l2_data_mpki()),
            row.base.l2_instr_mpki(),
            row.babelfish.l2_instr_mpki(),
            reduction_pct(row.base.l2_instr_mpki(), row.babelfish.l2_instr_mpki()),
        );
    }
    println!("paper: Data Serving D -66%, I -96%; Compute and Functions lower but positive");

    header("Fig. 10b: shared hits as a fraction of all L2 TLB hits (BabelFish)");
    println!("{:<10} {:>8} {:>8}", "app", "data", "instr");
    for row in &rows {
        println!(
            "{:<10} {:>7.1}% {:>7.1}%",
            row.name,
            row.babelfish.l2_data_shared_hit_fraction() * 100.0,
            row.babelfish.l2_instr_shared_hit_fraction() * 100.0,
        );
    }
    println!("paper: sizable but application-dependent (e.g. GraphChi I 48%, D 12%)");

    header("Sanity: Baseline has zero shared hits by construction");
    for row in &rows {
        assert_eq!(row.base.tlb.l2.data_shared_hits, 0, "{}", row.name);
        assert_eq!(row.base.tlb.l2.instr_shared_hits, 0, "{}", row.name);
    }
    println!("ok");

    let doc = fig10_doc(&args.cfg, &rows);
    bf_bench::emit_results("fig10_tlb", &doc);
    bf_bench::emit_timeline_results("fig10_tlb", &args.cfg, &fig10_timeline_cells(&rows));
    bf_bench::emit_profile_results("fig10_tlb", &args.cfg, &fig10_profile_cells(&rows));
}
