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

use bf_bench::grid::{self, App, BASELINE_VS_BABELFISH};
use bf_bench::{header, reduction_pct};

/// The `--keep-going` sweep: every cell runs even if some panic; failed
/// cells become `{cell, error}` slots in the results document and the
/// process exits non-zero with a failure summary.
fn run_keep_going(args: &bf_bench::BenchArgs) -> ! {
    // Cell panics are caught and reported in the failure summary; the
    // default hook's per-thread backtraces would only interleave noise.
    std::panic::set_hook(Box::new(|_| {}));
    let cells = grid::run_keep_going(
        &args.cfg,
        &App::ALL,
        &BASELINE_VS_BABELFISH,
        args.threads,
        args.quiet,
    );
    let doc = grid::fig10_keep_going_doc(&args.cfg, &cells);
    bf_bench::emit_results("fig10_tlb-keepgoing", &doc);
    let failures: Vec<_> = cells
        .iter()
        .filter_map(|cell| cell.outcome.as_ref().err().map(|f| (&cell.name, f)))
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
    let cells = grid::run(
        &args.cfg,
        &App::ALL,
        &BASELINE_VS_BABELFISH,
        args.threads,
        args.quiet,
    );
    // One (app, Baseline stats, BabelFish stats) row per application.
    let rows: Vec<_> = cells
        .chunks(2)
        .map(|pair| {
            (
                pair[0].app.name(),
                pair[0].outcome.stats(),
                pair[1].outcome.stats(),
            )
        })
        .collect();

    header("Fig. 10a: L2 TLB MPKI (Baseline -> BabelFish, reduction)");
    println!(
        "{:<10} {:>9} {:>9} {:>8} | {:>9} {:>9} {:>8}",
        "app", "D-base", "D-bf", "D-red", "I-base", "I-bf", "I-red"
    );
    for (name, base, bf) in &rows {
        println!(
            "{:<10} {:>9.3} {:>9.3} {:>7.1}% | {:>9.3} {:>9.3} {:>7.1}%",
            name,
            base.l2_data_mpki(),
            bf.l2_data_mpki(),
            reduction_pct(base.l2_data_mpki(), bf.l2_data_mpki()),
            base.l2_instr_mpki(),
            bf.l2_instr_mpki(),
            reduction_pct(base.l2_instr_mpki(), bf.l2_instr_mpki()),
        );
    }
    println!("paper: Data Serving D -66%, I -96%; Compute and Functions lower but positive");

    header("Fig. 10b: shared hits as a fraction of all L2 TLB hits (BabelFish)");
    println!("{:<10} {:>8} {:>8}", "app", "data", "instr");
    for (name, _, bf) in &rows {
        println!(
            "{:<10} {:>7.1}% {:>7.1}%",
            name,
            bf.l2_data_shared_hit_fraction() * 100.0,
            bf.l2_instr_shared_hit_fraction() * 100.0,
        );
    }
    println!("paper: sizable but application-dependent (e.g. GraphChi I 48%, D 12%)");

    header("Sanity: Baseline has zero shared hits by construction");
    for (name, base, _) in &rows {
        assert_eq!(base.tlb.l2.data_shared_hits, 0, "{name}");
        assert_eq!(base.tlb.l2.instr_shared_hits, 0, "{name}");
    }
    println!("ok");

    bf_bench::emit_results("fig10_tlb", &grid::fig10_doc(&args.cfg, &cells));
    grid::emit_exports("fig10_tlb", &args.cfg, &cells);
}
