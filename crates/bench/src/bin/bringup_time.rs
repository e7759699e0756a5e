//! Section VII-C: serverless-function container bring-up time.
//!
//! Measures `docker start` of function containers from a pre-created
//! image (fork + mmap + first-touch sequence). The paper reports
//! BabelFish speeding bring-up by 8 %, with the remaining time dominated
//! by the Docker engine runtime. The two cells (Baseline, BabelFish)
//! execute in parallel on the bf-exec sweep runner (`--threads`).

use babelfish::AccessDensity;
use bf_bench::grid::{self, App, Outcome, BASELINE_VS_BABELFISH};
use bf_bench::{header, reduction_pct, versus};

fn main() {
    let args = bf_bench::parse_args();
    bf_bench::capture::preflight(&args);
    let cells = grid::run(
        &args.cfg,
        &[App::Functions(AccessDensity::Dense)],
        &BASELINE_VS_BABELFISH,
        args.threads,
        args.quiet,
    );
    let [Outcome::Functions(base), Outcome::Functions(bf)] =
        [&cells[0], &cells[1]].map(|c| &c.outcome)
    else {
        unreachable!("function cells hold function results");
    };

    header("Section VII-C: function container bring-up time");
    println!(
        "{:<12} {:>14} {:>14} {:>9}",
        "container", "baseline", "babelfish", "reduction"
    );
    for ((name, b), (_, f)) in base.bringup_cycles.iter().zip(bf.bringup_cycles.iter()) {
        println!(
            "{:<12} {:>13}c {:>13}c {:>8.1}%",
            name,
            b,
            f,
            reduction_pct(*b as f64, *f as f64)
        );
    }
    let red = reduction_pct(base.mean_bringup(), bf.mean_bringup());
    println!("\nmean bring-up reduction: {}", versus(red, 8.0, "%"));
    println!(
        "(the residual is docker-engine runtime, as in the paper: \"Most of the\n remaining overheads in bring-up are due to the runtime of the Docker engine\")"
    );

    grid::emit_exports("bringup_time", &args.cfg, &cells);
}
