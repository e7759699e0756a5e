//! Section VII-C "BabelFish vs Larger TLB": re-investing BabelFish's
//! extra storage bits in a bigger conventional L2 TLB.
//!
//! Paper reference: the enlarged conventional TLB gains only 2.1 %
//! (serving mean latency), 0.6 % (compute), 1.1 % / 0.3 % (functions) —
//! "not a match for BabelFish". Cells (7 workloads × 3 modes) execute
//! in parallel on the bf-exec sweep runner (`--threads`).

use babelfish::Mode;
use bf_bench::grid::{self, App};
use bf_bench::{header, reduction_pct};

fn main() {
    let args = bf_bench::parse_args();
    bf_bench::capture::preflight(&args);
    let modes = [Mode::Baseline, Mode::BaselineLargerTlb, Mode::babelfish()];
    let cells = grid::run(&args.cfg, &App::ALL, &modes, args.threads, args.quiet);

    header("Section VII-C: BabelFish vs a larger conventional L2 TLB");
    println!(
        "{:<12} {:>12} {:>12}",
        "workload", "larger-TLB", "BabelFish"
    );
    for row in cells.chunks(modes.len()) {
        let [base, larger, bf] = [0, 1, 2].map(|i| row[i].outcome.headline());
        println!(
            "{:<12} {:>11.1}% {:>11.1}%",
            row[0].app.name(),
            reduction_pct(base, larger),
            reduction_pct(base, bf)
        );
    }
    grid::emit_exports("larger_tlb", &args.cfg, &cells);

    println!(
        "\npaper: larger TLB gains 0.3–2.1%; \"this larger L2 TLB is not a match for BabelFish\""
    );
}
