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

use bf_bench::sweeps::{fig11_data, fig11_doc, fig11_profile_cells, fig11_timeline_cells};
use bf_bench::{header, reduction_pct, versus};

fn main() {
    let args = bf_bench::parse_args();
    bf_bench::capture::preflight(&args);
    let data = fig11_data(&args.cfg, args.threads, args.quiet);

    header("Fig. 11: Data Serving latency reduction");
    println!("{:<10} {:>10} {:>10}", "app", "mean", "p95(tail)");
    let mut mean_reductions = Vec::new();
    let mut tail_reductions = Vec::new();
    for (name, base, bf) in &data.serving {
        let mean_red = reduction_pct(base.mean_latency, bf.mean_latency);
        let tail_red = reduction_pct(base.p95_latency as f64, bf.p95_latency as f64);
        println!("{:<10} {:>9.1}% {:>9.1}%", name, mean_red, tail_red);
        mean_reductions.push(mean_red);
        tail_reductions.push(tail_red);
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
    for (name, base, bf) in &data.compute {
        let red = reduction_pct(base.exec_cycles as f64, bf.exec_cycles as f64);
        println!("{:<10} {:>9.1}%", name, red);
        compute_reductions.push(red);
    }
    println!(
        "compute time reduction:  {}",
        versus(mean(&compute_reductions), 11.0, "%")
    );

    header("Fig. 11: Function execution-time reduction (non-leading functions)");
    for ((label, base, bf), paper) in data.functions.iter().zip([10.0, 55.0]) {
        let red = reduction_pct(base.follower_mean_exec(), bf.follower_mean_exec());
        println!("{:<10} {}", label, versus(red, paper, "%"));
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

    let doc = fig11_doc(&args.cfg, &data);
    bf_bench::emit_results("fig11_performance", &doc);
    bf_bench::emit_timeline_results("fig11_performance", &args.cfg, &fig11_timeline_cells(&data));
    bf_bench::emit_profile_results("fig11_performance", &args.cfg, &fig11_profile_cells(&data));
}
