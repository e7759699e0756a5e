//! Section VII-D: BabelFish resource analysis.
//!
//! Prints the design-level space/area overheads (paper: 0.238 % memory
//! space, 0.4 % core area; 0.048 % / 0.07 % without the PC bitmask) and
//! a *measured* space overhead from a live BabelFish run's kernel
//! structures.

use babelfish::experiment::{run_serving_machine, ExperimentConfig};
use babelfish::{AreaOverhead, Mode, ServingVariant, SpaceOverhead};
use bf_bench::header;

fn main() {
    let mut args = bf_bench::parse_args();
    // Overhead accounting needs structure, not instruction volume.
    args.cfg.measure_instructions = args.cfg.measure_instructions.min(200_000);

    header("Section VII-D: design-level overheads");
    let paper = SpaceOverhead::paper_design();
    let lean = SpaceOverhead::no_bitmask_design();
    println!(
        "memory space: MaskPages {:.3}% + counters {:.3}% = {:.3}%  (paper: 0.238%)",
        paper.maskpage_percent(),
        paper.counter_percent(),
        paper.total_percent()
    );
    println!(
        "  without PC bitmask: {:.3}%                             (paper: 0.048%)",
        lean.total_percent()
    );
    println!(
        "core area: +{} bits/L2-TLB-entry -> {:.2}%               (paper: 0.4%)",
        AreaOverhead::paper_design().extra_bits_per_entry,
        AreaOverhead::paper_design().core_area_percent()
    );
    println!(
        "  without PC bitmask: +{} bits -> {:.2}%                 (paper: 0.07%)",
        AreaOverhead::no_bitmask_design().extra_bits_per_entry,
        AreaOverhead::no_bitmask_design().core_area_percent()
    );

    header("Measured from a live BabelFish run (MongoDB-like workload)");
    let machine = run_serving_machine(Mode::babelfish(), ServingVariant::MongoDb, &args.cfg);
    let kernel = machine.kernel();
    let store = kernel.store();
    let table_bytes = store.live_tables() * 4096;
    let maskpage_bytes = kernel.maskpage_count() as u64 * 4096;
    let counter_bytes = store.counter_bytes();
    println!("live page-table bytes:   {table_bytes}");
    println!("MaskPage bytes:          {maskpage_bytes}");
    println!("sharer-counter bytes:    {counter_bytes}");
    if table_bytes > 0 {
        println!(
            "measured space overhead: {:.3}% of table storage",
            (maskpage_bytes + counter_bytes) as f64 / table_bytes as f64 * 100.0
        );
    }
    let _ = ExperimentConfig::smoke_test(); // referenced for docs
}
