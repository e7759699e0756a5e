//! Thin CLI wrapper over [`bf_bench::report`]: diff two results JSON
//! documents and validate timeline, trace and profile exports.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(bf_bench::report::run_cli(&args));
}
