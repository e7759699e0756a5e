//! `bf_perf`: the simulator's host-time benchmark.
//!
//! ```text
//! bf_perf                                   # all four workloads, every metric
//! bf_perf --workload serve-mongodb --seed 7 --seconds 20 --trace 0
//! bf_perf --quick                           # smoke-test sizes, one rep
//! ```
//!
//! With `--workload`, one workload runs in this process and the last
//! stdout line is its JSON result. Without it, each workload runs in a
//! child process of its own, one after another, and the last line
//! gathers their results. Exit status: 0 when every check passed, 1
//! when a cell failed, 2 on a usage error.

use bf_perf::{BenchWorkload, Options, Sets, DEFAULT_SECONDS, DEFAULT_SEED};
use serde::Value;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

const USAGE: &str = "options:
  --workload NAME  run one workload in this process: serve-mongodb,
                   compute-fio-baseline, faas-sparse or
                   replay-mongodb-profiled (default: all four, each in
                   a child process of its own)
  --seed N         seed of every generated input, decimal or 0x-hex
                   (default 0x5eed)
  --seconds S      timed budget per workload: reps run until it is
                   spent (default 10)
  --trace 0|1      0: end-to-end metrics only; 1: per-layer metrics,
                   traced run included (default: both)
  --quick          smoke-test sizes, one rep
  -h, --help       this message";

/// Parsed command line: `workload` is None for the all-workloads run.
struct Cli {
    workload: Option<BenchWorkload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    quick: bool,
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

/// Parses the arguments; `Err("")` asks for the usage text.
fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        quick: false,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) => (flag, Some(value.to_owned())),
            None => (arg.as_str(), None),
        };
        match flag {
            "-h" | "--help" => return Err(String::new()),
            "--quick" if inline.is_none() => {
                cli.quick = true;
                continue;
            }
            "--workload" | "--seed" | "--seconds" | "--trace" => {}
            _ => return Err(format!("unknown argument: {arg}")),
        }
        let value = inline
            .or_else(|| args.next().cloned())
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let invalid = || format!("invalid {flag} value: {value}");
        match flag {
            "--workload" => {
                cli.workload = Some(BenchWorkload::from_name(&value).ok_or_else(invalid)?);
            }
            "--seed" => cli.seed = parse_seed(&value).ok_or_else(invalid)?,
            "--seconds" => {
                cli.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(invalid)?;
            }
            _ => {
                cli.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(invalid()),
                });
            }
        }
    }
    Ok(cli)
}

fn sets(trace: Option<bool>) -> Sets {
    match trace {
        None => Sets::Both,
        Some(false) => Sets::EndToEnd,
        Some(true) => Sets::PerLayer,
    }
}

/// Runs one workload in this process.
fn run_one(cli: &Cli, workload: BenchWorkload) -> ExitCode {
    let opts = Options {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        sets: sets(cli.trace),
        quick: cli.quick,
    };
    let report = bf_perf::run(&opts);
    println!("{} (seed {:#x})", workload.name(), cli.seed);
    for line in report.lines() {
        println!("{line}");
    }
    let json = report.json(opts.sets.end_to_end(), opts.sets.per_layer());
    println!(
        "{}",
        serde_json::to_string(&json).expect("the result serializes")
    );
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs every workload in a child process of its own, one at a time,
/// echoing each child's output; the last line gathers their results.
fn run_all(cli: &Cli) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(error) => {
            eprintln!("error: locating bf_perf: {error}");
            return ExitCode::from(1);
        }
    };
    let mut results = BTreeMap::new();
    let mut ok = true;
    for workload in BenchWorkload::ALL {
        let mut child = Command::new(&exe);
        child.args(["--workload", workload.name()]);
        child.args(["--seed", &cli.seed.to_string()]);
        child.args(["--seconds", &cli.seconds.to_string()]);
        if let Some(trace) = cli.trace {
            child.args(["--trace", if trace { "1" } else { "0" }]);
        }
        if cli.quick {
            child.arg("--quick");
        }
        let output = match child.output() {
            Ok(output) => output,
            Err(error) => {
                eprintln!("error: running {}: {error}", workload.name());
                return ExitCode::from(1);
            }
        };
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        ok &= output.status.success();
        let result = stdout
            .lines()
            .last()
            .and_then(|line| serde_json::from_str(line).ok())
            .unwrap_or(Value::Null);
        results.insert(workload.name().to_owned(), result);
    }
    let mut doc = BTreeMap::new();
    doc.insert("seed".to_owned(), Value::U64(cli.seed));
    doc.insert("seconds".to_owned(), Value::F64(cli.seconds));
    doc.insert("quick".to_owned(), Value::Bool(cli.quick));
    doc.insert("workloads".to_owned(), Value::Object(results));
    println!(
        "{}",
        serde_json::to_string(&Value::Object(doc)).expect("the summary serializes")
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let program = args.first().map_or("bf_perf", String::as_str);
    let cli = match parse(&args[1.min(args.len())..]) {
        Ok(cli) => cli,
        Err(message) if message.is_empty() => {
            println!("usage: {program} [options]\n{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("error: {message}\nusage: {program} [options]\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match cli.workload {
        Some(workload) => run_one(&cli, workload),
        None => run_all(&cli),
    }
}
