//! The shared command-line contract, pinned across every binary in the
//! crate: `--help` (and `-h`) exits 0 and prints a usage text on
//! stdout; an unknown flag exits 2 and names the offender on stderr.
//! The removed `--batch`, `--replay` and `--trace` options count as
//! unknown: a bin that silently ignored one would run a different
//! experiment than the caller asked for (replay a trace with
//! `bf_replay`).
//! For the same reason a bin that accepts `--capture=FILE` must write
//! FILE; one that does not know the option must exit 2.
//! One table drives all bins so a new binary that forgets the contract
//! fails here, not in someone's CI script.

use std::process::Command;

/// Every binary in the crate, with its built path baked in by cargo.
const BINS: &[(&str, &str)] = &[
    ("ablations", env!("CARGO_BIN_EXE_ablations")),
    ("bf_replay", env!("CARGO_BIN_EXE_bf_replay")),
    ("bf_report", env!("CARGO_BIN_EXE_bf_report")),
    ("bf_top", env!("CARGO_BIN_EXE_bf_top")),
    ("bringup_time", env!("CARGO_BIN_EXE_bringup_time")),
    ("colocation_sweep", env!("CARGO_BIN_EXE_colocation_sweep")),
    ("fig10_tlb", env!("CARGO_BIN_EXE_fig10_tlb")),
    ("fig11_performance", env!("CARGO_BIN_EXE_fig11_performance")),
    ("fig9_pte_sharing", env!("CARGO_BIN_EXE_fig9_pte_sharing")),
    ("larger_tlb", env!("CARGO_BIN_EXE_larger_tlb")),
    (
        "resource_overheads",
        env!("CARGO_BIN_EXE_resource_overheads"),
    ),
    ("sharing_levels", env!("CARGO_BIN_EXE_sharing_levels")),
    ("table1_config", env!("CARGO_BIN_EXE_table1_config")),
    (
        "table2_tlb_fraction",
        env!("CARGO_BIN_EXE_table2_tlb_fraction"),
    ),
    ("table3_cacti", env!("CARGO_BIN_EXE_table3_cacti")),
];

#[test]
fn every_bin_exits_zero_on_help_with_usage_text() {
    for (name, exe) in BINS {
        for flag in ["--help", "-h"] {
            let out = Command::new(exe)
                .arg(flag)
                .output()
                .unwrap_or_else(|e| panic!("running {name} {flag}: {e}"));
            assert_eq!(
                out.status.code(),
                Some(0),
                "{name} {flag} exited {:?}, want 0\nstderr: {}",
                out.status.code(),
                String::from_utf8_lossy(&out.stderr),
            );
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                stdout.to_lowercase().contains("usage"),
                "{name} {flag} printed no usage text on stdout:\n{stdout}"
            );
        }
    }
}

#[test]
fn every_bin_exits_two_on_unknown_flags() {
    for (name, exe) in BINS {
        for flag in [
            "--definitely-not-a-flag",
            "--batch",
            "--batch=64",
            "--replay=x.bft",
            "--trace",
            "--trace=64",
        ] {
            let out = Command::new(exe)
                .arg(flag)
                .output()
                .unwrap_or_else(|e| panic!("running {name} {flag}: {e}"));
            assert_eq!(
                out.status.code(),
                Some(2),
                "{name} {flag} exited {:?}, want 2\nstdout: {}",
                out.status.code(),
                String::from_utf8_lossy(&out.stdout),
            );
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains(flag),
                "{name} did not name the unknown flag {flag} on stderr:\n{stderr}"
            );
        }
    }
}

#[test]
fn every_bin_writes_the_capture_file_or_exits_two() {
    let dir = std::env::temp_dir().join(format!("bf-cli-capture-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, exe) in BINS {
        let trace = dir.join(format!("{name}.bft"));
        let out = Command::new(exe)
            .arg("--quick")
            .arg(format!("--capture={}", trace.display()))
            .env_remove("BF_FAULTS")
            .current_dir(&dir)
            .output()
            .unwrap_or_else(|e| panic!("running {name} --capture: {e}"));
        match out.status.code() {
            Some(0) => assert!(
                trace.is_file(),
                "{name} --capture exited 0 without writing {}",
                trace.display()
            ),
            Some(2) => {}
            code => panic!(
                "{name} --capture exited {code:?}, want 0 or 2\nstderr: {}",
                String::from_utf8_lossy(&out.stderr)
            ),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
