//! The `experiments` and `conformance` binaries reject a bad command
//! line before doing any work: an unknown flag, or a value flag without
//! its value, exits 1 with a usage hint instead of silently running
//! something else.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"))
}

fn assert_rejected(bin: &str, args: &[&str], message: &str, hint: &str) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} must do no work");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
    assert!(
        stderr.contains(hint),
        "{args:?} gives no usage hint: {stderr}"
    );
}

#[test]
fn experiments_rejects_bad_flags() {
    let bin = env!("CARGO_BIN_EXE_experiments");
    let hint = "experiments --help";
    assert_rejected(bin, &["t4", "--quik"], "unknown flag --quik", hint);
    assert_rejected(bin, &["f10", "--out"], "--out needs a value", hint);
    assert_rejected(
        bin,
        &["f10", "--out", "--quick"],
        "--out needs a value",
        hint,
    );
    assert_rejected(bin, &["t4", "--quick", "--quick"], "more than once", hint);
    let out = run(bin, &["--list"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("f14"));
}

#[test]
fn conformance_rejects_bad_flags() {
    let bin = env!("CARGO_BIN_EXE_conformance");
    let hint = "usage: conformance";
    assert_rejected(bin, &["--quick", "--bogus"], "unknown flag --bogus", hint);
    assert_rejected(
        bin,
        &["--quick", "--medium"],
        "--medium needs a value",
        hint,
    );
    // The suite steps every network on one thread and runs no trial
    // pool, so a pool width is not a flag it accepts.
    assert_rejected(bin, &["--threads", "2"], "unknown flag --threads", hint);
    assert_rejected(bin, &["--medium", "radio"], "--medium needs one of", hint);
    assert_rejected(bin, &["quick"], "unexpected argument quick", hint);
}
