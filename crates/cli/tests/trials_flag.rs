//! Flag validation at the `crn` binary's boundary: an input error is a
//! clear message and exit code 1, never a panic (exit 101) and never a
//! flag accepted but ignored.

use std::process::{Command, Output};

fn crn(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_crn"))
        .args(args)
        .output()
        .expect("the crn binary runs")
}

/// Asserts that `crn args` exits 1 with `message` on stderr and prints
/// no report.
fn assert_rejected(args: &[&str], message: &str) {
    let out = crn(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a report");
}

#[test]
fn zero_trials_is_rejected_by_every_command() {
    for command in [
        "broadcast",
        "aggregate",
        "rendezvous",
        "flood",
        "game",
        "jam",
        "backoff",
    ] {
        assert_rejected(&[command, "--trials", "0"], "--trials must be at least 1");
    }
}

#[test]
fn monitor_rejects_trials() {
    // monitor runs exactly one trial, so the flag would be ignored.
    assert_rejected(&["monitor", "--trials", "3"], "unknown flag");
}

#[test]
fn monitor_rejects_op() {
    // monitor aggregates only `max`, so the flag has no other value.
    assert_rejected(&["monitor", "--op", "max"], "unknown flag");
}

#[test]
fn threads_flag_is_unknown_to_crn() {
    // crn runs its trials in order on one thread: no pool to size.
    assert_rejected(&["broadcast", "--threads", "2"], "unknown flag");
}
