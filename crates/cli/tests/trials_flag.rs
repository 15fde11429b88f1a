//! `--trials 0` is an input error for every subcommand that takes the
//! flag: a clear message and exit code 1, never a panic (exit 101).

use std::process::Command;

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
        "monitor",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_crn"))
            .args([command, "--trials", "0"])
            .output()
            .expect("the crn binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command}: {stderr}");
        assert!(
            stderr.contains("--trials must be at least 1"),
            "{command}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{command} printed a report");
    }
}
