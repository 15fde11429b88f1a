//! Float flags outside their domain are input errors: `aggregate
//! --alpha` needs a positive finite number and `broadcast --churn` a
//! rate in `[0, 1]`. Every bad value exits 1 with a message — never a
//! panic (exit 101), an abort (exit 134), or a run that quietly uses
//! some other value.

use std::process::{Command, Output};

fn crn(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_crn"))
        .args(args)
        .output()
        .expect("the crn binary runs")
}

#[test]
fn out_of_domain_float_flags_are_rejected() {
    let cases: [(&str, &str, &[&str], &str); 2] = [
        (
            "aggregate",
            "--alpha",
            &["0", "-1", "nan", "inf", "1e30"],
            "alpha",
        ),
        (
            "broadcast",
            "--churn",
            &["-1", "nan", "inf", "1e30"],
            "--churn must be in [0, 1]",
        ),
    ];
    for (command, flag, values, message) in cases {
        for value in values {
            let out = crn(&[command, "--n", "4", "--trials", "1", flag, value]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                out.status.code(),
                Some(1),
                "{command} {flag} {value}: {stderr}"
            );
            assert!(
                stderr.starts_with("error: ") && stderr.contains(message),
                "{command} {flag} {value}: {stderr}"
            );
            assert!(out.stdout.is_empty(), "{command} {flag} {value} ran");
        }
    }
}

#[test]
fn in_domain_float_flags_still_run() {
    for args in [
        ["aggregate", "--alpha", "10"],
        ["broadcast", "--churn", "0"],
        ["broadcast", "--churn", "1"],
    ] {
        let out = crn(&[args[0], "--n", "4", "--trials", "1", args[1], args[2]]);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
    }
    let out = crn(&["aggregate", "--n", "4", "--trials", "1", "--alpha", "10"]);
    assert!(String::from_utf8_lossy(&out.stdout).contains("result (sum of node ids 0..4): 6"));
}
