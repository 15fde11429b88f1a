//! # crn-bench — the experiment harness
//!
//! One function per reproduced table/figure of the paper's claims (the
//! paper has no numbered tables or figures — it is a PODC theory paper
//! — so the ids T1–T5/F1–F12 are defined in DESIGN.md, each tied to a
//! theorem or section). The `experiments` binary prints any subset:
//!
//! ```text
//! cargo run -p crn-bench --bin experiments -- all --quick
//! cargo run -p crn-bench --bin experiments -- t1 f4
//! ```
//!
//! The `kernels` bench (`cargo bench -p crn-bench --bench kernels`)
//! times the engine and protocol kernels themselves and records them to
//! `BENCH_engine.json`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod args;
pub mod effort;
pub mod experiments;

pub use effort::{mean_slots, par_trials, Effort};
pub use experiments::{run_experiment, Artifact, EXPERIMENT_IDS};

/// The git revision the numbers were taken at, `-dirty` when tracked
/// files differ from it; `unknown` outside a git checkout. Both BENCH
/// files record it beside the host's core count.
pub fn revision() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    match git(&["rev-parse", "--short=12", "HEAD"]) {
        Some(rev) => match git(&["status", "--porcelain", "--untracked-files=no"]) {
            Some(changes) if changes.is_empty() => rev,
            _ => format!("{rev}-dirty"),
        },
        None => "unknown".into(),
    }
}
