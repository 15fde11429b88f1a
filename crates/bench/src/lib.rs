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
//! Criterion benches (`cargo bench -p crn-bench`) time the protocol
//! kernels themselves.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod args;
pub mod effort;
pub mod experiments;

pub use effort::{mean_slots, par_trials, Effort};
pub use experiments::{run_experiment, Artifact, EXPERIMENT_IDS};
