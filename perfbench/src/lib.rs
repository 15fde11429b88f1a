//! The repository's benchmark: four workloads run untraced for the
//! end-to-end metrics, and a traced run that times every layer from
//! outside, through the public API. See `README.md` in this directory.

pub mod cpu;
pub mod probe;
pub mod suite;
pub mod trace;
pub mod workloads;
