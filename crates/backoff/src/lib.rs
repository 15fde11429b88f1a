//! # crn-backoff — realizing the abstract collision model
//!
//! The simulator's collision model ("one uniformly random winner per
//! contended channel, with success feedback and overheard winners") is
//! an abstraction the paper justifies in footnote 4: it can be
//! implemented on a *standard* radio — collision-as-silence, no
//! feedback — by exponential-decay backoff at a poly-logarithmic cost.
//! This crate measures that substrate on its own (experiment F10):
//! [`decay`] resolves `m ≤ n` stations in `O(log² n)` rounds w.h.p.,
//! with a uniform winner by symmetry, and reports the mean cost of one
//! abstract slot.
//!
//! The decay episode itself lives in [`crn_sim::medium::decay_episode`],
//! the one loop every decay-backoff path runs. Its in-engine use — any
//! `crn_sim` protocol, COGCAST included, driven over this physics — is
//! the [`crn_sim::medium::PhysicalDecay`] medium, which draws from the
//! dedicated `PHYSICAL` RNG stream.
//!
//! ```
//! use crn_backoff::decay::{recommended_rounds, resolve_contention};
//! use crn_sim::SimRng;
//! use rand::SeedableRng;
//!
//! let mut rng = SimRng::seed_from_u64(9);
//! let r = resolve_contention(10, 64, recommended_rounds(64), &mut rng)?.unwrap();
//! assert!(r.winner < 10);
//! # Ok::<(), crn_sim::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod decay;

pub use decay::{
    epoch_len, mean_rounds_per_slot, recommended_rounds, resolve_contention, ContentionResult,
};
