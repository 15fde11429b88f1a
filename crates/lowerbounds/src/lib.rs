//! # crn-lowerbounds — the hitting games behind Theorems 15 and 16
//!
//! Section 6 of the paper proves COGCAST near-optimal by reducing local
//! broadcast to bipartite *hitting games*. This crate makes those
//! arguments executable:
//!
//! - [`game`] — the `(c,k)`-bipartite hitting game and its `c`-complete
//!   (perfect-matching) variant, with the uniform referee of Lemma 11;
//! - [`players`] — uniform and never-repeat players, game drivers, and
//!   empirical survival curves (used to exhibit the `c²/(αk)` and `c/3`
//!   floors of Lemmas 11 and 14);
//! - [`reduction`] — the Lemma 12 construction turning any broadcast
//!   algorithm into a player, with COGCAST plugged in;
//! - [`global_label`] — the Theorem 16 random-network setup and its
//!   `(c+1)/(k+1)` first-overlap expectation floor.
//!
//! ```
//! use crn_lowerbounds::game::HittingGame;
//! use crn_lowerbounds::players::{play, UniformPlayer};
//! use crn_sim::rng::SimRng;
//!
//! let mut rng = SimRng::seed_from_u64(5);
//! let mut game = HittingGame::new(6, 2, &mut rng);
//! let mut player = UniformPlayer::new(6);
//! let round = play(&mut game, &mut player, 100_000, &mut rng);
//! assert!(round.is_some());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analytic;
pub mod game;
pub mod global_label;
pub mod players;
pub mod reduction;

pub use analytic::{fresh_win_by, single_hit_probability, uniform_win_by};
pub use game::{Edge, HittingGame, Matching};
pub use global_label::{first_overlap_slots, mean_first_overlap, SourceStrategy};
pub use players::{play, survival_curve, FreshPlayer, Player, UniformPlayer};
pub use reduction::{run_reduction, run_reduction_cogcast, ReductionOutcome};
