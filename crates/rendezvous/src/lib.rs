//! # crn-rendezvous — the baseline protocols COGCAST/COGCOMP beat
//!
//! The paper's introduction measures COGCAST and COGCOMP against the
//! "straightforward solutions" built from randomized rendezvous; its
//! Section 6 discussion also exhibits a global-label algorithm that
//! beats COGCAST when `c ≫ n`. This crate implements all of them:
//!
//! - [`pairwise`] — the two-node randomized-rendezvous primitive
//!   (`O(c²/k)` expected meeting time);
//! - [`broadcast`] — rendezvous-based local broadcast, `O((c²/k)·lg n)`
//!   (no epidemic relay: the factor-`c` gap to COGCAST);
//! - [`aggregate`] — rendezvous-based aggregation, `O(c²·n/k)`;
//! - [`deterministic`] — jump-stay rendezvous with a guaranteed
//!   meeting horizon (T6's deterministic side);
//! - [`hop_together`] — the global-label sequential scan that completes
//!   in `O(C/k)` expected slots, the separation witness between the
//!   local-label (Theorem 15) and global-label (Theorem 16) bounds.
//!
//! ```
//! use crn_rendezvous::broadcast::run_baseline_broadcast;
//! use crn_sim::{assignment::shared_core, channel_model::StaticChannels};
//!
//! let model = StaticChannels::local(shared_core(10, 4, 2)?, 9);
//! let run = run_baseline_broadcast(model, 9, 1_000_000)?;
//! assert!(run.completed());
//! # Ok::<(), crn_sim::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod aggregate;
pub mod broadcast;
pub mod deterministic;
pub mod hop_together;
pub mod msg;
pub mod pairwise;

pub use aggregate::{run_baseline_aggregation, BaselineAggregationRun, RendezvousAggregation};
pub use broadcast::{run_baseline_broadcast, BaselineBroadcastRun, RendezvousBroadcast};
pub use deterministic::{jump_stay_rendezvous_slots, JumpStay, JumpStaySchedule, SlotPlan};
pub use hop_together::{run_hop_together, HopTogether, HopTogetherRun};
pub use msg::BaselineMsg;
pub use pairwise::{rendezvous_slots, RandomHop};
