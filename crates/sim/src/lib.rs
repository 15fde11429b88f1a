//! # crn-sim — a single-hop cognitive radio network simulator
//!
//! This crate implements the system model of *Efficient Communication in
//! Cognitive Radio Networks* (Gilbert, Kuhn, Newport, Zheng; PODC 2015),
//! Section 2, as an executable substrate:
//!
//! - `n` nodes with unique identities, `C` global channels, synchronous
//!   slots, simultaneous activation;
//! - each node holds `c` channels, every pair overlaps on ≥ `k`;
//! - per-node **local channel labels** (the engine translates; protocols
//!   never see global identities unless the model is explicitly
//!   global-label);
//! - the randomized collision model: one uniformly-chosen transmission
//!   per contended channel succeeds, everyone listening receives it,
//!   broadcasters get success feedback, and losers overhear the winner;
//! - static *and* dynamic channel assignments, plus a jamming medium
//!   wrapper for the setting of Theorem 18.
//!
//! Protocols implement [`Protocol`]; the engine is [`Network`].
//!
//! ## Quick example
//!
//! ```
//! use crn_sim::assignment::shared_core;
//! use crn_sim::channel_model::StaticChannels;
//! use crn_sim::{Action, Event, LocalChannel, Network, NodeCtx, OracleSingleHop, Protocol};
//! use crn_sim::rng::SimRng;
//!
//! /// Every node hops uniformly; node 0 transmits, others listen.
//! struct Hop {
//!     heard: bool,
//! }
//! impl Protocol<u8> for Hop {
//!     fn decide(&mut self, ctx: &NodeCtx<'_>, rng: &mut SimRng) -> Action<u8> {
//!         let ch = LocalChannel(rng.gen_range(0..ctx.c as u32));
//!         if ctx.id.index() == 0 {
//!             Action::Broadcast(ch, 1)
//!         } else {
//!             Action::Listen(ch)
//!         }
//!     }
//!     fn observe(&mut self, _ctx: &NodeCtx<'_>, event: Event<u8>) {
//!         if matches!(event, Event::Received { .. }) {
//!             self.heard = true;
//!         }
//!     }
//!     fn is_done(&self) -> bool {
//!         self.heard
//!     }
//! }
//!
//! let assignment = shared_core(4, 3, 2)?;
//! let model = StaticChannels::local(assignment, 7);
//! let protos = (0..4).map(|i| Hop { heard: i == 0 }).collect();
//! let mut net = Network::with_medium(model, protos, 7, OracleSingleHop::new())?;
//! let outcome = net.run_to_completion(10_000);
//! assert!(outcome.is_done());
//! # Ok::<(), crn_sim::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod assignment;
pub mod channel_model;
pub mod conformance;
pub mod engine;
pub mod error;
pub mod faults;
pub mod ids;
pub mod interference;
pub mod medium;
pub mod pool;
pub mod proto;
pub mod rng;
pub mod sensing;
pub mod topology;
pub mod trace;

pub use assignment::{ChannelAssignment, OverlapPattern};
pub use channel_model::{ChannelModel, DynamicSharedCore, StaticChannels};
pub use conformance::{check_slot, check_slot_for, replay_winners, Rule, Violation};
pub use engine::{Network, ParConfig, RunOutcome, DEFAULT_PAR_THRESHOLD};
pub use error::SimError;
pub use faults::{FaultSchedule, Flaky};
pub use ids::{GlobalChannel, LocalChannel, NodeId};
pub use interference::{Intent, Interference, Jammed};
pub use medium::{
    Medium, MediumProfile, OracleMultihop, OracleSingleHop, PhysicalDecay, SlotInputs,
};
pub use pool::WorkerPool;
pub use proto::{Action, Event, NodeCtx, Protocol};
pub use rng::{derive_rng, mix_seed, SimRng};
pub use sensing::{sense_assignment, SensingReport, SpectrumConfig};
pub use topology::Topology;
pub use trace::{ChannelActivity, SlotActivity, TraceDigest, TraceLog};
