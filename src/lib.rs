//! # crn — Efficient Communication in Cognitive Radio Networks
//!
//! A from-scratch Rust reproduction of *Efficient Communication in
//! Cognitive Radio Networks* (Gilbert, Kuhn, Newport, Zheng; PODC
//! 2015): the COGCAST local-broadcast and COGCOMP data-aggregation
//! protocols, the single-hop cognitive radio network model they run on,
//! the rendezvous baselines they are measured against, the bipartite
//! hitting games behind the paper's lower bounds, the decay-backoff
//! substrate that realizes the abstract collision model (in
//! [`sim::medium`]), and the jamming reduction of Theorem 18.
//!
//! This facade re-exports every sub-crate under a stable path:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sim`] | `crn-sim` | the network model, slot engine and media (decay backoff included) |
//! | [`core`] | `crn-core` | COGCAST, COGCOMP, trees, bounds |
//! | [`rendezvous`] | `crn-rendezvous` | baseline protocols |
//! | [`lowerbounds`] | `crn-lowerbounds` | hitting games & reductions |
//! | [`jamming`] | `crn-jamming` | n-uniform jammers, Theorem 18 |
//! | [`stats`] | `crn-stats` | summaries, fits, tables |
//!
//! ## Quickstart
//!
//! ```
//! use crn::core::cogcast::run_broadcast_default;
//! use crn::sim::{assignment::shared_core, channel_model::StaticChannels};
//!
//! // 32 nodes, 8 channels each, pairwise overlap >= 2, local labels.
//! let model = StaticChannels::local(shared_core(32, 8, 2)?, 42);
//! let run = run_broadcast_default(model, 42, 10.0)?;
//! println!("broadcast finished in {:?} slots", run.slots);
//! assert!(run.completed());
//! # Ok::<(), crn::sim::SimError>(())
//! ```
//!
//! See the `examples/` directory for end-to-end scenarios and
//! DESIGN.md / EXPERIMENTS.md for the experiment index.

#![warn(missing_docs)]

pub use crn_core as core;
pub use crn_jamming as jamming;
pub use crn_lowerbounds as lowerbounds;
pub use crn_rendezvous as rendezvous;
pub use crn_sim as sim;
pub use crn_stats as stats;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crn_core::aggregate::{Aggregate, Collect, Count, Max, MeanAcc, Min, Sum};
    pub use crn_core::bounds;
    pub use crn_core::cogcast::{run_broadcast, run_broadcast_default, BroadcastRun, CogCast};
    pub use crn_core::cogcomp::{
        run_aggregation, run_aggregation_default, AggregationRun, CogComp, CogCompConfig,
    };
    pub use crn_core::tree::DistributionTree;
    pub use crn_sim::{
        assignment, Action, ChannelAssignment, ChannelModel, DynamicSharedCore, Event,
        GlobalChannel, LocalChannel, Network, NodeCtx, NodeId, Protocol, RunOutcome, SimError,
        StaticChannels,
    };
}
