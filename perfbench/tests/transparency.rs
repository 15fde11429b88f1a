//! The traced run must measure the same program as the untraced one:
//! the delegating wrappers and the traced runners reproduce the public
//! runners' outcomes, and the wrapped network's [`TraceDigest`]
//! bit-for-bit, on each trial workload's first seeds, at pool widths
//! 1 and the machine's core count (at least 2, so the fan-out path
//! runs).
//!
//! Run in release mode: `cargo test --release` in this directory.

use crn_core::aggregate::Sum;
use crn_core::cogcast::{run_broadcast, run_broadcast_on, CogCast};
use crn_core::cogcomp::{run_aggregation, CogComp, CogCompConfig};
use crn_perfbench::trace::{MediumCounters, TracedMedium, TracedProto, Tracer};
use crn_perfbench::workloads::{
    agg_values, cast_budget, run_plain, run_traced, traced_aggregation, traced_broadcast,
    trial_seed, Workload, AGG_ALPHA,
};
use crn_sim::assignment::shared_core;
use crn_sim::channel_model::StaticChannels;
use crn_sim::{
    Medium, Network, OracleSingleHop, ParConfig, PhysicalDecay, Protocol, TraceDigest, WorkerPool,
};
use std::sync::Arc;
use std::time::Instant;

const SEEDS: u64 = 2;

fn widths() -> Vec<Option<ParConfig>> {
    let cores = crn_sim::pool::default_workers().max(2);
    vec![None, Some(ParConfig::new(Arc::new(WorkerPool::new(cores))))]
}

fn model(w: Workload, seed: u64) -> StaticChannels {
    let (n, c, k) = w.shape().expect("trial workload");
    StaticChannels::local(shared_core(n, c, k).expect("valid shape"), seed)
}

/// Steps `net` until every protocol is done or `budget` slots pass,
/// folding every slot into a digest; returns it with the slot count.
fn digest<M, P, Med>(mut net: Network<M, P, StaticChannels, Med>, budget: u64) -> (u64, u64)
where
    M: Clone,
    P: Protocol<M>,
    Med: Medium<M>,
{
    let mut d = TraceDigest::new();
    for _ in 0..budget {
        d.record(net.step());
        if net.all_done() {
            break;
        }
    }
    (d.finish(), net.slot())
}

/// Runs `protos` on trial `s` of `w` plain and wrapped in the traced
/// medium and protocol wrappers; the digests must agree.
fn assert_same_digest<M, P, Med>(
    w: Workload,
    s: u64,
    protos: Vec<P>,
    medium: impl Fn() -> Med,
    budget: u64,
    par: &Option<ParConfig>,
) where
    M: Clone + Send,
    P: Protocol<M> + Clone + Send,
    Med: Medium<M> + MediumCounters,
{
    let mut plain = Network::with_medium(model(w, s), protos.clone(), s, medium()).unwrap();
    plain.set_parallelism(par.clone());
    let wrapped_protos = protos.into_iter().map(|p| TracedProto::new(p, 0)).collect();
    let wrapped_medium = TracedMedium::new(medium(), Instant::now());
    let mut wrapped = Network::with_medium(model(w, s), wrapped_protos, s, wrapped_medium).unwrap();
    wrapped.set_parallelism(par.clone());
    assert_eq!(
        digest(plain, budget),
        digest(wrapped, budget),
        "{} seed {s}",
        w.name()
    );
}

fn cogcast_nodes(n: usize) -> Vec<CogCast<()>> {
    std::iter::once(CogCast::source(()))
        .chain((1..n).map(|_| CogCast::node()))
        .collect()
}

#[test]
fn traced_runners_match_the_public_runners() {
    let mut tr = Tracer::new();
    for par in widths() {
        for i in 0..SEEDS {
            let w = Workload::CastLarge;
            let s = trial_seed(1, i);
            let plain = run_broadcast(model(w, s), s, cast_budget(w)).unwrap();
            let (traced, _) = traced_broadcast(
                model(w, s),
                s,
                cast_budget(w),
                OracleSingleHop::new(),
                par.clone(),
                &mut tr,
                0,
            )
            .unwrap();
            assert_eq!(plain, traced, "cast-large seed {s}");

            let w = Workload::CastPhysical;
            let (plain, pm) =
                run_broadcast_on(model(w, s), s, cast_budget(w), PhysicalDecay::new()).unwrap();
            let (traced, tm) = traced_broadcast(
                model(w, s),
                s,
                cast_budget(w),
                PhysicalDecay::new(),
                par.clone(),
                &mut tr,
                0,
            )
            .unwrap();
            assert_eq!(plain, traced, "cast-physical seed {s}");
            assert_eq!(pm.physical_rounds(), tm.physical_rounds());
            assert_eq!(pm.failed_episodes(), tm.failed_episodes());

            let w = Workload::AggLarge;
            let values = agg_values(w.shape().unwrap().0, s);
            let plain = run_aggregation(model(w, s), values.clone(), s, AGG_ALPHA).unwrap();
            let (traced, _) = traced_aggregation(
                model(w, s),
                values,
                s,
                AGG_ALPHA,
                OracleSingleHop::new(),
                par.clone(),
                &mut tr,
                0,
            )
            .unwrap();
            assert_eq!(plain, traced, "agg-large seed {s}");
        }
    }
    assert!(tr.counts.slots > 0 && tr.counts.sampled_slots > 0);
}

#[test]
fn wrapped_networks_keep_the_trace_digest() {
    for par in widths() {
        for i in 0..SEEDS {
            let s = trial_seed(1, i);
            let w = Workload::CastLarge;
            let protos = cogcast_nodes(w.shape().unwrap().0);
            assert_same_digest(w, s, protos, OracleSingleHop::new, cast_budget(w), &par);

            let w = Workload::CastPhysical;
            let protos = cogcast_nodes(w.shape().unwrap().0);
            assert_same_digest(w, s, protos, PhysicalDecay::new, cast_budget(w), &par);

            let w = Workload::AggLarge;
            let (n, c, k) = w.shape().unwrap();
            let cfg = CogCompConfig::new(n, c, k, AGG_ALPHA);
            let protos: Vec<CogComp<Sum>> = agg_values(n, s)
                .into_iter()
                .enumerate()
                .map(|(j, v)| {
                    if j == 0 {
                        CogComp::source(cfg, v)
                    } else {
                        CogComp::node(cfg, v)
                    }
                })
                .collect();
            let budget = cfg.recommended_budget();
            assert_same_digest(w, s, protos, OracleSingleHop::new, budget, &par);
        }
    }
}

#[test]
fn traced_trials_match_untraced_trials() {
    let mut tr = Tracer::new();
    for w in [
        Workload::CastLarge,
        Workload::AggLarge,
        Workload::CastPhysical,
    ] {
        for i in 0..SEEDS {
            let s = trial_seed(1, i);
            let (plain, _) = run_plain(w, s).unwrap();
            for par in widths() {
                let (traced, _) = run_traced(w, s, par, &mut tr, 0).unwrap();
                assert_eq!(plain, traced, "{} seed {s}", w.name());
            }
        }
    }
}
