//! Differential tests across media: on a *complete* topology the
//! multihop oracle must be indistinguishable from the single-hop
//! oracle — slot for slot, digest for digest — because every node hears
//! every channel. COGCAST additionally re-pins the repository's golden
//! single-hop trace digest through the multihop path, so any divergence
//! between the two oracle implementations flips a reviewed constant.
//!
//! The physical medium cannot be digest-equal (winners come from the
//! PHYSICAL stream's decay episodes, not the ENGINE stream), so for it
//! we assert the weaker — but still load-bearing — contract: every slot
//! it emits passes the medium-profile-aware conformance checker, and
//! the protocols still complete.

use crn_core::aggregate::Sum;
use crn_core::bounds;
use crn_core::cogcast::CogCast;
use crn_core::cogcomp::{CogComp, CogCompConfig};
use crn_rendezvous::HopTogether;
use crn_sim::assignment::shared_core;
use crn_sim::channel_model::StaticChannels;
use crn_sim::{
    ChannelModel, Medium, Network, OracleMultihop, PhysicalDecay, Topology, TraceDigest,
};

/// Runs `net` until `done` or `budget` slots, digesting every slot and
/// conformance-checking each one against the medium's profile; returns
/// `(slots_run, digest)`.
fn drive<M, P, CM, Med>(
    net: &mut Network<M, P, CM, Med>,
    budget: u64,
    mut done: impl FnMut(&Network<M, P, CM, Med>) -> bool,
) -> (u64, u64)
where
    M: Clone + PartialEq + std::fmt::Debug,
    P: crn_sim::Protocol<M>,
    CM: crn_sim::ChannelModel,
    Med: Medium<M>,
{
    let mut digest = TraceDigest::new();
    let mut slots_run = 0u64;
    for _ in 0..budget {
        digest.record(net.step());
        let violations = net.check_conformance();
        assert!(
            violations.is_empty(),
            "slot {slots_run} violates the model contract: {violations:?}"
        );
        slots_run += 1;
        if done(net) {
            break;
        }
    }
    (slots_run, digest.finish())
}

fn cogcast_protos(n: usize) -> Vec<CogCast<()>> {
    let mut protos = Vec::with_capacity(n);
    protos.push(CogCast::source(()));
    protos.extend((1..n).map(|_| CogCast::node()));
    protos
}

/// The golden COGCAST scenario from `crn-core/tests/golden_trace.rs`
/// (n = 24, C = 13, c = 6, k = 3, local labels, seed 42), run over
/// `OracleMultihop` on the complete 24-node topology: the digest and
/// slot count must equal the pinned single-hop constants exactly.
#[test]
fn cogcast_multihop_complete_reproduces_golden_digest() {
    let n = 24;
    let model = StaticChannels::local(shared_core(n, 6, 3).expect("valid shape"), 42);
    let medium = OracleMultihop::new(Topology::complete(n));
    let mut net = Network::with_medium(model, cogcast_protos(n), 42, medium).expect("construct");
    let budget = bounds::cogcast_slots(24, 6, 3, bounds::DEFAULT_ALPHA);
    let (slots_run, digest) = drive(&mut net, budget, |net| {
        net.protocols().iter().all(|p| p.is_informed())
    });
    assert!(net.protocols().iter().all(|p| p.is_informed()));
    assert_eq!(slots_run, 8, "multihop-complete run length diverged");
    assert_eq!(
        digest, 0x279f_38a0_b5f3_4b08,
        "multihop-complete digest diverged from the single-hop golden trace"
    );
}

/// COGCOMP aggregation differential: identical configuration on the
/// single-hop oracle and the multihop oracle over a complete topology
/// must produce identical traces and results.
#[test]
fn cogcomp_multihop_complete_matches_singlehop_digest() {
    let (n, c, k, seed) = (20usize, 5usize, 2usize, 7u64);
    let cfg = CogCompConfig::new(n, c, k, bounds::DEFAULT_ALPHA);
    let budget = cfg.recommended_budget();
    let build = |_: u32| {
        let model = StaticChannels::local(shared_core(n, c, k).expect("valid shape"), seed);
        let mut protos = vec![CogComp::source(cfg, Sum(0))];
        protos.extend((1..n).map(|i| CogComp::node(cfg, Sum(i as u64))));
        (model, protos)
    };

    let (model, protos) = build(0);
    let mut single = Network::new(model, protos, seed).expect("construct");
    let (slots_s, digest_s) = drive(&mut single, budget, |net| net.all_done());

    let (model, protos) = build(1);
    let mut multi = Network::with_medium(
        model,
        protos,
        seed,
        OracleMultihop::new(Topology::complete(n)),
    )
    .expect("construct");
    let (slots_m, digest_m) = drive(&mut multi, budget, |net| net.all_done());

    assert_eq!(
        slots_s, slots_m,
        "COGCOMP slot counts diverged across oracles"
    );
    assert_eq!(digest_s, digest_m, "COGCOMP traces diverged across oracles");
    let expected = Sum((0..n as u64).sum());
    assert_eq!(single.protocols()[0].result(), Some(&expected));
    assert_eq!(multi.protocols()[0].result(), Some(&expected));
}

/// Rendezvous (hop-together baseline) differential: same contract as
/// the COGCOMP test, over global labels.
#[test]
fn hop_together_multihop_complete_matches_singlehop_digest() {
    let (n, c, k, seed) = (16usize, 5usize, 2usize, 11u64);
    let budget = 4096u64;
    let build = |_: u32| {
        let model = StaticChannels::global(shared_core(n, c, k).expect("valid shape"));
        let total = model.total_channels();
        let mut protos = Vec::with_capacity(n);
        protos.push(HopTogether::source((), total));
        protos.extend((1..n).map(|_| HopTogether::node(total)));
        (model, protos)
    };

    let (model, protos) = build(0);
    let mut single = Network::new(model, protos, seed).expect("construct");
    let (slots_s, digest_s) = drive(&mut single, budget, |net| net.all_done());

    let (model, protos) = build(1);
    let mut multi = Network::with_medium(
        model,
        protos,
        seed,
        OracleMultihop::new(Topology::complete(n)),
    )
    .expect("construct");
    let (slots_m, digest_m) = drive(&mut multi, budget, |net| net.all_done());

    assert!(single.all_done(), "single-hop run must finish in budget");
    assert_eq!(
        slots_s, slots_m,
        "rendezvous slot counts diverged across oracles"
    );
    assert_eq!(
        digest_s, digest_m,
        "rendezvous traces diverged across oracles"
    );
}

/// The physical medium completes the same three protocols and every
/// slot passes the profile-aware conformance checker (the `drive`
/// helper asserts per-slot conformance), with a nonzero physical-round
/// bill.
#[test]
fn physical_medium_conformant_for_all_three_protocols() {
    let (n, c, k) = (12usize, 4usize, 2usize);
    let budget = 1_000_000u64;

    // COGCAST, local labels.
    let model = StaticChannels::local(shared_core(n, c, k).expect("valid shape"), 5);
    let mut net =
        Network::with_medium(model, cogcast_protos(n), 5, PhysicalDecay::new()).expect("construct");
    let (slots, _) = drive(&mut net, budget, |net| {
        net.protocols().iter().all(|p| p.is_informed())
    });
    assert!(net.protocols().iter().all(|p| p.is_informed()));
    assert!(slots < budget);
    assert!(net.medium().physical_rounds() > 0);

    // COGCOMP, local labels.
    let cfg = CogCompConfig::new(n, c, k, bounds::DEFAULT_ALPHA);
    let model = StaticChannels::local(shared_core(n, c, k).expect("valid shape"), 6);
    let mut protos = vec![CogComp::source(cfg, Sum(0))];
    protos.extend((1..n).map(|i| CogComp::node(cfg, Sum(i as u64))));
    let mut net = Network::with_medium(model, protos, 6, PhysicalDecay::new()).expect("construct");
    let (slots, _) = drive(&mut net, budget, |net| net.all_done());
    assert!(net.all_done(), "COGCOMP must finish on the physical medium");
    assert!(slots < budget);
    assert_eq!(net.protocols()[0].result(), Some(&Sum((0..n as u64).sum())));

    // Hop-together rendezvous, global labels.
    let model = StaticChannels::global(shared_core(n, c, k).expect("valid shape"));
    let total = model.total_channels();
    let mut protos = Vec::with_capacity(n);
    protos.push(HopTogether::source((), total));
    protos.extend((1..n).map(|_| HopTogether::node(total)));
    let mut net = Network::with_medium(model, protos, 7, PhysicalDecay::new()).expect("construct");
    let (slots, _) = drive(&mut net, budget, |net| net.all_done());
    assert!(
        net.all_done(),
        "rendezvous must finish on the physical medium"
    );
    assert!(slots < budget);
}

/// The multihop oracle off the complete graph builds its channel
/// records through the single-hop oracle's grouping; this pins the
/// full trace (records included) of a ring run, so any change to how
/// those records are grouped or ordered flips a reviewed constant.
#[test]
fn multihop_ring_trace_is_pinned() {
    let n = 24;
    let model = StaticChannels::local(shared_core(n, 5, 2).expect("valid shape"), 1);
    let medium = OracleMultihop::new(Topology::ring(n));
    let mut net = Network::with_medium(model, cogcast_protos(n), 1, medium).expect("construct");
    let (slots_run, digest) = drive(&mut net, 2000, |net| {
        net.protocols().iter().all(|p| p.is_informed())
    });
    assert_eq!(slots_run, 107, "multihop-ring run length diverged");
    assert_eq!(
        digest, 0x5144_dc75_26b5_2596,
        "multihop-ring trace diverged"
    );
}
