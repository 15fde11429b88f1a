//! Golden-trace regression: fixed COGCAST and COGCOMP configurations'
//! complete per-slot physical-layer behavior, each folded into one
//! digest.
//!
//! The digest covers every field of every [`crn_sim::SlotActivity`] —
//! channel ids, broadcaster sets, winners, listener sets, sleeper and
//! jam counts — so *any* change to the engine's slot resolution, to the
//! RNG algorithm or stream derivation, or to COGCAST's or COGCOMP's
//! decision logic flips the constant. That turns silent behavioral
//! drift into a deliberate, reviewed update of one number.
//!
//! If this test fails after an intentional change (e.g. swapping the
//! generator behind `SimRng`), re-run with the printed digest, confirm
//! the experiment-level results still make sense, and update both this
//! constant and the known-answer constants in `crn_sim::rng`.

use crn_core::aggregate::Sum;
use crn_core::bounds;
use crn_core::cogcast::CogCast;
use crn_core::cogcomp::{CogComp, CogCompConfig, CogCompMsg};
use crn_jamming::{JammerStrategy, UniformJammer};
use crn_sim::assignment::shared_core;
use crn_sim::channel_model::{DynamicSharedCore, StaticChannels};
use crn_sim::{
    ChannelModel, FaultSchedule, Flaky, Jammed, Medium, Network, OracleSingleHop, Protocol,
    TraceDigest,
};

/// The fixed scenario: n = 24 nodes, C = 13 global channels, c = 6
/// local channels with pairwise overlap k = 3, local labels, master
/// seed 42.
fn golden_net() -> Network<(), CogCast<()>, StaticChannels> {
    let n = 24;
    let assignment = shared_core(n, 6, 3).expect("valid shape");
    let model = StaticChannels::local(assignment, 42);
    let mut protos = Vec::with_capacity(n);
    protos.push(CogCast::source(()));
    protos.extend((1..n).map(|_| CogCast::node()));
    Network::with_medium(model, protos, 42, OracleSingleHop::new()).expect("construct")
}

#[test]
fn golden_cogcast_trace_digest() {
    let mut net = golden_net();
    let budget = bounds::cogcast_slots(24, 6, 3, bounds::DEFAULT_ALPHA);
    let mut digest = TraceDigest::new();
    let mut slots_run = 0u64;
    for _ in 0..budget {
        digest.record(net.step());
        slots_run += 1;
        if net.protocols().iter().all(|p| p.is_informed()) {
            break;
        }
    }
    assert!(
        net.protocols().iter().all(|p| p.is_informed()),
        "golden run must complete within the Theorem 4 budget ({budget})"
    );
    // Pin the slot count first: a digest mismatch with an equal slot
    // count points at slot *content*; a different slot count points at
    // protocol progress itself.
    assert_eq!(
        slots_run,
        8,
        "golden run length changed (digest {:#018x})",
        digest.finish()
    );
    assert_eq!(
        digest.finish(),
        0x279f_38a0_b5f3_4b08,
        "golden trace digest changed after {slots_run} slots"
    );
}

/// Drives `net` to full information within `budget`, folding every slot
/// into a digest and conformance-checking each slot as it executes;
/// returns `(slots_run, digest)`.
fn run_informed<CM: ChannelModel, Med: Medium<()>>(
    net: &mut Network<(), CogCast<()>, CM, Med>,
    seed: u64,
    budget: u64,
) -> (u64, u64) {
    let mut digest = TraceDigest::new();
    let mut trace = Vec::new();
    let mut slots_run = 0u64;
    for _ in 0..budget {
        trace.push(net.step().clone());
        digest.record(net.last_activity().expect("step() records every slot"));
        let violations = net.check_conformance();
        assert!(
            violations.is_empty(),
            "slot {slots_run} violates the model contract: {violations:?}"
        );
        slots_run += 1;
        if net.protocols().iter().all(|p| p.is_informed()) {
            break;
        }
    }
    assert!(
        net.protocols().iter().all(|p| p.is_informed()),
        "golden run must complete within the budget ({budget})"
    );
    assert_eq!(
        crn_sim::replay_winners(seed, &trace),
        vec![],
        "recorded winners must match an independent ENGINE-stream replay"
    );
    (slots_run, digest.finish())
}

/// The jammed scenario of Theorem 18: the same shape as the plain
/// golden run but over `full_overlap` channels (the jammer masks the
/// global space directly) with a random n-uniform jammer of budget 2,
/// so `c − 2k = 8 − 4 = 4` effective channels remain per pair.
#[test]
fn golden_jammed_trace_digest() {
    let n = 24;
    let (c, jam_k) = (8, 2);
    let assignment = crn_sim::assignment::full_overlap(n, c).expect("valid shape");
    let model = StaticChannels::local(assignment, 42);
    let mut protos = Vec::with_capacity(n);
    protos.push(CogCast::source(()));
    protos.extend((1..n).map(|_| CogCast::node()));
    let jammer = UniformJammer::new(n, c, jam_k, JammerStrategy::Random);
    let mut net = Network::with_medium(
        model,
        protos,
        42,
        Jammed::new(OracleSingleHop::new(), Box::new(jammer)),
    )
    .expect("construct");
    let budget = crn_jamming::jammed_budget(n, c, jam_k, 60.0);
    let (slots_run, digest) = run_informed(&mut net, 42, budget);
    assert_eq!(
        slots_run, 6,
        "jammed golden run length changed (digest {digest:#018x})"
    );
    assert_eq!(
        digest, 0xc510_f8d7_d599_293c,
        "jammed golden trace digest changed after {slots_run} slots"
    );
}

/// The churned scenario: a `DynamicSharedCore` redraws each node's
/// non-core channels with probability 0.5 per slot, so channel sets
/// (and labels) shift under COGCAST while the k-core keeps every pair
/// overlapping.
#[test]
fn golden_churned_trace_digest() {
    let n = 24;
    let model = DynamicSharedCore::new(n, 6, 3, 30, 0.5, 42).expect("valid shape");
    let mut protos = Vec::with_capacity(n);
    protos.push(CogCast::source(()));
    protos.extend((1..n).map(|_| CogCast::node()));
    let mut net =
        Network::with_medium(model, protos, 42, OracleSingleHop::new()).expect("construct");
    let budget = bounds::cogcast_slots(24, 6, 3, bounds::DEFAULT_ALPHA);
    let (slots_run, digest) = run_informed(&mut net, 42, budget);
    assert_eq!(
        slots_run, 5,
        "churned golden run length changed (digest {digest:#018x})"
    );
    assert_eq!(
        digest, 0xe848_edf3_85c4_d889,
        "churned golden trace digest changed after {slots_run} slots"
    );
}

/// The COGCOMP scenario: `Sum` over n = 24 nodes on `shared_core(24,
/// 6, 2)` with alpha 10 and master seed 42, node `i` holding `i`.
/// `wrap` builds node `i` from its bare protocol instance.
fn cogcomp_net<P: Protocol<CogCompMsg<Sum>>>(
    cfg: CogCompConfig,
    wrap: impl Fn(usize, CogComp<Sum>) -> P,
) -> Network<CogCompMsg<Sum>, P, StaticChannels> {
    let model = StaticChannels::local(shared_core(cfg.n, cfg.c, cfg.k).expect("valid shape"), 42);
    let protos = (0..cfg.n)
        .map(|i| {
            let value = Sum(i as u64);
            let proto = if i == 0 {
                CogComp::source(cfg, value)
            } else {
                CogComp::node(cfg, value)
            };
            wrap(i, proto)
        })
        .collect();
    Network::with_medium(model, protos, 42, OracleSingleHop::new()).expect("construct")
}

/// Runs a COGCOMP network until every node is done, folding every
/// slot into a digest; returns `(slots_run, digest)` after checking
/// that the run reached phase four and the source holds the exact sum.
fn run_cogcomp<P: Protocol<CogCompMsg<Sum>>>(
    net: &mut Network<CogCompMsg<Sum>, P, StaticChannels>,
    cfg: CogCompConfig,
    source_result: impl Fn(&P) -> Option<Sum>,
) -> (u64, u64) {
    let mut digest = TraceDigest::new();
    let mut slots_run = 0u64;
    for _ in 0..cfg.recommended_budget() {
        digest.record(net.step());
        slots_run += 1;
        if net.all_done() {
            break;
        }
    }
    assert!(net.all_done(), "COGCOMP golden run must terminate");
    assert!(
        slots_run > cfg.phase4_start(),
        "the run must cover all four phases"
    );
    let n = cfg.n as u64;
    assert_eq!(
        source_result(&net.protocols()[0]),
        Some(Sum(n * (n - 1) / 2))
    );
    (slots_run, digest.finish())
}

/// COGCOMP end to end: phase one's COGCAST tree, the phase-two census,
/// the phase-three rewind of phase one and phase four's mediated
/// aggregation all shape the digest, so a change to how phase one is
/// logged or replayed flips it.
#[test]
fn golden_cogcomp_trace_digest() {
    let cfg = CogCompConfig::new(24, 6, 2, 10.0);
    let mut net = cogcomp_net(cfg, |_, proto| proto);
    let (slots_run, digest) = run_cogcomp(&mut net, cfg, |p| p.result().copied());
    assert_eq!(
        slots_run, 343,
        "COGCOMP golden run length changed (digest {digest:#018x})"
    );
    assert_eq!(
        digest, 0x6c3b_3705_5c93_5cba,
        "COGCOMP golden trace digest changed after {slots_run} slots"
    );
}

/// The same COGCOMP run with node `i` down for slots `0..i % 5`, so
/// the phase-one log pads the slots a node missed before the rewind
/// reads it.
#[test]
fn golden_flaky_cogcomp_trace_digest() {
    let cfg = CogCompConfig::new(24, 6, 2, 10.0);
    let mut net = cogcomp_net(cfg, |i, proto| {
        let schedule = if i == 0 {
            FaultSchedule::None
        } else {
            FaultSchedule::Window {
                from: 0,
                to: (i % 5) as u64,
            }
        };
        Flaky::new(proto, schedule)
    });
    let (slots_run, digest) = run_cogcomp(&mut net, cfg, |p| p.inner().result().copied());
    assert_eq!(
        slots_run, 343,
        "flaky COGCOMP golden run length changed (digest {digest:#018x})"
    );
    assert_eq!(
        digest, 0x84c8_1010_4f11_15a4,
        "flaky COGCOMP golden trace digest changed after {slots_run} slots"
    );
}

#[test]
fn golden_trace_digest_is_reproducible() {
    // Two independent constructions of the same configuration must give
    // the same digest — the golden constant pins a function of the
    // seed, not of incidental process state.
    let run = |_: u32| {
        let mut net = golden_net();
        let mut digest = TraceDigest::new();
        for _ in 0..256 {
            digest.record(net.step());
        }
        digest.finish()
    };
    assert_eq!(run(0), run(1));
}
