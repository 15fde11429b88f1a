//! Sequential ↔ parallel differential suite: the engine's intra-slot
//! fan-out must be **digest-identical** to the sequential path at every
//! worker count — the pool only reorders *when* per-node decide/observe
//! work runs, never what any node computes.
//!
//! Each scenario is swept over workers ∈ {1, 2, 3, 8} with a dedicated
//! pool at threshold 1, so even the smallest golden networks take the
//! parallel phases (1 worker is the engine's sequential special case
//! and doubles as the reference). Coverage:
//!
//! - the three pinned golden COGCAST traces (plain, jammed, churned),
//!   so a parallel-path divergence flips a reviewed constant;
//! - COGCAST, COGCOMP and hop-together rendezvous over all three media
//!   (`oracle`, `multihop` on the complete topology, `physical` decay
//!   backoff), digest-compared worker count against worker count;
//! - per-slot model conformance and, for the golden traces, an
//!   independent serial ENGINE-stream winner replay — proving the
//!   parallel phases left the winner draws on the serial stream.

use crn_core::aggregate::Sum;
use crn_core::bounds;
use crn_core::cogcast::CogCast;
use crn_core::cogcomp::{CogComp, CogCompConfig};
use crn_jamming::{JammerStrategy, UniformJammer};
use crn_rendezvous::HopTogether;
use crn_sim::assignment::{full_overlap, shared_core};
use crn_sim::channel_model::{DynamicSharedCore, StaticChannels};
use crn_sim::pool::WorkerPool;
use crn_sim::{
    ChannelModel, Medium, Network, OracleMultihop, ParConfig, PhysicalDecay, Protocol, Topology,
    TraceDigest,
};
use std::sync::Arc;

/// The swept pool widths. 1 is the sequential reference; 2 and 3 split
/// nodes unevenly across chunk boundaries; 8 oversubscribes a small
/// host on purpose (laggard workers must still rendezvous correctly).
const WORKER_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// Installs a dedicated `workers`-wide pool at threshold 1 (nothing
/// falls back to sequential for being small), then drives `net` until
/// `done` or `budget`, digesting every slot, conformance-checking it
/// against the medium's profile, and recording the trace. Returns
/// `(slots_run, digest, trace)`.
fn drive<M, P, CM, Med>(
    net: &mut Network<M, P, CM, Med>,
    workers: usize,
    budget: u64,
    mut done: impl FnMut(&Network<M, P, CM, Med>) -> bool,
) -> (u64, u64, Vec<crn_sim::SlotActivity>)
where
    M: Clone + Send + PartialEq + std::fmt::Debug,
    P: Protocol<M> + Send,
    CM: ChannelModel + Sync,
    Med: Medium<M>,
{
    if workers > 1 {
        let pool = Arc::new(WorkerPool::new(workers));
        net.set_parallelism(Some(ParConfig::new(pool).with_threshold(1)));
    }
    let mut digest = TraceDigest::new();
    let mut trace = Vec::new();
    let mut slots_run = 0u64;
    for _ in 0..budget {
        trace.push(net.step().clone());
        digest.record(net.last_activity().expect("step() records every slot"));
        let violations = net.check_conformance();
        assert!(
            violations.is_empty(),
            "slot {slots_run} violates the model contract at {workers} workers: {violations:?}"
        );
        slots_run += 1;
        if done(net) {
            break;
        }
    }
    (slots_run, digest.finish(), trace)
}

fn cogcast_protos(n: usize) -> Vec<CogCast<()>> {
    let mut protos = Vec::with_capacity(n);
    protos.push(CogCast::source(()));
    protos.extend((1..n).map(|_| CogCast::node()));
    protos
}

/// The plain golden COGCAST trace (`crn-core/tests/golden_trace.rs`):
/// every worker count must reproduce the pinned slot count and digest
/// bit for bit, and the recorded winners must survive an independent
/// serial ENGINE-stream replay.
#[test]
fn golden_cogcast_digest_identical_at_every_worker_count() {
    for workers in WORKER_COUNTS {
        let n = 24;
        let model = StaticChannels::local(shared_core(n, 6, 3).expect("valid shape"), 42);
        let mut net = Network::new(model, cogcast_protos(n), 42).expect("construct");
        let budget = bounds::cogcast_slots(24, 6, 3, bounds::DEFAULT_ALPHA);
        let (slots, digest, trace) = drive(&mut net, workers, budget, |net| {
            net.protocols().iter().all(|p| p.is_informed())
        });
        assert!(net.protocols().iter().all(|p| p.is_informed()));
        assert_eq!(slots, 8, "golden run length changed at {workers} workers");
        assert_eq!(
            digest, 0x279f_38a0_b5f3_4b08,
            "golden digest changed at {workers} workers"
        );
        assert_eq!(
            crn_sim::replay_winners(42, &trace),
            vec![],
            "winners diverged from the serial ENGINE-stream replay at {workers} workers"
        );
    }
}

/// The jammed golden trace (Theorem 18 scenario): interference masking
/// runs in the serial phase, so the digest must hold at any width.
#[test]
fn golden_jammed_digest_identical_at_every_worker_count() {
    for workers in WORKER_COUNTS {
        let n = 24;
        let (c, jam_k) = (8, 2);
        let model = StaticChannels::local(full_overlap(n, c).expect("valid shape"), 42);
        let jammer = UniformJammer::new(n, c, jam_k, JammerStrategy::Random);
        let mut net = Network::with_interference(model, cogcast_protos(n), 42, Box::new(jammer))
            .expect("construct");
        let budget = crn_jamming::jammed_budget(n, c, jam_k, 60.0);
        let (slots, digest, trace) = drive(&mut net, workers, budget, |net| {
            net.protocols().iter().all(|p| p.is_informed())
        });
        assert!(net.protocols().iter().all(|p| p.is_informed()));
        assert_eq!(slots, 6, "jammed run length changed at {workers} workers");
        assert_eq!(
            digest, 0xc510_f8d7_d599_293c,
            "jammed digest changed at {workers} workers"
        );
        assert_eq!(
            crn_sim::replay_winners(42, &trace),
            vec![],
            "jammed winners diverged from the serial replay at {workers} workers"
        );
    }
}

/// The churned golden trace: the `DynamicSharedCore` redraw happens in
/// the serial slot-advance phase, so parallel decide/observe must see
/// exactly the sequential channel sets.
#[test]
fn golden_churned_digest_identical_at_every_worker_count() {
    for workers in WORKER_COUNTS {
        let n = 24;
        let model = DynamicSharedCore::new(n, 6, 3, 30, 0.5, 42).expect("valid shape");
        let mut net = Network::new(model, cogcast_protos(n), 42).expect("construct");
        let budget = bounds::cogcast_slots(24, 6, 3, bounds::DEFAULT_ALPHA);
        let (slots, digest, trace) = drive(&mut net, workers, budget, |net| {
            net.protocols().iter().all(|p| p.is_informed())
        });
        assert!(net.protocols().iter().all(|p| p.is_informed()));
        assert_eq!(slots, 5, "churned run length changed at {workers} workers");
        assert_eq!(
            digest, 0xe848_edf3_85c4_d889,
            "churned digest changed at {workers} workers"
        );
        assert_eq!(
            crn_sim::replay_winners(42, &trace),
            vec![],
            "churned winners diverged from the serial replay at {workers} workers"
        );
    }
}

/// Asserts that `run(workers)` reproduces `run(1)` exactly for every
/// swept width; returns the reference outcome.
fn assert_width_invariant(label: &str, mut run: impl FnMut(usize) -> (u64, u64)) -> (u64, u64) {
    let reference = run(1);
    for workers in WORKER_COUNTS {
        if workers == 1 {
            continue;
        }
        assert_eq!(
            run(workers),
            reference,
            "{label}: (slots, digest) diverged from sequential at {workers} workers"
        );
    }
    reference
}

/// COGCAST over each medium: the per-medium trace is a deterministic
/// function of the seed, so it must be invariant in the worker count
/// (the media are *not* digest-equal to each other — the physical
/// medium draws winners from decay episodes — which is exactly why each
/// is compared against its own sequential run).
#[test]
fn cogcast_every_medium_is_worker_count_invariant() {
    let (n, c, k, seed) = (12usize, 4usize, 2usize, 5u64);
    let model = || StaticChannels::local(shared_core(n, c, k).expect("valid shape"), seed);
    fn informed<Med: Medium<()>>(net: &Network<(), CogCast<()>, StaticChannels, Med>) -> bool {
        net.protocols().iter().all(|p| p.is_informed())
    }
    let budget = 1_000_000u64;

    let (slots, _) = assert_width_invariant("cogcast/oracle", |w| {
        let mut net = Network::new(model(), cogcast_protos(n), seed).expect("construct");
        let (s, d, _) = drive(&mut net, w, budget, informed);
        assert!(informed(&net));
        (s, d)
    });
    assert!(slots < budget);

    assert_width_invariant("cogcast/multihop", |w| {
        let med = OracleMultihop::new(Topology::complete(n));
        let mut net =
            Network::with_medium(model(), cogcast_protos(n), seed, med).expect("construct");
        let (s, d, _) = drive(&mut net, w, budget, informed);
        assert!(informed(&net));
        (s, d)
    });

    assert_width_invariant("cogcast/physical", |w| {
        let mut net = Network::with_medium(model(), cogcast_protos(n), seed, PhysicalDecay::new())
            .expect("construct");
        let (s, d, _) = drive(&mut net, w, budget, informed);
        assert!(informed(&net));
        (s, d)
    });
}

/// COGCOMP over each medium, additionally checking the aggregation
/// *result* survives the parallel phases at every width.
#[test]
fn cogcomp_every_medium_is_worker_count_invariant() {
    let (n, c, k, seed) = (12usize, 4usize, 2usize, 7u64);
    let cfg = CogCompConfig::new(n, c, k, bounds::DEFAULT_ALPHA);
    let expected = Sum((0..n as u64).sum());
    let build = || {
        let model = StaticChannels::local(shared_core(n, c, k).expect("valid shape"), seed);
        let mut protos = vec![CogComp::source(cfg, Sum(0))];
        protos.extend((1..n).map(|i| CogComp::node(cfg, Sum(i as u64))));
        (model, protos)
    };
    let budget = 1_000_000u64;

    assert_width_invariant("cogcomp/oracle", |w| {
        let (model, protos) = build();
        let mut net = Network::new(model, protos, seed).expect("construct");
        let (s, d, _) = drive(&mut net, w, budget, |net| net.all_done());
        assert!(net.all_done());
        assert_eq!(net.protocols()[0].result(), Some(&expected));
        (s, d)
    });

    assert_width_invariant("cogcomp/multihop", |w| {
        let (model, protos) = build();
        let med = OracleMultihop::new(Topology::complete(n));
        let mut net = Network::with_medium(model, protos, seed, med).expect("construct");
        let (s, d, _) = drive(&mut net, w, budget, |net| net.all_done());
        assert!(net.all_done());
        assert_eq!(net.protocols()[0].result(), Some(&expected));
        (s, d)
    });

    assert_width_invariant("cogcomp/physical", |w| {
        let (model, protos) = build();
        let mut net =
            Network::with_medium(model, protos, seed, PhysicalDecay::new()).expect("construct");
        let (s, d, _) = drive(&mut net, w, budget, |net| net.all_done());
        assert!(net.all_done());
        assert_eq!(net.protocols()[0].result(), Some(&expected));
        (s, d)
    });
}

/// Hop-together rendezvous over each medium (global labels — the other
/// labeling mode the goldens don't cover).
#[test]
fn hop_together_every_medium_is_worker_count_invariant() {
    let (n, c, k, seed) = (12usize, 5usize, 2usize, 11u64);
    let build = || {
        let model = StaticChannels::global(shared_core(n, c, k).expect("valid shape"));
        let total = model.total_channels();
        let mut protos = Vec::with_capacity(n);
        protos.push(HopTogether::source((), total));
        protos.extend((1..n).map(|_| HopTogether::node(total)));
        (model, protos)
    };
    let budget = 1_000_000u64;

    assert_width_invariant("hop-together/oracle", |w| {
        let (model, protos) = build();
        let mut net = Network::new(model, protos, seed).expect("construct");
        let (s, d, _) = drive(&mut net, w, budget, |net| net.all_done());
        assert!(net.all_done());
        (s, d)
    });

    assert_width_invariant("hop-together/multihop", |w| {
        let (model, protos) = build();
        let med = OracleMultihop::new(Topology::complete(n));
        let mut net = Network::with_medium(model, protos, seed, med).expect("construct");
        let (s, d, _) = drive(&mut net, w, budget, |net| net.all_done());
        assert!(net.all_done());
        (s, d)
    });

    assert_width_invariant("hop-together/physical", |w| {
        let (model, protos) = build();
        let mut net =
            Network::with_medium(model, protos, seed, PhysicalDecay::new()).expect("construct");
        let (s, d, _) = drive(&mut net, w, budget, |net| net.all_done());
        assert!(net.all_done());
        (s, d)
    });
}
