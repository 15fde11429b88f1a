//! Record-free stepping ↔ `step()` differential suite.
//!
//! [`Network::step_unrecorded`] (and the run loops built on it) lets the
//! medium skip the slot's channel records. That must change nothing a
//! protocol can see: for COGCAST and COGCOMP over every medium — the
//! single-hop oracle, the multihop oracle on a complete topology (which
//! delegates to it) and on a ring (per-receiver winners), physical
//! decay backoff (which always builds records), and the oracle and
//! physical media under a jammer — a network stepped record-free
//! reaches the same slot count, delivers the same event to every node
//! in every slot, and ends in the same protocol state as one stepped
//! with `step()`. The physical medium's round and failure counters
//! agree too.

use crn_core::aggregate::Sum;
use crn_core::bounds;
use crn_core::cogcast::CogCast;
use crn_core::cogcomp::{CogComp, CogCompConfig};
use crn_jamming::{JammerStrategy, UniformJammer};
use crn_sim::assignment::shared_core;
use crn_sim::channel_model::StaticChannels;
use crn_sim::rng::SimRng;
use crn_sim::{
    Action, Event, Jammed, Medium, Network, NodeCtx, OracleMultihop, OracleSingleHop,
    PhysicalDecay, Protocol, Topology,
};
use std::fmt::Debug;

/// Delegates to `inner` and logs every event it observes.
#[derive(Debug)]
struct Logged<M, P> {
    inner: P,
    events: Vec<Event<M>>,
}

impl<M: Clone, P: Protocol<M>> Protocol<M> for Logged<M, P> {
    fn decide(&mut self, ctx: &NodeCtx<'_>, rng: &mut SimRng) -> Action<M> {
        self.inner.decide(ctx, rng)
    }

    fn observe(&mut self, ctx: &NodeCtx<'_>, event: Event<M>) {
        self.events.push(event.clone());
        self.inner.observe(ctx, event);
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
}

/// `(physical rounds, failed episodes)`; zero on the oracles.
trait Counters {
    fn counters(&self) -> (u64, u64) {
        (0, 0)
    }
}

impl Counters for OracleSingleHop {}

impl Counters for OracleMultihop {}

impl Counters for PhysicalDecay {
    fn counters(&self) -> (u64, u64) {
        (self.physical_rounds(), self.failed_episodes())
    }
}

impl<Med: Counters> Counters for Jammed<Med> {
    fn counters(&self) -> (u64, u64) {
        self.inner().counters()
    }
}

/// What a run leaves behind: slots executed, whether every protocol
/// finished, the final protocol states and event logs (rendered with
/// `Debug`), and the medium's counters.
type Outcome = (u64, bool, String, (u64, u64));

/// Runs `protos` over `medium` until every protocol is done or
/// `budget` slots pass, with `step()` when `recorded`, else through
/// [`Network::run`] (record-free).
fn run<M, P, Med>(
    n: usize,
    seed: u64,
    protos: Vec<P>,
    medium: Med,
    budget: u64,
    recorded: bool,
) -> Outcome
where
    M: Clone + Debug,
    P: Protocol<M> + Debug,
    Med: Medium<M> + Counters,
{
    let model = StaticChannels::local(shared_core(n, 6, 2).expect("valid shape"), seed);
    let logged = protos
        .into_iter()
        .map(|inner| Logged {
            inner,
            events: Vec::new(),
        })
        .collect();
    let mut net = Network::with_medium(model, logged, seed, medium).expect("construct");
    if recorded {
        for _ in 0..budget {
            net.step();
            if net.all_done() {
                break;
            }
        }
    } else {
        net.run(budget, |net| net.all_done());
        assert!(
            net.last_activity().is_none(),
            "record-free slots expose no record"
        );
    }
    let (slots, done) = (net.slot(), net.all_done());
    let (protos, medium) = net.into_parts();
    (slots, done, format!("{protos:?}"), medium.counters())
}

/// Asserts that both stepping paths agree on every medium, and that
/// the single-hop media finish.
fn assert_paths_agree<M, P>(label: &str, n: usize, budget: u64, protos: impl Fn() -> Vec<P>)
where
    M: Clone + Debug,
    P: Protocol<M> + Debug,
{
    let complete = || OracleMultihop::new(Topology::complete(n));
    let ring = || OracleMultihop::new(Topology::ring(n));
    // Jams one of global channels 0..6 — the two core channels among
    // them — per node per slot.
    let jammer = || Box::new(UniformJammer::new(n, 6, 1, JammerStrategy::Random));
    let jammed_oracle = || Jammed::new(OracleSingleHop::new(), jammer());
    let jammed_physical = || Jammed::new(PhysicalDecay::new(), jammer());
    for seed in [3u64, 17] {
        let both = |medium: &str, recorded: Outcome, record_free: Outcome| {
            assert_eq!(
                recorded, record_free,
                "{label} on {medium}, seed {seed}: record-free stepping diverged from step()"
            );
            recorded.1
        };
        let finished = [
            both(
                "oracle",
                run(n, seed, protos(), OracleSingleHop::new(), budget, true),
                run(n, seed, protos(), OracleSingleHop::new(), budget, false),
            ),
            both(
                "multihop-complete",
                run(n, seed, protos(), complete(), budget, true),
                run(n, seed, protos(), complete(), budget, false),
            ),
            both(
                "physical",
                run(n, seed, protos(), PhysicalDecay::new(), budget, true),
                run(n, seed, protos(), PhysicalDecay::new(), budget, false),
            ),
        ];
        assert!(
            finished.iter().all(|&f| f),
            "{label}, seed {seed}: {finished:?}"
        );
        // COGCOMP's single-hop phases need not finish on a ring, and
        // jamming can stall completion, so only agreement is required
        // there.
        both(
            "multihop-ring",
            run(n, seed, protos(), ring(), budget, true),
            run(n, seed, protos(), ring(), budget, false),
        );
        both(
            "jammed-oracle",
            run(n, seed, protos(), jammed_oracle(), budget, true),
            run(n, seed, protos(), jammed_oracle(), budget, false),
        );
        both(
            "jammed-physical",
            run(n, seed, protos(), jammed_physical(), budget, true),
            run(n, seed, protos(), jammed_physical(), budget, false),
        );
    }
}

#[test]
fn cogcast_record_free_matches_step_on_every_medium() {
    let n = 20;
    assert_paths_agree("COGCAST", n, 100_000, || {
        let mut protos = vec![CogCast::source(7u32)];
        protos.extend((1..n).map(|_| CogCast::node()));
        protos
    });
}

#[test]
fn cogcomp_record_free_matches_step_on_every_medium() {
    let n = 16;
    let cfg = CogCompConfig::new(n, 6, 2, bounds::DEFAULT_ALPHA);
    assert_paths_agree("COGCOMP", n, cfg.recommended_budget(), || {
        let mut protos = vec![CogComp::source(cfg, Sum(0))];
        protos.extend((1..n).map(|i| CogComp::node(cfg, Sum(i as u64))));
        protos
    });
}
