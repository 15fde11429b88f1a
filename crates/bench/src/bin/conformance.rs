//! Differential model-conformance suite: drives the §2 validator over
//! property-generated workloads and cross-checks the collision oracle
//! against the other two media.
//!
//! Four parts (see `docs/VALIDATION.md` for the invariant-to-paper
//! map):
//!
//! 1. **Validator sweep** — random `(n, c, k)` shapes across every
//!    overlap pattern, label mode, fault schedule, jammer strategy and
//!    churn level; every slot of every run must satisfy the Section 2
//!    contract and the full trace must survive an independent
//!    ENGINE-stream winner replay.
//! 2. **Oracle vs physical stack** — the same shared-core COGCAST
//!    workload run on the abstract collision oracle and on the
//!    decay-backoff radio ([`crn_sim::PhysicalDecay`], footnote 4): both
//!    must complete, and abstract-slot counts must agree within a band
//!    (extending experiment F14).
//! 3. **Oracle vs multihop medium** — the same workload on the
//!    single-hop oracle and on [`crn_sim::OracleMultihop`] over a
//!    complete topology, where the medium delegates to the oracle:
//!    every trial must complete within the Theorem 4 budget in exactly
//!    the oracle's slot count.
//! 4. **Medium sweep** — COGCAST workloads driven over every
//!    [`crn_sim::Medium`] (`oracle`, `multihop` on the complete
//!    topology, `physical` decay backoff); the per-slot validator must
//!    run clean on each, applying only the clauses the medium's profile
//!    claims. `--medium <name>` restricts the sweep to one medium.
//!
//! Any divergence is reported with its reproducing seed and parameters,
//! shrunk to a minimal failing shape, and the process exits nonzero.
//! `--quick` selects the CI profile (still ≥ 100 workloads per part,
//! and still sweeping the whole medium axis).

use crn_bench::args::Args;
use crn_core::bounds::{cogcast_slots, DEFAULT_ALPHA};
use crn_core::cogcast::{run_broadcast, run_broadcast_on, CogCast};
use crn_jamming::{JammerStrategy, UniformJammer};
use crn_sim::assignment::{shared_core, OverlapPattern};
use crn_sim::channel_model::{DynamicSharedCore, StaticChannels};
use crn_sim::conformance::{replay_winners, report, Violation};
use crn_sim::rng::{derive_rng, streams};
use crn_sim::{
    ChannelModel, FaultSchedule, Flaky, Jammed, Medium, Network, OracleMultihop, OracleSingleHop,
    PhysicalDecay, Protocol, SlotActivity, Topology,
};
use std::process::ExitCode;

const ORACLE_BUDGET: u64 = 50_000_000;
const PHYSICAL_BUDGET: u64 = 10_000_000;

/// How the base workload is perturbed.
#[derive(Clone, Debug)]
enum Variant {
    /// The plain engine, no perturbation.
    Plain,
    /// Every node wrapped in a [`Flaky`] fault schedule.
    Faulty(FaultSchedule),
    /// An n-uniform jammer over the global channel space.
    Jammed {
        budget: usize,
        strategy: JammerStrategy,
    },
    /// A churned [`DynamicSharedCore`] model (pattern is ignored).
    Churned { churn: f64 },
}

/// A fully concrete, reproducible workload for the validator sweep.
/// Every field is printed on divergence, so a failure is reproducible
/// from the report alone.
#[derive(Clone, Debug)]
struct Workload {
    seed: u64,
    n: usize,
    c: usize,
    k: usize,
    pattern: OverlapPattern,
    global_labels: bool,
    variant: Variant,
    slots: u64,
}

/// Draws a random workload from the dedicated WORKLOAD stream.
fn gen_workload(seed: u64) -> Workload {
    let mut rng = derive_rng(seed, streams::WORKLOAD);
    let n = rng.gen_range(3..=20usize);
    let c = rng.gen_range(2..=8usize);
    let k = rng.gen_range(1..=c);
    let pattern = OverlapPattern::ALL[rng.gen_range(0..OverlapPattern::ALL.len())];
    let global_labels = rng.gen_bool(0.5);
    let variant = match rng.gen_range(0..4u32) {
        0 => Variant::Plain,
        1 => Variant::Faulty(match rng.gen_range(0..3u32) {
            0 => FaultSchedule::Random {
                p: rng.gen_range(0.05..0.5),
            },
            1 => FaultSchedule::Window {
                from: rng.gen_range(0..10),
                to: rng.gen_range(10..40),
            },
            _ => FaultSchedule::Periodic {
                period: rng.gen_range(2..10),
                down: rng.gen_range(1..3),
            },
        }),
        2 => Variant::Jammed {
            budget: rng.gen_range(1..=2usize),
            strategy: JammerStrategy::ALL[rng.gen_range(0..JammerStrategy::ALL.len())],
        },
        _ => Variant::Churned {
            churn: rng.gen_range(0.1..0.9),
        },
    };
    Workload {
        seed,
        n,
        c,
        k,
        pattern,
        global_labels,
        variant,
        slots: 40,
    }
}

/// Steps `slots` slots, conformance-checking each one, then — when the
/// medium draws its winners from the ENGINE stream — replays the
/// recorded winners against it. Returns every violation.
fn drive<M, P, CM, Med>(net: &mut Network<M, P, CM, Med>, seed: u64, slots: u64) -> Vec<Violation>
where
    M: Clone,
    P: Protocol<M>,
    CM: ChannelModel,
    Med: Medium<M>,
{
    let mut violations = Vec::new();
    let mut trace: Vec<SlotActivity> = Vec::with_capacity(slots as usize);
    for _ in 0..slots {
        trace.push(net.step().clone());
        violations.extend(net.check_conformance());
    }
    if net.medium().profile().engine_stream_winners {
        violations.extend(replay_winners(seed, &trace));
    }
    violations
}

/// Runs one validator-sweep workload end to end; empty result = clean.
fn run_workload(w: &Workload) -> Vec<Violation> {
    let n = w.n;
    let mut protos = Vec::with_capacity(n);
    protos.push(CogCast::source(()));
    protos.extend((1..n).map(|_| CogCast::node()));

    if let Variant::Churned { churn } = w.variant {
        let pool = (w.c - w.k).max(1) * 6;
        let model = match DynamicSharedCore::new(n, w.c, w.k, pool, churn, w.seed) {
            Ok(m) => m,
            Err(e) => panic!("churned model construction failed for {w:?}: {e}"),
        };
        let mut net =
            Network::with_medium(model, protos, w.seed, OracleSingleHop::new()).expect("construct");
        return drive(&mut net, w.seed, w.slots);
    }

    let mut arng = derive_rng(w.seed, streams::ASSIGNMENT);
    let assignment = w
        .pattern
        .generate(n, w.c, w.k, &mut arng)
        .unwrap_or_else(|_| shared_core(n, w.c, w.k).expect("fallback shape"));
    let total = assignment.total_channels();
    let model = if w.global_labels {
        StaticChannels::global(assignment)
    } else {
        StaticChannels::local(assignment, w.seed)
    };

    match &w.variant {
        Variant::Plain => {
            let mut net = Network::with_medium(model, protos, w.seed, OracleSingleHop::new())
                .expect("construct");
            drive(&mut net, w.seed, w.slots)
        }
        Variant::Faulty(schedule) => {
            let protos: Vec<Flaky<CogCast<()>>> = protos
                .into_iter()
                .map(|p| Flaky::new(p, schedule.clone()))
                .collect();
            let mut net = Network::with_medium(model, protos, w.seed, OracleSingleHop::new())
                .expect("construct");
            drive(&mut net, w.seed, w.slots)
        }
        Variant::Jammed { budget, strategy } => {
            let jammer = UniformJammer::new(n, total, *budget, *strategy);
            let mut net = Network::with_medium(
                model,
                protos,
                w.seed,
                Jammed::new(OracleSingleHop::new(), Box::new(jammer)),
            )
            .expect("construct");
            drive(&mut net, w.seed, w.slots)
        }
        Variant::Churned { .. } => unreachable!("handled above"),
    }
}

/// Shrinks a failing workload: repeatedly reduce `n`, then `c`, then
/// `k`, keeping each reduction only while the failure persists. The
/// result is the smallest shape (under this order) that still fails.
fn shrink(mut w: Workload) -> Workload {
    loop {
        let mut reduced = false;
        if w.n > 2 {
            let mut cand = w.clone();
            cand.n -= 1;
            if !run_workload(&cand).is_empty() {
                w = cand;
                reduced = true;
            }
        }
        if !reduced && w.c > w.k.max(1) {
            let mut cand = w.clone();
            cand.c -= 1;
            if !run_workload(&cand).is_empty() {
                w = cand;
                reduced = true;
            }
        }
        if !reduced && w.k > 1 {
            let mut cand = w.clone();
            cand.k -= 1;
            if !run_workload(&cand).is_empty() {
                w = cand;
                reduced = true;
            }
        }
        if !reduced {
            return w;
        }
    }
}

/// Part 1: the validator sweep. Returns the number of divergent
/// workloads (0 = pass).
fn validator_sweep(workloads: u64) -> usize {
    let mut failures = 0usize;
    for seed in 0..workloads {
        let w = gen_workload(seed);
        let violations = run_workload(&w);
        if !violations.is_empty() {
            failures += 1;
            let small = shrink(w.clone());
            let small_violations = run_workload(&small);
            eprintln!("DIVERGENCE (validator sweep): {w:?}");
            eprintln!("{}", report(&violations));
            eprintln!("  shrunk to: {small:?}");
            eprintln!("{}", report(&small_violations));
            eprintln!("  reproduce: run_workload(gen_workload({seed}))");
        }
    }
    println!("part 1: validator sweep        — {workloads} workloads, {failures} divergent");
    failures
}

/// Part 2: oracle vs the decay-backoff physical stack on identical
/// shared-core workloads. Returns the number of divergent workloads.
fn oracle_vs_physical(workloads: u64, trials: u64) -> usize {
    let mut failures = 0usize;
    let mut ratio_sum = 0.0f64;
    for i in 0..workloads {
        let seed = 1_000_000 + i;
        let mut rng = derive_rng(seed, streams::WORKLOAD);
        let n = rng.gen_range(6..=24usize);
        let c = rng.gen_range(3..=8usize);
        let k = rng.gen_range(1..c);
        let assignment = shared_core(n, c, k).expect("valid shape");

        let mut oracle_sum = 0u64;
        let mut physical_sum = 0u64;
        let mut diverged = false;
        for t in 0..trials {
            let trial_seed = seed.wrapping_mul(1031).wrapping_add(t);
            let model = StaticChannels::local(assignment.clone(), trial_seed);
            let oracle = run_broadcast(model, trial_seed, ORACLE_BUDGET)
                .expect("construct")
                .slots;
            let model = StaticChannels::local(assignment.clone(), trial_seed);
            let (physical, _) =
                run_broadcast_on(model, trial_seed, PHYSICAL_BUDGET, PhysicalDecay::new())
                    .expect("construct");
            match (oracle, physical.slots) {
                (Some(o), Some(p)) => {
                    oracle_sum += o;
                    physical_sum += p;
                }
                _ => {
                    eprintln!(
                        "DIVERGENCE (oracle vs physical): completion mismatch \
                         n={n} c={c} k={k} trial_seed={trial_seed} \
                         oracle={oracle:?} physical={:?}",
                        physical.slots
                    );
                    diverged = true;
                }
            }
        }
        if !diverged {
            let ratio = physical_sum as f64 / oracle_sum.max(1) as f64;
            ratio_sum += ratio;
            if !(0.25..=4.0).contains(&ratio) {
                eprintln!(
                    "DIVERGENCE (oracle vs physical): abstract-slot counts disagree \
                     n={n} c={c} k={k} seed={seed} trials={trials} ratio={ratio:.2} \
                     (oracle mean {:.1}, physical mean {:.1})",
                    oracle_sum as f64 / trials as f64,
                    physical_sum as f64 / trials as f64
                );
                diverged = true;
            }
        }
        if diverged {
            failures += 1;
        }
    }
    let mean_ratio = ratio_sum / workloads as f64;
    println!(
        "part 2: oracle vs physical     — {workloads} workloads, {failures} divergent \
         (mean physical/oracle slot ratio {mean_ratio:.2})"
    );
    if failures == 0 && !(0.5..=2.0).contains(&mean_ratio) {
        eprintln!("DIVERGENCE (oracle vs physical): aggregate ratio {mean_ratio:.2} out of band");
        return 1;
    }
    failures
}

/// Part 3: oracle vs the multihop medium on a complete topology, where
/// it delegates to the single-hop oracle: every trial must complete
/// within the Theorem 4 budget in exactly the oracle's slot count.
/// Returns the number of divergent workloads.
fn oracle_vs_multihop(workloads: u64, trials: u64) -> usize {
    let mut failures = 0usize;
    for i in 0..workloads {
        let seed = 2_000_000 + i;
        let mut rng = derive_rng(seed, streams::WORKLOAD);
        let n = rng.gen_range(4..=16usize);
        let c = rng.gen_range(2..=6usize);
        let k = rng.gen_range(1..=c);
        let assignment = shared_core(n, c, k).expect("valid shape");
        let budget = cogcast_slots(n, c, k, DEFAULT_ALPHA);

        let diverged = (0..trials).any(|t| {
            let trial_seed = seed.wrapping_mul(2063).wrapping_add(t);
            let model = StaticChannels::local(assignment.clone(), trial_seed);
            let oracle = run_broadcast(model.clone(), trial_seed, budget)
                .expect("construct")
                .slots;
            let medium = OracleMultihop::new(Topology::complete(n));
            let (multihop, _) =
                run_broadcast_on(model, trial_seed, budget, medium).expect("construct");
            let diverged = oracle.is_none() || multihop.slots != oracle;
            if diverged {
                eprintln!(
                    "DIVERGENCE (oracle vs multihop): n={n} c={c} k={k} \
                     trial_seed={trial_seed} budget={budget} \
                     oracle={oracle:?} multihop={:?}",
                    multihop.slots
                );
            }
            diverged
        });
        if diverged {
            failures += 1;
        }
    }
    println!("part 3: oracle vs multihop     — {workloads} workloads, {failures} divergent");
    failures
}

/// The media the sweep covers, in `--medium` argument order.
const MEDIA: &[&str] = &["oracle", "multihop", "physical"];

/// Part 4: COGCAST workloads driven over each requested medium; the
/// per-slot validator (gated by each medium's profile) must run clean.
/// Returns the number of divergent (workload, medium) pairs.
fn medium_sweep(workloads: u64, media: &[&str]) -> usize {
    let mut failures = 0usize;
    for i in 0..workloads {
        let seed = 3_000_000 + i;
        let mut rng = derive_rng(seed, streams::WORKLOAD);
        let n = rng.gen_range(3..=16usize);
        let c = rng.gen_range(2..=6usize);
        let k = rng.gen_range(1..=c);
        let assignment = shared_core(n, c, k).expect("valid shape");
        let slots = 40u64;
        for &medium in media {
            let mut protos = Vec::with_capacity(n);
            protos.push(CogCast::source(()));
            protos.extend((1..n).map(|_| CogCast::node()));
            let model = StaticChannels::local(assignment.clone(), seed);
            let violations = match medium {
                "oracle" => {
                    let mut net = Network::with_medium(model, protos, seed, OracleSingleHop::new())
                        .expect("construct");
                    drive(&mut net, seed, slots)
                }
                "multihop" => {
                    let med = OracleMultihop::new(Topology::complete(n));
                    let mut net =
                        Network::with_medium(model, protos, seed, med).expect("construct");
                    drive(&mut net, seed, slots)
                }
                "physical" => {
                    let mut net = Network::with_medium(model, protos, seed, PhysicalDecay::new())
                        .expect("construct");
                    drive(&mut net, seed, slots)
                }
                other => unreachable!("unknown medium {other}"),
            };
            if !violations.is_empty() {
                failures += 1;
                eprintln!("DIVERGENCE (medium sweep, {medium}): n={n} c={c} k={k} seed={seed}");
                eprintln!("{}", report(&violations));
            }
        }
    }
    println!(
        "part 4: medium sweep           — {workloads} workloads x {} media, {failures} divergent",
        media.len()
    );
    failures
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1), &["--quick"], &["--medium"]) {
        Ok(args) => match args.positional() {
            [] => args,
            [stray, ..] => return usage_error(&format!("unexpected argument {stray}")),
        },
        Err(e) => return usage_error(&e),
    };
    let quick = args.has("--quick");
    let media: Vec<&str> = match args.value("--medium") {
        Some(m) => match MEDIA.iter().find(|&&x| x == m) {
            Some(&medium) => vec![medium],
            None => return usage_error(&format!("--medium needs one of {MEDIA:?}, got {m:?}")),
        },
        None => MEDIA.to_vec(),
    };
    // The CI (`--quick`) profile still meets the ≥ 100-workloads-per-part
    // acceptance floor; the full profile triples the sweep.
    let (sweep, diff, trials) = if quick {
        (120u64, 100u64, 3u64)
    } else {
        (360u64, 200u64, 5u64)
    };
    println!(
        "model-conformance differential suite ({} profile)",
        if quick { "quick" } else { "full" }
    );
    let mut failures = 0usize;
    failures += validator_sweep(sweep);
    failures += oracle_vs_physical(diff, trials);
    failures += oracle_vs_multihop(diff, trials);
    failures += medium_sweep(diff, &media);
    if failures == 0 {
        println!("conformance: all parts clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("conformance: {failures} divergent workloads");
        ExitCode::FAILURE
    }
}

/// Reports a bad command line and returns the failing exit code.
fn usage_error(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    eprintln!(
        "usage: conformance [--quick] [--medium {}]",
        MEDIA.join("|")
    );
    ExitCode::FAILURE
}
