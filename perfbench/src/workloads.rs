//! The trial workloads: inputs from a seed, the untraced run through
//! the public runners, the traced run through the delegating wrappers,
//! and the correctness checks both share.

use crate::cpu::{cpu_since, process_cpu_ns};
use crate::trace::{MediumCounters, Span, TracedMedium, TracedProto, Tracer, PROTO_SAMPLE_EVERY};
use crn_core::aggregate::{Aggregate, Sum};
use crn_core::bounds;
use crn_core::cogcast::{run_broadcast, run_broadcast_on, BroadcastRun, CogCast};
use crn_core::cogcomp::{run_aggregation, AggregationRun, CogComp, CogCompConfig, CogCompMsg};
use crn_sim::assignment::shared_core;
use crn_sim::channel_model::StaticChannels;
use crn_sim::{
    mix_seed, ChannelModel, Medium, Network, OracleSingleHop, ParConfig, PhysicalDecay, Protocol,
    SimError,
};
use std::time::Instant;

/// COGCOMP's phase-one constant on `agg-large`.
pub const AGG_ALPHA: f64 = 10.0;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every registered experiment at full effort, in registry order.
    Suite,
    /// COGCAST on the oracle medium, `shared_core(4096, 8, 2)`.
    CastLarge,
    /// COGCOMP `Sum` on the oracle medium, `shared_core(1024, 8, 2)`.
    AggLarge,
    /// COGCAST on decay backoff, `shared_core(1024, 8, 2)`.
    CastPhysical,
}

impl Workload {
    /// Every workload, in the order the docs list them.
    pub const ALL: [Workload; 4] = [
        Workload::Suite,
        Workload::CastLarge,
        Workload::AggLarge,
        Workload::CastPhysical,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Suite => "suite",
            Workload::CastLarge => "cast-large",
            Workload::AggLarge => "agg-large",
            Workload::CastPhysical => "cast-physical",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `(n, c, k)` of the `shared_core` assignment a trial builds
    /// (`None` for the suite).
    pub fn shape(self) -> Option<(usize, usize, usize)> {
        match self {
            Workload::Suite => None,
            Workload::CastLarge => Some((4096, 8, 2)),
            Workload::AggLarge | Workload::CastPhysical => Some((1024, 8, 2)),
        }
    }

    /// Trials per measurement batch: enough that one batch takes
    /// about a second, so the median over batches smooths per-trial
    /// differences in slot count.
    pub fn batch(self) -> usize {
        match self {
            Workload::Suite => 1,
            Workload::CastLarge => 8,
            Workload::AggLarge => 4,
            Workload::CastPhysical => 64,
        }
    }
}

/// The seed of trial `index` of a run seeded with `seed`.
pub fn trial_seed(seed: u64, index: u64) -> u64 {
    mix_seed(seed, index)
}

/// The per-node inputs of an `agg-large` trial: values in `0..1000`.
pub fn agg_values(n: usize, trial_seed: u64) -> Vec<Sum> {
    (0..n as u64)
        .map(|i| Sum(mix_seed(trial_seed ^ 0xA66A_66A6, i) % 1000))
        .collect()
}

/// What a trial produced, compared against pins and across the traced
/// and untraced paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Slots until completion.
    pub slots: u64,
    /// Physical rounds (0 on the oracle medium).
    pub rounds: u64,
}

/// Process CPU time of one trial, split at the end of set-up (see
/// [`crate::cpu`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Times {
    /// `shared_core` plus `StaticChannels::local`.
    pub setup_ns: u64,
    /// The runner call: protocol construction, network assembly and
    /// stepping.
    pub work_ns: u64,
}

fn nanos(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The Theorem 4 slot budget of a COGCAST trial.
pub fn cast_budget(w: Workload) -> u64 {
    let (n, c, k) = w.shape().expect("cast workloads have a shape");
    bounds::cogcast_slots(n, c, k, bounds::DEFAULT_ALPHA)
}

/// A finished run, before its checks.
enum Raw {
    Cast(BroadcastRun, u64),
    Agg(AggregationRun<Sum>, Sum),
}

impl Raw {
    /// Every trial must complete within its budget; an aggregation must
    /// also inform every node and return the true sum of its inputs.
    fn check(self) -> Result<Outcome, String> {
        match self {
            Raw::Cast(run, rounds) => match run.slots {
                Some(slots) => Ok(Outcome { slots, rounds }),
                None => Err(format!(
                    "broadcast did not complete within its budget of {} slots",
                    run.budget
                )),
            },
            Raw::Agg(run, expected) => {
                match (run.slots, &run.result) {
                    (Some(slots), Some(got)) if run.uninformed == 0 && *got == expected => {
                        Ok(Outcome { slots, rounds: 0 })
                    }
                    (None, _) => Err(format!(
                        "aggregation did not complete within its budget of {} slots",
                        run.budget
                    )),
                    _ => Err(format!(
                        "aggregation returned {:?} with {} uninformed nodes; expected {expected:?} with none",
                        run.result, run.uninformed
                    )),
                }
            }
        }
    }
}

type Inputs = ((usize, usize, usize), Vec<Sum>, Sum);

/// The trial's shape, and on `agg-large` its values and their true sum.
fn inputs(w: Workload, trial_seed: u64) -> Result<Inputs, String> {
    let shape = w.shape().ok_or("the suite has no trials")?;
    let values = if w == Workload::AggLarge {
        agg_values(shape.0, trial_seed)
    } else {
        Vec::new()
    };
    let expected = values.iter().fold(Sum(0), |mut acc, v| {
        acc.merge(v);
        acc
    });
    Ok((shape, values, expected))
}

/// Runs trial `trial_seed` through the public runners, untraced.
///
/// # Errors
///
/// Describes the failed check: a run past its budget, a wrong sum, an
/// uninformed node, or a construction error.
pub fn run_plain(w: Workload, trial_seed: u64) -> Result<(Outcome, Times), String> {
    let ((n, c, k), values, expected) = inputs(w, trial_seed)?;
    let cpu = process_cpu_ns();
    let a = shared_core(n, c, k).map_err(|e| e.to_string())?;
    let model = StaticChannels::local(a, trial_seed);
    let setup_ns = cpu_since(cpu);
    let cpu = process_cpu_ns();
    let raw = match w {
        Workload::CastLarge => {
            run_broadcast(model, trial_seed, cast_budget(w)).map(|run| Raw::Cast(run, 0))
        }
        Workload::CastPhysical => {
            run_broadcast_on(model, trial_seed, cast_budget(w), PhysicalDecay::new())
                .map(|(run, medium)| Raw::Cast(run, medium.physical_rounds()))
        }
        Workload::AggLarge => {
            run_aggregation(model, values, trial_seed, AGG_ALPHA).map(|run| Raw::Agg(run, expected))
        }
        Workload::Suite => unreachable!("rejected by inputs()"),
    };
    let work_ns = cpu_since(cpu);
    let outcome = raw.map_err(|e| e.to_string())?.check()?;
    Ok((outcome, Times { setup_ns, work_ns }))
}

/// Runs trial `trial_seed` with every layer traced into `tr`, using
/// `par` for intra-slot parallelism as the runners use
/// [`ParConfig::auto`].
///
/// # Errors
///
/// As for [`run_plain`].
pub fn run_traced(
    w: Workload,
    trial_seed: u64,
    par: Option<ParConfig>,
    tr: &mut Tracer,
    trial: u32,
) -> Result<(Outcome, Times), String> {
    let ((n, c, k), values, expected) = inputs(w, trial_seed)?;
    let start_ns = tr.now_ns();
    let cpu = process_cpu_ns();
    let t = Instant::now();
    let a = shared_core(n, c, k).map_err(|e| e.to_string())?;
    let generate_ns = nanos(t);
    let t_labels = Instant::now();
    let model = StaticChannels::local(a, trial_seed);
    let labels_ns = nanos(t_labels);
    let wall_setup_ns = nanos(t);
    let setup_ns = cpu_since(cpu);
    let root = tr.push(Span {
        parent: u32::MAX,
        name: "trial.setup",
        trial,
        slot: 0,
        start_ns,
        dur_ns: wall_setup_ns,
    });
    for (name, offset, dur_ns) in [
        ("assignment.generate", 0, generate_ns),
        ("channel_model.labels", generate_ns, labels_ns),
    ] {
        tr.push(Span {
            parent: root,
            name,
            trial,
            slot: 0,
            start_ns: start_ns + offset,
            dur_ns,
        });
    }
    let cpu = process_cpu_ns();
    let raw = match w {
        Workload::CastLarge => traced_broadcast(
            model,
            trial_seed,
            cast_budget(w),
            OracleSingleHop::new(),
            par,
            tr,
            trial,
        )
        .map(|(run, _)| Raw::Cast(run, 0)),
        Workload::CastPhysical => traced_broadcast(
            model,
            trial_seed,
            cast_budget(w),
            PhysicalDecay::new(),
            par,
            tr,
            trial,
        )
        .map(|(run, medium)| Raw::Cast(run, medium.physical_rounds())),
        Workload::AggLarge => traced_aggregation(
            model,
            values,
            trial_seed,
            AGG_ALPHA,
            OracleSingleHop::new(),
            par,
            tr,
            trial,
        )
        .map(|(run, _)| Raw::Agg(run, expected)),
        Workload::Suite => unreachable!("rejected by inputs()"),
    };
    let work_ns = cpu_since(cpu);
    let outcome = raw.map_err(|e| e.to_string())?.check()?;
    Ok((outcome, Times { setup_ns, work_ns }))
}

/// Steps `net` once and records the step, resolve and (on sampled
/// slots) protocol spans. `proto_prev` carries the protocols'
/// cumulative sampled time between calls.
fn step_traced<M, P, CM, Med>(
    net: &mut Network<M, TracedProto<P>, CM, TracedMedium<Med>>,
    tr: &mut Tracer,
    trial: u32,
    proto_prev: &mut (u64, u64),
) where
    M: Clone,
    P: Protocol<M>,
    CM: ChannelModel,
    Med: Medium<M> + MediumCounters,
{
    let slot = net.slot();
    let start_ns = tr.now_ns();
    let t = Instant::now();
    net.step();
    let dur_ns = nanos(t);
    let step = tr.push(Span {
        parent: u32::MAX,
        name: "engine.step",
        trial,
        slot,
        start_ns,
        dur_ns,
    });
    let r = net.medium().last;
    tr.push(Span {
        parent: step,
        name: "medium.resolve",
        trial,
        slot,
        start_ns: r.start_ns,
        dur_ns: r.dur_ns,
    });
    let c = &mut tr.counts;
    c.slots += 1;
    c.tuned += r.tuned;
    c.active += r.active;
    c.contended += r.contended;
    c.transmissions += r.transmissions;
    c.winners += r.winners;
    c.deliveries += r.deliveries;
    c.rounds += r.rounds;
    c.failed += r.failed;
    if slot.is_multiple_of(PROTO_SAMPLE_EVERY) {
        let (decide, observe) = net
            .protocols()
            .iter()
            .fold((0, 0), |(d, o), p| (d + p.decide_ns, o + p.observe_ns));
        for (name, total, prev) in [
            ("protocol.decide", decide, proto_prev.0),
            ("protocol.observe", observe, proto_prev.1),
        ] {
            tr.push(Span {
                parent: step,
                name,
                trial,
                slot,
                start_ns,
                dur_ns: total - prev,
            });
        }
        *proto_prev = (decide, observe);
        tr.counts.sampled_slots += 1;
        tr.sample_pool();
    }
}

fn count_calls<P>(tr: &mut Tracer, protos: &[TracedProto<P>]) {
    tr.counts.proto_calls += protos.iter().map(|p| p.calls).sum::<u64>();
}

/// [`run_broadcast_on`] with every layer traced: the same protocol
/// construction, parallelism and per-slot informed count, over the
/// delegating wrappers.
///
/// # Errors
///
/// Propagates network construction errors.
pub fn traced_broadcast<CM, Med>(
    model: CM,
    seed: u64,
    budget: u64,
    medium: Med,
    par: Option<ParConfig>,
    tr: &mut Tracer,
    trial: u32,
) -> Result<(BroadcastRun, Med), SimError>
where
    CM: ChannelModel + Sync,
    Med: Medium<()> + MediumCounters,
{
    let n = model.n();
    let mut protos = Vec::with_capacity(n);
    protos.push(TracedProto::new(CogCast::source(()), tr.clock_ns));
    protos.extend((1..n).map(|_| TracedProto::new(CogCast::node(), tr.clock_ns)));
    let medium = TracedMedium::new(medium, tr.epoch);
    let mut net = Network::with_medium(model, protos, seed, medium)?;
    net.set_parallelism(par);

    let mut informed_per_slot = Vec::new();
    let mut slots = None;
    let mut proto_prev = (0, 0);
    for s in 0..budget {
        step_traced(&mut net, tr, trial, &mut proto_prev);
        let informed = net
            .protocols()
            .iter()
            .filter(|p| p.inner.is_informed())
            .count();
        informed_per_slot.push(informed);
        if informed == n {
            slots = Some(s + 1);
            break;
        }
    }
    count_calls(tr, net.protocols());
    let run = BroadcastRun {
        slots,
        budget,
        informed_per_slot,
    };
    Ok((run, net.into_medium().inner))
}

/// [`crn_core::cogcomp::run_aggregation_on`] with every layer traced.
///
/// # Errors
///
/// As for `run_aggregation_on`.
#[allow(clippy::too_many_arguments)]
pub fn traced_aggregation<CM, V, Med>(
    model: CM,
    values: Vec<V>,
    seed: u64,
    alpha: f64,
    medium: Med,
    par: Option<ParConfig>,
    tr: &mut Tracer,
    trial: u32,
) -> Result<(AggregationRun<V>, Med), SimError>
where
    CM: ChannelModel + Sync,
    V: Aggregate,
    Med: Medium<CogCompMsg<V>> + MediumCounters,
{
    let n = model.n();
    if values.len() != n {
        return Err(SimError::InvalidParams {
            reason: format!("{} values supplied for {n} nodes", values.len()),
        });
    }
    let cfg = CogCompConfig::new(n, model.c(), model.k(), alpha);
    let budget = cfg.recommended_budget();
    let mut values = values.into_iter();
    let source_value = values.next().expect("n >= 1 guaranteed by the model");
    let mut protos = Vec::with_capacity(n);
    protos.push(TracedProto::new(
        CogComp::source(cfg, source_value),
        tr.clock_ns,
    ));
    protos.extend(values.map(|v| TracedProto::new(CogComp::node(cfg, v), tr.clock_ns)));
    let medium = TracedMedium::new(medium, tr.epoch);
    let mut net = Network::with_medium(model, protos, seed, medium)?;
    net.set_parallelism(par);

    let mut slots = net.all_done().then(|| net.slot());
    let mut proto_prev = (0, 0);
    if slots.is_none() {
        for _ in 0..budget {
            step_traced(&mut net, tr, trial, &mut proto_prev);
            if net.all_done() {
                slots = Some(net.slot());
                break;
            }
        }
    }
    count_calls(tr, net.protocols());
    let (protos, medium) = net.into_parts();
    let uninformed = protos.iter().filter(|p| !p.inner.knows_init()).count();
    let result = slots.and_then(|_| protos[0].inner.result().cloned());
    let phase4_steps = slots.map(|s| s.saturating_sub(cfg.phase4_start()).div_ceil(3));
    let run = AggregationRun {
        result,
        slots,
        phase4_steps,
        cfg,
        uninformed,
        budget,
    };
    Ok((run, medium.inner))
}
