//! COGCOMP — data aggregation over the COGCAST distribution tree
//! (Section 5 of the paper).
//!
//! COGCOMP computes an associative aggregate of per-node values at a
//! designated source in
//! `O((c/k)·max{1, c/n}·lg n + n)` slots w.h.p. (Theorem 10). See
//! [`CogComp`] for the phase-by-phase state machine and
//! [`run_aggregation`] for a one-call driver.

mod config;
mod msg;
mod protocol;

pub use config::{CogCompConfig, Coordination, PhaseAt};
pub use msg::CogCompMsg;
pub use protocol::CogComp;

use crate::aggregate::Aggregate;
use crate::bounds;
use crn_sim::{ChannelModel, Network, OracleSingleHop, SimError};

/// The outcome of one COGCOMP execution.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregationRun<V> {
    /// The aggregate computed at the source, if the run completed.
    pub result: Option<V>,
    /// Total slots until every node terminated, or `None` on timeout.
    pub slots: Option<u64>,
    /// Phase-four steps actually used (3 slots each), when completed.
    pub phase4_steps: Option<u64>,
    /// The configuration the run used.
    pub cfg: CogCompConfig,
    /// Nodes that never heard `Init` (0 on a w.h.p.-successful run);
    /// their values are missing from `result`.
    pub uninformed: usize,
    /// The slot budget that applied.
    pub budget: u64,
}

impl<V> AggregationRun<V> {
    /// True if every node terminated within the budget *and* every node
    /// was informed (so `result` covers the whole network).
    pub fn is_complete(&self) -> bool {
        self.slots.is_some() && self.uninformed == 0
    }
}

/// Runs COGCOMP end to end: node 0 is the source; `values[i]` is node
/// `i`'s input. Uses the Theorem 4 phase-one budget with constant
/// `alpha` and the [`CogCompConfig::recommended_budget`] overall cap.
///
/// # Errors
///
/// Returns [`SimError::InvalidParams`] if `values.len()` differs from
/// the model's node count, if `alpha` is not a positive finite number,
/// or if the phase-one budget it sizes does not fit in `usize` or
/// overflows the slot schedule; propagates network construction
/// errors.
///
/// # Examples
///
/// ```
/// use crn_core::aggregate::Sum;
/// use crn_core::cogcomp::run_aggregation;
/// use crn_sim::assignment::shared_core;
/// use crn_sim::channel_model::StaticChannels;
///
/// let n = 12;
/// let model = StaticChannels::local(shared_core(n, 4, 2)?, 5);
/// let values: Vec<Sum> = (0..n as u64).map(Sum).collect();
/// let run = run_aggregation(model, values, 5, 10.0)?;
/// assert!(run.is_complete());
/// assert_eq!(run.result, Some(Sum((0..12).sum())));
/// # Ok::<(), crn_sim::SimError>(())
/// ```
pub fn run_aggregation<CM: ChannelModel, V: Aggregate>(
    model: CM,
    values: Vec<V>,
    seed: u64,
    alpha: f64,
) -> Result<AggregationRun<V>, SimError> {
    let cfg = checked_config(model.n(), model.c(), model.k(), alpha)?;
    let budget = cfg.recommended_budget();
    run_aggregation_cfg(model, values, seed, cfg, budget)
}

/// Runs COGCOMP end to end over an arbitrary [`crn_sim::Medium`] with
/// the recommended budget; see [`run_aggregation_cfg_on`].
///
/// # Errors
///
/// As for [`run_aggregation`].
pub fn run_aggregation_on<CM, V, Med>(
    model: CM,
    values: Vec<V>,
    seed: u64,
    alpha: f64,
    medium: Med,
) -> Result<(AggregationRun<V>, Med), SimError>
where
    CM: ChannelModel,
    V: Aggregate,
    Med: crn_sim::Medium<CogCompMsg<V>>,
{
    let cfg = checked_config(model.n(), model.c(), model.k(), alpha)?;
    let budget = cfg.recommended_budget();
    run_aggregation_cfg_on(model, values, seed, cfg, budget, medium)
}

/// The Theorem 4-sized configuration for `alpha`, rejecting an `alpha`
/// that is not a positive finite number (`0`, negatives and NaN would
/// silently shrink phase one to a single slot) and one whose phase-one
/// budget does not fit in `usize` or overflows the slot schedule.
fn checked_config(n: usize, c: usize, k: usize, alpha: f64) -> Result<CogCompConfig, SimError> {
    if !(alpha.is_finite() && alpha > 0.0) {
        return Err(SimError::InvalidParams {
            reason: format!("alpha must be a positive finite number, got {alpha}"),
        });
    }
    let cfg = CogCompConfig::new(n, c, k, alpha);
    check_schedule(&cfg).map_err(|_| SimError::InvalidParams {
        reason: format!(
            "alpha = {alpha} sizes a phase one of {} slots, which does not fit the slot schedule",
            cfg.phase1_slots
        ),
    })?;
    Ok(cfg)
}

/// Rejects a configuration whose phase-one budget does not fit in
/// `usize` or whose slot schedule overflows `u64`.
fn check_schedule(cfg: &CogCompConfig) -> Result<(), SimError> {
    if usize::try_from(cfg.phase1_slots).is_err() || cfg.checked_budget().is_none() {
        return Err(SimError::InvalidParams {
            reason: format!(
                "a phase one of {} slots does not fit the slot schedule",
                cfg.phase1_slots
            ),
        });
    }
    Ok(())
}

/// Runs COGCOMP with an explicit configuration (e.g. the
/// [`Coordination::Uncoordinated`] ablation) and an explicit slot
/// budget.
///
/// # Errors
///
/// Returns [`SimError::InvalidParams`] if `values.len()` differs from
/// the model's node count, `cfg` disagrees with the model's shape, or
/// `cfg`'s phase-one budget does not fit in `usize` or overflows the
/// slot schedule; propagates network construction errors.
pub fn run_aggregation_cfg<CM: ChannelModel, V: Aggregate>(
    model: CM,
    values: Vec<V>,
    seed: u64,
    cfg: CogCompConfig,
    budget: u64,
) -> Result<AggregationRun<V>, SimError> {
    run_aggregation_cfg_on(
        model,
        values,
        seed,
        cfg,
        budget,
        crn_sim::OracleSingleHop::new(),
    )
    .map(|(run, _)| run)
}

/// Runs COGCOMP over an arbitrary [`crn_sim::Medium`] — the collision
/// oracle, a multi-hop topology, or the decay-backoff physical layer —
/// with an explicit configuration and slot budget. Returns the medium
/// alongside the run so medium-side metadata (e.g.
/// [`crn_sim::PhysicalDecay::physical_rounds`]) can be read back.
///
/// With [`crn_sim::OracleSingleHop`] this is trace-identical to
/// [`run_aggregation_cfg`].
///
/// # Errors
///
/// Returns [`SimError::InvalidParams`] if `values.len()` differs from
/// the model's node count, `cfg` disagrees with the model's shape, or
/// `cfg`'s phase-one budget does not fit in `usize` or overflows the
/// slot schedule; propagates network construction errors.
pub fn run_aggregation_cfg_on<CM, V, Med>(
    model: CM,
    values: Vec<V>,
    seed: u64,
    cfg: CogCompConfig,
    budget: u64,
    medium: Med,
) -> Result<(AggregationRun<V>, Med), SimError>
where
    CM: ChannelModel,
    V: Aggregate,
    Med: crn_sim::Medium<CogCompMsg<V>>,
{
    let n = model.n();
    if values.len() != n {
        return Err(SimError::InvalidParams {
            reason: format!("{} values supplied for {n} nodes", values.len()),
        });
    }
    check_schedule(&cfg)?;
    if cfg.n != n || cfg.c != model.c() {
        return Err(SimError::InvalidParams {
            reason: format!(
                "config shape (n={}, c={}) does not match the model (n={n}, c={})",
                cfg.n,
                cfg.c,
                model.c()
            ),
        });
    }
    let mut values = values.into_iter();
    let source_value = values.next().expect("n >= 1 guaranteed by the model");
    let mut protos = Vec::with_capacity(n);
    protos.push(CogComp::source(cfg, source_value));
    protos.extend(values.map(|v| CogComp::node(cfg, v)));

    let mut net = Network::with_medium(model, protos, seed, medium)?;
    let outcome = net.run_to_completion(budget);
    let slots = outcome.slots();
    let (protos, medium) = net.into_parts();

    let uninformed = protos.iter().filter(|p| !p.knows_init()).count();
    let result = slots.and_then(|_| protos[0].result().cloned());
    let phase4_steps = slots.map(|s| s.saturating_sub(cfg.phase4_start()).div_ceil(3));
    let run = AggregationRun {
        result,
        slots,
        phase4_steps,
        cfg,
        uninformed,
        budget,
    };
    Ok((run, medium))
}

/// The outcome of an amortized multi-round COGCOMP execution.
#[derive(Debug, Clone, PartialEq)]
pub struct RepeatedAggregationRun<V> {
    /// Per round: the aggregate at the source (`None` if that round
    /// missed its step window).
    pub results: Vec<Option<V>>,
    /// Total slots until every node terminated, or `None` on timeout.
    pub slots: Option<u64>,
    /// The configuration the run used.
    pub cfg: CogCompConfig,
    /// Nodes that never heard `Init`.
    pub uninformed: usize,
}

impl<V> RepeatedAggregationRun<V> {
    /// True if the run terminated, every node was informed, and every
    /// round produced a result.
    pub fn is_complete(&self) -> bool {
        self.slots.is_some()
            && self.uninformed == 0
            && !self.results.is_empty()
            && self.results.iter().all(Option::is_some)
    }
}

/// Runs COGCOMP with one tree build and `rounds_values.len()` phase-four
/// rounds: `rounds_values[r][i]` is node `i`'s value in round `r`. The
/// distribution tree, cluster censuses and mediator schedules from
/// phases one–three are reused by every round, so each extra round
/// costs only the `O(n)`-step phase four — the amortization that makes
/// COGCOMP a continuous-monitoring primitive.
///
/// # Errors
///
/// Returns [`SimError::InvalidParams`] for empty/ragged `rounds_values`,
/// a node-count mismatch, or an invalid `alpha` (as for
/// [`run_aggregation`]); propagates construction errors.
///
/// # Examples
///
/// ```
/// use crn_core::aggregate::Max;
/// use crn_core::cogcomp::run_repeated_aggregation;
/// use crn_sim::{assignment::shared_core, channel_model::StaticChannels};
///
/// let n = 10;
/// let model = StaticChannels::local(shared_core(n, 4, 2)?, 2);
/// // Three monitoring epochs with different readings.
/// let rounds: Vec<Vec<Max>> = (0..3u64)
///     .map(|r| (0..n as u64).map(|i| Max(i * 10 + r)).collect())
///     .collect();
/// let run = run_repeated_aggregation(model, rounds, 2, 10.0)?;
/// assert!(run.is_complete());
/// assert_eq!(run.results[0], Some(Max(90)));
/// assert_eq!(run.results[2], Some(Max(92)));
/// # Ok::<(), crn_sim::SimError>(())
/// ```
pub fn run_repeated_aggregation<CM: ChannelModel, V: Aggregate>(
    model: CM,
    rounds_values: Vec<Vec<V>>,
    seed: u64,
    alpha: f64,
) -> Result<RepeatedAggregationRun<V>, SimError> {
    let n = model.n();
    let rounds = rounds_values.len();
    if rounds == 0 {
        return Err(SimError::InvalidParams {
            reason: "need at least one round of values".into(),
        });
    }
    if rounds_values.iter().any(|r| r.len() != n) {
        return Err(SimError::InvalidParams {
            reason: format!("every round needs exactly {n} values"),
        });
    }
    let cfg = checked_config(n, model.c(), model.k(), alpha)?.with_rounds(rounds as u32);
    check_schedule(&cfg)?;
    // Transpose: per node, its per-round values.
    let mut per_node: Vec<Vec<V>> = (0..n).map(|_| Vec::with_capacity(rounds)).collect();
    for round in rounds_values {
        for (node, v) in round.into_iter().enumerate() {
            per_node[node].push(v);
        }
    }
    let mut per_node = per_node.into_iter();
    let mut protos = Vec::with_capacity(n);
    protos.push(CogComp::source_with_values(
        cfg,
        per_node.next().expect("n >= 1"),
    ));
    protos.extend(per_node.map(|vs| CogComp::node_with_values(cfg, vs)));

    let mut net = Network::with_medium(model, protos, seed, OracleSingleHop::new())?;
    let outcome = net.run_to_completion(cfg.recommended_budget());
    let slots = outcome.slots();
    let protos = net.into_protocols();
    let uninformed = protos.iter().filter(|p| !p.knows_init()).count();
    Ok(RepeatedAggregationRun {
        results: protos[0].round_results().to_vec(),
        slots,
        cfg,
        uninformed,
    })
}

/// [`run_aggregation`] with the repository's default constants
/// ([`bounds::DEFAULT_ALPHA`]).
///
/// # Errors
///
/// Same as [`run_aggregation`].
pub fn run_aggregation_default<CM: ChannelModel, V: Aggregate>(
    model: CM,
    values: Vec<V>,
    seed: u64,
) -> Result<AggregationRun<V>, SimError> {
    run_aggregation(model, values, seed, bounds::DEFAULT_ALPHA)
}

/// The outcome of a confirmed broadcast (see [`run_confirmed_broadcast`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfirmedBroadcast {
    /// True if the source *positively confirmed* that all `n − 1` other
    /// nodes received the initiation message.
    pub confirmed: bool,
    /// Number of nodes the source accounted for (including itself).
    pub reached: u64,
    /// Total slots until the source terminated, or `None` on timeout.
    pub slots: Option<u64>,
}

/// Broadcast with positive completion confirmation at the source.
///
/// Plain COGCAST gives a *probabilistic* guarantee: after the Theorem 4
/// budget everyone is informed w.h.p., but the source cannot observe
/// it. COGCOMP is exactly the missing acknowledgement channel: its
/// `Init` flood *is* a broadcast, and aggregating `Count(1)` back up
/// the distribution tree tells the source precisely how many nodes the
/// message reached — the "reaching consensus to maintain consistency"
/// use the paper's introduction sketches.
///
/// # Errors
///
/// As for [`run_aggregation`].
///
/// # Examples
///
/// ```
/// use crn_core::cogcomp::run_confirmed_broadcast;
/// use crn_sim::{assignment::shared_core, channel_model::StaticChannels};
///
/// let model = StaticChannels::local(shared_core(12, 4, 2)?, 3);
/// let out = run_confirmed_broadcast(model, 3, 10.0)?;
/// assert!(out.confirmed);
/// assert_eq!(out.reached, 12);
/// # Ok::<(), crn_sim::SimError>(())
/// ```
pub fn run_confirmed_broadcast<CM: ChannelModel>(
    model: CM,
    seed: u64,
    alpha: f64,
) -> Result<ConfirmedBroadcast, SimError> {
    use crate::aggregate::Count;
    let n = model.n() as u64;
    let values = vec![Count(1); n as usize];
    let run = run_aggregation(model, values, seed, alpha)?;
    let reached = run.result.map(|c| c.0).unwrap_or(0);
    Ok(ConfirmedBroadcast {
        confirmed: run.slots.is_some() && reached == n,
        reached,
        slots: run.slots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{Collect, Count, Max, Min, Sum};
    use crn_sim::assignment::{full_overlap, shared_core, OverlapPattern};
    use crn_sim::channel_model::StaticChannels;
    use crn_sim::rng::SimRng;

    fn sum_run(n: usize, c: usize, k: usize, seed: u64) -> AggregationRun<Sum> {
        let model = StaticChannels::local(shared_core(n, c, k).unwrap(), seed);
        let values: Vec<Sum> = (0..n as u64).map(Sum).collect();
        run_aggregation(model, values, seed, bounds::DEFAULT_ALPHA).unwrap()
    }

    #[test]
    fn invalid_alpha_is_an_error_not_a_panic_or_a_wrong_result() {
        let run = |alpha: f64| {
            let model = StaticChannels::local(shared_core(4, 4, 2).unwrap(), 1);
            let values: Vec<Sum> = (0..4).map(Sum).collect();
            run_aggregation(model, values, 1, alpha)
        };
        for alpha in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e30] {
            match run(alpha) {
                Err(SimError::InvalidParams { reason }) => assert!(reason.contains("alpha")),
                other => panic!("alpha {alpha}: expected InvalidParams, got {other:?}"),
            }
        }
        let model = StaticChannels::local(shared_core(4, 4, 2).unwrap(), 1);
        let rounds = vec![(0..4).map(Max).collect::<Vec<_>>()];
        assert!(matches!(
            run_repeated_aggregation(model, rounds, 1, f64::NAN),
            Err(SimError::InvalidParams { .. })
        ));
        let cfg = CogCompConfig {
            phase1_slots: u64::MAX,
            ..CogCompConfig::new(4, 4, 2, 1.0)
        };
        assert_eq!(cfg.checked_budget(), None);
        let model = StaticChannels::local(shared_core(4, 4, 2).unwrap(), 1);
        let values: Vec<Sum> = (0..4).map(Sum).collect();
        assert!(matches!(
            run_aggregation_cfg(model, values, 1, cfg, 100),
            Err(SimError::InvalidParams { .. })
        ));
        assert_eq!(run(1.0).unwrap().result, Some(Sum(6)));
    }

    #[test]
    fn aggregates_sum_correctly() {
        let n = 16;
        let run = sum_run(n, 4, 2, 3);
        assert!(run.is_complete(), "timed out: {run:?}");
        assert_eq!(run.result, Some(Sum((0..n as u64).sum())));
    }

    #[test]
    fn aggregates_across_seeds() {
        let n = 20;
        for seed in 0..10 {
            let run = sum_run(n, 5, 2, seed);
            assert!(run.is_complete(), "seed {seed} timed out");
            assert_eq!(
                run.result,
                Some(Sum((0..n as u64).sum())),
                "seed {seed} produced a wrong sum"
            );
        }
    }

    #[test]
    fn aggregates_min_max_count() {
        let n = 14;
        let model = || StaticChannels::local(shared_core(n, 4, 2).unwrap(), 9);

        let mins: Vec<Min> = (0..n as u64).map(|i| Min(100 - i)).collect();
        let run = run_aggregation(model(), mins, 9, bounds::DEFAULT_ALPHA).unwrap();
        assert_eq!(run.result, Some(Min(100 - (n as u64 - 1))));

        let maxs: Vec<Max> = (0..n as u64).map(Max).collect();
        let run = run_aggregation(model(), maxs, 9, bounds::DEFAULT_ALPHA).unwrap();
        assert_eq!(run.result, Some(Max(n as u64 - 1)));

        let counts = vec![Count(1); n];
        let run = run_aggregation(model(), counts, 9, bounds::DEFAULT_ALPHA).unwrap();
        assert_eq!(run.result, Some(Count(n as u64)));
    }

    #[test]
    fn collect_delivers_every_value_exactly_once() {
        let n = 18;
        for seed in 0..5 {
            let model = StaticChannels::local(shared_core(n, 6, 3).unwrap(), seed);
            let values: Vec<Collect> = (0..n as u64).map(Collect::of).collect();
            let run = run_aggregation(model, values, seed, bounds::DEFAULT_ALPHA).unwrap();
            assert!(run.is_complete(), "seed {seed}");
            let got = run.result.unwrap();
            let expect: Vec<u64> = (0..n as u64).collect();
            assert_eq!(got.values(), expect.as_slice(), "seed {seed}");
        }
    }

    #[test]
    fn works_on_single_shared_channel() {
        // c = k = 1: everything happens on one channel.
        let n = 10;
        let model = StaticChannels::local(full_overlap(n, 1).unwrap(), 4);
        let values: Vec<Sum> = (0..n as u64).map(Sum).collect();
        let run = run_aggregation(model, values, 4, bounds::DEFAULT_ALPHA).unwrap();
        assert!(run.is_complete());
        assert_eq!(run.result, Some(Sum(45)));
    }

    #[test]
    fn works_with_full_overlap_many_channels() {
        let n = 12;
        let model = StaticChannels::local(full_overlap(n, 6).unwrap(), 8);
        let values: Vec<Sum> = (0..n as u64).map(Sum).collect();
        let run = run_aggregation(model, values, 8, bounds::DEFAULT_ALPHA).unwrap();
        assert!(run.is_complete());
        assert_eq!(run.result, Some(Sum(66)));
    }

    #[test]
    fn works_across_overlap_patterns() {
        let (n, c, k) = (15, 6, 3);
        let mut rng = SimRng::seed_from_u64(77);
        for pattern in OverlapPattern::ALL {
            let a = pattern.generate(n, c, k, &mut rng).unwrap();
            let model = StaticChannels::local(a, 21);
            let values: Vec<Sum> = (0..n as u64).map(Sum).collect();
            let run = run_aggregation(model, values, 21, bounds::DEFAULT_ALPHA).unwrap();
            assert!(run.is_complete(), "pattern {} timed out", pattern.name());
            assert_eq!(
                run.result,
                Some(Sum(105)),
                "pattern {} wrong",
                pattern.name()
            );
        }
    }

    #[test]
    fn single_node_aggregates_own_value() {
        let model = StaticChannels::local(full_overlap(1, 3).unwrap(), 1);
        let run = run_aggregation(model, vec![Sum(7)], 1, bounds::DEFAULT_ALPHA).unwrap();
        assert!(run.is_complete());
        assert_eq!(run.result, Some(Sum(7)));
    }

    #[test]
    fn two_node_network() {
        let model = StaticChannels::local(shared_core(2, 3, 1).unwrap(), 6);
        let run = run_aggregation(model, vec![Sum(5), Sum(8)], 6, bounds::DEFAULT_ALPHA).unwrap();
        assert!(run.is_complete());
        assert_eq!(run.result, Some(Sum(13)));
    }

    #[test]
    fn value_count_mismatch_rejected() {
        let model = StaticChannels::local(shared_core(3, 3, 1).unwrap(), 0);
        let err = run_aggregation(model, vec![Sum(1)], 0, 10.0).unwrap_err();
        assert!(matches!(err, SimError::InvalidParams { .. }));
    }

    #[test]
    fn confirmed_broadcast_counts_everyone() {
        for seed in 0..5 {
            let model = StaticChannels::local(shared_core(20, 5, 2).unwrap(), seed);
            let out = run_confirmed_broadcast(model, seed, bounds::DEFAULT_ALPHA).unwrap();
            assert!(out.confirmed, "seed {seed}: {out:?}");
            assert_eq!(out.reached, 20);
            assert!(out.slots.is_some());
        }
    }

    #[test]
    fn confirmed_broadcast_single_node() {
        let model = StaticChannels::local(full_overlap(1, 2).unwrap(), 0);
        let out = run_confirmed_broadcast(model, 0, 10.0).unwrap();
        assert!(out.confirmed);
        assert_eq!(out.reached, 1);
    }

    #[test]
    fn repeated_rounds_reuse_the_tree_and_stay_exact() {
        let (n, c, k) = (18usize, 5usize, 2usize);
        for seed in 0..4 {
            let rounds: Vec<Vec<Sum>> = (0..4u64)
                .map(|r| (0..n as u64).map(|i| Sum(i + 100 * r)).collect())
                .collect();
            let model = StaticChannels::local(shared_core(n, c, k).unwrap(), seed);
            let run = run_repeated_aggregation(model, rounds, seed, bounds::DEFAULT_ALPHA).unwrap();
            assert!(run.is_complete(), "seed {seed}: {:?}", run.results);
            for (r, result) in run.results.iter().enumerate() {
                let expect: u64 = (0..n as u64).map(|i| i + 100 * r as u64).sum();
                assert_eq!(result, &Some(Sum(expect)), "seed {seed} round {r}");
            }
        }
    }

    #[test]
    fn repeated_rounds_amortize_the_tree_build() {
        // R rounds over one tree must cost far less than R independent
        // full runs. Pick a shape where the tree build (phases 1–3,
        // ~2·(c/k)·lg n slots) dominates a phase-four round (~n steps)
        // so the amortization is unambiguous.
        let (n, c, k, rounds) = (24usize, 12usize, 1usize, 6usize);
        let model = StaticChannels::local(shared_core(n, c, k).unwrap(), 3);
        let values: Vec<Vec<Sum>> = (0..rounds)
            .map(|_| (0..n as u64).map(Sum).collect())
            .collect();
        let run = run_repeated_aggregation(model, values, 3, bounds::DEFAULT_ALPHA).unwrap();
        assert!(run.is_complete());
        let amortized = run.slots.unwrap();

        let mut independent = 0;
        for r in 0..rounds as u64 {
            let model = StaticChannels::local(shared_core(n, c, k).unwrap(), 3 + r);
            let values: Vec<Sum> = (0..n as u64).map(Sum).collect();
            let one = run_aggregation(model, values, 3 + r, bounds::DEFAULT_ALPHA).unwrap();
            independent += one.slots.unwrap();
        }
        assert!(
            amortized * 2 < independent,
            "amortization missing: {amortized} vs {independent}"
        );
    }

    #[test]
    fn repeated_rejects_ragged_rounds() {
        let model = StaticChannels::local(shared_core(3, 3, 1).unwrap(), 0);
        let bad = vec![vec![Sum(1), Sum(2), Sum(3)], vec![Sum(1)]];
        assert!(run_repeated_aggregation(model, bad, 0, 10.0).is_err());
        let model = StaticChannels::local(shared_core(3, 3, 1).unwrap(), 0);
        assert!(run_repeated_aggregation::<_, Sum>(model, vec![], 0, 10.0).is_err());
    }

    #[test]
    fn single_round_repeated_matches_plain_run() {
        let (n, c, k) = (14usize, 4usize, 2usize);
        let model = StaticChannels::local(shared_core(n, c, k).unwrap(), 8);
        let values: Vec<Sum> = (0..n as u64).map(Sum).collect();
        let plain = run_aggregation(model, values.clone(), 8, bounds::DEFAULT_ALPHA).unwrap();
        let model = StaticChannels::local(shared_core(n, c, k).unwrap(), 8);
        let repeated =
            run_repeated_aggregation(model, vec![values], 8, bounds::DEFAULT_ALPHA).unwrap();
        assert_eq!(repeated.results, vec![plain.result]);
    }

    #[test]
    fn uncoordinated_ablation_still_aggregates_exactly() {
        let (n, c, k) = (24usize, 6usize, 2usize);
        for seed in 0..5 {
            let cfg = CogCompConfig::new(n, c, k, bounds::DEFAULT_ALPHA)
                .with_coordination(Coordination::Uncoordinated);
            // Free contention can stretch phase four well past O(n)
            // steps; give it a quadratic budget.
            let budget = cfg.phase4_start() + 3 * (n as u64 * n as u64 + 64);
            let model = StaticChannels::local(shared_core(n, c, k).unwrap(), seed);
            let values: Vec<Sum> = (0..n as u64).map(Sum).collect();
            let run = run_aggregation_cfg(model, values, seed, cfg, budget).unwrap();
            assert!(run.is_complete(), "seed {seed} timed out");
            assert_eq!(run.result, Some(Sum((0..n as u64).sum())), "seed {seed}");
        }
    }

    #[test]
    fn uncoordinated_elects_no_mediators() {
        let (n, c, k) = (20usize, 5usize, 2usize);
        let cfg = CogCompConfig::new(n, c, k, bounds::DEFAULT_ALPHA)
            .with_coordination(Coordination::Uncoordinated);
        let model = StaticChannels::local(shared_core(n, c, k).unwrap(), 3);
        let mut protos = vec![CogComp::source(cfg, Sum(0))];
        protos.extend((1..n).map(|i| CogComp::node(cfg, Sum(i as u64))));
        let mut net = Network::with_medium(model, protos, 3, OracleSingleHop::new()).unwrap();
        let budget = cfg.phase4_start() + 3 * (n as u64 * n as u64 + 64);
        assert!(net.run_to_completion(budget).is_done());
        let protos = net.into_protocols();
        assert!(protos.iter().all(|p| !p.is_mediator()));
        assert_eq!(protos[0].result(), Some(&Sum((0..n as u64).sum())));
    }

    #[test]
    fn mediation_is_no_slower_than_free_contention_on_congested_channels() {
        // The design-choice ablation behind the paper's mediators: on
        // a shared-core assignment most clusters pile onto k channels,
        // and uncoordinated senders collide across clusters.
        let (n, c, k) = (96usize, 6usize, 1usize);
        let trials = 5;
        let mut med_total = 0u64;
        let mut unc_total = 0u64;
        for seed in 0..trials {
            let cfg = CogCompConfig::new(n, c, k, bounds::DEFAULT_ALPHA);
            let model = StaticChannels::local(shared_core(n, c, k).unwrap(), seed);
            let values: Vec<Sum> = (0..n as u64).map(Sum).collect();
            let budget = cfg.phase4_start() + 3 * (n as u64 * n as u64 + 64);
            let run = run_aggregation_cfg(model, values, seed, cfg, budget).unwrap();
            assert!(run.is_complete());
            med_total += run.phase4_steps.unwrap();

            let cfg = cfg.with_coordination(Coordination::Uncoordinated);
            let model = StaticChannels::local(shared_core(n, c, k).unwrap(), seed);
            let values: Vec<Sum> = (0..n as u64).map(Sum).collect();
            let run = run_aggregation_cfg(model, values, seed, cfg, budget).unwrap();
            assert!(run.is_complete(), "uncoordinated seed {seed} timed out");
            unc_total += run.phase4_steps.unwrap();
        }
        assert!(
            med_total <= unc_total * 2,
            "mediation should not lose badly: mediated {med_total} vs free {unc_total}"
        );
    }

    #[test]
    fn config_mismatch_rejected() {
        let cfg = CogCompConfig::new(10, 4, 2, 10.0);
        let model = StaticChannels::local(shared_core(12, 4, 2).unwrap(), 0);
        let values: Vec<Sum> = (0..12).map(Sum).collect();
        let err = run_aggregation_cfg(model, values, 0, cfg, 1000).unwrap_err();
        assert!(matches!(err, SimError::InvalidParams { .. }));
    }

    #[test]
    fn phase4_steps_scale_linearly() {
        // Theorem 10: phase four is O(n) steps.
        let steps = |n: usize| -> f64 {
            let trials = 5;
            let mut total = 0u64;
            for seed in 0..trials {
                let run = sum_run(n, 4, 2, seed);
                assert!(run.is_complete());
                total += run.phase4_steps.unwrap();
            }
            total as f64 / trials as f64
        };
        let s32 = steps(32);
        let s128 = steps(128);
        // 4x the nodes should cost no more than ~8x the steps (linear
        // with generous noise allowance), and at least 2x.
        assert!(s128 / s32 < 8.0, "s32={s32}, s128={s128}");
        assert!(s128 > s32 * 1.5, "s32={s32}, s128={s128}");
    }

    #[test]
    fn cluster_sizes_sum_to_n_minus_one() {
        use crn_sim::GlobalChannel;
        use std::collections::BTreeMap;
        let n = 24;
        for seed in [13, 14] {
            let cfg = CogCompConfig::new(n, 5, 2, bounds::DEFAULT_ALPHA);
            let model = StaticChannels::local(shared_core(n, 5, 2).unwrap(), seed);
            let mut protos = vec![CogComp::source(cfg, Sum(0))];
            protos.extend((1..n).map(|i| CogComp::node(cfg, Sum(i as u64))));
            let mut net =
                Network::with_medium(model, protos, seed, OracleSingleHop::new()).unwrap();
            assert!(net.run_to_completion(cfg.recommended_budget()).is_done());
            // Each informed node's cluster: the nodes first informed in
            // the same slot on the same global channel.
            let mut clusters: BTreeMap<(GlobalChannel, u64), Vec<usize>> = BTreeMap::new();
            for (i, p) in net.protocols().iter().enumerate() {
                if let Some(info) = p.informed() {
                    let global = net.model().channels(i)[info.channel.index()];
                    clusters.entry((global, info.slot)).or_default().push(i);
                }
            }
            assert_eq!(clusters.values().map(Vec::len).sum::<usize>(), n - 1);
            let mut mediators = BTreeMap::new();
            for (&(global, _), members) in &clusters {
                for &i in members {
                    assert_eq!(
                        net.protocols()[i].cluster_size() as usize,
                        members.len(),
                        "seed {seed}: node {i}'s cluster size"
                    );
                }
                // Ascending slots: the last cluster on a channel wins.
                mediators.insert(global, members[0]);
            }
            let expected: Vec<usize> = {
                let mut ids: Vec<usize> = mediators.into_values().collect();
                ids.sort_unstable();
                ids
            };
            let elected: Vec<usize> = (0..n)
                .filter(|&i| net.protocols()[i].is_mediator())
                .collect();
            assert_eq!(elected, expected, "seed {seed}: mediators");
        }
    }

    #[test]
    fn mediators_are_unique_per_run() {
        let n = 30;
        let cfg = CogCompConfig::new(n, 6, 2, bounds::DEFAULT_ALPHA);
        let model = StaticChannels::local(shared_core(n, 6, 2).unwrap(), 17);
        let mut protos = vec![CogComp::source(cfg, Count(1))];
        protos.extend((1..n).map(|_| CogComp::node(cfg, Count(1))));
        let mut net = Network::with_medium(model, protos, 17, OracleSingleHop::new()).unwrap();
        assert!(net.run_to_completion(cfg.recommended_budget()).is_done());
        let protos = net.into_protocols();
        let mediators = protos.iter().filter(|p| p.is_mediator()).count();
        // At least one channel informed someone, and there can be at
        // most one mediator per global channel.
        assert!(mediators >= 1);
        assert!(mediators <= 6 + (n - 1) * 4); // <= C
                                               // The source result must still be exact.
        assert_eq!(protos[0].result(), Some(&Count(n as u64)));
    }
}
