//! Ablations and calibrations: T6, A1, A2, A3.
//!
//! These go beyond the paper's headline claims to the design choices
//! it argues for: the mediators of COGCOMP's phase four (A1), the
//! robustness-to-faults claim of Section 1 (A2), the budget constant
//! behind "with high probability" (A3), and footnote 1's randomized-
//! beats-deterministic rendezvous observation (T6).

use crate::effort::{mean_slots, par_trials, Effort};
use crn_core::aggregate::Sum;
use crn_core::bounds;
use crn_core::cogcast::{run_broadcast, CogCast};
use crn_core::cogcomp::{run_aggregation_cfg, CogCompConfig, Coordination};
use crn_rendezvous::deterministic::jump_stay_rendezvous_slots;
use crn_rendezvous::pairwise::rendezvous_slots;
use crn_sim::assignment::shared_core;
use crn_sim::channel_model::StaticChannels;
use crn_sim::faults::{FaultSchedule, Flaky};
use crn_sim::{Network, OracleSingleHop};
use crn_stats::Table;

const MEASURE_BUDGET: u64 = 50_000_000;

/// **T6** — footnote 1: randomized hopping meets in `O(c²/k)` expected
/// slots, beating deterministic `O(P²)` sequences whenever `k` is
/// non-constant. Sweeps `k` at fixed `c` (shared-core pair, global
/// labels for the deterministic side).
pub fn t6(effort: Effort) -> Table {
    use crn_sim::assignment::random_with_core;
    use crn_sim::rng::derive_rng;
    let c = 12usize;
    let trials = effort.trials(200);
    let mut t = Table::new(
        format!(
            "T6: pairwise rendezvous — randomized vs deterministic jump-stay (c = {c}; mean slots)"
        ),
        &["k", "randomized", "jump-stay", "c²/k"],
    );
    for k in [1usize, 2, 4, 8, 12] {
        // Random core placement: the overlap channels sit at arbitrary
        // global ids, so neither scheme gets them "for free" at the
        // start of its sequence.
        let rand_mean = mean_slots(trials, |seed| {
            let mut rng = derive_rng(seed, 0x76A);
            let a = random_with_core(2, c, k, 20 * c, &mut rng)
                .expect("valid")
                .permute_globals(&mut rng);
            let model = StaticChannels::local(a, seed);
            rendezvous_slots(model, seed, MEASURE_BUDGET)
                .expect("construct")
                .expect("meets")
        });
        let det_mean = mean_slots(trials, |seed| {
            let mut rng = derive_rng(seed, 0x76B);
            let a = random_with_core(2, c, k, 20 * c, &mut rng)
                .expect("valid")
                .permute_globals(&mut rng);
            let model = StaticChannels::global(a);
            jump_stay_rendezvous_slots(model, seed, MEASURE_BUDGET)
                .expect("construct")
                .expect("meets")
        });
        t.push_row(vec![
            k.to_string(),
            format!("{rand_mean:.1}"),
            format!("{det_mean:.1}"),
            format!("{:.0}", (c * c) as f64 / k as f64),
        ]);
    }
    t
}

/// **A1** — the mediator ablation: phase-four steps with the paper's
/// mediator coordination vs free contention, on the congested
/// shared-core pattern where many clusters share `k` channels.
pub fn a1(effort: Effort) -> Table {
    let (c, k) = (6usize, 1usize);
    let ns: &[usize] = &[24, 48, 96, 192];
    let trials = effort.trials(10);
    let mut t = Table::new(
        format!("A1: COGCOMP phase-4 steps — mediated vs uncoordinated (c = {c}, k = {k})"),
        &["n", "mediated steps", "uncoordinated steps", "penalty"],
    );
    for &n in &effort.sweep(ns) {
        let run_mode = |coordination: Coordination, salt: u64| -> f64 {
            let results = par_trials(trials, |seed| {
                let cfg = CogCompConfig::new(n, c, k, bounds::DEFAULT_ALPHA)
                    .with_coordination(coordination);
                let budget = cfg.phase4_start() + 3 * (n as u64 * n as u64 + 64);
                let model =
                    StaticChannels::local(shared_core(n, c, k).expect("valid"), seed + salt);
                let values: Vec<Sum> = (0..n as u64).map(Sum).collect();
                let run =
                    run_aggregation_cfg(model, values, seed + salt, cfg, budget).expect("run");
                assert!(run.is_complete(), "{coordination:?} n={n} seed={seed}");
                run.phase4_steps.unwrap()
            });
            results.iter().sum::<u64>() as f64 / results.len() as f64
        };
        let med = run_mode(Coordination::Mediated, 0);
        let unc = run_mode(Coordination::Uncoordinated, 1000);
        t.push_row(vec![
            n.to_string(),
            format!("{med:.1}"),
            format!("{unc:.1}"),
            format!("{:.2}x", unc / med),
        ]);
    }
    t
}

/// **A2** — fault tolerance (Section 1's robustness claim): COGCAST
/// completion time under independent per-slot node outages.
pub fn a2(effort: Effort) -> Table {
    let (n, c, k) = (32usize, 8usize, 2usize);
    let trials = effort.trials(20);
    let mut t = Table::new(
        format!("A2: COGCAST under transient node outages (n = {n}, c = {c}, k = {k}; mean slots)"),
        &["downtime p", "mean slots", "vs p=0"],
    );
    let mut base = 0.0f64;
    for &p in &[0.0f64, 0.1, 0.3, 0.5] {
        let mean = mean_slots(trials, |seed| {
            let model = StaticChannels::local(shared_core(n, c, k).expect("valid"), seed);
            let mut protos = vec![Flaky::new(CogCast::source(()), FaultSchedule::Random { p })];
            protos.extend((1..n).map(|_| Flaky::new(CogCast::node(), FaultSchedule::Random { p })));
            let mut net = Network::with_medium(model, protos, seed, OracleSingleHop::new())
                .expect("construct");
            let mut done_at = None;
            for s in 0..MEASURE_BUDGET {
                net.step_unrecorded();
                if net
                    .protocols()
                    .iter()
                    .filter(|f| f.inner().is_informed())
                    .count()
                    == n
                {
                    done_at = Some(s + 1);
                    break;
                }
            }
            done_at.expect("completion")
        });
        if p == 0.0 {
            base = mean;
        }
        t.push_row(vec![
            format!("{p:.1}"),
            format!("{mean:.1}"),
            format!("{:.2}x", mean / base),
        ]);
    }
    t
}

/// A3's `(n, c, k)` shapes.
const A3_SHAPES: [(usize, usize, usize); 3] = [(32, 8, 2), (64, 16, 2), (16, 32, 4)];

/// The alphas whose Theorem 4 budgets A3 tabulates, in ascending order.
const A3_ALPHAS: [f64; 5] = [1.0, 2.0, 4.0, 6.0, 10.0];

/// **A3** — calibrating `alpha`: the empirical completion probability
/// of COGCAST within the `alpha`-scaled Theorem 4 budget, justifying
/// [`bounds::DEFAULT_ALPHA`].
///
/// A budget only truncates a run: [`run_broadcast`] executes the same
/// slots under any budget and merely stops sooner. So each (shape,
/// seed) trial runs once, under the largest alpha's budget, and counts
/// as complete under a smaller alpha exactly when it finished within
/// that alpha's budget.
pub fn a3(effort: Effort) -> Table {
    let trials = effort.trials(200);
    let mut t = Table::new(
        "A3: COGCAST completion probability within the alpha-scaled Theorem 4 budget",
        &[
            "n", "c", "k", "alpha=1", "alpha=2", "alpha=4", "alpha=6", "alpha=10",
        ],
    );
    for &(n, c, k) in &effort.sweep(&A3_SHAPES) {
        let budgets = A3_ALPHAS.map(|alpha| bounds::cogcast_slots(n, c, k, alpha));
        let largest = budgets[budgets.len() - 1];
        let slots = par_trials(trials, |seed| {
            let model = StaticChannels::local(shared_core(n, c, k).expect("valid"), seed);
            run_broadcast(model, seed, largest)
                .expect("construct")
                .slots
        });
        let mut row = vec![n.to_string(), c.to_string(), k.to_string()];
        for budget in budgets {
            let ok = slots
                .iter()
                .filter(|s| s.is_some_and(|s| s <= budget))
                .count();
            row.push(format!("{:.3}", ok as f64 / trials as f64));
        }
        t.push_row(row);
    }
    t
}

/// **A4** — amortized repeated aggregation: slots per aggregation
/// round with one shared tree vs independent full COGCOMP runs, as the
/// number of monitoring epochs grows.
pub fn a4(effort: Effort) -> Table {
    use crn_core::cogcomp::{run_aggregation, run_repeated_aggregation};
    let (n, c, k) = (32usize, 12usize, 1usize);
    let trials = effort.trials(10);
    let mut t = Table::new(
        format!(
            "A4: amortized repeated aggregation (n = {n}, c = {c}, k = {k}; mean slots per round)"
        ),
        &[
            "rounds",
            "amortized total",
            "per round",
            "independent per run",
            "saving",
        ],
    );
    let independent = mean_slots(trials, |seed| {
        let model = StaticChannels::local(shared_core(n, c, k).expect("valid"), seed);
        let values: Vec<Sum> = (0..n as u64).map(Sum).collect();
        let run = run_aggregation(model, values, seed, 6.0).expect("run");
        assert!(run.is_complete());
        run.slots.unwrap()
    });
    for rounds in [1usize, 2, 4, 8, 16] {
        let total = mean_slots(trials, |seed| {
            let model = StaticChannels::local(shared_core(n, c, k).expect("valid"), seed);
            let values: Vec<Vec<Sum>> = (0..rounds)
                .map(|_| (0..n as u64).map(Sum).collect())
                .collect();
            let run = run_repeated_aggregation(model, values, seed, 6.0).expect("run");
            assert!(run.is_complete(), "rounds={rounds} seed={seed}");
            run.slots.unwrap()
        });
        let per_round = total / rounds as f64;
        t.push_row(vec![
            rounds.to_string(),
            format!("{total:.0}"),
            format!("{per_round:.0}"),
            format!("{independent:.0}"),
            format!("{:.1}x", independent / per_round),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a4_amortization_grows_with_rounds() {
        let t = a4(Effort::Quick);
        let savings: Vec<f64> = t
            .rows()
            .iter()
            .map(|r| r[4].trim_end_matches('x').parse().unwrap())
            .collect();
        assert!(
            savings.last().unwrap() > savings.first().unwrap(),
            "more rounds must amortize better: {savings:?}"
        );
    }

    #[test]
    fn t6_randomized_improves_with_k() {
        let t = t6(Effort::Quick);
        let first: f64 = t.rows().first().unwrap()[1].parse().unwrap();
        let last: f64 = t.rows().last().unwrap()[1].parse().unwrap();
        assert!(
            first > last * 2.0,
            "randomized rendezvous must speed up with k: {first} vs {last}"
        );
    }

    #[test]
    fn a1_mediation_never_loses_badly() {
        let t = a1(Effort::Quick);
        for row in t.rows() {
            let med: f64 = row[1].parse().unwrap();
            let unc: f64 = row[2].parse().unwrap();
            assert!(
                med <= unc * 1.5,
                "mediation should not lose to free contention: {row:?}"
            );
        }
    }

    #[test]
    fn a2_downtime_slows_but_completes() {
        let t = a2(Effort::Quick);
        let base: f64 = t.rows()[0][1].parse().unwrap();
        let worst: f64 = t.rows().last().unwrap()[1].parse().unwrap();
        assert!(worst > base, "downtime must cost something");
    }

    #[test]
    fn a3_matches_one_run_per_alpha() {
        // The oracle: every alpha gets its own runs under its own
        // budget, as A3 was first written.
        let effort = Effort::Quick;
        let trials = effort.trials(200);
        let rows: Vec<Vec<String>> = effort
            .sweep(&A3_SHAPES)
            .into_iter()
            .map(|(n, c, k)| {
                let mut row = vec![n.to_string(), c.to_string(), k.to_string()];
                for alpha in A3_ALPHAS {
                    let budget = bounds::cogcast_slots(n, c, k, alpha);
                    let ok = (0..trials as u64)
                        .filter(|&seed| {
                            let model = StaticChannels::local(shared_core(n, c, k).unwrap(), seed);
                            run_broadcast(model, seed, budget).unwrap().completed()
                        })
                        .count();
                    row.push(format!("{:.3}", ok as f64 / trials as f64));
                }
                row
            })
            .collect();
        assert_eq!(a3(effort).rows(), rows.as_slice());
    }

    #[test]
    fn a3_higher_alpha_is_monotonically_safer() {
        let t = a3(Effort::Quick);
        for row in t.rows() {
            let probs: Vec<f64> = row[3..].iter().map(|v| v.parse().unwrap()).collect();
            for w in probs.windows(2) {
                assert!(w[0] <= w[1] + 0.05, "non-monotone completion: {row:?}");
            }
            assert!(
                *probs.last().unwrap() >= 0.99,
                "alpha=10 should virtually always complete: {row:?}"
            );
        }
    }
}
