//! The `crn` subcommands. Each returns its report as a `String` so the
//! commands are unit-testable without process spawning.

use crate::args::Opts;
use crn_core::aggregate::{Count, Max, MeanAcc, Min, Sum};
use crn_core::bounds;
use crn_core::cogcast::{run_broadcast, run_broadcast_on};
use crn_core::cogcomp::run_aggregation;
use crn_jamming::{run_jammed_broadcast, JammerStrategy};
use crn_lowerbounds::players::{play, FreshPlayer, Player, UniformPlayer};
use crn_lowerbounds::HittingGame;
use crn_rendezvous::deterministic::jump_stay_rendezvous_slots;
use crn_rendezvous::pairwise::rendezvous_slots;
use crn_sim::assignment::OverlapPattern;
use crn_sim::channel_model::{DynamicSharedCore, StaticChannels};
use crn_sim::medium::{recommended_rounds, resolve_contention};
use crn_sim::rng::{derive_rng, SimRng};
use crn_sim::{OracleMultihop, PhysicalDecay, Topology};
use crn_stats::Summary;
use std::fmt::Write as _;

const BUDGET: u64 = 100_000_000;

fn pattern_by_name(name: &str) -> Result<OverlapPattern, String> {
    OverlapPattern::ALL
        .into_iter()
        .find(|p| p.name() == name)
        .ok_or_else(|| {
            format!(
                "unknown pattern {name:?}; options: {}",
                OverlapPattern::ALL.map(|p| p.name()).join(", ")
            )
        })
}

/// The `--trials` flag: every command that takes it summarizes at least
/// one trial, so zero is an input error.
fn trials(opts: &Opts, default: usize) -> Result<usize, String> {
    match opts.get("trials", default)? {
        0 => Err("--trials must be at least 1".into()),
        t => Ok(t),
    }
}

fn shape(opts: &Opts) -> Result<(usize, usize, usize, u64), String> {
    let n = opts.get("n", 32usize)?;
    let c = opts.get("c", 8usize)?;
    let k = opts.get("k", 2usize)?;
    let seed = opts.get("seed", 1u64)?;
    if n == 0 || c == 0 || k == 0 || k > c {
        return Err(format!(
            "need n,c >= 1 and 1 <= k <= c (n={n}, c={c}, k={k})"
        ));
    }
    Ok((n, c, k, seed))
}

fn summary_line(label: &str, slots: &[u64]) -> String {
    let s = Summary::of_u64(slots).expect("non-empty");
    let ci = match s.ci95 {
        Some(w) => format!(" ± {w:.1}"),
        None => String::new(),
    };
    format!(
        "{label}: mean {:.1}{ci} slots (p50 {:.0}, p90 {:.0}, max {:.0}) over {} trials\n",
        s.mean, s.p50, s.p90, s.max, s.n
    )
}

/// Which slot-resolution medium a command should drive the protocol
/// over. `multihop` uses the complete topology, so its single-hop
/// behaviour must agree with `oracle`; `physical` expands every slot
/// into a decay-backoff episode and additionally reports physical
/// rounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MediumChoice {
    Oracle,
    Multihop,
    Physical,
}

impl MediumChoice {
    const ALL: [MediumChoice; 3] = [
        MediumChoice::Oracle,
        MediumChoice::Multihop,
        MediumChoice::Physical,
    ];

    fn name(self) -> &'static str {
        match self {
            MediumChoice::Oracle => "oracle",
            MediumChoice::Multihop => "multihop",
            MediumChoice::Physical => "physical",
        }
    }
}

fn medium_by_name(name: &str) -> Result<MediumChoice, String> {
    MediumChoice::ALL
        .into_iter()
        .find(|m| m.name() == name)
        .ok_or_else(|| {
            format!(
                "unknown medium {name:?}; options: {}",
                MediumChoice::ALL.map(|m| m.name()).join(", ")
            )
        })
}

/// Runs COGCAST over the chosen medium; accumulates physical-round
/// counts into `physical_rounds` when the medium is `physical`.
fn broadcast_on_medium<CM: crn_sim::ChannelModel>(
    model: CM,
    seed: u64,
    medium: MediumChoice,
    physical_rounds: &mut u64,
) -> Result<crn_core::cogcast::BroadcastRun, String> {
    let n = model.n();
    match medium {
        MediumChoice::Oracle => run_broadcast(model, seed, BUDGET).map_err(|e| e.to_string()),
        MediumChoice::Multihop => run_broadcast_on(
            model,
            seed,
            BUDGET,
            OracleMultihop::new(Topology::complete(n)),
        )
        .map(|(run, _)| run)
        .map_err(|e| e.to_string()),
        MediumChoice::Physical => {
            let (run, med) = run_broadcast_on(model, seed, BUDGET, PhysicalDecay::new())
                .map_err(|e| e.to_string())?;
            *physical_rounds += med.physical_rounds();
            Ok(run)
        }
    }
}

/// `crn broadcast` — run COGCAST.
pub fn broadcast(opts: &Opts) -> Result<String, String> {
    opts.expect_keys(
        "broadcast",
        &[
            "n", "c", "k", "seed", "trials", "pattern", "churn", "medium",
        ],
    )?;
    let (n, c, k, seed) = shape(opts)?;
    let trials = trials(opts, 10)?;
    let pattern = pattern_by_name(&opts.get_str("pattern", "shared-core"))?;
    let medium = medium_by_name(&opts.get_str("medium", "oracle"))?;
    let churn = opts.get("churn", 0.0f64)?;
    // A churn outside [0, 1] (NaN included) would otherwise fall
    // through to the churn-free model without a word.
    if !(0.0..=1.0).contains(&churn) {
        return Err(format!("--churn must be in [0, 1], got {churn}"));
    }
    let mut slots = Vec::new();
    let mut physical_rounds = 0u64;
    for t in 0..trials as u64 {
        let s = seed.wrapping_add(t);
        let run = if churn > 0.0 {
            let model = DynamicSharedCore::new(n, c, k, (c - k).max(1) * 10, churn, s)
                .map_err(|e| e.to_string())?;
            broadcast_on_medium(model, s, medium, &mut physical_rounds)
        } else {
            let mut rng = derive_rng(s, 0xC11);
            let a = pattern
                .generate(n, c, k, &mut rng)
                .map_err(|e| e.to_string())?;
            broadcast_on_medium(StaticChannels::local(a, s), s, medium, &mut physical_rounds)
        }?;
        slots.push(run.slots.ok_or("broadcast did not complete in budget")?);
    }
    let mut out = String::new();
    writeln!(
        out,
        "COGCAST local broadcast: n = {n}, c = {c}, k = {k}, pattern = {}, medium = {}{}",
        pattern.name(),
        medium.name(),
        if churn > 0.0 {
            format!(", churn = {churn}")
        } else {
            String::new()
        }
    )
    .expect("write to string");
    out.push_str(&summary_line("completion", &slots));
    if medium == MediumChoice::Physical {
        let total_slots: u64 = slots.iter().sum();
        writeln!(
            out,
            "physical cost: {} rounds total, {:.0} rounds per abstract slot",
            physical_rounds,
            physical_rounds as f64 / total_slots.max(1) as f64
        )
        .expect("write to string");
    }
    writeln!(
        out,
        "Theorem 4 budget (alpha = {}): {} slots",
        bounds::DEFAULT_ALPHA,
        bounds::cogcast_slots(n, c, k, bounds::DEFAULT_ALPHA)
    )
    .expect("write to string");
    Ok(out)
}

/// `crn aggregate` — run COGCOMP with a chosen associative function.
pub fn aggregate(opts: &Opts) -> Result<String, String> {
    opts.expect_keys(
        "aggregate",
        &["n", "c", "k", "seed", "trials", "op", "pattern", "alpha"],
    )?;
    let (n, c, k, seed) = shape(opts)?;
    let trials = trials(opts, 10)?;
    let op = opts.get_str("op", "sum");
    let pattern = pattern_by_name(&opts.get_str("pattern", "shared-core"))?;
    let alpha = opts.get("alpha", bounds::DEFAULT_ALPHA)?;
    let mut slots = Vec::new();
    let mut result_line = String::new();
    for t in 0..trials as u64 {
        let s = seed.wrapping_add(t);
        let mut rng = derive_rng(s, 0xA66);
        let a = pattern
            .generate(n, c, k, &mut rng)
            .map_err(|e| e.to_string())?;
        let model = StaticChannels::local(a, s);
        macro_rules! run_op {
            ($mk:expr, $fmt:expr) => {{
                let values: Vec<_> = (0..n as u64).map($mk).collect();
                let run = run_aggregation(model, values, s, alpha).map_err(|e| e.to_string())?;
                let r = run.result.ok_or("aggregation did not complete")?;
                if t == 0 {
                    result_line = format!("result ({op} of node ids 0..{n}): {}\n", $fmt(&r));
                }
                run.slots.expect("checked by result")
            }};
        }
        let used = match op.as_str() {
            "sum" => run_op!(Sum, |r: &Sum| r.0.to_string()),
            "min" => run_op!(Min, |r: &Min| r.0.to_string()),
            "max" => run_op!(Max, |r: &Max| r.0.to_string()),
            "count" => run_op!(|_| Count(1), |r: &Count| r.0.to_string()),
            "mean" => run_op!(MeanAcc::of, |r: &MeanAcc| format!("{:.3}", r.mean())),
            other => {
                return Err(format!(
                    "unknown op {other:?}; options: sum, min, max, count, mean"
                ))
            }
        };
        slots.push(used);
    }
    let mut out = format!(
        "COGCOMP aggregation: n = {n}, c = {c}, k = {k}, op = {op}, pattern = {}\n",
        pattern.name()
    );
    out.push_str(&result_line);
    out.push_str(&summary_line("completion", &slots));
    Ok(out)
}

/// `crn rendezvous` — pairwise rendezvous, randomized or deterministic.
pub fn rendezvous(opts: &Opts) -> Result<String, String> {
    opts.expect_keys("rendezvous", &["c", "k", "seed", "trials", "deterministic"])?;
    let c = opts.get("c", 8usize)?;
    let k = opts.get("k", 2usize)?;
    let seed = opts.get("seed", 1u64)?;
    let trials = trials(opts, 50)?;
    let deterministic = opts.has("deterministic");
    if k == 0 || k > c {
        return Err(format!("need 1 <= k <= c (k = {k}, c = {c})"));
    }
    let mut slots = Vec::new();
    for t in 0..trials as u64 {
        let s = seed.wrapping_add(t);
        let mut rng = derive_rng(s, 0x3E0);
        let a = crn_sim::assignment::random_with_core(2, c, k, 10 * c, &mut rng)
            .map_err(|e| e.to_string())?
            .permute_globals(&mut rng);
        let met = if deterministic {
            jump_stay_rendezvous_slots(StaticChannels::global(a), s, BUDGET)
        } else {
            rendezvous_slots(StaticChannels::local(a, s), s, BUDGET)
        }
        .map_err(|e| e.to_string())?;
        slots.push(met.ok_or("pair did not meet within budget")?);
    }
    let mut out = format!(
        "pairwise rendezvous: c = {c}, k = {k}, scheme = {}\n",
        if deterministic {
            "deterministic jump-stay"
        } else {
            "uniform randomized"
        }
    );
    out.push_str(&summary_line("meeting time", &slots));
    writeln!(out, "c²/k reference: {:.0}", (c * c) as f64 / k as f64).expect("write");
    Ok(out)
}

/// `crn flood` — COGCAST over a multi-hop topology.
pub fn flood(opts: &Opts) -> Result<String, String> {
    opts.expect_keys("flood", &["n", "c", "k", "seed", "trials", "topology"])?;
    let (n, c, k, seed) = shape(opts)?;
    let trials = trials(opts, 10)?;
    let shape_name = opts.get_str("topology", "grid");
    let topo = match shape_name.as_str() {
        "line" => Topology::line(n),
        "ring" => Topology::ring(n),
        "complete" => Topology::complete(n),
        "grid" => {
            let w = (n as f64).sqrt().ceil() as usize;
            let h = n.div_ceil(w);
            Topology::grid(w, h)
        }
        other => {
            return Err(format!(
                "unknown topology {other:?}; options: line, ring, grid, complete"
            ))
        }
    };
    let n = topo.len();
    let diameter = topo.diameter().ok_or("topology is disconnected")?;
    let mut slots = Vec::new();
    for t in 0..trials as u64 {
        let s = seed.wrapping_add(t);
        let a = crn_sim::assignment::shared_core(n, c, k).map_err(|e| e.to_string())?;
        let medium = OracleMultihop::new(topo.clone());
        let (run, _) = run_broadcast_on(StaticChannels::local(a, s), s, BUDGET, medium)
            .map_err(|e| e.to_string())?;
        slots.push(run.slots.ok_or("flood did not complete")?);
    }
    let mut out = format!(
        "multi-hop flood: topology = {shape_name} (n = {n}, diameter = {diameter}), c = {c}, k = {k}\n"
    );
    out.push_str(&summary_line("completion", &slots));
    Ok(out)
}

/// `crn game` — play the bipartite hitting game.
pub fn game(opts: &Opts) -> Result<String, String> {
    opts.expect_keys("game", &["c", "k", "seed", "trials", "player"])?;
    let c = opts.get("c", 16usize)?;
    let k = opts.get("k", 2usize)?;
    let seed = opts.get("seed", 1u64)?;
    let trials = trials(opts, 200)?;
    let player_name = opts.get_str("player", "fresh");
    if k == 0 || k > c {
        return Err(format!("need 1 <= k <= c (k = {k}, c = {c})"));
    }
    let mut rounds = Vec::new();
    for t in 0..trials as u64 {
        let mut rng = SimRng::seed_from_u64(seed.wrapping_add(t));
        let mut game = HittingGame::new(c, k, &mut rng);
        let won = match player_name.as_str() {
            "uniform" => {
                let mut p = UniformPlayer::new(c);
                play_boxed(&mut game, &mut p, &mut rng)
            }
            "fresh" => {
                let mut p = FreshPlayer::new(c);
                play_boxed(&mut game, &mut p, &mut rng)
            }
            other => return Err(format!("unknown player {other:?}; options: uniform, fresh")),
        };
        rounds.push(won.ok_or("player did not win within budget")?);
    }
    let floor = bounds::hitting_game_floor(c, k, 2.0);
    let below = rounds.iter().filter(|&&r| r <= floor).count();
    let mut out =
        format!("({c},{k})-bipartite hitting game, player = {player_name}, {trials} games\n");
    out.push_str(&summary_line("winning round", &rounds));
    writeln!(
        out,
        "Lemma 11 floor c²/(8k) = {floor}; P[win by floor] = {:.3} (must be < 0.5)",
        below as f64 / trials as f64
    )
    .expect("write");
    Ok(out)
}

fn play_boxed(game: &mut HittingGame, player: &mut dyn Player, rng: &mut SimRng) -> Option<u64> {
    struct DynPlayer<'a>(&'a mut dyn Player);
    impl Player for DynPlayer<'_> {
        fn next_proposal(&mut self, rng: &mut SimRng) -> crn_lowerbounds::Edge {
            self.0.next_proposal(rng)
        }
    }
    play(game, &mut DynPlayer(player), 10_000_000, rng)
}

/// `crn jam` — COGCAST against an n-uniform jammer.
pub fn jam(opts: &Opts) -> Result<String, String> {
    opts.expect_keys("jam", &["n", "c", "k", "seed", "trials", "strategy"])?;
    let (n, c, k, seed) = shape(opts)?;
    let trials = trials(opts, 10)?;
    let strategy_name = opts.get_str("strategy", "random");
    let strategy = JammerStrategy::ALL
        .into_iter()
        .find(|s| s.name() == strategy_name)
        .ok_or_else(|| {
            format!(
                "unknown strategy {strategy_name:?}; options: {}",
                JammerStrategy::ALL.map(|s| s.name()).join(", ")
            )
        })?;
    let mut slots = Vec::new();
    for t in 0..trials as u64 {
        let s = seed.wrapping_add(t);
        let run = run_jammed_broadcast(n, c, k, strategy, s, 60.0).map_err(|e| e.to_string())?;
        slots.push(run.slots.ok_or("jammed broadcast did not complete")?);
    }
    let mut out = format!(
        "COGCAST vs n-uniform jammer: n = {n}, c = {c}, jam budget = {k} ({} strategy)\n",
        strategy.name()
    );
    out.push_str(&summary_line("completion", &slots));
    writeln!(out, "effective overlap c - 2k = {}", c - 2 * k).expect("write");
    Ok(out)
}

/// `crn backoff` — resolve contention on the physical radio.
pub fn backoff(opts: &Opts) -> Result<String, String> {
    opts.expect_keys("backoff", &["m", "nmax", "seed", "trials"])?;
    let m = opts.get("m", 16usize)?;
    let n_max = opts.get("nmax", 256usize)?;
    let seed = opts.get("seed", 1u64)?;
    let trials = trials(opts, 200)?;
    if m == 0 || m > n_max {
        return Err(format!("need 1 <= m <= nmax (m = {m}, nmax = {n_max})"));
    }
    let mut rounds = Vec::new();
    for t in 0..trials as u64 {
        let mut rng = SimRng::seed_from_u64(seed.wrapping_add(t));
        let r = resolve_contention(m, n_max, recommended_rounds(n_max), &mut rng)
            .map_err(|e| e.to_string())?
            .ok_or("decay episode failed within the recommended budget")?;
        rounds.push(r.rounds);
    }
    let mut out = format!("decay backoff: m = {m} contenders, population bound {n_max}\n");
    out.push_str(&summary_line("rounds to one winner", &rounds));
    writeln!(
        out,
        "w.h.p. budget 8·log²: {} rounds",
        recommended_rounds(n_max)
    )
    .expect("write");
    Ok(out)
}

/// `crn monitor` — amortized repeated aggregation over one tree.
pub fn monitor(opts: &Opts) -> Result<String, String> {
    use crn_core::cogcomp::run_repeated_aggregation;
    opts.expect_keys("monitor", &["n", "c", "k", "seed", "rounds", "op"])?;
    let (n, c, k, seed) = shape(opts)?;
    let rounds = opts.get("rounds", 5usize)?;
    let op = opts.get_str("op", "max");
    if rounds == 0 {
        return Err("need at least one round".into());
    }
    if op != "max" {
        return Err(format!("monitor currently supports --op max, got {op:?}"));
    }
    let a = crn_sim::assignment::shared_core(n, c, k).map_err(|e| e.to_string())?;
    let model = StaticChannels::local(a, seed);
    // Drifting synthetic readings, deterministic per seed.
    let mut vrng = derive_rng(seed, 0x300);
    let values: Vec<Vec<Max>> = (0..rounds)
        .map(|r| {
            (0..n)
                .map(|_| Max(100 + 2 * r as u64 + vrng.gen_range(0u64..20)))
                .collect()
        })
        .collect();
    let truth: Vec<u64> = values
        .iter()
        .map(|round| round.iter().map(|m| m.0).max().expect("n >= 1"))
        .collect();
    let run = run_repeated_aggregation(model, values, seed, bounds::DEFAULT_ALPHA)
        .map_err(|e| e.to_string())?;
    if !run.is_complete() {
        return Err("a monitoring round missed its window".into());
    }
    let mut out = format!(
        "continuous monitoring: n = {n}, c = {c}, k = {k}, {rounds} rounds over one tree\n"
    );
    writeln!(
        out,
        "total {} slots; setup {} slots; {} slots per round window",
        run.slots.expect("complete"),
        run.cfg.phase4_start(),
        3 * run.cfg.round_steps()
    )
    .expect("write");
    for (r, (result, truth)) in run.results.iter().zip(&truth).enumerate() {
        let measured = result.as_ref().expect("complete").0;
        writeln!(
            out,
            "  round {r}: max = {measured}{}",
            if measured == *truth {
                ""
            } else {
                " (MISMATCH)"
            }
        )
        .expect("write");
        if measured != *truth {
            return Err(format!(
                "round {r} result {measured} != ground truth {truth}"
            ));
        }
    }
    Ok(out)
}

/// Dispatches a subcommand; `None` means "unknown command".
pub fn dispatch(command: &str, opts: &Opts) -> Option<Result<String, String>> {
    Some(match command {
        "broadcast" => broadcast(opts),
        "aggregate" => aggregate(opts),
        "rendezvous" => rendezvous(opts),
        "flood" => flood(opts),
        "game" => game(opts),
        "jam" => jam(opts),
        "backoff" => backoff(opts),
        "monitor" => monitor(opts),
        _ => return None,
    })
}

/// The help text.
pub fn help() -> String {
    "crn — efficient communication in cognitive radio networks (PODC'15 reproduction)

USAGE: crn <command> [--key value]...

COMMANDS
  broadcast   COGCAST local broadcast
              --n 32 --c 8 --k 2 --pattern shared-core --churn 0.0 --trials 10 --seed 1
              --medium oracle|multihop|physical
  aggregate   COGCOMP data aggregation
              --n 32 --c 8 --k 2 --op sum|min|max|count|mean --alpha 10 --trials 10
  rendezvous  pairwise rendezvous
              --c 8 --k 2 --trials 50 [--deterministic]
  flood       multi-hop COGCAST flood
              --n 16 --c 4 --k 2 --topology line|ring|grid|complete
  game        the (c,k)-bipartite hitting game (Lemma 11)
              --c 16 --k 2 --player uniform|fresh --trials 200
  jam         COGCAST vs an n-uniform jammer (Theorem 18)
              --n 16 --c 12 --k 3 --strategy random|sweep|targeted
  backoff     decay contention resolution on the physical radio
              --m 16 --nmax 256 --trials 200
  monitor     amortized repeated aggregation (one tree, many rounds)
              --n 32 --c 8 --k 2 --rounds 5 --op max

Patterns: full-overlap, shared-core, random-dispersed, random-congested, clustered.
All commands are deterministic for a fixed --seed.
"
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Opts {
        Opts::parse(args.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn broadcast_reports_completion() {
        let out = broadcast(&opts(&["--n", "12", "--c", "4", "--trials", "3"])).unwrap();
        assert!(out.contains("COGCAST local broadcast"));
        assert!(out.contains("mean"));
        assert!(out.contains("Theorem 4 budget"));
    }

    #[test]
    fn broadcast_rejects_bad_shape() {
        assert!(broadcast(&opts(&["--k", "9", "--c", "4"])).is_err());
    }

    #[test]
    fn broadcast_medium_axis() {
        for medium in ["oracle", "multihop", "physical"] {
            let out = broadcast(&opts(&[
                "--n", "10", "--c", "4", "--trials", "2", "--medium", medium,
            ]))
            .unwrap_or_else(|e| panic!("{medium}: {e}"));
            assert!(out.contains(&format!("medium = {medium}")), "{out}");
        }
        // Physical runs additionally report the round expansion.
        let out = broadcast(&opts(&[
            "--n", "10", "--c", "4", "--trials", "2", "--medium", "physical",
        ]))
        .unwrap();
        assert!(out.contains("physical cost"), "{out}");
        assert!(broadcast(&opts(&["--medium", "ether"])).is_err());
    }

    #[test]
    fn broadcast_multihop_medium_matches_oracle() {
        // Complete topology + single-hop protocol: the multihop medium
        // must delegate to the oracle and reproduce its exact numbers.
        let base = &["--n", "12", "--c", "4", "--trials", "3"];
        let oracle = broadcast(&opts(base)).unwrap();
        let mut with_medium = base.to_vec();
        with_medium.extend(["--medium", "multihop"]);
        let multihop = broadcast(&opts(&with_medium)).unwrap();
        let line = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("completion"))
                .unwrap()
                .to_string()
        };
        assert_eq!(line(&oracle), line(&multihop));
    }

    #[test]
    fn aggregate_each_op() {
        for op in ["sum", "min", "max", "count", "mean"] {
            let out = aggregate(&opts(&[
                "--n", "10", "--c", "4", "--op", op, "--trials", "2",
            ]))
            .unwrap_or_else(|e| panic!("{op}: {e}"));
            assert!(out.contains(&format!("op = {op}")), "{out}");
            assert!(out.contains("result"), "{out}");
        }
        assert!(aggregate(&opts(&["--op", "median"])).is_err());
    }

    #[test]
    fn aggregate_sum_is_correct() {
        let out = aggregate(&opts(&[
            "--n", "10", "--c", "4", "--op", "sum", "--trials", "1",
        ]))
        .unwrap();
        assert!(out.contains(": 45"), "{out}");
    }

    #[test]
    fn rendezvous_both_schemes() {
        let out = rendezvous(&opts(&["--c", "6", "--k", "2", "--trials", "5"])).unwrap();
        assert!(out.contains("uniform randomized"));
        let out = rendezvous(&opts(&[
            "--c",
            "6",
            "--k",
            "2",
            "--trials",
            "5",
            "--deterministic",
        ]))
        .unwrap();
        assert!(out.contains("deterministic"));
    }

    #[test]
    fn flood_topologies() {
        for topo in ["line", "ring", "grid", "complete"] {
            let out = flood(&opts(&[
                "--n",
                "9",
                "--c",
                "4",
                "--topology",
                topo,
                "--trials",
                "2",
            ]))
            .unwrap_or_else(|e| panic!("{topo}: {e}"));
            assert!(out.contains("diameter"), "{out}");
        }
        assert!(flood(&opts(&["--topology", "torus"])).is_err());
    }

    #[test]
    fn game_respects_floor() {
        let out = game(&opts(&["--c", "16", "--k", "2", "--trials", "50"])).unwrap();
        assert!(out.contains("Lemma 11 floor"));
    }

    #[test]
    fn jam_runs_and_validates_regime() {
        let out = jam(&opts(&[
            "--n", "10", "--c", "8", "--k", "2", "--trials", "3",
        ]))
        .unwrap();
        assert!(out.contains("effective overlap"));
        let err = jam(&opts(&["--c", "8", "--k", "4"])).unwrap_err();
        assert!(err.contains("Theorem 18 needs k < c/2"), "{err}");
    }

    #[test]
    fn backoff_runs() {
        let out = backoff(&opts(&["--m", "8", "--trials", "20"])).unwrap();
        assert!(out.contains("rounds to one winner"));
        assert!(backoff(&opts(&["--m", "0"])).is_err());
    }

    #[test]
    fn monitor_tracks_ground_truth() {
        let out = monitor(&opts(&["--n", "12", "--c", "4", "--rounds", "3"])).unwrap();
        assert!(out.contains("3 rounds"), "{out}");
        assert!(out.contains("round 2"), "{out}");
        assert!(!out.contains("MISMATCH"), "{out}");
        assert!(monitor(&opts(&["--rounds", "0"])).is_err());
        assert!(monitor(&opts(&["--op", "sum"])).is_err());
    }

    #[test]
    fn dispatch_covers_all_commands() {
        for cmd in ["broadcast", "rendezvous", "game", "backoff"] {
            let result = dispatch(cmd, &opts(&["--trials", "1"])).expect("known command");
            assert!(result.is_ok(), "{cmd}: {result:?}");
        }
        assert!(dispatch("nope", &opts(&[])).is_none());
    }

    #[test]
    fn unknown_flags_are_rejected_not_defaulted() {
        // The original bug: `--seeed 7` fell back to the default seed
        // and silently ran a different experiment.
        let err = broadcast(&opts(&["--seeed", "7"])).unwrap_err();
        assert!(err.contains("--seeed"), "{err}");
        assert!(err.contains("--seed"), "must list accepted flags: {err}");
        // Every command validates its own accepted-key set.
        for cmd in [
            "broadcast",
            "aggregate",
            "rendezvous",
            "flood",
            "game",
            "jam",
            "backoff",
            "monitor",
        ] {
            let result = dispatch(cmd, &opts(&["--no-such-flag", "1"])).expect("known command");
            let err = result.unwrap_err();
            assert!(err.contains("--no-such-flag"), "{cmd}: {err}");
        }
        // Flags valid for one command are still rejected for another.
        assert!(rendezvous(&opts(&["--n", "6"])).is_err());
        assert!(backoff(&opts(&["--c", "4"])).is_err());
    }

    #[test]
    fn help_mentions_every_command() {
        let h = help();
        for cmd in [
            "broadcast",
            "aggregate",
            "rendezvous",
            "flood",
            "game",
            "jam",
            "backoff",
        ] {
            assert!(h.contains(cmd), "help missing {cmd}");
        }
    }

    #[test]
    fn deterministic_output_for_fixed_seed() {
        let a = broadcast(&opts(&[
            "--n", "10", "--c", "4", "--trials", "3", "--seed", "9",
        ]))
        .unwrap();
        let b = broadcast(&opts(&[
            "--n", "10", "--c", "4", "--trials", "3", "--seed", "9",
        ]))
        .unwrap();
        assert_eq!(a, b);
    }
}
