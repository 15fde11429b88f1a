//! Broadcast experiments: T1, F1–F4, F7, F8.

use crate::effort::{mean_slots, Effort};
use crn_core::bounds;
use crn_core::cogcast::run_broadcast;
use crn_rendezvous::broadcast::run_baseline_broadcast;
use crn_sim::assignment::OverlapPattern;
use crn_sim::channel_model::{DynamicSharedCore, StaticChannels};
use crn_sim::rng::derive_rng;
use crn_stats::{Series, Table};

/// A generous completion budget for measurement runs (we want the
/// actual completion slot, not a budget hit).
const MEASURE_BUDGET: u64 = 50_000_000;

fn cogcast_mean(n: usize, c: usize, k: usize, trials: usize, pool_scale: usize) -> f64 {
    mean_slots(trials, |seed| {
        let mut rng = derive_rng(seed, 0xB0);
        let a =
            crn_sim::assignment::random_with_core(n, c, k, (c - k).max(1) * pool_scale, &mut rng)
                .expect("valid parameters");
        let model = StaticChannels::local(a, seed);
        run_broadcast(model, seed, MEASURE_BUDGET)
            .expect("construction")
            .slots
            .expect("completion within the measurement budget")
    })
}

fn baseline_mean(n: usize, c: usize, k: usize, trials: usize, pool_scale: usize) -> f64 {
    mean_slots(trials, |seed| {
        let mut rng = derive_rng(seed, 0xB1);
        let a =
            crn_sim::assignment::random_with_core(n, c, k, (c - k).max(1) * pool_scale, &mut rng)
                .expect("valid parameters");
        let model = StaticChannels::local(a, seed);
        run_baseline_broadcast(model, seed, MEASURE_BUDGET)
            .expect("construction")
            .slots
            .expect("completion within the measurement budget")
    })
}

/// **T1** — COGCAST vs rendezvous broadcast over an `(n, c, k)` grid
/// (the paper's headline factor-`c` separation, abstract & Section 4).
pub fn t1(effort: Effort) -> Table {
    let grid: &[(usize, usize, usize)] = &[
        (32, 8, 2),
        (64, 8, 2),
        (128, 8, 2),
        (64, 16, 4),
        (128, 16, 2),
        (64, 32, 8),
    ];
    let trials = effort.trials(20);
    let mut t = Table::new(
        "T1: local broadcast — COGCAST vs rendezvous baseline (mean slots)",
        &["n", "c", "k", "COGCAST", "baseline", "speedup", "theory c"],
    );
    for &(n, c, k) in &effort.sweep(grid) {
        let ours = cogcast_mean(n, c, k, trials, 8);
        let base = baseline_mean(n, c, k, trials, 8);
        t.push_row(vec![
            n.to_string(),
            c.to_string(),
            k.to_string(),
            format!("{ours:.1}"),
            format!("{base:.1}"),
            format!("{:.1}x", base / ours),
            format!("{c}x"),
        ]);
    }
    t
}

/// **F1** — COGCAST completion vs `n` at fixed `(c, k)`: flat-ish
/// `(c/k)·lg n` once `n ≥ c`, with the `c/n` penalty below (Theorem 4).
pub fn f1(effort: Effort) -> Series {
    let (c, k) = (16usize, 4usize);
    let ns: &[usize] = &[4, 8, 16, 32, 64, 128, 256, 512];
    let trials = effort.trials(20);
    let mut s = Series::new(
        format!("F1: COGCAST slots vs n (c = {c}, k = {k})"),
        "n",
        "mean slots",
    );
    for &n in &effort.sweep(ns) {
        s.push(n as f64, cogcast_mean(n, c, k, trials, 8));
    }
    s
}

/// **F2** — COGCAST completion vs `c` at fixed `(n, k)`: linear in `c`
/// while `c ≤ n`, then `∝ c²/n` (Theorem 4's `max{1, c/n}` factor).
pub fn f2(effort: Effort) -> Series {
    let (n, k) = (64usize, 2usize);
    let cs: &[usize] = &[2, 4, 8, 16, 32, 64, 128, 256];
    let trials = effort.trials(20);
    let mut s = Series::new(
        format!("F2: COGCAST slots vs c (n = {n}, k = {k})"),
        "c",
        "mean slots",
    );
    for &c in &effort.sweep(cs) {
        s.push(c as f64, cogcast_mean(n, c, k, trials, 8));
    }
    s
}

/// **F3** — COGCAST completion vs `k` at fixed `(n, c)`: `∝ 1/k`.
pub fn f3(effort: Effort) -> Series {
    let (n, c) = (64usize, 32usize);
    let ks: &[usize] = &[1, 2, 4, 8, 16, 32];
    let trials = effort.trials(20);
    let mut s = Series::new(
        format!("F3: COGCAST slots vs k (n = {n}, c = {c})"),
        "k",
        "mean slots",
    );
    for &k in &effort.sweep(ks) {
        s.push(k as f64, cogcast_mean(n, c, k, trials, 8));
    }
    s
}

/// **F4** — the epidemic curve: informed nodes per slot for one run,
/// exhibiting the two analysis stages (exponential growth to `c/2`,
/// then the union-bound tail).
pub fn f4(effort: Effort) -> Series {
    let (n, c, k) = match effort {
        Effort::Full => (256usize, 16usize, 4usize),
        Effort::Quick => (64, 8, 2),
    };
    let a = crn_sim::assignment::shared_core(n, c, k).expect("valid parameters");
    let model = StaticChannels::local(a, 7);
    let run = run_broadcast(model, 7, MEASURE_BUDGET).expect("construction");
    let mut s = Series::new(
        format!("F4: epidemic curve — informed nodes per slot (n = {n}, c = {c}, k = {k})"),
        "slot",
        "informed",
    );
    let step = (run.informed_per_slot.len() / 40).max(1);
    for (i, &cnt) in run.informed_per_slot.iter().enumerate() {
        if i % step == 0 || cnt == n {
            s.push((i + 1) as f64, cnt as f64);
        }
        if cnt == n {
            break;
        }
    }
    s
}

/// **F7** — COGCAST robustness to the overlap pattern (the Section 4
/// analysis handles congested and dispersed overlap alike).
pub fn f7(effort: Effort) -> Table {
    let (n, c, k) = (64usize, 12usize, 3usize);
    let trials = effort.trials(20);
    let mut t = Table::new(
        format!("F7: COGCAST vs overlap pattern (n = {n}, c = {c}, k = {k}; mean slots)"),
        &["pattern", "min overlap", "COGCAST", "budget (alpha=10)"],
    );
    let budget = bounds::cogcast_slots(n, c, k, bounds::DEFAULT_ALPHA);
    for pattern in OverlapPattern::ALL {
        let mut overlaps = Vec::new();
        let mean = mean_slots(trials, |seed| {
            let mut rng = derive_rng(seed, 0xF7);
            let a = pattern.generate(n, c, k, &mut rng).expect("valid");
            let model = StaticChannels::local(a, seed);
            run_broadcast(model, seed, MEASURE_BUDGET)
                .expect("construction")
                .slots
                .expect("completion")
        });
        {
            let mut rng = derive_rng(0, 0xF7);
            overlaps.push(
                pattern
                    .generate(n, c, k, &mut rng)
                    .unwrap()
                    .min_pairwise_overlap(),
            );
        }
        t.push_row(vec![
            pattern.name().to_string(),
            overlaps[0].to_string(),
            format!("{mean:.1}"),
            budget.to_string(),
        ]);
    }
    t
}

/// **F8** — COGCAST under dynamic channel assignment (Section 7): the
/// completion time is unaffected by per-slot churn of the non-core
/// channels.
pub fn f8(effort: Effort) -> Series {
    let (n, c, k) = (32usize, 8usize, 2usize);
    let churns = [0.0f64, 0.1, 0.25, 0.5, 0.75, 1.0];
    let trials = effort.trials(25);
    let mut s = Series::new(
        format!("F8: COGCAST slots vs per-slot churn rate (n = {n}, c = {c}, k = {k})"),
        "churn",
        "mean slots",
    );
    for &churn in &churns {
        let mean = mean_slots(trials, |seed| {
            let model = DynamicSharedCore::new(n, c, k, (c - k) * 10, churn, seed).expect("valid");
            run_broadcast(model, seed, MEASURE_BUDGET)
                .expect("construction")
                .slots
                .expect("completion")
        });
        s.push(churn, mean);
    }
    s
}

/// **F13** — physical-layer anatomy of COGCAST: collision rate,
/// delivery efficiency, and wasted wins along the epidemic, per the
/// trace log. (Observability companion to F4: explains *where* the
/// slots go.)
pub fn f13(effort: Effort) -> Table {
    use crn_core::cogcast::CogCast;
    use crn_sim::{Network, OracleSingleHop, TraceLog};
    let (c, k) = (8usize, 2usize);
    let ns: &[usize] = &[8, 32, 128, 512];
    let trials = effort.trials(10);
    let mut t = Table::new(
        format!(
            "F13: COGCAST physical-layer anatomy (c = {c}, k = {k}; means over {trials} trials)"
        ),
        &[
            "n",
            "slots",
            "collision rate",
            "delivery efficiency",
            "wasted wins/slot",
        ],
    );
    for &n in &effort.sweep(ns) {
        let logs = crate::effort::par_trials(trials, |seed| {
            let a = crn_sim::assignment::shared_core(n, c, k).expect("valid");
            let model = StaticChannels::local(a, seed);
            let mut protos = vec![CogCast::source(0u8)];
            protos.extend((1..n).map(|_| CogCast::node()));
            let mut net = Network::with_medium(model, protos, seed, OracleSingleHop::new())
                .expect("construct");
            let mut log = TraceLog::new();
            for _ in 0..MEASURE_BUDGET {
                log.record(net.step());
                if net.all_done() {
                    break;
                }
            }
            assert!(net.all_done(), "n={n} seed={seed} did not complete");
            log
        });
        let avg = |f: &dyn Fn(&TraceLog) -> f64| -> f64 {
            logs.iter().map(f).sum::<f64>() / logs.len() as f64
        };
        t.push_row(vec![
            n.to_string(),
            format!("{:.1}", avg(&|l| l.slots() as f64)),
            format!("{:.3}", avg(&|l| l.collision_rate())),
            format!("{:.3}", avg(&|l| l.delivery_efficiency())),
            format!(
                "{:.2}",
                avg(&|l| l.total_wasted_wins() as f64 / l.slots() as f64)
            ),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f13_rates_are_valid() {
        let t = f13(Effort::Quick);
        for row in t.rows() {
            let collision: f64 = row[2].parse().unwrap();
            let efficiency: f64 = row[3].parse().unwrap();
            assert!((0.0..=1.0).contains(&collision), "{row:?}");
            assert!((0.0..=1.0).contains(&efficiency), "{row:?}");
        }
    }

    #[test]
    fn t1_shows_cogcast_winning() {
        let t = t1(Effort::Quick);
        assert!(!t.is_empty());
        for row in t.rows() {
            let ours: f64 = row[3].parse().unwrap();
            let base: f64 = row[4].parse().unwrap();
            assert!(base > ours, "baseline should lose: {row:?}");
        }
    }

    #[test]
    fn f1_flat_region_for_large_n() {
        let s = f1(Effort::Quick);
        assert!(s.points().len() >= 2);
        for &(_, y) in s.points() {
            assert!(y > 0.0);
        }
    }

    #[test]
    fn f3_decreases_in_k() {
        let s = f3(Effort::Quick);
        let first = s.points().first().unwrap().1;
        let last = s.points().last().unwrap().1;
        assert!(
            first > last,
            "slots must drop as k grows: {first} vs {last}"
        );
    }

    #[test]
    fn f4_curve_reaches_n() {
        let s = f4(Effort::Quick);
        let max = s.points().iter().map(|&(_, y)| y).fold(0.0, f64::max);
        assert_eq!(max, 64.0);
    }

    #[test]
    fn f8_is_churn_insensitive() {
        let s = f8(Effort::Quick);
        let ys: Vec<f64> = s.points().iter().map(|&(_, y)| y).collect();
        let max = ys.iter().cloned().fold(0.0, f64::max);
        let min = ys.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            max / min < 3.0,
            "churn should not change completion much: {ys:?}"
        );
    }
}
