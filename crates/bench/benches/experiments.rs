//! One Criterion benchmark per reproduced table/figure (T1–T5, F1–F12).
//!
//! Each benchmark times a single representative kernel run of its
//! experiment at fixed parameters, so `cargo bench` gives a per-
//! experiment cost profile in minutes, not hours. The full sweeps with
//! statistics are produced by the `experiments` binary
//! (`cargo run -p crn-bench --bin experiments -- all`).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use crn_core::aggregate::Sum;
use crn_core::cogcast::run_broadcast;
use crn_core::cogcomp::run_aggregation;
use crn_jamming::{run_jammed_broadcast, JammerStrategy};
use crn_lowerbounds::global_label::{first_overlap_slots, SourceStrategy};
use crn_lowerbounds::players::{play, FreshPlayer};
use crn_lowerbounds::HittingGame;
use crn_rendezvous::aggregate::run_baseline_aggregation;
use crn_rendezvous::broadcast::run_baseline_broadcast;
use crn_rendezvous::hop_together::run_hop_together;
use crn_sim::assignment::{full_overlap, shared_core, OverlapPattern};
use crn_sim::channel_model::{DynamicSharedCore, StaticChannels};
use crn_sim::medium::{recommended_rounds, resolve_contention};
use rand::rngs::StdRng;
use rand::SeedableRng;

const BUDGET: u64 = 50_000_000;

fn cogcast_once(n: usize, c: usize, k: usize, seed: u64) -> u64 {
    let model = StaticChannels::local(shared_core(n, c, k).unwrap(), seed);
    run_broadcast(model, seed, BUDGET).unwrap().slots.unwrap()
}

fn cogcomp_once(n: usize, c: usize, k: usize, seed: u64) -> u64 {
    let model = StaticChannels::local(shared_core(n, c, k).unwrap(), seed);
    let values: Vec<Sum> = (0..n as u64).map(Sum).collect();
    run_aggregation(model, values, seed, 10.0)
        .unwrap()
        .slots
        .unwrap()
}

fn bench_tables(cr: &mut Criterion) {
    let mut seed = 0u64;
    let mut next = || {
        seed += 1;
        seed
    };

    cr.bench_function("t1_broadcast_grid", |b| {
        b.iter(|| {
            let s = next();
            let cog = cogcast_once(64, 8, 2, s);
            let model = StaticChannels::local(shared_core(64, 8, 2).unwrap(), s);
            let base = run_baseline_broadcast(model, s, BUDGET)
                .unwrap()
                .slots
                .unwrap();
            black_box((cog, base))
        })
    });

    cr.bench_function("t2_aggregation_grid", |b| {
        b.iter(|| {
            let s = next();
            let cog = cogcomp_once(32, 8, 2, s);
            let model = StaticChannels::local(shared_core(32, 8, 2).unwrap(), s);
            let values: Vec<Sum> = (0..32).map(Sum).collect();
            let base = run_baseline_aggregation(model, values, s, BUDGET)
                .unwrap()
                .slots
                .unwrap();
            black_box((cog, base))
        })
    });

    cr.bench_function("t3_hitting_game", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(next());
            let mut game = HittingGame::new(32, 4, &mut rng);
            let mut player = FreshPlayer::new(32);
            black_box(play(&mut game, &mut player, 10_000, &mut rng))
        })
    });

    cr.bench_function("t4_global_label", |b| {
        b.iter(|| {
            black_box(first_overlap_slots(
                32,
                4,
                SourceStrategy::Uniform,
                50,
                next(),
                100_000,
            ))
        })
    });

    cr.bench_function("t5_hop_together", |b| {
        b.iter(|| {
            let s = next();
            let model = StaticChannels::global(shared_core(4, 16, 15).unwrap());
            black_box(run_hop_together(model, s, BUDGET).unwrap().slots)
        })
    });

    cr.bench_function("t6_deterministic_rendezvous", |b| {
        use crn_rendezvous::deterministic::jump_stay_rendezvous_slots;
        b.iter(|| {
            let s = next();
            let model = StaticChannels::global(shared_core(2, 12, 2).unwrap());
            black_box(jump_stay_rendezvous_slots(model, s, BUDGET).unwrap())
        })
    });
}

fn bench_ablations(cr: &mut Criterion) {
    use crn_core::cogcomp::{run_aggregation_cfg, CogCompConfig, Coordination};
    use crn_sim::faults::{FaultSchedule, Flaky};
    use crn_sim::{Network, OracleSingleHop};
    let mut seed = 5000u64;
    let mut next = || {
        seed += 1;
        seed
    };

    cr.bench_function("a1_mediator_ablation", |b| {
        b.iter(|| {
            let s = next();
            let n = 48;
            let cfg =
                CogCompConfig::new(n, 6, 1, 10.0).with_coordination(Coordination::Uncoordinated);
            let budget = cfg.phase4_start() + 3 * (n as u64 * n as u64 + 64);
            let model = StaticChannels::local(shared_core(n, 6, 1).unwrap(), s);
            let values: Vec<Sum> = (0..n as u64).map(Sum).collect();
            black_box(
                run_aggregation_cfg(model, values, s, cfg, budget)
                    .unwrap()
                    .slots,
            )
        })
    });

    cr.bench_function("a4_repeated_aggregation", |b| {
        use crn_core::cogcomp::run_repeated_aggregation;
        b.iter(|| {
            let s = next();
            let n = 24usize;
            let model = StaticChannels::local(shared_core(n, 8, 2).unwrap(), s);
            let values: Vec<Vec<Sum>> = (0..4).map(|_| (0..n as u64).map(Sum).collect()).collect();
            black_box(
                run_repeated_aggregation(model, values, s, 10.0)
                    .unwrap()
                    .slots,
            )
        })
    });

    cr.bench_function("a2_fault_injection", |b| {
        use crn_core::cogcast::CogCast;
        b.iter(|| {
            let s = next();
            let n = 32;
            let model = StaticChannels::local(shared_core(n, 8, 2).unwrap(), s);
            let mut protos = vec![Flaky::new(
                CogCast::source(()),
                FaultSchedule::Random { p: 0.3 },
            )];
            protos.extend(
                (1..n).map(|_| Flaky::new(CogCast::node(), FaultSchedule::Random { p: 0.3 })),
            );
            let mut net = Network::with_medium(model, protos, s, OracleSingleHop::new()).unwrap();
            let outcome = net.run(BUDGET, |net| {
                net.protocols().iter().all(|f| f.inner().is_informed())
            });
            black_box(outcome.slots())
        })
    });

    cr.bench_function("a3_alpha_calibration", |b| {
        b.iter(|| {
            let s = next();
            black_box(cogcast_once(32, 8, 2, s))
        })
    });

    cr.bench_function("f13_trace_anatomy", |b| {
        use crn_core::cogcast::CogCast;
        use crn_sim::TraceLog;
        b.iter(|| {
            let s = next();
            let n = 64;
            let model = StaticChannels::local(shared_core(n, 8, 2).unwrap(), s);
            let mut protos = vec![CogCast::source(0u8)];
            protos.extend((1..n).map(|_| CogCast::node()));
            let mut net = Network::with_medium(model, protos, s, OracleSingleHop::new()).unwrap();
            let mut log = TraceLog::new();
            while !net.all_done() {
                log.record(net.step());
            }
            black_box(log.collision_rate())
        })
    });

    cr.bench_function("f15_multihop_flood", |b| {
        use crn_core::cogcast::run_broadcast_on;
        use crn_sim::{OracleMultihop, Topology};
        b.iter(|| {
            let s = next();
            let model = StaticChannels::local(shared_core(16, 4, 2).unwrap(), s);
            let medium = OracleMultihop::new(Topology::grid(4, 4));
            black_box(run_broadcast_on(model, s, BUDGET, medium).unwrap().0.slots)
        })
    });

    cr.bench_function("f14_physical_stack", |b| {
        use crn_core::cogcast::run_broadcast_on;
        use crn_sim::PhysicalDecay;
        b.iter(|| {
            let s = next();
            let model = StaticChannels::local(shared_core(16, 6, 2).unwrap(), s);
            black_box(
                run_broadcast_on(model, s, BUDGET, PhysicalDecay::new())
                    .unwrap()
                    .0
                    .slots,
            )
        })
    });
}

fn bench_figures(cr: &mut Criterion) {
    let mut seed = 1000u64;
    let mut next = || {
        seed += 1;
        seed
    };

    cr.bench_function("f1_cogcast_vs_n", |b| {
        b.iter(|| black_box(cogcast_once(256, 16, 4, next())))
    });
    cr.bench_function("f2_cogcast_vs_c", |b| {
        b.iter(|| black_box(cogcast_once(64, 32, 2, next())))
    });
    cr.bench_function("f3_cogcast_vs_k", |b| {
        b.iter(|| black_box(cogcast_once(64, 32, 8, next())))
    });
    cr.bench_function("f4_epidemic_curve", |b| {
        b.iter(|| {
            let s = next();
            let model = StaticChannels::local(shared_core(128, 16, 4).unwrap(), s);
            black_box(
                run_broadcast(model, s, BUDGET)
                    .unwrap()
                    .informed_per_slot
                    .len(),
            )
        })
    });
    cr.bench_function("f5_cogcomp_phases", |b| {
        b.iter(|| black_box(cogcomp_once(64, 8, 2, next())))
    });
    cr.bench_function("f6_aggregation_crossover", |b| {
        b.iter(|| black_box(cogcomp_once(32, 8, 2, next())))
    });
    cr.bench_function("f7_overlap_patterns", |b| {
        b.iter(|| {
            let s = next();
            let mut rng = StdRng::seed_from_u64(s);
            let a = OverlapPattern::Clustered
                .generate(64, 12, 3, &mut rng)
                .unwrap();
            let model = StaticChannels::local(a, s);
            black_box(run_broadcast(model, s, BUDGET).unwrap().slots)
        })
    });
    cr.bench_function("f8_dynamic_channels", |b| {
        b.iter(|| {
            let s = next();
            let model = DynamicSharedCore::new(32, 8, 2, 60, 1.0, s).unwrap();
            black_box(run_broadcast(model, s, BUDGET).unwrap().slots)
        })
    });
    cr.bench_function("f9_jamming", |b| {
        b.iter(|| {
            let s = next();
            black_box(
                run_jammed_broadcast(16, 12, 3, JammerStrategy::Random, s, 60.0)
                    .unwrap()
                    .slots,
            )
        })
    });
    cr.bench_function("f10_backoff", |b| {
        b.iter(|| {
            let mut rng = crn_sim::SimRng::seed_from_u64(next());
            black_box(resolve_contention(
                64,
                256,
                recommended_rounds(256),
                &mut rng,
            ))
        })
    });
    cr.bench_function("f11_game_survival", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(next());
            let mut game = HittingGame::complete(30, &mut rng);
            let mut player = FreshPlayer::new(30);
            black_box(play(&mut game, &mut player, 10_000, &mut rng))
        })
    });
    cr.bench_function("f12_aggregation_floor", |b| {
        b.iter(|| {
            let s = next();
            let model = StaticChannels::local(full_overlap(64, 2).unwrap(), s);
            let values: Vec<Sum> = (0..64).map(Sum).collect();
            black_box(run_aggregation(model, values, s, 10.0).unwrap().slots)
        })
    });
}

criterion_group! {
    name = tables;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_tables
}
criterion_group! {
    name = figures;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_figures
}
criterion_group! {
    name = ablations;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_ablations
}
criterion_main!(tables, figures, ablations);
