//! Micro-benchmarks of the protocol kernels (engine throughput,
//! per-slot protocol cost) — the ablation companion to the
//! per-experiment benches.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

use crn_bench::effort::par_trials;
use crn_core::cogcast::CogCast;
use crn_sim::assignment::shared_core;
use crn_sim::channel_model::StaticChannels;
use crn_sim::pool::WorkerPool;
use crn_sim::{Network, ParConfig, PhysicalDecay};
use std::sync::Arc;

/// The (n, c) grid the slot-engine sweep and the JSON baseline cover.
const ENGINE_GRID: [(usize, usize); 7] = [
    (16, 4),
    (16, 8),
    (64, 4),
    (64, 8),
    (256, 8),
    (1024, 8),
    (1024, 16),
];

/// Larger oracle-only points for the JSON baseline, where the
/// channel space `C = 2 + 6n` dwarfs the network and resolve dominates
/// a step (the n the journal follow-up studies).
const LARGE_N: [usize; 2] = [4096, 16384];

/// A COGCAST broadcast network on `shared_core(n, c, 2)` with local
/// labels — the workload every engine throughput number in this repo
/// is quoted against.
fn engine_net(n: usize, c: usize, seed: u64) -> Network<u8, CogCast<u8>, StaticChannels> {
    let model = StaticChannels::local(shared_core(n, c, 2).unwrap(), seed);
    let mut protos = vec![CogCast::source(0u8)];
    protos.extend((1..n).map(|_| CogCast::node()));
    Network::new(model, protos, seed).unwrap()
}

/// The same COGCAST workload over the decay-backoff physical medium:
/// every abstract slot expands into per-round transmit coin flips, so
/// this is the substrate's hot path rather than the oracle's.
fn physical_net(
    n: usize,
    c: usize,
    seed: u64,
) -> Network<u8, CogCast<u8>, StaticChannels, PhysicalDecay> {
    let model = StaticChannels::local(shared_core(n, c, 2).unwrap(), seed);
    let mut protos = vec![CogCast::source(0u8)];
    protos.extend((1..n).map(|_| CogCast::node()));
    Network::with_medium(model, protos, seed, PhysicalDecay::new()).unwrap()
}

/// Engine slot throughput: how fast one simulated slot executes as the
/// network grows (all nodes active, COGCAST workload), swept over
/// (n, c).
fn bench_engine_slots(cr: &mut Criterion) {
    let mut g = cr.benchmark_group("slot_engine");
    for &(n, c) in &ENGINE_GRID {
        g.bench_with_input(
            BenchmarkId::new(format!("n{n}"), c),
            &(n, c),
            |b, &(n, c)| {
                let mut net = engine_net(n, c, 1);
                b.iter(|| {
                    net.step();
                    black_box(net.slot())
                });
            },
        );
    }
    g.finish();
    let mut g = cr.benchmark_group("physical_slot");
    for &(n, c) in &ENGINE_GRID {
        g.bench_with_input(
            BenchmarkId::new(format!("n{n}"), c),
            &(n, c),
            |b, &(n, c)| {
                let mut net = physical_net(n, c, 1);
                b.iter(|| {
                    net.step();
                    black_box(net.slot())
                });
            },
        );
    }
    g.finish();
    write_engine_baseline();
}

/// Wall-clock `(slots/sec, ns/slot)` for one grid point in steady
/// state (warmed up past the scratch-buffer fill), for `step()` —
/// channel records built — and for `step_unrecorded()`, as the protocol
/// runners step. Best of three timed blocks each, the two paths
/// interleaved so host noise hits both alike.
fn measure_slots_per_sec(n: usize, c: usize) -> [(f64, f64); 2] {
    let mut nets = [engine_net(n, c, 1), engine_net(n, c, 1)];
    let step = |net: &mut Network<u8, CogCast<u8>, StaticChannels>, records: bool| {
        if records {
            net.step();
        } else {
            net.step_unrecorded();
        }
    };
    for (net, records) in nets.iter_mut().zip([true, false]) {
        for _ in 0..3000 {
            step(net, records);
        }
    }
    let slots = (2_000_000 / n).max(2000) as u64;
    let mut best = [f64::INFINITY; 2];
    for _ in 0..3 {
        for ((net, records), best) in nets.iter_mut().zip([true, false]).zip(&mut best) {
            let t0 = Instant::now();
            for _ in 0..slots {
                step(net, records);
            }
            *best = best.min(t0.elapsed().as_nanos() as f64 / slots as f64);
        }
    }
    best.map(|ns_per_slot| (1e9 / ns_per_slot, ns_per_slot))
}

/// Wall-clock ns per *abstract* slot on the decay-backoff physical
/// medium — each slot is one fixed-length episode per active channel,
/// so this runs far fewer slots than the oracle measurement.
fn measure_physical_ns_per_slot(n: usize, c: usize) -> (f64, f64) {
    let mut net = physical_net(n, c, 1);
    for _ in 0..100 {
        net.step();
    }
    let slots = (100_000 / n).max(200) as u64;
    let t0 = Instant::now();
    for _ in 0..slots {
        net.step();
    }
    let dt = t0.elapsed();
    (
        slots as f64 / dt.as_secs_f64(),
        dt.as_nanos() as f64 / slots as f64,
    )
}

/// [`measure_slots_per_sec`] with a dedicated `workers`-wide pool
/// installed at threshold 1, so the decide/observe fan-out engages on
/// every slot. `workers == 0` installs nothing — the true sequential
/// baseline for the A/B overhead check (`workers == 1` has the config
/// installed but disengaged, which must cost the same).
fn measure_parallel_slots_per_sec(n: usize, c: usize, workers: usize) -> (f64, f64) {
    let mut net = engine_net(n, c, 1);
    if workers > 0 {
        let pool = Arc::new(WorkerPool::new(workers));
        net.set_parallelism(Some(ParConfig::new(pool).with_threshold(1)));
    }
    for _ in 0..3000 {
        net.step();
    }
    let slots = (2_000_000 / n).max(2000) as u64;
    let t0 = Instant::now();
    for _ in 0..slots {
        net.step();
    }
    let dt = t0.elapsed();
    (
        slots as f64 / dt.as_secs_f64(),
        dt.as_nanos() as f64 / slots as f64,
    )
}

/// Re-measures the sweep with plain wall-clock timing and records it to
/// `BENCH_engine.json` at the repository root — the tracked baseline
/// EXPERIMENTS.md and the README's Performance section reference. Also
/// measures aggregate throughput with independent trial networks spread
/// across cores via [`par_trials`], which is how the experiment harness
/// actually consumes the engine.
fn write_engine_baseline() {
    let mut rows = Vec::new();
    let large = LARGE_N.iter().map(|&n| (n, 8));
    for (n, c) in ENGINE_GRID.into_iter().chain(large) {
        let [(slots_per_sec, ns_per_slot), (_, record_free_ns)] = measure_slots_per_sec(n, c);
        rows.push(format!(
            "    {{\"n\": {n}, \"c\": {c}, \"slots_per_sec\": {slots_per_sec:.0}, \"ns_per_slot\": {ns_per_slot:.1}, \"record_free_ns_per_slot\": {record_free_ns:.1}}}"
        ));
    }
    let mut physical_rows = Vec::new();
    for &(n, c) in &ENGINE_GRID {
        let (slots_per_sec, ns_per_slot) = measure_physical_ns_per_slot(n, c);
        physical_rows.push(format!(
            "    {{\"n\": {n}, \"c\": {c}, \"slots_per_sec\": {slots_per_sec:.0}, \"ns_per_slot\": {ns_per_slot:.1}}}"
        ));
    }

    // Worker-scaling curve for the intra-slot fan-out at the two
    // largest oracle sizes, plus the A/B overhead check: a network with
    // a 1-worker config installed must run at the plain sequential
    // rate, because `workers == 1` takes the sequential special case.
    let mut parallel_rows = Vec::new();
    for &n in &[256usize, 1024] {
        for workers in [1usize, 2, 4, 8] {
            let (slots_per_sec, ns_per_slot) = measure_parallel_slots_per_sec(n, 8, workers);
            parallel_rows.push(format!(
                "    {{\"n\": {n}, \"c\": 8, \"workers\": {workers}, \"slots_per_sec\": {slots_per_sec:.0}, \"ns_per_slot\": {ns_per_slot:.1}}}"
            ));
        }
    }
    let (seq_sps, _) = measure_parallel_slots_per_sec(1024, 8, 0);
    let (w1_sps, _) = measure_parallel_slots_per_sec(1024, 8, 1);

    // Aggregate: 32 independent n=256 trial networks across all cores,
    // the shape of a `par_trials` experiment sweep.
    let (trials, per_trial_slots) = (32usize, 4000u64);
    let t0 = Instant::now();
    par_trials(trials, |seed| {
        let mut net = engine_net(256, 8, seed + 1);
        for _ in 0..per_trial_slots {
            net.step();
        }
        net.slot()
    });
    let aggregate = (trials as u64 * per_trial_slots) as f64 / t0.elapsed().as_secs_f64();

    let host_cores = crn_sim::pool::default_workers();
    let revision = revision();
    let json = format!(
        "{{\n  \"bench\": \"slot_engine\",\n  \"workload\": \"COGCAST broadcast, shared_core(n, c, 2), local labels\",\n  \"engine\": \"scratch-buffered, allocation-free steady state, record-free oracle resolution (radix-grouped active channels), pool-parallel decide/observe phases\",\n  \"grid_note\": \"ns_per_slot steps with step() (channel records built); record_free_ns_per_slot with step_unrecorded(), as the protocol runners step\",\n  \"host_cores\": {host_cores},\n  \"revision\": \"{revision}\",\n  \"grid\": [\n{}\n  ],\n  \"physical_slot\": [\n{}\n  ],\n  \"parallel_slot\": [\n{}\n  ],\n  \"sequential_vs_workers1\": {{\"n\": 1024, \"c\": 8, \"no_config_slots_per_sec\": {seq_sps:.0}, \"workers1_slots_per_sec\": {w1_sps:.0}, \"ratio\": {:.3}}},\n  \"parallel_note\": \"worker widths beyond host_cores oversubscribe the host; digest-identity at every width is enforced by crates/bench/tests/parallel_differential.rs, real scaling needs a multi-core host\",\n  \"par_trials\": {{\"trials\": {trials}, \"slots_per_trial\": {per_trial_slots}, \"aggregate_slots_per_sec\": {aggregate:.0}}}\n}}\n",
        rows.join(",\n"),
        physical_rows.join(",\n"),
        parallel_rows.join(",\n"),
        w1_sps / seq_sps
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    std::fs::write(path, json).expect("write BENCH_engine.json");
    println!("wrote {path}");
}

/// The git revision the numbers were taken at, `-dirty` when tracked
/// files differ from it; `unknown` outside a git checkout.
fn revision() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    match git(&["rev-parse", "--short=12", "HEAD"]) {
        Some(rev) => match git(&["status", "--porcelain", "--untracked-files=no"]) {
            Some(changes) if changes.is_empty() => rev,
            _ => format!("{rev}-dirty"),
        },
        None => "unknown".into(),
    }
}

/// Channel-assignment generation cost across patterns.
fn bench_assignment(cr: &mut Criterion) {
    use crn_sim::assignment::OverlapPattern;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut g = cr.benchmark_group("assignment");
    for pattern in OverlapPattern::ALL {
        g.bench_function(pattern.name(), |b| {
            let mut rng = StdRng::seed_from_u64(3);
            b.iter(|| black_box(pattern.generate(128, 16, 4, &mut rng).unwrap().n()));
        });
    }
    g.finish();
}

/// Matching sampling and game rounds for the lower-bound machinery.
fn bench_games(cr: &mut Criterion) {
    use crn_lowerbounds::{Edge, HittingGame};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    cr.bench_function("game_setup_and_64_proposals", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut game = HittingGame::new(64, 8, &mut rng);
            for a in 0..8u32 {
                for bb in 0..8u32 {
                    black_box(game.propose(Edge::new(a, bb)));
                }
            }
            black_box(game.rounds())
        });
    });
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_engine_slots, bench_assignment, bench_games
}
criterion_main!(kernels);
