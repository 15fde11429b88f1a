//! Micro-benchmarks of the engine and protocol kernels (engine
//! throughput, per-slot protocol cost), recorded to
//! `BENCH_engine.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Instant;

use crn_bench::effort::par_trials;
use crn_core::aggregate::Sum;
use crn_core::bounds;
use crn_core::cogcast::CogCast;
use crn_core::cogcomp::{CogComp, CogCompConfig};
use crn_rendezvous::JumpStay;
use crn_sim::assignment::{random_with_core, shared_core};
use crn_sim::channel_model::StaticChannels;
use crn_sim::rng::derive_rng;
use crn_sim::{
    Action, ChannelModel, Event, LocalChannel, Network, NodeCtx, OracleSingleHop, PhysicalDecay,
    Protocol, SimRng,
};

/// The (n, c) grid `BENCH_engine.json` covers.
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

/// The network sizes of the `kernels` floor series.
const FLOOR_N: [usize; 3] = [2, 48, 1024];

/// The network sizes of the `kernels` COGCOMP rows.
const COGCOMP_N: [usize; 2] = [48, 1024];

/// A floor protocol of the `kernels` series: its `decide` is all it
/// does, so a slot costs only the engine and the medium.
#[derive(Debug, Clone, Copy)]
struct Floor(fn(&NodeCtx<'_>, &mut SimRng) -> Action<u8>);

impl Protocol<u8> for Floor {
    fn decide(&mut self, ctx: &NodeCtx<'_>, rng: &mut SimRng) -> Action<u8> {
        (self.0)(ctx, rng)
    }

    fn observe(&mut self, _ctx: &NodeCtx<'_>, _event: Event<u8>) {}
}

/// Always asleep; always listening on local channel 0; and a fair coin
/// between broadcasting and listening, on a uniformly random local
/// channel.
const FLOORS: [(&str, Floor); 3] = [
    ("asleep", Floor(|_, _| Action::Sleep)),
    ("listen-0", Floor(|_, _| Action::Listen(LocalChannel(0)))),
    (
        "random",
        Floor(|ctx, rng| {
            let ch = LocalChannel(rng.gen_range(0..ctx.c as u32));
            if rng.gen_bool(0.5) {
                Action::Broadcast(ch, 0)
            } else {
                Action::Listen(ch)
            }
        }),
    ),
];

/// T6's deterministic-rendezvous shape: a jump-stay pair on
/// `random_with_core(2, 12, 1, 240)` with permuted global labels, the
/// hardest `k` of T6's sweep. The pair keeps hopping after it meets, so
/// every slot is the same 2-node slot.
fn jump_stay_net() -> Network<u8, JumpStay, StaticChannels> {
    let mut rng = derive_rng(1, 0x76B);
    let assignment = random_with_core(2, 12, 1, 240, &mut rng)
        .unwrap()
        .permute_globals(&mut rng);
    let model = StaticChannels::global(assignment);
    let total = model.total_channels();
    let protos = vec![JumpStay::beaconer(total, 0), JumpStay::listener(total, 1)];
    Network::with_medium(model, protos, 1, OracleSingleHop::new()).unwrap()
}

/// Repetitions behind every `kernels` row; a row reports their median
/// and their min–max.
const REPS: usize = 5;

/// Thread CPU time each repetition runs for at least. The schedstat
/// counter advances in scheduler ticks (4 ms on a 250 Hz kernel), so a
/// quarter second keeps its rounding under 2%.
const MIN_REP_CPU_NS: u64 = 250_000_000;

/// CPU time this thread has run, in ns: the first field of
/// `/proc/thread-self/schedstat` (Linux). Unlike wall-clock time it
/// does not count the time other processes hold the core.
fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|stat| stat.split_whitespace().next()?.parse().ok())
        .expect("the kernels floors read /proc/thread-self/schedstat (Linux only)")
}

/// A `kernels` row's cost: thread-CPU ns per slot over [`REPS`]
/// repetitions.
#[derive(Debug, Clone, Copy)]
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

impl Spread {
    fn of(mut samples: Vec<f64>) -> Spread {
        samples.sort_by(f64::total_cmp);
        Spread {
            median: samples[samples.len() / 2],
            min: samples[0],
            max: samples[samples.len() - 1],
        }
    }
}

/// Thread-CPU ns per `step_unrecorded()` slot, the way the protocol
/// runners step, after a warm-up past the scratch-buffer fill. Each
/// repetition steps for at least [`MIN_REP_CPU_NS`], reading the clock
/// (a file read) only every `2^16 / n` slots, so the reads stay a small
/// share of the time.
fn unrecorded_ns_per_slot<P: Protocol<u8>, CM: ChannelModel>(
    net: &mut Network<u8, P, CM>,
    n: usize,
) -> Spread {
    let chunk = ((1 << 16) / n).max(1);
    for _ in 0..chunk.max(2000) {
        net.step_unrecorded();
    }
    let samples = (0..REPS)
        .map(|_| {
            let (t0, mut slots) = (thread_cpu_ns(), 0);
            let mut elapsed = 0;
            while elapsed < MIN_REP_CPU_NS {
                for _ in 0..chunk {
                    net.step_unrecorded();
                }
                slots += chunk;
                elapsed = thread_cpu_ns() - t0;
            }
            elapsed as f64 / slots as f64
        })
        .collect();
    Spread::of(samples)
}

/// COGCOMP `Sum` on `shared_core(n, 8, 2)` with local labels and the
/// default phase-one constant, as `run_aggregation` builds it: the
/// overall thread-CPU ns per slot, and the same per COGCOMP phase
/// (one to four). Each repetition runs whole executions (network
/// construction untimed) until every phase has stepped for at least
/// [`MIN_REP_CPU_NS`]: a phase of one execution can be shorter than a
/// scheduler tick.
fn cogcomp_ns_per_slot(n: usize) -> (Spread, [Spread; 4]) {
    let cfg = CogCompConfig::new(n, 8, 2, bounds::DEFAULT_ALPHA);
    let phase_ends = [
        cfg.phase2_start(),
        cfg.phase3_start(),
        cfg.phase4_start(),
        u64::MAX,
    ];
    let (mut overall, mut phases) = (Vec::new(), vec![Vec::new(); 4]);
    let mut seed = 0;
    for _ in 0..REPS {
        let (mut ns, mut slots) = ([0u64; 4], [0u64; 4]);
        while ns.iter().any(|&phase_ns| phase_ns < MIN_REP_CPU_NS) {
            seed += 1;
            let model = StaticChannels::local(shared_core(n, 8, 2).unwrap(), seed);
            let mut protos = vec![CogComp::source(cfg, Sum(0))];
            protos.extend((1..n).map(|i| CogComp::node(cfg, Sum(i as u64))));
            let mut net =
                Network::with_medium(model, protos, seed, OracleSingleHop::new()).unwrap();
            let budget = cfg.recommended_budget();
            for (phase, &end) in phase_ends.iter().enumerate() {
                let (t0, s0) = (thread_cpu_ns(), net.slot());
                while net.slot() < end.min(budget) && !net.all_done() {
                    net.step_unrecorded();
                }
                ns[phase] += thread_cpu_ns() - t0;
                slots[phase] += net.slot() - s0;
            }
            let expected = Sum((0..n as u64).sum());
            assert_eq!(net.protocols()[0].result(), Some(&expected), "seed {seed}");
        }
        let per_slot = |ns: u64, slots: u64| ns as f64 / slots as f64;
        overall.push(per_slot(ns.iter().sum(), slots.iter().sum()));
        for (phase, samples) in phases.iter_mut().enumerate() {
            samples.push(per_slot(ns[phase], slots[phase]));
        }
    }
    let phases: Vec<Spread> = phases.into_iter().map(Spread::of).collect();
    (Spread::of(overall), phases.try_into().expect("four phases"))
}

/// The engine's floor cost: `(shape, n, ns/slot)` for the T6 jump-stay
/// pair and for each of [`FLOORS`] on `shared_core(n, 8, 2)` with local
/// labels at every [`FLOOR_N`].
fn measure_floors() -> Vec<(&'static str, usize, Spread)> {
    let jump_stay = unrecorded_ns_per_slot(&mut jump_stay_net(), 2);
    let mut rows = vec![("jump-stay", 2, jump_stay)];
    for (name, floor) in FLOORS {
        for n in FLOOR_N {
            let model = StaticChannels::local(shared_core(n, 8, 2).unwrap(), 1);
            let mut net =
                Network::with_medium(model, vec![floor; n], 1, OracleSingleHop::new()).unwrap();
            rows.push((name, n, unrecorded_ns_per_slot(&mut net, n)));
        }
    }
    rows
}

/// A COGCAST broadcast network on `shared_core(n, c, 2)` with local
/// labels — the workload every engine throughput number in this repo
/// is quoted against.
fn engine_net(n: usize, c: usize, seed: u64) -> Network<u8, CogCast<u8>, StaticChannels> {
    let model = StaticChannels::local(shared_core(n, c, 2).unwrap(), seed);
    let mut protos = vec![CogCast::source(0u8)];
    protos.extend((1..n).map(|_| CogCast::node()));
    Network::with_medium(model, protos, seed, OracleSingleHop::new()).unwrap()
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

/// Engine slot throughput: measures the [`ENGINE_GRID`] sweep (oracle
/// and physical media) and the large oracle points with plain
/// wall-clock timing, the `kernels` floors and COGCOMP rows in thread
/// CPU time, and records them to `BENCH_engine.json` at
/// the repository root — the tracked baseline EXPERIMENTS.md and the
/// README's Performance section reference. Also measures aggregate
/// throughput with independent trial networks spread across cores via
/// [`par_trials`], which is how the experiment harness actually
/// consumes the engine.
fn write_engine_baseline(_: &mut Criterion) {
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

    let spread_fields = |n: usize, ns: Spread| {
        let per_node = ns.median / n as f64;
        format!(
            "\"n\": {n}, \"ns_per_slot\": {:.1}, \"ns_per_slot_min\": {:.1}, \"ns_per_slot_max\": {:.1}, \"ns_per_node_slot\": {per_node:.1}",
            ns.median, ns.min, ns.max
        )
    };
    let mut floor_rows: Vec<String> = measure_floors()
        .into_iter()
        .map(|(shape, n, ns)| format!("    {{\"shape\": \"{shape}\", {}}}", spread_fields(n, ns)))
        .collect();
    for n in COGCOMP_N {
        let (ns, phases) = cogcomp_ns_per_slot(n);
        let phases = phases.map(|p| format!("{:.1}", p.median)).join(", ");
        floor_rows.push(format!(
            "    {{\"shape\": \"cogcomp-sum\", {}, \"phase_ns_per_slot\": [{phases}]}}",
            spread_fields(n, ns)
        ));
    }

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

    let min_rep_s = MIN_REP_CPU_NS as f64 / 1e9;
    let alpha = bounds::DEFAULT_ALPHA;
    let host_cores = crn_sim::pool::default_workers();
    let revision = crn_bench::revision();
    let json = format!(
        "{{\n  \"bench\": \"slot_engine\",\n  \"workload\": \"COGCAST broadcast, shared_core(n, c, 2), local labels\",\n  \"engine\": \"scratch-buffered, allocation-free steady state, record-free one-pass single-hop resolution (lone participants final in the first pass, only shared channels walked again; lone draws skipped, only contended channels sorted), every trial stepped on one thread\",\n  \"grid_note\": \"ns_per_slot steps with step() (channel records built); record_free_ns_per_slot with step_unrecorded(), as the protocol runners step\",\n  \"host_cores\": {host_cores},\n  \"revision\": \"{revision}\",\n  \"grid\": [\n{}\n  ],\n  \"physical_slot\": [\n{}\n  ],\n  \"kernels_note\": \"step_unrecorded() on one thread, thread CPU time from /proc/thread-self/schedstat: median of {REPS} repetitions of at least {min_rep_s} s each (for cogcomp-sum, each phase), with their min and max. Engine floors: T6's 2-node jump-stay pair, and asleep / listen-on-channel-0 / random broadcast-or-listen nodes on shared_core(n, 8, 2). cogcomp-sum: whole COGCOMP Sum executions on shared_core(n, 8, 2), local labels, alpha = {alpha}; phase_ns_per_slot is the median per phase, one to four\",\n  \"kernels\": [\n{}\n  ],\n  \"par_trials\": {{\"trials\": {trials}, \"slots_per_trial\": {per_trial_slots}, \"aggregate_slots_per_sec\": {aggregate:.0}}}\n}}\n",
        rows.join(",\n"),
        physical_rows.join(",\n"),
        floor_rows.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    std::fs::write(path, json).expect("write BENCH_engine.json");
    println!("wrote {path}");
}

criterion_group!(kernels, write_engine_baseline);
criterion_main!(kernels);
