//! Runs one benchmark workload and prints its metrics as the last line
//! of standard output. Normally started through `perfbench/run.py`,
//! which builds this binary first; see `README.md` for the workloads
//! and metrics.
//!
//! ```text
//! crn-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               [--rev <revision>] [--rustc <version>] [--pins <file>]
//! crn-perfbench --workload <name> --seed <n> --pin <trials>
//! ```

use crn_perfbench::cpu::{cpu_since, process_cpu_ns};
use crn_perfbench::probe::validate_compiled_in;
use crn_perfbench::suite::{self, strip_footers};
use crn_perfbench::trace::{Span, Tracer};
use crn_perfbench::workloads::{run_plain, run_traced, trial_seed, Outcome, Times, Workload};
use crn_sim::{ParConfig, WorkerPool, DEFAULT_PAR_THRESHOLD};
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Dedicated pool starts timed for the suite's `setup_s`.
const POOL_STARTS: usize = 101;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    rev: String,
    rustc: String,
    pins: String,
    pin: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: HashMap<String, String> = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .filter(|k| {
                [
                    "workload", "seed", "seconds", "trace", "rev", "rustc", "pins", "pin",
                ]
                .contains(k)
            })
            .ok_or_else(|| format!("unknown argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if kv.insert(key.to_string(), value).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let num = |key: &str, default: Option<u64>| -> Result<u64, String> {
        match kv.get(key) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} needs a whole number, got {v}")),
            None => default.ok_or_else(|| format!("--{key} is required")),
        }
    };
    let name = kv.get("workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    let trace = match num("trace", Some(0))? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args {
        workload,
        seed: num("seed", None)?,
        seconds: num("seconds", Some(25))?,
        trace,
        rev: kv.get("rev").cloned().unwrap_or_else(|| "unknown".into()),
        rustc: kv.get("rustc").cloned().unwrap_or_else(|| "unknown".into()),
        pins: kv
            .get("pins")
            .cloned()
            .unwrap_or_else(|| "perfbench/pins.txt".into()),
        pin: kv.get("pin").map(|_| num("pin", None)).transpose()?,
    })
}

/// Values per line in the pins file.
const PINS_PER_LINE: usize = 20;

/// Pinned outcomes for `(workload, seed)`, keyed by trial index. Each
/// line reads `<workload> <seed> <slots|rounds> <first trial> <value>...`
/// with one value per trial from the first on; `#` starts a comment.
fn load_pins(path: &str, w: Workload, seed: u64) -> Result<HashMap<u64, Outcome>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut pins: HashMap<u64, Outcome> = HashMap::new();
    for (no, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let bad = || format!("{path}:{}: malformed pin line", no + 1);
        let f: Vec<&str> = line.split_whitespace().collect();
        let n = |s: &str| s.parse::<u64>().map_err(|_| bad());
        if f.len() < 5 || !matches!(f[2], "slots" | "rounds") {
            return Err(bad());
        }
        if f[0] != w.name() || n(f[1])? != seed {
            continue;
        }
        let first = n(f[3])?;
        for (i, v) in f[4..].iter().enumerate() {
            let pin = pins.entry(first + i as u64).or_insert(Outcome {
                slots: 0,
                rounds: 0,
            });
            if f[2] == "slots" {
                pin.slots = n(v)?;
            } else {
                pin.rounds = n(v)?;
            }
        }
    }
    Ok(pins)
}

fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    xs.sort_by(f64::total_cmp);
    let m = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[m]
    } else {
        (xs[m - 1] + xs[m]) / 2.0
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Failures and metrics of one run.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 10 {
            self.errors.push(what);
        }
    }

    /// Checks a trial against its pin, if it has one.
    fn check_pin(&mut self, pins: &HashMap<u64, Outcome>, trial: u64, got: Outcome) -> bool {
        match pins.get(&trial) {
            Some(&want) if want != got => {
                self.fail(format!("trial {trial}: got {got:?}, pinned {want:?}"));
                false
            }
            _ => true,
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One successful untraced trial.
struct Sample {
    times: Times,
    slots: u64,
}

/// Median over consecutive batches of `batch` trials of
/// `(ops per CPU second, ops per CPU second of work)`.
fn batch_rates(samples: &[Sample], batch: usize) -> (f64, f64) {
    let full = samples.len() / batch;
    let chunks: Vec<&[Sample]> = if full == 0 {
        vec![samples]
    } else {
        samples.chunks_exact(batch).collect()
    };
    let rate = |f: fn(&Times) -> u64| {
        median(
            chunks
                .iter()
                .map(|c| c.len() as f64 * 1e9 / c.iter().map(|s| f(&s.times)).sum::<u64>() as f64)
                .collect(),
        )
    };
    (rate(|t| t.setup_ns + t.work_ns), rate(|t| t.work_ns))
}

/// The per-layer metrics that only one kind of workload reaches are
/// reported as 0 on the others, so every traced run prints the same
/// set of names.
fn zero_layers(r: &mut Report, trial_layers: bool) {
    if trial_layers {
        for (name, unit) in TRIAL_LAYERS {
            r.metric(*name, 0.0, unit);
        }
    } else {
        for id in crn_bench::EXPERIMENT_IDS {
            r.metric(format!("suite.ms.{id}"), 0.0, "ms");
        }
    }
}

const TRIAL_LAYERS: &[(&str, &str)] = &[
    ("assignment.generate_ms", "ms"),
    ("channel_model.labels_ms", "ms"),
    ("assignment.pairs_checked", "count"),
    ("engine.step_ns", "ns"),
    ("engine.self_ns", "ns"),
    ("engine.slots", "count"),
    ("medium.resolve_ns", "ns"),
    ("medium.share", "ratio"),
    ("medium.tuned", "count"),
    ("medium.active_channels", "count"),
    ("medium.contended_channels", "count"),
    ("medium.transmissions", "count"),
    ("medium.deliveries", "count"),
    ("medium.win_ratio", "ratio"),
    ("medium.physical_rounds", "count"),
    ("medium.failed_episodes", "count"),
    ("protocol.decide_ns", "ns"),
    ("protocol.observe_ns", "ns"),
    ("protocol.calls", "count"),
    ("trace.slots_per_cpu_s", "1/s"),
    ("trace.untraced_slots_per_cpu_s", "1/s"),
];

fn run_trials(a: &Args, pool_workers: usize, r: &mut Report) -> Result<Option<Tracer>, String> {
    let w = a.workload;
    let pins = load_pins(&a.pins, w, a.seed)?;
    // Warm-up: page in the code and let the pool threads park once.
    r.attempted += 1;
    if let Err(e) = run_plain(w, trial_seed(a.seed, u64::MAX)) {
        r.fail(format!("warm-up trial: {e}"));
    }
    let budget = Duration::from_secs(a.seconds);
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut tracer = a.trace.then(Tracer::new);
    let (mut traced_ns, mut traced_slots) = (0u64, 0u64);
    let mut index = 0u64;
    while start.elapsed() < budget {
        let ts = trial_seed(a.seed, index);
        r.attempted += 1;
        match run_plain(w, ts) {
            Ok((o, times)) => {
                let mut ok = r.check_pin(&pins, index, o);
                if let Some(tr) = tracer.as_mut() {
                    let trial = u32::try_from(index).expect("fewer than 2^32 trials");
                    match run_traced(w, ts, ParConfig::auto(), tr, trial) {
                        Ok((t, t_times)) if t == o => {
                            traced_ns += t_times.work_ns;
                            traced_slots += t.slots;
                        }
                        Ok((t, _)) => {
                            r.fail(format!("trial {index}: traced {t:?} != untraced {o:?}"));
                            ok = false;
                        }
                        Err(e) => {
                            r.fail(format!("trial {index} (traced): {e}"));
                            ok = false;
                        }
                    }
                }
                if ok {
                    samples.push(Sample {
                        times,
                        slots: o.slots,
                    });
                }
            }
            Err(e) => r.fail(format!("trial {index}: {e}")),
        }
        index += 1;
    }
    if samples.is_empty() {
        return Err("no trial succeeded".into());
    }
    match tracer.as_ref() {
        None => {
            let (ops, work_ops) = batch_rates(&samples, w.batch());
            r.metric("ops_per_cpu_s", ops, "1/s");
            r.metric("work_ops_per_cpu_s", work_ops, "1/s");
            let setup: Vec<f64> = samples
                .iter()
                .map(|s| s.times.setup_ns as f64 / 1e9)
                .collect();
            r.metric("setup_s", median(setup), "s");
        }
        Some(tr) => {
            let untraced_slots: u64 = samples.iter().map(|s| s.slots).sum();
            let untraced_ns: u64 = samples.iter().map(|s| s.times.work_ns).sum();
            let untraced = untraced_slots as f64 * 1e9 / untraced_ns as f64;
            let traced = traced_slots as f64 * 1e9 / traced_ns as f64;
            layer_metrics(r, tr, w, pool_workers, samples.len());
            r.metric("trace.slots_per_cpu_s", traced, "1/s");
            r.metric("trace.untraced_slots_per_cpu_s", untraced, "1/s");
            r.metric("trace.overhead", untraced / traced, "ratio");
            zero_layers(r, false);
        }
    }
    Ok(tracer)
}

fn layer_metrics(r: &mut Report, tr: &Tracer, w: Workload, pool_workers: usize, trials: usize) {
    let c = tr.counts;
    let slots = c.slots.max(1) as f64;
    let sampled = c.sampled_slots.max(1) as f64;
    let ms = |name: &str| median(tr.durations(name).iter().map(|&d| d as f64 / 1e6).collect());
    let (n, _, _) = w.shape().expect("trial workload");
    let step_ns = tr.total_ns("engine.step") as f64 / slots;
    let resolve_ns = tr.total_ns("medium.resolve") as f64 / slots;
    let decide_ns = tr.total_ns("protocol.decide") as f64 / sampled;
    let observe_ns = tr.total_ns("protocol.observe") as f64 / sampled;
    // Protocol spans sum every node's call; with the pool fanned out
    // the calls overlap, so their wall share is the sum over the width.
    let fan_out = if pool_workers > 1 && n >= DEFAULT_PAR_THRESHOLD {
        pool_workers as f64
    } else {
        1.0
    };
    r.metric("assignment.generate_ms", ms("assignment.generate"), "ms");
    r.metric("channel_model.labels_ms", ms("channel_model.labels"), "ms");
    r.metric(
        "assignment.pairs_checked",
        (n * (n - 1) / 2) as f64,
        "count",
    );
    r.metric("engine.step_ns", step_ns, "ns");
    r.metric(
        "engine.self_ns",
        step_ns - resolve_ns - (decide_ns + observe_ns) / fan_out,
        "ns",
    );
    r.metric("engine.slots", c.slots as f64 / trials as f64, "count");
    r.metric("medium.resolve_ns", resolve_ns, "ns");
    r.metric("medium.share", resolve_ns / step_ns, "ratio");
    r.metric("medium.tuned", c.tuned as f64 / slots, "count");
    r.metric("medium.active_channels", c.active as f64 / slots, "count");
    r.metric(
        "medium.contended_channels",
        c.contended as f64 / slots,
        "count",
    );
    r.metric(
        "medium.transmissions",
        c.transmissions as f64 / slots,
        "count",
    );
    r.metric("medium.deliveries", c.deliveries as f64 / slots, "count");
    r.metric(
        "medium.win_ratio",
        c.winners as f64 / c.transmissions.max(1) as f64,
        "ratio",
    );
    r.metric("medium.physical_rounds", c.rounds as f64 / slots, "count");
    r.metric("medium.failed_episodes", c.failed as f64 / slots, "count");
    r.metric("protocol.decide_ns", decide_ns, "ns");
    r.metric("protocol.observe_ns", observe_ns, "ns");
    r.metric("protocol.calls", c.proto_calls as f64 / slots, "count");
    pool_metrics(r, tr, pool_workers);
}

fn pool_metrics(r: &mut Report, tr: &Tracer, pool_workers: usize) {
    let c = tr.counts;
    let imbalance = if c.imbalance_samples == 0 {
        1.0
    } else {
        c.imbalance_sum / c.imbalance_samples as f64
    };
    r.metric("pool.workers", pool_workers as f64, "count");
    r.metric("pool.load_imbalance", imbalance, "ratio");
}

fn run_suite(a: &Args, pool_workers: usize, r: &mut Report) -> Result<Option<Tracer>, String> {
    let recorded = std::fs::read_to_string(suite::RECORDED)
        .map_err(|e| format!("cannot read {}: {e}", suite::RECORDED))?;
    let expected = strip_footers(&recorded);
    let budget = Duration::from_secs(a.seconds);
    let mut tracer = a.trace.then(Tracer::new);
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut per_id: Vec<Vec<f64>> = vec![Vec::new(); crn_bench::EXPERIMENT_IDS.len()];
    let start = Instant::now();
    let mut pass = 0u32;
    // With tracing, passes alternate untraced and traced; at least one
    // of each runs.
    while start.elapsed() < budget || (a.trace && pass < 2) {
        let traced = a.trace && pass % 2 == 1;
        r.attempted += 1;
        let cpu = process_cpu_ns();
        let t = Instant::now();
        let mut spans = Vec::new();
        let text = suite::run_pass(|i, ns| {
            if let (true, Some(tr)) = (traced, tracer.as_mut()) {
                spans.push(Span {
                    parent: u32::MAX,
                    name: "suite.experiment",
                    trial: pass,
                    slot: i as u64,
                    start_ns: tr.now_ns() - ns,
                    dur_ns: ns,
                });
                tr.sample_pool();
            }
        })?;
        let wall = t.elapsed().as_secs_f64();
        let cpu_s = cpu_since(cpu) as f64 / 1e9;
        if strip_footers(&text) != expected {
            r.fail(format!(
                "pass {pass}: output differs from {}",
                suite::RECORDED
            ));
        } else if let (true, Some(tr)) = (traced, tracer.as_mut()) {
            let dur_ns = (wall * 1e9) as u64;
            let root = tr.push(Span {
                parent: u32::MAX,
                name: "suite.pass",
                trial: pass,
                slot: 0,
                start_ns: tr.now_ns() - dur_ns,
                dur_ns,
            });
            for span in spans {
                per_id[span.slot as usize].push(span.dur_ns as f64 / 1e6);
                tr.push(Span {
                    parent: root,
                    ..span
                });
            }
            traced_s.push(cpu_s);
        } else {
            plain_s.push(cpu_s);
        }
        pass += 1;
    }
    if plain_s.is_empty() {
        return Err("no suite pass succeeded".into());
    }
    match tracer.as_ref() {
        None => {
            let pass_s = median(plain_s);
            r.metric("ops_per_cpu_s", 1.0 / pass_s, "1/s");
            r.metric("work_ops_per_cpu_s", 1.0 / pass_s, "1/s");
            // The suite's only set-up is starting the worker pool.
            let starts: Vec<f64> = (0..POOL_STARTS)
                .map(|_| {
                    let cpu = process_cpu_ns();
                    let pool = WorkerPool::new(pool_workers);
                    let s = cpu_since(cpu) as f64 / 1e9;
                    drop(pool);
                    s
                })
                .collect();
            r.metric("setup_s", median(starts), "s");
        }
        Some(tr) => {
            if traced_s.is_empty() {
                return Err("no traced suite pass succeeded".into());
            }
            zero_layers(r, true);
            pool_metrics(r, tr, pool_workers);
            for (id, ms) in crn_bench::EXPERIMENT_IDS.iter().zip(per_id) {
                r.metric(format!("suite.ms.{id}"), median(ms), "ms");
            }
            r.metric(
                "trace.overhead",
                median(traced_s) / median(plain_s),
                "ratio",
            );
        }
    }
    Ok(tracer)
}

/// Prints pin lines for trials `0..trials` of the run's workload and
/// seed, in the format [`load_pins`] reads.
fn pin(a: &Args, trials: u64) -> ExitCode {
    let mut outcomes = Vec::new();
    for index in 0..trials {
        match run_plain(a.workload, trial_seed(a.seed, index)) {
            Ok((o, _)) => outcomes.push(o),
            Err(e) => {
                eprintln!("trial {index}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    for field in ["slots", "rounds"] {
        for (i, chunk) in outcomes.chunks(PINS_PER_LINE).enumerate() {
            let values: Vec<String> = chunk
                .iter()
                .map(|o| if field == "slots" { o.slots } else { o.rounds }.to_string())
                .collect();
            println!(
                "{} {} {field} {} {}",
                a.workload.name(),
                a.seed,
                i * PINS_PER_LINE,
                values.join(" ")
            );
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("crn-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if validate_compiled_in() {
        eprintln!(
            "crn-perfbench: crn-sim was built with the `validate` feature, whose per-slot \
             checks allocate and distort timings; rebuild without it"
        );
        return ExitCode::from(3);
    }
    // Fix the pool width before anything touches the pool, so a stray
    // CRN_THREADS cannot change what is measured.
    let pool_workers = crn_sim::pool::default_workers();
    if let Err(e) = crn_sim::pool::init_global(pool_workers) {
        eprintln!("crn-perfbench: {e}");
        return ExitCode::from(2);
    }
    if let Some(trials) = args.pin {
        return pin(&args, trials);
    }
    let provenance = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"pool_workers\": {pool_workers}, \"revision\": \"{}\", \"rustc\": \"{}\"}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        args.rev,
        args.rustc,
    );
    let mut report = Report::default();
    let ran = match args.workload {
        Workload::Suite => run_suite(&args, pool_workers, &mut report),
        _ => run_trials(&args, pool_workers, &mut report),
    };
    for e in &report.errors {
        eprintln!("FAILED: {e}");
    }
    let tracer = match ran {
        Ok(t) => t,
        Err(e) => {
            eprintln!("crn-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !args.trace {
        report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    }
    if let Some(tr) = tracer {
        let dir = Path::new(".bench_trace");
        let path = dir.join(format!("{}-seed{}.csv", args.workload.name(), args.seed));
        let header = [format!("provenance {provenance}"), report.json()];
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| tr.write_csv(&path, &header)) {
            eprintln!("crn-perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("spans written to {}", path.display());
    }
    eprintln!(
        "fail_ratio {} ({} of {} failed)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    println!("# provenance {provenance}");
    println!("{}", report.json());
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
