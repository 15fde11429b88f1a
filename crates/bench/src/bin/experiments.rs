//! Regenerates the paper-claim tables and figures.
//!
//! Usage:
//!
//! ```text
//! experiments all [--quick] [--out results.md]
//! experiments t1 f4 f10 [--quick]
//! experiments --list
//! ```

use crn_bench::args::Args;
use crn_bench::{run_experiment, Effort, EXPERIMENT_IDS};
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args = match Args::parse(
        std::env::args().skip(1),
        &["--quick", "--list", "--help", "-h"],
        &["--out", "--csv", "--time-json", "--threads"],
    ) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\nsee `experiments --help` for usage");
            return ExitCode::FAILURE;
        }
    };
    if args.has("--help") || args.has("-h") || args == Args::default() {
        print_help();
        return ExitCode::SUCCESS;
    }
    if args.has("--list") {
        for id in EXPERIMENT_IDS {
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }
    let effort = if args.has("--quick") {
        Effort::Quick
    } else {
        Effort::Full
    };
    let out_path = args.value("--out");
    let csv_dir = args.value("--csv");
    let time_json = args.value("--time-json");
    // Size the worker pool before any experiment touches it; a bad
    // --threads or CRN_THREADS is a startup error, never a silent
    // fall-back to the default width.
    if let Err(e) = crn_sim::pool::init_from_flag(args.value("--threads")) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    if let Some(dir) = csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let mut ids: Vec<String> = args.positional().iter().map(|a| a.to_lowercase()).collect();
    if ids.iter().any(|a| a == "all") {
        ids = EXPERIMENT_IDS.iter().map(|s| s.to_string()).collect();
    }
    if ids.is_empty() {
        eprintln!("no experiments selected; try `experiments all --quick`");
        return ExitCode::FAILURE;
    }
    if let Some(id) = ids.iter().find(|id| !EXPERIMENT_IDS.contains(&id.as_str())) {
        eprintln!("unknown experiment id: {id} (see --list)");
        return ExitCode::FAILURE;
    }
    let mut out_file = match out_path {
        Some(path) => match std::fs::File::create(path) {
            Ok(f) => Some(f),
            Err(e) => {
                eprintln!("cannot create {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let suite_start = Instant::now();
    let mut timings: Vec<(String, f64)> = Vec::new();
    for id in &ids {
        let start = std::time::Instant::now();
        let artifact = run_experiment(id, effort).expect("ids were checked above");
        timings.push((id.clone(), start.elapsed().as_secs_f64() * 1000.0));
        let footer = format!(
            "[{} completed in {:.1}s at {:?} effort]\n",
            id,
            start.elapsed().as_secs_f64(),
            effort
        );
        println!("{artifact}");
        println!("{footer}");
        if let Some(f) = out_file.as_mut() {
            if let Err(e) = writeln!(f, "{artifact}\n{footer}") {
                eprintln!("write failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        if let Some(dir) = csv_dir {
            let path = format!("{dir}/{id}.csv");
            if let Err(e) = std::fs::write(&path, artifact.to_csv()) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let suite_wall = suite_start.elapsed().as_secs_f64();
    if let Some(path) = out_path {
        eprintln!("results written to {path}");
    }
    if let Some(path) = time_json {
        if let Err(e) = std::fs::write(path, time_report(effort, &timings, suite_wall)) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("timings written to {path}");
    }
    ExitCode::SUCCESS
}

/// Renders the `BENCH_experiments.json` payload: the suite's total
/// and per-experiment wall-clock timings, with the host's core count
/// and the git revision they were taken at.
fn time_report(effort: Effort, timings: &[(String, f64)], total_s: f64) -> String {
    let rows: Vec<String> = timings
        .iter()
        .map(|(id, ms)| format!("    {{\"id\": \"{id}\", \"ms\": {ms:.0}}}"))
        .collect();
    let host_cores = crn_sim::pool::default_workers();
    let revision = crn_bench::revision();
    format!(
        "{{\n  \"bench\": \"experiments_end_to_end\",\n  \"command\": \"experiments all --quick --time-json BENCH_experiments.json\",\n  \"host_cores\": {host_cores},\n  \"revision\": \"{revision}\",\n  \"effort\": \"{effort:?}\",\n  \"scheduler\": \"work-stealing (atomic seed counter, seed-keyed slots)\",\n  \"rng\": \"SimRng (xoshiro256++)\",\n  \"total_s\": {total_s:.3},\n  \"per_experiment\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    )
}

fn print_help() {
    println!("experiments — regenerate the PODC'15 reproduction tables and figures");
    println!();
    println!("USAGE: experiments <id>... | all [FLAGS]");
    println!();
    println!("ids: {}", EXPERIMENT_IDS.join(" "));
    println!();
    println!("  --quick      reduced trial counts and sweep sizes");
    println!("  --list       print the experiment ids");
    println!("  --out FILE   also write the rendered output to FILE");
    println!("  --csv DIR    also write each artifact as DIR/<id>.csv");
    println!(
        "  --time-json FILE  write per-experiment wall-clock timings (BENCH_experiments.json)"
    );
    println!(
        "  --threads N  width of the trial pool (overrides CRN_THREADS; default: available cores)"
    );
}
