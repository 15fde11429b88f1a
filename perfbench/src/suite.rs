//! The `suite` workload: every registered experiment at full effort,
//! checked against the recorded tables.

use crn_bench::{run_experiment, Effort, EXPERIMENT_IDS};
use std::time::Instant;

/// Where the recorded full-effort tables live, relative to the
/// repository root.
pub const RECORDED: &str = "results/experiments-full.md";

fn is_footer(line: &str) -> bool {
    line.starts_with('[') && line.contains(" completed in ") && line.ends_with(" effort]")
}

/// `text` without the `[<id> completed in …]` lines, whose timings
/// differ from run to run.
pub fn strip_footers(text: &str) -> String {
    text.lines()
        .filter(|l| !is_footer(l))
        .flat_map(|l| [l, "\n"])
        .collect()
}

/// One suite pass, returning the rendered output laid out as
/// `experiments all --out` writes it. `after_each` receives each
/// experiment's registry index and wall time in ns, as it finishes.
///
/// # Errors
///
/// Names an id the registry does not know.
pub fn run_pass(mut after_each: impl FnMut(usize, u64)) -> Result<String, String> {
    let mut out = String::new();
    for (i, id) in EXPERIMENT_IDS.iter().enumerate() {
        let t = Instant::now();
        let artifact =
            run_experiment(id, Effort::Full).ok_or_else(|| format!("unknown experiment {id}"))?;
        after_each(i, u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
        out.push_str(&format!(
            "{artifact}\n[{id} completed in 0.0s at Full effort]\n\n"
        ));
    }
    Ok(out)
}
