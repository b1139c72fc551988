//! `perfbench` — the popgame benchmark.
//!
//! ```text
//! perfbench --workload <reproduce-full|serve-miss|serve-hit> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Progress goes to stderr; the last stdout line is one JSON object with
//! `correct`, `attempted`, `failed`, and `metrics` (the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`).

use perfbench::measure::Outcome;
use perfbench::serve::Kind;
use perfbench::{reproduce, serve, END_TO_END, PER_LAYER, TRACED_PREFIX, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// A per-run scratch directory under the build directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(workload: &str) -> std::io::Result<Scratch> {
        let build = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"));
        let dir = build
            .join("perfbench-scratch")
            .join(format!("{workload}-{}", std::process::id()));
        // A leftover from an earlier process with the same id is stale.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Keeps the metrics of `names` in order. A `traced.` name reads the
/// run's own end-to-end figure; a layer the run did not record reads 0
/// (it is not on this workload's path).
fn select(outcome: &Outcome, names: &[(String, &'static str)]) -> Outcome {
    let mut out = Outcome {
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics: Vec::new(),
    };
    for (name, unit) in names {
        let recorded = name.strip_prefix(TRACED_PREFIX).unwrap_or(name);
        out.push(name, unit, outcome.get(recorded).unwrap_or(0.0));
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!(
                "perfbench: {message}\nusage: perfbench --workload <{}> --seed N --seconds S --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let window = Duration::from_secs(args.seconds);
    let clients = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "perfbench: {} seed {} for {} s, trace {}, {clients} cores",
        args.workload, args.seed, args.seconds, args.trace
    );
    let outcome = match args.workload.as_str() {
        "reproduce-full" => reproduce::run(args.seed, window, args.trace),
        workload => {
            let scratch = match Scratch::new(workload) {
                Ok(scratch) => scratch,
                Err(e) => {
                    eprintln!("perfbench: cannot create a scratch directory: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let kind = if workload == "serve-miss" {
                Kind::Miss
            } else {
                Kind::Hit
            };
            serve::run(kind, args.seed, window, args.trace, clients, &scratch.0)
        }
    };
    let names: Vec<(String, &str)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(
                END_TO_END
                    .iter()
                    .map(|&(n, u)| (format!("{TRACED_PREFIX}{n}"), u)),
            )
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let selected = select(&outcome, &names);
    if selected.failed > 0 {
        eprintln!(
            "perfbench: {} of {} operations failed",
            selected.failed, selected.attempted
        );
    }
    println!("{}", selected.to_json());
    ExitCode::SUCCESS
}
