//! `pathbench`: the pathix benchmark.
//!
//! ```text
//! cargo run --release --manifest-path pathbench/Cargo.toml -- \
//!     --workload analytic|serve|ingest --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload builds its inputs from `--seed`, drives the public API a
//! client uses, checks every answer outside the timed region, prints one
//! line per metric (name, value, unit, sample count) and ends with one JSON
//! result line. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! measures the workload twice, untraced and then traced, and reports the
//! per-layer metrics, each layer's self time, the tracing overhead and the
//! reconciliation checks. Both lists, with their units, are the ones
//! `BENCHMARK.json` declares; every workload records each of them. `pathbench/DESIGN.md` states what each workload
//! and metric is for.

mod analytic;
mod ingest;
mod inputs;
mod layers;
mod report;
mod rng;
mod serve;
mod sys;
mod trace;

use report::Metrics;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Analytic,
    Serve,
    Ingest,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "analytic" => Some(Workload::Analytic),
            "serve" => Some(Workload::Serve),
            "ingest" => Some(Workload::Ingest),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Analytic => "analytic",
            Workload::Serve => "serve",
            Workload::Ingest => "ingest",
        }
    }
}

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Measured time of one pass of the workload (a traced run makes an
    /// untraced and a traced pass).
    pub seconds: Duration,
    pub trace: bool,
    /// Where the run keeps page files and writes its spans; inside the
    /// working directory.
    pub work_dir: PathBuf,
}

/// What a workload hands back: every metric it measured, plus the answer
/// check tallies.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    /// Operations issued (queries, lookups, scans, write batches).
    pub attempted: u64,
    /// Operations that failed, were shed, ran out of deadline, or returned a
    /// wrong answer.
    pub failed: u64,
    /// Set when a reconciliation or end-state check failed.
    pub check_failures: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }
}

fn parse_args(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(Duration::from_secs(10)),
        trace: trace.unwrap_or(false),
        work_dir: Path::new(".pathbench").to_path_buf(),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("pathbench: {e}");
            eprintln!(
                "usage: pathbench --workload analytic|serve|ingest --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&config.work_dir) {
        eprintln!("pathbench: creating {}: {e}", config.work_dir.display());
        return ExitCode::FAILURE;
    }
    println!(
        "pathbench: workload {} seed {} seconds {:.3} trace {} threads {}",
        config.workload.name(),
        config.seed,
        config.seconds.as_secs_f64(),
        u8::from(config.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let ticks_before = sys::cpu_ticks();
    let outcome = match config.workload {
        Workload::Analytic => analytic::run(&config),
        Workload::Serve => serve::run(&config),
        Workload::Ingest => ingest::run(&config),
    };
    if let (Some((steal0, total0)), Some((steal1, total1))) = (ticks_before, sys::cpu_ticks()) {
        println!(
            "pathbench: the host stole {:.1}% of this machine's CPU time during the run",
            layers::ratio((steal1 - steal0) as f64, (total1 - total0) as f64) * 100.0
        );
    }
    let mut outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("pathbench: {} failed: {e}", config.workload.name());
            return ExitCode::FAILURE;
        }
    };
    outcome.metrics.set(
        "error_ratio",
        layers::ratio(outcome.failed as f64, outcome.attempted as f64),
        "ratio",
        Some(outcome.attempted as usize),
    );
    print!("{}", outcome.metrics.render_lines("  "));
    for failure in &outcome.check_failures {
        println!("  CHECK FAILED: {failure}");
    }
    let correct = outcome.failed == 0 && outcome.check_failures.is_empty();
    let declared = report::declared(if config.trace {
        "per_layer"
    } else {
        "end_to_end"
    });
    match outcome
        .metrics
        .result_json(&declared, correct, outcome.attempted.max(1), outcome.failed)
    {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("pathbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let c = parse_args(&args("--workload serve --seed 7 --seconds 2.5 --trace 1")).unwrap();
        assert_eq!(c.workload, Workload::Serve);
        assert_eq!(c.seed, 7);
        assert_eq!(c.seconds, Duration::from_millis(2500));
        assert!(c.trace);
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload ingest --trace 2")).is_err());
        assert!(parse_args(&args("--workload ingest --seconds 0")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
    }
}
