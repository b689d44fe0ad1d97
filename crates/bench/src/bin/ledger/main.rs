//! `ledger` — the repository benchmark: four workloads, end-to-end metrics
//! from an untraced run, per-layer metrics from a separate traced run.
//!
//! ```text
//! ledger --workload <paper-node|fast-control|datacenter|fleet-failover>
//!        --seed <n> [--seconds <s>] [--trace [0|1]]
//! ```
//!
//! Every input comes from `--seed`. An untraced run measures for
//! `--seconds` (default 10), going round its seed's inputs again if it gets
//! through them all. The run prints its context and every metric as
//! `name value unit` lines, then one JSON object as its last line:
//! `correct`, `attempted`, `failed` and `metrics`. A failed output check
//! makes the run exit 1. See README.md for the workloads, the metrics and
//! how they relate.

mod fleet;
mod gen;
mod mirror;
mod scenario;
mod stats;
mod sweep;
#[cfg(test)]
mod tests;
mod timed;
mod trace;

use gen::{DatacenterSize, FleetSize, SweepShape, Workload};
use serde_json::Value;
use stats::Report;
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Set-up samples timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 51;

/// Worker threads for every sweep and scenario pool, fixed so results on
/// hosts with more cores stay comparable.
const MAX_WORKERS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: ledger --workload <paper-node|fast-control|datacenter|fleet-failover> \
                     --seed <n> [--seconds <s>] [--trace [0|1]]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--workload" => {
                let v = value(i)?;
                workload = Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
                i += 1;
            }
            "--seed" => {
                let v = value(i)?;
                seed = Some(v.parse().map_err(|_| format!("bad seed {v}"))?);
                i += 1;
            }
            "--seconds" => {
                let v = value(i)?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad --seconds {v}"))?;
                i += 1;
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => i += 1,
                Some("1") => {
                    trace = true;
                    i += 1;
                }
                _ => trace = true,
            },
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// Per-run scratch space inside the working directory (journals, traced
/// checkpoints), removed when the run ends.
pub struct Scratch {
    root: PathBuf,
    next: Cell<u32>,
}

const SCRATCH_DIR: &str = ".ledger_tmp";

impl Scratch {
    pub fn new() -> Result<Self, String> {
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let k = RUNS.fetch_add(1, Ordering::Relaxed);
        let root = Path::new(SCRATCH_DIR).join(format!("run-{}-{k}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        Ok(Scratch {
            root,
            next: Cell::new(0),
        })
    }

    /// A path for a new, not yet existing directory.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        self.root.join(format!("{name}-{n}"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        let _ = std::fs::remove_dir(SCRATCH_DIR);
    }
}

/// The checkout's commit, read from `.git` without spawning a process.
fn git_rev() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(name) => std::fs::read_to_string(git.join(name))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| {
                std::fs::read_to_string(git.join("packed-refs"))
                    .ok()?
                    .lines()
                    .find(|l| l.ends_with(name))
                    .and_then(|l| l.split(' ').next())
                    .map(str::to_string)
            }),
    };
    rev.map_or_else(|| "unknown".into(), |r| r.chars().take(12).collect())
}

/// Runs one workload, untraced or traced, into `report`.
pub fn run(
    w: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    workers: usize,
    report: &mut Report,
) -> Result<(), String> {
    let scratch = Scratch::new()?;
    if traced {
        return trace::run(
            w,
            seed,
            &trace::TraceSize::full(),
            &scratch,
            workers,
            report,
        );
    }
    let scale = seconds / 10.0;
    match w {
        Workload::PaperNode | Workload::FastControl => sweep::run(
            seed,
            &SweepShape::of(w, scale),
            seconds,
            workers,
            SETUP_REPS,
            report,
        ),
        Workload::Datacenter => scenario::run(
            seed,
            &DatacenterSize::of(scale),
            seconds,
            workers,
            SETUP_REPS,
            report,
        ),
        Workload::FleetFailover => fleet::run(
            seed,
            &FleetSize::of(scale),
            seconds,
            &scratch,
            SETUP_REPS,
            report,
        ),
    }
}

/// The final line: `correct`, `attempted`, `failed` and every metric.
fn result_json(report: &Report) -> String {
    let metrics = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let m = Value::Object(vec![
                ("value".into(), Value::Num(*value)),
                ("unit".into(), Value::Str((*unit).into())),
            ]);
            (name.clone(), m)
        })
        .collect();
    let doc = Value::Object(vec![
        ("correct".into(), Value::Bool(report.failures.is_empty())),
        ("attempted".into(), Value::Int(report.attempted as i64)),
        ("failed".into(), Value::Int(report.failures.len() as i64)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&doc).expect("a JSON value always renders")
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let workers = MAX_WORKERS.min(cores);
    let mut report = Report::default();
    report.context("workload", args.workload.name());
    report.context("seed", args.seed);
    report.context("seconds", args.seconds);
    report.context("trace", u8::from(args.trace));
    report.context("available_cores", cores);
    report.context("workers", workers);
    report.context("degenerate", cores < MAX_WORKERS);
    report.context("git_rev", git_rev());

    if let Err(e) = run(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        workers,
        &mut report,
    ) {
        eprintln!("ledger: {} failed: {e}", args.workload.name());
        std::process::exit(2);
    }
    let not_finite: Vec<String> = (report.metrics.iter().chain(&report.details))
        .filter(|(_, value, _)| !value.is_finite())
        .map(|(name, ..)| format!("metric {name} is not finite"))
        .collect();
    report.failures.extend(not_finite);
    report.context("failed_ops", report.failures.len());
    for (name, value) in &report.context {
        println!("{name} {value}");
    }
    for (name, value, unit) in report.metrics.iter().chain(&report.details) {
        println!("{name} {value} {unit}");
    }
    for f in &report.failures {
        eprintln!("ledger: FAILED {f}");
    }
    println!("{}", result_json(&report));
    if !report.failures.is_empty() {
        std::process::exit(1);
    }
}
