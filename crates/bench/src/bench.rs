//! The benchmarks behind the committed `BENCH_*.json` files, run by the
//! `bench` binary: `bench <name>` measures, prints and writes
//! `BENCH_<name>.json` in the current directory, then checks its gates.
//!
//! Every file shares one envelope ahead of the bench's own fields:
//! `bench` (the name), `git_rev` (`git describe --always --dirty`, or
//! `"unknown"` outside a checkout), `available_cores` and `degenerate`.
//! A host with one core is degenerate: parallel series then measure pool
//! overhead, not scaling, so the throughput gates are skipped there and
//! its numbers must never be read as scaling. Nothing is configurable;
//! the workloads are the constants in each bench's module.

mod chaos;
mod control_plane;
mod failover;
mod scenario;
mod sweep;

use serde::{Serialize, Value};
use std::error::Error;

/// A bench's result type: any failure, gates included, ends the run.
type BenchResult<T> = Result<T, Box<dyn Error>>;

/// One benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// Paper-grid sweep throughput for both stepping engines.
    Sweep,
    /// Mini datacenter-scenario runs per second.
    Scenario,
    /// Virtual-epoch throughput of the in-process chaos fleet.
    Chaos,
    /// Coordinator takeover latency and journal replay throughput.
    Failover,
    /// Allocator epochs over live loopback fleets, and decision latency.
    ControlPlane,
}

/// What a bench measured: its own report fields, and every gate it
/// failed (empty when all held or were skipped).
struct Measured {
    report: Value,
    failed_gates: Vec<String>,
}

impl Measured {
    /// Takes `report`'s fields as its compact JSON parsed back, which
    /// reads every number and string exactly as written.
    fn new(report: &impl Serialize, failed_gates: Vec<String>) -> BenchResult<Self> {
        Ok(Measured {
            report: serde_json::from_str(&serde_json::to_string(report)?)?,
            failed_gates,
        })
    }
}

impl Bench {
    /// Every bench.
    pub const ALL: [Bench; 5] = [
        Bench::Sweep,
        Bench::Scenario,
        Bench::Chaos,
        Bench::Failover,
        Bench::ControlPlane,
    ];

    /// The subcommand, and the `<name>` in `BENCH_<name>.json`.
    pub fn name(self) -> &'static str {
        match self {
            Bench::Sweep => "sweep",
            Bench::Scenario => "scenario",
            Bench::Chaos => "chaos",
            Bench::Failover => "failover",
            Bench::ControlPlane => "control_plane",
        }
    }

    /// Measures, prints and writes `BENCH_<name>.json` in the current
    /// directory, then fails if a gate did not hold.
    pub fn run(self) -> Result<(), Box<dyn Error>> {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let git_rev = git_rev();
        let measured = match self {
            Bench::Sweep => sweep::run(cores)?,
            Bench::Scenario => scenario::run(cores)?,
            Bench::Chaos => chaos::run()?,
            Bench::Failover => failover::run()?,
            Bench::ControlPlane => control_plane::run()?,
        };
        let mut fields = vec![
            ("bench".to_string(), Value::Str(self.name().into())),
            ("git_rev".to_string(), Value::Str(git_rev)),
            ("available_cores".to_string(), Value::Int(cores as i64)),
            ("degenerate".to_string(), Value::Bool(degenerate(cores))),
        ];
        if let Value::Object(report) = measured.report {
            fields.extend(report);
        }
        let json = serde_json::to_string_pretty(&Value::Object(fields))?;
        println!("{json}");
        let path = format!("BENCH_{}.json", self.name());
        std::fs::write(&path, format!("{json}\n"))?;
        eprintln!("wrote {path}");
        if degenerate(cores) {
            eprintln!("single core available: degenerate run, speedup checks skipped");
        }
        if measured.failed_gates.is_empty() {
            Ok(())
        } else {
            Err(measured.failed_gates.join("; ").into())
        }
    }
}

/// True on a single-core host, where parallel series measure pool
/// overhead and the speedup gates are skipped.
fn degenerate(cores: usize) -> bool {
    cores == 1
}

/// Worker counts 1, half the cores and all of them, deduplicated; a
/// single-core host still measures 2 workers, so the file shows real
/// pool overhead instead of a missing series.
fn worker_ladder(cores: usize) -> Vec<usize> {
    let mut ladder = vec![1, (cores / 2).max(1), cores];
    if degenerate(cores) {
        ladder.push(2);
    }
    ladder.sort_unstable();
    ladder.dedup();
    ladder
}

/// The messages of the gates that did not hold; none on a degenerate
/// host, where throughput gates measure contention, not the code.
fn failed<const N: usize>(cores: usize, gates: [(bool, String); N]) -> Vec<String> {
    if degenerate(cores) {
        return Vec::new();
    }
    gates
        .into_iter()
        .filter(|(held, _)| !held)
        .map(|(_, msg)| msg)
        .collect()
}

/// The median of a non-empty sample (the mean of the middle two for an
/// even count).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    match xs.len() % 2 {
        1 => xs[mid],
        _ => (xs[mid - 1] + xs[mid]) / 2.0,
    }
}

/// `git describe --always --dirty` in the current directory, or
/// `"unknown"` when that fails (no git, or not a checkout).
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_one_half_all_and_two_on_one_core() {
        assert_eq!(worker_ladder(1), vec![1, 2]);
        assert_eq!(worker_ladder(2), vec![1, 2]);
        assert_eq!(worker_ladder(8), vec![1, 4, 8]);
    }

    #[test]
    fn median_takes_the_middle() {
        assert_eq!(median(vec![4.3, 8.1, 5.7, 5.7, 9.0]), 5.7);
        assert_eq!(median(vec![2.0, 1.0]), 1.5);
    }

    #[test]
    fn names_are_distinct_file_suffixes() {
        let mut names: Vec<&str> = Bench::ALL.iter().map(|b| b.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Bench::ALL.len());
        assert!(names
            .iter()
            .all(|n| n.chars().all(|c| c.is_ascii_lowercase() || c == '_')));
    }
}
