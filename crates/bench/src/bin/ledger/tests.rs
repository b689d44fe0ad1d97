//! The generators are pure functions of the seed; every workload and the
//! traced run work in-process at a tiny size and report exactly the
//! metrics `BENCHMARK.json` lists; the benchmark file stays in its limits.

use crate::gen::{
    datacenter_inputs, fleet_inputs, sweep_inputs, DatacenterSize, FleetSize, SweepShape, Workload,
};
use crate::stats::Report;
use crate::trace::TraceSize;
use crate::{fleet, parse_args, scenario, sweep, trace, Scratch};
use serde_json::Value;

const BENCHMARK: &str = include_str!("../../../../../BENCHMARK.json");

fn listed(section: &str) -> Vec<String> {
    let doc: Value = serde_json::from_str(BENCHMARK).expect("BENCHMARK.json parses");
    let mut names: Vec<String> = doc[section]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| m["name"].as_str().expect("metric name").to_string())
        .collect();
    names.sort();
    names
}

fn reported(report: &Report) -> Vec<String> {
    let mut names: Vec<String> = report.metrics.iter().map(|(n, ..)| n.clone()).collect();
    names.sort();
    names
}

fn assert_clean(report: &Report, section: &str) {
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert!(report.attempted > 0);
    assert_eq!(reported(report), listed(section));
    for (name, value, _) in &report.metrics {
        assert!(value.is_finite(), "{name} = {value}");
    }
}

fn tiny_sweep() -> SweepShape {
    SweepShape {
        apps: &["EP", "CG"],
        ..SweepShape::of(Workload::FastControl, 1.0 / 35.0)
    }
}

fn tiny_datacenter() -> DatacenterSize {
    DatacenterSize {
        nodes: 3,
        duration_s: 10,
        arrival_seeds: 1,
    }
}

#[test]
fn generators_are_pure_functions_of_the_seed() {
    let shape = SweepShape::of(Workload::PaperNode, 1.0);
    assert_eq!(sweep_inputs(7, &shape), sweep_inputs(7, &shape));
    assert_ne!(sweep_inputs(7, &shape), sweep_inputs(8, &shape));
    let dc = DatacenterSize::of(1.0);
    assert_eq!(datacenter_inputs(7, &dc), datacenter_inputs(7, &dc));
    assert_ne!(datacenter_inputs(7, &dc), datacenter_inputs(8, &dc));
    let fs = FleetSize::of(1.0);
    let fleet = |seed| format!("{:?}", fleet_inputs(seed, &fs));
    assert_eq!(fleet(7), fleet(7));
    assert_ne!(fleet(7), fleet(8));
}

#[test]
fn sweep_workload_runs_at_a_tiny_size() {
    let mut report = Report::default();
    sweep::run(3, &tiny_sweep(), 0.0, 2, 2, &mut report).expect("tiny sweep");
    assert_clean(&report, "end_to_end");
}

#[test]
fn datacenter_workload_runs_at_a_tiny_size() {
    let mut report = Report::default();
    scenario::run(3, &tiny_datacenter(), 0.0, 2, 2, &mut report).expect("tiny scenario");
    assert_clean(&report, "end_to_end");
}

#[test]
fn fleet_workload_runs_at_a_tiny_size() {
    let size = FleetSize {
        agents: 8,
        rounds: 1,
        chaos_epochs: 40,
        journal_events: 500,
    };
    let scratch = Scratch::new().expect("scratch dir");
    let mut report = Report::default();
    fleet::run(3, &size, 0.0, &scratch, 2, &mut report).expect("tiny fleet");
    assert_clean(&report, "end_to_end");
}

#[test]
fn traced_run_reports_every_layer_and_passes_its_guards() {
    let size = TraceSize {
        sweep_jobs: 1,
        sweep_apps: Some(&["EP"]),
        tick_every: 8,
        telemetry_every: 8,
        materialize_reps: 2,
        datacenter: tiny_datacenter(),
        core_epochs: 20,
        alloc_nodes: [60, 256, 4096],
        alloc_reps: 10,
        appends: 10,
        checkpoints: 3,
        journal_events: 600,
        reads: 2,
    };
    let scratch = Scratch::new().expect("scratch dir");
    let mut report = Report::default();
    trace::run(Workload::FastControl, 3, &size, &scratch, 2, &mut report).expect("tiny trace");
    assert_clean(&report, "per_layer");
}

#[test]
fn benchmark_file_stays_within_its_limits() {
    let doc: Value = serde_json::from_str(BENCHMARK).expect("BENCHMARK.json parses");
    let (e2e, layers) = (listed("end_to_end"), listed("per_layer"));
    assert!(
        (1..=16).contains(&e2e.len()),
        "{} end-to-end metrics",
        e2e.len()
    );
    assert!(
        (1..=128).contains(&layers.len()),
        "{} per-layer metrics",
        layers.len()
    );
    let valid = |name: &str| {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    for name in e2e.iter().chain(&layers) {
        assert!(valid(name), "bad metric name {name}");
    }
    let workloads = doc["workloads"].as_array().expect("workload list");
    assert_eq!(workloads.len(), Workload::ALL.len());
    for w in workloads {
        let name = w["name"].as_str().expect("workload name");
        assert!(Workload::parse(name).is_some(), "unknown workload {name}");
    }
}

#[test]
fn trace_flag_takes_an_optional_value() {
    let args = |v: &[&str]| parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let base = ["--workload", "datacenter", "--seed", "4"];
    assert!(!args(&base).expect("valid").trace);
    for (extra, traced) in [
        (&["--trace"][..], true),
        (&["--trace", "1"], true),
        (&["--trace", "0"], false),
    ] {
        let v: Vec<&str> = base.iter().chain(extra).copied().collect();
        assert_eq!(args(&v).expect("valid").trace, traced, "{v:?}");
    }
    assert!(args(&["--workload", "nope", "--seed", "1"]).is_err());
    assert!(args(&["--workload", "datacenter"]).is_err());
}
