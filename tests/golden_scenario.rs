//! Golden regression for the in-process fleet runs: the datacenter
//! scenario engine, the DUFP cluster and the CPU+GPU node.
//!
//! `tests/golden/scenario_mini.toml` is a checked-in diurnal co-tenant
//! scenario; the goldens pin byte-exact artifacts of running it at a
//! fixed seed, plus the cluster and heterogeneous-node outcomes:
//!
//! * `scenario_mini_trace.jsonl` — the demand-based policy's full
//!   decision trace (intensity shifts, SLO violations, budget grants),
//! * `scenario_mini_scorecard.jsonl` — the scorecard rows for all three
//!   policies, exactly as `dufp scenario` would emit them,
//! * `cluster_demo.jsonl` — `ClusterOutcome` rows under static-split and
//!   demand-based for four cluster configurations,
//! * `hetero_demo.jsonl` — `HeteroOutcome` rows for two seeds under both
//!   share policies.
//!
//! Any change to arrival-model sampling, co-tenant or node physics,
//! DUFP, allocator behavior or serialization shows up here as a byte
//! diff. To bless new
//! behavior after an intentional change:
//!
//! ```text
//! DUFP_REGEN_GOLDEN=1 cargo test --test golden_scenario
//! ```
//!
//! then review the regenerated files like any other diff.

use dufp_cluster::{run_hetero, ClusterConfig, HeteroConfig, NodeSpec, SharePolicy};
use dufp_net::{run_cluster, PolicyKind};
use dufp_scenario::{run_one, run_rows, to_jsonl_bytes, PolicyChoice, ScenarioSpec};
use dufp_telemetry::write_jsonl;
use dufp_types::{Duration, Ratio, Watts};
use std::path::{Path, PathBuf};

const GOLDEN_SEED: u64 = 17;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn golden_spec() -> ScenarioSpec {
    let path = golden_dir().join("scenario_mini.toml");
    let text = std::fs::read_to_string(&path).expect("golden spec present");
    ScenarioSpec::from_toml(&text).expect("golden spec parses and validates")
}

/// Compares (or, under DUFP_REGEN_GOLDEN, rewrites) one golden file.
fn check_golden(name: &str, got: &[u8]) {
    assert!(!got.is_empty(), "{name}: produced no bytes");
    let path = golden_dir().join(name);
    if std::env::var_os("DUFP_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, got).expect("write golden");
        return;
    }
    let want = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with DUFP_REGEN_GOLDEN=1 to create it",
            path.display()
        )
    });
    if got != want {
        let first_diff = got
            .iter()
            .zip(want.iter())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.len().min(want.len()));
        let line = want[..first_diff.min(want.len())]
            .iter()
            .filter(|&&b| b == b'\n')
            .count()
            + 1;
        panic!(
            "{name} drifted from tests/golden/: {} bytes vs {} golden, first diff at \
             byte {first_diff} (line {line}) — if intentional, regenerate with \
             DUFP_REGEN_GOLDEN=1 and review the diff",
            got.len(),
            want.len()
        );
    }
}

#[test]
fn demand_based_decision_trace_matches_golden() {
    let spec = golden_spec();
    let r = run_one(&spec, GOLDEN_SEED, PolicyChoice::DemandBased).expect("golden run");
    assert!(r.row.conservation_ok, "golden run must conserve energy");
    assert!(r.row.grants > 0, "golden scenario never granted budget");
    let mut buf = Vec::new();
    write_jsonl(&mut buf, &r.events).expect("serialize trace");
    check_golden("scenario_mini_trace.jsonl", &buf);
}

#[test]
fn scorecard_rows_match_golden() {
    let spec = golden_spec();
    let policies = [
        PolicyChoice::Uncapped,
        PolicyChoice::StaticSplit,
        PolicyChoice::DemandBased,
    ];
    let rows = run_rows(&spec, GOLDEN_SEED, &policies, 2).expect("golden rows");
    let bytes = to_jsonl_bytes(&rows).expect("serialize scorecard");
    check_golden("scenario_mini_scorecard.jsonl", &bytes);
}

/// Joins serialized rows as JSON Lines.
fn jsonl(lines: Vec<String>) -> Vec<u8> {
    lines
        .into_iter()
        .map(|l| l + "\n")
        .collect::<String>()
        .into_bytes()
}

/// The cluster configurations the golden pins: two demo seeds, a 400 W
/// seed-11 comparison (`ClusterConfig::demo(11)` at 400 W), and a
/// two-node queue that drains and donates.
fn golden_clusters() -> Vec<ClusterConfig> {
    let mut budget_400 = ClusterConfig::demo(11);
    budget_400.budget = Watts(400.0);
    let queue = ClusterConfig {
        nodes: vec![
            NodeSpec {
                queue: vec!["EP".into(), "MG".into()],
            },
            NodeSpec::single("HPL"),
        ],
        budget: Watts(220.0),
        slowdown: Ratio::from_percent(10.0),
        epoch: Duration::from_secs(1),
        seed: 5,
    };
    vec![
        ClusterConfig::demo(3),
        ClusterConfig::demo(7),
        budget_400,
        queue,
    ]
}

#[test]
fn cluster_outcomes_match_golden() {
    let mut rows = Vec::new();
    for cfg in golden_clusters() {
        for policy in [PolicyKind::StaticSplit, PolicyKind::DemandBased] {
            let out = run_cluster(&cfg, policy).expect("cluster run");
            rows.push(serde_json::to_string(&out).expect("serialize"));
        }
    }
    check_golden("cluster_demo.jsonl", &jsonl(rows));
}

#[test]
fn hetero_outcomes_match_golden() {
    let mut rows = Vec::new();
    for seed in [3, 7] {
        for policy in [SharePolicy::Static, SharePolicy::Donate] {
            let out = run_hetero(&HeteroConfig::demo(seed), policy).expect("hetero run");
            rows.push(serde_json::to_string(&out).expect("serialize"));
        }
    }
    check_golden("hetero_demo.jsonl", &jsonl(rows));
}
