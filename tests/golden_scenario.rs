//! Golden regression for the in-process fleet runs: the datacenter
//! scenario engine, the DUFP cluster, the CPU+GPU node and the chaos
//! fleet.
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
//!   share policies,
//! * `shared_step.jsonl` — a CRC-32 of every co-tenant socket step's
//!   output bits, plus each tenant's account, leg by leg through a
//!   busy → drain → ceiling write → burst → drain schedule,
//! * `chaos_seed42.jsonl` — the full chaos scenario matrix at the default
//!   shape (8 agents, 40 epochs, 700 W), exactly as `dufp chaos --seed 42
//!   --out` writes it,
//! * `chaos_seed7_64agents.jsonl` — the same matrix at fleet scale: seed
//!   7, 64 agents, 60 epochs, 5600 W.
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

use dufp_cluster::SharePolicy;
use dufp_net::chaos::{run_matrix, ChaosConfig};
use dufp_net::{run_cluster, run_hetero, ClusterConfig, HeteroConfig, NodeSpec, PolicyKind};
use dufp_scenario::{run_one, run_rows, to_jsonl_bytes, PolicyChoice, ScenarioSpec};
use dufp_sim::{SharedSocketCfg, SharedSocketSim, SharedStep};
use dufp_telemetry::write_jsonl;
use dufp_types::{ArchSpec, Duration, Ratio, Seconds, Watts};
use dufp_workloads::{shared_by_name, Boundness, MaterializeCtx, PhaseSpec, Workload};
use std::path::{Path, PathBuf};
use std::sync::Arc;

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

/// The chaos matrix under `cfg` as the scorecard JSON Lines `dufp chaos
/// --out` writes.
fn chaos_scorecard(cfg: &ChaosConfig) -> Vec<u8> {
    let cards = run_matrix(cfg).expect("chaos matrix");
    jsonl(
        cards
            .iter()
            .map(|c| serde_json::to_string(c).expect("serialize"))
            .collect(),
    )
}

#[test]
fn chaos_scorecard_at_the_default_shape_matches_golden() {
    check_golden(
        "chaos_seed42.jsonl",
        &chaos_scorecard(&ChaosConfig::new(42)),
    );
}

#[test]
fn chaos_scorecard_at_fleet_scale_matches_golden() {
    let cfg = ChaosConfig {
        agents: 64,
        epochs: 60,
        budget: Watts(5600.0),
        ..ChaosConfig::new(7)
    };
    check_golden("chaos_seed7_64agents.jsonl", &chaos_scorecard(&cfg));
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

/// A two-phase (memory-bound stream, compute-bound crunch) tenant.
fn mixed_workload(name: &str) -> Arc<Workload> {
    let specs = [
        PhaseSpec {
            name: "stream".into(),
            seconds_at_default: 2.0,
            oi: 0.06,
            boundness: Boundness::MemoryBound { headroom: 1.5 },
            core_util: 0.5,
            overlap_penalty: 0.0,
        },
        PhaseSpec {
            name: "crunch".into(),
            seconds_at_default: 2.0,
            oi: 150.0,
            boundness: Boundness::ComputeBound { mem_frac: 0.2 },
            core_util: 0.95,
            overlap_penalty: 0.0,
        },
    ];
    let ctx = MaterializeCtx::from_arch(&ArchSpec::yeti());
    Arc::new(Workload::from_specs(name, &specs, &ctx).expect("valid phase specs"))
}

/// The co-tenant sockets the step golden drives: two mixed tenants on
/// YETI; three NPB tenants on YETI, whose backlogs drain at different
/// times so the active set shrinks and grows; and one socket per node of
/// `scenario_mini.toml`, one per machine class, built as the scenario
/// engine builds it.
fn golden_sockets() -> Vec<(String, SharedSocketSim)> {
    let yeti = SharedSocketCfg::from_arch(&ArchSpec::yeti());
    let mixed = vec![
        ("a".to_string(), mixed_workload("a")),
        ("b".to_string(), mixed_workload("b")),
    ];
    let ctx = MaterializeCtx::from_arch(&ArchSpec::yeti());
    let npb = ["CG", "EP", "MG"]
        .iter()
        .map(|app| {
            let table = shared_by_name(app, &ctx).expect("known app");
            let scaled = table.scaled(1.0 / 3.0).expect("positive weight");
            (app.to_string(), Arc::new(scaled))
        })
        .collect();
    let mut sockets = vec![
        (
            "yeti-2".to_string(),
            SharedSocketSim::new(yeti.clone(), mixed).expect("socket"),
        ),
        (
            "yeti-3".to_string(),
            SharedSocketSim::new(yeti, npb).expect("socket"),
        ),
    ];
    let spec = golden_spec();
    for node in &spec.nodes {
        let class = spec.class_of(node).expect("validated spec");
        let ctx = class.materialize_ctx();
        let tenants = node
            .tenants
            .iter()
            .zip(ScenarioSpec::weights_of(node))
            .map(|(app, w)| {
                let table = shared_by_name(app, &ctx).expect("known app");
                let scaled = table.scaled(w).expect("positive weight");
                (app.clone(), Arc::new(scaled))
            })
            .collect();
        let sim = SharedSocketSim::new(class.shared_cfg(), tenants).expect("socket");
        sockets.push((class.id.clone(), sim));
    }
    sockets
}

/// Bitwise signature of one step.
fn sig(st: &SharedStep) -> Vec<u64> {
    let mut v = vec![
        st.core_freq.value().to_bits(),
        st.uncore_freq.value().to_bits(),
        st.pkg_power.value().to_bits(),
        st.pkg_energy_j.to_bits(),
        st.dram_energy_j.to_bits(),
        st.achieved_bw.value().to_bits(),
    ];
    v.extend(st.tenant_energy_j.iter().map(|e| e.to_bits()));
    v
}

#[test]
fn shared_socket_steps_match_golden() {
    // (steps, per-tenant intensities, new ceiling) per leg: busy → drain
    // to the idle fixed point (the memory-pressure EMA only pins after
    // ~15k steps) → ceiling write mid idle → idle → busy burst → drain.
    // Tenant j takes intensity `v[j]`; slot 2 drains last and sits out
    // the burst.
    type Leg = (usize, Option<[f64; 3]>, Option<Watts>);
    const SCHEDULE: [Leg; 6] = [
        (300, Some([0.7, 0.9, 1.3]), None),
        (17_000, Some([0.0, 0.0, 0.0]), None),
        (4_000, None, Some(Watts(90.0))),
        (500, None, None),
        (200, Some([1.1, 0.4, 0.0]), None),
        (17_000, Some([0.0, 0.0, 0.0]), None),
    ];
    let dt = Seconds(0.01);
    let mut out = String::new();
    for (name, mut sim) in golden_sockets() {
        for (leg, (steps, intensities, ceiling)) in SCHEDULE.into_iter().enumerate() {
            if let Some(v) = intensities {
                for (j, &x) in v.iter().enumerate().take(sim.tenant_count()) {
                    sim.set_intensity(j, x);
                }
            }
            if let Some(c) = ceiling {
                sim.set_ceiling(c);
            }
            let mut bytes = Vec::new();
            for _ in 0..steps {
                let step = sim.step(dt);
                let attributed: f64 = step.tenant_energy_j.iter().sum();
                assert_eq!(attributed, step.pkg_energy_j, "{name}: inexact attribution");
                bytes.extend(sig(&step).iter().flat_map(|b| b.to_le_bytes()));
            }
            let accounts: Vec<String> = (0..sim.tenant_count())
                .map(|j| {
                    let a = sim.account(j);
                    format!(
                        "{{\"energy_j\":{:?},\"flops\":{:?},\"bytes\":{:?},\
                         \"offered_units\":{:?},\"served_units\":{:?}}}",
                        a.energy_j, a.flops, a.bytes, a.offered_units, a.served_units
                    )
                })
                .collect();
            out += &format!(
                "{{\"socket\":\"{name}\",\"leg\":{leg},\"steps\":{steps},\
                 \"crc32\":{},\"accounts\":[{}]}}\n",
                dufp_journal::crc32(&bytes),
                accounts.join(",")
            );
        }
    }
    check_golden("shared_step.jsonl", out.as_bytes());
}
