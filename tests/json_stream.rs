//! The streaming JSON encoder against the value-tree renderer, on the
//! workspace's own serialized types.
//!
//! `serde_json::to_string` streams through `Serialize::write_json`; the
//! value tree (`Serialize::to_value`, rendered by `serde::json`) is the
//! reference it must match byte for byte. Goldens, checkpoints, journal
//! records and CLI output all depend on the two agreeing.

use dufp::SweepRow;
use dufp_journal::FsyncPolicy;
use dufp_msr::InjectorSnapshot;
use dufp_net::{CoordinatorConfig, FleetCore, FleetEvent};
use dufp_scenario::ScorecardRow;
use dufp_telemetry::{DecisionEvent, Telemetry};
use dufp_types::Watts;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Asserts that streaming `x` writes the bytes its value tree renders to,
/// and returns them.
fn streams_like_its_tree<T: Serialize>(x: &T) -> String {
    let mut tree = String::new();
    serde::json::write_value(&mut tree, &x.to_value(), None, 0);
    let streamed = serde_json::to_string(x).unwrap();
    assert_eq!(streamed, tree);
    streamed
}

/// Every line of a golden JSONL file decodes as `T` and re-encodes, on
/// both paths, to the same line.
fn golden_lines_round_trip<T: Serialize + Deserialize>(name: &str) -> usize {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines = 0;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let row: T = serde_json::from_str(line).unwrap();
        assert_eq!(streams_like_its_tree(&row), line, "{name}");
        lines += 1;
    }
    lines
}

#[test]
fn scorecard_rows_stream_like_their_trees() {
    assert!(golden_lines_round_trip::<ScorecardRow>("scenario_mini_scorecard.jsonl") > 0);
}

#[test]
fn decision_events_stream_like_their_trees() {
    for name in ["dufp_5.jsonl", "dufp_fault_10.jsonl", "dnpc_20.jsonl"] {
        assert!(golden_lines_round_trip::<DecisionEvent>(name) > 0);
    }
}

#[test]
fn sweep_rows_stream_like_their_trees() {
    let row = SweepRow {
        index: 3,
        app: "CG".into(),
        policy: "dufp".into(),
        label: "DUFP@10%".into(),
        slowdown_pct: 10.0,
        seed: u64::MAX,
        exec_time_s: 42.46,
        avg_pkg_power_w: 101.0,
        avg_dram_power_w: f64::NAN,
        pkg_energy_j: -0.0,
        dram_energy_j: 1e-7,
    };
    let text = streams_like_its_tree(&row);
    assert!(text.contains(r#""seed":18446744073709552000.0"#), "{text}");
    assert!(text.contains(r#""avg_dram_power_w":"nan""#), "{text}");
}

#[test]
fn injector_snapshots_keep_the_high_rng_bit() {
    let snap = InjectorSnapshot {
        rng: (1 << 63) | 12345,
        hits: vec![0, 7, u64::from(u32::MAX)],
    };
    let text = streams_like_its_tree(&snap);
    assert_eq!(
        text,
        r#"{"rng":-9223372036854763463,"hits":[0,7,4294967295]}"#
    );
    assert_eq!(
        serde_json::from_str::<InjectorSnapshot>(&text).unwrap(),
        snap
    );
}

#[test]
fn fsync_policies_stream_like_their_trees() {
    for policy in [
        FsyncPolicy::Always,
        FsyncPolicy::EveryN(8),
        FsyncPolicy::Never,
    ] {
        let text = streams_like_its_tree(&policy);
        assert_eq!(text, format!("\"{}\"", policy.label()));
    }
}

#[test]
fn every_fleet_event_streams_like_its_tree() {
    let events = [
        FleetEvent::Admit {
            name: "n\"0\\".into(),
            app: "EP,CG".into(),
            floor_w: 65.0,
            node_max_w: 125.5,
            now_ms: 0,
        },
        FleetEvent::Report {
            slot: 2,
            seq: u64::MAX,
            ceiling_w: f64::NAN,
            consumption_w: f64::NEG_INFINITY,
            active: true,
            now_ms: 1500,
        },
        FleetEvent::Heartbeat {
            slot: 0,
            seq: 9,
            now_ms: 1600,
        },
        FleetEvent::Goodbye { slot: 1 },
        FleetEvent::Epoch { now_ms: 2000 },
        FleetEvent::Fence { term: 3 },
        FleetEvent::TermBump { term: 4 },
    ];
    for event in &events {
        let text = streams_like_its_tree(event);
        assert_eq!(event.encode().unwrap(), text.as_bytes());
    }
    assert_eq!(
        streams_like_its_tree(&events[3]),
        r#"{"Goodbye":{"slot":1}}"#
    );
}

#[test]
fn core_snapshots_stream_like_their_trees() {
    let cfg = CoordinatorConfig::new("virtual", Watts(300.0));
    let mut core = FleetCore::new(&cfg, Telemetry::disabled());
    let a = core
        .admit("a".into(), "EP".into(), Watts(65.0), Watts(125.0), 0)
        .unwrap();
    let b = core
        .admit("b".into(), "CG".into(), Watts(65.0), Watts(125.0), 0)
        .unwrap();
    for e in 1..=6 {
        core.on_report(a, e, Watts(90.0), Watts(85.0), true, e * 1000 - 500);
        // b misbehaves: NaN demand walks the trust ladder.
        core.on_report(b, e, Watts(f64::NAN), Watts(-2.0), true, e * 1000 - 500);
        core.on_heartbeat(a, e, e * 1000 - 400);
        core.epoch_once(e * 1000);
    }
    let snap = core.snapshot();
    let text = streams_like_its_tree(&snap);
    assert_eq!(core.snapshot_bytes().unwrap(), text.as_bytes());
}
