//! The JSON codec on the workspace's own serialized types.
//!
//! `serde_json::to_string` streams through `Serialize::write_json`, the
//! one encoder, and pretty output is that compact text re-indented;
//! `serde_json::from_str` reads through `Deserialize::read_json`, the one
//! decoder. Goldens, checkpoints, journal records and CLI output all
//! depend on their bytes, so these tests pin them: encoded text reads back
//! (as the type and as a value tree) and re-encodes to itself, literal
//! pins hold the hand-written impls and edge values, the files under
//! `tests/golden/pretty/` hold the pretty form, and one test pins the
//! rules a decoded document follows.

use dufp::{RunMeta, RunResult, SweepRow};
use dufp_journal::FsyncPolicy;
use dufp_msr::InjectorSnapshot;
use dufp_net::{CoordinatorConfig, FleetCore, FleetEvent};
use dufp_scenario::ScorecardRow;
use dufp_sim::SimConfig;
use dufp_telemetry::{DecisionEvent, Telemetry};
use dufp_types::Watts;
use serde::{Deserialize, Serialize, Value};
use std::path::Path;

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Asserts that the compact text of `x`, read back as a value tree,
/// re-encodes to the same bytes, and returns the text.
fn streams_like_its_tree<T: Serialize>(x: &T) -> String {
    let text = serde_json::to_string(x).unwrap();
    let tree: Value = serde_json::from_str(&text).unwrap();
    assert_eq!(serde_json::to_string(&tree).unwrap(), text);
    text
}

/// Asserts that `text` decodes as `T` and re-encodes to itself.
fn decodes_and_reencodes<T: Serialize + Deserialize>(text: &str) {
    let back: T = serde_json::from_str(text).unwrap();
    assert_eq!(streams_like_its_tree(&back), text);
}

/// Every line of a golden JSONL file decodes as `T` and re-encodes to the
/// same line.
fn golden_lines_round_trip<T: Serialize + Deserialize>(name: &str) -> usize {
    let mut lines = 0;
    for line in golden(name).lines().filter(|l| !l.trim().is_empty()) {
        decodes_and_reencodes::<T>(line);
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
    assert!(text.contains(r#""seed":18446744073709551615"#), "{text}");
    assert!(text.contains(r#""avg_dram_power_w":"nan""#), "{text}");
    assert!(text.contains(r#""pkg_energy_j":-0.0"#), "{text}");
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
    for (policy, text) in [
        (FsyncPolicy::Always, r#""always""#),
        (FsyncPolicy::EveryN(8), r#""every:8""#),
        (FsyncPolicy::Never, r#""never""#),
    ] {
        assert_eq!(streams_like_its_tree(&policy), text);
        assert_eq!(serde_json::from_str::<FsyncPolicy>(text).unwrap(), policy);
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
        decodes_and_reencodes::<FleetEvent>(&text);
    }
    assert_eq!(
        streams_like_its_tree(&events[0]),
        r#"{"Admit":{"name":"n\"0\\","app":"EP,CG","floor_w":65.0,"node_max_w":125.5,"now_ms":0}}"#
    );
    assert_eq!(
        streams_like_its_tree(&events[1]),
        r#"{"Report":{"slot":2,"seq":18446744073709551615,"ceiling_w":"nan","consumption_w":"-inf","active":true,"now_ms":1500}}"#
    );
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
        .admit(
            "a\"{,}:[x]".into(),
            "CG".into(),
            Watts(65.0),
            Watts(125.0),
            0,
        )
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
    assert!(
        text.contains(r#"{"name":"a\"{,}:[x]","app":"CG""#),
        "{text}"
    );
    decodes_and_reencodes::<dufp_net::CoreSnapshot>(&text);
}

/// `dufp machine-template`, a `dufp run EP --controller dufp --slowdown 10
/// --json --seed 1` result and the `meta.json` of a journaled CG run with a
/// three-rule fault plan (nested enums, `Option`s, the fsync label), as the
/// value-tree renderer wrote them before the stream became the only
/// encoder: each decodes and re-encodes pretty to the same bytes, and the
/// template is the default platform's.
#[test]
fn pretty_goldens_are_the_compact_stream_reindented() {
    fn reencodes<T: Serialize + Deserialize>(name: &str) -> String {
        let text = golden(name);
        let value: T = serde_json::from_str(&text).unwrap();
        assert_eq!(
            serde_json::to_string_pretty(&value).unwrap(),
            text,
            "{name}"
        );
        text
    }
    let template = reencodes::<SimConfig>("pretty/machine_template.json");
    assert_eq!(
        serde_json::to_string_pretty(&SimConfig::yeti(42)).unwrap(),
        template
    );
    reencodes::<RunResult>("pretty/run_ep_dufp_10.json");
    reencodes::<RunMeta>("pretty/meta_faulted.json");
    reencodes::<Value>("pretty/meta_faulted.json");
}

#[derive(Serialize, Deserialize, Debug, PartialEq)]
struct Policy {
    id: u8,
    name: String,
    note: Option<String>,
    #[serde(default)]
    count: u32,
    #[serde(default = "seven")]
    seven: u64,
    inner: Option<Inner>,
}

#[derive(Serialize, Deserialize, Debug, PartialEq)]
struct Inner {
    xs: Vec<u8>,
}

#[derive(Serialize, Deserialize, Debug, PartialEq)]
enum Tagged {
    Plain,
    Boxed(u8),
    Pair { a: u8 },
}

fn seven() -> u64 {
    7
}

fn policy(id: u8, name: &str) -> Policy {
    Policy {
        id,
        name: name.into(),
        note: None,
        count: 0,
        seven: 7,
        inner: None,
    }
}

fn decode_err<T: Deserialize + std::fmt::Debug>(text: &str) -> String {
    serde_json::from_str::<T>(text).unwrap_err().to_string()
}

/// The rules a decoded document follows, whatever reads it: any key
/// order; unknown keys skipped but still checked for syntax; the first of
/// duplicate keys wins; absent `Option`s and defaulted fields fill in; a
/// float with no fraction is an integer; enums take a string tag or a
/// single-key object; errors name the path to the offending value.
#[test]
fn decode_policy_is_pinned() {
    let read = |text: &str| serde_json::from_str::<Policy>(text).unwrap();
    assert_eq!(read(r#"{"name":"n","id":3}"#), policy(3, "n"));
    assert_eq!(
        read(
            r#"{"x":{"y":[1,{"z":"\"}{]"}],"w":"é\\"},"id":1,"arr":[[],{},-2.5e3,null,true],"name":"a"}"#
        ),
        policy(1, "a")
    );
    for bad in [
        r#"{"id":1,"name":"a","x":[1,}"#,
        r#"{"id":1,"name":"a","x":tru}"#,
        r#"{"id":1,"x":{"k" 1},"name":"a"}"#,
        r#"{"id":1,"x":"\q","name":"a"}"#,
    ] {
        assert!(serde_json::from_str::<Policy>(bad).is_err(), "{bad}");
    }
    assert_eq!(
        read(r#"{"id":1,"name":"first","name":"second","id":"x"}"#),
        policy(1, "first")
    );
    assert_eq!(
        read(r#"{"id":2,"name":"b","note":"hi","count":4,"seven":8,"inner":{"xs":[1]}}"#),
        Policy {
            note: Some("hi".into()),
            count: 4,
            seven: 8,
            inner: Some(Inner { xs: vec![1] }),
            ..policy(2, "b")
        }
    );
    assert_eq!(read(r#"{"id":2,"name":"b","note":null}"#), policy(2, "b"));
    assert_eq!(
        decode_err::<Policy>(r#"{"name":"a"}"#),
        "missing field `id` in Policy"
    );
    assert_eq!(read(r#"{"id":3.0,"name":"a"}"#), policy(3, "a"));
    assert_eq!(
        decode_err::<Policy>(r#"{"id":1.5,"name":"a"}"#),
        "id: expected integer, got number"
    );
    assert_eq!(
        decode_err::<Policy>(r#"{"id":256,"name":"a"}"#),
        "id: 256 out of range for u8"
    );
    assert_eq!(
        decode_err::<Policy>(r#"{"id":"1","name":"a"}"#),
        "id: expected integer, got string"
    );
    assert_eq!(
        decode_err::<Policy>(r#"{"id":1,"name":"a","inner":{"xs":[1,"no"]}}"#),
        "inner: xs: [1]: expected integer, got string"
    );
    assert_eq!(
        decode_err::<Policy>(r#"[1,"a"]"#),
        "Policy: expected object"
    );
    let tagged = |text: &str| serde_json::from_str::<Tagged>(text).unwrap();
    assert_eq!(tagged(r#""Plain""#), Tagged::Plain);
    assert_eq!(tagged(r#"{"Boxed":4}"#), Tagged::Boxed(4));
    assert_eq!(tagged(r#"{"Pair":{"a":5}}"#), Tagged::Pair { a: 5 });
    for two_keys in [r#"{"Boxed":1,"Pair":{"a":1}}"#, "{}", "3"] {
        assert_eq!(
            decode_err::<Tagged>(two_keys),
            "Tagged: expected variant tag (string or single-key object)",
            "{two_keys}"
        );
    }
    assert_eq!(
        decode_err::<Tagged>(r#""Other""#),
        "unknown variant `Other` of Tagged"
    );
    assert_eq!(
        decode_err::<Tagged>(r#"{"Pair":{"a":-1}}"#),
        "a: -1 out of range for u8"
    );
    assert_eq!(
        decode_err::<Tagged>(r#"{"Boxed":"x"}"#),
        "Boxed: expected integer, got string"
    );
    assert_eq!(
        decode_err::<Vec<Tagged>>(r#"["Plain",{"Pair":{}}]"#),
        "[1]: missing field `a` in Tagged::Pair"
    );
    assert_eq!(
        serde_json::from_str::<Vec<f64>>(r#"[1,2.5,"nan","inf","-inf"]"#).unwrap()[1..4]
            .iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>(),
        ["2.5", "NaN", "inf"]
    );
    assert!(decode_err::<Policy>(r#"{"id":1,"name":"a"} x"#).contains("trailing characters"));
}
