//! Byte pins for the two checkpoint payloads a crash rebuilds state
//! from: the run journal's `CheckpointState` and the fleet journal's
//! `CoreSnapshot`.
//!
//! A resumed run or a promoted standby decodes checkpoints that an older
//! build may have written, so their bytes are a compatibility surface:
//! each golden under `tests/golden/checkpoint/` is rebuilt from scratch
//! and compared byte for byte, then decoded and re-encoded to the same
//! bytes.
//!
//! To bless new bytes after an intentional format change:
//!
//! ```text
//! DUFP_REGEN_GOLDEN=1 cargo test --test checkpoint_goldens
//! ```

use dufp::{run_journaled, CheckpointState, ControllerKind, ExperimentSpec, JournalOptions};
use dufp_journal::{list_checkpoints, load_checkpoint, TestDir};
use dufp_msr::FaultPlan;
use dufp_net::{CoordinatorConfig, CoreSnapshot, FleetCore, NodeState, Trust};
use dufp_sim::SimConfig;
use dufp_telemetry::Telemetry;
use dufp_types::{Ratio, Watts};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Random write noise, failing cap writes on both sockets over the last
/// three intervals before the checkpoint at interval 25 (tick 5000), and
/// failing uncore writes on socket 0 for the ten before it: the
/// injector's state is non-null and a knob each dynamic controller
/// writes carries a failure streak. The crash cuts the run short once
/// that checkpoint is on disk.
const PLAN: &str = "seed=42;write,p=0.01;write,reg=cap,cpu=0-31,window=4500+600;\
                    write,reg=uncore,cpu=0-15,window=3000+2100;crash,at=5100";

fn golden(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/checkpoint")
        .join(name)
}

/// Compares `bytes` with the golden `name`, or rewrites it under
/// `DUFP_REGEN_GOLDEN=1`.
fn assert_golden(name: &str, bytes: &[u8]) {
    let path = golden(name);
    if std::env::var_os("DUFP_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, bytes).unwrap();
        return;
    }
    let want = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert!(
        want == bytes,
        "{name} drifted from its golden:\n want {}\n  got {}",
        String::from_utf8_lossy(&want),
        String::from_utf8_lossy(bytes)
    );
}

/// The first checkpoint of a 2-socket CG run under [`PLAN`].
fn run_checkpoint(controller: ControllerKind) -> Vec<u8> {
    let mut sim = SimConfig::yeti(7);
    sim.arch.sockets = 2;
    let spec = ExperimentSpec {
        sim,
        app: "CG".into(),
        controller,
        trace: None,
        interval_ms: None,
        telemetry: false,
        fault_plan: Some(FaultPlan::parse(PLAN).expect("valid plan")),
        engine: Default::default(),
    };
    let dir = TestDir::new("cp-golden");
    let err = run_journaled(&spec, 7, &JournalOptions::new(dir.path())).unwrap_err();
    assert!(err.to_string().contains("crash at tick"), "{err}");
    let (seq, path) = list_checkpoints(dir.path()).unwrap().remove(0);
    assert_eq!(seq, 25);
    load_checkpoint(&path).unwrap()
}

#[test]
fn run_checkpoints_match_their_goldens_for_every_controller_kind() {
    let slowdown = Ratio::from_percent(10.0);
    let kinds = [
        ("default", ControllerKind::Default),
        ("duf", ControllerKind::Duf { slowdown }),
        ("dufp", ControllerKind::Dufp { slowdown }),
        ("dufpf", ControllerKind::DufpF { slowdown }),
        ("dnpc", ControllerKind::Dnpc { slowdown }),
        ("cap100", ControllerKind::StaticCap { cap: Watts(100.0) }),
    ];
    for (name, kind) in kinds {
        let bytes = run_checkpoint(kind);
        let text = String::from_utf8(bytes.clone()).unwrap();
        assert!(!text.contains("\"injector\":null"), "{name}: {text}");
        // The fixed policies write at most once, before the window.
        if !["default", "cap100"].contains(&name) {
            assert!(
                (1..10).any(|n| text.contains(&format!("\"streak\":{n}"))),
                "{name}: no knob carries a failure streak: {text}"
            );
        }
        assert_golden(&format!("{name}.json"), &bytes);
        let again = CheckpointState::decode(&bytes).unwrap().encode().unwrap();
        assert!(again == bytes, "{name} does not re-encode to its bytes");
    }
}

fn fleet_cfg() -> CoordinatorConfig {
    CoordinatorConfig::new("virtual", Watts(600.0)).with_epoch(Duration::from_millis(1000))
}

/// A core that has seen every node fate: two names evicted (admitted in
/// unsorted order), one quarantined, one departed, one dead, two honest.
/// Returns it just after a promotion (inside its hold-down window) and
/// the same core once fenced by a higher term.
fn fleet_cores() -> (Vec<u8>, Vec<u8>) {
    let mut core = FleetCore::new(&fleet_cfg(), Telemetry::disabled());
    let names = ["zeta", "alpha", "mallory", "dave", "carol", "bob", "erin"];
    let slots: Vec<usize> = names
        .iter()
        .enumerate()
        .map(|(i, n)| {
            let floor = Watts(60.0 + i as f64);
            core.admit(n.to_string(), "CG".into(), floor, Watts(125.0), 0)
                .unwrap()
        })
        .collect();
    for epoch in 1..=6u64 {
        let now = epoch * 1000;
        for (i, &slot) in slots.iter().enumerate() {
            let seq = epoch;
            let honest = (Watts(90.0 + i as f64), Watts(70.0 + epoch as f64), true);
            match names[i] {
                "zeta" | "alpha" => {
                    core.on_report(slot, seq, Watts(f64::NAN), Watts(-1.0), true, now - 300);
                }
                "mallory" if epoch >= 5 => {
                    core.on_report(slot, seq, Watts(f64::NAN), Watts(-1.0), true, now - 300);
                }
                "carol" if epoch >= 2 => {}
                _ => {
                    core.on_report(slot, seq, honest.0, honest.1, honest.2, now - 300);
                }
            }
        }
        if epoch == 3 {
            core.on_goodbye(slots[3]);
        }
        core.epoch_once(now);
    }
    let views = core.views();
    let state = |n: &str| views.iter().find(|v| v.name == n).unwrap().state;
    assert_eq!(state("zeta"), NodeState::Evicted);
    assert_eq!(state("alpha"), NodeState::Evicted);
    assert_eq!(state("dave"), NodeState::Departed);
    assert_eq!(state("carol"), NodeState::Dead);
    assert_eq!(core.trust(slots[2]), Some(Trust::Quarantined));

    core.promote();
    // Bob and Mallory re-attach under the new term; Erin stays pinned.
    core.on_report(slots[5], 7, Watts(95.0), Watts(80.0), true, 6500);
    core.on_report(slots[2], 7, Watts(f64::NAN), Watts(-1.0), true, 6500);
    core.epoch_once(7000);
    assert_eq!(core.trust(slots[2]), Some(Trust::Quarantined));
    let promoted = core.snapshot_bytes().unwrap();
    core.force_fence(core.term() + 3);
    assert!(core.fenced());
    (promoted, core.snapshot_bytes().unwrap())
}

#[test]
fn fleet_snapshots_match_their_goldens() {
    let (promoted, fenced) = fleet_cores();
    for (name, bytes) in [
        ("core_promoted.json", promoted),
        ("core_fenced.json", fenced),
    ] {
        let text = String::from_utf8(bytes.clone()).unwrap();
        assert!(text.contains(r#""blacklist":["alpha","zeta"]"#), "{text}");
        assert_golden(name, &bytes);
        let snap: CoreSnapshot = serde_json::from_slice(&bytes).unwrap();
        let back = FleetCore::from_snapshot(&fleet_cfg(), snap, Telemetry::disabled());
        assert!(
            back.snapshot_bytes().unwrap() == bytes,
            "{name} does not re-encode to its bytes"
        );
    }
}
