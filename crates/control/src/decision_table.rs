//! Decision-table golden: every interval decision of DUF, DUFP, DUFP-F and
//! DNPC over seeded synthetic metric streams, pinned byte for byte in
//! `crates/control/golden/decision_table.jsonl`.
//!
//! The workload goldens (`tests/golden/`) drive the controllers through the
//! simulator, which never reaches several branches: highly memory- and
//! compute-intensive phases with bandwidth-only drops, drops just either
//! side of `s` and `s − ε`, the ablation switches, a lingering uncore
//! read-back (coupling 2). The streams here are built to reach them. Each
//! JSONL line is one interval of one case: the actions the controller
//! reports, the in-memory actuator log, the exact knob values afterwards
//! and the decision events it recorded.
//!
//! To bless new behavior after an intentional change:
//!
//! ```text
//! DUFP_REGEN_GOLDEN=1 cargo test -p dufp-control decision_table
//! ```

use crate::actuators::test_support::MemActuators;
use crate::config::EPSILON;
use crate::{Actuators, ControlConfig, Controller, Dnpc, Duf, Dufp, DufpF};
use dufp_counters::IntervalMetrics;
use dufp_telemetry::Telemetry;
use dufp_types::{
    ArchSpec, BytesPerSec, FlopsPerSec, Hertz, Instant, OpIntensity, Ratio, Seconds, Watts,
};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Intervals per case: long enough to walk a knob from its default to its
/// floor and to outlast the 25-interval re-probe window.
const INTERVALS: u64 = 120;

/// `(operational intensity, FLOPS/s at scale 1)` per phase class: highly
/// memory-intensive, memory-intensive, mid-range, highly compute-intensive.
const CLASSES: [(f64, f64); 4] = [(0.01, 9e8), (0.4, 3.2e10), (5.0, 1e11), (200.0, 4e11)];

#[derive(Debug, Clone, Copy)]
enum Kind {
    Duf,
    Dufp,
    DufpF,
    Dnpc,
}

/// One golden case: a controller at a tolerance, with config switches.
struct Case {
    name: &'static str,
    kind: Kind,
    slowdown_pct: f64,
    tweak: fn(&mut ControlConfig),
    /// The uncore reads back below the maximum after a reset (coupling 2).
    lingering_uncore: bool,
}

fn none(_: &mut ControlConfig) {}

const fn case(name: &'static str, kind: Kind, slowdown_pct: f64) -> Case {
    Case {
        name,
        kind,
        slowdown_pct,
        tweak: none,
        lingering_uncore: false,
    }
}

fn cases() -> Vec<Case> {
    vec![
        case("duf_0", Kind::Duf, 0.0),
        case("duf_5", Kind::Duf, 5.0),
        case("duf_20", Kind::Duf, 20.0),
        case("dufp_0", Kind::Dufp, 0.0),
        case("dufp_5", Kind::Dufp, 5.0),
        case("dufp_20", Kind::Dufp, 20.0),
        case("dufpf_0", Kind::DufpF, 0.0),
        case("dufpf_5", Kind::DufpF, 5.0),
        case("dufpf_20", Kind::DufpF, 20.0),
        case("dnpc_0", Kind::Dnpc, 0.0),
        case("dnpc_5", Kind::Dnpc, 5.0),
        case("dnpc_20", Kind::Dnpc, 20.0),
        Case {
            tweak: |c| c.coupling1 = false,
            ..case("dufp_5_no_coupling1", Kind::Dufp, 5.0)
        },
        Case {
            lingering_uncore: true,
            ..case("dufp_5_lingering_uncore", Kind::Dufp, 5.0)
        },
        Case {
            tweak: |c| c.coupling2 = false,
            lingering_uncore: true,
            ..case("dufp_5_no_coupling2", Kind::Dufp, 5.0)
        },
        Case {
            tweak: |c| c.overshoot_reset = false,
            ..case("dufp_5_no_overshoot_reset", Kind::Dufp, 5.0)
        },
        Case {
            tweak: |c| c.reprobe_intervals = 0,
            ..case("duf_5_reprobe_0", Kind::Duf, 5.0)
        },
        Case {
            tweak: |c| c.reprobe_intervals = 0,
            ..case("dufp_5_reprobe_0", Kind::Dufp, 5.0)
        },
        Case {
            tweak: |c| c.reprobe_intervals = 0,
            ..case("dufpf_5_reprobe_0", Kind::DufpF, 5.0)
        },
        Case {
            tweak: |c| c.cumulative_guard = true,
            ..case("dufp_0_cumulative_guard", Kind::Dufp, 0.0)
        },
        Case {
            tweak: |c| c.cumulative_guard = true,
            ..case("dufp_5_cumulative_guard", Kind::Dufp, 5.0)
        },
        Case {
            tweak: |c| c.cumulative_guard = true,
            ..case("dufp_20_cumulative_guard", Kind::Dufp, 20.0)
        },
    ]
}

/// splitmix64: a tiny seeded generator, so the streams need no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick(&mut self, xs: &[f64]) -> f64 {
        xs[self.below(xs.len())]
    }
}

/// The controller under test, kept concrete so its actions can be read.
enum Ctl {
    Duf(Duf),
    Dufp(Dufp),
    DufpF(DufpF),
    Dnpc(Dnpc),
}

impl Ctl {
    fn new(kind: Kind, cfg: ControlConfig, tel: &Telemetry) -> Self {
        let tel = tel.for_socket(0);
        match kind {
            Kind::Duf => Ctl::Duf(Duf::new(cfg).with_telemetry(tel)),
            Kind::Dufp => Ctl::Dufp(Dufp::new(cfg).with_telemetry(tel)),
            Kind::DufpF => Ctl::DufpF(DufpF::new(cfg).with_telemetry(tel)),
            Kind::Dnpc => Ctl::Dnpc(Dnpc::new(cfg).with_telemetry(tel)),
        }
    }

    fn controller(&mut self) -> &mut dyn Controller {
        match self {
            Ctl::Duf(c) => c,
            Ctl::Dufp(c) => c,
            Ctl::DufpF(c) => c,
            Ctl::Dnpc(c) => c,
        }
    }

    fn actions(&self) -> String {
        match self {
            Ctl::Duf(c) => format!("uncore={:?}", c.last_action()),
            Ctl::Dufp(c) => format!(
                "uncore={:?} cap={:?}",
                c.last_uncore_action(),
                c.last_cap_action()
            ),
            Ctl::DufpF(c) => format!("freq={:?}", c.last_freq_action()),
            Ctl::Dnpc(c) => format!("cap={:?}", c.last_action()),
        }
    }
}

/// Relative drops a stream draws from: zero (most often, so knobs walk
/// down), and values just either side of `s − ε`, `s` and `s + ε`.
fn drops(s: f64, e: f64) -> Vec<f64> {
    [
        0.0,
        0.0,
        0.0,
        0.0,
        0.003,
        s - e - 0.002,
        s - e + 0.002,
        s - 0.002,
        s + 0.002,
        s + e - 0.002,
        s + e + 0.002,
        s + 0.04,
        0.25,
    ]
    .iter()
    .map(|d| d.max(0.0))
    .collect()
}

/// How a phase draws its FLOPS/s drops.
#[derive(Clone, Copy, PartialEq)]
enum Mood {
    /// Anything from [`drops`].
    Mixed,
    /// Inside the tolerance but close to it, so the cumulative deficit
    /// grows while no single interval violates.
    Drain,
    /// Mixed for a few intervals, then no drop at all: the knobs sit out a
    /// probe floor's re-probe window and probe below it again.
    Settle,
}

/// Runs one case and appends its JSONL lines to `out`.
fn run_case(idx: usize, case: &Case, out: &mut String) {
    let mut cfg =
        ControlConfig::from_arch(&ArchSpec::yeti(), Ratio::from_percent(case.slowdown_pct))
            .expect("valid config");
    (case.tweak)(&mut cfg);
    let tel = Telemetry::new(1 << 16);
    let mut ctl = Ctl::new(case.kind, cfg.clone(), &tel);
    let mut act = MemActuators::new(cfg.clone());
    if case.lingering_uncore {
        act.uncore_readback_override = Some(Hertz::from_ghz(1.8));
    }
    let mut rng = Rng(0xD0F_5EED + idx as u64);
    let (s, e) = (cfg.slowdown.value(), EPSILON);
    let all = drops(s, e);
    let drain: Vec<f64> = [0.003, s - e - 0.002, s - e + 0.002, s - 0.002]
        .iter()
        .map(|d| d.max(0.0))
        .collect();
    let freq_max = cfg.core_freq_max.value();

    let (mut class, mut scale, mut left, mut age, mut mood) = (usize::MAX, 1.0, 0, 0, Mood::Mixed);
    for i in 0..INTERVALS {
        if left == 0 {
            // Every boundary is a phase change: a class flip, or the same
            // class at 2.5× the FLOPS/s.
            let next = rng.below(CLASSES.len());
            scale = if next == class { scale * 2.5 } else { 1.0 };
            class = next;
            mood = [Mood::Mixed, Mood::Drain, Mood::Settle][rng.below(3)];
            left = if mood == Mood::Settle { 40 } else { 10 } + rng.below(40);
            age = 0;
        }
        left -= 1;
        age += 1;
        let (oi, flops) = CLASSES[class];
        let calm = mood == Mood::Settle && age > 6;
        let df = match mood {
            _ if calm => 0.0,
            Mood::Drain => rng.pick(&drain),
            _ => rng.pick(&all),
        };
        let db = if calm || rng.below(2) == 0 {
            0.0
        } else {
            rng.pick(&all)
        };
        let flops = flops * scale * (1.0 - df);
        let bw = CLASSES[class].1 * scale / oi * (1.0 - db);
        let power =
            (act.cap_long().value() + rng.pick(&[-25.0, -12.0, -6.0, -1.0, 2.0, 5.0])).max(30.0);
        let freq = freq_max * (1.0 - rng.pick(&all).min(0.5));
        let m = IntervalMetrics {
            at: Instant(i * 200_000),
            interval: Seconds(0.2),
            flops: FlopsPerSec(flops),
            bandwidth: BytesPerSec(bw),
            oi: OpIntensity(flops / bw),
            pkg_power: Watts(power),
            dram_power: Watts(20.0),
            core_freq: Hertz(freq),
        };
        ctl.controller()
            .on_interval(&m, &mut act)
            .expect("in-memory actuators never fail");

        // One compact string per event: what moved, why, and the context
        // (tick, phase sequence, OI class, FLOPS ratio) it was stamped with.
        let events: Vec<String> = tel
            .drain_events()
            .iter()
            .map(|ev| {
                format!(
                    "\"{:?} {}>{} {:?} t{} p{} {} {}\"",
                    ev.actuator,
                    ev.old,
                    ev.new,
                    ev.reason,
                    ev.tick,
                    ev.phase,
                    ev.oi_class.as_deref().unwrap_or("-"),
                    ev.flops_ratio.map_or("-".to_string(), |r| r.to_string()),
                )
            })
            .collect();
        let log: Vec<String> = std::mem::take(&mut act.log)
            .iter()
            .map(|l| format!("\"{l}\""))
            .collect();
        writeln!(
            out,
            "{{\"case\":\"{}\",\"i\":{i},\"actions\":\"{}\",\"log\":[{}],\
             \"knobs\":[{},{},{},{}],\"events\":[{}]}}",
            case.name,
            ctl.actions(),
            log.join(","),
            act.uncore().value(),
            act.cap_long().value(),
            act.cap_short().value(),
            act.core_freq_cap().value(),
            events.join(","),
        )
        .expect("write to string");
    }
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden/decision_table.jsonl")
}

#[test]
fn decision_table_matches_golden() {
    let mut out = String::new();
    for (idx, case) in cases().iter().enumerate() {
        run_case(idx, case, &mut out);
    }
    let path = golden_path();
    if std::env::var_os("DUFP_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, &out).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}; bless with DUFP_REGEN_GOLDEN=1 cargo test -p dufp-control decision_table",
            path.display()
        )
    });
    if let Some((n, (want, got))) = golden
        .lines()
        .zip(out.lines())
        .enumerate()
        .find(|(_, (w, g))| w != g)
    {
        panic!(
            "decision table drifted at line {}:\n golden: {want}\n    now: {got}",
            n + 1
        );
    }
    assert_eq!(
        golden.lines().count(),
        out.lines().count(),
        "decision table length drifted"
    );
}
