//! Declarative fault plans for chaos testing the actuation path.
//!
//! Real deployments see more than one failure mode at a time: a flaky
//! `/dev/cpu/N/msr` that fails 1 % of writes, a core that goes offline
//! for two seconds mid-run, an energy counter that stops advancing. A
//! [`FaultPlan`] describes such a scenario
//! as a list of [`FaultRule`]s, each scoping *what* fails (access kind,
//! register, CPU range) and *when* (always, with a seeded probability, at
//! the Nth access, or over a window). Plans are fully deterministic given
//! their seed, so a chaos run is reproducible from the command line.
//!
//! The plan is compiled into a [`FaultInjector`], which the backends
//! consult on every access: [`crate::FakeMsr`] counts matching accesses
//! per rule, while clocked backends (the simulator) pass their tick so
//! `at=`/`window=` rules align with simulated time.

use dufp_types::{splitmix, Error, Result};
use parking_lot::Mutex;
use serde::{DeError, Deserialize, Reader, Serialize};

/// The kind of hardware access a rule can match.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultOp {
    /// MSR (or capper) reads.
    Read,
    /// MSR (or capper) writes.
    Write,
    /// Performance-counter sampling (the simulator's telemetry path).
    Sample,
    /// A whole-process crash at a scheduled tick. Crash rules are never
    /// consulted per access (so they do not perturb other rules' match
    /// counters); the runner polls [`FaultPlan::crash_tick`] instead and
    /// aborts the process there.
    Crash,
    /// Any hardware access kind (does not include [`FaultOp::Crash`]).
    Any,
}

/// When a structurally matching access actually fails.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultWhen {
    /// Every matching access fails.
    Always,
    /// Each matching access fails independently with this probability,
    /// drawn from the plan's seeded generator.
    Probability {
        /// Failure probability in `[0, 1]`.
        p: f64,
    },
    /// Exactly the access at this clock value fails (the backend's tick
    /// when it has a clock, the per-rule match index otherwise).
    At {
        /// Clock value of the single failing access.
        at: u64,
    },
    /// All matching accesses in `[from, from + count)` fail — a burst, or
    /// a "persistent for K ticks" outage.
    Window {
        /// First failing clock value.
        from: u64,
        /// Length of the failure window.
        count: u64,
    },
}

/// One scoped failure rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultRule {
    /// Which access kind fails.
    pub op: FaultOp,
    /// Restrict to one register address (`None` = any register).
    #[serde(default)]
    pub register: Option<u32>,
    /// Restrict to an inclusive CPU range (`None` = any CPU). Socket-
    /// scoped faults are expressed as that socket's CPU range.
    #[serde(default)]
    pub cpus: Option<(usize, usize)>,
    /// The failure schedule.
    pub when: FaultWhen,
}

impl FaultRule {
    fn matches(&self, op: FaultOp, cpu: usize, register: u32) -> bool {
        let op_ok = matches!(self.op, FaultOp::Any) || self.op == op;
        let reg_ok = self.register.is_none_or(|r| r == register);
        let cpu_ok = self.cpus.is_none_or(|(lo, hi)| (lo..=hi).contains(&cpu));
        op_ok && reg_ok && cpu_ok
    }
}

/// A reproducible failure scenario: a seed plus scoped rules.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for the probabilistic rules (`p=`): same seed, same failures.
    #[serde(default)]
    pub seed: u64,
    /// The rules; every structurally matching rule is evaluated and the
    /// access fails if any rule fires.
    #[serde(default)]
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// A plan with no rules (nothing ever fails).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether this plan can ever inject a fault.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The earliest scheduled process crash (`crash,at=N` rules), if any.
    /// The runner checks this against its tick counter and aborts there.
    pub fn crash_tick(&self) -> Option<u64> {
        self.rules
            .iter()
            .filter_map(|r| match (r.op, r.when) {
                (FaultOp::Crash, FaultWhen::At { at }) => Some(at),
                _ => None,
            })
            .min()
    }

    /// Parses the compact command-line syntax:
    ///
    /// ```text
    /// seed=42;write,reg=cap,p=0.01;write,reg=cap,cpu=16-31,window=100+400
    /// ```
    ///
    /// Segments are separated by `;`. A `seed=N` segment sets the seed;
    /// every other segment is one rule of comma-separated items: an access
    /// kind (`read`/`write`/`sample`/`any`), an optional `reg=` (`cap`,
    /// `uncore`, `energy`, `dram-energy`, `perf` or a raw `0x..`/decimal
    /// address), an optional `cpu=N` or `cpu=A-B` range, and a schedule
    /// (`always`, `p=0.01`, `at=N`, `window=FROM+COUNT`; default `always`).
    pub fn parse(text: &str) -> Result<Self> {
        let (seed, rules) = parse_plan(text, "fault plan", Self::parse_rule)?;
        Ok(FaultPlan { seed, rules })
    }

    fn parse_rule(segment: &str) -> std::result::Result<FaultRule, String> {
        let (mut register, mut cpus) = (None, None);
        let (op, when, when_item) = parse_rule_items(segment, |item| {
            if let Some(reg) = item.strip_prefix("reg=") {
                register = Some(Self::parse_register(reg)?);
            } else if let Some(range) = item.strip_prefix("cpu=") {
                cpus = Some(parse_range(range)?);
            } else {
                return Ok(false);
            }
            Ok(true)
        })?;
        let op = match op {
            "read" => FaultOp::Read,
            "write" => FaultOp::Write,
            "sample" => FaultOp::Sample,
            "crash" => FaultOp::Crash,
            "any" => FaultOp::Any,
            _ => {
                return Err(reject(
                    op,
                    "rule must start with read|write|sample|crash|any",
                ))
            }
        };
        if op == FaultOp::Crash && !matches!(when, FaultWhen::At { .. }) {
            return Err(reject(
                when_item.unwrap_or("crash"),
                "crash rules require an at=TICK schedule",
            ));
        }
        Ok(FaultRule {
            op,
            register,
            cpus,
            when,
        })
    }

    fn parse_register(text: &str) -> std::result::Result<u32, String> {
        use crate::registers::*;
        Ok(match text {
            "cap" => MSR_PKG_POWER_LIMIT,
            "uncore" => MSR_UNCORE_RATIO_LIMIT,
            "energy" => MSR_PKG_ENERGY_STATUS,
            "dram-energy" => MSR_DRAM_ENERGY_STATUS,
            "perf" => IA32_PERF_CTL,
            raw => {
                let parsed = match raw.strip_prefix("0x") {
                    Some(hex) => u32::from_str_radix(hex, 16),
                    None => raw.parse(),
                };
                parsed.map_err(|_| format!("unknown register {raw}"))?
            }
        })
    }
}

/// Formats a rejected plan item: every plan error names the item.
pub fn reject(item: &str, why: impl std::fmt::Display) -> String {
    format!("`{item}`: {why}")
}

/// The plan grammar both fault-plan languages (this one and the network
/// plans of `dufp-net`) share: `;`-separated segments, where `seed=N` sets
/// the plan seed and every other non-empty segment is one rule that `rule`
/// parses (typically through [`parse_rule_items`]). Errors name the item
/// they reject (see [`reject`]) and become an [`Error::InvalidValue`] for
/// `plan`.
pub fn parse_plan<R>(
    text: &str,
    plan: &'static str,
    mut rule: impl FnMut(&str) -> std::result::Result<R, String>,
) -> Result<(u64, Vec<R>)> {
    let bad = |why: String| Error::invalid(plan, why);
    let mut seed = 0;
    let mut rules = Vec::new();
    for segment in text.split(';').map(str::trim).filter(|s| !s.is_empty()) {
        if let Some(value) = segment.strip_prefix("seed=") {
            seed = value
                .trim()
                .parse()
                .map_err(|_| bad(reject(segment, "seed wants an unsigned integer")))?;
        } else {
            rules.push(rule(segment).map_err(bad)?);
        }
    }
    Ok((seed, rules))
}

/// Tokenizes one rule, `op,item,item,...`. Schedule items (`always`,
/// `p=P`, `at=N`, `window=FROM+COUNT`; the last one wins, default
/// `always`) are parsed here; every other item goes to `scope`, which
/// applies the plan's own items and returns `Ok(false)` for one it does
/// not know. Returns the op keyword, the schedule and the schedule item as
/// written.
pub fn parse_rule_items<'a>(
    segment: &'a str,
    mut scope: impl FnMut(&'a str) -> std::result::Result<bool, String>,
) -> std::result::Result<(&'a str, FaultWhen, Option<&'a str>), String> {
    let mut items = segment.split(',').map(str::trim);
    let op = items.next().unwrap_or_default();
    let (mut when, mut when_item) = (FaultWhen::Always, None);
    for item in items {
        let known = match parse_schedule(item) {
            Some(Ok(schedule)) => {
                (when, when_item) = (schedule, Some(item));
                Ok(true)
            }
            Some(Err(why)) => Err(why),
            None => scope(item),
        };
        match known {
            Ok(true) => {}
            Ok(false) => return Err(reject(item, "unknown item")),
            Err(why) => return Err(reject(item, why)),
        }
    }
    Ok((op, when, when_item))
}

/// A schedule item, or `None` when `item` is not one.
fn parse_schedule(item: &str) -> Option<std::result::Result<FaultWhen, String>> {
    let int = |v: &str| v.parse::<u64>().map_err(|_| format!("bad number {v}"));
    let when = if item == "always" {
        Ok(FaultWhen::Always)
    } else if let Some(p) = item.strip_prefix("p=") {
        match p.parse::<f64>() {
            Ok(p) if (0.0..=1.0).contains(&p) => Ok(FaultWhen::Probability { p }),
            _ => Err("probability must lie in [0, 1]".to_string()),
        }
    } else if let Some(at) = item.strip_prefix("at=") {
        int(at).map(|at| FaultWhen::At { at })
    } else if let Some(window) = item.strip_prefix("window=") {
        match window.split_once('+') {
            None => Err("window wants FROM+COUNT".to_string()),
            Some((from, count)) => match (int(from), int(count)) {
                (Ok(_), Ok(0)) => Err("window length must be positive".to_string()),
                (Ok(from), Ok(count)) => Ok(FaultWhen::Window { from, count }),
                (Err(e), _) | (_, Err(e)) => Err(e),
            },
        }
    } else {
        return None;
    };
    Some(when)
}

/// An inclusive `N` or `A-B` range item value (`cpu=`, `peer=`).
pub fn parse_range(range: &str) -> std::result::Result<(usize, usize), String> {
    let (lo, hi) = range.split_once('-').unwrap_or((range, range));
    let bound = |v: &str| v.parse::<usize>().map_err(|_| format!("bad range {range}"));
    let (lo, hi) = (bound(lo)?, bound(hi)?);
    if lo > hi {
        return Err(format!("empty range {range}"));
    }
    Ok((lo, hi))
}

impl FaultWhen {
    /// Whether the schedule fires at clock value `now`. `p=` rules draw
    /// from `rng`; without one (a check that must not consume the stream)
    /// they never fire.
    #[inline]
    pub fn fires(self, now: u64, rng: Option<&mut u64>) -> bool {
        match self {
            FaultWhen::Always => true,
            FaultWhen::Probability { p } => rng.is_some_and(|rng| splitmix::unit_f64(rng) < p),
            FaultWhen::At { at } => now == at,
            FaultWhen::Window { from, count } => now >= from && now - from < count,
        }
    }
}

/// Per-rule match counters plus the probabilistic draw state.
#[derive(Debug)]
struct InjectorState {
    /// SplitMix64 state for `Probability` rules.
    rng: u64,
    /// How many structurally matching accesses each rule has seen; stands
    /// in for the clock on backends without one.
    hits: Vec<u64>,
}

/// Serializable runtime state of a [`FaultInjector`] — the rng position
/// and per-rule match counters. Checkpointed so a resumed run's injected
/// faults continue exactly where the crashed run's left off.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectorSnapshot {
    /// SplitMix64 state.
    pub rng: u64,
    /// Per-rule match counters, in plan rule order.
    pub hits: Vec<u64>,
}

// The rng state is a uniform u64. It travels as the i64 with the same
// bits, unchanged below 2^63 and negative above: the form every existing
// checkpoint holds.
impl Serialize for InjectorSnapshot {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"rng\":");
        (self.rng as i64).write_json(out);
        out.push_str(",\"hits\":");
        self.hits.write_json(out);
        out.push('}');
    }
}

impl Deserialize for InjectorSnapshot {
    fn read_json(r: &mut Reader<'_>) -> std::result::Result<Self, DeError> {
        let (mut rng, mut hits) = (None, None);
        // A value that is not an object has no `rng` either.
        r.object("missing field rng", |r, key| {
            match key {
                "rng" if rng.is_none() => rng = Some(i64::read_json(r)?),
                "hits" if hits.is_none() => hits = Some(Vec::read_json(r)?),
                _ => r.skip()?,
            }
            Ok(())
        })?;
        let missing = |k| DeError::custom(format!("missing field {k}"));
        Ok(InjectorSnapshot {
            rng: rng.ok_or_else(|| missing("rng"))? as u64,
            hits: hits.ok_or_else(|| missing("hits"))?,
        })
    }
}

/// A compiled, thread-safe [`FaultPlan`] that backends consult per access.
#[derive(Debug)]
pub struct FaultInjector {
    rules: Vec<FaultRule>,
    state: Mutex<InjectorState>,
}

impl FaultInjector {
    /// Compiles a plan.
    pub fn new(plan: FaultPlan) -> Self {
        let hits = vec![0; plan.rules.len()];
        FaultInjector {
            rules: plan.rules,
            state: Mutex::new(InjectorState {
                // Offset so seed 0 still produces a scrambled stream.
                rng: plan.seed ^ splitmix::GAMMA,
                hits,
            }),
        }
    }

    /// Captures the current runtime state (for checkpoints).
    pub fn snapshot(&self) -> InjectorSnapshot {
        let state = self.state.lock();
        InjectorSnapshot {
            rng: state.rng,
            hits: state.hits.clone(),
        }
    }

    /// Restores a checkpointed runtime state. The snapshot must come from
    /// an injector compiled from the same plan (same rule count).
    pub fn restore(&self, snap: &InjectorSnapshot) -> Result<()> {
        let mut state = self.state.lock();
        if snap.hits.len() != self.rules.len() {
            return Err(Error::invalid(
                "injector snapshot",
                format!(
                    "snapshot has {} rule counter(s), plan has {} rule(s)",
                    snap.hits.len(),
                    self.rules.len()
                ),
            ));
        }
        state.rng = snap.rng;
        state.hits = snap.hits.clone();
        Ok(())
    }

    /// Whether the given access should fail, using per-rule match counts
    /// as the clock (un-clocked backends like [`crate::FakeMsr`]).
    pub fn should_fail(&self, op: FaultOp, cpu: usize, register: u32) -> bool {
        self.should_fail_at(op, cpu, register, None)
    }

    /// Whether the given access should fail. `clock` is the backend's
    /// notion of time (e.g. the simulator tick); when `None`, each rule's
    /// own match counter is used instead.
    pub fn should_fail_at(
        &self,
        op: FaultOp,
        cpu: usize,
        register: u32,
        clock: Option<u64>,
    ) -> bool {
        if self.rules.is_empty() {
            return false;
        }
        let mut state = self.state.lock();
        let mut fail = false;
        for (idx, rule) in self.rules.iter().enumerate() {
            if !rule.matches(op, cpu, register) {
                continue;
            }
            let now = clock.unwrap_or(state.hits[idx]);
            state.hits[idx] += 1;
            fail |= rule.when.fires(now, Some(&mut state.rng));
        }
        fail
    }

    /// Convenience: `should_fail` wrapped into the standard error for a
    /// failed MSR access.
    pub fn check_msr(&self, op: FaultOp, cpu: usize, register: u32) -> Result<()> {
        if self.should_fail(op, cpu, register) {
            Err(Error::msr(
                register,
                format!("injected {op:?} fault (plan)"),
            ))
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registers::{MSR_PKG_POWER_LIMIT, MSR_UNCORE_RATIO_LIMIT};

    #[test]
    fn empty_plan_never_fails() {
        let inj = FaultInjector::new(FaultPlan::none());
        for _ in 0..100 {
            assert!(!inj.should_fail(FaultOp::Write, 0, MSR_PKG_POWER_LIMIT));
        }
    }

    #[test]
    fn always_rule_scopes_to_op_register_and_cpu() {
        let plan = FaultPlan {
            seed: 0,
            rules: vec![FaultRule {
                op: FaultOp::Write,
                register: Some(MSR_PKG_POWER_LIMIT),
                cpus: Some((16, 31)),
                when: FaultWhen::Always,
            }],
        };
        let inj = FaultInjector::new(plan);
        assert!(inj.should_fail(FaultOp::Write, 16, MSR_PKG_POWER_LIMIT));
        assert!(inj.should_fail(FaultOp::Write, 31, MSR_PKG_POWER_LIMIT));
        assert!(
            !inj.should_fail(FaultOp::Write, 0, MSR_PKG_POWER_LIMIT),
            "cpu out of range"
        );
        assert!(
            !inj.should_fail(FaultOp::Read, 16, MSR_PKG_POWER_LIMIT),
            "reads unaffected"
        );
        assert!(
            !inj.should_fail(FaultOp::Write, 16, MSR_UNCORE_RATIO_LIMIT),
            "other registers unaffected"
        );
    }

    #[test]
    fn window_counts_matching_accesses_when_unclocked() {
        let plan = FaultPlan {
            seed: 0,
            rules: vec![FaultRule {
                op: FaultOp::Write,
                register: None,
                cpus: None,
                when: FaultWhen::Window { from: 2, count: 3 },
            }],
        };
        let inj = FaultInjector::new(plan);
        let outcomes: Vec<bool> = (0..8)
            .map(|_| inj.should_fail(FaultOp::Write, 0, 0x610))
            .collect();
        assert_eq!(
            outcomes,
            vec![false, false, true, true, true, false, false, false]
        );
        // Non-matching reads do not advance the rule's counter.
        assert!(!inj.should_fail(FaultOp::Read, 0, 0x610));
    }

    #[test]
    fn window_follows_external_clock_when_given() {
        let plan = FaultPlan {
            seed: 0,
            rules: vec![FaultRule {
                op: FaultOp::Any,
                register: None,
                cpus: None,
                when: FaultWhen::Window {
                    from: 100,
                    count: 10,
                },
            }],
        };
        let inj = FaultInjector::new(plan);
        assert!(!inj.should_fail_at(FaultOp::Write, 0, 0x610, Some(99)));
        assert!(inj.should_fail_at(FaultOp::Write, 0, 0x610, Some(100)));
        assert!(inj.should_fail_at(FaultOp::Write, 0, 0x610, Some(109)));
        assert!(!inj.should_fail_at(FaultOp::Write, 0, 0x610, Some(110)));
    }

    #[test]
    fn probability_is_deterministic_per_seed_and_roughly_calibrated() {
        let plan = |seed| FaultPlan {
            seed,
            rules: vec![FaultRule {
                op: FaultOp::Any,
                register: None,
                cpus: None,
                when: FaultWhen::Probability { p: 0.25 },
            }],
        };
        let draw = |seed| -> Vec<bool> {
            let inj = FaultInjector::new(plan(seed));
            (0..4000)
                .map(|_| inj.should_fail(FaultOp::Read, 0, 0))
                .collect()
        };
        let a = draw(7);
        assert_eq!(a, draw(7), "same seed, same failures");
        assert_ne!(a, draw(8), "different seed, different failures");
        let rate = a.iter().filter(|&&f| f).count() as f64 / a.len() as f64;
        assert!((rate - 0.25).abs() < 0.03, "rate {rate}");
    }

    #[test]
    fn parse_round_trips_the_readme_example() {
        let plan =
            FaultPlan::parse("seed=42;write,reg=cap,p=0.01;write,reg=cap,cpu=16-31,window=100+400")
                .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.rules.len(), 2);
        assert_eq!(plan.rules[0].register, Some(MSR_PKG_POWER_LIMIT));
        assert_eq!(plan.rules[0].when, FaultWhen::Probability { p: 0.01 });
        assert_eq!(plan.rules[1].cpus, Some((16, 31)));
        assert_eq!(
            plan.rules[1].when,
            FaultWhen::Window {
                from: 100,
                count: 400
            }
        );
        // And through serde, for --fault-plan FILE.json.
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn parse_accepts_registers_names_hex_and_single_cpu() {
        let plan = FaultPlan::parse("read,reg=0x611,at=5;sample,cpu=3;any,reg=1553").unwrap();
        assert_eq!(plan.rules[0].register, Some(0x611));
        assert_eq!(plan.rules[0].when, FaultWhen::At { at: 5 });
        assert_eq!(plan.rules[1].op, FaultOp::Sample);
        assert_eq!(plan.rules[1].cpus, Some((3, 3)));
        assert_eq!(plan.rules[1].when, FaultWhen::Always);
        assert_eq!(plan.rules[2].register, Some(1553));
    }

    #[test]
    fn parse_rejects_malformed_plans() {
        for bad in [
            "frob,reg=cap",
            "write,reg=nope",
            "write,p=1.5",
            "write,window=5",
            "write,window=5+0",
            "write,cpu=9-3",
            "seed=abc",
            "write,wat=1",
            "crash",
            "crash,p=0.5",
            "crash,window=1+5",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn crash_rules_report_the_earliest_tick_and_match_no_access() {
        let plan = FaultPlan::parse("crash,at=350;crash,at=120;write,reg=cap,p=0.5").unwrap();
        assert_eq!(plan.crash_tick(), Some(120));
        assert_eq!(FaultPlan::parse("write,always").unwrap().crash_tick(), None);
        // A crash rule's counter never advances: hardware accesses only
        // consult read/write/sample/any rules.
        let crash_only = FaultPlan::parse("crash,at=0").unwrap();
        let inj = FaultInjector::new(crash_only);
        for _ in 0..10 {
            assert!(!inj.should_fail(FaultOp::Write, 0, MSR_PKG_POWER_LIMIT));
        }
        assert_eq!(inj.snapshot().hits, vec![0]);
    }

    #[test]
    fn snapshot_restore_resumes_the_exact_fault_stream() {
        let plan = FaultPlan::parse("seed=9;any,p=0.3;write,window=2+4").unwrap();
        let inj = FaultInjector::new(plan.clone());
        for _ in 0..50 {
            inj.should_fail(FaultOp::Write, 3, 0x610);
        }
        let snap = inj.snapshot();
        let tail: Vec<bool> = (0..50)
            .map(|_| inj.should_fail(FaultOp::Write, 3, 0x610))
            .collect();
        // A fresh injector restored from the snapshot continues identically.
        let resumed = FaultInjector::new(plan);
        resumed.restore(&snap).unwrap();
        let resumed_tail: Vec<bool> = (0..50)
            .map(|_| resumed.should_fail(FaultOp::Write, 3, 0x610))
            .collect();
        assert_eq!(tail, resumed_tail);
    }

    #[test]
    fn snapshots_round_trip_every_rng_state() {
        for rng in [0, 12345, i64::MAX as u64, 1 << 63, u64::MAX] {
            let snap = InjectorSnapshot {
                rng,
                hits: vec![3, 0],
            };
            let bytes = serde_json::to_vec(&snap).unwrap();
            assert_eq!(
                serde_json::from_slice::<InjectorSnapshot>(&bytes).unwrap(),
                snap
            );
        }
        let small = InjectorSnapshot {
            rng: 12345,
            hits: vec![3],
        };
        assert_eq!(
            serde_json::to_string(&small).unwrap(),
            r#"{"rng":12345,"hits":[3]}"#
        );
    }

    #[test]
    fn restore_rejects_mismatched_rule_counts() {
        let inj = FaultInjector::new(FaultPlan::parse("write,always").unwrap());
        let bad = InjectorSnapshot {
            rng: 0,
            hits: vec![0, 0],
        };
        assert!(inj.restore(&bad).is_err());
    }
}
