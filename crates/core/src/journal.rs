//! Crash-safe experiment journal: durable per-interval decisions,
//! periodic checkpoints, and resume-by-replay.
//!
//! A journaled run writes three kinds of durable state into one
//! directory:
//!
//! * `meta.json` — the [`ExperimentSpec`] and seed, written once before
//!   the run starts (atomically, via temp-file + rename);
//! * `segment-*.log` — an append-only, CRC-framed journal
//!   ([`dufp_journal::JournalWriter`]) with one [`JournalRecord`] per
//!   completed control interval carrying each socket's *final* raw
//!   register state (uncore band, RAPL limit, P-state request);
//! * `checkpoint-*.json` — periodic [`CheckpointState`] snapshots of
//!   everything the registers alone cannot rebuild: controller state,
//!   sampler baselines, resilience counters, actuator caches and the
//!   fault injector's RNG position.
//!
//! [`resume`] rebuilds the crashed run: it re-creates the machine from
//! the journaled seed, replays the simulator tick-for-tick while applying
//! each journaled interval's final registers (the simulator is
//! deterministic, so this reproduces the exact pre-crash trajectory up to
//! the checkpoint), restores the checkpointed soft state, cuts the
//! journal back to the checkpoint and continues live. The checkpoint is
//! chosen by [`dufp_journal::recover`], the one rule the fleet journal
//! shares. A resumed run's journal is bit-identical to the journal an
//! uninterrupted run would have written — the property the
//! crash-equivalence proptests pin down.

use crate::runner::{run_driver, ExperimentSpec, JournalSession, ResumePoint, RunResult};
use dufp_control::{ControllerState, ResilienceState};
use dufp_counters::CounterSnapshot;
use dufp_journal::{recover, write_file_atomic, FsyncPolicy, JournalWriter, Recovery};
use dufp_msr::InjectorSnapshot;
use dufp_types::{Error, Hertz, Result, Watts};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Checkpoint cadence, in completed control intervals. At the paper's
/// 200 ms monitoring interval this is one checkpoint every five simulated
/// seconds — frequent enough that resume replays little, rare enough that
/// checkpoint serialization stays off the hot path.
pub const CHECKPOINT_EVERY: u64 = 25;

/// Name of the experiment-description file inside a journal directory.
pub const META_FILE: &str = "meta.json";

/// How a journaled run is configured.
#[derive(Debug, Clone)]
pub struct JournalOptions {
    /// Directory receiving `meta.json`, journal segments and checkpoints.
    /// Created if absent; must not already contain journal segments.
    pub dir: PathBuf,
    /// Durability/throughput trade-off for journal appends; a resume
    /// keeps it.
    pub fsync: FsyncPolicy,
}

impl JournalOptions {
    /// Options with the default fsync policy.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        JournalOptions {
            dir: dir.into(),
            fsync: FsyncPolicy::default(),
        }
    }
}

/// The experiment description persisted alongside the journal, so
/// `dufp resume <dir>` needs nothing but the directory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunMeta {
    /// The full experiment specification.
    pub spec: ExperimentSpec,
    /// The seed of this run (journaling covers single runs only).
    pub seed: u64,
    /// The run's fsync policy, which a resume keeps (`every:8` in a meta
    /// written before the field existed).
    #[serde(default)]
    pub fsync: FsyncPolicy,
}

/// One socket's raw register state at the end of a control interval.
///
/// These three values are the *complete* actuation surface: together with
/// the seed they determine every subsequent simulator tick, so replay
/// needs nothing else from the control stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SocketRegs {
    /// `MSR_UNCORE_RATIO_LIMIT`, encoded.
    pub uncore: u64,
    /// `MSR_PKG_POWER_LIMIT`, raw.
    pub limit: u64,
    /// `IA32_PERF_CTL`, encoded.
    pub perf_ctl: u64,
}

/// One durable journal entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalRecord {
    /// A control interval completed: all sockets sampled, controllers ran,
    /// and the registers settled at these values.
    Interval {
        /// Zero-based interval index (equals this record's position).
        index: u64,
        /// Simulator tick at the end of the interval.
        tick: u64,
        /// Final register state, one entry per socket.
        sockets: Vec<SocketRegs>,
    },
    /// The run finished normally. Its absence marks a crashed run.
    Complete {
        /// Number of completed control intervals.
        intervals: u64,
        /// Simulator tick at completion.
        tick: u64,
    },
}

impl JournalRecord {
    /// Serializes the record into a journal payload.
    pub fn encode(&self) -> Result<Vec<u8>> {
        serde_json::to_vec(self).map_err(|e| Error::invalid("journal record", e.to_string()))
    }

    /// Parses a journal payload back into a record.
    pub fn decode(payload: &[u8]) -> Result<Self> {
        serde_json::from_slice(payload)
            .map_err(|e| Error::Corruption(format!("undecodable journal record: {e}")))
    }
}

/// Per-socket actuator cache that a fresh [`dufp_control::HwActuators`]
/// cannot re-derive from the hardware registers alone: the cached views a
/// controller's getters observe between writes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ActuatorCache {
    /// Whether the controller considers the uncore band pinned.
    pub pinned: bool,
    /// The cached uncore frequency (pin target, or band maximum).
    pub uncore: Hertz,
    /// The cached long-term power limit.
    pub cap_long: Watts,
    /// The cached short-term power limit.
    pub cap_short: Watts,
    /// The last requested core-frequency ceiling.
    pub freq_cap: Hertz,
}

/// Everything the registers cannot rebuild, snapshotted at a journal
/// position: restoring this state after replaying `interval` journal
/// records puts the whole control stack back exactly where the crashed
/// run was.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointState {
    /// Number of completed control intervals (the journal position this
    /// snapshot corresponds to).
    pub interval: u64,
    /// Simulator tick at snapshot time.
    pub tick: u64,
    /// The run's seed (cross-checked against `meta.json` on resume).
    pub seed: u64,
    /// Per-socket controller state.
    pub controllers: Vec<ControllerState>,
    /// Per-socket sampler baselines.
    pub samplers: Vec<Option<CounterSnapshot>>,
    /// Per-socket retry/degradation state.
    pub resilience: Vec<ResilienceState>,
    /// Per-socket actuator caches.
    pub actuators: Vec<ActuatorCache>,
    /// Fault-injector RNG position and hit counters, when a plan is armed.
    pub injector: Option<InjectorSnapshot>,
}

impl CheckpointState {
    /// Serializes the checkpoint payload.
    pub fn encode(&self) -> Result<Vec<u8>> {
        serde_json::to_vec(self).map_err(|e| Error::invalid("checkpoint", e.to_string()))
    }

    /// Parses a checkpoint payload.
    pub fn decode(payload: &[u8]) -> Result<Self> {
        serde_json::from_slice(payload)
            .map_err(|e| Error::Corruption(format!("undecodable checkpoint: {e}")))
    }
}

/// What `resume` found inside a journal directory.
#[derive(Debug)]
pub struct JournalSummary {
    /// The persisted experiment description.
    pub meta: RunMeta,
    /// Completed intervals recorded in the journal.
    pub intervals: Vec<JournalRecord>,
    /// Whether a `Complete` record closes the journal.
    pub complete: bool,
    /// Whether the reader had to drop a torn/corrupt tail.
    pub truncated: bool,
    /// The raw records and the checkpoint a resume starts from.
    recovery: Recovery<CheckpointState>,
}

/// Reads and validates a journal directory without running or changing
/// anything (used by `resume` and by the `dufp journal` inspection
/// command).
pub fn summarize(dir: &Path) -> Result<JournalSummary> {
    let meta = load_meta(dir)?;
    let recovery = recover(dir, CheckpointState::decode)?;
    let mut intervals = Vec::new();
    let mut complete = false;
    for (pos, payload) in recovery.records.iter().enumerate() {
        if complete {
            return Err(Error::Corruption(format!(
                "journal record {pos} follows a Complete record"
            )));
        }
        match JournalRecord::decode(payload)? {
            JournalRecord::Interval {
                index,
                tick,
                sockets,
            } => {
                if index != intervals.len() as u64 {
                    return Err(Error::Corruption(format!(
                        "journal record {pos} carries interval index {index}, expected {}",
                        intervals.len()
                    )));
                }
                intervals.push(JournalRecord::Interval {
                    index,
                    tick,
                    sockets,
                });
            }
            JournalRecord::Complete { .. } => complete = true,
        }
    }
    Ok(JournalSummary {
        meta,
        intervals,
        complete,
        truncated: recovery.truncated,
        recovery,
    })
}

fn load_meta(dir: &Path) -> Result<RunMeta> {
    let path = dir.join(META_FILE);
    let bytes = std::fs::read(&path).map_err(|e| {
        Error::Precondition(format!("no journal metadata at {}: {e}", path.display()))
    })?;
    serde_json::from_slice(&bytes)
        .map_err(|e| Error::Corruption(format!("undecodable {}: {e}", path.display())))
}

/// Executes one journaled run: every completed control interval is
/// appended to the write-ahead journal in `opts.dir` and the full control
/// state is checkpointed every [`CHECKPOINT_EVERY`] intervals. If the
/// process dies mid-run — injected crash, SIGKILL, power loss — the
/// directory holds everything [`resume`] needs.
pub fn run_journaled(spec: &ExperimentSpec, seed: u64, opts: &JournalOptions) -> Result<RunResult> {
    std::fs::create_dir_all(&opts.dir)?;
    let meta = RunMeta {
        spec: spec.clone(),
        seed,
        fsync: opts.fsync,
    };
    let payload = serde_json::to_vec_pretty(&meta)
        .map_err(|e| Error::invalid("journal metadata", e.to_string()))?;
    write_file_atomic(&opts.dir, META_FILE, &payload)?;
    // Creating the writer up front also rejects a dirty directory (one
    // that already holds segments) before any simulation work happens.
    let writer = JournalWriter::create(&opts.dir, opts.fsync)?;
    run_driver(spec, seed, Some(JournalSession::Fresh(writer)))
}

/// Resumes the crashed journaled run in `dir` and drives it to
/// completion: [`JournalSummary::resume`] over [`summarize`].
pub fn resume(dir: &Path) -> Result<RunResult> {
    summarize(dir)?.resume()
}

impl JournalSummary {
    /// Resumes this crashed run and drives it to completion.
    ///
    /// The journal tail is replayed deterministically on top of the
    /// checkpoint [`dufp_journal::recover`] picked; an undecodable or
    /// too-new checkpoint falls back to the older one and, in the worst
    /// case, to a full replay from the start — the run is recovered in
    /// every case that leaves `meta.json` readable and the checkpoint's
    /// seed matching. The continued run keeps the fsync policy
    /// `meta.json` records.
    pub fn resume(self) -> Result<RunResult> {
        if self.complete {
            return Err(Error::Precondition(format!(
                "journal at {} records a completed run ({} intervals); nothing to resume",
                self.recovery.dir().display(),
                self.intervals.len()
            )));
        }
        if let Some((_, cp)) = &self.recovery.checkpoint {
            if cp.seed != self.meta.seed {
                return Err(Error::Corruption(format!(
                    "checkpoint seed {} does not match journal seed {}",
                    cp.seed, self.meta.seed
                )));
            }
        }
        let intervals = self
            .intervals
            .into_iter()
            .map(|rec| match rec {
                JournalRecord::Interval { sockets, .. } => sockets,
                JournalRecord::Complete { .. } => unreachable!("filtered by summarize"),
            })
            .collect();
        run_driver(
            &self.meta.spec,
            self.meta.seed,
            Some(JournalSession::Resume(ResumePoint {
                intervals,
                journal: self.recovery,
                fsync: self.meta.fsync,
            })),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_once;
    use crate::ControllerKind;
    use dufp_journal::{list_checkpoints, read_records, truncate_records, TestDir};
    use dufp_msr::FaultPlan;
    use dufp_sim::SimConfig;
    use dufp_types::Ratio;
    use proptest::prelude::*;

    fn ep_spec(plan: Option<&str>) -> ExperimentSpec {
        ExperimentSpec {
            sim: SimConfig::yeti_single_socket(0),
            app: "EP".into(),
            controller: ControllerKind::Dufp {
                slowdown: Ratio::from_percent(10.0),
            },
            trace: None,
            interval_ms: None,
            telemetry: false,
            fault_plan: plan.map(|p| FaultPlan::parse(p).expect("valid plan")),
            engine: Default::default(),
        }
    }

    fn with_crash(base: Option<&str>, at: u64) -> String {
        match base {
            Some(p) => format!("{p};crash,at={at}"),
            None => format!("crash,at={at}"),
        }
    }

    fn records_of(dir: &Path) -> Vec<Vec<u8>> {
        let out = read_records(dir).unwrap();
        out.records
    }

    fn assert_same_result(a: &RunResult, b: &RunResult) {
        assert_eq!(
            a.exec_time.value().to_bits(),
            b.exec_time.value().to_bits(),
            "exec time diverged: {} vs {}",
            a.exec_time.value(),
            b.exec_time.value()
        );
        assert_eq!(
            a.pkg_energy.value().to_bits(),
            b.pkg_energy.value().to_bits()
        );
        assert_eq!(
            a.dram_energy.value().to_bits(),
            b.dram_energy.value().to_bits()
        );
    }

    use crate::runner::RunResult;

    /// Reference run + crashed-then-resumed run over the same base plan;
    /// asserts the decision journals and whole-run results are
    /// bit-identical. Returns the reference dir for extra assertions.
    fn check_crash_equivalence(
        base_plan: Option<&str>,
        crash_at: u64,
        seed: u64,
    ) -> (TestDir, TestDir) {
        let reference = ep_spec(base_plan);
        let dir_a = TestDir::new("ref");
        let ra = run_journaled(&reference, seed, &JournalOptions::new(dir_a.path()))
            .expect("reference run completes");

        let crashed = ep_spec(Some(&with_crash(base_plan, crash_at)));
        let dir_b = TestDir::new("crash");
        let err = run_journaled(&crashed, seed, &JournalOptions::new(dir_b.path()))
            .expect_err("crash rule must abort the run");
        assert!(err.to_string().contains("crash at tick"), "{err}");

        let rb = resume(dir_b.path()).expect("resume completes the run");
        assert_same_result(&ra, &rb);
        assert_eq!(
            records_of(dir_a.path()),
            records_of(dir_b.path()),
            "resumed journal must be bit-identical to the uninterrupted one"
        );
        (dir_a, dir_b)
    }

    #[test]
    fn journal_record_round_trips() {
        let rec = JournalRecord::Interval {
            index: 3,
            tick: 800,
            sockets: vec![SocketRegs {
                uncore: 0x1818,
                limit: 0x00DD_8000,
                perf_ctl: 0x1D00,
            }],
        };
        let back = JournalRecord::decode(&rec.encode().unwrap()).unwrap();
        assert_eq!(back, rec);
        let err = JournalRecord::decode(b"not json").unwrap_err();
        assert!(matches!(err, Error::Corruption(_)));
    }

    #[test]
    fn resume_refuses_a_missing_directory() {
        let err = resume(Path::new("/nonexistent/journal")).unwrap_err();
        assert!(matches!(err, Error::Precondition(_)), "{err}");
    }

    #[test]
    fn journaled_run_matches_a_plain_run_and_records_completion() {
        let spec = ep_spec(None);
        let plain = run_once(&spec, 3).unwrap();
        let dir = TestDir::new("clean");
        let journaled = run_journaled(&spec, 3, &JournalOptions::new(dir.path())).unwrap();
        assert_same_result(&plain, &journaled);

        let summary = summarize(dir.path()).unwrap();
        assert!(summary.complete, "clean runs end with a Complete record");
        assert!(!summary.truncated);
        assert!(
            summary.intervals.len() > 50,
            "EP runs for minutes of control intervals, got {}",
            summary.intervals.len()
        );
        assert!(
            !list_checkpoints(dir.path()).unwrap().is_empty(),
            "periodic checkpoints must have been written"
        );
        // A completed journal refuses to resume.
        let err = resume(dir.path()).unwrap_err();
        assert!(matches!(err, Error::Precondition(_)), "{err}");
    }

    #[test]
    fn crash_after_a_checkpoint_resumes_bit_identically() {
        // Crash at tick 7001: 35 completed intervals, checkpoint at 25.
        let (_, dir_b) = check_crash_equivalence(None, 7001, 5);
        drop(dir_b);
    }

    #[test]
    fn a_run_seeded_above_i64_max_resumes_bit_identically() {
        // `meta.json` holds the seed as the exact digits of `u64::MAX`.
        let (dir_a, _) = check_crash_equivalence(None, 7001, u64::MAX);
        let meta = std::fs::read_to_string(dir_a.path().join(META_FILE)).unwrap();
        assert!(meta.contains(r#""seed": 18446744073709551615"#), "{meta}");
    }

    #[test]
    fn crash_before_any_checkpoint_replays_from_scratch() {
        // Tick 1000 is 5 intervals in — no checkpoint exists yet.
        let reference = ep_spec(None);
        let dir_a = TestDir::new("ref-early");
        let ra = run_journaled(&reference, 6, &JournalOptions::new(dir_a.path())).unwrap();

        let crashed = ep_spec(Some(&with_crash(None, 1000)));
        let dir_b = TestDir::new("crash-early");
        run_journaled(&crashed, 6, &JournalOptions::new(dir_b.path())).unwrap_err();
        assert!(
            list_checkpoints(dir_b.path()).unwrap().is_empty(),
            "no checkpoint should exist 5 intervals in"
        );
        let rb = resume(dir_b.path()).unwrap();
        assert_same_result(&ra, &rb);
        assert_eq!(records_of(dir_a.path()), records_of(dir_b.path()));
    }

    #[test]
    fn resume_keeps_the_fsync_policy_meta_records() {
        let always = |dir: &Path| JournalOptions {
            fsync: FsyncPolicy::Always,
            ..JournalOptions::new(dir)
        };
        let dir_a = TestDir::new("ref-always");
        let ra = run_journaled(&ep_spec(None), 11, &always(dir_a.path())).unwrap();

        let crashed = ep_spec(Some(&with_crash(None, 7001)));
        let dir_b = TestDir::new("crash-always");
        run_journaled(&crashed, 11, &always(dir_b.path())).unwrap_err();
        let meta = std::fs::read_to_string(dir_b.path().join(META_FILE)).unwrap();
        assert!(meta.contains(r#""fsync": "always""#), "{meta}");
        assert_eq!(
            summarize(dir_b.path()).unwrap().meta.fsync,
            FsyncPolicy::Always
        );
        let rb = resume(dir_b.path()).unwrap();
        assert_same_result(&ra, &rb);
        assert_eq!(records_of(dir_a.path()), records_of(dir_b.path()));

        // A meta written before the field existed reads as `every:8` and
        // still resumes.
        let dir_c = TestDir::new("crash-old-meta");
        run_journaled(&crashed, 11, &always(dir_c.path())).unwrap_err();
        let path = dir_c.path().join(META_FILE);
        let mut meta: serde::Value =
            serde_json::from_slice(&std::fs::read(&path).unwrap()).unwrap();
        let serde::Value::Object(fields) = &mut meta else {
            panic!("meta.json is an object")
        };
        fields.retain(|(key, _)| key != "fsync");
        std::fs::write(&path, serde_json::to_vec(&meta).unwrap()).unwrap();
        assert_eq!(
            summarize(dir_c.path()).unwrap().meta.fsync,
            FsyncPolicy::EveryN(8)
        );
        let rc = resume(dir_c.path()).unwrap();
        assert_same_result(&ra, &rc);
        assert_eq!(records_of(dir_a.path()), records_of(dir_c.path()));
    }

    #[test]
    fn crash_equivalence_holds_under_an_active_fault_plan() {
        check_crash_equivalence(
            Some("seed=42;write,p=0.01;write,reg=cap,cpu=0-15,window=200+5000"),
            9003,
            4,
        );
    }

    #[test]
    fn corrupted_journal_tail_still_resumes_to_the_same_run() {
        let reference = ep_spec(None);
        let dir_a = TestDir::new("ref-torn");
        let ra = run_journaled(&reference, 8, &JournalOptions::new(dir_a.path())).unwrap();

        let crashed = ep_spec(Some(&with_crash(None, 7001)));
        let dir_b = TestDir::new("crash-torn");
        run_journaled(&crashed, 8, &JournalOptions::new(dir_b.path())).unwrap_err();
        // Tear the tail: flip the last byte of the highest segment, as a
        // half-flushed page would.
        let (_, last_seg) = dufp_journal::segment_paths(dir_b.path())
            .unwrap()
            .pop()
            .unwrap();
        let mut bytes = std::fs::read(&last_seg).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        std::fs::write(&last_seg, &bytes).unwrap();

        let rb = resume(dir_b.path()).unwrap();
        assert_same_result(&ra, &rb);
        assert_eq!(records_of(dir_a.path()), records_of(dir_b.path()));
    }

    #[test]
    fn checkpoint_outrunning_the_journal_falls_back_to_full_replay() {
        let reference = ep_spec(None);
        let dir_a = TestDir::new("ref-outrun");
        let ra = run_journaled(&reference, 9, &JournalOptions::new(dir_a.path())).unwrap();

        let crashed = ep_spec(Some(&with_crash(None, 7001)));
        let dir_b = TestDir::new("crash-outrun");
        run_journaled(&crashed, 9, &JournalOptions::new(dir_b.path())).unwrap_err();
        // Drop the journal below the checkpoint's position (seq 25): the
        // checkpoint now describes state the journal cannot corroborate.
        truncate_records(dir_b.path(), 10).unwrap();

        let rb = resume(dir_b.path()).unwrap();
        assert_same_result(&ra, &rb);
        assert_eq!(records_of(dir_a.path()), records_of(dir_b.path()));
    }

    /// DUFP's controller state as a checkpoint written before the
    /// controllers shared one probe-memory type (`dufp::Ladder`) stored it:
    /// per-knob `probe_floor`/`intervals_since_*` fields.
    const OLD_LAYOUT_CONTROLLERS: &str = r#"{"Dufp":{"tracker":{"class":"Cpu","max_flops":169936892694.09424,"max_bandwidth":1132912617.96062,"last_oi":150.00000000000568},"uncore":{"last_action":"Hold","probe_floor":null,"intervals_since_violation":24},"last_cap_action":"Decreased","prev_flops":166247068879.12476,"prev_uncore_action":"Hold","cap_probe_floor":null,"intervals_since_cap_violation":24,"cumulative_flops":807966984174.5371,"cumulative_reference":844071195751.3679,"tel":{"tick":25,"phase_seq":0}}}"#;

    #[test]
    fn checkpoint_with_an_undecodable_controller_state_falls_back_to_full_replay() {
        let reference = ep_spec(None);
        let dir_a = TestDir::new("ref-layout");
        let ra = run_journaled(&reference, 10, &JournalOptions::new(dir_a.path())).unwrap();

        let crashed = ep_spec(Some(&with_crash(None, 7001)));
        let dir_b = TestDir::new("crash-layout");
        run_journaled(&crashed, 10, &JournalOptions::new(dir_b.path())).unwrap_err();
        // Swap the checkpoint's controller state for the older layout.
        let (seq, path) = list_checkpoints(dir_b.path()).unwrap().pop().unwrap();
        assert_eq!(
            seq, 25,
            "the crash at tick 7001 follows the checkpoint at 25"
        );
        let payload = String::from_utf8(dufp_journal::load_checkpoint(&path).unwrap()).unwrap();
        let open = "\"controllers\":[";
        let start = payload.find(open).unwrap() + open.len();
        let end = payload.find("],\"samplers\"").unwrap();
        let old = format!(
            "{}{OLD_LAYOUT_CONTROLLERS}{}",
            &payload[..start],
            &payload[end..]
        );
        assert!(
            CheckpointState::decode(old.as_bytes()).is_err(),
            "this build must not read the old controller layout"
        );
        dufp_journal::write_checkpoint(dir_b.path(), seq, old.as_bytes()).unwrap();

        let rb = resume(dir_b.path()).unwrap();
        assert_same_result(&ra, &rb);
        assert_eq!(records_of(dir_a.path()), records_of(dir_b.path()));
    }

    #[test]
    fn an_undecodable_newest_checkpoint_resumes_from_the_older_one() {
        let reference = ep_spec(None);
        let dir_a = TestDir::new("ref-older");
        let ra = run_journaled(&reference, 12, &JournalOptions::new(dir_a.path())).unwrap();

        // Tick 11001 is 55 intervals in: checkpoints at 25 and 50.
        let crashed = ep_spec(Some(&with_crash(None, 11001)));
        let dir_b = TestDir::new("crash-older");
        run_journaled(&crashed, 12, &JournalOptions::new(dir_b.path())).unwrap_err();
        let seqs: Vec<u64> = list_checkpoints(dir_b.path())
            .unwrap()
            .iter()
            .map(|c| c.0)
            .collect();
        assert_eq!(seqs, vec![25, 50]);
        let (_, newest) = list_checkpoints(dir_b.path()).unwrap().pop().unwrap();
        std::fs::write(&newest, br#"{"interval":"fifty"}"#).unwrap();
        let chosen = summarize(dir_b.path()).unwrap().recovery.checkpoint;
        assert_eq!(chosen.map(|(seq, cp)| (seq, cp.interval)), Some((25, 25)));

        let rb = resume(dir_b.path()).unwrap();
        assert_same_result(&ra, &rb);
        assert_eq!(records_of(dir_a.path()), records_of(dir_b.path()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]
        #[test]
        fn crash_equivalence_for_random_ticks_and_plans(
            crash_at in 600u64..16000,
            seed in 1u64..500,
            plan in prop::sample::select(vec![
                None,
                Some("seed=42;write,p=0.01"),
                Some("seed=7;write,reg=cap,cpu=0-15,window=200+5000"),
                Some("seed=9;sample,p=0.005"),
            ]),
        ) {
            check_crash_equivalence(plan, crash_at, seed);
        }
    }

    #[test]
    fn summarize_rejects_out_of_order_interval_indices() {
        let dir = TestDir::new("bad-order");
        let meta = RunMeta {
            spec: ExperimentSpec {
                sim: dufp_sim::SimConfig::yeti_single_socket(0),
                app: "EP".into(),
                controller: crate::ControllerKind::Default,
                trace: None,
                interval_ms: None,
                telemetry: false,
                fault_plan: None,
                engine: Default::default(),
            },
            seed: 1,
            fsync: FsyncPolicy::Never,
        };
        write_file_atomic(dir.path(), META_FILE, &serde_json::to_vec(&meta).unwrap()).unwrap();
        let mut w = JournalWriter::create(dir.path(), FsyncPolicy::Never).unwrap();
        let rec = JournalRecord::Interval {
            index: 5,
            tick: 100,
            sockets: vec![],
        };
        w.append(&rec.encode().unwrap()).unwrap();
        w.sync().unwrap();
        let err = summarize(dir.path()).unwrap_err();
        assert!(matches!(err, Error::Corruption(_)), "{err}");
    }
}
