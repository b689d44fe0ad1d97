//! The durable fleet journal: coordinator high availability by
//! checkpoint + replay.
//!
//! [`crate::FleetCore`] is transport-free and deterministic on its virtual
//! clock, so the whole coordinator brain is a fold over its *input events*:
//! admissions, ingested (pre-vet) report and heartbeat frames, goodbyes,
//! epoch ticks and term transitions. This module gives those inputs a
//! durable form — [`FleetEvent`] — and writes them through the same
//! crash-safe segmented log the experiment runner uses
//! ([`dufp_journal::JournalWriter`]), with periodic [`CoreSnapshot`]
//! checkpoints so recovery replays a bounded tail instead of the whole
//! history. The log is a group commit: each event is written as it
//! arrives, and [`FleetJournal::commit`] makes them durable once per
//! allocator epoch, before the epoch's grants leave (DESIGN.md §15). An
//! in-memory sink ([`FleetJournal::in_memory`]) keeps the same events for
//! the in-process chaos standby ([`crate::chaos`]) to replay.
//!
//! Recovery ([`recover`]) rebuilds a byte-identical core: start from the
//! checkpoint [`dufp_journal::recover`] picks (the rule `dufp resume`
//! shares), then re-apply the tail events in order. Because *inputs* are
//! journaled (not decisions), every vetting verdict, trust-ladder
//! transition and allocation replays exactly — a quarantined node cannot
//! launder its strikes through a coordinator failover. A takeover
//! coordinator must then bump the coordination term
//! ([`crate::FleetCore::promote`]) before granting; the bump itself is
//! journaled ([`FleetEvent::TermBump`]) so the *next* heir replays it too.
//!
//! The journal directory has exactly one writer at a time: the acting
//! primary. A standby only reads it, and only after deciding the primary
//! is dead. A resurrected stale primary must never append — that is what
//! pause self-fencing and term fencing (DESIGN.md §15) are for.

use crate::config::CoordinatorConfig;
use crate::core::{CoreSnapshot, FleetCore};
use dufp_journal::{segment_paths, FsyncPolicy, JournalWriter};
use dufp_telemetry::Telemetry;
use dufp_types::{Error, Result, Watts};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Checkpoint cadence: a [`CoreSnapshot`] is written at the first epoch
/// close after this many journal events *and* at least as many encoded
/// log bytes as the last checkpoint held (none before the first).
/// Checkpoints are only taken at epoch close, so there is at most one
/// per epoch. The event count paces small fleets (a 2-agent fleet, 4
/// events an epoch, checkpoints every 16th); the bytes pace large ones:
/// unless the snapshot grows, the checkpoints write no more than the log
/// does between them, and replay after the newest checkpoint stays under
/// one snapshot's worth of records plus one epoch. At 100 agents that is a
/// checkpoint every 4–5 epochs and at 256 agents every 5th, where the
/// event count alone took one every epoch; on the `fleet-failover`
/// ledger workload (256 agents, 2-vCPU host) the journaled fleet's
/// 15,000 events took ~30 ms instead of ~43 ms.
pub const DEFAULT_FLEET_CHECKPOINT_EVERY: u64 = 64;

/// One journaled coordinator input. The variants mirror the mutating
/// entry points of [`FleetCore`]; applying them in order to a fresh core
/// (or to a checkpoint) reproduces the primary's state bit for bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FleetEvent {
    /// A successful admission (`FleetCore::admit`). Failed admissions are
    /// not journaled — they do not mutate the registry.
    Admit {
        /// Node name from its Hello.
        name: String,
        /// Application queue it announced.
        app: String,
        /// The node's floor, in watts.
        floor_w: f64,
        /// The node's silicon limit, in watts.
        node_max_w: f64,
        /// Virtual-clock admission time.
        now_ms: u64,
    },
    /// An ingested demand report (`FleetCore::on_report`), journaled
    /// *before* vetting: rejected frames still move sequence cursors and
    /// strike flags, so replay must see them too.
    Report {
        /// Registry slot the frame arrived on.
        slot: usize,
        /// The agent's report sequence number.
        seq: u64,
        /// Ceiling the agent claims to enforce, in watts.
        ceiling_w: f64,
        /// Observed consumption, in watts.
        consumption_w: f64,
        /// Whether the node still has work.
        active: bool,
        /// Virtual-clock arrival time.
        now_ms: u64,
    },
    /// An ingested heartbeat (`FleetCore::on_heartbeat`).
    Heartbeat {
        /// Registry slot the frame arrived on.
        slot: usize,
        /// Beacon sequence number.
        seq: u64,
        /// Virtual-clock arrival time.
        now_ms: u64,
    },
    /// A clean departure (`FleetCore::on_goodbye`).
    Goodbye {
        /// Registry slot that departed.
        slot: usize,
    },
    /// An allocator epoch tick (`FleetCore::epoch_once`).
    Epoch {
        /// Virtual-clock epoch time.
        now_ms: u64,
    },
    /// The core fenced itself — a peer announced a higher term, or the
    /// pause detector concluded a standby must have taken over.
    Fence {
        /// The term the core considers itself fenced by.
        term: u64,
    },
    /// The core took over as primary at this term
    /// (`FleetCore::promote`).
    TermBump {
        /// The new (bumped) coordination term.
        term: u64,
    },
}

impl FleetEvent {
    /// Serializes the event for a journal record.
    pub fn encode(&self) -> Result<Vec<u8>> {
        serde_json::to_vec(self)
            .map_err(|e| Error::Corruption(format!("fleet event encode failed: {e}")))
    }

    /// Deserializes a journal record back into an event.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        serde_json::from_slice(bytes)
            .map_err(|e| Error::Corruption(format!("fleet event decode failed: {e}")))
    }

    /// Re-applies this event to a core during replay. The core must not
    /// have a journal attached (replay must not re-journal itself).
    pub fn apply(&self, core: &mut FleetCore) {
        match self {
            FleetEvent::Admit {
                name,
                app,
                floor_w,
                node_max_w,
                now_ms,
            } => {
                // Journaled admissions passed validation when first
                // applied; a failure here (e.g. a name blacklisted by an
                // *earlier* replayed eviction that the original run also
                // enforced) is deterministic and intentional.
                let _ = core.admit(
                    name.clone(),
                    app.clone(),
                    Watts(*floor_w),
                    Watts(*node_max_w),
                    *now_ms,
                );
            }
            FleetEvent::Report {
                slot,
                seq,
                ceiling_w,
                consumption_w,
                active,
                now_ms,
            } => {
                core.on_report(
                    *slot,
                    *seq,
                    Watts(*ceiling_w),
                    Watts(*consumption_w),
                    *active,
                    *now_ms,
                );
            }
            FleetEvent::Heartbeat { slot, seq, now_ms } => {
                core.on_heartbeat(*slot, *seq, *now_ms);
            }
            FleetEvent::Goodbye { slot } => core.on_goodbye(*slot),
            FleetEvent::Epoch { now_ms } => {
                core.epoch_once(*now_ms);
            }
            FleetEvent::Fence { term } => core.force_fence(*term),
            FleetEvent::TermBump { term } => core.promote_to(*term),
        }
    }

    /// The event's virtual-clock timestamp, when it carries one.
    pub fn now_ms(&self) -> Option<u64> {
        match self {
            FleetEvent::Admit { now_ms, .. }
            | FleetEvent::Report { now_ms, .. }
            | FleetEvent::Heartbeat { now_ms, .. }
            | FleetEvent::Epoch { now_ms } => Some(*now_ms),
            FleetEvent::Goodbye { .. } | FleetEvent::Fence { .. } | FleetEvent::TermBump { .. } => {
                None
            }
        }
    }
}

/// The write side: an append-only event log plus checkpoint cadence.
/// Owned by the acting primary's [`FleetCore`]
/// (see [`FleetCore::attach_journal`]).
pub struct FleetJournal {
    sink: Sink,
    checkpoint_every: u64,
    since_checkpoint: u64,
    bytes_since_checkpoint: u64,
    /// The bytes of the last checkpoint (0 before the first), which the
    /// default cadence waits for the log to write again; `None` under an
    /// explicit [`FleetJournal::with_checkpoint_every`], which counts
    /// events only.
    last_checkpoint_bytes: Option<u64>,
}

/// Where a [`FleetJournal`] puts its events: crash-safe segments and
/// checkpoints in a directory, or a vector that is never checkpointed
/// (the in-process chaos standby replays it, as a TCP standby replays the
/// directory).
enum Sink {
    Disk(JournalWriter),
    Memory(Vec<FleetEvent>),
}

impl FleetJournal {
    /// Creates a fresh journal in `dir` (which may not exist yet).
    /// Refuses a directory that already holds segments — [`recover`] it
    /// and continue with [`Recovered::journal`] instead. Appends make no
    /// implicit sync: [`FleetJournal::commit`] does.
    pub fn create(dir: &Path) -> Result<Self> {
        let writer = JournalWriter::create(dir, FsyncPolicy::Never)?;
        Ok(Self::new(Sink::Disk(writer)))
    }

    /// A journal that keeps its events in memory (see
    /// [`FleetJournal::events`]) and never checkpoints.
    pub fn in_memory() -> Self {
        Self::new(Sink::Memory(Vec::new()))
    }

    fn new(sink: Sink) -> Self {
        FleetJournal {
            sink,
            checkpoint_every: DEFAULT_FLEET_CHECKPOINT_EVERY,
            since_checkpoint: 0,
            bytes_since_checkpoint: 0,
            last_checkpoint_bytes: Some(0),
        }
    }

    /// Overrides the checkpoint cadence: a checkpoint every `every`
    /// events, whatever their bytes.
    pub fn with_checkpoint_every(mut self, every: u64) -> Self {
        self.checkpoint_every = every.max(1);
        self.last_checkpoint_bytes = None;
        self
    }

    /// The events an in-memory journal kept, in order; `None` on disk.
    pub fn events(&self) -> Option<&[FleetEvent]> {
        match &self.sink {
            Sink::Disk(..) => None,
            Sink::Memory(events) => Some(events),
        }
    }

    /// Appends one event: one `write(2)` on disk, no sync.
    pub fn record(&mut self, ev: &FleetEvent) -> Result<()> {
        match &mut self.sink {
            Sink::Disk(writer) => {
                let bytes = ev.encode()?;
                writer.append(&bytes)?;
                self.bytes_since_checkpoint += bytes.len() as u64;
            }
            Sink::Memory(events) => events.push(ev.clone()),
        }
        self.since_checkpoint += 1;
        Ok(())
    }

    /// Whether the cadence calls for a checkpoint now (never in memory).
    pub fn due_for_checkpoint(&self) -> bool {
        matches!(self.sink, Sink::Disk(..))
            && self.since_checkpoint >= self.checkpoint_every
            && self
                .last_checkpoint_bytes
                .is_none_or(|last| self.bytes_since_checkpoint >= last)
    }

    /// Records appended since the last sync (0 in memory).
    pub fn unsynced(&self) -> u32 {
        match &self.sink {
            Sink::Disk(writer) => writer.unsynced(),
            Sink::Memory(..) => 0,
        }
    }

    /// Makes every record appended so far durable: `fdatasync`s the log
    /// when it holds unsynced records. Returns whether it synced; a no-op
    /// in memory and when nothing is unsynced.
    pub fn commit(&mut self) -> Result<bool> {
        match &mut self.sink {
            Sink::Disk(writer) if writer.unsynced() > 0 => writer.sync().map(|()| true),
            _ => Ok(false),
        }
    }

    /// Durably writes a checkpoint of the caller's current core snapshot,
    /// sealed at the current journal head ([`JournalWriter::checkpoint`]).
    /// The log sync it starts with commits every record so far.
    pub fn checkpoint(&mut self, snapshot_bytes: &[u8]) -> Result<()> {
        if let Sink::Disk(writer) = &mut self.sink {
            writer.checkpoint(snapshot_bytes)?;
        }
        self.since_checkpoint = 0;
        self.bytes_since_checkpoint = 0;
        if let Some(last) = &mut self.last_checkpoint_bytes {
            *last = snapshot_bytes.len() as u64;
        }
        Ok(())
    }
}

/// Whether `dir` holds any journal segments (i.e. there is history to
/// recover). A missing directory is simply "no".
pub fn journal_present(dir: &Path) -> bool {
    segment_paths(dir).map(|s| !s.is_empty()).unwrap_or(false)
}

/// A recovered coordinator brain.
pub struct Recovered {
    /// The rebuilt core — byte-identical to the primary that wrote the
    /// journal, *before* any term bump. No journal attached yet.
    pub core: FleetCore,
    /// The journal, torn tail sealed, appending after the head: attach it
    /// to `core` to continue as primary.
    pub journal: FleetJournal,
    /// Intact journal records on disk.
    pub journal_head: u64,
    /// Events re-applied after the checkpoint (replay tail length).
    pub events_replayed: u64,
    /// Highest virtual-clock timestamp seen; a takeover must continue the
    /// clock past this point.
    pub last_now_ms: u64,
    /// True when a torn tail was found and sealed off.
    pub torn_tail_dropped: bool,
}

/// Rebuilds a [`FleetCore`] from the journal in `dir`: the checkpoint
/// [`dufp_journal::recover`] picks, or a fresh core when none is usable,
/// plus the event tail. `cfg` must match the configuration the journaling
/// coordinator ran with — the snapshot carries fleet state, not policy
/// tunables.
pub fn recover(dir: &Path, cfg: &CoordinatorConfig, tel: Telemetry) -> Result<Recovered> {
    let mut found = dufp_journal::recover(dir, serde_json::from_slice::<CoreSnapshot>)?;
    let head = found.records.len() as u64;
    let (start, mut core, mut last_now_ms) = match found.checkpoint.take() {
        Some((seq, snap)) => {
            let ms = snap.last_epoch_ms.unwrap_or(0);
            (seq, FleetCore::from_snapshot(cfg, snap, tel), ms)
        }
        None => (0, FleetCore::new(cfg, tel), 0),
    };
    for rec in &found.records[start as usize..] {
        let ev = FleetEvent::decode(rec)?;
        if let Some(ms) = ev.now_ms() {
            last_now_ms = last_now_ms.max(ms);
        }
        ev.apply(&mut core);
    }
    Ok(Recovered {
        core,
        journal: FleetJournal::new(Sink::Disk(found.reopen(FsyncPolicy::Never, head)?)),
        journal_head: head,
        events_replayed: head - start,
        last_now_ms,
        torn_tail_dropped: found.truncated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dufp_journal::{list_checkpoints, read_records, truncate_records, TestDir};
    use std::time::Duration;

    fn cfg() -> CoordinatorConfig {
        CoordinatorConfig::new("virtual", Watts(300.0)).with_epoch(Duration::from_millis(1000))
    }

    /// Drives a journaled core through a small fleet history and returns
    /// it alongside its journal directory.
    fn journaled_run(dir: &Path, epochs: u64) -> FleetCore {
        let mut core = FleetCore::new(&cfg(), Telemetry::enabled());
        core.attach_journal(FleetJournal::create(dir).unwrap().with_checkpoint_every(7));
        let a = core
            .admit("a".into(), "EP".into(), Watts(65.0), Watts(125.0), 0)
            .unwrap();
        let b = core
            .admit("b".into(), "CG".into(), Watts(65.0), Watts(125.0), 0)
            .unwrap();
        for e in 1..=epochs {
            core.on_report(a, e, Watts(90.0), Watts(85.0), true, e * 1000 - 500);
            // b misbehaves: NaN demand walks the trust ladder.
            core.on_report(b, e, Watts(f64::NAN), Watts(-2.0), true, e * 1000 - 500);
            core.on_heartbeat(a, e, e * 1000 - 400);
            core.epoch_once(e * 1000);
        }
        core
    }

    #[test]
    fn recovery_is_byte_identical_including_trust_state() {
        let dir = TestDir::new("fleet-recover");
        let core = journaled_run(dir.path(), 9);
        let rec = recover(dir.path(), &cfg(), Telemetry::enabled()).unwrap();
        assert_eq!(
            core.snapshot_bytes().unwrap(),
            rec.core.snapshot_bytes().unwrap(),
            "replayed core must match the journaling core byte for byte"
        );
        assert_eq!(rec.last_now_ms, 9000);
        assert!(!rec.torn_tail_dropped);
        // The checkpoint shortened the replay tail.
        assert!(
            rec.events_replayed < rec.journal_head,
            "replayed {} of {}",
            rec.events_replayed,
            rec.journal_head
        );
    }

    #[test]
    fn promote_bumps_term_and_survives_a_second_failover() {
        let dir = TestDir::new("fleet-promote");
        let first = journaled_run(dir.path(), 5);
        assert_eq!(first.term(), 1);
        drop(first); // primary dies

        let rec = recover(dir.path(), &cfg(), Telemetry::enabled()).unwrap();
        let mut heir = rec.core;
        heir.attach_journal(rec.journal);
        heir.promote();
        assert_eq!(heir.term(), 2);
        heir.epoch_once(7000);
        drop(heir); // heir dies too

        let rec2 = recover(dir.path(), &cfg(), Telemetry::enabled()).unwrap();
        assert_eq!(
            rec2.core.term(),
            2,
            "the term bump itself must be journaled"
        );
        assert_eq!(rec2.core.epoch(), 6);
    }

    #[test]
    fn torn_tail_is_sealed_and_recovery_still_works() {
        let dir = TestDir::new("fleet-torn");
        let core = journaled_run(dir.path(), 4);
        let before = core.snapshot_bytes().unwrap();
        drop(core);
        // Tear the last record by appending garbage to the newest segment.
        let segs = segment_paths(dir.path()).unwrap();
        let last = &segs.last().unwrap().1;
        let mut bytes = std::fs::read(last).unwrap();
        bytes.extend_from_slice(b"torn");
        std::fs::write(last, bytes).unwrap();

        let rec = recover(dir.path(), &cfg(), Telemetry::enabled()).unwrap();
        assert!(rec.torn_tail_dropped);
        // All intact records survived, so state still matches.
        assert_eq!(before, rec.core.snapshot_bytes().unwrap());
        // And the sealed journal accepts further appends.
        let mut j = rec.journal;
        j.record(&FleetEvent::Epoch { now_ms: 5000 }).unwrap();
        drop(j);
        let after = read_records(dir.path()).unwrap();
        assert!(!after.truncated);
        assert_eq!(after.records.len() as u64, rec.journal_head + 1);
    }

    /// Overwrites checkpoints with valid JSON that is not a `CoreSnapshot`
    /// (e.g. an older layout): the newest `n` of them.
    fn spoil_newest_checkpoints(dir: &Path, n: usize) {
        let all = list_checkpoints(dir).unwrap();
        assert_eq!(all.len(), 2, "the journal keeps two checkpoints");
        for (_, path) in all.iter().rev().take(n) {
            std::fs::write(path, br#"{"epoch":"nine","nodes":null}"#).unwrap();
        }
    }

    #[test]
    fn an_undecodable_checkpoint_falls_back_to_full_replay() {
        let dir = TestDir::new("fleet-bad-checkpoint");
        let core = journaled_run(dir.path(), 9);
        spoil_newest_checkpoints(dir.path(), 2);
        let rec = recover(dir.path(), &cfg(), Telemetry::enabled()).unwrap();
        assert_eq!(
            core.snapshot_bytes().unwrap(),
            rec.core.snapshot_bytes().unwrap()
        );
        assert_eq!(rec.events_replayed, rec.journal_head, "full replay");
        assert_eq!(rec.last_now_ms, 9000);
    }

    #[test]
    fn an_undecodable_newest_checkpoint_falls_back_to_the_older_one() {
        let dir = TestDir::new("fleet-older-checkpoint");
        let core = journaled_run(dir.path(), 9);
        let (older, _) = list_checkpoints(dir.path()).unwrap()[0];
        spoil_newest_checkpoints(dir.path(), 1);
        let rec = recover(dir.path(), &cfg(), Telemetry::enabled()).unwrap();
        assert_eq!(
            core.snapshot_bytes().unwrap(),
            rec.core.snapshot_bytes().unwrap()
        );
        assert!(older > 0);
        assert_eq!(rec.events_replayed, rec.journal_head - older);
        assert_eq!(rec.last_now_ms, 9000);
    }

    #[test]
    fn every_checkpoint_beyond_the_head_falls_back_to_full_replay() {
        let dir = TestDir::new("fleet-outrun");
        drop(journaled_run(dir.path(), 9));
        let records = read_records(dir.path()).unwrap().records;
        let (older, _) = list_checkpoints(dir.path()).unwrap()[0];
        assert!(older > 20, "both checkpoints lie beyond record 20");
        truncate_records(dir.path(), 20).unwrap();
        let rec = recover(dir.path(), &cfg(), Telemetry::enabled()).unwrap();
        let mut fresh = FleetCore::new(&cfg(), Telemetry::enabled());
        for r in &records[..20] {
            FleetEvent::decode(r).unwrap().apply(&mut fresh);
        }
        assert_eq!(
            fresh.snapshot_bytes().unwrap(),
            rec.core.snapshot_bytes().unwrap()
        );
        assert_eq!((rec.journal_head, rec.events_replayed), (20, 20));
    }

    /// Drives `core` through every journaling path: accepted and refused
    /// admissions, reports and heartbeats to live and departed slots, a
    /// goodbye, epochs, and finally a higher term that fences the core.
    fn drive_every_input(core: &mut FleetCore) {
        let a = core
            .admit("a".into(), "EP".into(), Watts(65.0), Watts(125.0), 0)
            .unwrap();
        let b = core
            .admit("b".into(), "CG".into(), Watts(65.0), Watts(125.0), 0)
            .unwrap();
        assert!(core
            .admit("c".into(), "EP".into(), Watts(f64::NAN), Watts(125.0), 0)
            .is_err());
        for e in 1..=3u64 {
            core.on_report(a, e, Watts(90.0), Watts(85.0), true, e * 1000 - 500);
            core.on_report(b, e, Watts(80.0), Watts(70.0), true, e * 1000 - 500);
            core.on_heartbeat(a, e, e * 1000 - 400);
            core.epoch_once(e * 1000);
        }
        core.on_goodbye(b);
        core.on_goodbye(b);
        core.on_report(b, 4, Watts(80.0), Watts(70.0), true, 3500);
        core.on_heartbeat(b, 4, 3600);
        core.on_report(a, 4, Watts(90.0), Watts(85.0), true, 3500);
        core.on_report(9, 1, Watts(90.0), Watts(85.0), true, 3500);
        core.epoch_once(4000);
        assert!(core.observe_term(1).is_ok());
        assert!(core.observe_term(5).is_err());
        core.on_report(a, 5, Watts(90.0), Watts(85.0), true, 4500);
        assert!(core
            .admit("d".into(), "EP".into(), Watts(65.0), Watts(125.0), 4600)
            .is_err());
        core.epoch_once(5000);
    }

    #[test]
    fn the_memory_sink_keeps_exactly_what_the_disk_sink_writes() {
        let dir = TestDir::new("fleet-sinks");
        let mut disk = FleetCore::new(&cfg(), Telemetry::enabled());
        disk.attach_journal(FleetJournal::create(dir.path()).unwrap());
        let mut memory = FleetCore::new(&cfg(), Telemetry::enabled());
        memory.attach_journal(FleetJournal::in_memory());
        drive_every_input(&mut disk);
        drive_every_input(&mut memory);
        assert_eq!(disk.journal().and_then(FleetJournal::events), None);
        drop(disk);

        let kept = memory.journal().and_then(FleetJournal::events).unwrap();
        let written: Vec<FleetEvent> = read_records(dir.path())
            .unwrap()
            .records
            .iter()
            .map(|r| FleetEvent::decode(r).unwrap())
            .collect();
        assert_eq!(kept, written.as_slice());
        // Two admits, 3 × (2 reports + heartbeat + epoch), one goodbye,
        // one report, one epoch, the fence; nothing after it.
        assert_eq!(kept.len(), 2 + 3 * 4 + 3 + 1);
        assert_eq!(kept.last(), Some(&FleetEvent::Fence { term: 5 }));
        assert!(list_checkpoints(dir.path()).unwrap().is_empty());
    }

    /// A coordinator configuration with room for `agents` floors.
    fn fleet_cfg(agents: usize) -> CoordinatorConfig {
        CoordinatorConfig::new("virtual", Watts(100.0 * agents as f64))
            .with_epoch(Duration::from_millis(1000))
    }

    /// Admits `agents` nodes, then runs `epochs` epochs in which every
    /// node reports and the first one heartbeats (`agents` + 2 events per
    /// epoch); `at_close` sees the core after each `epoch_once`.
    fn run_fleet(
        core: &mut FleetCore,
        agents: usize,
        epochs: u64,
        mut at_close: impl FnMut(&FleetCore, u64),
    ) {
        for i in 0..agents {
            core.admit(
                format!("n{i:03}"),
                "EP".into(),
                Watts(65.0),
                Watts(125.0),
                0,
            )
            .unwrap();
        }
        for e in 1..=epochs {
            for slot in 0..agents {
                core.on_report(slot, e, Watts(90.0), Watts(85.0), true, e * 1000 - 500);
            }
            core.on_heartbeat(0, e, e * 1000 - 400);
            core.epoch_once(e * 1000);
            at_close(core, e);
        }
    }

    fn unsynced(core: &FleetCore) -> u32 {
        core.journal().unwrap().unsynced()
    }

    /// The value of counter `name`; `None` when it never counted.
    fn counter(tel: &Telemetry, name: &str) -> Option<u64> {
        let snap = tel.metrics_snapshot();
        snap.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    fn copy_dir(from: &Path, to: &Path) {
        for entry in std::fs::read_dir(from).unwrap() {
            let path = entry.unwrap().path();
            std::fs::copy(&path, to.join(path.file_name().unwrap())).unwrap();
        }
    }

    #[test]
    fn group_commit_leaves_nothing_unsynced_and_every_epoch_close_recovers() {
        // 2 agents: checkpoints every 16th epoch; 256: at the first only.
        for (agents, epochs) in [(2, 20), (256, 3)] {
            let cfg = fleet_cfg(agents);
            let dir = TestDir::new("fleet-group-commit");
            let mut core = FleetCore::new(&cfg, Telemetry::disabled());
            core.attach_journal(FleetJournal::create(dir.path()).unwrap());
            let mut closes = Vec::new();
            run_fleet(&mut core, agents, epochs, |core, e| {
                assert_eq!(unsynced(core), 0, "{agents} agents, epoch {e}");
                let head = read_records(dir.path()).unwrap().records.len() as u64;
                closes.push((head, core.snapshot_bytes().unwrap()));
            });
            // The journal cut at each epoch close rebuilds that epoch.
            for (head, snapshot) in closes {
                let cut = TestDir::new("fleet-group-commit-cut");
                copy_dir(dir.path(), cut.path());
                truncate_records(cut.path(), head).unwrap();
                let rec = recover(cut.path(), &cfg, Telemetry::disabled()).unwrap();
                assert_eq!(rec.journal_head, head);
                let rebuilt = rec.core.snapshot_bytes().unwrap();
                assert!(rebuilt == snapshot, "{agents} agents, head {head}");
            }
        }
    }

    #[test]
    fn group_commit_syncs_a_fence_at_the_next_epoch_close() {
        let dir = TestDir::new("fleet-group-commit-fence");
        let mut core = FleetCore::new(&fleet_cfg(2), Telemetry::disabled());
        core.attach_journal(FleetJournal::create(dir.path()).unwrap());
        run_fleet(&mut core, 2, 2, |_, _| {});
        assert!(core.observe_term(5).is_err());
        assert_eq!(unsynced(&core), 1, "the Fence record");
        core.epoch_once(3000);
        assert_eq!(unsynced(&core), 0);
        let last = read_records(dir.path()).unwrap().records.pop().unwrap();
        assert_eq!(
            FleetEvent::decode(&last).unwrap(),
            FleetEvent::Fence { term: 5 }
        );
    }

    #[test]
    fn group_commit_counts_one_sync_per_epoch_on_disk_and_none_in_memory() {
        let tel = Telemetry::enabled();
        let dir = TestDir::new("fleet-group-commit-count");
        let mut disk = FleetCore::new(&fleet_cfg(2), tel.clone());
        disk.attach_journal(FleetJournal::create(dir.path()).unwrap());
        run_fleet(&mut disk, 2, 20, |_, _| {});
        // Epoch 16 checkpointed: its log sync was that epoch's commit.
        assert_eq!(list_checkpoints(dir.path()).unwrap().len(), 1);
        assert_eq!(counter(&tel, "journal_commits_total"), Some(20));
        // Nothing unsynced: no sync, no count.
        disk.commit_journal();
        assert_eq!(counter(&tel, "journal_commits_total"), Some(20));
        // A farewell's commit syncs the inputs since the last epoch.
        disk.on_report(0, 21, Watts(90.0), Watts(85.0), true, 20_500);
        disk.commit_journal();
        assert_eq!(counter(&tel, "journal_commits_total"), Some(21));
        assert_eq!(unsynced(&disk), 0);
        assert_eq!(counter(&tel, "journal_errors_total"), None);

        let tel = Telemetry::enabled();
        let mut memory = FleetCore::new(&fleet_cfg(2), tel.clone());
        memory.attach_journal(FleetJournal::in_memory());
        run_fleet(&mut memory, 2, 20, |_, _| {});
        memory.commit_journal();
        assert_eq!(unsynced(&memory), 0);
        assert_eq!(counter(&tel, "journal_commits_total"), None);
    }

    #[test]
    fn checkpoints_are_taken_at_epoch_close_at_most_once_per_epoch() {
        // (agents, epochs, [(epoch, checkpoint seq)]): 2 agents journal 4
        // events an epoch, so the first close past 64 events is every
        // 16th; 100 agents pass 64 every epoch, but the log outgrows the
        // last snapshot only every 4-5 epochs.
        let cases = [
            (2, 50, vec![(16, 66), (32, 130), (48, 194)]),
            (100, 16, vec![(1, 202), (6, 712), (11, 1222), (15, 1630)]),
        ];
        for (agents, epochs, want) in cases {
            let dir = TestDir::new("fleet-cadence");
            let mut core = FleetCore::new(&fleet_cfg(agents), Telemetry::disabled());
            core.attach_journal(FleetJournal::create(dir.path()).unwrap());
            let mut taken = Vec::new();
            run_fleet(&mut core, agents, epochs, |_, e| {
                if let Some((seq, _)) = list_checkpoints(dir.path()).unwrap().pop() {
                    if taken.last().map(|&(_, last)| last) != Some(seq) {
                        taken.push((e, seq));
                    }
                }
            });
            assert_eq!(taken, want, "{agents} agents");
        }
    }

    #[test]
    fn replay_after_the_newest_checkpoint_stays_bounded_at_fleet_scale() {
        let (agents, epochs) = (256, 40);
        let cfg = fleet_cfg(agents);
        let dir = TestDir::new("fleet-replay-bound");
        let mut core = FleetCore::new(&cfg, Telemetry::disabled());
        core.attach_journal(FleetJournal::create(dir.path()).unwrap());
        let (mut taken, mut newest, mut last_head) = (0, None, 0);
        run_fleet(&mut core, agents, epochs, |core, e| {
            let records = read_records(dir.path()).unwrap().records;
            let head = records.len();
            let (seq, path) = list_checkpoints(dir.path()).unwrap().pop().unwrap();
            if newest != Some(seq) {
                (taken, newest) = (taken + 1, Some(seq));
            }
            let cut = TestDir::new("fleet-replay-bound-cut");
            copy_dir(dir.path(), cut.path());
            let rec = recover(cut.path(), &cfg, Telemetry::disabled()).unwrap();
            assert!(
                rec.core.snapshot_bytes().unwrap() == core.snapshot_bytes().unwrap(),
                "epoch {e}"
            );
            let since = &records[seq as usize..];
            assert!(rec.events_replayed <= since.len() as u64, "epoch {e}");
            let bytes = |rs: &[Vec<u8>]| rs.iter().map(Vec::len).sum::<usize>();
            let checkpoint = std::fs::metadata(&path).unwrap().len() as usize;
            assert!(
                bytes(since) <= checkpoint + bytes(&records[last_head..]),
                "epoch {e}: {} tail bytes after a {checkpoint} B checkpoint",
                bytes(since)
            );
            last_head = head;
        });
        assert!(taken < epochs, "{taken} checkpoints in {epochs} epochs");
    }

    #[test]
    fn events_round_trip_through_encode_decode() {
        let evs = [
            FleetEvent::Admit {
                name: "n0".into(),
                app: "EP".into(),
                floor_w: 65.0,
                node_max_w: 125.0,
                now_ms: 42,
            },
            FleetEvent::Report {
                slot: 3,
                seq: 17,
                ceiling_w: 105.0,
                consumption_w: 98.5,
                active: true,
                now_ms: 950,
            },
            FleetEvent::Heartbeat {
                slot: 1,
                seq: 9,
                now_ms: 1001,
            },
            FleetEvent::Goodbye { slot: 2 },
            FleetEvent::Epoch { now_ms: 2000 },
            FleetEvent::Fence { term: 4 },
            FleetEvent::TermBump { term: 5 },
        ];
        for ev in evs {
            let bytes = ev.encode().unwrap();
            assert_eq!(FleetEvent::decode(&bytes).unwrap(), ev, "{ev:?}");
        }
        assert!(FleetEvent::decode(b"not json").is_err());
    }
}
