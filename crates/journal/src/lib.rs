//! Crash-safe durability for long experiments.
//!
//! The paper's DUFP campaigns run for hours on shared hardware; PR 2 made
//! a run survive actuator faults, but a process crash (OOM-kill, node
//! reboot, scheduler preemption) still discarded everything. This crate
//! provides what a run, or the fleet coordinator, needs to resume:
//!
//! * [`JournalWriter`] / [`read_records`] — an append-only write-ahead
//!   journal of opaque byte records, CRC-32-framed, rotated over segment
//!   files, with a configurable [`FsyncPolicy`]. The reader tolerates the
//!   one corruption a crash can produce — a torn tail — by truncating at
//!   the first bad record instead of failing the file.
//! * [`JournalWriter::checkpoint`] — atomic full-state snapshots (temp
//!   file + fsync + rename) sealed at the journal head, pruned to the
//!   last [`KEEP_CHECKPOINTS`].
//! * [`recover`] — the one crash-recovery path: it reads the segments
//!   once and picks the checkpoint to start from, falling back to the
//!   older one and then to a full replay (never to an error) when the
//!   newest outruns the surviving journal or does not decode;
//!   [`Recovery::reopen`] seals a torn tail and resumes appending.
//!
//! Everything here is byte-generic: the typed record/checkpoint schemas
//! (what the runner actually journals) live in the `dufp` core crate, and
//! the crash-equivalence semantics — kill-at-tick-N + resume must be
//! bit-identical to an uninterrupted run — are verified there and in the
//! fleet journal of `dufp-net`. DESIGN.md §11 documents the format and
//! the recovery rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod crc;
mod journal;
mod testdir;

pub use checkpoint::{
    list_checkpoints, load_checkpoint, recover, write_checkpoint, write_file_atomic, Recovery,
    KEEP_CHECKPOINTS,
};
pub use crc::crc32;
pub use journal::{
    read_records, segment_paths, truncate_records, FsyncPolicy, JournalWriter, ReadOutcome,
    DEFAULT_SEGMENT_BYTES, SEGMENT_MAGIC,
};
pub use testdir::TestDir;
