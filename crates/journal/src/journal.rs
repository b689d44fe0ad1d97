//! The append-only, CRC-framed, segment-rotated write-ahead journal.
//!
//! On-disk layout inside a journal directory:
//!
//! ```text
//! segment-00000000.log      [magic "DUFPJNL1"] [record]*
//! segment-00000001.log      ...
//! ```
//!
//! Each record is framed as `[len: u32 LE][crc32: u32 LE][payload]` where
//! the CRC covers the payload bytes only. The reader is
//! corruption-tolerant: the first torn or corrupt record truncates the
//! logical journal at that point — everything before it is returned,
//! everything after (including later segments) is discarded. That is the
//! right semantics for a write-ahead log: a crash can only tear the tail.

use crate::checkpoint::write_checkpoint;
use crate::crc::crc32;
use dufp_types::{Error, Result};
use serde::{DeError, Deserialize, Reader, Serialize};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"DUFPJNL1";

/// Bytes of framing per record in addition to the payload.
const FRAME_BYTES: u64 = 8;

/// Default rotation threshold (1 MiB) — small enough that a multi-hour
/// campaign spreads over many segments and a torn tail loses one segment
/// of locality at most.
pub const DEFAULT_SEGMENT_BYTES: u64 = 1 << 20;

/// When appended records are flushed to stable storage. The CLI flag and
/// the serialized form share one grammar: `always`, `never` or `every:N`
/// ([`FsyncPolicy::parse`], [`FsyncPolicy::label`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every record — maximum durability, one syscall
    /// per control interval.
    Always,
    /// `fdatasync` every N records (and on rotation / explicit sync).
    EveryN(u32),
    /// Never fsync implicitly; the OS flushes when it pleases. Crash
    /// durability is best-effort but checkpoints still sync explicitly.
    Never,
}

impl Default for FsyncPolicy {
    /// `every:8`.
    fn default() -> Self {
        FsyncPolicy::EveryN(8)
    }
}

impl FsyncPolicy {
    /// Parses `always`, `never` or `every:N` (N ≥ 1).
    pub fn parse(v: &str) -> Result<Self> {
        let bad = |detail: String| Error::invalid("fsync", detail);
        match v {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            other => {
                let n = other
                    .strip_prefix("every:")
                    .ok_or_else(|| bad(format!("bad policy {other} (always|never|every:N)")))?;
                match n.parse::<u32>() {
                    Ok(0) => Err(bad("every:0 makes no sense; use never".into())),
                    Ok(n) => Ok(FsyncPolicy::EveryN(n)),
                    Err(_) => Err(bad(format!("bad interval {n}"))),
                }
            }
        }
    }

    /// The policy in [`FsyncPolicy::parse`]'s grammar.
    pub fn label(&self) -> String {
        match self {
            FsyncPolicy::Always => "always".into(),
            FsyncPolicy::EveryN(n) => format!("every:{n}"),
            FsyncPolicy::Never => "never".into(),
        }
    }
}

impl Serialize for FsyncPolicy {
    fn write_json(&self, out: &mut String) {
        serde::json::write_str(out, &self.label());
    }
}

impl Deserialize for FsyncPolicy {
    fn read_json(r: &mut Reader<'_>) -> std::result::Result<Self, DeError> {
        FsyncPolicy::parse(&String::read_json(r)?).map_err(DeError::custom)
    }
}

fn segment_name(index: u64) -> String {
    format!("segment-{index:08}.log")
}

/// Lists `(index, path)` for every segment file in `dir`, ascending.
pub fn segment_paths(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(rest) = name
            .strip_prefix("segment-")
            .and_then(|r| r.strip_suffix(".log"))
        {
            if let Ok(index) = rest.parse::<u64>() {
                out.push((index, entry.path()));
            }
        }
    }
    out.sort_by_key(|(i, _)| *i);
    Ok(out)
}

/// Appends CRC-framed records to rotating segment files.
pub struct JournalWriter {
    dir: PathBuf,
    file: File,
    seg_index: u64,
    seg_bytes: u64,
    max_segment_bytes: u64,
    policy: FsyncPolicy,
    unsynced: u32,
    records: u64,
    /// Reused buffer holding one framed record, so each append is a
    /// single `write(2)`.
    frame: Vec<u8>,
}

impl JournalWriter {
    /// Creates a fresh journal in `dir` (created if missing). Fails with a
    /// precondition error if segments already exist — resuming callers
    /// must go through [`Recovery::reopen`](crate::Recovery::reopen) so an
    /// existing tail is never silently clobbered.
    pub fn create(dir: &Path, policy: FsyncPolicy) -> Result<Self> {
        fs::create_dir_all(dir)?;
        if !segment_paths(dir)?.is_empty() {
            return Err(Error::Precondition(format!(
                "journal directory {} already contains segments; \
                 use resume or a fresh directory",
                dir.display()
            )));
        }
        let file = Self::start_segment(dir, 0)?;
        Ok(JournalWriter {
            dir: dir.to_path_buf(),
            file,
            seg_index: 0,
            seg_bytes: SEGMENT_MAGIC.len() as u64,
            max_segment_bytes: DEFAULT_SEGMENT_BYTES,
            policy,
            unsynced: 0,
            records: 0,
            frame: Vec::new(),
        })
    }

    /// Opens an intact journal for appending to its highest segment as it
    /// is; `existing_records` seeds [`JournalWriter::records_written`].
    /// Resuming callers reach it through [`crate::Recovery::reopen`],
    /// which seals a torn tail first.
    pub(crate) fn open(dir: &Path, policy: FsyncPolicy, existing_records: u64) -> Result<Self> {
        let segs = segment_paths(dir)?;
        let (seg_index, seg_bytes, file) = match segs.last() {
            None => (0, SEGMENT_MAGIC.len() as u64, Self::start_segment(dir, 0)?),
            Some((index, path)) => {
                let len = fs::metadata(path)?.len();
                let file = OpenOptions::new().append(true).open(path)?;
                (*index, len, file)
            }
        };
        Ok(JournalWriter {
            dir: dir.to_path_buf(),
            file,
            seg_index,
            seg_bytes,
            max_segment_bytes: DEFAULT_SEGMENT_BYTES,
            policy,
            unsynced: 0,
            records: existing_records,
            frame: Vec::new(),
        })
    }

    /// Overrides the rotation threshold (bytes per segment).
    pub fn with_max_segment_bytes(mut self, bytes: u64) -> Self {
        self.max_segment_bytes = bytes.max(SEGMENT_MAGIC.len() as u64 + FRAME_BYTES);
        self
    }

    fn start_segment(dir: &Path, index: u64) -> Result<File> {
        let mut file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(dir.join(segment_name(index)))?;
        file.write_all(SEGMENT_MAGIC)?;
        Ok(file)
    }

    /// Records appended so far (including any `existing_records` seed).
    pub fn records_written(&self) -> u64 {
        self.records
    }

    /// Appends one record, rotating and fsyncing per policy.
    pub fn append(&mut self, payload: &[u8]) -> Result<()> {
        let record_len = FRAME_BYTES + payload.len() as u64;
        if self.seg_bytes > SEGMENT_MAGIC.len() as u64
            && self.seg_bytes + record_len > self.max_segment_bytes
        {
            self.sync()?;
            self.seg_index += 1;
            self.file = Self::start_segment(&self.dir, self.seg_index)?;
            self.seg_bytes = SEGMENT_MAGIC.len() as u64;
        }
        let len = u32::try_from(payload.len())
            .map_err(|_| Error::invalid("journal record", "payload exceeds u32::MAX bytes"))?;
        self.frame.clear();
        self.frame.extend_from_slice(&len.to_le_bytes());
        self.frame.extend_from_slice(&crc32(payload).to_le_bytes());
        self.frame.extend_from_slice(payload);
        self.file.write_all(&self.frame)?;
        self.seg_bytes += record_len;
        self.records += 1;
        self.unsynced += 1;
        let flush = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => self.unsynced >= n.max(1),
            FsyncPolicy::Never => false,
        };
        if flush {
            self.sync()?;
        }
        Ok(())
    }

    /// Flushes and `fdatasync`s the current segment.
    pub fn sync(&mut self) -> Result<()> {
        self.file.flush()?;
        self.file.sync_data()?;
        self.unsynced = 0;
        Ok(())
    }

    /// Seals `payload` as the checkpoint at
    /// [`JournalWriter::records_written`] ([`write_checkpoint`]), syncing
    /// the log first so the checkpoint never claims records the disk
    /// lacks.
    pub fn checkpoint(&mut self, payload: &[u8]) -> Result<()> {
        self.sync()?;
        write_checkpoint(&self.dir, self.records, payload).map(drop)
    }

    /// Replaces the journal in `dir` with exactly `records` and returns a
    /// writer appending after them under `policy`.
    pub(crate) fn rewrite(dir: &Path, records: &[Vec<u8>], policy: FsyncPolicy) -> Result<Self> {
        for (_, path) in segment_paths(dir)? {
            fs::remove_file(path)?;
        }
        let mut w = Self::create(dir, FsyncPolicy::Never)?;
        for record in records {
            w.append(record)?;
        }
        w.sync()?;
        w.policy = policy;
        Ok(w)
    }
}

/// Result of a corruption-tolerant journal read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadOutcome {
    /// Every intact record, in append order.
    pub records: Vec<Vec<u8>>,
    /// True when a torn/corrupt record (or segment) cut the read short —
    /// everything at and after the bad point was discarded.
    pub truncated: bool,
}

/// Reads every intact record from the journal in `dir`.
///
/// Stops (setting `truncated`) at the first torn frame, CRC mismatch, bad
/// segment magic, or gap in the segment numbering; I/O failures on the
/// directory itself still surface as typed errors.
pub fn read_records(dir: &Path) -> Result<ReadOutcome> {
    let mut records = Vec::new();
    let mut expected_index = None;
    for (index, path) in segment_paths(dir)? {
        if let Some(expected) = expected_index {
            if index != expected {
                return Ok(ReadOutcome {
                    records,
                    truncated: true,
                });
            }
        }
        expected_index = Some(index + 1);
        let mut bytes = Vec::new();
        File::open(&path)?.read_to_end(&mut bytes)?;
        if bytes.len() < SEGMENT_MAGIC.len() || &bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
            return Ok(ReadOutcome {
                records,
                truncated: true,
            });
        }
        let mut at = SEGMENT_MAGIC.len();
        while at < bytes.len() {
            if bytes.len() - at < FRAME_BYTES as usize {
                return Ok(ReadOutcome {
                    records,
                    truncated: true,
                });
            }
            let mut word = [0u8; 4];
            word.copy_from_slice(&bytes[at..at + 4]);
            let len = u32::from_le_bytes(word) as usize;
            word.copy_from_slice(&bytes[at + 4..at + 8]);
            let crc = u32::from_le_bytes(word);
            at += FRAME_BYTES as usize;
            if bytes.len() - at < len {
                return Ok(ReadOutcome {
                    records,
                    truncated: true,
                });
            }
            let payload = &bytes[at..at + len];
            if crc32(payload) != crc {
                return Ok(ReadOutcome {
                    records,
                    truncated: true,
                });
            }
            records.push(payload.to_vec());
            at += len;
        }
    }
    Ok(ReadOutcome {
        records,
        truncated: false,
    })
}

/// Cuts the journal in `dir` to its first `keep` intact records and
/// returns how many remain (fewer than `keep` if it was shorter).
pub fn truncate_records(dir: &Path, keep: u64) -> Result<u64> {
    let records = read_records(dir)?.records;
    let kept = keep.min(records.len() as u64);
    JournalWriter::rewrite(dir, &records[..kept as usize], FsyncPolicy::Never)?;
    Ok(kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdir::TestDir;

    #[test]
    fn fsync_labels_parse_back() {
        for p in [
            FsyncPolicy::Always,
            FsyncPolicy::EveryN(4),
            FsyncPolicy::Never,
        ] {
            assert_eq!(FsyncPolicy::parse(&p.label()).unwrap(), p);
        }
        assert_eq!(FsyncPolicy::default().label(), "every:8");
        for bad in ["every:0", "every:x", "every:", "sometimes", ""] {
            assert!(FsyncPolicy::parse(bad).is_err(), "{bad}");
        }
    }

    fn payloads(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| format!("record-{i}-{}", "x".repeat(i % 7)).into_bytes())
            .collect()
    }

    #[test]
    fn roundtrip_preserves_records_and_order() {
        let t = TestDir::new("journal-roundtrip");
        let mut w = JournalWriter::create(t.path(), FsyncPolicy::EveryN(4)).unwrap();
        let data = payloads(25);
        for p in &data {
            w.append(p).unwrap();
        }
        w.sync().unwrap();
        let out = read_records(t.path()).unwrap();
        assert!(!out.truncated);
        assert_eq!(out.records, data);
    }

    #[test]
    fn rotation_spreads_records_over_segments() {
        let t = TestDir::new("journal-rotation");
        let mut w = JournalWriter::create(t.path(), FsyncPolicy::Never)
            .unwrap()
            .with_max_segment_bytes(64);
        let data = payloads(40);
        for p in &data {
            w.append(p).unwrap();
        }
        w.sync().unwrap();
        assert!(
            segment_paths(t.path()).unwrap().len() > 1,
            "64-byte segments must rotate"
        );
        let out = read_records(t.path()).unwrap();
        assert!(!out.truncated);
        assert_eq!(out.records, data);
    }

    #[test]
    fn create_refuses_nonempty_directory() {
        let t = TestDir::new("journal-refuse");
        let mut w = JournalWriter::create(t.path(), FsyncPolicy::Never).unwrap();
        w.append(b"a").unwrap();
        w.sync().unwrap();
        drop(w);
        assert!(matches!(
            JournalWriter::create(t.path(), FsyncPolicy::Never),
            Err(Error::Precondition(_))
        ));
    }

    #[test]
    fn truncated_tail_recovers_prefix() {
        let t = TestDir::new("journal-torn");
        let mut w = JournalWriter::create(t.path(), FsyncPolicy::Always).unwrap();
        let data = payloads(10);
        for p in &data {
            w.append(p).unwrap();
        }
        drop(w);
        // Tear the last record: chop 3 bytes off the segment.
        let (_, path) = segment_paths(t.path()).unwrap().pop().unwrap();
        let len = fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let out = read_records(t.path()).unwrap();
        assert!(out.truncated);
        assert_eq!(out.records, data[..9].to_vec());
    }

    #[test]
    fn flipped_crc_byte_truncates_at_the_bad_record() {
        let t = TestDir::new("journal-crcflip");
        let mut w = JournalWriter::create(t.path(), FsyncPolicy::Always).unwrap();
        let data = payloads(6);
        for p in &data {
            w.append(p).unwrap();
        }
        drop(w);
        let (_, path) = segment_paths(t.path()).unwrap().pop().unwrap();
        let mut bytes = Vec::new();
        File::open(&path).unwrap().read_to_end(&mut bytes).unwrap();
        // Flip one payload byte of the 4th record (leaving its CRC stale).
        let mut at = SEGMENT_MAGIC.len();
        for _ in 0..3 {
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            at += FRAME_BYTES as usize + len;
        }
        bytes[at + FRAME_BYTES as usize] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let out = read_records(t.path()).unwrap();
        assert!(out.truncated);
        assert_eq!(out.records, data[..3].to_vec());
    }

    #[test]
    fn empty_segment_file_is_a_clean_truncation() {
        let t = TestDir::new("journal-empty-seg");
        let mut w = JournalWriter::create(t.path(), FsyncPolicy::Never)
            .unwrap()
            .with_max_segment_bytes(64);
        let data = payloads(12);
        for p in &data {
            w.append(p).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        // Simulate a crash right at rotation: a new segment exists but is
        // zero bytes (not even the magic landed).
        let last = segment_paths(t.path()).unwrap().last().unwrap().0;
        fs::write(t.path().join(segment_name(last + 1)), b"").unwrap();
        let out = read_records(t.path()).unwrap();
        assert!(out.truncated);
        assert_eq!(out.records, data, "all real records survive");
    }

    #[test]
    fn missing_middle_segment_truncates_at_the_gap() {
        let t = TestDir::new("journal-gap");
        let mut w = JournalWriter::create(t.path(), FsyncPolicy::Never)
            .unwrap()
            .with_max_segment_bytes(64);
        for p in payloads(40) {
            w.append(&p).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        let segs = segment_paths(t.path()).unwrap();
        assert!(segs.len() >= 3);
        fs::remove_file(&segs[1].1).unwrap();
        let out = read_records(t.path()).unwrap();
        assert!(out.truncated);
        let first_seg_only = read_segment_count(&segs[0].1);
        assert_eq!(out.records.len(), first_seg_only);
    }

    fn read_segment_count(path: &Path) -> usize {
        let mut bytes = Vec::new();
        File::open(path).unwrap().read_to_end(&mut bytes).unwrap();
        let mut at = SEGMENT_MAGIC.len();
        let mut n = 0;
        while at < bytes.len() {
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            at += FRAME_BYTES as usize + len;
            n += 1;
        }
        n
    }

    #[test]
    fn truncate_records_keeps_exact_prefix_and_reopens() {
        let t = TestDir::new("journal-truncate");
        let mut w = JournalWriter::create(t.path(), FsyncPolicy::Never)
            .unwrap()
            .with_max_segment_bytes(64);
        let data = payloads(30);
        for p in &data {
            w.append(p).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        assert_eq!(truncate_records(t.path(), 11).unwrap(), 11);
        let out = read_records(t.path()).unwrap();
        assert!(!out.truncated);
        assert_eq!(out.records, data[..11].to_vec());
        // Appending after truncation continues the sequence.
        let mut w = JournalWriter::open(t.path(), FsyncPolicy::Never, 11).unwrap();
        w.append(b"after-resume").unwrap();
        w.sync().unwrap();
        assert_eq!(w.records_written(), 12);
        drop(w);
        let out = read_records(t.path()).unwrap();
        assert_eq!(out.records.len(), 12);
        assert_eq!(out.records[11], b"after-resume");
    }
}
