//! Atomic checkpoints beside the journal, and the one rule that picks the
//! checkpoint a recovery starts from.
//!
//! A checkpoint is the caller's serialized state at sequence number `seq`
//! (for the runner: the control-interval index whose journal record is
//! already durable). Writes are atomic — payload goes to a temp file,
//! `fdatasync`, then `rename(2)` — so a crash mid-checkpoint leaves the
//! previous checkpoint intact. The last two checkpoints are retained so
//! [`recover`] can fall back to the older one when the newest outruns a
//! torn journal or no longer decodes.

use crate::journal::{read_records, sync_dir, FsyncPolicy, JournalWriter, ReadOutcome};
use dufp_types::Result;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Checkpoints retained after a successful write.
pub const KEEP_CHECKPOINTS: usize = 2;

fn checkpoint_name(seq: u64) -> String {
    format!("checkpoint-{seq:08}.json")
}

/// Lists `(seq, path)` for every checkpoint in `dir`, ascending by seq.
pub fn list_checkpoints(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(rest) = name
            .strip_prefix("checkpoint-")
            .and_then(|r| r.strip_suffix(".json"))
        {
            if let Ok(seq) = rest.parse::<u64>() {
                out.push((seq, entry.path()));
            }
        }
    }
    out.sort_by_key(|(s, _)| *s);
    Ok(out)
}

/// Atomically writes `payload` to an arbitrary file name in `dir` (temp
/// file + fdatasync + rename). Used for checkpoints and the run metadata.
pub fn write_file_atomic(dir: &Path, name: &str, payload: &[u8]) -> Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let tmp = dir.join(format!("{name}.tmp"));
    let target = dir.join(name);
    {
        let mut f = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp)?;
        f.write_all(payload)?;
        f.sync_data()?;
    }
    fs::rename(&tmp, &target)?;
    // Make the rename itself durable.
    sync_dir(dir)?;
    Ok(target)
}

/// Atomically writes checkpoint `seq` and prunes older checkpoints down to
/// [`KEEP_CHECKPOINTS`]. Returns the checkpoint path.
pub fn write_checkpoint(dir: &Path, seq: u64, payload: &[u8]) -> Result<PathBuf> {
    let target = write_file_atomic(dir, &checkpoint_name(seq), payload)?;
    let all = list_checkpoints(dir)?;
    if all.len() > KEEP_CHECKPOINTS {
        for (_, path) in &all[..all.len() - KEEP_CHECKPOINTS] {
            let _ = fs::remove_file(path);
        }
    }
    Ok(target)
}

/// Reads a checkpoint's raw payload.
pub fn load_checkpoint(path: &Path) -> Result<Vec<u8>> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    Ok(bytes)
}

/// A journal directory read for recovery.
#[derive(Debug)]
pub struct Recovery<T> {
    dir: PathBuf,
    /// Every intact record, in append order.
    pub records: Vec<Vec<u8>>,
    /// The checkpoint to start from, `(seq, state)`: replay
    /// `records[seq..]` on top of `state`. `None` means a full replay.
    pub checkpoint: Option<(u64, T)>,
    /// True when a torn or corrupt record cut the read short.
    pub truncated: bool,
}

/// Reads the journal in `dir` once and picks the checkpoint to recover
/// from. The one rule: the newest checkpoint whose seq is at or below the
/// journal head and that reads and `decode`s; failing that, the older
/// retained one; failing both, a full replay. Writers sync the log before
/// sealing a checkpoint, so `seq == head` is a crash at a checkpoint
/// boundary with an empty tail. A checkpoint beyond the head claims
/// records the disk lacks: it is skipped, never an error. Reads only.
pub fn recover<T, E>(
    dir: &Path,
    mut decode: impl FnMut(&[u8]) -> std::result::Result<T, E>,
) -> Result<Recovery<T>> {
    let ReadOutcome { records, truncated } = read_records(dir)?;
    let head = records.len() as u64;
    let checkpoint = (list_checkpoints(dir)?.into_iter().rev())
        .filter(|(seq, _)| *seq <= head)
        .find_map(|(seq, path)| Some((seq, decode(&load_checkpoint(&path).ok()?).ok()?)));
    Ok(Recovery {
        dir: dir.to_path_buf(),
        records,
        checkpoint,
        truncated,
    })
}

impl<T> Recovery<T> {
    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Reopens the journal for appending after its first `keep` records.
    /// A torn tail, or records past `keep`, are cut by rewriting the
    /// segments from the records already read; an intact journal kept
    /// whole is reopened as it is.
    pub fn reopen(&self, policy: FsyncPolicy, keep: u64) -> Result<JournalWriter> {
        let keep = keep.min(self.records.len() as u64);
        if self.truncated || keep < self.records.len() as u64 {
            JournalWriter::rewrite(&self.dir, &self.records[..keep as usize], policy)
        } else {
            JournalWriter::open(&self.dir, policy, keep)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdir::TestDir;
    use crate::truncate_records;

    #[test]
    fn write_load_roundtrip() {
        let t = TestDir::new("ckpt-roundtrip");
        let p = write_checkpoint(t.path(), 7, b"{\"interval\":7}").unwrap();
        assert_eq!(load_checkpoint(&p).unwrap(), b"{\"interval\":7}");
        assert!(p
            .file_name()
            .unwrap()
            .to_string_lossy()
            .contains("00000007"));
    }

    #[test]
    fn retains_only_the_last_two() {
        let t = TestDir::new("ckpt-prune");
        for seq in [3u64, 6, 9, 12] {
            write_checkpoint(t.path(), seq, format!("s{seq}").as_bytes()).unwrap();
        }
        let all = list_checkpoints(t.path()).unwrap();
        assert_eq!(all.iter().map(|(s, _)| *s).collect::<Vec<_>>(), vec![9, 12]);
    }

    /// A journal of `n` records `r0`, `r1`, … in `dir`.
    fn journal(dir: &Path, n: u64) {
        let mut w = JournalWriter::create(dir, FsyncPolicy::Never).unwrap();
        for i in 0..n {
            w.append(format!("r{i}").as_bytes()).unwrap();
        }
        w.sync().unwrap();
    }

    /// Decodes any checkpoint that is valid UTF-8 starting with `s`.
    fn text(payload: &[u8]) -> std::result::Result<String, ()> {
        let s = String::from_utf8(payload.to_vec()).map_err(drop)?;
        s.starts_with('s').then_some(s).ok_or(())
    }

    fn start(dir: &Path) -> Option<(u64, String)> {
        recover(dir, text).unwrap().checkpoint
    }

    #[test]
    fn no_checkpoints_means_replay_from_scratch() {
        let t = TestDir::new("ckpt-none");
        journal(t.path(), 100);
        let r = recover(t.path(), text).unwrap();
        assert_eq!(
            (r.checkpoint, r.records.len(), r.truncated),
            (None, 100, false)
        );
    }

    #[test]
    fn newer_than_head_falls_back_to_older() {
        let t = TestDir::new("ckpt-fallback");
        journal(t.path(), 20);
        write_checkpoint(t.path(), 10, b"s-old").unwrap();
        write_checkpoint(t.path(), 50, b"s-new").unwrap();
        // Journal head is 20 records: checkpoint 50 is unusable, 10 works.
        assert_eq!(start(t.path()), Some((10, "s-old".into())));
    }

    #[test]
    fn all_checkpoints_beyond_the_head_fall_back_to_full_replay() {
        let t = TestDir::new("ckpt-beyond");
        journal(t.path(), 20);
        write_checkpoint(t.path(), 40, b"s-a").unwrap();
        write_checkpoint(t.path(), 50, b"s-b").unwrap();
        let r = recover(t.path(), text).unwrap();
        assert_eq!((r.checkpoint, r.records.len()), (None, 20));
    }

    #[test]
    fn checkpoint_at_head_is_usable_with_an_empty_tail() {
        // seq == head is a crash exactly at a checkpoint boundary: the log
        // was synced before the checkpoint was sealed, so every folded
        // record is durable and the replay tail is simply empty.
        let t = TestDir::new("ckpt-at-head");
        journal(t.path(), 5);
        write_checkpoint(t.path(), 5, b"s-x").unwrap();
        assert_eq!(start(t.path()), Some((5, "s-x".into())));
        // One record fewer and the checkpoint outruns the head.
        truncate_records(t.path(), 4).unwrap();
        assert_eq!(start(t.path()), None);
    }

    #[test]
    fn an_undecodable_newest_checkpoint_falls_back_to_the_older_one() {
        let t = TestDir::new("ckpt-undecodable-newest");
        journal(t.path(), 30);
        write_checkpoint(t.path(), 10, b"s-old").unwrap();
        write_checkpoint(t.path(), 20, b"x-new-layout").unwrap();
        assert_eq!(start(t.path()), Some((10, "s-old".into())));
    }

    #[test]
    fn undecodable_checkpoints_fall_back_to_full_replay() {
        let t = TestDir::new("ckpt-undecodable-all");
        journal(t.path(), 30);
        write_checkpoint(t.path(), 10, b"x-a").unwrap();
        write_checkpoint(t.path(), 20, &[0xFF, 0xFE]).unwrap();
        assert_eq!(start(t.path()), None);
    }

    #[test]
    fn a_torn_tail_is_sealed_then_appended_to() {
        let t = TestDir::new("ckpt-torn");
        journal(t.path(), 8);
        let (_, seg) = crate::segment_paths(t.path()).unwrap().pop().unwrap();
        let mut bytes = fs::read(&seg).unwrap();
        bytes.extend_from_slice(b"torn");
        fs::write(&seg, &bytes).unwrap();

        let r = recover(t.path(), text).unwrap();
        assert!(r.truncated);
        assert_eq!(r.records.len(), 8);
        // Recovery only reads: the torn bytes are still there.
        assert_eq!(fs::read(&seg).unwrap(), bytes);
        let mut w = r.reopen(FsyncPolicy::Always, 8).unwrap();
        assert_eq!(w.records_written(), 8);
        w.append(b"r8").unwrap();
        let after = read_records(t.path()).unwrap();
        assert!(!after.truncated);
        let want: Vec<Vec<u8>> = (0..9).map(|i| format!("r{i}").into_bytes()).collect();
        assert_eq!(after.records, want);
    }

    #[test]
    fn checkpoints_seal_at_the_writer_head() {
        let t = TestDir::new("ckpt-writer");
        let mut w = JournalWriter::create(t.path(), FsyncPolicy::Never).unwrap();
        for i in 0..3 {
            w.append(format!("r{i}").as_bytes()).unwrap();
        }
        w.checkpoint(b"s-three").unwrap();
        assert_eq!(start(t.path()), Some((3, "s-three".into())));
    }

    #[test]
    fn atomic_write_leaves_no_tmp_behind() {
        let t = TestDir::new("ckpt-tmp");
        write_file_atomic(t.path(), "meta.json", b"{}").unwrap();
        let names: Vec<_> = fs::read_dir(t.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["meta.json"]);
    }
}
