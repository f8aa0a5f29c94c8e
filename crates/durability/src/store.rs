//! Directory-level orchestration: one snapshot lineage + WAL segments.
//!
//! On-disk layout of a store directory:
//!
//! ```text
//! snap-<seq>.qbs       versioned snapshot, atomic (newest + one fallback)
//! snap-<seq>.qbs.tmp   orphaned interrupted write (ignored, overwritten)
//! wal-<base>.qbw       WAL segment holding frames appended after seq <base>,
//!                      then zeros preallocated for the next frames
//! ```
//!
//! A segment file is longer than its log: frames overwrite zero fill that
//! was synced before them, so file sizes count allocated bytes and
//! [`StoreStats::wal_bytes`] counts the framed bytes.
//!
//! The WAL rotates on snapshot success: a snapshot at sequence `S` opens a
//! fresh `wal-<S>.qbw` and removes segments that even the *fallback*
//! snapshot no longer needs. Because every frame carries its own sequence
//! number and recovery skips frames at or below the loaded snapshot's
//! sequence, a crash anywhere between "snapshot renamed" and "old
//! segments removed" is harmless — stale frames are skipped, not
//! re-applied.

use std::fs;
use std::path::{Path, PathBuf};

use crate::fault::{check, FaultHook, IoPoint};
use crate::snapshot::{load_latest_snapshot, parse_snapshot_name, write_snapshot, Snapshot};
use crate::wal::{Wal, WalFrame};
use crate::DurabilityError;

/// What [`DurableStore::open`] found on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredState {
    /// The newest valid snapshot, if any.
    pub snapshot: Option<Snapshot>,
    /// WAL frames to replay: strictly after the snapshot's sequence,
    /// ascending. Already deduplicated against the snapshot by sequence.
    pub frames: Vec<WalFrame>,
    /// Newer snapshots skipped because they failed validation.
    pub corrupt_snapshots_skipped: u64,
    /// Stale frames (at or below the snapshot's sequence) found in WAL
    /// segments and skipped. Nonzero whenever retained fallback segments
    /// overlap the snapshot — including after a crash in the window
    /// between snapshot rename and WAL rotation.
    pub stale_frames_skipped: u64,
}

impl RecoveredState {
    /// Highest durable sequence number: the last replayable frame, or the
    /// snapshot itself, or 0 for a fresh store.
    pub fn durable_seq(&self) -> u64 {
        self.frames
            .last()
            .map(|f| f.seq)
            .or(self.snapshot.as_ref().map(|s| s.seq))
            .unwrap_or(0)
    }
}

/// Size/activity counters for observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Payload bytes of the most recent snapshot written by this handle.
    pub last_snapshot_bytes: u64,
    /// Frames appended through this handle.
    pub frames_appended: u64,
    /// Framed bytes (headers included, zero fill not) appended through
    /// this handle.
    pub wal_bytes: u64,
    /// Snapshots written through this handle.
    pub snapshots_written: u64,
}

/// An open durable store: the current WAL segment plus snapshot rotation.
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
    wal: Wal,
    hook: FaultHook,
    /// Snapshot sequence the current retention window is anchored at.
    snapshot_seq: u64,
    /// The previous (fallback) snapshot's sequence, if still on disk.
    fallback_seq: Option<u64>,
    stats: StoreStats,
}

fn parse_wal_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?.strip_suffix(".qbw")?.parse().ok()
}

fn wal_file_name(base: u64) -> String {
    format!("wal-{base:020}.qbw")
}

impl DurableStore {
    /// Opens (creating if needed) the store at `dir`, validating snapshots
    /// and WAL segments and truncating torn tails. Returns the handle
    /// positioned for append plus everything recovery needs to replay.
    pub fn open(dir: &Path, hook: FaultHook) -> Result<(Self, RecoveredState), DurabilityError> {
        fs::create_dir_all(dir)?;
        let (snapshot, corrupt_snapshots_skipped) = match load_latest_snapshot(dir)? {
            Some((snap, skipped)) => (Some(snap), skipped),
            None => (None, 0),
        };
        let snap_seq = snapshot.as_ref().map_or(0, |s| s.seq);

        // Collect segments ascending by base so replay order is stable.
        let mut bases: Vec<u64> = Vec::new();
        let mut fallback_seq = None;
        for entry in fs::read_dir(dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(base) = parse_wal_name(&name) {
                bases.push(base);
            }
            if let Some(seq) = parse_snapshot_name(&name) {
                if seq < snap_seq {
                    fallback_seq = Some(fallback_seq.map_or(seq, |f: u64| f.max(seq)));
                }
            }
        }
        bases.sort_unstable();

        let mut frames = Vec::new();
        let mut stale_frames_skipped = 0u64;
        // The highest-base segment stays open for append; older ones are
        // only read. A fresh store (no segments) opens `wal-<snap_seq>`.
        let append_base = bases.last().copied().unwrap_or(snap_seq);
        let mut append_wal = None;
        for &base in bases.iter().chain(bases.is_empty().then_some(&append_base)) {
            let path = dir.join(wal_file_name(base));
            let (wal, segment_frames) = Wal::open(&path)?;
            for f in segment_frames {
                if f.seq > snap_seq {
                    frames.push(f);
                } else {
                    stale_frames_skipped += 1;
                }
            }
            if base == append_base {
                append_wal = Some(wal);
            }
        }
        frames.sort_by_key(|f| f.seq);
        frames.dedup_by_key(|f| f.seq);
        let wal = append_wal.expect("append segment always opened");

        let recovered =
            RecoveredState { snapshot, frames, corrupt_snapshots_skipped, stale_frames_skipped };
        Ok((
            Self {
                dir: dir.to_path_buf(),
                wal,
                hook,
                snapshot_seq: snap_seq,
                fallback_seq,
                stats: StoreStats::default(),
            },
            recovered,
        ))
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Activity counters for this handle.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Replaces the fault hook (tests re-arm between phases).
    pub fn set_hook(&mut self, hook: FaultHook) {
        self.hook = hook;
    }

    /// Appends one fsynced frame to the current WAL segment and returns
    /// its length in bytes. After a failed append the store refuses
    /// appends (see [`Wal::append`]) and snapshots until it is reopened.
    pub fn append(&mut self, seq: u64, kind: u8, payload: &[u8]) -> Result<u64, DurabilityError> {
        let bytes = self.wal.append(seq, kind, payload, &self.hook)?;
        self.stats.frames_appended += 1;
        self.stats.wal_bytes += bytes;
        Ok(bytes)
    }

    /// Writes a snapshot covering everything up to and including `seq`,
    /// rotates the WAL onto a fresh segment, and prunes state older than
    /// the fallback snapshot.
    ///
    /// Refused with [`DurabilityError::WalFailed`] after a failed append:
    /// the failed frame may be whole on disk under the sequence number the
    /// next append reuses, and only a reopen truncates or replays it
    /// before that number is handed out again.
    pub fn snapshot(&mut self, seq: u64, payload: &[u8]) -> Result<(), DurabilityError> {
        if self.wal.failed() {
            return Err(DurabilityError::WalFailed(self.wal.path().to_path_buf()));
        }
        write_snapshot(&self.dir, seq, payload, &self.hook)?;
        self.stats.last_snapshot_bytes = payload.len() as u64;
        self.stats.snapshots_written += 1;
        let old_snapshot_seq = self.snapshot_seq;
        self.fallback_seq = Some(old_snapshot_seq);
        self.snapshot_seq = seq;

        // Rotate: new frames land in a segment anchored at the snapshot.
        let (wal, _) = Wal::open(&self.dir.join(wal_file_name(seq)))?;
        self.wal = wal;
        check(&self.hook, IoPoint::WalRotated)?;

        // Prune: the fallback snapshot (previous one) must stay replayable,
        // so only remove segments strictly older than it and snapshots
        // older than it. Missing files are fine — pruning is best-effort
        // and idempotent.
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy().to_string();
            let stale_wal = parse_wal_name(&name).is_some_and(|base| base < old_snapshot_seq);
            let stale_snap = parse_snapshot_name(&name).is_some_and(|s| s < old_snapshot_seq);
            let orphan_tmp = name.ends_with(".tmp");
            if stale_wal || stale_snap || orphan_tmp {
                let _ = fs::remove_file(entry.path());
            }
        }
        check(&self.hook, IoPoint::OldStateRemoved)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::snapshot_file_name;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("qb-durable-store-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fresh_store_is_empty() {
        let dir = tmp_dir("fresh");
        let (_store, rec) = DurableStore::open(&dir, FaultHook::none()).unwrap();
        assert_eq!(rec.snapshot, None);
        assert!(rec.frames.is_empty());
        assert_eq!(rec.durable_seq(), 0);
    }

    #[test]
    fn append_snapshot_replay_cycle() {
        let dir = tmp_dir("cycle");
        {
            let (mut store, _) = DurableStore::open(&dir, FaultHook::none()).unwrap();
            store.append(1, 0, b"a").unwrap();
            store.append(2, 0, b"b").unwrap();
            store.snapshot(2, b"state@2").unwrap();
            store.append(3, 0, b"c").unwrap();
        }
        let (_, rec) = DurableStore::open(&dir, FaultHook::none()).unwrap();
        let snap = rec.snapshot.clone().unwrap();
        assert_eq!(snap.seq, 2);
        assert_eq!(snap.payload, b"state@2");
        assert_eq!(rec.frames.len(), 1);
        assert_eq!(rec.frames[0].seq, 3);
        assert_eq!(rec.durable_seq(), 3);
        // wal-0 is retained (it is the fallback generation: with no older
        // snapshot, a corrupt snap-2 recovers from empty + frames 1..3),
        // so its two covered frames are skipped by sequence.
        assert_eq!(rec.stale_frames_skipped, 2);
    }

    #[test]
    fn crash_between_rename_and_rotation_skips_stale_frames() {
        let dir = tmp_dir("stale");
        {
            let (mut store, _) = DurableStore::open(&dir, FaultHook::none()).unwrap();
            store.append(1, 0, b"a").unwrap();
            store.append(2, 0, b"b").unwrap();
            // Snapshot lands, then the "process dies" before WAL rotation:
            // the old segment still holds frames 1-2, now also covered by
            // the snapshot.
            store.set_hook(FaultHook::crash_at_point(IoPoint::SnapshotDirSynced));
            let err = store.snapshot(2, b"state@2").unwrap_err();
            assert!(err.is_injected_crash());
        }
        let (_, rec) = DurableStore::open(&dir, FaultHook::none()).unwrap();
        assert_eq!(rec.snapshot.as_ref().unwrap().seq, 2);
        assert!(rec.frames.is_empty(), "covered frames must not replay");
        assert_eq!(rec.stale_frames_skipped, 2);
        assert_eq!(rec.durable_seq(), 2);
    }

    #[test]
    fn corrupt_latest_snapshot_falls_back_and_replays_more() {
        let dir = tmp_dir("fallback-replay");
        {
            let (mut store, _) = DurableStore::open(&dir, FaultHook::none()).unwrap();
            store.append(1, 0, b"a").unwrap();
            store.snapshot(1, b"state@1").unwrap();
            store.append(2, 0, b"b").unwrap();
            store.append(3, 0, b"c").unwrap();
            store.snapshot(3, b"state@3").unwrap();
            store.append(4, 0, b"d").unwrap();
        }
        // Corrupt the newest snapshot; recovery must fall back to seq 1
        // and replay frames 2-4 from the retained segments.
        let newest = dir.join(snapshot_file_name(3));
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&newest, bytes).unwrap();
        let (_, rec) = DurableStore::open(&dir, FaultHook::none()).unwrap();
        assert_eq!(rec.snapshot.as_ref().unwrap().seq, 1);
        assert_eq!(rec.corrupt_snapshots_skipped, 1);
        let seqs: Vec<u64> = rec.frames.iter().map(|f| f.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn a_snapshot_after_a_failed_append_is_refused_until_reopen() {
        // At `WalFrameHalf` the failed frame is torn; at `WalFsync` it is
        // whole and synced under seq 2, the number the next append would
        // reuse. Either way nothing may be written until a reopen has
        // truncated or recovered it.
        for (point, recovered) in [
            (IoPoint::WalFrameHalf, &[(1, &b"a"[..])][..]),
            (IoPoint::WalFsync, &[(1, &b"a"[..]), (2, &b"failed"[..])][..]),
        ] {
            let dir = tmp_dir(&format!("failed-then-snapshot-{point:?}"));
            {
                let (mut store, _) = DurableStore::open(&dir, FaultHook::none()).unwrap();
                store.append(1, 0, b"a").unwrap();
                store.set_hook(FaultHook::crash_at_point(point));
                assert!(store.append(2, 0, b"failed").unwrap_err().is_injected_crash());
                store.set_hook(FaultHook::none());
                let err = store.snapshot(1, b"state@1").unwrap_err();
                assert!(matches!(err, DurabilityError::WalFailed(_)), "{point:?}: {err:?}");
                let err = store.append(2, 0, b"b").unwrap_err();
                assert!(matches!(err, DurabilityError::WalFailed(_)), "{point:?}: {err:?}");
                assert_eq!(store.stats().snapshots_written, 0);
            }
            let (mut store, rec) = DurableStore::open(&dir, FaultHook::none()).unwrap();
            assert_eq!(rec.snapshot, None, "{point:?}");
            let frames: Vec<(u64, &[u8])> =
                rec.frames.iter().map(|f| (f.seq, &f.payload[..])).collect();
            assert_eq!(frames, recovered, "{point:?}");
            // After the reopen the store snapshots and appends again.
            let seq = rec.durable_seq();
            store.snapshot(seq, b"state").unwrap();
            store.append(seq + 1, 0, b"next").unwrap();
            drop(store);
            let (_, rec) = DurableStore::open(&dir, FaultHook::none()).unwrap();
            assert_eq!(rec.snapshot.unwrap().seq, seq, "{point:?}");
            assert_eq!(rec.frames.iter().map(|f| f.seq).collect::<Vec<_>>(), [seq + 1]);
        }
    }

    #[test]
    fn wal_bytes_count_frames_not_zero_fill() {
        let dir = tmp_dir("wal-bytes");
        let (mut store, _) = DurableStore::open(&dir, FaultHook::none()).unwrap();
        let first = store.append(1, 0, b"abc").unwrap();
        assert_eq!(first, 8 + 9 + 3);
        store.snapshot(1, b"state@1").unwrap();
        store.append(2, 0, b"").unwrap();
        assert_eq!(store.stats().wal_bytes, first + 8 + 9);
        let on_disk: u64 = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| parse_wal_name(&e.file_name().to_string_lossy()).is_some())
            .map(|e| e.metadata().unwrap().len())
            .sum();
        assert!(on_disk > store.stats().wal_bytes, "segment files hold zero fill too");
    }

    #[test]
    fn pruning_keeps_exactly_two_snapshots() {
        let dir = tmp_dir("prune");
        let (mut store, _) = DurableStore::open(&dir, FaultHook::none()).unwrap();
        for round in 1u64..=5 {
            store.append(round, 0, b"x").unwrap();
            store.snapshot(round, format!("state@{round}").as_bytes()).unwrap();
        }
        let snaps: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| {
                let n = e.unwrap().file_name().to_string_lossy().to_string();
                parse_snapshot_name(&n).map(|_| n)
            })
            .collect();
        assert_eq!(snaps.len(), 2, "latest + fallback only: {snaps:?}");
    }
}
