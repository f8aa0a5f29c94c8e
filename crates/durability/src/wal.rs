//! CRC-framed write-ahead log over a zero-filled segment, with torn-tail
//! recovery.
//!
//! Frame layout (little-endian):
//!
//! ```text
//! [u32 body_len][u32 crc32(body)][body]
//!     body = [u64 seq][u8 kind][payload bytes]
//! ```
//!
//! A segment is the frames followed by zeros. A frame does not extend the
//! file: it overwrites a region that was zero-filled and synced
//! beforehand, and the segment grows by a fixed chunk of zeros first when
//! a frame would cross its end. Overwriting written blocks changes no file size, so the
//! per-frame `fdatasync` has no size update to commit. A zero header
//! (length 0) ends the log.
//!
//! Frames are fsynced before the logical operation they describe is
//! applied, so a frame either validates in full on reopen or is part of a
//! torn tail. [`Wal::open`] keeps exactly the longest valid prefix of
//! frames. A tail of zeros after it is preallocated capacity and is kept
//! as is; any other tail — a torn write, short write, or bit flip, zeros
//! after it or not — is truncated back to the last frame boundary, so the
//! damage costs only the frames at/after it, never the log.
//!
//! An append that fails leaves the handle failed: every later append is
//! refused until the segment is reopened, because the bytes (and, after a
//! failed fsync, the page cache) past the last good frame can no longer be
//! trusted, and a frame written after them would be lost to recovery.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::codec::{crc32, MAX_LEN};
use crate::fault::{check, FaultHook, IoPoint};
use crate::DurabilityError;

/// Fixed bytes before each frame body: `u32` length + `u32` CRC.
const FRAME_HEADER: usize = 8;

/// Zero bytes a segment grows by when a frame would cross its end (a
/// frame larger than this grows it by enough whole chunks).
///
/// A grow writes the zeros and syncs them once (≈ 80 µs + 0.65 µs per
/// KiB on ext4 over a virtio disk). 256 KiB costs a long segment about
/// what 1 MiB does, and bounds the waste of a segment that rotates after
/// a single round (`snapshot_every_rounds = 1`). DESIGN.md, "Segment
/// preallocation", links the measurements.
const GROW_CHUNK: u64 = 256 * 1024;

/// Source of the zeros a grow writes.
static ZEROS: [u8; 64 * 1024] = [0; 64 * 1024];

/// One durable WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalFrame {
    /// Global monotonic sequence number of the logical operation.
    pub seq: u64,
    /// Caller-defined record kind discriminant.
    pub kind: u8,
    /// Caller-defined payload bytes.
    pub payload: Vec<u8>,
}

/// An open, append-position WAL segment.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    /// Durable length: every byte below this validated on open or was
    /// appended (and fsynced) by this handle.
    len: u64,
    /// File length: the bytes in `len..capacity` are zeros, written and
    /// synced before any frame lands on them.
    capacity: u64,
    /// Frames appended (not necessarily fsynced) by this handle.
    appended: u64,
    /// An append failed: the handle refuses appends until reopened.
    failed: bool,
}

/// Splits `bytes` into the longest valid frame prefix.
///
/// Returns the parsed frames and the byte offset where validity ends
/// (`== bytes.len()` when the whole file is clean).
pub(crate) fn scan_frames(bytes: &[u8]) -> (Vec<WalFrame>, usize) {
    let mut frames = Vec::new();
    let mut pos = 0usize;
    while bytes.len() - pos >= FRAME_HEADER {
        let body_len =
            u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        // A body needs at least seq + kind; anything shorter (including the
        // zero header of preallocated space) or absurdly long ends the log.
        if body_len < 9 || body_len as u64 > MAX_LEN {
            break;
        }
        let Some(body) = bytes.get(pos + FRAME_HEADER..pos + FRAME_HEADER + body_len) else {
            break; // short write: header promises more than the file holds
        };
        if crc32(body) != crc {
            break; // torn write or bit flip inside this frame
        }
        let seq = u64::from_le_bytes(body[..8].try_into().expect("8 bytes"));
        frames.push(WalFrame { seq, kind: body[8], payload: body[9..].to_vec() });
        pos += FRAME_HEADER + body_len;
    }
    (frames, pos)
}

impl Wal {
    /// Opens (creating if absent) the segment at `path`, validates the
    /// existing frames, keeps an all-zero tail as capacity, and truncates
    /// any other invalid tail. Returns the handle positioned for append
    /// plus the surviving frames.
    pub fn open(path: &Path) -> Result<(Self, Vec<WalFrame>), DurabilityError> {
        // Existing frames are kept (the valid prefix survives recovery), so
        // this deliberately does not truncate on open.
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (frames, valid_len) = scan_frames(&bytes);
        let capacity = if bytes[valid_len..].iter().all(|&b| b == 0) {
            bytes.len()
        } else {
            // Cut the torn/corrupt tail off so future appends start at a
            // frame boundary instead of extending garbage.
            file.set_len(valid_len as u64)?;
            file.sync_data()?;
            valid_len
        };
        file.seek(SeekFrom::Start(valid_len as u64))?;
        let wal = Self {
            file,
            path: path.to_path_buf(),
            len: valid_len as u64,
            capacity: capacity as u64,
            appended: 0,
            failed: false,
        };
        Ok((wal, frames))
    }

    /// The segment's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Frames appended through this handle.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Durable byte length of the segment's frames.
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Whether an append failed, so the handle refuses appends until the
    /// segment is reopened.
    pub(crate) fn failed(&self) -> bool {
        self.failed
    }

    /// Appends one frame and fsyncs it, returning the frame's length in
    /// bytes. Consults `hook` at every I/O boundary; an injected crash
    /// leaves the file exactly as the completed steps built it (e.g. half a
    /// frame after [`IoPoint::WalFrameHalf`]).
    ///
    /// Any `Err` fails the handle: later appends return
    /// [`DurabilityError::WalFailed`] without writing, and reopening the
    /// segment truncates it to its valid prefix.
    pub fn append(
        &mut self,
        seq: u64,
        kind: u8,
        payload: &[u8],
        hook: &FaultHook,
    ) -> Result<u64, DurabilityError> {
        if self.failed {
            return Err(DurabilityError::WalFailed(self.path.clone()));
        }
        let result = self.write_frame(seq, kind, payload, hook);
        self.failed = result.is_err();
        result
    }

    fn write_frame(
        &mut self,
        seq: u64,
        kind: u8,
        payload: &[u8],
        hook: &FaultHook,
    ) -> Result<u64, DurabilityError> {
        let mut body = Vec::with_capacity(9 + payload.len());
        body.extend_from_slice(&seq.to_le_bytes());
        body.push(kind);
        body.extend_from_slice(payload);
        let mut frame = Vec::with_capacity(FRAME_HEADER + body.len());
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&body).to_le_bytes());
        frame.extend_from_slice(&body);
        let end = self.len + frame.len() as u64;

        if end > self.capacity {
            self.grow(end)?;
            check(hook, IoPoint::WalGrown)?;
        }
        check(hook, IoPoint::WalAppendStart)?;
        let half = frame.len() / 2;
        self.file.write_all(&frame[..half])?;
        check(hook, IoPoint::WalFrameHalf)?;
        self.file.write_all(&frame[half..])?;
        check(hook, IoPoint::WalFrameFull)?;
        self.file.sync_data()?;
        self.len = end;
        self.appended += 1;
        check(hook, IoPoint::WalFsync)?;
        Ok(frame.len() as u64)
    }

    /// Extends the segment by whole [`GROW_CHUNK`]s of zeros until it
    /// holds `end` bytes, syncs them, and returns the cursor to `len`.
    fn grow(&mut self, end: u64) -> Result<(), DurabilityError> {
        let capacity = self.capacity + (end - self.capacity).div_ceil(GROW_CHUNK) * GROW_CHUNK;
        self.file.seek(SeekFrom::Start(self.capacity))?;
        let mut left = capacity - self.capacity;
        while left > 0 {
            let n = left.min(ZEROS.len() as u64) as usize;
            self.file.write_all(&ZEROS[..n])?;
            left -= n as u64;
        }
        self.file.sync_data()?;
        self.file.seek(SeekFrom::Start(self.len))?;
        self.capacity = capacity;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qb-durable-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.qbw")
    }

    /// Appends one frame per payload and returns the segment's frame bytes
    /// (the file without its zero fill) and the whole file.
    fn write_segment(path: &Path, payloads: &[&[u8]]) -> (Vec<u8>, Vec<u8>) {
        let (mut wal, _) = Wal::open(path).unwrap();
        for (i, payload) in payloads.iter().enumerate() {
            wal.append(i as u64 + 1, 0, payload, &FaultHook::none()).unwrap();
        }
        let file = std::fs::read(path).unwrap();
        let len = wal.len_bytes() as usize;
        assert!(file[len..].iter().all(|&b| b == 0), "zero fill after the frames");
        (file[..len].to_vec(), file)
    }

    #[test]
    fn append_reopen_round_trip() {
        let path = tmp("roundtrip");
        let hook = FaultHook::none();
        {
            let (mut wal, frames) = Wal::open(&path).unwrap();
            assert!(frames.is_empty());
            wal.append(1, 0, b"alpha", &hook).unwrap();
            wal.append(2, 1, b"", &hook).unwrap();
            wal.append(3, 0, &[0xFF; 300], &hook).unwrap();
        }
        let (_, frames) = Wal::open(&path).unwrap();
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0], WalFrame { seq: 1, kind: 0, payload: b"alpha".to_vec() });
        assert_eq!(frames[1], WalFrame { seq: 2, kind: 1, payload: vec![] });
        assert_eq!(frames[2].payload.len(), 300);
    }

    #[test]
    fn a_cleanly_closed_segment_reopens_unchanged() {
        let path = tmp("clean");
        let (logical, file) = write_segment(&path, &[b"one", b"two", &[7; 500]]);
        assert_eq!(file.len() as u64, GROW_CHUNK, "three small frames fit one chunk");
        let (wal, frames) = Wal::open(&path).unwrap();
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[2].payload, [7; 500]);
        assert_eq!(wal.len_bytes(), logical.len() as u64);
        assert_eq!(wal.capacity, file.len() as u64, "the zero tail is kept as capacity");
        assert_eq!(std::fs::read(&path).unwrap(), file, "reopening writes nothing");
    }

    #[test]
    fn a_frame_larger_than_the_chunk_round_trips() {
        let path = tmp("large");
        let large = vec![0xA5; GROW_CHUNK as usize + 1000];
        let (logical, file) = write_segment(&path, &[b"small", &large, b"after"]);
        assert_eq!(file.len() as u64, 2 * GROW_CHUNK, "grown by whole chunks");
        let (wal, frames) = Wal::open(&path).unwrap();
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[1].payload, large);
        assert_eq!(frames[2].payload, b"after");
        assert_eq!(wal.len_bytes(), logical.len() as u64);
    }

    #[test]
    fn torn_tail_truncates_to_last_valid_frame() {
        let path = tmp("torn");
        let (full, _) = write_segment(&path, &[b"keep me", b"also keep"]);
        // Tear the final frame at every possible byte boundary.
        let second_start = {
            let (_, one_frame_end) = scan_frames(&full[..full.len() - 1]);
            one_frame_end
        };
        for cut in second_start + 1..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (wal, frames) = Wal::open(&path).unwrap();
            assert_eq!(frames.len(), 1, "cut at {cut}");
            assert_eq!(frames[0].seq, 1);
            assert_eq!(wal.len_bytes(), second_start as u64);
            assert_eq!(std::fs::metadata(&path).unwrap().len(), second_start as u64);
        }
    }

    #[test]
    fn bit_flip_truncates_at_damaged_frame() {
        let path = tmp("bitflip");
        let payloads: Vec<String> = (1..=4).map(|seq| format!("frame {seq}")).collect();
        let payloads: Vec<&[u8]> = payloads.iter().map(|p| p.as_bytes()).collect();
        let (clean, file) = write_segment(&path, &payloads);
        for byte_idx in (0..clean.len()).step_by(3) {
            let mut bytes = clean.clone();
            bytes[byte_idx] ^= 0x40;
            std::fs::write(&path, &bytes).unwrap();
            let (_, frames) = Wal::open(&path).unwrap();
            // Whatever survives must be a clean prefix with intact payloads.
            for (i, f) in frames.iter().enumerate() {
                assert_eq!(f.seq, i as u64 + 1);
                assert_eq!(f.payload, format!("frame {}", i + 1).as_bytes());
            }
            assert!(frames.len() < 4, "flip at {byte_idx} must cost a frame");
        }
        // A flip inside the zero fill costs no frame: the tail is no longer
        // capacity, so it is truncated at the last frame.
        for byte_idx in [clean.len(), clean.len() + 9, file.len() - 1] {
            let mut bytes = file.clone();
            bytes[byte_idx] ^= 0x40;
            std::fs::write(&path, &bytes).unwrap();
            let (wal, frames) = Wal::open(&path).unwrap();
            assert_eq!(frames.len(), 4, "flip at {byte_idx}");
            assert_eq!(wal.capacity, clean.len() as u64);
            assert_eq!(std::fs::read(&path).unwrap(), clean);
        }
    }

    #[test]
    fn append_after_truncation_continues_cleanly() {
        let path = tmp("heal");
        let hook = FaultHook::none();
        let (full, _) = write_segment(&path, &[b"one", b"two"]);
        // Tear the tail, reopen, append — the new frame must land on the
        // healed boundary.
        std::fs::write(&path, &full[..full.len() - 2]).unwrap();
        {
            let (mut wal, frames) = Wal::open(&path).unwrap();
            assert_eq!(frames.len(), 1);
            wal.append(2, 0, b"two again", &hook).unwrap();
        }
        let (_, frames) = Wal::open(&path).unwrap();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[1].payload, b"two again");
    }

    #[test]
    fn a_half_frame_over_zeros_is_truncated_and_the_next_append_lands_on_the_boundary() {
        let path = tmp("half-over-zeros");
        let boundary = {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append(1, 0, b"durable", &FaultHook::none()).unwrap();
            let err = wal
                .append(2, 0, b"torn over zeros", &FaultHook::crash_at_point(IoPoint::WalFrameHalf))
                .unwrap_err();
            assert!(err.is_injected_crash());
            wal.len_bytes()
        };
        assert_eq!(std::fs::metadata(&path).unwrap().len(), GROW_CHUNK, "half frame, then zeros");
        {
            let (mut wal, frames) = Wal::open(&path).unwrap();
            assert_eq!(frames.len(), 1);
            assert_eq!(std::fs::metadata(&path).unwrap().len(), boundary, "truncated to the frame");
            assert_eq!(wal.append(2, 0, b"again", &FaultHook::none()).unwrap(), 8 + 9 + 5);
        }
        let bytes = std::fs::read(&path).unwrap();
        let (frames, end) = scan_frames(&bytes);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[1].payload, b"again");
        assert_eq!(end as u64, boundary + 8 + 9 + 5, "the new frame starts at the boundary");
    }

    #[test]
    fn a_grow_consults_wal_grown_and_leaves_zeros_as_capacity() {
        let path = tmp("grown");
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            let err = wal
                .append(1, 0, b"never written", &FaultHook::crash_at_point(IoPoint::WalGrown))
                .unwrap_err();
            assert!(matches!(err, DurabilityError::InjectedCrash(IoPoint::WalGrown)), "{err:?}");
        }
        assert_eq!(std::fs::read(&path).unwrap(), vec![0; GROW_CHUNK as usize]);
        let (mut wal, frames) = Wal::open(&path).unwrap();
        assert!(frames.is_empty());
        assert_eq!(wal.capacity, GROW_CHUNK, "the zeros are kept");
        wal.append(1, 0, b"now written", &FaultHook::none()).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), GROW_CHUNK, "no second grow");
    }

    #[test]
    fn an_append_after_a_failed_append_is_refused_not_lost() {
        let path = tmp("poison");
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append(1, 0, b"one", &FaultHook::none()).unwrap();
            let err = wal
                .append(2, 0, b"two", &FaultHook::crash_at_point(IoPoint::WalFrameHalf))
                .unwrap_err();
            assert!(err.is_injected_crash());
            // The torn bytes of frame 2 are still on disk: frame 3 after
            // them would be acknowledged and then lost to recovery.
            let err = wal.append(3, 0, b"three", &FaultHook::none()).unwrap_err();
            assert!(matches!(err, DurabilityError::WalFailed(_)), "{err:?}");
            assert_eq!(wal.appended(), 1);
        }
        let (mut wal, frames) = Wal::open(&path).unwrap();
        assert_eq!(frames.iter().map(|f| f.seq).collect::<Vec<_>>(), [1]);
        // Reopening clears the failure.
        wal.append(2, 0, b"two again", &FaultHook::none()).unwrap();
        let (_, frames) = Wal::open(&path).unwrap();
        assert_eq!(frames.iter().map(|f| f.seq).collect::<Vec<_>>(), [1, 2]);
    }

    #[test]
    fn injected_crash_leaves_described_state() {
        let path = tmp("crash");
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append(1, 0, b"durable", &FaultHook::none()).unwrap();
            let err = wal
                .append(2, 0, b"torn", &FaultHook::crash_at_point(IoPoint::WalFrameHalf))
                .unwrap_err();
            assert!(err.is_injected_crash());
        }
        let (_, frames) = Wal::open(&path).unwrap();
        assert_eq!(frames.len(), 1, "half-written frame must be truncated");
        assert_eq!(frames[0].payload, b"durable");
    }
}
