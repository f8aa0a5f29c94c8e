//! # qb-durable
//!
//! Durable storage primitives for the QB5000 pipeline (std only, zero
//! deps): a versioned, checksummed snapshot format with atomic rotation,
//! an append-only CRC-framed write-ahead log with torn-tail detection, and
//! an I/O-boundary fault hook so tests can crash the pipeline at every
//! physical step without killing a process.
//!
//! ## Design
//!
//! * **Everything is length-prefixed and CRC-checked.** A WAL frame or a
//!   snapshot either validates byte-for-byte or is discarded; there is no
//!   "partially trusted" state.
//! * **Torn tails truncate, they never poison.** [`Wal::open`] scans the
//!   existing file and keeps exactly the prefix of valid frames; a torn or
//!   bit-flipped tail (crash mid-append, corrupted sector) is cut off at
//!   the last valid frame boundary.
//! * **Appends overwrite, they do not extend.** A WAL segment is its
//!   frames followed by zeros that were written and synced beforehand; a
//!   frame that would cross the end first grows the segment by a fixed
//!   chunk of zeros. The per-frame `fdatasync` then commits no file-size
//!   change. A zero header ends the log, and [`Wal::open`] keeps an
//!   all-zero tail as capacity instead of truncating it.
//! * **A failed append fails the handle.** After any `Err` from
//!   [`Wal::append`] the bytes past the last good frame are unknown, so
//!   every later append and snapshot is refused
//!   ([`DurabilityError::WalFailed`]) until the store is reopened and its
//!   tail truncated; a frame acknowledged after a torn one would otherwise
//!   be lost to recovery.
//! * **Snapshots rotate atomically.** [`write_snapshot`] writes to a
//!   temp file, fsyncs it, renames it into place, and fsyncs the
//!   directory — a crash at any point leaves either the old snapshot or
//!   the new one, never a half-written hybrid. [`load_latest_snapshot`]
//!   falls back to the newest *valid* snapshot if the latest is corrupt.
//! * **Sequence numbers make replay idempotent.** Every WAL frame carries
//!   a monotonic sequence number; a snapshot records the last sequence it
//!   folded in. Recovery replays only frames *past* the snapshot, so a
//!   crash between snapshot rename and WAL rotation cannot double-apply
//!   (the satellite "no quarantine double-count" guarantee).
//! * **Crashes are injected, not simulated.** Writers consult a
//!   [`FaultHook`] at each [`IoPoint`]; "crash" means the operation stops
//!   with [`DurabilityError::InjectedCrash`] leaving the file exactly as
//!   built so far (e.g. [`IoPoint::WalFrameHalf`] leaves a torn frame).

#![forbid(unsafe_code)]

pub mod codec;
pub mod fault;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use codec::{crc32, CodecError, Dec, Enc};
pub use fault::{FaultHook, IoPoint};
pub use snapshot::{load_latest_snapshot, write_snapshot, Snapshot};
pub use store::{DurableStore, RecoveredState, StoreStats};
pub use wal::{Wal, WalFrame};

/// Unified error type for durability operations.
#[derive(Debug)]
pub enum DurabilityError {
    /// An operating-system I/O failure.
    Io(std::io::Error),
    /// A frame or snapshot failed structural validation (bad magic,
    /// unsupported version, CRC mismatch, implausible length).
    Corrupt(String),
    /// A payload decoded structurally but not logically.
    Codec(CodecError),
    /// A [`FaultHook`] demanded a crash at this I/O boundary. The on-disk
    /// state is exactly what the completed steps before the boundary left.
    InjectedCrash(IoPoint),
    /// An earlier append to this WAL segment failed; the store refuses
    /// appends and snapshots until it is reopened.
    WalFailed(std::path::PathBuf),
}

impl std::fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurabilityError::Io(e) => write!(f, "i/o failure: {e}"),
            DurabilityError::Corrupt(msg) => write!(f, "corrupt durable state: {msg}"),
            DurabilityError::Codec(e) => write!(f, "payload decode failed: {e}"),
            DurabilityError::InjectedCrash(p) => write!(f, "injected crash at {p:?}"),
            DurabilityError::WalFailed(path) => write!(
                f,
                "an earlier append to {} failed; reopen it to append again",
                path.display()
            ),
        }
    }
}

impl std::error::Error for DurabilityError {}

impl From<std::io::Error> for DurabilityError {
    fn from(e: std::io::Error) -> Self {
        DurabilityError::Io(e)
    }
}

impl From<CodecError> for DurabilityError {
    fn from(e: CodecError) -> Self {
        DurabilityError::Codec(e)
    }
}

impl DurabilityError {
    /// Whether this error is an injected crash (test harnesses treat those
    /// as "the process died here", every other variant as a real failure).
    pub fn is_injected_crash(&self) -> bool {
        matches!(self, DurabilityError::InjectedCrash(_))
    }
}
