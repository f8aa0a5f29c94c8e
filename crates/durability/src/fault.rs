//! I/O-boundary fault injection.
//!
//! Durability code consults a [`FaultHook`] immediately *after* completing
//! each physical step named by an [`IoPoint`]. Returning `true` means
//! "the process crashed here": the operation aborts with
//! [`crate::DurabilityError::InjectedCrash`], leaving the files exactly as
//! the completed steps built them — a zero-filled segment tail after
//! [`IoPoint::WalGrown`], a torn frame after
//! [`IoPoint::WalFrameHalf`], an unsynced frame after
//! [`IoPoint::WalFrameFull`], an orphaned temp file after
//! [`IoPoint::SnapshotTempWritten`], and so on. Recovery code then gets
//! exercised against every on-disk state a real crash could leave,
//! without killing processes or mocking the filesystem.

use std::sync::Arc;

/// A physical I/O boundary at which a crash can be injected. The hook is
/// consulted *after* the named step completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IoPoint {
    /// A WAL segment grew: the zero chunk the next frame lands on is
    /// written and synced, the frame is not written yet.
    WalGrown,
    /// A WAL append is about to write its frame (nothing written yet).
    WalAppendStart,
    /// Half of a WAL frame's bytes are on disk — the torn-write state.
    WalFrameHalf,
    /// All of a WAL frame's bytes are written but not fsynced.
    WalFrameFull,
    /// The WAL frame is fsynced (fully durable).
    WalFsync,
    /// A snapshot write is about to begin (nothing written yet).
    SnapshotStart,
    /// The snapshot temp file is fully written but not fsynced.
    SnapshotTempWritten,
    /// The snapshot temp file is fsynced but not yet renamed into place.
    SnapshotTempSynced,
    /// The snapshot was renamed to its final name (directory not synced).
    SnapshotRenamed,
    /// The snapshot directory entry is fsynced (snapshot fully durable).
    SnapshotDirSynced,
    /// A fresh WAL segment was opened after a successful snapshot.
    WalRotated,
    /// Obsolete snapshots/WAL segments were removed (rotation complete).
    OldStateRemoved,
}

impl IoPoint {
    /// Every injectable point, in the order one snapshot-plus-append cycle
    /// visits them. Test matrices iterate this.
    pub const ALL: [IoPoint; 12] = [
        IoPoint::WalGrown,
        IoPoint::WalAppendStart,
        IoPoint::WalFrameHalf,
        IoPoint::WalFrameFull,
        IoPoint::WalFsync,
        IoPoint::SnapshotStart,
        IoPoint::SnapshotTempWritten,
        IoPoint::SnapshotTempSynced,
        IoPoint::SnapshotRenamed,
        IoPoint::SnapshotDirSynced,
        IoPoint::WalRotated,
        IoPoint::OldStateRemoved,
    ];
}

/// Decides, per I/O boundary, whether the "process" crashes there.
///
/// The default hook never crashes. Hooks must be deterministic for
/// reproducible tests; they are invoked on the caller's thread.
#[derive(Clone)]
pub struct FaultHook {
    crash_at: Option<Arc<dyn Fn(IoPoint) -> bool + Send + Sync>>,
}

impl std::fmt::Debug for FaultHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultHook").field("armed", &self.crash_at.is_some()).finish()
    }
}

impl Default for FaultHook {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultHook {
    /// The production hook: never crashes.
    pub fn none() -> Self {
        Self { crash_at: None }
    }

    /// A hook driven by an arbitrary deterministic decision function.
    pub fn new(f: impl Fn(IoPoint) -> bool + Send + Sync + 'static) -> Self {
        Self { crash_at: Some(Arc::new(f)) }
    }

    /// A hook that crashes on the `n`-th visited I/O point (1-based),
    /// counting every point of every operation — the crash-point matrix
    /// driver. `n = 0` never crashes (useful for counting points).
    pub fn crash_at_nth(n: u64) -> Self {
        let counter = Arc::new(std::sync::atomic::AtomicU64::new(0));
        Self::new(move |_| {
            let seen = counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
            n != 0 && seen == n
        })
    }

    /// A hook that crashes the first time `point` is visited.
    pub fn crash_at_point(point: IoPoint) -> Self {
        let armed = std::sync::atomic::AtomicBool::new(true);
        Self::new(move |p| {
            p == point && armed.swap(false, std::sync::atomic::Ordering::Relaxed)
        })
    }

    /// Consults the hook; `true` = crash here.
    pub fn should_crash(&self, point: IoPoint) -> bool {
        self.crash_at.as_ref().is_some_and(|f| f(point))
    }
}

/// Shorthand used by writer code: returns the injected-crash error when
/// the hook fires at `point`.
pub(crate) fn check(hook: &FaultHook, point: IoPoint) -> Result<(), crate::DurabilityError> {
    if hook.should_crash(point) {
        Err(crate::DurabilityError::InjectedCrash(point))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_crashes() {
        let h = FaultHook::none();
        for p in IoPoint::ALL {
            assert!(!h.should_crash(p));
        }
    }

    #[test]
    fn nth_counts_across_points() {
        let h = FaultHook::crash_at_nth(3);
        assert!(!h.should_crash(IoPoint::WalAppendStart));
        assert!(!h.should_crash(IoPoint::WalFrameHalf));
        assert!(h.should_crash(IoPoint::WalFrameFull));
        assert!(!h.should_crash(IoPoint::WalFsync));
        // Zero disables crashing entirely.
        let h = FaultHook::crash_at_nth(0);
        for p in IoPoint::ALL {
            assert!(!h.should_crash(p));
        }
    }

    #[test]
    fn point_hook_fires_once() {
        let h = FaultHook::crash_at_point(IoPoint::SnapshotRenamed);
        assert!(!h.should_crash(IoPoint::WalFsync));
        assert!(h.should_crash(IoPoint::SnapshotRenamed));
        assert!(!h.should_crash(IoPoint::SnapshotRenamed), "one-shot");
    }
}
