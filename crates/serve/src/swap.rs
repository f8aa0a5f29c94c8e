//! The single-slot `Arc` store behind the serving layer.
//!
//! [`Swap<T>`] keeps the current value in a `Mutex<Arc<T>>` and mirrors
//! its version in an [`AtomicU64`]. [`Swap::load`] locks the slot just
//! long enough to clone the `Arc`; a publisher builds the next value
//! *outside* the slot lock and takes it only to replace the `Arc`, so a
//! reader never waits for a build.
//!
//! [`ReadHandle`] caches the acquired `Arc` per handle and revalidates it
//! with one version load, so the steady-state read — the one a query-path
//! caller hits millions of times a second — takes no lock and writes no
//! shared cache line. Only the first read after a publish takes the slot
//! lock, for one `Arc` clone.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A single-slot `Arc` store: any number of readers, rare publishers.
///
/// The value must carry its own version for [`ReadHandle`] caching to
/// work; [`Versioned`] exposes it.
#[derive(Debug)]
pub struct Swap<T: Versioned> {
    /// The current value; locked only to clone or replace the `Arc`.
    current: Mutex<Arc<T>>,
    /// Mirror of the current value's version, stored after the slot is
    /// replaced, so readers can revalidate a cached `Arc` without locking.
    version: AtomicU64,
    /// Serializes publishers; readers never touch it.
    publish_lock: Mutex<()>,
    /// Live reader handles (observability only).
    readers: AtomicUsize,
}

/// Values storable in a [`Swap`]: they expose the monotonically
/// increasing version readers use to revalidate cached references.
pub trait Versioned {
    /// The value's version; publishers must only ever install values with
    /// strictly increasing versions.
    fn version(&self) -> u64;
}

impl<T: Versioned> Swap<T> {
    /// A swap slot holding `initial`.
    pub fn new(initial: Arc<T>) -> Self {
        Self {
            version: AtomicU64::new(initial.version()),
            current: Mutex::new(initial),
            publish_lock: Mutex::new(()),
            readers: AtomicUsize::new(0),
        }
    }

    /// The current version — one atomic load, the cheapest possible
    /// staleness probe.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Acquires a strong reference to the current value: the slot lock is
    /// held for one `Arc` clone, never while a publisher builds.
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.current.lock().expect("swap slot lock poisoned"))
    }

    /// Installs `next` as the current value and retires the previous one.
    /// Returns the version just published.
    ///
    /// # Panics
    /// Panics if `next.version()` does not exceed the published version —
    /// monotone epochs are the staleness contract readers rely on.
    pub fn publish(&self, next: Arc<T>) -> u64 {
        self.publish_with(|_| next)
    }

    /// Builds the next value *from* the current one under the publication
    /// lock and installs it — the shape compare-and-publish needs: `f`
    /// sees a current value that cannot change underneath it, so derived
    /// versions (epoch = current + 1) stay monotone even with racing
    /// publishers. Readers keep loading the current value while `f` runs.
    /// Returns the version just published.
    ///
    /// # Panics
    /// Panics if `f` returns a value whose version does not exceed the
    /// current one; the current value stays installed.
    pub(crate) fn publish_with(&self, f: impl FnOnce(&T) -> Arc<T>) -> u64 {
        let guard = self.publish_lock.lock().expect("swap publish lock poisoned");
        let current = self.load();
        let next = f(&current);
        let version = next.version();
        assert!(
            version > current.version(),
            "Swap::publish_with: version must increase (have {}, got {version})",
            current.version()
        );
        let old =
            std::mem::replace(&mut *self.current.lock().expect("swap slot lock poisoned"), next);
        self.version.store(version, Ordering::Release);
        // Retire the old value outside both locks.
        drop(guard);
        drop((old, current));
        version
    }

    /// Registers a reader handle (observability; see [`Swap::reader_count`]).
    pub(crate) fn add_reader(&self) {
        self.readers.fetch_add(1, Ordering::Relaxed);
    }

    /// Unregisters a reader handle.
    pub(crate) fn remove_reader(&self) {
        self.readers.fetch_sub(1, Ordering::Relaxed);
    }

    /// Live reader handles attached to this slot.
    pub fn reader_count(&self) -> usize {
        self.readers.load(Ordering::Relaxed)
    }
}

/// A per-thread read handle over a [`Swap`], caching the last acquired
/// `Arc` so the hot path never writes shared state.
///
/// `ReadHandle` is `Send` but deliberately not `Sync`: each thread clones
/// its own handle, and [`ReadHandle::current`] revalidates the cache with
/// a single atomic version load — the sub-microsecond path. Only when the
/// version moved (a publish happened) does it fall back to
/// [`Swap::load`].
#[derive(Debug)]
pub struct ReadHandle<T: Versioned> {
    swap: Arc<Swap<T>>,
    cached: std::cell::RefCell<Arc<T>>,
    cached_version: std::cell::Cell<u64>,
}

impl<T: Versioned> ReadHandle<T> {
    /// A handle over `swap`, pre-warmed with the current value.
    pub fn new(swap: Arc<Swap<T>>) -> Self {
        swap.add_reader();
        let cached = swap.load();
        let cached_version = cached.version();
        Self {
            swap,
            cached: std::cell::RefCell::new(cached),
            cached_version: std::cell::Cell::new(cached_version),
        }
    }

    /// The current value. One atomic load when nothing was published
    /// since the last call; one [`Swap::load`] otherwise.
    pub fn current(&self) -> Arc<T> {
        self.refresh();
        Arc::clone(&self.cached.borrow())
    }

    /// Runs `f` against the current value without cloning the `Arc` —
    /// the cheapest read shape (no refcount traffic at all on the fast
    /// path).
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        self.refresh();
        f(&self.cached.borrow())
    }

    /// Re-acquires the cached value if a publish moved the version.
    fn refresh(&self) {
        if self.swap.version() != self.cached_version.get() {
            let fresh = self.swap.load();
            self.cached_version.set(fresh.version());
            *self.cached.borrow_mut() = fresh;
        }
    }

    /// The underlying slot's published version (may be newer than the
    /// cached value until the next read).
    pub fn version(&self) -> u64 {
        self.swap.version()
    }
}

impl<T: Versioned> Clone for ReadHandle<T> {
    fn clone(&self) -> Self {
        Self::new(Arc::clone(&self.swap))
    }
}

impl<T: Versioned> Drop for ReadHandle<T> {
    fn drop(&mut self) {
        self.swap.remove_reader();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    #[derive(Debug)]
    struct V(u64, Vec<u64>);
    impl Versioned for V {
        fn version(&self) -> u64 {
            self.0
        }
    }

    #[test]
    fn load_returns_published_value() {
        let swap = Swap::new(Arc::new(V(1, vec![1])));
        assert_eq!(swap.load().1, vec![1]);
        swap.publish(Arc::new(V(2, vec![2, 2])));
        assert_eq!(swap.load().1, vec![2, 2]);
        assert_eq!(swap.version(), 2);
    }

    /// A rejected publish leaves the old value served: after the panic,
    /// `load` and a fresh handle still see version 5. The panic is then
    /// re-raised so the expected message is checked too.
    #[test]
    #[should_panic(expected = "version must increase")]
    fn non_monotone_publish_panics() {
        let swap = Arc::new(Swap::new(Arc::new(V(5, vec![5]))));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            swap.publish(Arc::new(V(5, vec![])));
        }))
        .expect_err("equal version must be rejected");
        assert_eq!(swap.load().1, vec![5]);
        assert_eq!(swap.version(), 5);
        let handle = ReadHandle::new(Arc::clone(&swap));
        assert_eq!(handle.current().0, 5);
        std::panic::resume_unwind(err);
    }

    /// The slot lock is never held while `f` builds the next value: a
    /// reader on another thread, including a brand-new handle, gets the
    /// pre-publish value while the publisher is still inside `f`. The
    /// reader is joined only after the publish returns (not in a
    /// `thread::scope` inside `f`), so a regression fails the timeout
    /// instead of deadlocking the test.
    #[test]
    fn a_reader_does_not_wait_for_a_publisher_building_the_next_value() {
        let swap = Arc::new(Swap::new(Arc::new(V(1, vec![]))));
        let mut seen = None;
        let mut reader = None;
        swap.publish_with(|current| {
            let (tx, rx) = std::sync::mpsc::channel();
            let reader_swap = Arc::clone(&swap);
            reader = Some(std::thread::spawn(move || {
                let loaded = reader_swap.load().version();
                let handle = ReadHandle::new(reader_swap);
                tx.send((loaded, handle.current().version())).expect("publisher waits");
            }));
            seen = rx.recv_timeout(Duration::from_secs(5)).ok();
            Arc::new(V(current.version() + 1, vec![]))
        });
        let reader = reader.expect("publish ran the closure");
        assert_eq!(seen, Some((1, 1)), "reader blocked behind the build");
        reader.join().expect("reader thread panicked");
        assert_eq!(swap.load().0, 2);
    }

    #[test]
    fn old_values_are_reclaimed_not_leaked() {
        // A drop-counting payload: every published value must be dropped
        // exactly once by the end (no leak from into_raw, no double-free
        // from the grace period).
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct Counted(u64);
        impl Versioned for Counted {
            fn version(&self) -> u64 {
                self.0
            }
        }
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        DROPS.store(0, Ordering::SeqCst);
        {
            let swap = Swap::new(Arc::new(Counted(1)));
            for v in 2..=10 {
                swap.publish(Arc::new(Counted(v)));
            }
            assert_eq!(DROPS.load(Ordering::SeqCst), 9, "retired values dropped eagerly");
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 10, "slot drop reclaims the last value");
    }

    #[test]
    fn read_handle_caches_until_publish() {
        let swap = Arc::new(Swap::new(Arc::new(V(1, vec![7]))));
        let handle = ReadHandle::new(Arc::clone(&swap));
        let a = handle.current();
        let b = handle.current();
        assert!(Arc::ptr_eq(&a, &b), "no publish -> same Arc");
        swap.publish(Arc::new(V(2, vec![8])));
        let c = handle.current();
        assert_eq!(c.1, vec![8]);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(handle.with(|v| v.1[0]), 8);
    }

    #[test]
    fn reader_count_tracks_handles() {
        let swap = Arc::new(Swap::new(Arc::new(V(1, vec![]))));
        assert_eq!(swap.reader_count(), 0);
        let h1 = ReadHandle::new(Arc::clone(&swap));
        let h2 = h1.clone();
        assert_eq!(swap.reader_count(), 2);
        drop(h1);
        assert_eq!(swap.reader_count(), 1);
        drop(h2);
        assert_eq!(swap.reader_count(), 0);
    }

    /// The core memory-safety race: readers acquiring while a publisher
    /// swaps and retires. Run under a thread sanitizer this is the test
    /// that would catch a broken grace period; without one it still
    /// catches use-after-free via the consistency payload (each value's
    /// vector is filled with its version, so tearing or a stale free
    /// shows up as a mismatched element).
    #[test]
    fn concurrent_readers_survive_rapid_publishes() {
        let swap = Arc::new(Swap::new(Arc::new(V(1, vec![1; 64]))));
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let swap = Arc::clone(&swap);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let handle = ReadHandle::new(swap);
                    while !stop.load(Ordering::Relaxed) {
                        handle.with(|v| {
                            let version = v.version();
                            assert!(
                                v.1.iter().all(|&x| x == version),
                                "torn read at version {version}"
                            );
                        });
                    }
                });
            }
            for version in 2..2_000u64 {
                swap.publish(Arc::new(V(version, vec![version; 64])));
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(swap.version(), 1_999);
    }
}
