//! # qb-parallel
//!
//! A small, from-scratch scoped worker pool (std::thread only) for QB5000's
//! independent-work hot paths: per-horizon model training, ensemble member
//! fits, the ingest engine's resolve phase, and the bench harness's
//! experiment fan-out.
//!
//! ## Determinism contract
//!
//! Parallel execution must be **bit-identical** to sequential execution:
//!
//! * every task is self-contained — it reads shared inputs immutably and
//!   owns its outputs; no task observes another task's side effects;
//! * results are written to per-task slots and reduced in **fixed task
//!   order**, never in completion order;
//! * tasks needing randomness seed their own generator from their inputs
//!   instead of sharing one, so the stream a task sees is independent of
//!   scheduling.
//!
//! Under this contract the only thing the thread count changes is
//! wall-clock time. The determinism suite (`tests/determinism.rs` in
//! `qb5000`) runs the full forecasting pipeline at 1 and 4 threads and
//! asserts bit-equal outputs.
//!
//! ## Sizing
//!
//! The default thread count comes from the `QB_THREADS` environment
//! variable, falling back to the machine's available parallelism. `1`
//! disables threading entirely (pure sequential execution on the calling
//! thread — not a one-worker pool), which is what CI's `QB_THREADS=1` leg
//! exercises.
//!
//! ## Stable hashing
//!
//! Determinism reaches past one process: [`StableHasher`] is the hash
//! for values that are persisted or compared across runs, because the
//! standard library's `DefaultHasher` may change with the toolchain.

#![forbid(unsafe_code)]

pub mod stable_hash;

pub use stable_hash::StableHasher;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Reads the configured worker count: `QB_THREADS` if set to a positive
/// integer, otherwise the machine's available parallelism (min 1).
///
/// Read on every call (no caching) so tests can vary the variable within
/// one process; the lookup is two orders of magnitude cheaper than any
/// task this crate schedules.
pub fn configured_threads() -> usize {
    match std::env::var("QB_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => available_threads(),
        },
        Err(_) => available_threads(),
    }
}

fn available_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// A degree of parallelism: how many OS threads a component may use.
///
/// `threads == 1` means strictly sequential execution on the calling
/// thread. Copyable so components can hand it down to their members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    threads: usize,
}

impl Parallelism {
    /// A parallelism of `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Self { threads: threads.max(1) }
    }

    /// Strictly sequential execution.
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// The environment-configured default ([`configured_threads`]).
    pub fn from_env() -> Self {
        Self::new(configured_threads())
    }

    /// Worker count (≥ 1).
    pub fn threads(self) -> usize {
        self.threads
    }

    /// True when more than one worker may run.
    pub fn is_parallel(self) -> bool {
        self.threads > 1
    }

    /// Runs two independent closures, concurrently when parallel, and
    /// returns `(a, b)` — always in that order, so reductions over the
    /// pair are deterministic regardless of which finished first.
    pub fn join<RA, RB>(
        self,
        a: impl FnOnce() -> RA + Send,
        b: impl FnOnce() -> RB + Send,
    ) -> (RA, RB)
    where
        RA: Send,
        RB: Send,
    {
        if !self.is_parallel() {
            let ra = a();
            let rb = b();
            return (ra, rb);
        }
        std::thread::scope(|s| {
            let hb = s.spawn(b);
            let ra = a();
            let rb = match hb.join() {
                Ok(v) => v,
                Err(p) => std::panic::resume_unwind(p),
            };
            (ra, rb)
        })
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Self::from_env()
    }
}

/// A scoped worker pool over borrowed data.
///
/// The pool owns no threads between calls: each [`ThreadPool::map`] spawns
/// scoped workers, drains a shared index counter, and joins them before
/// returning — so closures may freely borrow from the caller's stack.
#[derive(Debug, Clone)]
pub struct ThreadPool {
    par: Parallelism,
    /// Cached metric handles; no-ops until [`ThreadPool::instrumented`].
    map_time: qb_obs::Histogram,
    tasks: qb_obs::Counter,
}

impl ThreadPool {
    /// A pool of `threads` workers (1 = sequential).
    pub fn new(threads: usize) -> Self {
        Self::with(Parallelism::new(threads))
    }

    /// A pool sized by [`Parallelism`].
    pub fn with(par: Parallelism) -> Self {
        Self { par, map_time: qb_obs::Histogram::default(), tasks: qb_obs::Counter::default() }
    }

    /// Returns this pool with observability enabled: every [`ThreadPool::map`]
    /// records its wall time into `parallel.map` and adds its task count to
    /// `parallel.tasks`. Task counts are independent of the worker count, so
    /// they stay inside the determinism contract.
    #[must_use]
    pub fn instrumented(mut self, recorder: &qb_obs::Recorder) -> Self {
        self.map_time = recorder.histogram("parallel.map");
        self.tasks = recorder.counter("parallel.tasks");
        self
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.par.threads()
    }

    /// Applies `f(index, item)` to every item and returns the results in
    /// **input order**, regardless of which worker finished first.
    ///
    /// Work is distributed by an atomic index counter (dynamic load
    /// balancing — a slow task does not stall the queue behind it). Each
    /// result lands in its own slot; the final collection walks the slots
    /// in index order, which is the fixed-order reduction the determinism
    /// contract requires.
    ///
    /// # Panics
    /// A panicking task propagates to the caller once all workers join.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        let _span = self.map_time.start();
        self.tasks.add(n as u64);
        if !self.par.is_parallel() || n <= 1 {
            return items.into_iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let slots: Vec<Mutex<Option<T>>> =
            items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let workers = self.par.threads().min(n);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let item = slots[i]
                            .lock()
                            .expect("task slot poisoned")
                            .take()
                            .expect("each index claimed once");
                        let r = f(i, item);
                        *results[i].lock().expect("result slot poisoned") = Some(r);
                    })
                })
                .collect();
            // Join explicitly so a task panic resurfaces with its original
            // payload (the scope's implicit join would replace it).
            for h in handles {
                if let Err(p) = h.join() {
                    std::panic::resume_unwind(p);
                }
            }
        });
        results
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("result slot poisoned")
                    .expect("worker filled every claimed slot")
            })
            .collect()
    }
}

impl Default for ThreadPool {
    fn default() -> Self {
        Self::with(Parallelism::from_env())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let pool = ThreadPool::new(4);
        // Make early tasks slow so completion order inverts input order.
        let out = pool.map((0..32usize).collect(), |i, x| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            x * 10
        });
        assert_eq!(out, (0..32usize).map(|x| x * 10).collect::<Vec<_>>());
    }

    #[test]
    fn map_matches_sequential_bitwise() {
        let work = |i: usize, x: f64| -> f64 {
            // Non-associative float chain: any reordering would change bits.
            let mut acc = x;
            for k in 0..100 {
                acc = acc * 1.000001 + (i as f64) * 0.1 + (k as f64) * 1e-7;
            }
            acc
        };
        let items: Vec<f64> = (0..50).map(|i| i as f64 * 0.37).collect();
        let seq = ThreadPool::new(1).map(items.clone(), work);
        let par = ThreadPool::new(8).map(items, work);
        let seq_bits: Vec<u64> = seq.iter().map(|v| v.to_bits()).collect();
        let par_bits: Vec<u64> = par.iter().map(|v| v.to_bits()).collect();
        assert_eq!(seq_bits, par_bits);
    }

    #[test]
    fn map_moves_items_by_value() {
        let pool = ThreadPool::new(3);
        let out = pool.map(vec![vec![1u8], vec![2], vec![3]], |_, mut v| {
            v.push(9);
            v
        });
        assert_eq!(out, vec![vec![1, 9], vec![2, 9], vec![3, 9]]);
    }

    #[test]
    fn empty_and_single_item_maps() {
        let pool = ThreadPool::new(4);
        let empty: Vec<i32> = pool.map(Vec::<i32>::new(), |_, x| x);
        assert!(empty.is_empty());
        assert_eq!(pool.map(vec![7], |i, x| x + i as i32), vec![7]);
    }

    #[test]
    #[should_panic(expected = "task 3 exploded")]
    fn worker_panic_propagates() {
        let pool = ThreadPool::new(2);
        pool.map((0..8usize).collect(), |i, _| {
            if i == 3 {
                panic!("task 3 exploded");
            }
            i
        });
    }

    #[test]
    fn join_returns_in_fixed_order() {
        let (a, b) = Parallelism::new(2).join(
            || {
                std::thread::sleep(std::time::Duration::from_millis(10));
                "slow"
            },
            || "fast",
        );
        assert_eq!((a, b), ("slow", "fast"));
        let (a, b) = Parallelism::sequential().join(|| 1, || 2);
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    fn instrumented_pool_counts_tasks_identically_across_widths() {
        for threads in [1, 4] {
            let rec = qb_obs::Recorder::new();
            let pool = ThreadPool::new(threads).instrumented(&rec);
            pool.map((0..10usize).collect(), |_, x| x);
            pool.map((0..5usize).collect(), |_, x| x);
            let snap = rec.snapshot();
            assert_eq!(snap.counters["parallel.tasks"], 15, "threads={threads}");
            assert_eq!(snap.histograms["parallel.map"].count, 2, "threads={threads}");
        }
    }

    #[test]
    fn parallelism_clamps_to_one() {
        assert_eq!(Parallelism::new(0).threads(), 1);
        assert!(!Parallelism::new(0).is_parallel());
        assert!(Parallelism::new(2).is_parallel());
    }

    #[test]
    fn configured_threads_is_positive() {
        assert!(configured_threads() >= 1);
    }
}
