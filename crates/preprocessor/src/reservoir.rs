//! Reservoir sampling (Vitter's Algorithm R).
//!
//! §4: "We use reservoir sampling to select a fixed amount of items with low
//! variance from a list containing a large or unknown number of items."
//! QB5000 keeps a reservoir of each template's original parameter vectors;
//! the planning module uses them to cost candidate optimizations.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A fixed-capacity uniform sample over a stream of unknown length.
///
/// After `n` calls to [`Reservoir::offer`], every offered item has
/// probability `min(1, capacity/n)` of being present — the classic
/// Algorithm R guarantee. The Pre-Processor offers every statement it
/// accepts, cache hit or miss, once per call whatever its weight, so a
/// template's sample is uniform over its accepted statements.
#[derive(Debug, Clone)]
pub struct Reservoir<T> {
    capacity: usize,
    seen: u64,
    items: Vec<T>,
    rng: SmallRng,
}

impl<T> Reservoir<T> {
    /// Creates an empty reservoir holding at most `capacity` items.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize, seed: u64) -> Self {
        assert!(capacity > 0, "Reservoir capacity must be positive");
        Self { capacity, seen: 0, items: Vec::new(), rng: SmallRng::seed_from_u64(seed) }
    }

    /// Offers one item from the stream. `item` builds it, and runs only
    /// when the sample keeps it; the random draws are the same either way.
    pub fn offer(&mut self, item: impl FnOnce() -> T) {
        self.seen += 1;
        if self.items.len() < self.capacity {
            self.items.push(item());
        } else {
            // Replace a random slot with probability capacity/seen.
            let j = self.rng.gen_range(0..self.seen);
            if (j as usize) < self.capacity {
                self.items[j as usize] = item();
            }
        }
    }

    /// The current sample.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Number of items currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if nothing has been offered yet.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total number of items ever offered.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Maximum sample size.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The RNG's internal state (for durable snapshots).
    pub(crate) fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Rebuilds a reservoir from snapshotted parts. The restored sampler
    /// continues the *exact* random stream of the original, so offers after
    /// restore pick the same slots a crash-free run would have picked.
    ///
    /// # Panics
    /// Panics if `capacity == 0` or `items.len() > capacity`.
    pub fn from_parts(capacity: usize, seen: u64, items: Vec<T>, rng: [u64; 4]) -> Self {
        assert!(capacity > 0, "Reservoir capacity must be positive");
        assert!(items.len() <= capacity, "Reservoir holds more items than capacity");
        Self { capacity, seen, items, rng: SmallRng::from_state(rng) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_to_capacity_then_stops_growing() {
        let mut r = Reservoir::new(3, 1);
        for i in 0..10 {
            r.offer(|| i);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.seen(), 10);
    }

    #[test]
    fn short_stream_kept_verbatim() {
        let mut r = Reservoir::new(10, 1);
        for i in 0..4 {
            r.offer(|| i);
        }
        assert_eq!(r.items(), &[0, 1, 2, 3]);
    }

    #[test]
    fn sample_is_subset_of_stream() {
        let mut r = Reservoir::new(5, 42);
        for i in 0..1000 {
            r.offer(|| i);
        }
        for &x in r.items() {
            assert!((0..1000).contains(&x));
        }
    }

    #[test]
    fn sampling_is_approximately_uniform() {
        // Offer 0..100 into a capacity-10 reservoir many times; each item
        // should be retained ~10% of the time. Chernoff bounds make ±3%
        // a safe tolerance at 20k trials.
        let trials = 20_000;
        let mut hits = vec![0u32; 100];
        for t in 0..trials {
            let mut r = Reservoir::new(10, t as u64);
            for i in 0..100 {
                r.offer(|| i);
            }
            for &x in r.items() {
                hits[x as usize] += 1;
            }
        }
        for (i, &h) in hits.iter().enumerate() {
            let p = h as f64 / trials as f64;
            assert!((p - 0.10).abs() < 0.03, "item {i} retained with p={p}");
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = |seed| {
            let mut r = Reservoir::new(4, seed);
            for i in 0..100 {
                r.offer(|| i);
            }
            r.items().to_vec()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn offer_builds_only_the_items_it_keeps() {
        let mut r = Reservoir::new(4, 7);
        let (mut built, mut kept) = (0, 0);
        for i in 0..100 {
            r.offer(|| {
                built += 1;
                i
            });
            kept += usize::from(r.items().contains(&i));
        }
        assert_eq!(built, kept);
        assert!(kept > 4 && kept < 100, "{kept}");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        Reservoir::<i32>::new(0, 1);
    }

    #[test]
    fn parts_round_trip_continues_exact_stream() {
        let mut live = Reservoir::new(4, 99);
        for i in 0..50 {
            live.offer(|| i);
        }
        let mut restored = Reservoir::from_parts(
            live.capacity(),
            live.seen(),
            live.items().to_vec(),
            live.rng_state(),
        );
        // Both samplers must make identical decisions from here on.
        for i in 50..500 {
            live.offer(|| i);
            restored.offer(|| i);
        }
        assert_eq!(live.items(), restored.items());
        assert_eq!(live.seen(), restored.seen());
        assert_eq!(live.rng_state(), restored.rng_state());
    }
}
