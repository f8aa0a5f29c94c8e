//! A fixed kernel that measures how fast the machine is *right now*.
//!
//! The sandbox this benchmark runs in slows by 30–40 % for minutes at a
//! time (host contention, boost decay): the same seed gave a serving read
//! of 31 ns in one run and 44 ns in the next, with every other timing of
//! the run stretched alike. No statistic taken inside a run survives a
//! slowdown that lasts the whole run, so the end-to-end timings are
//! reported in *reference-machine time*: each round's wall time is divided
//! by a speed factor measured right before and after it with this kernel.
//! The kernel shares no code with the program under test, so a change to
//! the program never moves it.

use std::hint::black_box;
use std::time::Instant;

/// Words in the kernel's working set (256 KiB: in L2, out of L1).
const WORDS: usize = 32 * 1024;

/// Dependent steps per kernel run (~0.5 ms).
const STEPS: usize = 60_000;

/// Kernel time, in nanoseconds, on the machine the reference speed is
/// defined by (the 2-vCPU sandbox of PR 11 in its fast state). A speed
/// factor of 1.0 means "as fast as that".
pub const NOMINAL_NS: f64 = 400_000.0;

pub struct SpeedProbe {
    table: Vec<u64>,
}

impl SpeedProbe {
    pub fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let table = (0..WORDS)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                x
            })
            .collect();
        Self { table }
    }

    /// One run of the kernel: a chain of dependent random read-modify-writes
    /// over the table (integer multiply, shifts, a data-dependent branch)
    /// with a floating-point multiply-add riding along — the instruction
    /// mix of parsing, hashing and model arithmetic, none of it vectorisable.
    fn run(&mut self) -> f64 {
        let started = Instant::now();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut acc = 0u64;
        let mut f = 1.0f64;
        for _ in 0..STEPS {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(acc | 1);
            let slot = (x >> 40) as usize % WORDS;
            let word = self.table[slot];
            acc = if word & 1 == 0 { acc.wrapping_add(word) } else { acc ^ word.rotate_left(7) };
            self.table[slot] = word.wrapping_add(x);
            f = f * 1.000_000_1 + 0.25;
        }
        black_box((acc, f));
        started.elapsed().as_nanos() as f64
    }

    /// The machine's current speed factor: kernel time ÷ [`NOMINAL_NS`],
    /// the faster of two runs (a run can be hit by a one-off stall; the
    /// speed the rounds see cannot be faster than the kernel's best).
    pub fn factor(&mut self) -> f64 {
        self.run().min(self.run()) / NOMINAL_NS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_positive_and_repeatable_within_reason() {
        let mut probe = SpeedProbe::new();
        let first = probe.factor();
        let samples: Vec<f64> = (0..20).map(|_| probe.factor()).collect();
        assert!(first > 0.0 && samples.iter().all(|f| f.is_finite() && *f > 0.0));
        let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().copied().fold(0.0, f64::max);
        assert!(hi / lo < 5.0, "kernel times {lo}..{hi} are not one machine's");
    }
}
