//! The crate's deterministic PRNG: splitmix64, the same generator every
//! other seeded subsystem of the repo uses (fault plans, bench reports,
//! client backoff). Each generated workload derives its own independent
//! stream from `(campaign seed, workload index)`, so corpora are
//! reproducible from the seed alone and independent of `--jobs`.

use stride_core::{splitmix64_mix, SPLITMIX64_GAMMA};

/// Splitmix64 stream.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// Derives the stream of workload `index` under campaign `seed`.
    pub fn for_workload(seed: u64, index: u32) -> Self {
        let mut r = Rng::new(seed ^ (u64::from(index).wrapping_mul(SPLITMIX64_GAMMA)));
        // Warm up so adjacent indices decorrelate immediately.
        r.next();
        r
    }

    /// Next raw 64-bit value. Not an `Iterator`: the stream is infinite
    /// and never yields `None`, so the trait's contract doesn't fit.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(SPLITMIX64_GAMMA);
        splitmix64_mix(self.state)
    }

    /// Uniform value in `[lo, hi]` (inclusive).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.next() % (hi - lo + 1)
    }

    /// Uniform `usize` index below `n`.
    pub fn index(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Fair coin.
    pub fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_distinct() {
        let a: Vec<u64> = {
            let mut r = Rng::for_workload(42, 7);
            (0..8).map(|_| r.next()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::for_workload(42, 7);
            (0..8).map(|_| r.next()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::for_workload(42, 8);
            (0..8).map(|_| r.next()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn range_is_inclusive() {
        let mut r = Rng::new(1);
        for _ in 0..1000 {
            let v = r.range(3, 5);
            assert!((3..=5).contains(&v));
        }
    }
}
