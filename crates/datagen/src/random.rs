//! Deterministic random number generation for reproducible workloads.
//!
//! Every generator and benchmark workload in the repository takes an explicit
//! `u64` seed and derives a ChaCha8 stream from it, so the outputs of the
//! `exp_*` experiment binaries are exactly reproducible across machines and
//! runs.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The RNG type used throughout the data generators.
pub type Rng = ChaCha8Rng;

/// Creates a deterministic RNG from a seed.
pub fn rng(seed: u64) -> Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Derives a sub-stream from a seed and a stream index, so independent parts
/// of a workload can draw from independent deterministic streams.
pub fn rng_stream(seed: u64, stream: u64) -> Rng {
    let mut r = ChaCha8Rng::seed_from_u64(seed);
    r.set_stream(stream);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng as _;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = rng(42);
        let mut b = rng(42);
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = rng(1);
        let mut b = rng(2);
        let av: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let bv: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(av, bv);
    }

    #[test]
    fn streams_are_independent_but_deterministic() {
        let mut a1 = rng_stream(7, 0);
        let mut a2 = rng_stream(7, 0);
        let mut b = rng_stream(7, 1);
        assert_eq!(a1.gen::<u64>(), a2.gen::<u64>());
        assert_ne!(rng_stream(7, 0).gen::<u64>(), b.gen::<u64>());
    }
}
