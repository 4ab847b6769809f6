//! Deterministic seed management.
//!
//! Every experiment (E1–E10 in the root package's `src/experiments/`) is
//! identified by a single master seed; the placement, the clock schedule,
//! the target draws and the protocol's internal randomness each get an
//! independent, reproducible stream derived from it. Deriving streams
//! (rather than sharing one RNG) keeps results stable when one component
//! changes how much randomness it consumes.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// A factory of independent, reproducible RNG streams derived from a master
/// seed.
///
/// # Example
///
/// ```
/// use geogossip_sim::SeedStream;
/// let seeds = SeedStream::new(42);
/// let mut placement_rng = seeds.stream("placement");
/// let mut clock_rng = seeds.stream("clock");
/// // Streams with the same label are identical; different labels differ.
/// use rand::Rng;
/// assert_eq!(seeds.stream("placement").gen::<u64>(), {
///     let mut r = seeds.stream("placement");
///     r.gen::<u64>()
/// });
/// assert_ne!(placement_rng.gen::<u64>(), clock_rng.gen::<u64>());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeedStream {
    master: u64,
}

impl SeedStream {
    /// Creates the factory from a master seed.
    pub fn new(master: u64) -> Self {
        SeedStream { master }
    }

    /// The master seed.
    pub fn master(&self) -> u64 {
        self.master
    }

    /// Derives a reproducible RNG for the component identified by `label`.
    ///
    /// The derivation is a simple FNV-1a hash of the label folded into the
    /// master seed; it is not cryptographic, it only needs to decorrelate
    /// streams.
    pub fn stream(&self, label: &str) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(self.master ^ fnv1a(label))
    }

    /// Derives a reproducible RNG for a numbered trial of a component,
    /// e.g. `trial("run", 3)` for the fourth repetition of an experiment.
    pub fn trial(&self, label: &str, index: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(
            self.master ^ fnv1a(label) ^ (index.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        )
    }
}

/// FNV-1a hash of a string, used to turn stream labels into seed offsets.
fn fnv1a(s: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_label_same_stream() {
        let seeds = SeedStream::new(7);
        let mut sa = seeds.stream("x");
        let mut sb = seeds.stream("x");
        let a: Vec<u64> = (0..5).map(|_| sa.gen()).collect();
        let b: Vec<u64> = (0..5).map(|_| sb.gen()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_labels_differ() {
        let seeds = SeedStream::new(7);
        assert_ne!(
            seeds.stream("a").gen::<u64>(),
            seeds.stream("b").gen::<u64>()
        );
    }

    #[test]
    fn different_masters_differ() {
        assert_ne!(
            SeedStream::new(1).stream("x").gen::<u64>(),
            SeedStream::new(2).stream("x").gen::<u64>()
        );
    }

    #[test]
    fn trials_differ_from_each_other() {
        let seeds = SeedStream::new(11);
        let v: Vec<u64> = (0..4).map(|i| seeds.trial("run", i).gen()).collect();
        for i in 0..v.len() {
            for j in (i + 1)..v.len() {
                assert_ne!(v[i], v[j]);
            }
        }
    }

    #[test]
    fn master_is_retrievable() {
        assert_eq!(SeedStream::new(99).master(), 99);
    }

    #[test]
    fn fnv_differs_for_different_strings() {
        assert_ne!(fnv1a("clock"), fnv1a("placement"));
        assert_ne!(fnv1a(""), fnv1a("a"));
    }
}
