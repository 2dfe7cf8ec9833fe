//! Deterministic RNG stream derivation.
//!
//! Every user gets an independent ChaCha12 stream derived from the master
//! seed, a stage tag, and their global index. This makes the simulation
//! reproducible and independent of thread scheduling, and guarantees no
//! stream reuse across mechanism stages (a user participating in stage A
//! never shares randomness with stage B).
//!
//! A [`crate::UserClient`] draws every coin from the stream of its own
//! `(seed, stage, user_id)`, so a device answers the same wherever it is
//! simulated, and a sharded run is bit-identical to a serial one.

use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// Mechanism stages, used as domain separators for RNG derivation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stage {
    /// Frequent-length estimation (population Pa).
    Length,
    /// Sub-shape estimation (population Pb).
    SubShape,
    /// Trie-expansion selection (population Pc / baseline Pb). Also used by
    /// the unlabeled two-level refinement: Pd users never drew from this
    /// stream during expansion, so there is no reuse.
    Expand,
    /// Labeled two-level refinement (population Pd).
    Refine,
    /// Server-side randomness (population shuffling).
    Server,
}

impl Stage {
    fn tag(self) -> u64 {
        match self {
            Stage::Length => 0x4C45_4E47,
            Stage::SubShape => 0x5355_4253,
            Stage::Expand => 0x4558_5044,
            Stage::Refine => 0x5246_4E45,
            Stage::Server => 0x5352_5652,
        }
    }
}

/// SplitMix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the RNG stream for `(seed, stage, user)`.
pub(crate) fn user_rng(seed: u64, stage: Stage, user: usize) -> ChaCha12Rng {
    let derived = mix(seed ^ mix(stage.tag()) ^ mix(user as u64));
    ChaCha12Rng::seed_from_u64(derived)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    #[test]
    fn streams_are_deterministic() {
        let mut a = user_rng(1, Stage::Length, 5);
        let mut b = user_rng(1, Stage::Length, 5);
        assert_eq!(a.random::<u64>(), b.random::<u64>());
    }

    #[test]
    fn streams_differ_across_users_stages_and_seeds() {
        let base: u64 = user_rng(1, Stage::Length, 5).random();
        assert_ne!(base, user_rng(1, Stage::Length, 6).random::<u64>());
        assert_ne!(base, user_rng(1, Stage::Expand, 5).random::<u64>());
        assert_ne!(base, user_rng(2, Stage::Length, 5).random::<u64>());
    }
}
