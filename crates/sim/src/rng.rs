//! Deterministic seed derivation and the simulator's own fast RNG.
//!
//! Every run of the simulator is fully determined by a single `u64` master
//! seed. Per-node, per-trial and per-subsystem RNGs are derived from the
//! master seed with a SplitMix64-style mix so that streams are independent
//! and *stable*: adding a node or a trial never perturbs the randomness of
//! the others. See `docs/RNG_STREAMS.md` for the full stream map and the
//! seed-stability contract.
//!
//! The generator itself, [`SimRng`], is a fully-owned xoshiro256++
//! implementation: the engine's hot paths (every `decide()` call, every
//! contention-winner draw) go through it, so `crn-sim` must control its
//! exact state layout and inlining rather than depend on whatever the
//! `rand` dependency's `StdRng` happens to be (upstream it is ChaCha12,
//! an order of magnitude slower per draw than xoshiro256++). The stream
//! for a given `(master, stream)` pair is pinned by the known-answer
//! tests below and by the golden-trace digest test in `crn-core`.

use rand::{RngCore, SeedableRng};

/// Mixes a master seed with a stream index into a new 64-bit seed.
///
/// Implements the SplitMix64 finalizer, which is a bijection on `u64` with
/// good avalanche behavior — two adjacent `(seed, stream)` pairs yield
/// uncorrelated outputs.
///
/// # Examples
///
/// ```
/// use crn_sim::rng::mix_seed;
/// let a = mix_seed(42, 0);
/// let b = mix_seed(42, 1);
/// assert_ne!(a, b);
/// // Deterministic:
/// assert_eq!(a, mix_seed(42, 0));
/// ```
#[inline]
pub fn mix_seed(master: u64, stream: u64) -> u64 {
    let mut z = master.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The simulator's generator: xoshiro256++ (Blackman & Vigna), seeded by
/// SplitMix64 expansion of a 64-bit seed.
///
/// 4×`u64` of state, one rotate-add-xor round per draw, and a period of
/// 2²⁵⁶ − 1 — statistically strong for Monte Carlo use and an order of
/// magnitude cheaper per `u64` than a cryptographic stream cipher. All
/// engine randomness (per-node protocol streams, the contention-winner
/// stream, the jammer stream) flows through this type via [`derive_rng`].
///
/// The raw 64-bit output stream for a fixed seed is pinned: recorded
/// experiment artifacts and the golden-trace digest test depend on it.
///
/// # Examples
///
/// ```
/// use crn_sim::rng::Xoshiro256PlusPlus;
/// use rand::{Rng, SeedableRng};
/// let mut r = Xoshiro256PlusPlus::seed_from_u64(1);
/// let x = r.gen_range(0..10u32);
/// assert!(x < 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// The next 64 random bits.
    ///
    /// Inherent (as well as via [`RngCore`]) so hot paths need no trait
    /// dispatch or imports.
    #[inline(always)]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

impl SeedableRng for Xoshiro256PlusPlus {
    /// Expands `state` into the four state words with SplitMix64, so
    /// nearby seeds give unrelated streams.
    fn seed_from_u64(state: u64) -> Self {
        let mut sm = state;
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = splitmix64(&mut sm);
        }
        // xoshiro's all-zero state is a fixed point; SplitMix64 cannot
        // produce four zero words from any input, but guard anyway.
        if s.iter().all(|&w| w == 0) {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Xoshiro256PlusPlus { s }
    }
}

impl RngCore for Xoshiro256PlusPlus {
    #[inline(always)]
    fn next_u64(&mut self) -> u64 {
        Xoshiro256PlusPlus::next_u64(self)
    }
}

/// The concrete RNG type handed to protocols, interference models and the
/// engine itself.
///
/// An alias so call sites name the *role* (simulator randomness) rather
/// than the algorithm; swapping the generator is a one-line change here
/// plus a reviewed golden-digest update.
pub type SimRng = Xoshiro256PlusPlus;

/// Creates a [`SimRng`] for the given `(master, stream)` pair.
///
/// # Examples
///
/// ```
/// use crn_sim::rng::derive_rng;
/// use rand::Rng;
/// let mut r1 = derive_rng(7, 0);
/// let mut r2 = derive_rng(7, 0);
/// assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
/// ```
pub fn derive_rng(master: u64, stream: u64) -> SimRng {
    SimRng::seed_from_u64(mix_seed(master, stream))
}

/// Well-known stream indices so subsystems never collide.
///
/// The seed-stability contract: every stream is derived from
/// `(master, stream_index)` only — never from how many nodes, trials or
/// subsystems exist — so adding a node or a trial never perturbs the
/// randomness of the others. `docs/RNG_STREAMS.md` documents each index.
pub mod streams {
    /// Stream used by the engine itself (contention winner selection).
    pub const ENGINE: u64 = 0xE46;
    /// Stream used by channel-assignment generators.
    pub const ASSIGNMENT: u64 = 0xA55;
    /// Stream used for local-label shuffles.
    pub const LABELS: u64 = 0x1AB;
    /// Stream used by dynamic channel models.
    pub const DYNAMIC: u64 = 0xD1C;
    /// Stream the [`crate::interference::Jammed`] medium hands its
    /// interference model.
    pub const JAMMER: u64 = 0x1A3;
    /// Stream used by the conformance suite's workload generator.
    pub const WORKLOAD: u64 = 0x3C0F;
    /// Stream used by the physical decay-backoff medium (per-round
    /// transmit coin flips).
    pub const PHYSICAL: u64 = 0xDECA;
    /// Base stream for per-node protocol RNGs; node `i` uses `NODE_BASE + i`.
    pub const NODE_BASE: u64 = 0x4000_0000;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use std::collections::HashSet;

    #[test]
    fn mix_is_deterministic() {
        for s in 0..32 {
            assert_eq!(mix_seed(123, s), mix_seed(123, s));
        }
    }

    #[test]
    fn adjacent_streams_differ() {
        let mut seen = HashSet::new();
        for s in 0..1000 {
            assert!(seen.insert(mix_seed(99, s)), "collision at stream {s}");
        }
    }

    #[test]
    fn different_masters_differ() {
        let mut seen = HashSet::new();
        for m in 0..1000 {
            assert!(seen.insert(mix_seed(m, 0)), "collision at master {m}");
        }
    }

    #[test]
    fn derived_rngs_reproduce() {
        let a: Vec<u64> = {
            let mut r = derive_rng(5, streams::ENGINE);
            (0..16).map(|_| r.gen()).collect()
        };
        let b: Vec<u64> = {
            let mut r = derive_rng(5, streams::ENGINE);
            (0..16).map(|_| r.gen()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn derived_rngs_for_nodes_are_independent_of_node_count() {
        // Node 3's stream must not change when more nodes exist.
        let mut r_small = derive_rng(5, streams::NODE_BASE + 3);
        let mut r_large = derive_rng(5, streams::NODE_BASE + 3);
        assert_eq!(r_small.gen::<u64>(), r_large.gen::<u64>());
    }

    #[test]
    fn sim_rng_matches_vendored_std_rng_streams() {
        // The switch from the previous `rand::rngs::StdRng`-based
        // derivation to the owned SimRng was made stream-preserving:
        // identical algorithm (xoshiro256++) and identical SplitMix64
        // seed expansion, so every recorded artifact and pinned
        // regression stays byte-identical. This test keeps the two
        // implementations locked together for as long as the vendored
        // stub remains xoshiro-based.
        use rand::rngs::StdRng;
        for seed in [0u64, 1, 42, u64::MAX] {
            let mut ours = SimRng::seed_from_u64(seed);
            let mut theirs = StdRng::seed_from_u64(seed);
            for _ in 0..64 {
                assert_eq!(ours.next_u64(), rand::RngCore::next_u64(&mut theirs));
            }
        }
    }

    #[test]
    fn sim_rng_known_answer() {
        // Pin the exact output stream: the golden-trace digest and every
        // recorded experiment artifact depend on this sequence. Changing
        // the generator means updating these constants *and* the digest
        // in crn-core's golden_trace test, as a reviewed decision.
        let mut r = SimRng::seed_from_u64(0);
        let first: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            first,
            vec![
                0x53175d61490b23df,
                0x61da6f3dc380d507,
                0x5c0fdf91ec9a7bfc,
                0x02eebf8c3bbe5e1a,
            ]
        );
    }

    #[test]
    fn physical_stream_known_answer() {
        // Pin the PHYSICAL stream (decay-backoff transmit coin flips):
        // the physical-medium experiment columns and their recorded
        // runs depend on this derivation staying put.
        let mut r = derive_rng(42, streams::PHYSICAL);
        let first: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            first,
            vec![
                0xf8ff09e05506a319,
                0x08406c610724739e,
                0xd4df37ce295a958a,
                0x1f56af9b125f4ee6,
            ]
        );
    }

    /// Lemire's widening-multiply rejection with the threshold divided
    /// out on every draw, as `gen_range` first computed it.
    fn below_dividing_every_draw(rng: &mut impl RngCore, bound: u64) -> u64 {
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let m = (rng.next_u64() as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// `gen_range(0..bound)` on `rng` must give the reference's values
    /// and consume its stream exactly as far.
    fn assert_gen_range_matches_reference<R: Rng + Clone + PartialEq + std::fmt::Debug>(rng: R) {
        let bounds = [
            1u64,
            2,
            3,
            6,
            8,
            12,
            32,
            1 << 31,
            u64::from(u32::MAX),
            (1 << 32) + 1,
            // 2^64 % bound = 2^63 - 1: about half of all draws are
            // rejected, so the retry loop runs.
            (1 << 63) + 1,
            u64::MAX,
        ];
        for bound in bounds {
            let mut ours = rng.clone();
            let mut reference = rng.clone();
            for draw in 0..10_000 {
                assert_eq!(
                    ours.gen_range(0..bound),
                    below_dividing_every_draw(&mut reference, bound),
                    "bound {bound}, draw {draw}"
                );
            }
            assert_eq!(ours, reference, "bound {bound}: the streams drifted apart");
        }
    }

    #[test]
    fn gen_range_draws_match_dividing_on_every_draw() {
        for seed in [0u64, 7, u64::MAX] {
            assert_gen_range_matches_reference(SimRng::seed_from_u64(seed));
            assert_gen_range_matches_reference(rand::rngs::StdRng::seed_from_u64(seed));
        }
    }

    #[test]
    fn sim_rng_gen_range_is_unbiased_smoke() {
        let mut r = derive_rng(9, streams::ENGINE);
        let mut counts = [0usize; 7];
        for _ in 0..70_000 {
            counts[r.gen_range(0..7usize)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (9000..=11000).contains(&c),
                "bucket {i} badly skewed: {c}/70000"
            );
        }
    }
}
