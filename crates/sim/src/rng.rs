//! Deterministic seed derivation and the workspace's one generator.
//!
//! Every run of the simulator is fully determined by a single `u64` master
//! seed. Per-node, per-trial and per-subsystem RNGs are derived from the
//! master seed with a SplitMix64-style mix so that streams are independent
//! and *stable*: adding a node or a trial never perturbs the randomness of
//! the others. See `docs/RNG_STREAMS.md` for the full stream map and the
//! seed-stability contract.
//!
//! [`SimRng`] is xoshiro256++ seeded by SplitMix64 expansion, and it is
//! the only generator in the workspace: protocols, media, jammers,
//! channel-assignment generators, the lower-bound games, the statistics
//! resampler, the CLI, the tests and the examples all draw from it. Its
//! sampling methods are inherent, so a caller imports the type and
//! nothing else:
//!
//! - [`SimRng::gen_range`] over `a..b` and `a..=b` of `u32`, `u64`,
//!   `usize` and `i32` (Lemire's widening-multiply rejection) and over
//!   `a..b` of `f64`;
//! - [`SimRng::gen_f64`] (uniform in `[0, 1)`, 53 bits) and
//!   [`SimRng::gen_bool`];
//! - [`SimRng::shuffle`] (Fisher–Yates, back to front), and
//!   [`SimRng::sample_indices`] and [`SimRng::choose_multiple`] (one
//!   partial Fisher–Yates).
//!
//! How many raw draws each method consumes, and what it makes of them,
//! is part of the pinned stream that recorded artifacts depend on: the
//! raw stream is pinned by `sim_rng_known_answer` and
//! `physical_stream_known_answer`, every draw kind by
//! `draw_kinds_known_answer`, and the whole engine by the golden-trace
//! digests in `crn-core`.

use std::ops::{Range, RangeInclusive};

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
/// randomness in the workspace flows through this type, most of it via
/// [`derive_rng`].
///
/// The output stream for a fixed seed is pinned: recorded experiment
/// artifacts and the golden-trace digest test depend on it.
///
/// # Examples
///
/// ```
/// use crn_sim::rng::Xoshiro256PlusPlus;
/// let mut r = Xoshiro256PlusPlus::seed_from_u64(1);
/// let x = r.gen_range(0..10u32);
/// assert!(x < 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// Expands `state` into the four state words with SplitMix64, so
    /// nearby seeds give unrelated streams.
    pub fn seed_from_u64(state: u64) -> Self {
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

    /// The next 64 random bits.
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

    /// Unbiased integer in `[0, bound)` via Lemire's widening-multiply
    /// rejection method.
    ///
    /// The rejection threshold `2^64 % bound` is always below `bound`, so
    /// a product whose low half is at least `bound` is accepted without
    /// computing it: the division runs only on the rare draws that could
    /// be rejected, and every accept or reject decision is the same as
    /// when it runs on every draw.
    #[inline]
    fn uniform_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        let mut m = (self.next_u64() as u128) * (bound as u128);
        if (m as u64) < bound {
            // Threshold for rejection: (2^64 - bound) % bound == 2^64 % bound.
            let threshold = bound.wrapping_neg() % bound;
            while (m as u64) < threshold {
                m = (self.next_u64() as u128) * (bound as u128);
            }
        }
        (m >> 64) as u64
    }

    /// Uniform value over `range`: `a..b` or `a..=b` of `u32`, `u64`,
    /// `usize` or `i32`, or `a..b` of `f64`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_single(self)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision (one `next_u64`).
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (one `next_u64`).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p must be in [0, 1], got {p}");
        self.gen_f64() < p
    }

    /// Shuffles `slice` in place (Fisher–Yates, back to front).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.uniform_below((i + 1) as u64) as usize;
            slice.swap(i, j);
        }
    }

    /// `amount` distinct indices from `0..length`, uniformly without
    /// replacement, in draw order (partial Fisher–Yates).
    ///
    /// # Panics
    ///
    /// Panics if `amount > length`.
    pub fn sample_indices(&mut self, length: usize, amount: usize) -> Vec<usize> {
        assert!(
            amount <= length,
            "cannot sample {amount} indices from 0..{length}"
        );
        let mut pool: Vec<usize> = (0..length).collect();
        let mut out = Vec::with_capacity(amount);
        for i in 0..amount {
            let j = i + self.uniform_below((length - i) as u64) as usize;
            pool.swap(i, j);
            out.push(pool[i]);
        }
        out
    }

    /// `amount` distinct elements of `slice` (all of them if it is
    /// shorter), uniformly without replacement, in draw order: the
    /// elements at [`Self::sample_indices`]`(slice.len(), amount)`.
    pub fn choose_multiple<'a, T>(
        &mut self,
        slice: &'a [T],
        amount: usize,
    ) -> impl ExactSizeIterator<Item = &'a T> {
        let amount = amount.min(slice.len());
        self.sample_indices(slice.len(), amount)
            .into_iter()
            .map(move |i| &slice[i])
    }
}

/// Ranges [`SimRng::gen_range`] samples from.
pub trait SampleRange<T> {
    /// Draws one uniform value from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_single(self, rng: &mut SimRng) -> T;
}

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_single(self, rng: &mut SimRng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                self.start.wrapping_add(rng.uniform_below(span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample_single(self, rng: &mut SimRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                if span > u64::MAX as u128 {
                    // Full-width range: every bit pattern is valid.
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(rng.uniform_below(span as u64) as $t)
            }
        }
    )*};
}
impl_sample_range_int!(u32, u64, usize, i32);

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample_single(self, rng: &mut SimRng) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + rng.gen_f64() * (self.end - self.start)
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
/// let mut r1 = derive_rng(7, 0);
/// let mut r2 = derive_rng(7, 0);
/// assert_eq!(r1.next_u64(), r2.next_u64());
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
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = derive_rng(5, streams::ENGINE);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn derived_rngs_for_nodes_are_independent_of_node_count() {
        // Node 3's stream must not change when more nodes exist.
        let mut r_small = derive_rng(5, streams::NODE_BASE + 3);
        let mut r_large = derive_rng(5, streams::NODE_BASE + 3);
        assert_eq!(r_small.next_u64(), r_large.next_u64());
    }

    /// One draw of every kind the workspace makes, flattened to `u64`s
    /// (signed values sign-extended, floats as their bits), then the
    /// next raw `next_u64`, which pins how far the draws moved the stream.
    fn draw_table(rng: &mut SimRng) -> Vec<u64> {
        let mut table = vec![
            u64::from(rng.gen_range(0..10u32)),
            u64::from(rng.gen_range(3..=7u32)),
            rng.gen_range(0..1000usize) as u64,
            rng.gen_range(0..=999usize) as u64,
            rng.gen_range(-50..50i32) as u64,
            rng.gen_range(-50..=50i32) as u64,
            rng.gen_range(0..(1u64 << 40) + 7),
            rng.gen_range(1..=u64::MAX - 1),
            rng.gen_range(0..=u64::MAX),
            rng.gen_range(0.0..1.0f64).to_bits(),
            u64::from(rng.gen_bool(0.3)),
            u64::from(rng.gen_bool(0.7)),
            rng.gen_f64().to_bits(),
        ];
        let mut deck: Vec<u64> = (0..10).collect();
        rng.shuffle(&mut deck);
        table.extend(deck);
        let pool: Vec<u64> = (0..20).collect();
        table.extend(rng.choose_multiple(&pool, 5).copied());
        table.extend(rng.sample_indices(10, 3).into_iter().map(|i| i as u64));
        table.push(rng.next_u64());
        table
    }

    /// [`draw_table`] for each seed, recorded while the workspace still
    /// vendored a `rand` 0.8 stand-in, whose generator and sampling gave
    /// the same entries as `SimRng`'s; the methods moved here from it must
    /// keep drawing exactly as it did. One
    /// line each: small integer ranges, 64-bit ranges, floats and coins,
    /// the shuffle, the two samples, the raw draw after them.
    #[rustfmt::skip]
    const DRAW_TABLE: [(u64, [u64; 32]); 4] = [
        (0, [
            0x3, 0x4, 0x167, 0xb, 0xffffffffffffffff, 0xffffffffffffffd0,
            0xdb7490c760, 0xd87343e6464bc958, 0x4b7da0a02389f0ff,
            0x3fb300fc58c04248, 0x0, 0x1, 0x3fbaae5543439608,
            0x7, 0x2, 0x5, 0x6, 0x1, 0x8, 0x4, 0x3, 0x9, 0x0,
            0x0, 0x6, 0x9, 0x2, 0x1, 0x6, 0x9, 0x2,
            0x400feb0bae786424,
        ]),
        (1, [
            0x8, 0x6, 0x64, 0x2ea, 0xffffffffffffffe0, 0x9,
            0xfca3c7950f, 0x85fea5c90363f220, 0x18bae5b30d334bd0,
            0x3fc13089e4f81374, 0x0, 0x1, 0x3fb28ae2d5697640,
            0x6, 0x7, 0x8, 0x5, 0x4, 0x2, 0x9, 0x1, 0x0, 0x3,
            0x3, 0x8, 0x6, 0xd, 0x2, 0x9, 0x6, 0x7,
            0x97f3078dc02e78af,
        ]),
        (42, [
            0x8, 0x4, 0x3d7, 0x2bd, 0x1d, 0x9,
            0x201718ff22, 0x9ae94e070ed8cb45, 0x352cf3daf095ccc7,
            0x3fedddfac6433694, 0x0, 0x0, 0x3fe5c29cee0a86b3,
            0x7, 0x8, 0x5, 0x6, 0x2, 0x9, 0x1, 0x4, 0x3, 0x0,
            0xd, 0xa, 0x10, 0x5, 0x1, 0x9, 0x5, 0x8,
            0x15a0b07d583a481f,
        ]),
        (u64::MAX, [
            0x3, 0x7, 0x37a, 0x111, 0xf, 0xfffffffffffffff6,
            0xe243b47dee, 0x7c93fdab4c7b3dff, 0xa285b65e80080825,
            0x3feb545309085e19, 0x0, 0x1, 0x3fed920081029b68,
            0x7, 0x4, 0x3, 0x6, 0x1, 0x9, 0x5, 0x8, 0x2, 0x0,
            0x8, 0xf, 0x2, 0x1, 0x7, 0x9, 0x3, 0x5,
            0xed2b084f1f5e47fd,
        ]),
    ];

    #[test]
    fn draw_kinds_known_answer() {
        for (seed, expected) in DRAW_TABLE {
            let table = draw_table(&mut SimRng::seed_from_u64(seed));
            assert_eq!(table, expected, "seed {seed}");
        }
    }

    #[test]
    fn proptest_case_rng_matches_sim_rng() {
        // The vendored proptest keeps a private copy of this generator
        // and of the range draws its strategies make; every generated
        // case stays the same only while the two agree.
        use proptest::strategy::Strategy;
        use proptest::test_runner::TestRng;
        for seed in [0u64, 1, 42, 0xDEAD_BEEF, u64::MAX] {
            let mut ours = SimRng::seed_from_u64(seed);
            let mut theirs = TestRng::seed_from_u64(seed);
            for _ in 0..64 {
                assert_eq!(ours.next_u64(), theirs.next_u64(), "seed {seed}");
            }
            for _ in 0..64 {
                assert_eq!(ours.gen_range(0..10u32), (0..10u32).sample(&mut theirs));
                assert_eq!(
                    ours.gen_range(-50..=50i32),
                    (-50..=50i32).sample(&mut theirs)
                );
                assert_eq!(
                    ours.gen_range(0..(1u64 << 63) + 1),
                    (0..(1u64 << 63) + 1).sample(&mut theirs)
                );
                assert_eq!(
                    ours.gen_range(0..=u64::MAX),
                    (0..=u64::MAX).sample(&mut theirs)
                );
                assert_eq!(
                    ours.gen_range(0.0..2.5f64).to_bits(),
                    (0.0..2.5f64).sample(&mut theirs).to_bits()
                );
            }
            assert_eq!(
                ours.next_u64(),
                theirs.next_u64(),
                "seed {seed}: streams drifted"
            );
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
    fn below_dividing_every_draw(rng: &mut SimRng, bound: u64) -> u64 {
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
    fn assert_gen_range_matches_reference(rng: SimRng) {
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

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let _ = SimRng::seed_from_u64(0).gen_range(3u32..3);
    }

    #[test]
    fn gen_range_is_in_bounds_and_hits_all_values() {
        let mut r = SimRng::seed_from_u64(7);
        let mut seen = [false; 5];
        for _ in 0..500 {
            let x = r.gen_range(0u32..5);
            assert!(x < 5);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_range_inclusive_hits_endpoints() {
        let mut r = SimRng::seed_from_u64(9);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..500 {
            let x = r.gen_range(0usize..=3);
            assert!(x <= 3);
            lo_seen |= x == 0;
            hi_seen |= x == 3;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn gen_range_negative_ints() {
        let mut r = SimRng::seed_from_u64(3);
        for _ in 0..200 {
            let x = r.gen_range(-5i32..5);
            assert!((-5..5).contains(&x));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = SimRng::seed_from_u64(5);
        assert!((0..100).all(|_| !r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }

    #[test]
    fn gen_bool_is_roughly_fair() {
        let mut r = SimRng::seed_from_u64(11);
        let heads = (0..10_000).filter(|_| r.gen_bool(0.5)).count();
        assert!((4500..=5500).contains(&heads), "heads = {heads}");
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut r = SimRng::seed_from_u64(13);
        for _ in 0..1000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    #[should_panic(expected = "p must be in [0, 1]")]
    fn gen_bool_rejects_p_outside_unit_interval() {
        let _ = SimRng::seed_from_u64(0).gen_bool(1.5);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::seed_from_u64(1);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let set: HashSet<u32> = v.iter().copied().collect();
        assert_eq!(set.len(), 50);
        assert_ne!(
            v,
            (0..50).collect::<Vec<u32>>(),
            "50! shuffles are never identity"
        );
    }

    #[test]
    fn choose_multiple_is_distinct_and_sized() {
        let mut r = SimRng::seed_from_u64(3);
        let v: Vec<u32> = (0..20).collect();
        for amount in [0usize, 1, 5, 20, 25] {
            let sized = amount.min(20);
            let it = r.choose_multiple(&v, amount);
            assert_eq!(it.len(), sized, "ExactSizeIterator length");
            let picks: Vec<u32> = it.copied().collect();
            assert_eq!(picks.len(), sized);
            let set: HashSet<u32> = picks.iter().copied().collect();
            assert_eq!(set.len(), sized, "duplicates in sample");
        }
    }

    #[test]
    fn sample_indices_uniformity_smoke() {
        let mut r = SimRng::seed_from_u64(4);
        let mut counts = [0u32; 10];
        for _ in 0..2000 {
            for i in r.sample_indices(10, 3) {
                counts[i] += 1;
            }
        }
        // Each index expected 600 times; allow wide tolerance.
        assert!(
            counts.iter().all(|&c| (400..800).contains(&c)),
            "{counts:?}"
        );
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sample_indices_rejects_oversized() {
        SimRng::seed_from_u64(5).sample_indices(3, 4);
    }
}
