#![warn(missing_docs)]

//! # segdb-rng — deterministic, dependency-free pseudo-randomness
//!
//! The workload generators and tests need *seeded, reproducible* random
//! streams, not cryptographic ones. This crate replaces the external
//! `rand` dependency with ~100 lines of the standard constructions so the
//! whole workspace builds with no network access:
//!
//! * [`SmallRng`] — xoshiro256\*\* (Blackman & Vigna), seeded through
//!   SplitMix64 exactly as `rand`'s `SmallRng` family does, so streams
//!   are high-quality for simulation purposes and fully deterministic
//!   per seed.
//! * [`SmallRng::gen_range`] — uniform sampling over `a..b` and `a..=b`
//!   integer ranges via Lemire-style widening multiply with rejection,
//!   i.e. unbiased.
//!
//! The API deliberately mirrors the subset of `rand` the repo used
//! (`seed_from_u64`, `gen_range`), keeping call sites unchanged beyond
//! the import line.
//!
//! [`check`] is the workspace's one property runner, built on
//! [`SmallRng`]. [`fnv1a`] is the workspace's one fingerprint of a byte
//! sequence: property seeds derive from test names through it, and both
//! fault injectors digest their traces with it.

pub mod check;

/// One SplitMix64 step: the recommended seeder for xoshiro state.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a over `bytes`: order-dependent, and stable across
/// processes, so replay checks compare the digests two runs print.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

/// A small, fast, seeded PRNG (xoshiro256\*\*).
#[derive(Debug, Clone)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    /// Deterministically seed from a single `u64` (SplitMix64 expansion;
    /// the all-zero state is unreachable).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        SmallRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `u64` below `bound` (> 0), unbiased (widening multiply
    /// with rejection, Lemire 2019).
    #[inline]
    fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform sample from an integer range (`a..b` or `a..=b`), like
    /// `rand`'s method of the same name. Panics on empty ranges.
    #[inline]
    pub fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: RangeSpec<T>,
    {
        let (lo, hi_incl) = range.bounds();
        T::sample(self, lo, hi_incl)
    }

    /// A coin flip with probability `p` of `true`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p));
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }
}

/// Integer types [`SmallRng::gen_range`] can sample uniformly.
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform sample in `[lo, hi]` (inclusive).
    fn sample(rng: &mut SmallRng, lo: Self, hi: Self) -> Self;
}

/// Range shapes accepted by [`SmallRng::gen_range`].
pub trait RangeSpec<T> {
    /// `(low, high_inclusive)`; panics if empty.
    fn bounds(&self) -> (T, T);
}

macro_rules! impl_uniform_signed {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample(rng: &mut SmallRng, lo: Self, hi: Self) -> Self {
                let span = (hi as $u).wrapping_sub(lo as $u);
                if span == <$u>::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(rng.below(span as u64 + 1) as $t)
            }
        }
    )*};
}

macro_rules! impl_uniform_unsigned {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample(rng: &mut SmallRng, lo: Self, hi: Self) -> Self {
                let span = hi - lo;
                if span as u64 == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + rng.below(span as u64 + 1) as $t
            }
        }
    )*};
}

impl_uniform_signed!(i64 => u64, i32 => u32);
impl_uniform_unsigned!(u64, u32, usize, u8);

impl<T: SampleUniform + Dec> RangeSpec<T> for std::ops::Range<T> {
    #[inline]
    fn bounds(&self) -> (T, T) {
        assert!(self.start < self.end, "gen_range on empty range");
        (self.start, self.end.dec())
    }
}

impl<T: SampleUniform> RangeSpec<T> for std::ops::RangeInclusive<T> {
    #[inline]
    fn bounds(&self) -> (T, T) {
        assert!(self.start() <= self.end(), "gen_range on empty range");
        (*self.start(), *self.end())
    }
}

/// Internal: decrement for converting `a..b` into `a..=b−1`.
pub trait Dec {
    /// `self − 1`.
    fn dec(self) -> Self;
}

macro_rules! impl_dec {
    ($($t:ty),*) => {$(
        impl Dec for $t {
            #[inline]
            fn dec(self) -> Self {
                self - 1
            }
        }
    )*};
}

impl_dec!(i64, i32, u64, u32, usize, u8);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        let mut c = SmallRng::seed_from_u64(43);
        let va: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..32).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn splitmix_reference_vector() {
        // First outputs for seed 0 from the reference implementation.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut s), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(&mut s), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn ranges_stay_in_bounds_and_cover() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.gen_range(0..10usize);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values of 0..10 hit");
        for _ in 0..1000 {
            let v = rng.gen_range(-5..=5i64);
            assert!((-5..=5).contains(&v));
        }
        for _ in 0..100 {
            let v = rng.gen_range(3..4u32);
            assert_eq!(v, 3, "singleton range");
        }
    }

    #[test]
    fn extreme_ranges() {
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..64 {
            let _ = rng.gen_range(i64::MIN..=i64::MAX);
            let v = rng.gen_range(i64::MAX - 1..i64::MAX);
            assert_eq!(v, i64::MAX - 1);
            let _ = rng.gen_range(0..=u64::MAX);
        }
    }

    #[test]
    #[should_panic]
    fn empty_range_panics() {
        let mut rng = SmallRng::seed_from_u64(1);
        let _ = rng.gen_range(5..5i64);
    }

    #[test]
    fn gen_bool_is_calibrated() {
        let mut rng = SmallRng::seed_from_u64(11);
        let heads = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&heads), "{heads}");
    }
}
