//! [`Tally`], the workspace's one event-counter type. Its owner declares
//! the names once with [`crate::tally!`]: an enum of keys, each paired
//! with the name it renders under. A bump is one relaxed `fetch_add` —
//! no lookup, no string; [`Tally::new`] is `const`, so a process-wide
//! tally is a plain `static`; [`Tally::to_json`] renders every counter,
//! zeros included, in declaration order.
//!
//! ```
//! segdb_obs::tally! {
//!     /// What a toy cache saw.
//!     pub enum Cache: CacheTally {
//!         /// A lookup that found its page.
//!         Hit = "hits",
//!         /// A lookup that did not.
//!         Miss = "misses",
//!     }
//! }
//! static CACHE: CacheTally = CacheTally::new();
//!
//! CACHE.bump(Cache::Hit);
//! CACHE.add(Cache::Miss, 2);
//! assert_eq!(CACHE.get(Cache::Miss), 2);
//! assert_eq!(CACHE.to_json().render(), r#"{"hits":1,"misses":2}"#);
//! ```

use crate::json::Json;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

/// The keys of one tally: an enum declared by [`crate::tally!`].
pub trait Keys: Copy + 'static {
    /// Every key's rendered name, in declaration order.
    const NAMES: &'static [&'static str];

    /// The key's position in [`Keys::NAMES`].
    fn index(self) -> usize;
}

/// One relaxed atomic counter per key of `K`. `N` is the key count; the
/// type alias that [`crate::tally!`] declares fills it in.
#[derive(Debug)]
pub struct Tally<K: Keys, const N: usize> {
    values: [AtomicU64; N],
    keys: PhantomData<K>,
}

impl<K: Keys, const N: usize> Tally<K, N> {
    /// Every counter at 0.
    pub const fn new() -> Self {
        assert!(K::NAMES.len() == N, "one counter per declared name");
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Tally {
            values: [ZERO; N],
            keys: PhantomData,
        }
    }

    /// Count one event.
    #[inline]
    pub fn bump(&self, key: K) {
        self.add(key, 1);
    }

    /// Count `n` events.
    #[inline]
    pub fn add(&self, key: K, n: u64) {
        self.values[key.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// The count of `key`.
    pub fn get(&self, key: K) -> u64 {
        self.values[key.index()].load(Ordering::Relaxed)
    }

    /// Zero every counter.
    pub fn reset(&self) {
        for v in &self.values {
            v.store(0, Ordering::Relaxed);
        }
    }

    /// The counts of `keys`, summed.
    pub fn sum(&self, keys: &[K]) -> u64 {
        keys.iter().map(|&k| self.get(k)).sum()
    }

    /// `(name, count)` of every key, in declaration order — for a reply
    /// block that puts other fields beside the counters.
    pub fn fields(&self) -> Vec<(&'static str, Json)> {
        K::NAMES
            .iter()
            .zip(&self.values)
            .map(|(&name, v)| (name, Json::U64(v.load(Ordering::Relaxed))))
            .collect()
    }

    /// Every counter as one JSON object, in declaration order.
    pub fn to_json(&self) -> Json {
        Json::obj(self.fields())
    }
}

impl<K: Keys, const N: usize> Default for Tally<K, N> {
    fn default() -> Self {
        Self::new()
    }
}

/// Declare a tally's keys and names once: an enum of keys, each with the
/// name it renders under, and a [`Tally`] type alias sized to them (see
/// the [module docs](mod@crate::tally) for an example).
#[macro_export]
macro_rules! tally {
    (
        $(#[$meta:meta])*
        $vis:vis enum $keys:ident: $tally:ident {
            $($(#[$key_meta:meta])* $key:ident = $name:literal),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        $vis enum $keys {
            $($(#[$key_meta])* $key),+
        }

        impl $crate::tally::Keys for $keys {
            const NAMES: &'static [&'static str] = &[$($name),+];

            #[inline]
            fn index(self) -> usize {
                self as usize
            }
        }

        #[doc = concat!("One counter per [`", stringify!($keys), "`].")]
        $vis type $tally = $crate::tally::Tally<$keys, { [$($name),+].len() }>;
    };
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    crate::tally! {
        /// Test keys.
        enum Probe: ProbeTally {
            Alpha = "alpha",
            Beta = "beta",
            Gamma = "gamma",
        }
    }

    static PROBES: ProbeTally = ProbeTally::new();

    #[test]
    fn renders_every_name_in_declaration_order() {
        let t = ProbeTally::new();
        t.bump(Probe::Gamma);
        t.add(Probe::Alpha, 5);
        assert_eq!(t.to_json().render(), r#"{"alpha":5,"beta":0,"gamma":1}"#);
        assert_eq!(t.sum(&[Probe::Alpha, Probe::Gamma]), 6);
        t.reset();
        assert_eq!(t.to_json().render(), r#"{"alpha":0,"beta":0,"gamma":0}"#);
    }

    #[test]
    fn a_static_tally_counts_across_threads() {
        let before = PROBES.get(Probe::Beta);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..1000 {
                        PROBES.bump(Probe::Beta);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(PROBES.get(Probe::Beta) - before, 4000);
        let owned = Arc::new(ProbeTally::new());
        owned.bump(Probe::Alpha);
        assert_eq!(owned.get(Probe::Alpha), 1);
    }
}
