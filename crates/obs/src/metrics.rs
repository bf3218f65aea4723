//! Fixed-bucket histograms. A histogram is plain data (`&mut self`
//! recording); an owner that records from many threads keeps it behind
//! its own lock, beside whatever else that lock guards.

use crate::json::Json;

/// Power-of-two bucket upper bounds used by default: `< 1`, `< 2`,
/// `< 4`, …, `< 2^15`, plus an overflow bucket. I/O-per-query counts of
/// every structure in this repo land comfortably inside.
pub const POW2_BOUNDS: [u64; 16] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768,
];

/// A fixed-bucket histogram (`counts[i]` = samples `< bounds[i]`, last
/// extra slot = overflow), plus exact sum/min/max/count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new(POW2_BOUNDS.to_vec())
    }
}

impl Histogram {
    /// A latency histogram in microseconds: power-of-two bounds from
    /// 1 µs up to `2^24` µs (~16.8 s), plus overflow. The serving
    /// layer's per-stage timings and the load driver's round-trip
    /// latencies all use this shape so their distributions merge and
    /// compare directly.
    pub fn latency_us() -> Histogram {
        Histogram::new((0..=24).map(|i| 1u64 << i).collect())
    }

    /// Build with strictly increasing bucket upper bounds.
    pub fn new(bounds: Vec<u64>) -> Histogram {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must increase"
        );
        let n = bounds.len() + 1;
        Histogram {
            bounds,
            counts: vec![0; n],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample. The exact sum saturates at `u64::MAX` instead
    /// of overflowing — extreme samples land in the overflow bucket and
    /// must not poison the whole histogram.
    pub fn observe(&mut self, value: u64) {
        let i = self.bounds.partition_point(|&b| b <= value);
        self.counts[i] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Upper bound below which `q` (0..=1) of samples fall (bucket
    /// resolution; `u64::MAX` for the overflow bucket).
    pub fn quantile_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return self.bounds.get(i).copied().unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }

    /// Fold another histogram into this one (bucket-wise). Used by the
    /// load driver to merge per-connection latency histograms into one
    /// fleet-wide distribution.
    ///
    /// # Panics
    /// Panics if the bucket bounds differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "merging mismatched histograms");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Compact quantile summary:
    /// `{count, p50, p95, p99, mean, max}` — the block the server's
    /// `stats` reply carries. Quantiles are bucket upper bounds (see
    /// [`Histogram::quantile_bound`]); mean and max are exact.
    pub fn summary_json(&self) -> Json {
        Json::obj([
            ("count", Json::U64(self.count)),
            ("p50", Json::U64(self.quantile_bound(0.50))),
            ("p95", Json::U64(self.quantile_bound(0.95))),
            ("p99", Json::U64(self.quantile_bound(0.99))),
            ("mean", Json::F64(self.mean())),
            ("max", Json::U64(self.max)),
        ])
    }

    /// JSON form: `{count, sum, min, max, mean, buckets: [{le, n}...]}`.
    /// Empty buckets are elided to keep snapshots small.
    pub fn to_json(&self) -> Json {
        let mut buckets = Vec::new();
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let le = match self.bounds.get(i) {
                Some(&b) => Json::U64(b),
                None => Json::Str("inf".into()),
            };
            buckets.push(Json::Obj(vec![
                ("lt".into(), le),
                ("n".into(), Json::U64(c)),
            ]));
        }
        Json::obj([
            ("count", Json::U64(self.count)),
            ("sum", Json::U64(self.sum)),
            ("min", Json::U64(self.min())),
            ("max", Json::U64(self.max)),
            ("mean", Json::F64(self.mean())),
            ("buckets", Json::Arr(buckets)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucketing() {
        let mut h = Histogram::default();
        for v in [0, 1, 1, 3, 100, 40_000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 40_105);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 40_000);
        let j = h.to_json();
        assert_eq!(j.get("count"), Some(&Json::U64(6)));
        // 0 → bucket "<1"; 1,1 → "<2"; 3 → "<4"; 100 → "<128"; 40000 → inf.
        let buckets = j.get("buckets").unwrap().as_arr().unwrap();
        assert_eq!(buckets.len(), 5);
        assert_eq!(
            buckets.last().unwrap().get("lt"),
            Some(&Json::Str("inf".into()))
        );
    }

    #[test]
    fn quantiles_are_bucket_resolution() {
        let mut h = Histogram::default();
        for v in 0..100u64 {
            h.observe(v);
        }
        assert_eq!(h.quantile_bound(0.5), 64); // 50th sample is 49 → bucket <64
        assert_eq!(h.quantile_bound(1.0), 128);
    }

    #[test]
    fn merge_folds_counts_and_extremes() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for v in [1, 2, 3] {
            a.observe(v);
        }
        for v in [100, 0] {
            b.observe(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.sum(), 106);
        assert_eq!(a.min(), 0);
        assert_eq!(a.max(), 100);
    }

    /// Deterministic pseudo-random stream (obs is zero-dep; a splitmix
    /// step is plenty for property-style coverage).
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn merge_is_commutative_and_count_preserving() {
        for seed in 1..=8u64 {
            let mut s = seed;
            let mut a = Histogram::default();
            let mut b = Histogram::default();
            let (na, nb) = (1 + splitmix(&mut s) % 200, 1 + splitmix(&mut s) % 200);
            for _ in 0..na {
                a.observe(splitmix(&mut s) % 100_000);
            }
            for _ in 0..nb {
                b.observe(splitmix(&mut s) % 100_000);
            }
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            assert_eq!(ab, ba, "merge must be commutative (seed {seed})");
            assert_eq!(ab.count(), a.count() + b.count());
            assert_eq!(ab.sum(), a.sum() + b.sum());
            assert_eq!(ab.min(), a.min().min(b.min()));
            assert_eq!(ab.max(), a.max().max(b.max()));
            // Quantiles of the merge are bounded by the wider input.
            for q in [0.5, 0.95, 0.99, 1.0] {
                assert!(ab.quantile_bound(q) <= a.quantile_bound(q).max(b.quantile_bound(q)));
            }
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Histogram::default();
        for v in [3, 9, 1000] {
            a.observe(v);
        }
        let before = a.clone();
        a.merge(&Histogram::default());
        assert_eq!(a, before);
        let mut empty = Histogram::default();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn quantile_bound_edge_cases() {
        // Empty histogram: every quantile is 0.
        let h = Histogram::default();
        assert_eq!(h.quantile_bound(0.0), 0);
        assert_eq!(h.quantile_bound(0.5), 0);
        assert_eq!(h.quantile_bound(1.0), 0);
        // Single sample: every positive quantile is its bucket bound.
        let mut h = Histogram::default();
        h.observe(5);
        for q in [0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_bound(q), 8, "q={q}");
        }
        // Out-of-range q clamps instead of panicking.
        assert_eq!(h.quantile_bound(-3.0), h.quantile_bound(0.0));
        assert_eq!(h.quantile_bound(7.0), h.quantile_bound(1.0));
        // A sample above the last bound lives in the overflow bucket,
        // whose "bound" is u64::MAX.
        let mut h = Histogram::default();
        h.observe(1 << 40);
        assert_eq!(h.quantile_bound(0.5), u64::MAX);
        assert_eq!(h.max(), 1 << 40, "exact max survives bucketing");
    }

    #[test]
    fn overflow_bucket_saturates_without_losing_counts() {
        let mut h = Histogram::new(vec![1, 2]);
        for v in [0, 1, 5, 1 << 50, u64::MAX] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        // Buckets: <1 holds {0}, <2 holds {1}, overflow holds the rest.
        let j = h.to_json();
        let buckets = j.get("buckets").unwrap().as_arr().unwrap();
        let overflow = buckets.last().unwrap();
        assert_eq!(overflow.get("lt"), Some(&Json::Str("inf".into())));
        assert_eq!(overflow.get("n"), Some(&Json::U64(3)));
        assert_eq!(h.quantile_bound(1.0), u64::MAX);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn summary_json_reports_bucket_quantiles() {
        let mut h = Histogram::latency_us();
        for v in 0..100u64 {
            h.observe(v);
        }
        let s = h.summary_json();
        assert_eq!(s.get("count"), Some(&Json::U64(100)));
        assert_eq!(s.get("p50"), Some(&Json::U64(64)));
        assert_eq!(s.get("p95"), Some(&Json::U64(128)));
        assert_eq!(s.get("p99"), Some(&Json::U64(128)));
        assert_eq!(s.get("max"), Some(&Json::U64(99)));
        assert_eq!(s.get("mean"), Some(&Json::F64(49.5)));
        // Empty summary is all zeros, not an error.
        let s = Histogram::latency_us().summary_json();
        assert_eq!(s.get("count"), Some(&Json::U64(0)));
        assert_eq!(s.get("p99"), Some(&Json::U64(0)));
    }
}
