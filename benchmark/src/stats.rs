//! Sample statistics: exact nanosecond samples, sorted — never a
//! bucketed histogram, whose power-of-two steps are 100 % wide.

/// How many samples must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` per cent of the samples at or below it.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples (the
/// epsilon keeps `99.9 % of 10 000` at 9990 despite float rounding).
fn rank(n: usize, p: f64) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil().max(0.0) as usize
}

/// Samples strictly beyond the nearest-rank position of percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p).min(n)
}

/// Least-squares slope of `y` on `x`; 0 when `x` does not vary.
pub fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let (mx, my) = (
        points.iter().map(|p| p.0).sum::<f64>() / n,
        points.iter().map(|p| p.1).sum::<f64>() / n,
    );
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

/// Latency samples of one population, in nanoseconds.
#[derive(Debug, Default)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    /// Preallocated for `cap` samples so the timed loop never reallocates.
    pub fn with_capacity(cap: usize) -> Samples {
        Samples {
            ns: Vec::with_capacity(cap),
            sorted: true,
        }
    }

    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    pub fn absorb(&mut self, other: Samples) {
        self.ns.extend(other.ns);
        self.sorted = false;
    }

    pub fn sum_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
    }

    /// Percentile `p` in microseconds; 0 for an empty population.
    pub fn percentile_us(&mut self, p: f64) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        self.sort();
        percentile(&self.ns, p) as f64 / 1e3
    }

    pub fn mean_us(&self) -> f64 {
        if self.ns.is_empty() {
            0.0
        } else {
            self.sum_ns() as f64 / self.ns.len() as f64 / 1e3
        }
    }
}

/// `VmHWM` (peak resident set) in kB out of a `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// Peak resident set of this process in MiB (0 where `/proc` is absent).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_samples() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 99.0), 7);
        // Odd count: the true middle.
        assert_eq!(percentile(&[1, 2, 3, 4, 5], 50.0), 3);
    }

    #[test]
    fn at_least_ten_beyond_rule() {
        // p99 of 1000 samples leaves exactly 10 beyond; of 999, only 9.
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert!(beyond(1000, 99.0) >= MIN_BEYOND && beyond(999, 99.0) < MIN_BEYOND);
        // 99.9 % of 10 000 is rank 9990 exactly, float rounding or not.
        assert_eq!(beyond(10_000, 99.9), 10);
        assert_eq!(beyond(20, 50.0), 10);
        assert_eq!(beyond(0, 99.0), 0);
    }

    #[test]
    fn slope_of_a_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 + 7.0)).collect();
        assert!((slope(&pts) - 3.0).abs() < 1e-9);
        assert_eq!(slope(&[(1.0, 1.0), (1.0, 5.0)]), 0.0);
    }

    #[test]
    fn samples_report_microseconds() {
        let mut s = Samples::with_capacity(4);
        for ns in [4000, 1000, 3000, 2000] {
            s.push(ns);
        }
        assert_eq!(s.percentile_us(50.0), 2.0);
        assert_eq!(s.percentile_us(100.0), 4.0);
        assert_eq!(s.mean_us(), 2.5);
        assert_eq!(Samples::default().percentile_us(99.0), 0.0);
    }

    #[test]
    fn vm_hwm_parses() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(12345));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots\n"), None);
    }
}
