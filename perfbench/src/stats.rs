//! Small statistics helpers: medians, the percentile picker, and the
//! FNV-64 digest that pins artifacts.

/// FNV-1a, 64-bit, over raw bytes — the artifact digest the benchmark
/// commits and checks.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Smallest value of `xs`; 0 when empty.
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// First and third quartiles of `xs`: the medians of its lower and upper
/// halves (the middle value of an odd length in neither).
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return (median(&v), median(&v));
    }
    (median(&v[..n / 2]), median(&v[n.div_ceil(2)..]))
}

/// The percentile ladder the picker walks down, highest first.
pub const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a reported percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// A percentile chosen by [`pick_percentile`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pick {
    /// The percentile reported (e.g. `99.0`).
    pub percentile: f64,
    /// Its value (nearest rank).
    pub value: f64,
    /// Number of samples it was taken from.
    pub samples: usize,
}

/// Nearest-rank percentile of `sorted` (ascending, non-empty): the value
/// at 1-based rank `ceil(p/100 · n)`, and how many samples lie beyond it.
fn nearest_rank(sorted: &[f64], p: f64) -> (f64, usize) {
    let n = sorted.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    (sorted[rank - 1], n - rank)
}

/// The highest percentile at or below `wanted` on [`LADDER`] that has at
/// least [`MIN_BEYOND`] samples beyond it, with the sample count. `None`
/// when even the median lacks that many.
pub fn pick_percentile(samples: &[f64], wanted: f64) -> Option<Pick> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    LADDER.iter().filter(|&&p| p <= wanted).find_map(|&p| {
        if sorted.is_empty() {
            return None;
        }
        let (value, beyond) = nearest_rank(&sorted, p);
        (beyond >= MIN_BEYOND).then_some(Pick {
            percentile: p,
            value,
            samples: sorted.len(),
        })
    })
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
