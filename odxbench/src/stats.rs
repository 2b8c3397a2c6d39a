//! Order statistics used for every reported timing.

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let sorted = sorted(xs);
    let n = sorted.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The three quartile cut points of `xs`, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// spreads printed here match the ones an outside check computes.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let data = sorted(xs);
    let ld = data.len();
    assert!(ld > 0, "quartiles of an empty sample");
    if ld == 1 {
        return [data[0]; 3];
    }
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k as i64 + 1;
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        // May be negative when the sample is tiny; Python does the same.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread the bounds are judged against.
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(xs);
    (q3 - q1) / median(xs)
}

/// Percentiles considered for a tail, in parts per 100 000.
const TAIL_LADDER: [u64; 6] = [50_000, 90_000, 99_000, 99_900, 99_990, 99_999];

/// A percentile of a sample with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile (e.g. 99.9).
    pub percentile: f64,
    /// Its nearest-rank value.
    pub value: f64,
    /// Samples strictly beyond that rank.
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
}

/// Nearest-rank rank (1-based) of a percentile given in parts per 100 000.
fn rank(parts: u64, n: usize) -> usize {
    let n = n as u128;
    let r = (u128::from(parts) * n).div_ceil(100_000);
    r.clamp(1, n) as usize
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of an ascending sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let parts = (p * 1000.0).round() as u64;
    sorted[rank(parts, sorted.len()) - 1]
}

/// The highest percentile on the 50 / 90 / 99 / 99.9 / 99.99 / 99.999
/// ladder that has at least ten samples beyond it, with the sample count.
/// `None` when even the median lacks ten samples beyond it.
pub fn supported_tail(sorted: &[f64]) -> Option<Tail> {
    tail_by_rank(sorted.len(), |r| sorted[r - 1])
}

/// [`supported_tail`] of a sample of `n` given by its value at each
/// (1-based) rank.
fn tail_by_rank(n: usize, at: impl Fn(usize) -> f64) -> Option<Tail> {
    TAIL_LADDER
        .iter()
        .rev()
        .map(|&parts| (parts, rank(parts, n.max(1))))
        .find(|&(_, r)| n >= r && n - r >= 10)
        .map(|(parts, r)| Tail {
            percentile: parts as f64 / 1000.0,
            value: at(r),
            beyond: n - r,
            samples: n,
        })
}

/// Whether a sample of `n` supports percentile `p` with at least ten
/// samples beyond its nearest rank.
pub fn supports(n: usize, p: f64) -> bool {
    let parts = (p * 1000.0).round() as u64;
    n > 0 && n - rank(parts, n) >= 10
}

/// Width of a [`Histogram`] bin (ns).
const BIN_NS: u64 = 100;
/// Bins of a [`Histogram`]: 100 ns wide up to 20 ms.
const BINS: usize = 200_000;

/// Durations counted in fixed 100 ns bins up to 20 ms, with the rare
/// longer ones kept exactly. Its memory does not grow with the sample,
/// so a closed loop's latency log does not make the process's peak
/// resident set depend on the request rate.
#[derive(Debug, Clone)]
pub struct Histogram {
    bins: Vec<u32>,
    /// Durations of 20 ms or more (ns), in arrival order.
    long: Vec<u32>,
    n: usize,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { bins: vec![0; BINS], long: Vec::new(), n: 0 }
    }
}

impl Histogram {
    /// Count one duration (ns).
    pub fn record(&mut self, ns: u32) {
        match self.bins.get_mut((u64::from(ns) / BIN_NS) as usize) {
            Some(bin) => *bin += 1,
            None => self.long.push(ns),
        }
        self.n += 1;
    }

    /// Durations counted.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether nothing was counted.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The value (ms) at a 1-based rank: the upper edge of its bin, so at
    /// most 100 ns above the exact value, or the exact value past 20 ms.
    fn at_rank(&self, r: usize) -> f64 {
        let mut seen = 0;
        for (i, &count) in self.bins.iter().enumerate() {
            seen += count as usize;
            if seen >= r {
                return ((i as u64 + 1) * BIN_NS) as f64 * 1e-6;
            }
        }
        let mut long = self.long.clone();
        long.sort_unstable();
        f64::from(long[r - seen - 1]) * 1e-6
    }

    /// Nearest-rank percentile `p` (ms), as [`percentile`] gives it on the
    /// sample up to the bin width. Panics when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!(self.n > 0, "percentile of an empty histogram");
        self.at_rank(rank((p * 1000.0).round() as u64, self.n))
    }

    /// [`supported_tail`] of the counted sample (ms).
    pub fn supported_tail(&self) -> Option<Tail> {
        tail_by_rank(self.n, |r| self.at_rank(r))
    }
}

/// An ascending copy of `xs`.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}
