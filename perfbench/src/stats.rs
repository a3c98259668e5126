//! Order statistics the benchmark reports: medians and quartiles of
//! repeated runs, and nearest-rank percentiles of per-call samples.

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN value.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartiles by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads printed here match the ones Python computes from the
/// JSON lines. A single value is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice or a NaN value.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let data = sorted(values);
    let ld = data.len();
    assert!(ld > 0, "quartiles of no values");
    if ld == 1 {
        return (data[0], data[0]);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among measured values"));
    v
}

/// Percentiles a tail may be reported at, highest first.
pub const TAIL_CANDIDATES: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a tail percentile must leave above it to be reported.
pub const TAIL_MIN_BEYOND: u64 = 10;

/// 1-based nearest rank of percentile `pct` among `n` samples.
#[must_use]
pub fn nearest_rank(pct: f64, n: u64) -> u64 {
    ((pct / 100.0 * n as f64).ceil() as u64).clamp(1, n.max(1))
}

/// The highest of [`TAIL_CANDIDATES`] that still has at least
/// [`TAIL_MIN_BEYOND`] of `n` samples strictly above its nearest rank;
/// `None` when even the median has fewer (fewer than 20 samples).
#[must_use]
pub fn tail_percentile(n: u64) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&pct| n.saturating_sub(nearest_rank(pct, n)) >= TAIL_MIN_BEYOND)
}

/// Exact distribution of non-negative integer samples (nanoseconds):
/// one counter per value below [`Hist::DENSE`], the rare larger values
/// kept individually. Recording is O(1) and allocation-free for the
/// dense range, so it can sit on a per-slice path.
#[derive(Debug, Clone)]
pub struct Hist {
    dense: Vec<u64>,
    sparse: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            dense: vec![0; Self::DENSE],
            sparse: Vec::new(),
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Hist {
    /// Values below this are counted, not stored.
    pub const DENSE: usize = 1 << 14;

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        match self.dense.get_mut(value as usize) {
            Some(slot) => *slot += 1,
            None => self.sparse.push(value),
        }
        self.count += 1;
        self.sum += u128::from(value);
        self.max = self.max.max(value);
    }

    /// Folds another distribution into this one.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.dense.iter_mut().zip(&other.dense) {
            *a += b;
        }
        self.sparse.extend_from_slice(&other.sparse);
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Largest sample (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank percentile `pct` (0 when empty).
    #[must_use]
    pub fn percentile(&self, pct: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = nearest_rank(pct, self.count);
        let mut seen = 0u64;
        for (value, &c) in self.dense.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return value as u64;
            }
        }
        let mut big = self.sparse.clone();
        big.sort_unstable();
        big[(rank - seen - 1) as usize]
    }

    /// Median and the [`tail_percentile`] (with the percentile used);
    /// the tail is `None` below 20 samples.
    #[must_use]
    pub fn summary(&self) -> (u64, Option<(f64, u64)>) {
        let tail = tail_percentile(self.count).map(|pct| (pct, self.percentile(pct)));
        (self.percentile(50.0), tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        // 20 samples: the median (rank 10) leaves exactly 10 above it.
        assert_eq!(tail_percentile(20), Some(50.0));
        // 100 samples: p90 is rank 90 (10 above), p95 is rank 95 (5 above).
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(1_000_000), Some(99.0));
    }

    #[test]
    fn hist_percentiles_are_exact_across_dense_and_sparse_ranges() {
        let mut a = Hist::default();
        let mut b = Hist::default();
        for v in 1..=60u64 {
            a.record(v);
        }
        for v in 61..=100u64 {
            b.record(v * 1_000_000); // beyond the dense range
        }
        a.merge(&b);
        assert_eq!(a.count(), 100);
        assert_eq!(a.percentile(50.0), 50);
        assert_eq!(a.percentile(60.0), 60);
        assert_eq!(a.percentile(61.0), 61_000_000);
        assert_eq!(a.percentile(100.0), 100_000_000);
        assert_eq!(a.max(), 100_000_000);
        assert_eq!(a.summary(), (50, Some((90.0, 90_000_000))));
        assert_eq!(Hist::default().summary(), (0, None));
    }
}
