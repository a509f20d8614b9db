//! Percentiles over exact samples.

/// Percentiles tried, highest first, when reporting a tail: the tail is
/// p99 unless fewer than [`MIN_BEYOND`] samples lie beyond it.
pub const TAIL_LADDER: [f64; 6] = [99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// such that at least `p`% of all samples are at or below it. Returns 0
/// for an empty slice.
pub fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// A reported tail percentile.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported (99 unless the sample is too small).
    pub pct: f64,
    /// Its value.
    pub value: u64,
    /// Samples strictly beyond its rank.
    pub beyond: usize,
}

impl Tail {
    /// `p99`, or e.g. `p95` when the sample could not support p99.
    pub fn label(&self) -> String {
        format!("p{}", self.pct)
    }
}

/// The highest percentile on [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] samples beyond its rank; the median when the sample
/// is too small for any of them.
pub fn tail(sorted: &[u64]) -> Tail {
    let n = sorted.len();
    let at = |pct: f64| Tail {
        pct,
        value: nearest_rank(sorted, pct),
        beyond: n.saturating_sub(rank(n.max(1), pct)),
    };
    TAIL_LADDER
        .iter()
        .map(|&pct| at(pct))
        .find(|t| t.beyond >= MIN_BEYOND)
        .unwrap_or_else(|| at(50.0))
}

/// Median of unsorted floats (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}
