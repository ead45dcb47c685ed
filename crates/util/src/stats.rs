//! Statistics used by the paper's evaluation figures.
//!
//! The paper reports three kinds of summaries:
//!
//! * CDFs of per-scenario download-time ratios (Figs. 3, 5, 8, 9),
//! * box plots of the experimental aggregation benefit (Figs. 4, 6, 7, 10),
//! * the median of three repeated runs for every (scenario, protocol) pair.

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(values.iter().sum::<f64>() / values.len() as f64)
}

/// Median of a slice (interpolated for even lengths); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// Linearly interpolated percentile, `p` in `[0, 100]`; `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    Some(percentile_of_sorted(&sorted, p))
}

/// Percentile of an already-sorted slice (no allocation).
pub fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty());
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Box-plot five-number summary (min, first quartile, median, third
/// quartile, max), plus the mean — everything Figs. 4/6/7/10 display.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiveNumber {
    /// Smallest observation.
    pub min: f64,
    /// 25th percentile.
    pub q1: f64,
    /// 50th percentile.
    pub median: f64,
    /// 75th percentile.
    pub q3: f64,
    /// Largest observation.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Number of observations.
    pub count: usize,
}

impl FiveNumber {
    /// Computes the summary; `None` for an empty slice.
    pub fn from(values: &[f64]) -> Option<FiveNumber> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in summary input"));
        Some(FiveNumber {
            min: sorted[0],
            q1: percentile_of_sorted(&sorted, 25.0),
            median: percentile_of_sorted(&sorted, 50.0),
            q3: percentile_of_sorted(&sorted, 75.0),
            max: *sorted.last().unwrap(),
            mean: mean(values).unwrap(),
            count: values.len(),
        })
    }
}

/// An empirical CDF: sorted sample values with their cumulative
/// probabilities, as plotted in the paper's ratio figures.
#[derive(Debug, Clone)]
pub struct Cdf {
    /// Sample values, sorted ascending.
    pub values: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from raw samples (NaNs are rejected by panic — they
    /// indicate a harness bug upstream).
    pub fn from_samples(samples: &[f64]) -> Cdf {
        let mut values = samples.to_vec();
        values.sort_by(|a, b| a.partial_cmp(b).expect("NaN in CDF input"));
        Cdf { values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if there are no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Empirical `P(X <= x)`.
    pub fn probability_at(&self, x: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let count = self.values.partition_point(|&v| v <= x);
        count as f64 / self.values.len() as f64
    }

    /// Fraction of samples strictly greater than `x`. How often MPQUIC
    /// beats MPTCP, a ratio figure's headline, is `fraction_above(1.0)`
    /// of the MPTCP/MPQUIC time-ratio CDF.
    pub fn fraction_above(&self, x: f64) -> f64 {
        1.0 - self.probability_at(x)
    }

    /// Inverse CDF (quantile function) by linear interpolation.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(percentile_of_sorted(&self.values, p * 100.0))
        }
    }

    /// `(value, cumulative probability)` points suitable for plotting or
    /// printing as the figure's series.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.values.len();
        self.values
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (i + 1) as f64 / n as f64))
            .collect()
    }

    /// Downsamples the CDF to at most `max_points` evenly spaced quantile
    /// points, for compact text output of large experiment sweeps.
    pub fn sampled_points(&self, max_points: usize) -> Vec<(f64, f64)> {
        let pts = self.points();
        if pts.len() <= max_points || max_points == 0 {
            return pts;
        }
        let step = (pts.len() - 1) as f64 / (max_points - 1) as f64;
        (0..max_points)
            .map(|i| pts[(i as f64 * step).round() as usize])
            .collect()
    }
}

/// Picks the run whose value is the median of the repeats, returning its
/// index. With an even number of runs, the lower-middle one is used (a
/// concrete run must be chosen since the paper "analyzes the median run").
pub fn median_run_index(values: &[f64]) -> Option<usize> {
    if values.is_empty() {
        return None;
    }
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).expect("NaN in runs"));
    Some(idx[(values.len() - 1) / 2])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{self, check, CASES};
    use crate::DetRng;

    #[test]
    fn mean_median_basic() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[2.0, 4.0]), Some(3.0));
        assert_eq!(median(&[1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(40.0));
        assert_eq!(percentile(&v, 50.0), Some(25.0));
    }

    #[test]
    fn five_number_summary() {
        let v: Vec<f64> = (1..=5).map(|x| x as f64).collect();
        let s = FiveNumber::from(&v).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q3, 4.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.count, 5);
        assert!(FiveNumber::from(&[]).is_none());
    }

    #[test]
    fn cdf_probabilities() {
        let cdf = Cdf::from_samples(&[1.0, 2.0, 2.0, 4.0]);
        assert_eq!(cdf.probability_at(0.5), 0.0);
        assert_eq!(cdf.probability_at(1.0), 0.25);
        assert_eq!(cdf.probability_at(2.0), 0.75);
        assert_eq!(cdf.probability_at(5.0), 1.0);
        assert!((cdf.fraction_above(1.0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn cdf_points_monotonic() {
        let cdf = Cdf::from_samples(&[3.0, 1.0, 2.0]);
        let pts = cdf.points();
        assert_eq!(pts.len(), 3);
        assert!(pts.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 < w[1].1));
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    #[test]
    fn cdf_downsampling_preserves_endpoints() {
        let samples: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let cdf = Cdf::from_samples(&samples);
        let pts = cdf.sampled_points(11);
        assert_eq!(pts.len(), 11);
        assert_eq!(pts[0].0, 0.0);
        assert_eq!(pts[10].0, 999.0);
    }

    #[test]
    fn median_run_selection() {
        assert_eq!(median_run_index(&[]), None);
        assert_eq!(median_run_index(&[5.0]), Some(0));
        // runs: 9, 1, 5 -> median value 5 at index 2
        assert_eq!(median_run_index(&[9.0, 1.0, 5.0]), Some(2));
        // even count: lower middle of sorted [1,2,3,4] is 2 at index 0
        assert_eq!(median_run_index(&[2.0, 4.0, 1.0, 3.0]), Some(0));
    }

    #[test]
    fn prop_quantile_within_range() {
        let gen = |rng: &mut DetRng| {
            let samples = check::vec(rng, 1..100, |rng| rng.range_f64(-1e6, 1e6));
            // p in [0, 1], both ends included.
            (
                samples,
                rng.range_u64(0, 1 << 53) as f64 / (1u64 << 53) as f64,
            )
        };
        check(0x57A7_0001, CASES, gen, |(samples, p)| {
            let cdf = Cdf::from_samples(&samples);
            let q = cdf.quantile(p).unwrap();
            let lo = cdf.values.first().unwrap();
            let hi = cdf.values.last().unwrap();
            assert!(q >= *lo - 1e-9 && q <= *hi + 1e-9);
        });
    }

    #[test]
    fn prop_probability_monotone() {
        let gen = |rng: &mut DetRng| {
            let samples = check::vec(rng, 1..50, |rng| rng.range_f64(-100.0, 100.0));
            (
                samples,
                rng.range_f64(-110.0, 110.0),
                rng.range_f64(-110.0, 110.0),
            )
        };
        check(0x57A7_0002, CASES, gen, |(samples, a, b)| {
            let cdf = Cdf::from_samples(&samples);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            assert!(cdf.probability_at(lo) <= cdf.probability_at(hi));
        });
    }

    #[test]
    fn prop_median_run_is_median_value() {
        let gen = |rng: &mut DetRng| check::vec(rng, 1..20, |rng| rng.range_f64(0.0, 100.0));
        check(0x57A7_0003, CASES, gen, |values| {
            let idx = median_run_index(&values).unwrap();
            let below = values.iter().filter(|&&v| v < values[idx]).count();
            let above = values.iter().filter(|&&v| v > values[idx]).count();
            // The chosen run has at most half the runs strictly on each side.
            assert!(below <= values.len() / 2);
            assert!(above <= values.len() / 2);
        });
    }
}
