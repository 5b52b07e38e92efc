//! Summary statistics for timings and the ratio metrics built from them.

/// Percentiles a timing may be reported at, highest first.
const CANDIDATE_PERCENTILES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle two for an even count); `0.0` for
/// no samples.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The `p`-th percentile of `xs` by linear interpolation between the
/// closest ranks; `0.0` for no samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Number of the `n` samples that lie strictly beyond the `p`-th
/// percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    // The epsilon keeps float error (0.999 * 10000 = 9990.000…2) from
    // pushing the cut one rank up.
    n - ((p / 100.0) * n as f64 - 1e-9).ceil() as usize
}

/// The highest reportable percentile for `n` samples: the largest
/// candidate with at least [`MIN_BEYOND`] samples beyond it, or `None`
/// when the sample supports only the median.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    CANDIDATE_PERCENTILES
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// `num / den`, or `0.0` when the denominator is zero (a layer that did
/// no work reports a zero ratio, not a NaN).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Summary of one timing series: sample count, median and the highest
/// percentile the sample supports.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// `(percentile, value)` of the highest supported percentile.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises `xs`.
    pub fn of(xs: &[f64]) -> Summary {
        Summary {
            n: xs.len(),
            p50: median(xs),
            tail: highest_supported_percentile(xs.len()).map(|p| (p, percentile(xs, p))),
        }
    }

    /// One-line JSON object for the run's detail record.
    pub fn to_json(&self) -> String {
        match self.tail {
            Some((p, v)) => format!(
                "{{\"n\": {}, \"p50\": {}, \"tail_percentile\": {p}, \"tail\": {v}}}",
                self.n, self.p50
            ),
            None => format!(
                "{{\"n\": {}, \"p50\": {}, \"tail_percentile\": null}}",
                self.n, self.p50
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&[0.0, 10.0], 25.0), 2.5);
    }

    #[test]
    fn samples_beyond_counts_the_upper_tail() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(10, 50.0), 5);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // Fewer than 40 samples: not even p75 has ten beyond it.
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(39), None);
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(99), Some(75.0));
        // Exactly ten beyond p90 at 100 samples.
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn summary_reports_the_supported_tail() {
        let xs: Vec<f64> = (1..=120).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!(s.n, 120);
        assert_eq!(s.p50, 60.5);
        assert_eq!(s.tail.map(|t| t.0), Some(90.0));
        assert_eq!(Summary::of(&[1.0, 2.0]).tail, None);
    }

    #[test]
    fn ratio_of_zero_work_is_zero() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(5.0, 0.0), 0.0);
    }
}
