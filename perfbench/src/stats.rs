//! Order statistics used for every reported timing.

/// Median of `xs` (mean of the two middle values for an even count).
/// Returns NaN for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The three cut points that split `xs` into quarters, by the same rule as
/// Python's `statistics.quantiles(xs, n=4)` (the default "exclusive"
/// method), so a spread computed here matches one computed there.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let d = sorted(xs);
    let ld = d.len();
    match ld {
        0 => [f64::NAN; 3],
        1 => [d[0]; 3],
        _ => {
            let n = 4usize;
            let m = ld + 1;
            let mut out = [0.0; 3];
            for (slot, i) in out.iter_mut().zip(1..n) {
                let j = (i * m / n).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * n) as f64;
                *slot = (d[j - 1] * (n as f64 - delta) + d[j] * delta) / n as f64;
            }
            out
        }
    }
}

/// Interquartile range as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    (q3 - q1) / q2
}

/// Percentile ladder, in hundredths of a percent.
const LADDER_BP: [u64; 5] = [5000, 9000, 9900, 9990, 9999];

/// Samples that lie beyond the nearest-rank `p_bp` percentile of `n`.
fn beyond(n: u64, p_bp: u64) -> u64 {
    n - (p_bp * n).div_ceil(10_000)
}

/// The highest percentile on the ladder p50, p90, p99, p99.9, p99.99 that
/// has at least ten samples beyond it, or `None` when even p50 has fewer.
/// A percentile with fewer samples behind it is one unlucky sample.
pub fn highest_percentile(n: usize) -> Option<f64> {
    LADDER_BP
        .iter()
        .rev()
        .find(|&&p| beyond(n as u64, p) >= 10)
        .map(|&p| p as f64 / 100.0)
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let s = sorted(xs);
    if s.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(99), Some(50.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(999), Some(90.0));
        assert_eq!(highest_percentile(1000), Some(99.0));
        assert_eq!(highest_percentile(1008), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
        assert_eq!(highest_percentile(100_000), Some(99.99));
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 500.0);
        assert_eq!(percentile(&xs, 99.0), 990.0);
        assert_eq!(percentile(&xs, 100.0), 1000.0);
        assert_eq!(percentile(&[4.0], 99.0), 4.0);
    }
}
