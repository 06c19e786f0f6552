//! Order statistics for latency samples and for repeated runs.

/// Fewest samples that must lie beyond a reported percentile.
const MIN_BEYOND: usize = 10;

/// The percentiles a latency report may quote, ascending.
const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond percentile `p`.
fn supports(n: usize, p: f64) -> bool {
    n as f64 * (100.0 - p) / 100.0 + 1e-9 >= MIN_BEYOND as f64
}

/// The highest percentile of [`LADDER`] that `n` samples support, if any.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.iter().copied().rfind(|&p| supports(n, p))
}

/// Sort a copy of the samples ascending.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Percentile `p` of the samples, refused when fewer than ten samples would
/// lie beyond it (p95 needs 200 samples): a tail read off too few samples is
/// a harness error, not a number.
pub fn checked_percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    if !supports(samples.len(), p) {
        return Err(format!(
            "p{p} needs {} samples, the window produced {}",
            (MIN_BEYOND as f64 * 100.0 / (100.0 - p)).ceil(),
            samples.len()
        ));
    }
    Ok(percentile(&sorted(samples), p))
}

/// The median (mean of the two middle samples on even counts); 0 for none.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method); needs two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median.
pub fn spread(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(samples)?;
    let m = median(samples);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_percentile_leaves_ten_samples_beyond() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(199), Some(90.0));
        assert_eq!(highest_supported(200), Some(95.0));
        assert_eq!(highest_supported(999), Some(95.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
    }

    #[test]
    fn p95_is_refused_under_200_samples() {
        let few: Vec<f64> = (0..199).map(f64::from).collect();
        assert!(checked_percentile(&few, 95.0).is_err());
        let enough: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(checked_percentile(&enough, 95.0), Ok(190.0));
        assert_eq!(checked_percentile(&enough, 50.0), Ok(100.0));
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        assert_eq!(spread(&v), Some(1.0));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
    }
}
