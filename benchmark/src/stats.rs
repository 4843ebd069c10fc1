//! Order statistics for the sample sets the benchmark reports.

/// Sorted copy of `samples` (NaN-free by construction: every sample is a
/// duration or a ratio of positive counts).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between the two
/// nearest order statistics (the "inclusive" definition: q = 0 is the
/// minimum, q = 1 the maximum). `None` for an empty set.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    let v = sorted(samples);
    let last = v.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// First quartile, median, third quartile as Python's
/// `statistics.quantiles(samples, n=4)` computes them (the "exclusive"
/// method) — the definition the acceptance check uses for run-to-run
/// spread. Needs at least two samples.
pub fn quartiles_exclusive(samples: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(samples);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range over the median: the run-to-run spread of a metric.
pub fn spread(samples: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles_exclusive(samples)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// A timing sample set as it is printed: count, quartiles, p90.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub q1: f64,
    pub p50: f64,
    pub q3: f64,
    pub p90: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Option<Summary> {
        Some(Summary {
            count: samples.len(),
            q1: quantile(samples, 0.25)?,
            p50: quantile(samples, 0.5)?,
            q3: quantile(samples, 0.75)?,
            p90: quantile(samples, 0.9)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_hand_computed() {
        let s = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 0.5), Some(3.0));
        assert_eq!(quantile(&s, 1.0), Some(5.0));
        // pos = 0.9 * 4 = 3.6 → between 4 and 5.
        assert!((quantile(&s, 0.9).unwrap() - 4.6).abs() < 1e-12);
        // pos = 0.25 * 4 = 1.0 → exactly the second order statistic.
        assert_eq!(quantile(&s, 0.25), Some(2.0));
    }

    #[test]
    fn median_of_even_count_is_the_midpoint() {
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&s), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(
            quartiles_exclusive(&[30.0, 10.0, 20.0]),
            Some([10.0, 20.0, 30.0])
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles_exclusive(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles_exclusive(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&s).unwrap() - 1.0).abs() < 1e-12); // (8.25 - 2.75) / 5.5
        assert_eq!(spread(&[5.0, 5.0, 5.0]), Some(0.0));
        assert_eq!(spread(&[0.0, 0.0]), None);
    }

    #[test]
    fn summary_counts_and_orders() {
        let s: Vec<f64> = (0..101).map(f64::from).collect();
        let sum = Summary::of(&s).unwrap();
        assert_eq!(sum.count, 101);
        assert_eq!((sum.q1, sum.p50, sum.q3, sum.p90), (25.0, 50.0, 75.0, 90.0));
    }
}
