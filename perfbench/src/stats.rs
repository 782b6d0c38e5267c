//! Order statistics used for every reported timing.

/// Sorts a copy of `values` ascending (NaN-free input assumed).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between the two closest order statistics (rank `q·(n-1)`), so
/// `percentile(v, 0.5)` is the usual median. `None` for no samples.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    let rank = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

/// The median of `values`; `None` for no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// First and third quartiles with the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so the spread this benchmark prints matches the one its
/// acceptance check computes. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let v = sorted(values);
    let n = 4usize;
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert!(close(percentile(&v, 0.9).unwrap(), 10.0));
        assert!(close(percentile(&v, 0.0).unwrap(), 1.0));
        assert!(close(percentile(&v, 1.0).unwrap(), 11.0));
        // numpy.percentile([1, 2, 3, 4], 90) == 3.7
        assert!(close(percentile(&[4.0, 2.0, 1.0, 3.0], 0.9).unwrap(), 3.7));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!(close(q1, 2.75) && close(q3, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[2.0, 1.0]).unwrap();
        assert!(close(q1, 0.75) && close(q3, 2.25));
        // statistics.quantiles([5, 1, 9, 3, 7], n=4) == [2.0, 5.0, 8.0]
        let (q1, q3) = quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]).unwrap();
        assert!(close(q1, 2.0) && close(q3, 8.0));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
