//! Order statistics over a handful of rep timings.

/// Median of `values` (mean of the middle pair for an even count).
/// Panics on an empty slice: every caller has at least one rep.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` by linear interpolation between order statistics
/// at `(n - 1) · p` — the "inclusive" method, which returns the sample
/// itself for a single value and never leaves the observed range.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |p: f64| {
        let pos = (v.len() - 1) as f64 * p;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_interpolate_inside_the_observed_range() {
        let (q1, m, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((q1, m, q3), (2.0, 3.0, 4.0));
        let (q1, m, q3) = quartiles(&[10.0, 20.0]);
        assert_eq!((q1, m, q3), (12.5, 15.0, 17.5));
        let (q1, _, q3) = quartiles(&[7.0]);
        assert_eq!((q1, q3), (7.0, 7.0));
    }
}
