//! Order statistics over timing samples.
//!
//! Percentiles use the nearest-rank definition: the `p`-quantile of `n`
//! sorted samples is the sample at rank `ceil(p * n)`. A percentile is only
//! reported as a tail when at least [`MIN_BEYOND`] samples lie beyond that
//! rank; with fewer samples the tail is the upper quartile, labelled `q3`
//! (the slowest of a handful of samples is mostly noise).

/// Samples that must lie beyond a percentile's rank before it is reported.
const MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count); `None` when
/// empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    let m = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    })
}

/// Nearest-rank rank (1-based) of quantile `p` over `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank `p`-quantile; `None` when empty.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    Some(v[rank(p, v.len()) - 1])
}

/// Number of samples ranked beyond the nearest-rank `p`-quantile.
fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(p, n)
    }
}

/// The tail reported beside a median: `("p90", value)` when at least
/// [`MIN_BEYOND`] samples lie beyond the 90th percentile, otherwise
/// `("q3", upper quartile)`; a single sample is its own tail. `None` when
/// empty.
pub fn tail(xs: &[f64]) -> Option<(&'static str, f64)> {
    match xs {
        [] => None,
        [x] => Some(("q3", *x)),
        _ if beyond(xs.len(), 0.9) >= MIN_BEYOND => percentile(xs, 0.9).map(|v| ("p90", v)),
        _ => quartiles(xs).map(|(_, q3)| ("q3", q3)),
    }
}

/// First and third quartile by the "exclusive" method, the default of
/// Python's `statistics.quantiles(xs, n=4)`. `None` below two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.len() < 2 {
        return None;
    }
    let v = sorted(xs);
    let m = (v.len() + 1) as i64;
    let q = |i: i64| {
        // Python's integer arithmetic: j is clamped to 1..=len-1 and delta
        // recomputed from it, so small samples extrapolate.
        let j = (i * m / 4).clamp(1, v.len() as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// One-line summary of timing samples: median, quartiles, tail and count.
pub fn summary(xs: &[f64], unit: &str) -> String {
    let (Some(m), Some((tail_name, t))) = (median(xs), tail(xs)) else {
        return "no samples".to_string();
    };
    let (q1, q3) = quartiles(xs).unwrap_or((m, m));
    format!(
        "median {m:.4} {unit} (q1 {q1:.4}, q3 {q3:.4}, {tail_name} {t:.4}; n={})",
        xs.len()
    )
}

/// Geometric mean of positive values; `None` when empty or any value is not
/// positive.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
        assert_eq!(percentile(&xs, 0.99), Some(99.0));
        assert_eq!(percentile(&xs, 1.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 0.9), Some(7.0));
        // Rank ceil(0.9 * 11) = 10.
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), Some(10.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_p90() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(tail(&hundred), Some(("p90", 90.0)));
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(beyond(99, 0.9), 9);
        assert_eq!(tail(&ninety_nine), Some(("q3", 75.0)));
        assert_eq!(tail(&[2.0, 5.0, 3.0]), Some(("q3", 5.0)));
        assert_eq!(tail(&[4.0]), Some(("q3", 4.0)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn infinite_samples_sort_last() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        for x in xs.iter_mut().take(11) {
            *x = f64::INFINITY;
        }
        assert_eq!(tail(&xs), Some(("p90", f64::INFINITY)));
        assert!(median(&xs).is_some_and(f64::is_finite));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn geomean_of_ratios() {
        let g = geomean(&[0.5, 2.0]).expect("positive");
        assert!((g - 1.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[]), None);
    }
}
