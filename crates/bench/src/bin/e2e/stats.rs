//! Order statistics for latency samples and for run-to-run spreads.

/// Tails considered for reporting, highest first.
const TAILS: [f64; 3] = [0.99, 0.95, 0.90];
/// A tail percentile is reported only with this many samples beyond it.
pub const MIN_BEYOND_TAIL: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between order
/// statistics; `NaN` for no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        1 => v[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest of p99/p95/p90 that has at least [`MIN_BEYOND_TAIL`]
/// samples beyond it, as `(q, value)`; `None` when even p90 has fewer.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len() as f64;
    TAILS
        .iter()
        .find(|&&q| n * (1.0 - q) >= MIN_BEYOND_TAIL as f64 - 1e-9)
        .map(|&q| (q, quantile(values, q)))
}

/// Quartiles `(q1, q2, q3)` by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spreads printed here match the ones computed that way. `None` for
/// fewer than two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Inter-quartile range as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    Some((q3 - q1) / q2.abs())
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&ramp(99)), None);
        assert_eq!(tail(&ramp(100)).map(|t| t.0), Some(0.90));
        assert_eq!(tail(&ramp(199)).map(|t| t.0), Some(0.90));
        assert_eq!(tail(&ramp(200)).map(|t| t.0), Some(0.95));
        assert_eq!(tail(&ramp(1000)).map(|t| t.0), Some(0.99));
        let (q, value) = tail(&ramp(100)).unwrap();
        let beyond = ramp(100).iter().filter(|&&x| x > value).count();
        assert!(q == 0.90 && beyond >= MIN_BEYOND_TAIL);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&ten), Some((8.25 - 2.75) / 5.5));
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }
}
