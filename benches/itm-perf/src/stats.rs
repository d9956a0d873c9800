//! Order statistics over the samples one run collects.

/// The `q`-quantile of ascending `sorted` samples, interpolating linearly
/// between neighbouring order statistics. `NaN` when there are none.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let r = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = r.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (r - lo as f64)
        }
    }
}

/// Sort a copy of `samples` and take its median.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// An ascending copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// First quartile, median and third quartile of ascending `sorted`, by the
/// method Python's `statistics.quantiles(data, n=4)` uses by default, so
/// calibration spreads read the way the benchmark's acceptance check
/// computes them.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let n = sorted.len();
    if n < 2 {
        return [quantile(sorted, 0.5); 3];
    }
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m - j * 4).min(4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

/// The `q`-quantile of ascending whole-nanosecond samples, read as a
/// grouped distribution: a clock that ticks in whole nanoseconds puts
/// millions of samples on a few values, so the quantile is placed inside
/// the unit interval around the value it falls on, in proportion to its
/// rank among the ties. The result keeps the resolution the rank carries
/// instead of snapping to the tick.
pub fn grouped_quantile(sorted: &[u32], q: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    let rank = q.clamp(0.0, 1.0) * n as f64;
    let at = (rank as usize).min(n - 1);
    let v = sorted[at];
    let lo = sorted.partition_point(|&x| x < v);
    let hi = sorted.partition_point(|&x| x <= v);
    f64::from(v) - 0.5 + (rank - lo as f64) / (hi - lo) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert!((quantile(&v, 0.5) - 2.5).abs() < 1e-12);
        assert!((quantile(&v, 1.0) - 4.0).abs() < 1e-12);
        assert!((median(&[5.0, 1.0, 3.0]) - 3.0).abs() < 1e-12);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let [q1, q2, q3] = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q2 - 5.5).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1..5], n=4) == [1.5, 3.0, 4.5]
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        let [q1, q2, q3] = quartiles(&v);
        assert!((q1 - 1.5).abs() < 1e-12 && (q2 - 3.0).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
    }

    #[test]
    fn grouped_quantile_spreads_ties_over_the_tick() {
        // Half the samples at 10 ns, half at 11 ns: the median sits at the
        // boundary between the two ticks.
        let v = [10, 10, 11, 11];
        assert!((grouped_quantile(&v, 0.5) - 10.5).abs() < 1e-12);
        // All ties: the quantile moves linearly across the tick.
        let v = [7u32; 100];
        assert!((grouped_quantile(&v, 0.25) - 6.75).abs() < 1e-12);
        assert!((grouped_quantile(&v, 0.99) - 7.49).abs() < 1e-12);
    }
}
