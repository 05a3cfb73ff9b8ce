//! Order statistics over raw samples: nearest-rank percentiles with the
//! "ten samples beyond" rule, and the quartiles `--repeat`/`--compare`
//! report (Python's `statistics.quantiles(values, n=4)`).

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` of the samples at or below it. `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond that rank, because such a
/// value is set by a handful of runs of the scheduler, not by the
/// program. The median is exempt: it has half the samples beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&p), "percentile out of range: {p}");
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    if p > 0.5 && sorted.len() - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of unsorted values (mean of the two middle ones when even).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (method `exclusive`) gives them.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = 4usize;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * (m + 1) / n).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_a_sample() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        // p99 of 100 samples has one sample beyond it: refused.
        assert_eq!(percentile(&v, 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[3.0], 0.5), Some(3.0));
    }

    #[test]
    fn ten_beyond_rule_is_exact_at_the_edge() {
        // p90 needs n - ceil(0.9 n) >= 10: true from n = 100, not at 99.
        let v99: Vec<f64> = (1..=99).map(f64::from).collect();
        let v100: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v99, 0.9), None);
        assert_eq!(percentile(&v100, 0.9), Some(90.0));
        // p99 needs 1000 samples.
        let v999: Vec<f64> = (1..=999).map(f64::from).collect();
        let v1000: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v999, 0.99), None);
        assert_eq!(percentile(&v1000, 0.99), Some(990.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(
            quartiles(&[50.0, 10.0, 30.0, 20.0, 40.0]),
            Some([15.0, 30.0, 45.0])
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
