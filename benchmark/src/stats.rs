//! The arithmetic every reported number goes through: percentiles of
//! pooled samples, the slow-pass trim, and the spread statistics the
//! calibration prints.

/// The `p`-th percentile (0–100) of `sorted`, linearly interpolated between
/// the two neighbouring order statistics. Interpolating matters here: the
/// samples are integer nanoseconds, and without it two runs of the same code
/// can only ever disagree by whole sample steps.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Sort `values` and read one percentile.
pub fn percentile_of(values: &mut [f64], p: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, p)
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    percentile_of(&mut v, 50.0)
}

/// How many of `passes` measured passes are dropped as interference: the
/// slower half, rounded down, and never so many that fewer than two stay.
///
/// Half, not the three in ten first planned. Interference on this kind of
/// host only ever *slows* a pass, and it comes in stretches of seconds:
/// identical passes of one run differ by 10–50 % (`harness.pass_spread`),
/// and whole runs had a third of their passes in a slow stretch. The faster
/// half is the part of a run that two runs of one commit agree on.
pub fn dropped_passes(passes: usize) -> usize {
    (passes / 2).min(passes.saturating_sub(2))
}

/// Indices of the passes that stay after the `dropped_passes` slowest (by
/// `cost`, e.g. wall time) are removed, in their original order.
pub fn kept_passes(cost: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..cost.len()).collect();
    order.sort_by(|&a, &b| cost[a].total_cmp(&cost[b]).then(a.cmp(&b)));
    order.truncate(cost.len() - dropped_passes(cost.len()));
    order.sort_unstable();
    order
}

/// Pool the samples of the kept passes into one sorted vector.
pub fn pool_kept(per_pass: &[&[f64]], kept: &[usize]) -> Vec<f64> {
    let mut pooled: Vec<f64> = kept
        .iter()
        .flat_map(|&i| per_pass[i].iter().copied())
        .collect();
    pooled.sort_by(f64::total_cmp);
    pooled
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them (the
/// exclusive method), so the spread printed here is the one the acceptance
/// check computes.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

/// Inter-quartile range as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The worst disagreement between the medians of two halves of `values`,
/// over every way of splitting them into two equal sets, as a share of the
/// smaller median. This is "two sets of runs of the same code": a bound
/// below this number would reject the benchmark against itself.
pub fn worst_split_disagreement(values: &[f64]) -> f64 {
    let n = values.len();
    let half = n / 2;
    if half == 0 {
        return 0.0;
    }
    let mut worst = 0.0f64;
    // Every subset of size `half` that contains element 0 — each unordered
    // split exactly once.
    for mask in 0u32..(1 << n) {
        if mask & 1 == 0 || mask.count_ones() as usize != half {
            continue;
        }
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for (i, &v) in values.iter().enumerate() {
            if mask & (1 << i) != 0 {
                a.push(v);
            } else if b.len() < half {
                b.push(v);
            }
        }
        let (ma, mb) = (median(&a), median(&b));
        let base = ma.abs().min(mb.abs());
        if base > 0.0 {
            worst = worst.max((ma - mb).abs() / base);
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 50.0), 30.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
        assert!((percentile(&v, 90.0) - 46.0).abs() < 1e-9);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn trim_drops_the_slower_half_and_keeps_order() {
        assert_eq!(dropped_passes(10), 5);
        assert_eq!(dropped_passes(7), 3);
        assert_eq!(dropped_passes(3), 1);
        assert_eq!(dropped_passes(2), 0);
        assert_eq!(dropped_passes(1), 0);
        let wall = [1.0, 9.0, 1.1, 1.2, 8.0, 1.3, 1.4, 7.0, 1.5, 1.6];
        assert_eq!(kept_passes(&wall), vec![0, 2, 3, 5, 6]);
        // Ties break towards keeping the earlier pass, deterministically.
        assert_eq!(kept_passes(&[1.0; 10]), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn pooling_uses_only_kept_passes() {
        let per_pass: [&[f64]; 3] = [&[3.0, 1.0], &[100.0, 200.0], &[2.0]];
        assert_eq!(pool_kept(&per_pass, &[0, 2]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn split_disagreement_finds_the_worst_half_and_half() {
        // Worst split of six: {1,1,1} against {2,2,2}.
        let v = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0];
        assert!((worst_split_disagreement(&v) - 1.0).abs() < 1e-12);
        assert_eq!(worst_split_disagreement(&[5.0; 6]), 0.0);
    }
}
