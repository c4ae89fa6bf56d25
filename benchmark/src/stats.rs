//! The benchmark's own statistics: nearest-rank percentiles with the
//! sample-count rule, medians, and the Pearson / Spearman correlations
//! used to calibrate `sim_ms` against wall time.

/// Samples a percentile must leave strictly above it before the
/// benchmark reports it (choosing-metrics: "the highest percentile that
/// has at least ten samples beyond it").
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank index of quantile `q` (0 < q <= 1) in `n` sorted samples.
fn rank_index(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank `q` quantile of `n` samples.
pub fn samples_above(q: f64, n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank_index(q, n)
    }
}

/// Whether `n` samples support reporting quantile `q`: at least
/// [`MIN_TAIL_SAMPLES`] of them lie beyond it. For p95 that is n >= 200.
pub fn supports(q: f64, n: usize) -> bool {
    samples_above(q, n) >= MIN_TAIL_SAMPLES
}

/// Nearest-rank quantile of `samples` (need not be sorted). `None` when
/// empty.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Some(s[rank_index(q, s.len())])
}

/// The middle value (mean of the two middle values for even counts).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// Pearson correlation of paired samples; `None` with fewer than three
/// pairs or when either side is constant.
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    let n = xs.len();
    if n != ys.len() || n < 3 {
        return None;
    }
    let mx = xs.iter().sum::<f64>() / n as f64;
    let my = ys.iter().sum::<f64>() / n as f64;
    let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

/// Ranks with ties sharing their average rank.
fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let mut out = vec![0.0; xs.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = avg;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation (Pearson over tie-averaged ranks).
pub fn spearman(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() {
        return None;
    }
    pearson(&ranks(xs), &ranks(ys))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=200).map(|i| i as f64).collect();
        assert_eq!(quantile(&xs, 0.5), Some(100.0));
        assert_eq!(quantile(&xs, 0.95), Some(190.0));
        assert_eq!(quantile(&xs, 1.0), Some(200.0));
        assert_eq!(quantile(&[7.0], 0.95), Some(7.0));
        assert_eq!(quantile(&[], 0.5), None);
        // Order of input does not matter.
        let mut rev = xs.clone();
        rev.reverse();
        assert_eq!(quantile(&rev, 0.95), Some(190.0));
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        assert_eq!(samples_above(0.95, 200), 10);
        assert!(supports(0.95, 200));
        assert!(!supports(0.95, 199));
        assert_eq!(samples_above(0.95, 199), 9);
        assert!(supports(0.5, 20));
        assert!(!supports(0.5, 19));
        assert_eq!(samples_above(0.5, 0), 0);
        // The rule counts samples strictly above the reported value's rank.
        let xs: Vec<f64> = (1..=200).map(|i| i as f64).collect();
        let p95 = quantile(&xs, 0.95).unwrap();
        assert_eq!(xs.iter().filter(|&&x| x > p95).count(), 10);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn correlations() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [2.0, 4.0, 6.0, 8.0, 10.0];
        assert!((pearson(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = ys.iter().map(|y| -y).collect();
        assert!((pearson(&xs, &neg).unwrap() + 1.0).abs() < 1e-12);
        // Monotone but not linear: Spearman is exactly 1, Pearson is not.
        let cubes: Vec<f64> = xs.iter().map(|x| x * x * x).collect();
        assert!((spearman(&xs, &cubes).unwrap() - 1.0).abs() < 1e-12);
        assert!(pearson(&xs, &cubes).unwrap() < 1.0);
        assert_eq!(pearson(&xs, &[1.0; 5]), None);
        assert_eq!(pearson(&xs[..2], &ys[..2]), None);
        assert_eq!(ranks(&[10.0, 20.0, 10.0]), vec![1.5, 3.0, 1.5]);
    }
}
