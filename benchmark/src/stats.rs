//! Order statistics over the benchmark's samples.

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median; the mean of the two middle samples when the count is even.
///
/// # Panics
///
/// Panics on an empty slice — every caller measured at least once.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    assert!(!s.is_empty(), "median of no samples");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Sums of the middle half of `pairs`, ordered by `a / b`: the quarter with
/// the lowest ratios and the quarter with the highest are left out. The
/// host's interference comes in stretches of several seconds that slow some
/// units by up to half; a plain total would carry every one of them.
pub fn middle_half_sums(pairs: &[(f64, f64)]) -> (f64, f64) {
    let mut s = pairs.to_vec();
    s.sort_by(|x, y| (x.0 / x.1).total_cmp(&(y.0 / y.1)));
    let cut = s.len() / 4;
    s[cut..s.len() - cut]
        .iter()
        .fold((0.0, 0.0), |(a, b), p| (a + p.0, b + p.1))
}

/// The sample with exactly ten slower samples — the highest percentile a
/// run's sample count supports. Below 21 samples that rank is not above the
/// median, so the slowest sample stands in.
pub fn tail(v: &[f64]) -> f64 {
    let s = sorted(v);
    if s.len() > 20 {
        s[s.len() - 11]
    } else {
        s[s.len() - 1]
    }
}

fn ranks(v: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..v.len()).collect();
    order.sort_by(|&a, &b| v[a].total_cmp(&v[b]));
    let mut r = vec![0.0; v.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && v[order[j + 1]] == v[order[i]] {
            j += 1;
        }
        // Ties share the mean of the ranks they span.
        for &k in &order[i..=j] {
            r[k] = (i + j) as f64 / 2.0;
        }
        i = j + 1;
    }
    r
}

/// Spearman rank correlation of two equally long series.
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let (ra, rb) = (ranks(a), ranks(b));
    let n = a.len() as f64;
    let (ma, mb) = (ra.iter().sum::<f64>() / n, rb.iter().sum::<f64>() / n);
    let cov: f64 = ra.iter().zip(&rb).map(|(x, y)| (x - ma) * (y - mb)).sum();
    let va: f64 = ra.iter().map(|x| (x - ma).powi(2)).sum();
    let vb: f64 = rb.iter().map(|y| (y - mb).powi(2)).sum();
    cov / (va * vb).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail_pick_the_documented_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (0..30).map(f64::from).collect();
        assert_eq!(tail(&v), 19.0, "ten samples (20..=29) are slower");
        assert_eq!(tail(&v[..20]), 19.0, "too few samples: the slowest");
    }

    #[test]
    fn middle_half_ignores_the_extremes() {
        // Ratios 1, 2, 3, 4, 100, 0.01, 2.5, 2.6: the middle four are 2..3.
        let pairs = [
            (1.0, 1.0),
            (2.0, 1.0),
            (3.0, 1.0),
            (4.0, 1.0),
            (100.0, 1.0),
            (0.01, 1.0),
            (2.5, 1.0),
            (2.6, 1.0),
        ];
        assert_eq!(middle_half_sums(&pairs), (2.0 + 2.5 + 2.6 + 3.0, 4.0));
        assert_eq!(middle_half_sums(&[(6.0, 2.0)]), (6.0, 2.0));
    }

    #[test]
    fn spearman_sees_monotone_agreement() {
        assert!((spearman(&[1.0, 2.0, 3.0, 4.0], &[10.0, 20.0, 25.0, 99.0]) - 1.0).abs() < 1e-12);
        assert!((spearman(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
    }
}
