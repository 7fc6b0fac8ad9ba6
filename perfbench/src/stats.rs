//! Order statistics over timing samples.

/// The median of `xs` (mean of the middle pair for even lengths; 0 when
/// empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// The nearest-rank 90th percentile: the smallest sample with at least
/// 90% of samples at or below it. With `n >= 100` samples at least ten
/// lie above it.
pub fn p90(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let rank = (s.len() * 9).div_ceil(10).max(1);
    s[rank - 1]
}

/// Samples strictly above [`p90`].
pub fn above_p90(xs: &[f64]) -> usize {
    let cut = p90(xs);
    xs.iter().filter(|&&x| x > cut).count()
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.5);
        assert_eq!(p90(&xs), 90.0);
        assert_eq!(above_p90(&xs), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(p90(&[]), 0.0);
    }
}
