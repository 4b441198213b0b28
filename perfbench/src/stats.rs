//! Order statistics used for every reported number.
//!
//! A tail percentile is only reported when at least [`MIN_BEYOND`]
//! samples lie beyond its rank; with fewer, one outlier would decide it.

/// Samples that must lie strictly beyond a reported percentile's rank.
pub const MIN_BEYOND: usize = 10;

/// Median of `v` (mean of the two middle values for even lengths).
pub fn median(v: &[f64]) -> Option<f64> {
    let s = sorted(v);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The nearest-rank `q`-quantile (`0 < q < 1`), or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(v: &[f64], q: f64) -> Option<f64> {
    let n = v.len();
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || n < rank + MIN_BEYOND {
        return None;
    }
    Some(sorted(v)[rank - 1])
}

/// Fewest samples for which [`percentile`] reports `q`.
pub fn samples_needed(q: f64) -> usize {
    (1..)
        .find(|&n| percentile(&vec![0.0; n], q).is_some())
        .unwrap_or(usize::MAX)
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_its_rank() {
        // p99 of 1000 samples is rank 990: exactly 10 lie beyond it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        // 999 samples: rank 990 leaves only 9 beyond.
        assert_eq!(percentile(&v[..999], 0.99), None);
        assert_eq!(samples_needed(0.99), 1000);
        assert_eq!(samples_needed(0.90), 100);
        assert_eq!(samples_needed(0.50), 20);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        v.reverse();
        assert_eq!(percentile(&v, 0.90), Some(90.0));
        assert_eq!(percentile(&v, 0.50), Some(50.0));
    }
}
