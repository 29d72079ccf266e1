//! Order statistics under the benchmark's reporting rule: a timing is
//! reported as its median plus the highest percentile that has at least
//! [`MIN_BEYOND`] samples beyond it.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `values`: the middle sample, or the mean of the two middle
/// samples for an even count. `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A percentile refused because too few samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooFewSamples {
    /// The requested percentile.
    pub pct: u32,
    /// Samples available.
    pub samples: usize,
    /// Samples that would lie beyond the percentile.
    pub beyond: usize,
}

impl std::fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p{} refused: {} of {} samples lie beyond it, {MIN_BEYOND} needed",
            self.pct, self.beyond, self.samples
        )
    }
}

/// Nearest-rank percentile `pct` (1..=99) of `values`: the sample at
/// 1-based rank `ceil(pct·n/100)` in ascending order. Refused unless at
/// least [`MIN_BEYOND`] samples rank above it, so p90 needs n ≥ 100.
pub fn percentile(values: &[f64], pct: u32) -> Result<f64, TooFewSamples> {
    assert!((1..=99).contains(&pct), "percentile {pct} outside 1..=99");
    let n = values.len();
    let rank = (pct as usize * n).div_ceil(100);
    let beyond = n - rank;
    if rank == 0 || beyond < MIN_BEYOND {
        return Err(TooFewSamples {
            pct,
            samples: n,
            beyond,
        });
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p90_is_refused_with_fewer_than_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=99).map(f64::from).collect();
        let err = percentile(&values, 90).unwrap_err();
        assert_eq!(err.beyond, 9);
        assert_eq!(err.samples, 99);
        assert!(err.to_string().contains("p90 refused"));

        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 90), Ok(90.0));
        let values: Vec<f64> = (1..=105).rev().map(f64::from).collect();
        assert_eq!(percentile(&values, 90), Ok(95.0));
    }

    #[test]
    fn p50_needs_twenty_samples() {
        let values: Vec<f64> = (1..=19).map(f64::from).collect();
        assert!(percentile(&values, 50).is_err());
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&values, 50), Ok(10.0));
        assert!(percentile(&[], 50).is_err());
    }
}
