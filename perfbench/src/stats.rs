//! Medians and the percentile rule.
//!
//! A timing is reported as its median and its tail. The tail is a fixed
//! percentile only when the run drew enough samples for it: the rule is
//! "the highest percentile with at least ten samples beyond it"
//! ([`tail_percentile`]), and a run that cannot meet it for the percentile
//! a metric names fails instead of reporting a number that rests on one or
//! two samples.

/// The percentiles the rule chooses among, lowest first.
pub const LADDER: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Samples needed beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    // In hundredths of a percent and integers, so 95% of 200 is rank 190
    // exactly rather than one past a rounding error.
    let bp = (p * 100.0).round() as u128;
    let r = (bp * n as u128).div_ceil(10_000);
    (r as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn beyond(p: f64, n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(p, n)
    }
}

/// The highest percentile of [`LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when not even the median has.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rfind(|&p| beyond(p, n) >= MIN_BEYOND)
}

/// Nearest-rank percentile `p` of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(p, sorted.len()) - 1]
}

/// Median of `v` (sorted in place); the mean of the middle two for an
/// even count. `NaN` when empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median and 99th percentile of a set of timings.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Timing {
    /// Summarises `samples`; `Err` when the percentile rule does not
    /// allow a 99th percentile for this many samples.
    pub fn of(samples: &mut [f64]) -> Result<Self, String> {
        let n = samples.len();
        match tail_percentile(n) {
            Some(p) if p >= 99.0 => {}
            _ => {
                return Err(format!(
                    "{n} samples leave fewer than {MIN_BEYOND} beyond the 99th percentile"
                ))
            }
        }
        samples.sort_by(f64::total_cmp);
        Ok(Self {
            p50: percentile(samples, 50.0),
            p99: percentile(samples, 99.0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert_eq!(tail_percentile(10_000_000), Some(99.99));
    }

    #[test]
    fn every_chosen_tail_has_ten_samples_beyond_it() {
        for n in 1..5_000 {
            if let Some(p) = tail_percentile(n) {
                assert!(beyond(p, n) >= MIN_BEYOND, "n {n} p {p}");
                // And the next rung up would not have.
                if let Some(&next) = LADDER.iter().find(|&&q| q > p) {
                    assert!(beyond(next, n) < MIN_BEYOND, "n {n} next {next}");
                }
            }
        }
    }

    #[test]
    fn a_p99_needs_a_thousand_samples() {
        let mut few: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(Timing::of(&mut few).is_err());
        let mut enough: Vec<f64> = (0..1_000).rev().map(f64::from).collect();
        let t = Timing::of(&mut enough).unwrap();
        assert_eq!(t.p50, 499.0);
        assert_eq!(t.p99, 989.0);
    }

    #[test]
    fn medians() {
        assert!(median(&mut []).is_nan());
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
