//! Time-weighted histograms (Fig. 13's residency-per-voltage plot).

use crate::series::SeriesView;
use crate::AnalysisError;

/// A uniform-bin histogram with weighted accumulation.
///
/// # Examples
///
/// ```
/// use pn_analysis::histogram::Histogram;
/// use pn_analysis::series::SeriesView;
///
/// # fn main() -> Result<(), pn_analysis::AnalysisError> {
/// // Each segment lands at its midpoint value, weighted by its
/// // duration: 1 s at 2.5, 3 s at 2.6 and 1 s at 6.3.
/// let (t, v) = ([0.0, 1.0, 4.0, 5.0], [2.5, 2.5, 2.7, 9.9]);
/// let mut h = Histogram::new(0.0, 10.0, 5)?;
/// h.add_series(SeriesView::new("vc", &t, &v));
/// assert_eq!(h.count(1), 4.0);
/// assert_eq!(h.count(3), 1.0);
/// let (center, fraction) = h.iter().nth(1).unwrap();
/// assert_eq!(center, 3.0);
/// assert!((fraction - 0.8).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<f64>,
    total: f64,
    underflow: f64,
    overflow: f64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` uniform bins.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidParameter`] for `hi <= lo` or
    /// zero bins.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Result<Self, AnalysisError> {
        if hi <= lo {
            return Err(AnalysisError::InvalidParameter("histogram range is empty"));
        }
        if bins == 0 {
            return Err(AnalysisError::InvalidParameter("histogram needs at least one bin"));
        }
        Ok(Self { lo, hi, counts: vec![0.0; bins], total: 0.0, underflow: 0.0, overflow: 0.0 })
    }

    /// Number of bins.
    fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Bin width.
    fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Centre value of bin `idx`.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of range.
    pub fn bin_center(&self, idx: usize) -> f64 {
        assert!(idx < self.counts.len(), "bin index out of range");
        self.lo + (idx as f64 + 0.5) * self.bin_width()
    }

    /// Adds `weight` at `value`; out-of-range values land in the
    /// under/overflow accumulators but still count toward the total.
    fn add(&mut self, value: f64, weight: f64) {
        self.total += weight;
        if value < self.lo {
            self.underflow += weight;
            return;
        }
        if value >= self.hi {
            self.overflow += weight;
            return;
        }
        let idx = ((value - self.lo) / self.bin_width()) as usize;
        let idx = idx.min(self.counts.len() - 1);
        self.counts[idx] += weight;
    }

    /// Accumulates a time series with per-segment time weights (the
    /// value of each segment's midpoint, weighted by its duration).
    pub fn add_series<'a>(&mut self, series: impl Into<SeriesView<'a>>) {
        let series = series.into();
        let times = series.times();
        let values = series.values();
        for i in 1..series.len() {
            let dt = times[i] - times[i - 1];
            let mid = 0.5 * (values[i] + values[i - 1]);
            self.add(mid, dt);
        }
    }

    /// Accumulated weight in bin `idx`.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of range.
    pub fn count(&self, idx: usize) -> f64 {
        self.counts[idx]
    }

    /// Fraction of total weight in bin `idx` (0 when nothing has been
    /// added).
    fn fraction(&self, idx: usize) -> f64 {
        if self.total > 0.0 {
            self.counts[idx] / self.total
        } else {
            0.0
        }
    }

    /// Total accumulated weight, including under/overflow.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Weight below the range.
    pub fn underflow(&self) -> f64 {
        self.underflow
    }

    /// Weight at or above the range's end.
    pub fn overflow(&self) -> f64 {
        self.overflow
    }

    /// Iterates over `(bin_center, fraction)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        (0..self.bins()).map(|i| (self.bin_center(i), self.fraction(i)))
    }

    /// Index of the fullest bin, or `None` when empty.
    pub fn mode(&self) -> Option<usize> {
        if self.total == 0.0 {
            return None;
        }
        self.counts
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("counts are finite"))
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::TimeSeries;
    use proptest::prelude::*;

    #[test]
    fn construction_validation() {
        assert!(Histogram::new(1.0, 1.0, 4).is_err());
        assert!(Histogram::new(0.0, 1.0, 0).is_err());
    }

    #[test]
    fn under_and_overflow() {
        let mut h = Histogram::new(0.0, 1.0, 2).unwrap();
        h.add(-1.0, 1.0);
        h.add(2.0, 2.0);
        h.add(0.5, 3.0);
        assert_eq!(h.underflow(), 1.0);
        assert_eq!(h.overflow(), 2.0);
        assert_eq!(h.total(), 6.0);
        assert_eq!(h.count(1), 3.0);
    }

    #[test]
    fn series_accumulation_weights_by_time() {
        let s = TimeSeries::from_samples(
            "vc",
            vec![0.0, 4.0, 5.0],
            vec![5.0, 5.0, 3.0],
        )
        .unwrap();
        let mut h = Histogram::new(0.0, 10.0, 10).unwrap();
        h.add_series(&s);
        // First segment: 4 s at 5.0 → bin 5; second: 1 s at midpoint 4.0 → bin 4.
        assert_eq!(h.count(5), 4.0);
        assert_eq!(h.count(4), 1.0);
        assert_eq!(h.mode(), Some(5));
    }

    #[test]
    fn bin_centers() {
        let h = Histogram::new(4.0, 6.0, 4).unwrap();
        assert!((h.bin_center(0) - 4.25).abs() < 1e-12);
        assert!((h.bin_center(3) - 5.75).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn fractions_sum_to_at_most_one(
            values in proptest::collection::vec(-2.0f64..12.0, 1..100),
        ) {
            let mut h = Histogram::new(0.0, 10.0, 7).unwrap();
            for v in values {
                h.add(v, 1.0);
            }
            let in_range: f64 = (0..h.bins()).map(|i| h.fraction(i)).sum();
            prop_assert!(in_range <= 1.0 + 1e-9);
            let total_frac = in_range + (h.underflow() + h.overflow()) / h.total();
            prop_assert!((total_frac - 1.0).abs() < 1e-9);
        }
    }
}
