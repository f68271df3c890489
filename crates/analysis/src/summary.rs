//! Scalar summary statistics.

use crate::series::SeriesView;
use crate::AnalysisError;

/// Streaming accumulator over scalar observations: count, sum, mean
/// and extrema without storing the samples.
///
/// Campaign reports aggregate hundreds of per-cell metrics (stability,
/// instructions, energy) per group; this is the shared reducer.
///
/// # Examples
///
/// ```
/// use pn_analysis::summary::Aggregate;
///
/// let mut acc = Aggregate::new();
/// for x in [2.0, 4.0, 9.0] {
///     acc.push(x);
/// }
/// assert_eq!(acc.count(), 3);
/// assert_eq!(acc.mean(), Some(5.0));
/// assert_eq!(acc.min(), Some(2.0));
/// assert_eq!(acc.max(), Some(9.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Aggregate {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Aggregate {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds an accumulator from an iterator of observations.
    pub fn of(values: impl IntoIterator<Item = f64>) -> Self {
        let mut acc = Self::new();
        for v in values {
            acc.push(v);
        }
        acc
    }

    /// Reassembles an accumulator from its raw statistics — the
    /// decoding half of persisted campaign summaries. A zero `count`
    /// yields the empty accumulator regardless of the other fields, so
    /// `from_parts(count, sum, min?, max?)` round-trips every
    /// accumulator this crate can produce bitwise.
    pub fn from_parts(count: u64, sum: f64, min: f64, max: f64) -> Self {
        if count == 0 {
            return Self::default();
        }
        Self { count, sum, min, max }
    }

    /// Adds one observation.
    pub fn push(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.sum += value;
        self.count += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Smallest observation, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

/// Five-number-plus summary of a series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Time-weighted mean.
    pub mean: f64,
    /// Minimum sample value.
    pub min: f64,
    /// Maximum sample value.
    pub max: f64,
    /// Standard deviation (time-weighted, around the mean).
    pub std_dev: f64,
    /// Series duration.
    pub duration: f64,
}

impl Summary {
    /// Summarises a series.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::NotEnoughSamples`] for fewer than two
    /// samples.
    ///
    /// # Examples
    ///
    /// ```
    /// use pn_analysis::series::TimeSeries;
    /// use pn_analysis::summary::Summary;
    ///
    /// # fn main() -> Result<(), pn_analysis::AnalysisError> {
    /// let s = TimeSeries::from_samples("x", vec![0.0, 1.0, 2.0], vec![1.0, 3.0, 1.0])?;
    /// let sum = Summary::of(&s)?;
    /// assert_eq!(sum.min, 1.0);
    /// assert_eq!(sum.max, 3.0);
    /// assert!((sum.mean - 2.0).abs() < 1e-12);
    /// # Ok(())
    /// # }
    /// ```
    pub fn of<'a>(series: impl Into<SeriesView<'a>>) -> Result<Self, AnalysisError> {
        let series = series.into();
        let mean = series.mean()?;
        let times = series.times();
        let values = series.values();
        // Time-weighted variance via per-segment exact integration of
        // the squared linear deviation.
        let mut acc = 0.0;
        for i in 1..series.len() {
            let dt = times[i] - times[i - 1];
            let e0 = values[i - 1] - mean;
            let e1 = values[i] - mean;
            acc += dt * (e0 * e0 + e0 * e1 + e1 * e1) / 3.0;
        }
        let variance = acc / series.duration();
        Ok(Self {
            mean,
            min: series.min().expect("non-empty"),
            max: series.max().expect("non-empty"),
            std_dev: variance.max(0.0).sqrt(),
            duration: series.duration(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::TimeSeries;

    #[test]
    fn constant_series_has_zero_deviation() {
        let s = TimeSeries::from_samples("c", vec![0.0, 5.0], vec![2.0, 2.0]).unwrap();
        let sum = Summary::of(&s).unwrap();
        assert_eq!(sum.std_dev, 0.0);
        assert_eq!(sum.mean, 2.0);
        assert_eq!(sum.duration, 5.0);
    }

    #[test]
    fn symmetric_triangle() {
        let s =
            TimeSeries::from_samples("t", vec![0.0, 1.0, 2.0], vec![0.0, 1.0, 0.0]).unwrap();
        let sum = Summary::of(&s).unwrap();
        assert!((sum.mean - 0.5).abs() < 1e-12);
        // Var of a symmetric triangle ramp: ∫(x-0.5)² over the two ramps = 1/12.
        assert!((sum.std_dev - (1.0f64 / 12.0).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn too_few_samples() {
        let s = TimeSeries::from_samples("x", vec![0.0], vec![1.0]).unwrap();
        assert!(Summary::of(&s).is_err());
    }

    #[test]
    fn aggregate_tracks_extrema_and_mean() {
        let acc = Aggregate::of([3.0, -1.0, 7.0, 1.0]);
        assert_eq!(acc.count(), 4);
        assert_eq!(acc.sum(), 10.0);
        assert_eq!(acc.mean(), Some(2.5));
        assert_eq!(acc.min(), Some(-1.0));
        assert_eq!(acc.max(), Some(7.0));
    }

    #[test]
    fn empty_aggregate_has_no_statistics() {
        let acc = Aggregate::new();
        assert_eq!(acc.count(), 0);
        assert_eq!(acc.mean(), None);
        assert_eq!(acc.min(), None);
        assert_eq!(acc.max(), None);
        assert_eq!(acc.sum(), 0.0);
    }

    #[test]
    fn single_observation_is_its_own_extrema() {
        let acc = Aggregate::of([5.5]);
        assert_eq!(acc.mean(), Some(5.5));
        assert_eq!(acc.min(), acc.max());
    }

    #[test]
    fn from_parts_round_trips_any_accumulator() {
        let acc = Aggregate::of([3.0, -1.0, 7.0]);
        let rebuilt = Aggregate::from_parts(
            acc.count(),
            acc.sum(),
            acc.min().unwrap(),
            acc.max().unwrap(),
        );
        assert_eq!(rebuilt, acc);
        // A zero count ignores the scalar fields entirely.
        assert_eq!(Aggregate::from_parts(0, 99.0, 1.0, 2.0), Aggregate::new());
    }
}
