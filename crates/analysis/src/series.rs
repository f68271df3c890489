//! Time series: the central recorded artefact of every experiment.
//!
//! Two types share one set of read operations:
//!
//! * [`SeriesView`] borrows a name, a time column and a value column.
//!   It is `Copy`, so a store that keeps one time column for many
//!   quantities (the simulator's recorder) hands out a view per
//!   quantity without copying the shared column. Every read-only
//!   operation — length, iteration, span, interpolation, integral,
//!   mean, extrema, resampling — is implemented once, here.
//! * [`TimeSeries`] owns its name and both columns and grows by
//!   [`TimeSeries::push`]. It is read through its view,
//!   [`TimeSeries::as_series`].
//!
//! The metric, summary, histogram and chart functions take
//! `impl Into<SeriesView>`, so they accept a `&TimeSeries` and a view
//! alike. [`TimeSeries::from`] makes an owned copy of a view.

use crate::AnalysisError;

/// A borrowed, time-ordered series: a name plus parallel time and
/// value columns.
///
/// Slices returned by [`SeriesView::times`] and [`SeriesView::values`]
/// borrow the underlying columns, not the view, so they outlive a
/// temporary view.
///
/// # Examples
///
/// ```
/// use pn_analysis::series::SeriesView;
///
/// # fn main() -> Result<(), pn_analysis::AnalysisError> {
/// let times = [0.0, 1.0, 2.0];
/// let vc = SeriesView::new("vc", &times, &[5.3, 5.25, 5.32]);
/// let power = SeriesView::new("power", &times, &[4.0, 4.0, 4.0]);
/// assert_eq!(vc.times(), power.times());
/// assert!((power.integrate()? - 8.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesView<'a> {
    name: &'a str,
    times: &'a [f64],
    values: &'a [f64],
}

impl<'a> SeriesView<'a> {
    /// Views parallel sample columns under `name`. `times` must
    /// strictly increase, as [`TimeSeries::from_samples`] requires;
    /// debug builds check it.
    ///
    /// # Panics
    ///
    /// Panics when the columns differ in length.
    pub fn new(name: &'a str, times: &'a [f64], values: &'a [f64]) -> Self {
        assert_eq!(times.len(), values.len(), "series columns differ in length");
        debug_assert!(
            !times.windows(2).any(|w| w[1] <= w[0]),
            "series times must strictly increase"
        );
        Self { name, times, values }
    }

    /// The series name.
    pub fn name(&self) -> &'a str {
        self.name
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` when the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Iterates over `(t, value)` samples.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + 'a {
        self.times.iter().copied().zip(self.values.iter().copied())
    }

    /// Sample times.
    pub fn times(&self) -> &'a [f64] {
        self.times
    }

    /// Sample values.
    pub fn values(&self) -> &'a [f64] {
        self.values
    }

    /// First sample time.
    pub fn start(&self) -> Option<f64> {
        self.times.first().copied()
    }

    /// Last sample time.
    pub fn end(&self) -> Option<f64> {
        self.times.last().copied()
    }

    /// Duration between the first and last sample.
    pub fn duration(&self) -> f64 {
        match (self.start(), self.end()) {
            (Some(a), Some(b)) => b - a,
            _ => 0.0,
        }
    }

    /// Linear interpolation at `t`, clamped to the end samples.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::NotEnoughSamples`] for an empty series.
    pub fn sample(&self, t: f64) -> Result<f64, AnalysisError> {
        if self.times.is_empty() {
            return Err(AnalysisError::NotEnoughSamples { needed: 1, available: 0 });
        }
        if t <= self.times[0] {
            return Ok(self.values[0]);
        }
        let last = self.times.len() - 1;
        if t >= self.times[last] {
            return Ok(self.values[last]);
        }
        let idx = self.times.partition_point(|x| *x <= t);
        let (t0, v0) = (self.times[idx - 1], self.values[idx - 1]);
        let (t1, v1) = (self.times[idx], self.values[idx]);
        Ok(v0 + (v1 - v0) * (t - t0) / (t1 - t0))
    }

    /// Trapezoidal integral over the whole series (`∫ value · dt`).
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::NotEnoughSamples`] for fewer than two
    /// samples.
    pub fn integrate(&self) -> Result<f64, AnalysisError> {
        if self.len() < 2 {
            return Err(AnalysisError::NotEnoughSamples { needed: 2, available: self.len() });
        }
        let mut area = 0.0;
        for i in 1..self.len() {
            let dt = self.times[i] - self.times[i - 1];
            area += 0.5 * (self.values[i] + self.values[i - 1]) * dt;
        }
        Ok(area)
    }

    /// Time-weighted mean value.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::NotEnoughSamples`] for fewer than two
    /// samples.
    pub fn mean(&self) -> Result<f64, AnalysisError> {
        Ok(self.integrate()? / self.duration())
    }

    /// Minimum value.
    pub fn min(&self) -> Option<f64> {
        self.values.iter().copied().fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.min(v))))
    }

    /// Maximum value.
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }
}

/// A named, time-ordered series of `f64` samples that owns its columns.
///
/// # Examples
///
/// ```
/// use pn_analysis::series::TimeSeries;
///
/// # fn main() -> Result<(), pn_analysis::AnalysisError> {
/// let mut vc = TimeSeries::new("vc");
/// vc.push(0.0, 5.3)?;
/// vc.push(1.0, 5.25)?;
/// vc.push(2.0, 5.32)?;
/// assert_eq!(vc.as_series().len(), 3);
/// assert!((vc.as_series().mean()? - 5.28).abs() < 1e-6); // time-weighted trapezoids
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    name: String,
    times: Vec<f64>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), times: Vec::new(), values: Vec::new() }
    }

    /// Creates a series from parallel sample vectors.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::UnsortedSamples`] for non-increasing
    /// times and [`AnalysisError::InvalidParameter`] for mismatched
    /// lengths.
    pub fn from_samples(
        name: impl Into<String>,
        times: Vec<f64>,
        values: Vec<f64>,
    ) -> Result<Self, AnalysisError> {
        if times.len() != values.len() {
            return Err(AnalysisError::InvalidParameter("times and values differ in length"));
        }
        if times.windows(2).any(|w| w[1] <= w[0]) {
            return Err(AnalysisError::UnsortedSamples);
        }
        Ok(Self { name: name.into(), times, values })
    }

    /// Appends a sample.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::UnsortedSamples`] when `t` does not
    /// strictly follow the last sample.
    pub fn push(&mut self, t: f64, value: f64) -> Result<(), AnalysisError> {
        if let Some(last) = self.times.last() {
            if t <= *last {
                return Err(AnalysisError::UnsortedSamples);
            }
        }
        self.times.push(t);
        self.values.push(value);
        Ok(())
    }

    /// A borrowed view of this series.
    pub fn as_series(&self) -> SeriesView<'_> {
        // `push` and `from_samples` keep the columns parallel and sorted.
        SeriesView { name: &self.name, times: &self.times, values: &self.values }
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl<'a> From<&'a TimeSeries> for SeriesView<'a> {
    fn from(series: &'a TimeSeries) -> Self {
        series.as_series()
    }
}

impl From<SeriesView<'_>> for TimeSeries {
    /// An owned copy of the view's name and columns.
    fn from(view: SeriesView<'_>) -> Self {
        Self {
            name: view.name.to_string(),
            times: view.times.to_vec(),
            values: view.values.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ramp() -> TimeSeries {
        TimeSeries::from_samples("ramp", vec![0.0, 1.0, 2.0], vec![0.0, 1.0, 2.0]).unwrap()
    }

    #[test]
    fn push_enforces_order() {
        let mut s = TimeSeries::new("x");
        s.push(0.0, 1.0).unwrap();
        assert!(matches!(s.push(0.0, 2.0), Err(AnalysisError::UnsortedSamples)));
        assert!(s.push(0.5, 2.0).is_ok());
    }

    #[test]
    fn interpolation() {
        let ramp = ramp();
        let s = ramp.as_series();
        assert_eq!(s.sample(0.5).unwrap(), 0.5);
        assert_eq!(s.sample(-1.0).unwrap(), 0.0);
        assert_eq!(s.sample(9.0).unwrap(), 2.0);
    }

    #[test]
    fn integral_and_mean_of_ramp() {
        let ramp = ramp();
        let s = ramp.as_series();
        assert!((s.integrate().unwrap() - 2.0).abs() < 1e-12);
        assert!((s.mean().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn min_max() {
        let s = TimeSeries::from_samples("m", vec![0.0, 1.0, 2.0], vec![3.0, -1.0, 2.0]).unwrap();
        assert_eq!(s.as_series().min().unwrap(), -1.0);
        assert_eq!(s.as_series().max().unwrap(), 3.0);
    }

    #[test]
    fn degenerate_errors() {
        let empty = TimeSeries::new("e");
        assert!(empty.as_series().sample(0.0).is_err());
        assert!(empty.as_series().integrate().is_err());
        assert!(TimeSeries::from_samples("bad", vec![0.0, 0.0], vec![1.0, 2.0]).is_err());
        assert!(TimeSeries::from_samples("bad", vec![0.0], vec![1.0, 2.0]).is_err());
    }

    proptest! {
        #[test]
        fn mean_is_bounded(values in proptest::collection::vec(-100.0f64..100.0, 2..50)) {
            let times: Vec<f64> = (0..values.len()).map(|i| i as f64).collect();
            let s = TimeSeries::from_samples("p", times, values.clone()).unwrap();
            let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let m = s.as_series().mean().unwrap();
            prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
        }

        #[test]
        fn sample_within_value_range(values in proptest::collection::vec(-10.0f64..10.0, 2..20),
                                     query in -5.0f64..25.0) {
            let times: Vec<f64> = (0..values.len()).map(|i| i as f64).collect();
            let s = TimeSeries::from_samples("p", times, values.clone()).unwrap();
            let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let v = s.as_series().sample(query).unwrap();
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
    }
}
