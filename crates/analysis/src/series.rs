//! Time series: the central recorded artefact of every experiment.

use crate::AnalysisError;

/// A named, time-ordered series of `f64` samples.
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
/// assert_eq!(vc.len(), 3);
/// assert!((vc.mean()? - 5.28).abs() < 1e-6); // time-weighted trapezoids
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

    /// Creates an empty series with pre-allocated room for `capacity`
    /// samples — recorders that know their window and sampling interval
    /// up front avoid reallocating mid-trace.
    pub fn with_capacity(name: impl Into<String>, capacity: usize) -> Self {
        Self {
            name: name.into(),
            times: Vec::with_capacity(capacity),
            values: Vec::with_capacity(capacity),
        }
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

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
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

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` when the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Iterates over `(t, value)` samples.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.times.iter().copied().zip(self.values.iter().copied())
    }

    /// Sample times.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Sample values.
    pub fn values(&self) -> &[f64] {
        &self.values
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

    /// Resamples onto a uniform grid of `n` points spanning the series.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidParameter`] for `n < 2` and
    /// [`AnalysisError::NotEnoughSamples`] for an empty series.
    pub fn resample(&self, n: usize) -> Result<TimeSeries, AnalysisError> {
        if n < 2 {
            return Err(AnalysisError::InvalidParameter("resample needs n >= 2"));
        }
        let (Some(a), Some(b)) = (self.start(), self.end()) else {
            return Err(AnalysisError::NotEnoughSamples { needed: 1, available: 0 });
        };
        let mut out = TimeSeries::new(self.name.clone());
        for k in 0..n {
            let t = a + (b - a) * k as f64 / (n - 1) as f64;
            let v = self.sample(t)?;
            // Uniform grid times strictly increase by construction.
            out.times.push(t);
            out.values.push(v);
        }
        Ok(out)
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
        let s = ramp();
        assert_eq!(s.sample(0.5).unwrap(), 0.5);
        assert_eq!(s.sample(-1.0).unwrap(), 0.0);
        assert_eq!(s.sample(9.0).unwrap(), 2.0);
    }

    #[test]
    fn integral_and_mean_of_ramp() {
        let s = ramp();
        assert!((s.integrate().unwrap() - 2.0).abs() < 1e-12);
        assert!((s.mean().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn resample_preserves_endpoints() {
        let s = ramp();
        let r = s.resample(5).unwrap();
        assert_eq!(r.len(), 5);
        assert_eq!(r.values()[0], 0.0);
        assert_eq!(*r.values().last().unwrap(), 2.0);
    }

    #[test]
    fn min_max() {
        let s = TimeSeries::from_samples("m", vec![0.0, 1.0, 2.0], vec![3.0, -1.0, 2.0]).unwrap();
        assert_eq!(s.min().unwrap(), -1.0);
        assert_eq!(s.max().unwrap(), 3.0);
    }

    #[test]
    fn degenerate_errors() {
        let empty = TimeSeries::new("e");
        assert!(empty.sample(0.0).is_err());
        assert!(empty.integrate().is_err());
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
            let m = s.mean().unwrap();
            prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
        }

        #[test]
        fn sample_within_value_range(values in proptest::collection::vec(-10.0f64..10.0, 2..20),
                                     query in -5.0f64..25.0) {
            let times: Vec<f64> = (0..values.len()).map(|i| i as f64).collect();
            let s = TimeSeries::from_samples("p", times, values.clone()).unwrap();
            let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let v = s.sample(query).unwrap();
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
    }
}
