//! Scalar summary statistics.

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

#[cfg(test)]
mod tests {
    use super::*;

    /// An accumulator over `values`.
    fn aggregate_of(values: impl IntoIterator<Item = f64>) -> Aggregate {
        let mut acc = Aggregate::new();
        for v in values {
            acc.push(v);
        }
        acc
    }

    #[test]
    fn aggregate_tracks_extrema_and_mean() {
        let acc = aggregate_of([3.0, -1.0, 7.0, 1.0]);
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
        let acc = aggregate_of([5.5]);
        assert_eq!(acc.mean(), Some(5.5));
        assert_eq!(acc.min(), acc.max());
    }
}
