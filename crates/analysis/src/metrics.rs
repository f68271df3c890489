//! Band-residency and tracking metrics.

use crate::series::SeriesView;
use crate::AnalysisError;

/// Fraction of (time-weighted) samples of `series` lying within
/// `[target·(1−tolerance), target·(1+tolerance)]` — the paper's
/// "`VC` within ±5 % of the target voltage for 93.3 % of the time"
/// metric (Fig. 12).
///
/// Sub-sample crossings are resolved by linear interpolation, so the
/// result is exact for piecewise-linear signals. (A simulation reports
/// its own residency, resolved on the solver's dense output; this
/// reduction of a sampled trace serves cross-checks.)
///
/// # Errors
///
/// Returns [`AnalysisError::NotEnoughSamples`] for fewer than two
/// samples and [`AnalysisError::InvalidParameter`] for a non-positive
/// target or tolerance.
///
/// # Examples
///
/// ```
/// use pn_analysis::metrics::fraction_within_band;
/// use pn_analysis::series::TimeSeries;
///
/// # fn main() -> Result<(), pn_analysis::AnalysisError> {
/// let s = TimeSeries::from_samples("vc",
///     vec![0.0, 1.0, 2.0, 3.0],
///     vec![5.3, 5.3, 6.0, 6.0])?;
/// // In band for the first second, out for the last; the 1→2 s ramp
/// // leaves the band partway.
/// let frac = fraction_within_band(&s, 5.3, 0.05)?;
/// assert!(frac > 0.3 && frac < 0.6);
/// # Ok(())
/// # }
/// ```
pub fn fraction_within_band<'a>(
    series: impl Into<SeriesView<'a>>,
    target: f64,
    tolerance: f64,
) -> Result<f64, AnalysisError> {
    let series = series.into();
    if !(target > 0.0) {
        return Err(AnalysisError::InvalidParameter("target must be positive"));
    }
    if !(tolerance > 0.0) {
        return Err(AnalysisError::InvalidParameter("tolerance must be positive"));
    }
    if series.len() < 2 {
        return Err(AnalysisError::NotEnoughSamples { needed: 2, available: series.len() });
    }
    let lo = target * (1.0 - tolerance);
    let hi = target * (1.0 + tolerance);
    let times = series.times();
    let values = series.values();
    let mut inside = 0.0;
    for i in 1..series.len() {
        let (t0, v0) = (times[i - 1], values[i - 1]);
        let (t1, v1) = (times[i], values[i]);
        inside += segment_time_within(t0, v0, t1, v1, lo, hi);
    }
    Ok(inside / series.duration())
}

/// Time a linear segment `(t0,v0) → (t1,v1)` spends inside `[lo, hi]`.
fn segment_time_within(t0: f64, v0: f64, t1: f64, v1: f64, lo: f64, hi: f64) -> f64 {
    let dt = t1 - t0;
    if dt <= 0.0 {
        return 0.0;
    }
    if v0 == v1 {
        return if v0 >= lo && v0 <= hi { dt } else { 0.0 };
    }
    // Map the in-band value interval onto the segment's parameter s∈[0,1].
    let s_at = |v: f64| (v - v0) / (v1 - v0);
    let (s_lo, s_hi) = if v1 > v0 { (s_at(lo), s_at(hi)) } else { (s_at(hi), s_at(lo)) };
    let s_enter = s_lo.max(0.0);
    let s_exit = s_hi.min(1.0);
    ((s_exit - s_enter).max(0.0)) * dt
}

/// Trapezoidal integral of `series` over its full span — turning a
/// recorded power trace in watts into energy in joules. The engine
/// accrues a run's energies exactly as it steps; this reduction of a
/// sampled trace serves plots and cross-checks, and is exact only for
/// signals linear between samples.
///
/// # Errors
///
/// Returns [`AnalysisError::NotEnoughSamples`] for fewer than two
/// samples.
///
/// # Examples
///
/// ```
/// use pn_analysis::metrics::time_integral;
/// use pn_analysis::series::TimeSeries;
///
/// # fn main() -> Result<(), pn_analysis::AnalysisError> {
/// // 2 W for 10 s, then 4 W for 10 s: 60 J.
/// let p = TimeSeries::from_samples("p",
///     vec![0.0, 10.0, 10.001, 20.0],
///     vec![2.0, 2.0, 4.0, 4.0])?;
/// assert!((time_integral(&p)? - 60.0).abs() < 0.1);
/// # Ok(())
/// # }
/// ```
pub fn time_integral<'a>(series: impl Into<SeriesView<'a>>) -> Result<f64, AnalysisError> {
    let series = series.into();
    if series.len() < 2 {
        return Err(AnalysisError::NotEnoughSamples { needed: 2, available: series.len() });
    }
    let times = series.times();
    let values = series.values();
    let mut acc = 0.0;
    for i in 1..series.len() {
        acc += 0.5 * (values[i] + values[i - 1]) * (times[i] - times[i - 1]);
    }
    Ok(acc)
}

/// Mean absolute tracking ratio between two series (consumed power vs
/// available power, Fig. 14): the time-weighted mean of
/// `consumed/available` wherever `available > floor`.
///
/// # Errors
///
/// Returns [`AnalysisError::NotEnoughSamples`] when either series has
/// fewer than two samples.
pub fn mean_utilisation<'a, 'b>(
    consumed: impl Into<SeriesView<'a>>,
    available: impl Into<SeriesView<'b>>,
    floor: f64,
) -> Result<f64, AnalysisError> {
    let (consumed, available) = (consumed.into(), available.into());
    if consumed.len() < 2 || available.len() < 2 {
        return Err(AnalysisError::NotEnoughSamples {
            needed: 2,
            available: consumed.len().min(available.len()),
        });
    }
    let mut acc = 0.0;
    let mut weight = 0.0;
    let times = consumed.times();
    for i in 1..consumed.len() {
        let dt = times[i] - times[i - 1];
        let t_mid = 0.5 * (times[i] + times[i - 1]);
        let p_avail = available.sample(t_mid)?;
        if p_avail > floor {
            let p_used = consumed.sample(t_mid)?;
            acc += (p_used / p_avail) * dt;
            weight += dt;
        }
    }
    Ok(if weight > 0.0 { acc / weight } else { 0.0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::TimeSeries;
    use proptest::prelude::*;

    #[test]
    fn fully_inside_band_is_one() {
        let s = TimeSeries::from_samples("x", vec![0.0, 10.0], vec![5.3, 5.3]).unwrap();
        assert_eq!(fraction_within_band(&s, 5.3, 0.05).unwrap(), 1.0);
    }

    #[test]
    fn fully_outside_band_is_zero() {
        let s = TimeSeries::from_samples("x", vec![0.0, 10.0], vec![4.0, 4.0]).unwrap();
        assert_eq!(fraction_within_band(&s, 5.3, 0.05).unwrap(), 0.0);
    }

    #[test]
    fn partial_crossing_is_interpolated() {
        // Ramp from 5.3 to 6.3 over 1 s against a band topping at 5.565.
        let s = TimeSeries::from_samples("x", vec![0.0, 1.0], vec![5.3, 6.3]).unwrap();
        let frac = fraction_within_band(&s, 5.3, 0.05).unwrap();
        assert!((frac - 0.265).abs() < 1e-9, "frac = {frac}");
    }

    #[test]
    fn integral_of_constant_power() {
        let s = TimeSeries::from_samples("p", vec![0.0, 5.0, 12.0], vec![3.0, 3.0, 3.0]).unwrap();
        assert!((time_integral(&s).unwrap() - 36.0).abs() < 1e-12);
    }

    #[test]
    fn integral_of_ramp_is_trapezoid() {
        let s = TimeSeries::from_samples("p", vec![0.0, 2.0], vec![0.0, 4.0]).unwrap();
        assert!((time_integral(&s).unwrap() - 4.0).abs() < 1e-12);
        let short = TimeSeries::from_samples("p", vec![0.0], vec![1.0]).unwrap();
        assert!(time_integral(&short).is_err());
    }

    #[test]
    fn utilisation_of_perfect_tracking_is_one() {
        let avail = TimeSeries::from_samples("a", vec![0.0, 1.0, 2.0], vec![3.0, 2.0, 3.0]).unwrap();
        let used = avail.clone();
        let u = mean_utilisation(&used, &avail, 0.1).unwrap();
        assert!((u - 1.0).abs() < 1e-9);
    }

    #[test]
    fn parameter_validation() {
        let s = TimeSeries::from_samples("x", vec![0.0, 1.0], vec![5.0, 5.0]).unwrap();
        assert!(fraction_within_band(&s, 0.0, 0.05).is_err());
        assert!(fraction_within_band(&s, 5.0, 0.0).is_err());
    }

    proptest! {
        #[test]
        fn fraction_is_a_probability(values in proptest::collection::vec(3.0f64..7.0, 2..40)) {
            let times: Vec<f64> = (0..values.len()).map(|i| i as f64).collect();
            let s = TimeSeries::from_samples("p", times, values).unwrap();
            let f = fraction_within_band(&s, 5.3, 0.05).unwrap();
            prop_assert!((0.0..=1.0 + 1e-12).contains(&f));
        }

        #[test]
        fn tighter_band_never_increases_residency(
            values in proptest::collection::vec(4.5f64..6.0, 2..40),
        ) {
            let times: Vec<f64> = (0..values.len()).map(|i| i as f64).collect();
            let s = TimeSeries::from_samples("p", times, values).unwrap();
            let wide = fraction_within_band(&s, 5.3, 0.10).unwrap();
            let narrow = fraction_within_band(&s, 5.3, 0.05).unwrap();
            prop_assert!(narrow <= wide + 1e-12);
        }
    }
}
