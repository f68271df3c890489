//! Open-circuit-voltage-based available-power estimation (Fig. 14).
//!
//! The paper estimates the instantaneous *available* harvested power by
//! logging the open-circuit voltage `Voc(t)` of an identical,
//! contiguous PV array and mapping it to `Pmax(t)` through
//! experimentally obtained IV data. [`PowerEstimator`] reproduces that
//! pipeline: it is calibrated with `(Voc, Pmax)` pairs (generated, in
//! this workspace, by sweeping the `pn-circuit` solar model over
//! irradiance) and answers monotone-interpolated power estimates.

use crate::HarvestError;
use pn_units::{Volts, Watts};

/// A `Voc → Pmax` lookup estimator.
///
/// # Examples
///
/// ```
/// use pn_harvest::estimator::PowerEstimator;
/// use pn_units::{Volts, Watts};
///
/// # fn main() -> Result<(), pn_harvest::HarvestError> {
/// let est = PowerEstimator::from_calibration(vec![
///     (Volts::new(5.0), Watts::new(0.5)),
///     (Volts::new(6.0), Watts::new(2.0)),
///     (Volts::new(6.8), Watts::new(5.7)),
/// ])?;
/// let p = est.estimate(Volts::new(6.4));
/// assert!(p.value() > 2.0 && p.value() < 5.7);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PowerEstimator {
    calibration: Vec<(Volts, Watts)>,
}

impl PowerEstimator {
    /// Builds an estimator from `(Voc, Pmax)` calibration pairs sorted
    /// by strictly increasing voltage.
    ///
    /// # Errors
    ///
    /// Returns [`HarvestError::InvalidCalibration`] for fewer than two
    /// pairs, unsorted voltages, or decreasing powers (the physical
    /// `Voc → Pmax` relation is monotone).
    pub fn from_calibration(calibration: Vec<(Volts, Watts)>) -> Result<Self, HarvestError> {
        if calibration.len() < 2 {
            return Err(HarvestError::InvalidCalibration("need at least two points"));
        }
        if calibration.windows(2).any(|w| w[1].0 <= w[0].0) {
            return Err(HarvestError::InvalidCalibration("voltages must strictly increase"));
        }
        if calibration.windows(2).any(|w| w[1].1 < w[0].1) {
            return Err(HarvestError::InvalidCalibration("powers must be non-decreasing"));
        }
        Ok(Self { calibration })
    }

    /// The calibration table.
    pub fn calibration(&self) -> &[(Volts, Watts)] {
        &self.calibration
    }

    /// Estimated maximum available power for an observed open-circuit
    /// voltage (linear interpolation, clamped at the table's ends —
    /// below the first calibration point the estimate falls linearly
    /// to zero, matching a dark array).
    pub fn estimate(&self, voc: Volts) -> Watts {
        let cal = &self.calibration;
        let (v0, p0) = cal[0];
        if voc <= v0 {
            // Fade to zero below the calibrated range.
            if v0.value() <= 0.0 {
                return p0;
            }
            let frac = (voc.value() / v0.value()).clamp(0.0, 1.0);
            return p0 * frac;
        }
        let (v_last, p_last) = cal[cal.len() - 1];
        if voc >= v_last {
            return p_last;
        }
        let idx = cal.partition_point(|(v, _)| *v <= voc);
        let (va, pa) = cal[idx - 1];
        let (vb, pb) = cal[idx];
        let alpha = (voc - va) / (vb - va);
        pa + (pb - pa) * alpha
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn estimator() -> PowerEstimator {
        PowerEstimator::from_calibration(vec![
            (Volts::new(4.0), Watts::new(0.1)),
            (Volts::new(5.5), Watts::new(1.0)),
            (Volts::new(6.3), Watts::new(3.0)),
            (Volts::new(6.8), Watts::new(5.7)),
        ])
        .unwrap()
    }

    #[test]
    fn exact_calibration_points_round_trip() {
        let est = estimator();
        assert_eq!(est.estimate(Volts::new(5.5)), Watts::new(1.0));
        assert_eq!(est.estimate(Volts::new(6.8)), Watts::new(5.7));
    }

    #[test]
    fn clamps_above_range_and_fades_below() {
        let est = estimator();
        assert_eq!(est.estimate(Volts::new(9.0)), Watts::new(5.7));
        // Halfway to the first calibration point: half its power.
        let p = est.estimate(Volts::new(2.0));
        assert!((p.value() - 0.05).abs() < 1e-12);
        assert_eq!(est.estimate(Volts::ZERO), Watts::ZERO);
    }

    #[test]
    fn rejects_bad_calibrations() {
        assert!(PowerEstimator::from_calibration(vec![(Volts::new(5.0), Watts::new(1.0))])
            .is_err());
        assert!(PowerEstimator::from_calibration(vec![
            (Volts::new(5.0), Watts::new(1.0)),
            (Volts::new(4.0), Watts::new(2.0)),
        ])
        .is_err());
        assert!(PowerEstimator::from_calibration(vec![
            (Volts::new(4.0), Watts::new(2.0)),
            (Volts::new(5.0), Watts::new(1.0)),
        ])
        .is_err());
    }

    proptest! {
        #[test]
        fn estimate_is_monotone(v1 in 0.0f64..8.0, dv in 0.001f64..1.0) {
            let est = estimator();
            prop_assert!(est.estimate(Volts::new(v1 + dv)) >= est.estimate(Volts::new(v1)));
        }

        #[test]
        fn estimate_is_bounded_by_calibration(v in 0.0f64..10.0) {
            let est = estimator();
            let p = est.estimate(Volts::new(v));
            prop_assert!(p >= Watts::ZERO);
            prop_assert!(p <= Watts::new(5.7));
        }
    }
}
