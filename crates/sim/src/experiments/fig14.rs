//! Fig. 14 — estimated available vs consumed power over the day: the
//! power-neutrality headline.
//!
//! Available power is estimated exactly as the paper does: an
//! identical, contiguous PV array is held at open circuit; its
//! `Voc(t)` is mapped to `Pmax(t)` through experimentally obtained IV
//! data (here: a calibration sweep of the same solar-cell model).

use crate::scenario;
use crate::supply::Supply;
use crate::SimError;
use pn_analysis::metrics::mean_utilisation;
use pn_analysis::series::TimeSeries;
use pn_harvest::estimator::PowerEstimator;
use pn_units::{Seconds, WattsPerSquareMeter};

/// The regenerated Fig. 14 data.
#[derive(Debug, Clone)]
pub struct Fig14 {
    /// Estimated available harvested power over the window.
    pub available: TimeSeries,
    /// Power consumed by the board.
    pub consumed: TimeSeries,
    /// Time-weighted mean of consumed/available (1.0 = perfect power
    /// neutrality).
    pub utilisation: f64,
    /// Fraction of time consumption exceeded the available estimate
    /// (should be small: the scheme must not overdraw).
    pub overdraw_fraction: f64,
}

/// Regenerates Fig. 14 over the first `duration` of the full-sun day.
///
/// # Errors
///
/// Propagates engine and estimator failures.
pub fn run(seed: u64, duration: Seconds) -> Result<Fig14, SimError> {
    let scenario = scenario::full_sun_day(seed).with_duration(duration);

    // Calibrate the Voc → Pmax estimator from the twin array's model.
    let Supply::Photovoltaic { cell, irradiance } = scenario.supply().clone() else {
        return Err(SimError::InvalidConfig("fig14 needs a PV supply"));
    };
    let mut calibration = Vec::new();
    for k in 1..=20 {
        let g = WattsPerSquareMeter::new(1000.0 * k as f64 / 20.0);
        let voc = cell.open_circuit_voltage(g)?;
        let pmax = cell.max_power_point(g)?.power;
        calibration.push((voc, pmax));
    }
    calibration.dedup_by(|a, b| (a.0 - b.0).abs() < pn_units::Volts::new(1e-6));
    let estimator = PowerEstimator::from_calibration(calibration)?;

    let report = scenario.run_power_neutral()?;
    let consumed = TimeSeries::from(report.recorder().power_out());

    // The twin array logs Voc on the same time base.
    let mut available = TimeSeries::new("available_w");
    for t in consumed.times() {
        let g = irradiance.sample(Seconds::new(*t));
        let voc = cell.open_circuit_voltage(g)?;
        available.push(*t, estimator.estimate(voc).value())?;
    }

    let utilisation = mean_utilisation(&consumed, &available, 0.5)?;
    let mut over = 0.0;
    let mut total = 0.0;
    for i in 1..consumed.len() {
        let dt = consumed.times()[i] - consumed.times()[i - 1];
        total += dt;
        // Count *sustained* overdraw: more than 0.15 W above the MPP
        // estimate (tight tracking flickers across the estimate line,
        // which is power neutrality working, not failing).
        if consumed.values()[i] > available.values()[i] + 0.15 {
            over += dt;
        }
    }
    let overdraw_fraction = if total > 0.0 { over / total } else { 0.0 };
    Ok(Fig14 { available, consumed, utilisation, overdraw_fraction })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig14_consumption_tracks_availability() {
        let fig = run(5, Seconds::from_minutes(10.0)).unwrap();
        // Good use of the harvest without systematic overdraw.
        assert!(
            fig.utilisation > 0.5 && fig.utilisation < 1.15,
            "utilisation {}",
            fig.utilisation
        );
        assert!(fig.overdraw_fraction < 0.35, "overdraw {}", fig.overdraw_fraction);
        // The available estimate is in the paper's 1.5–3.5 W band.
        let peak = fig.available.max().unwrap();
        assert!(peak > 2.0 && peak < 4.5, "peak available {peak}");
    }
}
