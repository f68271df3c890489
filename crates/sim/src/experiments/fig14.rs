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
    /// Fraction of the window's 1 s bins whose mean consumed power
    /// exceeds their mean available power by more than 0.15 W (should
    /// be small: the scheme must not overdraw).
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
    for t in consumed.as_series().times() {
        let g = irradiance.sample(Seconds::new(*t));
        let voc = cell.open_circuit_voltage(g)?;
        available.push(*t, estimator.estimate(voc).value())?;
    }

    let utilisation = mean_utilisation(&consumed, &available, 0.5)?;
    let (used, avail) = (consumed.as_series(), available.as_series());
    let overdraw_fraction = overdraw_fraction(used.times(), used.values(), avail.values());
    Ok(Fig14 { available, consumed, utilisation, overdraw_fraction })
}

/// Width of one overdraw bin, in seconds.
const BIN_S: f64 = 1.0;

/// How far a bin's mean consumption may exceed its mean available
/// power before the bin counts as overdrawn, in watts.
const OVERDRAW_MARGIN_W: f64 = 0.15;

/// Fraction of [`BIN_S`] bins in which consumption overdraws the
/// harvest.
///
/// Power neutrality is a claim about energy over time: instantaneous
/// power dithers between the two OPPs that bracket the MPP, which is
/// the scheme working, not failing. So both series are integrated
/// (trapezoid rule on their shared time base) over consecutive bins
/// from the first sample, cutting recorder intervals exactly at bin
/// edges, and a bin is overdrawn when its mean consumed power exceeds
/// its mean available power by more than [`OVERDRAW_MARGIN_W`]. A
/// trailing partial bin is averaged over its own width.
fn overdraw_fraction(times: &[f64], consumed: &[f64], available: &[f64]) -> f64 {
    let (Some(&t0), Some(&t_end)) = (times.first(), times.last()) else {
        return 0.0;
    };
    let (mut bins, mut over) = (0usize, 0usize);
    let mut close_bin = |excess_j: f64, width: f64| {
        bins += 1;
        if excess_j > OVERDRAW_MARGIN_W * width {
            over += 1;
        }
    };
    // Consumed minus available energy accumulated in the open bin, and
    // the index of the edge that closes it.
    let mut excess_j = 0.0;
    let mut bin = 1.0;
    for i in 1..times.len() {
        let (mut ta, mut pa) = (times[i - 1], consumed[i - 1] - available[i - 1]);
        let (tb, pb) = (times[i], consumed[i] - available[i]);
        loop {
            let edge = t0 + bin * BIN_S;
            if edge > tb {
                break;
            }
            let pe = pa + (pb - pa) * (edge - ta) / (tb - ta);
            excess_j += 0.5 * (pa + pe) * (edge - ta);
            close_bin(excess_j, BIN_S);
            excess_j = 0.0;
            (ta, pa) = (edge, pe);
            bin += 1.0;
        }
        excess_j += 0.5 * (pa + pb) * (tb - ta);
    }
    let tail = t_end - (t0 + (bin - 1.0) * BIN_S);
    if tail > 0.0 {
        close_bin(excess_j, tail);
    }
    if bins > 0 {
        over as f64 / bins as f64
    } else {
        0.0
    }
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
        assert!(fig.overdraw_fraction < 0.02, "overdraw {}", fig.overdraw_fraction);
        // The available estimate is in the paper's 1.5–3.5 W band.
        let peak = fig.available.as_series().max().unwrap();
        assert!(peak > 2.0 && peak < 4.5, "peak available {peak}");
    }

    #[test]
    fn overdraw_is_judged_on_binned_energy() {
        // Dithering ±0.3 W around the estimate every 0.25 s averages
        // out within each bin.
        let times: Vec<f64> = (0..=16).map(|k| 0.25 * k as f64).collect();
        let dither: Vec<f64> = (0..=16).map(|k| if k % 2 == 0 { 2.3 } else { 1.7 }).collect();
        assert_eq!(overdraw_fraction(&times, &dither, &[2.0; 17]), 0.0);
        // One interval ramping 0 → 0.4 W above the estimate is cut at
        // t = 1 s: the first bin's mean excess is 0.1 W, the second's
        // 0.3 W.
        assert_eq!(overdraw_fraction(&[0.0, 2.0], &[2.0, 2.4], &[2.0, 2.0]), 0.5);
        // A trailing partial bin is averaged over its own width.
        assert_eq!(overdraw_fraction(&[0.0, 2.5], &[3.0, 3.0], &[2.0, 2.0]), 1.0);
        assert_eq!(overdraw_fraction(&[], &[], &[]), 0.0);
    }
}
