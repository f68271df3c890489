//! Fig. 1 — power output of a 250 cm² solar cell over a day, showing
//! macro and micro variability.

use crate::SimError;
use pn_analysis::series::TimeSeries;
use pn_circuit::solar::SolarCell;
use pn_harvest::weather::{DayProfile, Weather};
use pn_units::Seconds;

/// The regenerated Fig. 1 data.
#[derive(Debug, Clone)]
pub struct Fig01 {
    /// Cell output power (at MPP) over the day, in watts.
    pub power: TimeSeries,
    /// Peak power over the day.
    pub peak_watts: f64,
    /// Relative micro-variability: mean absolute sample-to-sample
    /// power change during daylight, as a fraction of the peak.
    pub micro_variability: f64,
}

/// Regenerates Fig. 1: a partial-sun day sampled every `dt` seconds.
///
/// # Errors
///
/// Propagates environment and PV-solver failures.
pub fn run(seed: u64, dt: Seconds) -> Result<Fig01, SimError> {
    let cell = SolarCell::small_cell();
    let irradiance = DayProfile::new(Weather::PartialSun, seed).build(dt)?;
    let mut power = TimeSeries::new("cell_power_w");
    let mut prev: Option<f64> = None;
    let mut diffs = Vec::new();
    for (t, g) in irradiance.iter() {
        let p = cell.max_power_point(g)?.power.value();
        power.push(t.value(), p)?;
        if let Some(last) = prev {
            if p > 0.01 || last > 0.01 {
                diffs.push((p - last).abs());
            }
        }
        prev = Some(p);
    }
    let peak_watts = power.as_series().max().unwrap_or(0.0);
    let micro_variability = if diffs.is_empty() || peak_watts <= 0.0 {
        0.0
    } else {
        diffs.iter().sum::<f64>() / diffs.len() as f64 / peak_watts
    };
    Ok(Fig01 { power, peak_watts, micro_variability })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig01_shape_matches_the_paper() {
        let fig = run(42, Seconds::new(30.0)).unwrap();
        // Fig. 1's y-axis spans 0–1 W.
        assert!(fig.peak_watts > 0.6 && fig.peak_watts < 1.3, "peak {}", fig.peak_watts);
        // Night-time power is zero.
        assert_eq!(fig.power.as_series().sample(0.0).unwrap(), 0.0);
        // Micro variability exists (shadowing) but is not total chaos.
        assert!(fig.micro_variability > 0.001, "no micro variability");
        assert!(fig.micro_variability < 0.5);
    }
}
