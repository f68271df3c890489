//! The macro-variability envelope: clear-sky irradiance over a day.
//!
//! A raised-sine elevation model is enough to reproduce the slow
//! morning–noon–evening arc visible in the paper's Fig. 1; all the
//! interesting (and hard) structure comes from the cloud field layered
//! on top.

use crate::HarvestError;
use pn_units::{Seconds, WattsPerSquareMeter};

/// Clear-sky irradiance model.
///
/// `G(t) = peak · sin(π·(t − sunrise)/(sunset − sunrise))^sharpness`
/// inside daylight hours and zero outside.
///
/// # Examples
///
/// ```
/// use pn_harvest::clearsky::ClearSky;
/// use pn_units::Seconds;
///
/// # fn main() -> Result<(), pn_harvest::HarvestError> {
/// let sky = ClearSky::temperate_day()?;
/// let noon = sky.irradiance(Seconds::from_hours(13.0)); // solar noon
/// assert!(noon.value() > 900.0);
/// assert_eq!(sky.irradiance(Seconds::from_hours(2.0)).value(), 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClearSky {
    sunrise: Seconds,
    sunset: Seconds,
    peak: WattsPerSquareMeter,
    sharpness: f64,
}

impl ClearSky {
    /// Creates a clear-sky model.
    ///
    /// # Errors
    ///
    /// Returns [`HarvestError::InvalidParameter`] when sunset does not
    /// follow sunrise, the peak is negative, or `sharpness` is not in
    /// `(0, 4]`.
    fn new(
        sunrise: Seconds,
        sunset: Seconds,
        peak: WattsPerSquareMeter,
        sharpness: f64,
    ) -> Result<Self, HarvestError> {
        if sunset <= sunrise {
            return Err(HarvestError::InvalidParameter("sunset must follow sunrise"));
        }
        if peak.value() < 0.0 || !peak.is_finite() {
            return Err(HarvestError::InvalidParameter("peak must be non-negative"));
        }
        if !(sharpness > 0.0 && sharpness <= 4.0) {
            return Err(HarvestError::InvalidParameter("sharpness must be in (0, 4]"));
        }
        Ok(Self { sunrise, sunset, peak, sharpness })
    }

    /// A temperate-latitude day: sun up 06:00–20:00, 1000 W/m² peak
    /// (the envelope behind Fig. 1).
    ///
    /// # Errors
    ///
    /// Never fails for the preset constants; the `Result` mirrors the
    /// validating constructor.
    pub fn temperate_day() -> Result<Self, HarvestError> {
        Self::new(
            Seconds::from_hours(6.0),
            Seconds::from_hours(20.0),
            WattsPerSquareMeter::new(1000.0),
            1.4,
        )
    }

    /// The weaker autumn day implied by the paper's Fig. 14 test
    /// (estimated available power peaks near 3.3 W on a ≈6 W array:
    /// roughly 55 % of standard irradiance).
    ///
    /// # Errors
    ///
    /// Never fails for the preset constants.
    pub fn paper_test_day() -> Result<Self, HarvestError> {
        Self::new(
            Seconds::from_hours(7.0),
            Seconds::from_hours(19.0),
            WattsPerSquareMeter::new(620.0),
            0.9,
        )
    }

    /// Sunrise time.
    pub fn sunrise(&self) -> Seconds {
        self.sunrise
    }

    /// Sunset time.
    pub fn sunset(&self) -> Seconds {
        self.sunset
    }

    /// Peak (solar-noon) irradiance.
    pub fn peak(&self) -> WattsPerSquareMeter {
        self.peak
    }

    /// Shape exponent of the raised-sine arc (1.0 = pure sine).
    pub fn sharpness(&self) -> f64 {
        self.sharpness
    }

    /// Clear-sky irradiance at time-of-day `t`.
    pub fn irradiance(&self, t: Seconds) -> WattsPerSquareMeter {
        if t <= self.sunrise || t >= self.sunset {
            return WattsPerSquareMeter::ZERO;
        }
        let phase = (t - self.sunrise) / (self.sunset - self.sunrise);
        let s = (std::f64::consts::PI * phase).sin().max(0.0);
        self.peak * s.powf(self.sharpness)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_outside_daylight() {
        let sky = ClearSky::temperate_day().unwrap();
        assert_eq!(sky.irradiance(Seconds::from_hours(0.0)).value(), 0.0);
        assert_eq!(sky.irradiance(Seconds::from_hours(6.0)).value(), 0.0);
        assert_eq!(sky.irradiance(Seconds::from_hours(20.0)).value(), 0.0);
        assert_eq!(sky.irradiance(Seconds::from_hours(23.0)).value(), 0.0);
    }

    /// Solar noon (midpoint of daylight).
    fn solar_noon(sky: &ClearSky) -> Seconds {
        sky.sunrise + (sky.sunset - sky.sunrise) * 0.5
    }

    #[test]
    fn peaks_at_solar_noon() {
        let sky = ClearSky::temperate_day().unwrap();
        let noon = sky.irradiance(solar_noon(&sky));
        assert!((noon.value() - 1000.0).abs() < 1e-6);
        assert!(sky.irradiance(Seconds::from_hours(9.0)) < noon);
    }

    #[test]
    fn paper_test_day_is_weak() {
        let sky = ClearSky::paper_test_day().unwrap();
        assert!(sky.irradiance(solar_noon(&sky)).value() < 700.0);
    }

    #[test]
    fn constructor_validates() {
        assert!(ClearSky::new(
            Seconds::from_hours(20.0),
            Seconds::from_hours(6.0),
            WattsPerSquareMeter::new(1000.0),
            1.0
        )
        .is_err());
        assert!(ClearSky::new(
            Seconds::from_hours(6.0),
            Seconds::from_hours(20.0),
            WattsPerSquareMeter::new(-1.0),
            1.0
        )
        .is_err());
        assert!(ClearSky::new(
            Seconds::from_hours(6.0),
            Seconds::from_hours(20.0),
            WattsPerSquareMeter::new(1000.0),
            0.0
        )
        .is_err());
    }

    proptest! {
        #[test]
        fn irradiance_bounded_by_peak(hour in 0.0f64..24.0) {
            let sky = ClearSky::temperate_day().unwrap();
            let g = sky.irradiance(Seconds::from_hours(hour));
            prop_assert!(g.value() >= 0.0);
            prop_assert!(g <= sky.peak());
        }

        #[test]
        fn morning_is_monotone_rising(h1 in 6.1f64..12.9, dh in 0.01f64..0.5) {
            let sky = ClearSky::temperate_day().unwrap();
            let h2 = (h1 + dh).min(12.99);
            prop_assert!(sky.irradiance(Seconds::from_hours(h2))
                         >= sky.irradiance(Seconds::from_hours(h1)));
        }
    }
}
