//! One complete threshold channel: divider + digital pot + comparator.
//!
//! The channel maps a *requested* supply-voltage threshold to the
//! nearest *achievable* one. The front divider sets a coarse ratio and
//! the potentiometer trims it over a span of roughly ±17.5 %, so the
//! achievable thresholds form a 129-point grid over approximately
//! 4.1 … 5.9 V with ≈14 mV resolution — comfortably finer than the
//! paper's optimal `Vq` of 47.9 mV. The LT6703 comparator trips where
//! the divided supply meets its built-in 400 mV reference, and the
//! channel models it as that reference alone.

use crate::potentiometer::{Mcp4131, MCP4131_TAPS};
use crate::MonitorError;
use pn_units::{Seconds, Volts};

/// The LT6703's internal reference voltage.
const LT6703_REFERENCE: Volts = Volts::new(0.400);

/// A single configurable threshold channel of Fig. 9.
///
/// # Examples
///
/// ```
/// use pn_monitor::threshold::ThresholdChannel;
/// use pn_units::Volts;
///
/// # fn main() -> Result<(), pn_monitor::MonitorError> {
/// let mut ch = ThresholdChannel::paper_channel()?;
/// // The nearest pot tap lands within one 16 mV grid step.
/// let achieved = ch.set_threshold_clamped(Volts::new(5.30));
/// assert!((achieved.value() - 5.30).abs() < 0.016);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdChannel {
    base_ratio: f64,
    trim_span: f64,
    pot: Mcp4131,
}

impl ThresholdChannel {
    /// Creates a channel.
    ///
    /// `base_ratio` is the mid-tap division ratio; the pot trims the
    /// effective ratio linearly over `base_ratio · (1 ± trim_span/2)`.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::InvalidParameter`] when `base_ratio` is
    /// not in `(0, 1)` or `trim_span` not in `(0, 1)`.
    fn new(base_ratio: f64, trim_span: f64, pot: Mcp4131) -> Result<Self, MonitorError> {
        if !(base_ratio > 0.0 && base_ratio < 1.0) {
            return Err(MonitorError::InvalidParameter("base_ratio must be in (0, 1)"));
        }
        if !(trim_span > 0.0 && trim_span < 1.0) {
            return Err(MonitorError::InvalidParameter("trim_span must be in (0, 1)"));
        }
        Ok(Self { base_ratio, trim_span, pot })
    }

    /// The paper's channel: front divider plus 1 MΩ/1 MΩ trim network
    /// scaled so the achievable threshold range covers the ODROID's
    /// 4.1 … 5.7 V window with margin.
    ///
    /// # Errors
    ///
    /// Never fails for the preset constants.
    pub fn paper_channel() -> Result<Self, MonitorError> {
        // Mid-tap threshold centred at 4.9 V: ratio = 0.4 V / 4.9 V.
        // The 470 kΩ/100 kΩ front divider provides 0.1754; the 1M/1M +
        // pot network scales the remainder. The channel models the
        // combined effective ratio directly, which preserves the
        // achievable-threshold grid.
        Self::new(0.4 / 4.9, 0.40, Mcp4131::new_100k()?)
    }

    /// Effective division ratio at the current pot tap.
    fn ratio(&self) -> f64 {
        let trim = self.trim_span * (self.pot.wiper_fraction() - 0.5);
        self.base_ratio * (1.0 + trim)
    }

    /// The supply-voltage threshold currently realised by the channel:
    /// the input voltage at which the divided signal meets the
    /// comparator reference.
    pub fn effective_threshold(&self) -> Volts {
        Volts::new(LT6703_REFERENCE.value() / self.ratio())
    }

    /// Lowest achievable threshold (pot at full scale).
    fn min_threshold(&self) -> Volts {
        Volts::new(
            LT6703_REFERENCE.value() / (self.base_ratio * (1.0 + self.trim_span * 0.5)),
        )
    }

    /// Highest achievable threshold (pot at zero).
    fn max_threshold(&self) -> Volts {
        Volts::new(
            LT6703_REFERENCE.value() / (self.base_ratio * (1.0 - self.trim_span * 0.5)),
        )
    }

    /// Requests a threshold; the channel programs the nearest pot tap
    /// and returns the threshold actually achieved.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::ThresholdOutOfRange`] when the request
    /// lies outside the achievable grid.
    fn set_threshold(&mut self, requested: Volts) -> Result<Volts, MonitorError> {
        let (min, max) = (self.min_threshold(), self.max_threshold());
        if requested < min || requested > max {
            return Err(MonitorError::ThresholdOutOfRange {
                requested: requested.value(),
                min: min.value(),
                max: max.value(),
            });
        }
        // Invert threshold → ratio → wiper fraction → tap.
        let ratio = LT6703_REFERENCE.value() / requested.value();
        let fraction = ((ratio / self.base_ratio - 1.0) / self.trim_span + 0.5).clamp(0.0, 1.0);
        let tap = (fraction * f64::from(MCP4131_TAPS - 1)).round() as u16;
        self.pot.set_tap(tap.min(MCP4131_TAPS - 1))?;
        Ok(self.effective_threshold())
    }

    /// Requests a threshold, clamping out-of-range requests to the
    /// nearest achievable endpoint instead of failing.
    pub fn set_threshold_clamped(&mut self, requested: Volts) -> Volts {
        let clamped = requested.clamp(self.min_threshold(), self.max_threshold());
        self.set_threshold(clamped).expect("clamped request is always achievable")
    }

    /// Latency to reprogram the threshold (one SPI wiper write).
    pub fn reprogram_latency(&self) -> Seconds {
        self.pot.write_latency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Approximate threshold resolution (one pot tap near mid-scale).
    fn quantization_step(ch: &ThresholdChannel) -> Volts {
        Volts::new(
            (ch.max_threshold().value() - ch.min_threshold().value()) / f64::from(MCP4131_TAPS - 1),
        )
    }

    #[test]
    fn range_covers_operating_window() {
        let ch = ThresholdChannel::paper_channel().unwrap();
        assert!(ch.min_threshold().value() < 4.1, "min {:?}", ch.min_threshold());
        assert!(ch.max_threshold().value() > 5.7, "max {:?}", ch.max_threshold());
    }

    #[test]
    fn quantization_is_finer_than_vq() {
        let ch = ThresholdChannel::paper_channel().unwrap();
        // Paper's optimal Vq is 47.9 mV; the hardware grid must resolve it.
        assert!(quantization_step(&ch).to_millivolts() < 20.0);
    }

    #[test]
    fn set_threshold_achieves_within_one_step() {
        let mut ch = ThresholdChannel::paper_channel().unwrap();
        for target in [4.2, 4.7, 5.0, 5.3, 5.65] {
            let achieved = ch.set_threshold(Volts::new(target)).unwrap();
            assert!(
                (achieved.value() - target).abs() <= quantization_step(&ch).value(),
                "target {target}, achieved {achieved}"
            );
        }
    }

    #[test]
    fn out_of_range_requests_fail_or_clamp() {
        let mut ch = ThresholdChannel::paper_channel().unwrap();
        assert!(matches!(
            ch.set_threshold(Volts::new(9.0)),
            Err(MonitorError::ThresholdOutOfRange { .. })
        ));
        let clamped = ch.set_threshold_clamped(Volts::new(9.0));
        assert!((clamped - ch.max_threshold()).abs() <= quantization_step(&ch));
        let clamped = ch.set_threshold_clamped(Volts::new(1.0));
        assert!((clamped - ch.min_threshold()).abs() <= quantization_step(&ch));
    }

    #[test]
    fn sense_voltage_meets_reference_at_threshold() {
        let mut ch = ThresholdChannel::paper_channel().unwrap();
        let achieved = ch.set_threshold(Volts::new(5.3)).unwrap();
        // The divided-and-trimmed supply the comparator sees.
        let sense = achieved * ch.ratio();
        assert!((sense.value() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn constructor_validates() {
        let pot = Mcp4131::new_100k().unwrap();
        assert!(ThresholdChannel::new(0.0, 0.3, pot).is_err());
        assert!(ThresholdChannel::new(0.1, 1.5, pot).is_err());
    }

    proptest! {
        #[test]
        fn achieved_thresholds_are_monotone_in_request(a in 4.2f64..5.6, d in 0.05f64..0.3) {
            let mut ch = ThresholdChannel::paper_channel().unwrap();
            let low = ch.set_threshold(Volts::new(a)).unwrap();
            let high = ch.set_threshold(Volts::new((a + d).min(5.85))).unwrap();
            prop_assert!(high >= low);
        }

        #[test]
        fn quantized_threshold_is_within_one_lsb(target in 4.2f64..5.8) {
            // Rounding to the nearest tap leaves at most half the local
            // grid pitch of error, which stays under one nominal LSB
            // (`quantization_step`) across the whole achievable range.
            let mut ch = ThresholdChannel::paper_channel().unwrap();
            let achieved = ch.set_threshold(Volts::new(target)).unwrap();
            prop_assert!(
                (achieved.value() - target).abs() <= quantization_step(&ch).value(),
                "target {} achieved {}", target, achieved
            );
        }

        #[test]
        fn requantizing_an_achieved_threshold_is_a_fixed_point(target in 4.2f64..5.8) {
            // Quantization round-trip: once a request has been snapped
            // to the grid, re-requesting the snapped value must not
            // move the wiper again.
            let mut ch = ThresholdChannel::paper_channel().unwrap();
            let achieved = ch.set_threshold(Volts::new(target)).unwrap();
            let wiper = ch.pot.wiper_fraction();
            let again = ch.set_threshold(achieved).unwrap();
            prop_assert_eq!(ch.pot.wiper_fraction(), wiper);
            prop_assert!((again - achieved).abs() < Volts::new(1e-12));
        }
    }
}
