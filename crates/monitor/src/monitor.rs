//! The dual-channel voltage monitor.
//!
//! Two [`ThresholdChannel`]s — one for `Vhigh`, one for `Vlow` — plus
//! the measured 1.61 mW power draw of the external board (§V-D of the
//! paper).

use crate::threshold::ThresholdChannel;
use crate::MonitorError;
use pn_units::{Seconds, Volts, Watts};

/// The complete external monitoring board of Fig. 9.
///
/// # Examples
///
/// ```
/// use pn_monitor::monitor::VoltageMonitor;
/// use pn_units::Volts;
///
/// # fn main() -> Result<(), pn_monitor::MonitorError> {
/// let mut mon = VoltageMonitor::paper_board()?;
/// mon.set_thresholds(Volts::new(5.4), Volts::new(5.2))?;
/// let (high, low) = mon.effective_thresholds();
/// assert!(high > low);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VoltageMonitor {
    high: ThresholdChannel,
    low: ThresholdChannel,
    power: Watts,
}

impl VoltageMonitor {
    /// The paper's board: two Fig. 9 channels and the measured 1.61 mW
    /// draw.
    ///
    /// # Errors
    ///
    /// Never fails for the preset constants.
    pub fn paper_board() -> Result<Self, MonitorError> {
        Ok(Self {
            high: ThresholdChannel::paper_channel()?,
            low: ThresholdChannel::paper_channel()?,
            power: Watts::from_milliwatts(1.61),
        })
    }

    /// Programs both thresholds (quantised); returns the achieved pair
    /// `(high, low)`.
    ///
    /// # Errors
    ///
    /// * [`MonitorError::ThresholdsInverted`] when `high <= low`,
    /// * [`MonitorError::ThresholdOutOfRange`] is avoided by clamping —
    ///   the channels clamp out-of-range requests to their achievable
    ///   grid, which is what the real firmware must do when `VC` drifts
    ///   toward the rails.
    pub fn set_thresholds(
        &mut self,
        high: Volts,
        low: Volts,
    ) -> Result<(Volts, Volts), MonitorError> {
        if high <= low {
            return Err(MonitorError::ThresholdsInverted {
                high: high.value(),
                low: low.value(),
            });
        }
        let achieved_high = self.high.set_threshold_clamped(high);
        let achieved_low = self.low.set_threshold_clamped(low);
        Ok((achieved_high, achieved_low))
    }

    /// Both effective thresholds as `(high, low)`.
    pub fn effective_thresholds(&self) -> (Volts, Volts) {
        (self.high.effective_threshold(), self.low.effective_threshold())
    }

    /// Latency to reprogram both thresholds over SPI.
    pub fn reprogram_latency(&self) -> Seconds {
        self.high.reprogram_latency() + self.low.reprogram_latency()
    }

    /// Continuous power drawn by the monitoring board (1.61 mW in the
    /// paper).
    pub fn power(&self) -> Watts {
        self.power
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_board_power_matches_section_v_d() {
        let mon = VoltageMonitor::paper_board().unwrap();
        assert!((mon.power().value() * 1e3 - 1.61).abs() < 1e-9);
        // The paper notes this is below 0.82 % of the minimum system
        // power (≈1.8 W at the lowest OPP).
        assert!(mon.power().value() / 1.8 < 0.0082);
    }

    #[test]
    fn thresholds_keep_ordering() {
        let mut mon = VoltageMonitor::paper_board().unwrap();
        let (h, l) = mon.set_thresholds(Volts::new(5.45), Volts::new(5.15)).unwrap();
        assert!(h > l);
        assert!(matches!(
            mon.set_thresholds(Volts::new(5.0), Volts::new(5.2)),
            Err(MonitorError::ThresholdsInverted { .. })
        ));
    }

    #[test]
    fn out_of_range_requests_clamp_to_grid() {
        let mut mon = VoltageMonitor::paper_board().unwrap();
        let (h, l) = mon.set_thresholds(Volts::new(9.0), Volts::new(1.0)).unwrap();
        assert!(h.value() < 6.2);
        assert!(l.value() > 3.9);
        assert!(h > l);
    }

    #[test]
    fn reprogramming_is_fast() {
        let mon = VoltageMonitor::paper_board().unwrap();
        assert!(mon.reprogram_latency().value() < 1e-3);
    }
}
