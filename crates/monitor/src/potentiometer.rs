//! The MCP4131 SPI digital potentiometer.
//!
//! The MCP4131 has 129 wiper positions (tap 0 … 128). The processor
//! writes the wiper register over SPI — a 16-bit transaction — which is
//! the mechanism by which the paper's governor *moves* a voltage
//! threshold after every crossing.

use crate::MonitorError;
use pn_units::Seconds;

/// Number of wiper positions of the MCP4131 (7-bit + full-scale).
pub const MCP4131_TAPS: u16 = 129;

/// An MCP4131 digital potentiometer.
///
/// # Examples
///
/// ```
/// use pn_monitor::potentiometer::Mcp4131;
///
/// # fn main() -> Result<(), pn_monitor::MonitorError> {
/// let mut pot = Mcp4131::new_100k()?;
/// pot.set_tap(64)?;
/// assert!((pot.wiper_fraction() - 0.5).abs() < 0.01);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mcp4131 {
    spi_clock_hz: f64,
    tap: u16,
}

impl Mcp4131 {
    /// Creates a potentiometer at mid-scale on the given SPI clock.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::InvalidParameter`] for a non-positive
    /// clock.
    fn new(spi_clock_hz: f64) -> Result<Self, MonitorError> {
        if !(spi_clock_hz > 0.0) {
            return Err(MonitorError::InvalidParameter("spi clock must be positive"));
        }
        Ok(Self { spi_clock_hz, tap: MCP4131_TAPS / 2 })
    }

    /// The 100 kΩ variant at a 1 MHz SPI clock (the paper's schematic
    /// labels the part MCP4131-104). The end-to-end resistance cancels
    /// out of the channel's division ratio, so the model keeps only the
    /// wiper position and the SPI timing.
    ///
    /// # Errors
    ///
    /// Never fails for the preset constants.
    pub fn new_100k() -> Result<Self, MonitorError> {
        Self::new(1.0e6)
    }

    /// Sets the wiper tap.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::InvalidParameter`] for a tap above 128.
    pub fn set_tap(&mut self, tap: u16) -> Result<(), MonitorError> {
        if tap >= MCP4131_TAPS {
            return Err(MonitorError::InvalidParameter("tap must be 0..=128"));
        }
        self.tap = tap;
        Ok(())
    }

    /// Wiper position as a fraction of full scale.
    pub fn wiper_fraction(&self) -> f64 {
        f64::from(self.tap) / f64::from(MCP4131_TAPS - 1)
    }

    /// Duration of one wiper write: a 16-bit SPI frame plus chip-select
    /// framing overhead.
    pub fn write_latency(&self) -> Seconds {
        let frame_bits = 16.0;
        let cs_overhead = 2.0e-6;
        Seconds::new(frame_bits / self.spi_clock_hz + cs_overhead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn tap_range_is_enforced() {
        let mut pot = Mcp4131::new_100k().unwrap();
        assert!(pot.set_tap(128).is_ok());
        assert!(pot.set_tap(129).is_err());
    }

    #[test]
    fn endpoints() {
        let mut pot = Mcp4131::new_100k().unwrap();
        pot.set_tap(0).unwrap();
        assert_eq!(pot.wiper_fraction(), 0.0);
        pot.set_tap(128).unwrap();
        assert_eq!(pot.wiper_fraction(), 1.0);
    }

    #[test]
    fn write_latency_is_tens_of_microseconds() {
        let pot = Mcp4131::new_100k().unwrap();
        let lat = pot.write_latency().value();
        assert!(lat > 1e-6 && lat < 1e-4, "latency {lat}");
    }

    #[test]
    fn rejects_bad_construction() {
        assert!(Mcp4131::new(0.0).is_err());
        assert!(Mcp4131::new(-1e6).is_err());
    }

    proptest! {
        #[test]
        fn tap_round_trips_through_wiper_fraction(tap in 0u16..129) {
            // tap → fraction → tap is lossless: the wiper grid is the
            // quantization authority for the whole threshold channel.
            let mut pot = Mcp4131::new_100k().unwrap();
            pot.set_tap(tap).unwrap();
            prop_assert_eq!(pot.tap, tap);
            let back = (pot.wiper_fraction() * f64::from(MCP4131_TAPS - 1)).round() as u16;
            prop_assert_eq!(back, tap);
        }
    }
}
