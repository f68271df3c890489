//! Voltage monitoring hardware model (paper Fig. 9).
//!
//! The paper keeps software overhead negligible by generating the
//! `Vhigh`/`Vlow` threshold interrupts in *hardware*: per threshold, a
//! resistive divider coarsely scales the supply voltage, an SPI-driven
//! MCP4131 digital potentiometer trims it finely (this is how the
//! processor *moves* the threshold), and an LT6703 comparator against
//! its internal 400 mV reference drives an interrupt line through a
//! level-shifting MOSFET. Two copies of the circuit provide the two
//! dynamic thresholds. The measured power cost of the whole monitor is
//! 1.61 mW (§V-D).
//!
//! This crate models each stage:
//!
//! * [`potentiometer`] — the 129-tap MCP4131 with SPI transaction
//!   timing,
//! * [`threshold`] — one complete channel (front divider and pot trim
//!   as one effective ratio against the LT6703's 400 mV reference):
//!   requested threshold → quantised achievable threshold,
//! * [`monitor`] — the dual-channel [`monitor::VoltageMonitor`].
//!
//! # Examples
//!
//! ```
//! use pn_monitor::monitor::VoltageMonitor;
//! use pn_units::Volts;
//!
//! # fn main() -> Result<(), pn_monitor::MonitorError> {
//! let mut mon = VoltageMonitor::paper_board()?;
//! mon.set_thresholds(Volts::new(5.37), Volts::new(5.23))?;
//! // The hardware can only realise quantised thresholds:
//! let (high, low) = mon.effective_thresholds();
//! assert!((high.value() - 5.37).abs() < 0.02);
//! assert!((low.value() - 5.23).abs() < 0.02);
//! # Ok(())
//! # }
//! ```

pub mod monitor;
pub mod potentiometer;
pub mod threshold;

mod error;

pub use error::MonitorError;
