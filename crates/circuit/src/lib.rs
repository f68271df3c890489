//! Circuit-level numerical substrate for the `power-neutral` workspace.
//!
//! The DATE 2017 paper models its energy-harvesting front end (Fig. 2)
//! as a single-diode photovoltaic source feeding a small capacitor, and
//! simulates the closed loop in Matlab-Simulink with the `ode23` solver.
//! This crate rebuilds that substrate from scratch:
//!
//! * [`newton`] — a safeguarded Newton–Raphson scalar root finder (the
//!   single-diode equation is implicit in the cell current),
//! * [`ode`] — the adaptive Bogacki–Shampine 2(3) pair ([`ode::Rk23`],
//!   the same method family as Matlab `ode23`),
//! * [`events`] — zero-crossing location on continuous trajectories
//!   (the replacement for Simulink's zero-crossing detection),
//! * [`solar`] — the paper's Eq. (4) solar-cell equivalent circuit with
//!   IV/PV curve tooling and maximum-power-point search,
//! * [`surface`] — a pretabulated, build-time-validated bilinear
//!   interpolation surface over the single-diode current (the
//!   engine's supply fast path),
//! * [`capacitor`] — ideal and supercapacitor (ESR + leakage) buffer
//!   models.
//!
//! # Examples
//!
//! Solve the PV operating point of the paper's array at full sun:
//!
//! ```
//! use pn_circuit::solar::SolarCell;
//! use pn_units::{Volts, WattsPerSquareMeter};
//!
//! # fn main() -> Result<(), pn_circuit::CircuitError> {
//! let cell = SolarCell::odroid_array();
//! let full_sun = WattsPerSquareMeter::new(1000.0);
//! let i = cell.current(Volts::new(5.3), full_sun)?;
//! assert!(i.value() > 0.9 && i.value() < 1.3);
//! # Ok(())
//! # }
//! ```

pub mod capacitor;
pub mod events;
pub mod newton;
pub mod ode;
pub mod solar;
pub mod surface;

mod error;

pub use error::CircuitError;
