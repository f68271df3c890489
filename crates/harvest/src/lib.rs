//! Solar irradiance environment: the "harvest" side of the paper.
//!
//! Fig. 1 of the paper shows a day of measured solar output with two
//! characteristic variability classes: **macro** variability (the slow
//! morning-to-evening envelope) and **micro** variability (fast dips
//! from shadowing and cloud passage — the component that defeats
//! prediction-based schemes like SolarTune and motivates power-neutral
//! operation). This crate synthesises deterministic, seeded irradiance
//! traces with both components:
//!
//! * [`irradiance`] — the sampled [`irradiance::IrradianceTrace`] type,
//! * [`clearsky`] — the macro envelope (solar elevation over the day),
//! * [`clouds`] — a seeded stochastic occlusion field (micro),
//! * [`weather`] — presets for the four conditions the paper tested
//!   (full sun, partial sun, cloud, hail), the day-profile builder and
//!   its process-wide day memo,
//! * [`estimator`] — the open-circuit-voltage-based available-power
//!   estimator used to draw Fig. 14.
//!
//! # Examples
//!
//! ```
//! use pn_harvest::weather::{DayProfile, Weather};
//! use pn_units::Seconds;
//!
//! # fn main() -> Result<(), pn_harvest::HarvestError> {
//! let trace = DayProfile::new(Weather::FullSun, 42).build(Seconds::new(60.0))?;
//! let noon = trace.sample(Seconds::from_hours(12.0));
//! assert!(noon.value() > 300.0); // strong midday sun
//! # Ok(())
//! # }
//! ```

pub mod clearsky;
pub mod clouds;
pub mod estimator;
pub mod faults;
pub mod irradiance;
pub mod weather;

mod error;

pub use error::HarvestError;
