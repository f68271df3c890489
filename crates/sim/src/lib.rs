//! Hybrid co-simulation of the complete power-neutral system.
//!
//! This crate ties the whole workspace together into the closed loop of
//! the paper's Figs. 2 and 8: a photovoltaic source (or a controlled
//! supply) feeds a small buffer capacitor whose voltage is watched by
//! the modelled monitoring hardware; threshold interrupts (or sampling
//! ticks) drive a governor; the governor commands OPP transitions whose
//! latencies and power draws feed back into the capacitor dynamics.
//!
//! * [`supply`] — the energy source (PV array × irradiance trace, or a
//!   prescribed voltage waveform for the Fig. 11 bench test), plus the
//!   engine's supply fast path: the `SupplyModel` knob (the exact
//!   single-diode model vs. the pretabulated interpolation surface)
//!   and the per-simulation `SupplyState` that carries the monotone
//!   irradiance cursor and the previous root, and owns the change of
//!   variable to the integrated state (the PV junction voltage under
//!   the exact model),
//! * [`runtime`] — the SoC runtime state: current OPP, in-flight
//!   transitions, work and overhead accounting,
//! * [`recorder`] — recorded traces (`VC`, frequency, cores, powers),
//! * [`engine`] — the hybrid continuous/discrete simulation loop
//!   (adaptive RK23 between the discrete events that change the load,
//!   event location on each step's dense output, interrupt masking
//!   during transitions), which runs a scenario through its `run_*`
//!   methods,
//! * [`chaos`] — the deterministic fault plane: a seeded `FaultPlan`
//!   injecting I/O and network faults behind the `IoPolicy` seam, so
//!   the persistence and daemon layers are testable under chaos,
//! * [`scenario`] — canned scenarios for each paper experiment,
//! * [`executor`] — the shared batch executor (workers claim items one
//!   at a time from a shared counter),
//! * [`sweep`] — the §III parameter sweep,
//! * [`campaign`] — batch campaigns over a cartesian scenario matrix,
//!   including sharded runs whose reports merge bitwise and
//!   shard-aware resume of interrupted runs,
//! * [`adaptive`] — the adaptive campaign driver: bisect each
//!   (weather, governor) group's buffer capacitance to the brown-out
//!   boundary, steering each round from the previous report,
//! * [`daemon`] — the long-running campaign service: submit specs
//!   over TCP, stream per-cell rows to many concurrent watchers,
//!   atomic shard checkpoints, byte-exact crash recovery,
//! * [`persist`] — serialized campaign specs/reports (a report's cell
//!   lines are its CSV rows) and the campaign + summary CSV exports,
//! * [`experiments`] — one module per paper figure/table, producing the
//!   rows/series the paper reports.
//!
//! # Examples
//!
//! Run sixty simulated seconds of the full-sun scenario under the
//! power-neutral governor:
//!
//! ```
//! use pn_sim::scenario;
//!
//! # fn main() -> Result<(), pn_sim::SimError> {
//! let report = scenario::full_sun_day(7)
//!     .with_duration(pn_units::Seconds::new(60.0))
//!     .run_power_neutral()?;
//! assert!(report.survived());
//! # Ok(())
//! # }
//! ```

pub mod adaptive;
pub mod campaign;
pub mod chaos;
pub mod daemon;
pub mod engine;
pub mod executor;
pub mod experiments;
pub mod persist;
pub mod recorder;
pub mod runtime;
pub mod scenario;
pub mod supply;
pub mod sweep;

mod error;

pub use error::SimError;
