//! Exynos5422 big.LITTLE platform model (ODROID XU4).
//!
//! The DATE 2017 paper validates its power-neutral governor on the
//! ODROID XU4 board: a Samsung Exynos5422 with four high-performance
//! ARM Cortex-A15 ("big") cores and four low-power Cortex-A7 ("LITTLE")
//! cores, powered between 4.1 V and 5.7 V. This crate models everything
//! the governor and the co-simulation need to know about that platform:
//!
//! * [`cores`] — core types and the hot-plug configuration ladder,
//! * [`freq`] — the 8-level DVFS frequency table (paper §III) with
//!   cpufreq-style resolution,
//! * [`opp`] — operating performance points (config × frequency level),
//! * [`opp_table`] — per-OPP power/throughput rows and the budget
//!   frontier, tabulated once per platform,
//! * [`power`] — the board power model calibrated to the paper's Fig. 4,
//! * [`perf`] — raytrace FPS and instruction-throughput models
//!   calibrated to Fig. 7 and Table II,
//! * [`latency`] — DVFS and core hot-plug transition latencies (Fig. 10),
//! * [`transition`] — multi-step OPP transition planning and its
//!   time/charge cost (Table I),
//! * [`platform`] — the assembled [`platform::Platform`] preset.
//!
//! # Examples
//!
//! ```
//! use pn_soc::platform::Platform;
//! use pn_soc::cores::CoreConfig;
//!
//! # fn main() -> Result<(), pn_soc::SocError> {
//! let xu4 = Platform::odroid_xu4();
//! let all_cores = CoreConfig::new(4, 4)?;
//! let f_max = xu4.frequencies().max_level();
//! let p = xu4.power().board_power(all_cores, xu4.frequencies().frequency(f_max)?);
//! assert!(p.value() > 6.0 && p.value() < 7.5); // Fig. 4 top-right corner
//! # Ok(())
//! # }
//! ```

pub mod cores;
pub mod domain;
pub mod freq;
pub mod latency;
pub mod opp;
pub mod opp_table;
pub mod perf;
pub mod platform;
pub mod power;
pub mod thermal;
pub mod transition;

mod error;

pub use error::SocError;
