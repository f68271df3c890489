//! Facade crate re-exporting the whole `power-neutral` workspace.
//!
//! This is a reproduction of *Power Neutral Performance Scaling for
//! Energy Harvesting MP-SoCs* (Fletcher, Balsamo, Merrett — DATE 2017).
//! See the README for the architecture overview and [`sim::experiments`]
//! for the per-experiment index.
//!
//! # Examples
//!
//! ```
//! use power_neutral::soc::platform::Platform;
//!
//! let xu4 = Platform::odroid_xu4();
//! assert_eq!(xu4.frequencies().len(), 8);
//! ```

pub use pn_analysis as analysis;
pub use pn_circuit as circuit;
pub use pn_core as core;
pub use pn_governors as governors;
pub use pn_harvest as harvest;
pub use pn_monitor as monitor;
pub use pn_sim as sim;
pub use pn_soc as soc;
pub use pn_units as units;
pub use pn_workload as workload;
