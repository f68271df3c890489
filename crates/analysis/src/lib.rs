//! Trace analysis: time series, band metrics, histograms, summary
//! statistics and ASCII charts.
//!
//! Every quantitative claim in the paper's evaluation reduces to a
//! statistic over a recorded time series:
//!
//! * Fig. 12 — "`VC` remained within ±5 % of the target voltage for
//!   93.3 % of the time" → [`metrics::fraction_within_band`],
//! * Fig. 13 — "proportion of time spent at each operating voltage" →
//!   [`histogram::Histogram`] with time weights,
//! * Fig. 14 — consumed vs available power → series integration,
//! * Fig. 15 — CPU usage of the control software → series means.
//!
//! The [`ascii`] module renders series as terminal charts so the bench
//! binaries can *show* each figure, not just print numbers.

pub mod ascii;
pub mod histogram;
pub mod metrics;
pub mod series;
pub mod summary;

mod error;

pub use error::AnalysisError;
