//! Work accounting: turning throughput over time into completed work.
//!
//! Inside the co-simulation the ray tracer is represented by its
//! throughput models (benchmark frames/s and instructions/s per OPP,
//! from `pn-soc`'s Fig. 7 / Table II calibration). [`WorkAccount`]
//! integrates those rates over simulated time into the quantities the
//! paper's Table II reports: completed renders, average renders per
//! minute, and total executed instructions.

/// How much heavier one Table II "render" is than one Fig. 7 benchmark
/// frame.
///
/// Fig. 7's metric is a small frame at 5 samples per pixel; Table II
/// counts full-quality renders (0.246/min for the proposed governor
/// against an average throughput that would complete several benchmark
/// frames per minute). The factor is calibrated so the reproduction's
/// Table II lands near the paper's renders-per-minute column.
const BENCHMARK_FRAMES_PER_RENDER: f64 = 17.0;

/// Accumulates completed work from piecewise-constant throughput.
///
/// # Examples
///
/// ```
/// use pn_workload::work::WorkAccount;
///
/// let mut acct = WorkAccount::new();
/// // 10 s at 0.25 frames/s and 4.5 GIPS:
/// acct.accrue(10.0, 0.25, 4.5e9);
/// assert!((acct.benchmark_frames() - 2.5).abs() < 1e-12);
/// assert!((acct.instructions() - 45.0e9).abs() < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WorkAccount {
    frames: f64,
    instructions: f64,
}

impl WorkAccount {
    /// Creates an empty account.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accrues `dt` seconds of work at the given frame and instruction
    /// rates.
    ///
    /// # Panics
    ///
    /// Panics (debug) on negative `dt` or rates.
    pub fn accrue(&mut self, dt: f64, frames_per_second: f64, instructions_per_second: f64) {
        debug_assert!(dt >= 0.0 && frames_per_second >= 0.0 && instructions_per_second >= 0.0);
        self.frames += frames_per_second * dt;
        self.instructions += instructions_per_second * dt;
    }

    /// Completed benchmark frames (Fig. 7 units).
    pub fn benchmark_frames(&self) -> f64 {
        self.frames
    }

    /// Completed Table II renders.
    pub fn renders(&self) -> f64 {
        self.frames / BENCHMARK_FRAMES_PER_RENDER
    }

    /// Average renders per minute over an observation window of
    /// `window_seconds` (Table II's first column).
    pub fn renders_per_minute(&self, window_seconds: f64) -> f64 {
        if window_seconds <= 0.0 {
            return 0.0;
        }
        self.renders() / (window_seconds / 60.0)
    }

    /// Total executed instructions.
    pub fn instructions(&self) -> f64 {
        self.instructions
    }

    /// Total executed instructions in billions (Table II's last
    /// column).
    pub fn instructions_billions(&self) -> f64 {
        self.instructions / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn renders_follow_the_calibration_factor() {
        let mut a = WorkAccount::new();
        a.accrue(60.0, BENCHMARK_FRAMES_PER_RENDER / 60.0, 1e9);
        // One render per minute by construction.
        assert!((a.renders() - 1.0).abs() < 1e-9);
        assert!((a.renders_per_minute(60.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_window_gives_zero_rate() {
        let a = WorkAccount::new();
        assert_eq!(a.renders_per_minute(0.0), 0.0);
    }

    #[test]
    fn instructions_in_billions() {
        let mut a = WorkAccount::new();
        a.accrue(3600.0, 0.0, 1.167e9);
        assert!((a.instructions_billions() - 4201.2).abs() < 1.0);
    }

    proptest! {
        #[test]
        fn accrual_is_additive(d1 in 0.0f64..100.0, d2 in 0.0f64..100.0,
                               fps in 0.0f64..1.0, ips in 0.0f64..1e10) {
            let mut once = WorkAccount::new();
            once.accrue(d1 + d2, fps, ips);
            let mut twice = WorkAccount::new();
            twice.accrue(d1, fps, ips);
            twice.accrue(d2, fps, ips);
            prop_assert!((once.benchmark_frames() - twice.benchmark_frames()).abs() < 1e-6);
            prop_assert!((once.instructions() - twice.instructions()).abs() < 1.0);
        }
    }
}
