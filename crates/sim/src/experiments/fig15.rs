//! Fig. 15 — CPU usage of the power-budgeting software: the proposed
//! approach's overhead averages ≈0.104 % of CPU time.

use crate::scenario;
use crate::SimError;
use pn_units::Seconds;

/// The regenerated Fig. 15 data.
#[derive(Debug, Clone, Copy)]
pub struct Fig15 {
    /// Mean CPU fraction of the budgeting software (interrupt handlers
    /// + SPI threshold reprogramming + housekeeping/logging).
    pub control_cpu_fraction: f64,
    /// Monitor-board power as a fraction of the minimum system power
    /// (the paper reports 1.61 mW < 0.82 %).
    pub monitor_power_fraction_of_min: f64,
    /// Number of OPP transitions the governor performed.
    pub transitions: u64,
}

/// Regenerates Fig. 15 from a full-sun run of `duration`.
///
/// # Errors
///
/// Propagates engine failures.
pub fn run(seed: u64, duration: Seconds) -> Result<Fig15, SimError> {
    let scenario = scenario::full_sun_day(seed).with_duration(duration).unrecorded();
    let report = scenario.run_power_neutral()?;

    let platform = scenario.platform();
    let min_power = platform
        .power()
        .board_power(pn_soc::cores::CoreConfig::MIN, platform.frequencies().min_frequency());
    let monitor_power = pn_monitor::monitor::VoltageMonitor::paper_board()?.power();

    Ok(Fig15 {
        control_cpu_fraction: report.control_cpu_fraction(),
        monitor_power_fraction_of_min: monitor_power.value() / min_power.value(),
        transitions: report.transitions(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig15_overhead_is_a_fraction_of_a_percent() {
        let fig = run(9, Seconds::from_minutes(10.0)).unwrap();
        // Paper: 0.104 % average CPU. Accept the same order of
        // magnitude, strictly below 1 %.
        assert!(
            fig.control_cpu_fraction > 0.0002 && fig.control_cpu_fraction < 0.01,
            "overhead {}",
            fig.control_cpu_fraction
        );
        // Paper: 1.61 mW < 0.82 % of the minimum system power.
        assert!(fig.monitor_power_fraction_of_min < 0.0082);
        assert!(fig.transitions > 0);
    }
}
