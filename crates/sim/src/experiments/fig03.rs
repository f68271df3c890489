//! Fig. 3 — the power-neutral concept: a transient (sinusoidal)
//! harvest, survived with performance scaling but not without.

use crate::scenario;
use crate::SimError;
use pn_analysis::series::TimeSeries;
use pn_soc::cores::CoreConfig;
use pn_soc::opp::Opp;
use pn_units::Seconds;

/// The regenerated Fig. 3 data.
#[derive(Debug, Clone)]
pub struct Fig03 {
    /// `VC` with only the small capacitor (static performance).
    pub vc_static: TimeSeries,
    /// `VC` with power-neutral performance scaling.
    pub vc_scaled: TimeSeries,
    /// Lifetime of the uncontrolled system, seconds (`None` = survived).
    pub static_lifetime: Option<f64>,
    /// Lifetime of the scaled system (`None` = survived).
    pub scaled_lifetime: Option<f64>,
}

/// Regenerates Fig. 3 over `duration` with a sinusoidal harvest of the
/// given `period`.
///
/// # Errors
///
/// Propagates engine failures.
pub fn run(period: Seconds, duration: Seconds) -> Result<Fig03, SimError> {
    let scenario = scenario::sinusoid(period, duration);
    // The uncontrolled comparator holds a mid-high OPP whose draw
    // exceeds the harvest trough.
    let static_opp = Opp::new(CoreConfig::new(4, 2).expect("valid"), 5);
    let static_report = scenario.run_static(static_opp)?;
    let scaled_report = scenario.run_power_neutral()?;
    Ok(Fig03 {
        vc_static: TimeSeries::from(static_report.recorder().vc()),
        vc_scaled: TimeSeries::from(scaled_report.recorder().vc()),
        static_lifetime: static_report.lifetime().map(|s| s.value()),
        scaled_lifetime: scaled_report.lifetime().map(|s| s.value()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig03_scaling_extends_lifetime() {
        let fig = run(Seconds::new(4.0), Seconds::new(12.0)).unwrap();
        // Without scaling the system dies inside the first trough...
        let static_life = fig.static_lifetime.expect("static system must die");
        assert!(static_life < 6.0, "static lived {static_life}");
        // ...with scaling it rides through every trough.
        assert!(fig.scaled_lifetime.is_none(), "scaled system must survive");
        // And the scaled trace never dips below the brownout voltage.
        assert!(fig.vc_scaled.as_series().min().unwrap() >= 4.0);
    }
}
