//! Fig. 6 — simulated response to sudden shadowing, with and without
//! the control scheme (`Vwidth` = 0.2 V, `Vq` = 80 mV, `α` = 0.1 V/s,
//! `β` = 0.12 V/s).

use crate::scenario;
use crate::SimError;
use pn_analysis::series::TimeSeries;
use pn_soc::cores::CoreConfig;
use pn_soc::opp::Opp;
use pn_units::Seconds;

/// The regenerated Fig. 6 data.
#[derive(Debug, Clone)]
pub struct Fig06 {
    /// `VC` with the proposed control scheme.
    pub vc_controlled: TimeSeries,
    /// `VC` without control (static high OPP).
    pub vc_uncontrolled: TimeSeries,
    /// Online big cores over time (controlled run).
    pub big_cores: TimeSeries,
    /// Online LITTLE cores over time (controlled run).
    pub little_cores: TimeSeries,
    /// Clock frequency over time, GHz (controlled run).
    pub frequency_ghz: TimeSeries,
    /// Whether the controlled system survived the shadow.
    pub controlled_survived: bool,
    /// Lifetime of the uncontrolled system, seconds.
    pub uncontrolled_lifetime: Option<f64>,
}

/// Regenerates Fig. 6: shadow lands at `shadow_at` within `duration`.
///
/// # Errors
///
/// Propagates engine failures.
pub fn run(shadow_at: Seconds, duration: Seconds) -> Result<Fig06, SimError> {
    let scenario = scenario::shadowing(shadow_at, duration);
    let controlled = scenario.run_power_neutral()?;
    let uncontrolled = scenario.run_static(Opp::new(CoreConfig::MAX, 5))?;
    Ok(Fig06 {
        vc_controlled: TimeSeries::from(controlled.recorder().vc()),
        vc_uncontrolled: TimeSeries::from(uncontrolled.recorder().vc()),
        big_cores: TimeSeries::from(controlled.recorder().big_cores()),
        little_cores: TimeSeries::from(controlled.recorder().little_cores()),
        frequency_ghz: TimeSeries::from(controlled.recorder().frequency_ghz()),
        controlled_survived: controlled.survived(),
        uncontrolled_lifetime: uncontrolled.lifetime().map(|s| s.value()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig06_control_rides_out_the_shadow() {
        let fig = run(Seconds::new(2.0), Seconds::new(8.0)).unwrap();
        assert!(fig.controlled_survived);
        assert!(fig.uncontrolled_lifetime.is_some(), "uncontrolled must die");
        // VC stays above the 4.1 V minimum under control...
        assert!(fig.vc_controlled.as_series().min().unwrap() >= 4.05);
        // ...and the controller actually scaled: fewer cores and a
        // lower clock after the shadow than before it.
        let (big, little) = (fig.big_cores.as_series(), fig.little_cores.as_series());
        let cores_before = big.sample(1.5).unwrap() + little.sample(1.5).unwrap();
        let t_end = big.end().unwrap();
        let cores_after = big.sample(t_end).unwrap() + little.sample(t_end).unwrap();
        assert!(cores_after < cores_before, "{cores_before} → {cores_after}");
        let f_before = fig.frequency_ghz.as_series().sample(1.5).unwrap();
        let f_after = fig.frequency_ghz.as_series().sample(t_end).unwrap();
        assert!(f_after <= f_before);
    }
}
