//! Fig. 11 — system response to a controlled variable supply
//! (`Vwidth` = 335 mV, `Vq` = 190 mV, `α` = 0.238 V/s, `β` = 0.633 V/s).

use crate::scenario;
use crate::SimError;
use pn_analysis::series::TimeSeries;

/// The regenerated Fig. 11 data.
#[derive(Debug, Clone)]
pub struct Fig11 {
    /// The supply voltage the bench source imposed.
    pub v_supply: TimeSeries,
    /// Clock frequency over time, MHz.
    pub frequency_mhz: TimeSeries,
    /// Online LITTLE cores over time.
    pub little_cores: TimeSeries,
    /// Total online cores over time.
    pub total_cores: TimeSeries,
    /// Governor transitions performed.
    pub transitions: u64,
}

/// Regenerates Fig. 11 on the canned §V-A waveform.
///
/// # Errors
///
/// Propagates engine failures.
pub fn run() -> Result<Fig11, SimError> {
    let report = scenario::controlled_supply_demo().run_power_neutral()?;
    let rec = report.recorder();
    let mut frequency_mhz = TimeSeries::new("frequency_mhz");
    for (t, ghz) in rec.frequency_ghz().iter() {
        frequency_mhz.push(t, ghz * 1000.0)?;
    }
    Ok(Fig11 {
        v_supply: TimeSeries::from(rec.vc()),
        frequency_mhz,
        little_cores: TimeSeries::from(rec.little_cores()),
        total_cores: TimeSeries::from(rec.total_cores()),
        transitions: report.transitions(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_frequency_tracks_the_supply() {
        let fig = run().unwrap();
        assert!(fig.transitions > 4, "governor barely acted: {}", fig.transitions);
        // Rising phase (0–40 s): frequency climbs.
        let (freq, cores) = (fig.frequency_mhz.as_series(), fig.total_cores.as_series());
        let f_early = freq.sample(2.0).unwrap();
        let f_peak = freq.sample(85.0).unwrap();
        assert!(f_peak > f_early, "{f_early} → {f_peak}");
        // Feature B (the sudden drop at ~90 s) forces cores offline.
        let cores_at_peak = cores.sample(88.0).unwrap();
        let cores_after_b = cores.sample(110.0).unwrap();
        assert!(
            cores_after_b < cores_at_peak,
            "cores {cores_at_peak} → {cores_after_b} across feature B"
        );
    }

    #[test]
    fn fig11_core_scaling_is_rarer_than_dvfs() {
        // The paper observes core scaling applied less often than
        // frequency scaling: count distinct value changes.
        let fig = run().unwrap();
        let changes = |s: &TimeSeries| {
            s.as_series().values().windows(2).filter(|w| (w[1] - w[0]).abs() > 1e-9).count()
        };
        let core_changes = changes(&fig.total_cores);
        let freq_changes = changes(&fig.frequency_mhz);
        assert!(
            freq_changes > core_changes,
            "dvfs {freq_changes} vs hotplug {core_changes}"
        );
    }
}
