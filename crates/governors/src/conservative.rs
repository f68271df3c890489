//! The `conservative` governor: step gradually toward the load.
//!
//! Unlike `ondemand`, `conservative` never jumps: above the kernel's
//! `up_threshold` it raises the target by `freq_step` (5 % of `f_max`)
//! per sample, below `down_threshold` it lowers it by the same step. On a
//! CPU-bound workload this produces the slow ramp that let the paper's
//! rig survive about five seconds (Table II: lifetime 00:05, 24 G
//! instructions) before the ramp outran the harvest.

use pn_core::events::{Governor, GovernorAction, GovernorEvent};
use pn_soc::freq::FrequencyTable;
use pn_soc::opp::Opp;
use pn_units::{Hertz, Seconds, Volts};

/// Kernel defaults for the conservative governor.
pub const DEFAULT_UP_THRESHOLD: f64 = 0.80;
/// Load below which the governor steps down.
pub const DEFAULT_DOWN_THRESHOLD: f64 = 0.20;
/// Step size as a fraction of the maximum frequency.
pub const DEFAULT_FREQ_STEP: f64 = 0.05;
/// Default sampling period.
pub const DEFAULT_SAMPLING_PERIOD: Seconds = Seconds::new(0.2);

/// The `conservative` cpufreq governor.
///
/// # Examples
///
/// ```
/// use pn_core::events::{Governor, GovernorEvent};
/// use pn_governors::Conservative;
/// use pn_soc::freq::FrequencyTable;
/// use pn_soc::opp::Opp;
/// use pn_units::{Seconds, Volts};
///
/// let mut gov = Conservative::new(FrequencyTable::paper_levels());
/// gov.start(Seconds::ZERO, Volts::new(5.3), Opp::lowest());
/// let tick = GovernorEvent::Tick { t: Seconds::new(0.2), vc: Volts::new(5.3), load: 1.0 };
/// let action = gov.on_event(&tick, Opp::lowest());
/// // One 5 % step of 1.4 GHz = 70 MHz: resolves to 0.45 GHz (level 1)... eventually.
/// assert!(action.target_opp.is_none() || action.target_opp.unwrap().level() <= 1);
/// ```
#[derive(Debug, Clone)]
pub struct Conservative {
    table: FrequencyTable,
    /// The governor's internal continuous target (the kernel tracks
    /// `requested_freq` separately from the resolved level).
    requested: Hertz,
}

impl Conservative {
    /// Creates the governor with the kernel-default tunables.
    pub fn new(table: FrequencyTable) -> Self {
        let requested = table.min_frequency();
        Self { table, requested }
    }

    /// The internally tracked requested frequency.
    pub fn requested_frequency(&self) -> Hertz {
        self.requested
    }
}

impl Governor for Conservative {
    fn name(&self) -> &str {
        "conservative"
    }

    fn start(&mut self, _t: Seconds, _vc: Volts, current: Opp) -> GovernorAction {
        self.requested = self.table.min_frequency();
        GovernorAction { target_opp: Some(current.with_level(0)), ..Default::default() }
    }

    fn on_event(&mut self, event: &GovernorEvent, current: Opp) -> GovernorAction {
        let GovernorEvent::Tick { load, .. } = *event else {
            return GovernorAction::none();
        };
        let step = self.table.max_frequency() * DEFAULT_FREQ_STEP;
        if load >= DEFAULT_UP_THRESHOLD {
            self.requested =
                (self.requested + step).min(self.table.max_frequency());
        } else if load <= DEFAULT_DOWN_THRESHOLD {
            self.requested =
                (self.requested - step).max(self.table.min_frequency());
        }
        let level = self.table.resolve_at_most(self.requested);
        if level == current.level() {
            GovernorAction::none()
        } else {
            GovernorAction { target_opp: Some(current.with_level(level)), ..Default::default() }
        }
    }

    fn tick_period(&self) -> Option<Seconds> {
        Some(DEFAULT_SAMPLING_PERIOD)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(load: f64) -> GovernorEvent {
        GovernorEvent::Tick { t: Seconds::new(0.2), vc: Volts::new(5.3), load }
    }

    #[test]
    fn ramps_gradually_under_full_load() {
        let mut g = Conservative::new(FrequencyTable::paper_levels());
        g.start(Seconds::ZERO, Volts::new(5.3), Opp::lowest());
        let mut level = 0;
        let mut samples_to_max = 0;
        for i in 0..200 {
            let action = g.on_event(&tick(1.0), Opp::lowest().with_level(level));
            if let Some(opp) = action.target_opp {
                level = opp.level();
            }
            if level == 7 {
                samples_to_max = i + 1;
                break;
            }
        }
        assert_eq!(level, 7, "never reached max");
        // 5 % steps of 1.4 GHz from 0.2 GHz: (1.4-0.2)/0.07 ≈ 17 samples.
        assert!(
            (15..=20).contains(&samples_to_max),
            "reached max in {samples_to_max} samples"
        );
    }

    #[test]
    fn steps_down_when_idle() {
        let mut g = Conservative::new(FrequencyTable::paper_levels());
        g.start(Seconds::ZERO, Volts::new(5.3), Opp::lowest());
        // Ramp up first.
        let mut level = 0;
        for _ in 0..30 {
            if let Some(opp) = g.on_event(&tick(1.0), Opp::lowest().with_level(level)).target_opp {
                level = opp.level();
            }
        }
        assert_eq!(level, 7);
        // Now the load vanishes: the governor must walk back down.
        for _ in 0..30 {
            if let Some(opp) = g.on_event(&tick(0.05), Opp::lowest().with_level(level)).target_opp {
                level = opp.level();
            }
        }
        assert_eq!(level, 0);
    }

    #[test]
    fn moderate_load_holds_station() {
        let mut g = Conservative::new(FrequencyTable::paper_levels());
        g.start(Seconds::ZERO, Volts::new(5.3), Opp::lowest());
        // Load between the thresholds: no movement.
        let action = g.on_event(&tick(0.5), Opp::lowest());
        assert!(action.is_none());
    }

    #[test]
    fn start_resets_to_minimum() {
        let mut g = Conservative::new(FrequencyTable::paper_levels());
        for _ in 0..50 {
            g.on_event(&tick(1.0), Opp::lowest());
        }
        let action = g.start(Seconds::ZERO, Volts::new(5.3), Opp::lowest().with_level(7));
        assert_eq!(action.target_opp.unwrap().level(), 0);
        assert_eq!(g.requested_frequency(), FrequencyTable::paper_levels().min_frequency());
    }
}
