//! The Android `interactive` governor: burst to `hispeed_freq` on
//! high load, hold it briefly, and only then consider other speeds.
//!
//! Simplified but faithful policy: when load crosses
//! `go_hispeed_load`, the governor jumps straight to `hispeed_freq`;
//! it will not go *above* hispeed until the load has stayed high for
//! `above_hispeed_delay`, and will not slow down until `min_sample_time`
//! has elapsed since the last speed increase.

use pn_core::events::{Governor, GovernorAction, GovernorEvent};
use pn_soc::freq::FrequencyTable;
use pn_soc::opp::Opp;
use pn_units::{Seconds, Volts};

/// Default load fraction that triggers the hispeed burst.
pub const DEFAULT_GO_HISPEED_LOAD: f64 = 0.85;
/// Default dwell before exceeding hispeed.
pub const DEFAULT_ABOVE_HISPEED_DELAY: Seconds = Seconds::new(0.08);
/// Default minimum time at a speed before slowing down.
pub const DEFAULT_MIN_SAMPLE_TIME: Seconds = Seconds::new(0.08);
/// Default sampling period (the governor's timer).
pub const DEFAULT_SAMPLING_PERIOD: Seconds = Seconds::new(0.05);

/// The `interactive` governor.
///
/// # Examples
///
/// ```
/// use pn_core::events::{Governor, GovernorEvent};
/// use pn_governors::Interactive;
/// use pn_soc::freq::FrequencyTable;
/// use pn_soc::opp::Opp;
/// use pn_units::{Seconds, Volts};
///
/// let mut gov = Interactive::new(FrequencyTable::paper_levels());
/// gov.start(Seconds::ZERO, Volts::new(5.3), Opp::lowest());
/// let tick = GovernorEvent::Tick { t: Seconds::new(0.05), vc: Volts::new(5.3), load: 1.0 };
/// let action = gov.on_event(&tick, Opp::lowest());
/// // Bursts to the hispeed level (the top level by default here).
/// assert!(action.target_opp.unwrap().level() >= 5);
/// ```
#[derive(Debug, Clone)]
pub struct Interactive {
    table: FrequencyTable,
    hispeed_level: usize,
    hispeed_since: Option<Seconds>,
    last_increase: Seconds,
}

impl Interactive {
    /// Creates the governor; `hispeed_freq` is the lowest level at or
    /// above 80 % of max, matching common Android device trees.
    pub fn new(table: FrequencyTable) -> Self {
        let hispeed_target = table.max_frequency() * 0.8;
        let hispeed_level = table.resolve_at_least(hispeed_target);
        Self { table, hispeed_level, hispeed_since: None, last_increase: Seconds::ZERO }
    }

    /// The hispeed level index.
    pub fn hispeed_level(&self) -> usize {
        self.hispeed_level
    }
}

impl Governor for Interactive {
    fn name(&self) -> &str {
        "interactive"
    }

    fn start(&mut self, t: Seconds, _vc: Volts, current: Opp) -> GovernorAction {
        self.hispeed_since = None;
        self.last_increase = t;
        GovernorAction { target_opp: Some(current.with_level(0)), ..Default::default() }
    }

    fn on_event(&mut self, event: &GovernorEvent, current: Opp) -> GovernorAction {
        let GovernorEvent::Tick { t, load, .. } = *event else {
            return GovernorAction::none();
        };
        let mut level = current.level();
        if load >= DEFAULT_GO_HISPEED_LOAD {
            if level < self.hispeed_level {
                // Burst.
                level = self.hispeed_level;
                self.hispeed_since = Some(t);
                self.last_increase = t;
            } else {
                // Already at/above hispeed: may climb further after the
                // dwell.
                let since = self.hispeed_since.get_or_insert(t);
                if (t - *since) >= DEFAULT_ABOVE_HISPEED_DELAY && level < self.table.max_level() {
                    level = self.table.step_up(level);
                    self.last_increase = t;
                }
            }
        } else {
            self.hispeed_since = None;
            // Proportional slow-down, gated by min_sample_time.
            if (t - self.last_increase) >= DEFAULT_MIN_SAMPLE_TIME {
                let target = self.table.max_frequency() * load.clamp(0.0, 1.0);
                level = self.table.resolve_at_least(target);
            }
        }
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

    fn tick(t: f64, load: f64) -> GovernorEvent {
        GovernorEvent::Tick { t: Seconds::new(t), vc: Volts::new(5.3), load }
    }

    #[test]
    fn bursts_to_hispeed_on_high_load() {
        let mut g = Interactive::new(FrequencyTable::paper_levels());
        g.start(Seconds::ZERO, Volts::new(5.3), Opp::lowest());
        let action = g.on_event(&tick(0.05, 1.0), Opp::lowest());
        assert_eq!(action.target_opp.unwrap().level(), g.hispeed_level());
    }

    #[test]
    fn climbs_above_hispeed_after_the_dwell() {
        let mut g = Interactive::new(FrequencyTable::paper_levels());
        g.start(Seconds::ZERO, Volts::new(5.3), Opp::lowest());
        let mut level = 0;
        for k in 1..=40 {
            let t = 0.05 * k as f64;
            if let Some(opp) = g.on_event(&tick(t, 1.0), Opp::lowest().with_level(level)).target_opp
            {
                level = opp.level();
            }
        }
        assert_eq!(level, 7, "sustained full load must reach max");
    }

    #[test]
    fn slows_down_after_min_sample_time() {
        let mut g = Interactive::new(FrequencyTable::paper_levels());
        g.start(Seconds::ZERO, Volts::new(5.3), Opp::lowest());
        g.on_event(&tick(0.05, 1.0), Opp::lowest());
        let high = Opp::lowest().with_level(g.hispeed_level());
        // Too soon to slow down.
        let action = g.on_event(&tick(0.06, 0.1), high);
        assert!(action.is_none());
        // After min_sample_time it may slow.
        let action = g.on_event(&tick(0.30, 0.1), high);
        let opp = action.target_opp.unwrap();
        assert!(opp.level() < g.hispeed_level());
    }
}
