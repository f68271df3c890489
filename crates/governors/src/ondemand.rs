//! The `ondemand` governor: jump to max on high load, scale down
//! proportionally otherwise.
//!
//! Policy semantics follow the classic kernel implementation: every
//! sampling period the governor inspects the load of the busiest CPU;
//! above `up_threshold` it requests the maximum frequency outright,
//! otherwise it requests `load × f_max` resolved with `RELATION_L`.

use pn_core::events::{Governor, GovernorAction, GovernorEvent};
use pn_soc::freq::FrequencyTable;
use pn_soc::opp::Opp;
use pn_units::{Seconds, Volts};

/// The kernel's default `up_threshold` (percent of full load).
pub const DEFAULT_UP_THRESHOLD: f64 = 0.80;

/// The kernel's default sampling rate for our platform class.
pub const DEFAULT_SAMPLING_PERIOD: Seconds = Seconds::new(0.1);

/// The `ondemand` cpufreq governor.
///
/// On a CPU-bound workload (the paper's ray tracer) the load is pinned
/// at 100 %, so ondemand behaves like `performance` after one sampling
/// period — and dies just as quickly on a 3 W harvest.
///
/// # Examples
///
/// ```
/// use pn_core::events::{Governor, GovernorEvent};
/// use pn_governors::Ondemand;
/// use pn_soc::freq::FrequencyTable;
/// use pn_soc::opp::Opp;
/// use pn_units::{Seconds, Volts};
///
/// let mut gov = Ondemand::new(FrequencyTable::paper_levels());
/// let tick = GovernorEvent::Tick { t: Seconds::new(0.1), vc: Volts::new(5.3), load: 1.0 };
/// let action = gov.on_event(&tick, Opp::lowest());
/// assert_eq!(action.target_opp.unwrap().level(), 7); // straight to max
/// ```
#[derive(Debug, Clone)]
pub struct Ondemand {
    table: FrequencyTable,
}

impl Ondemand {
    /// Creates the governor with kernel-default tunables.
    pub fn new(table: FrequencyTable) -> Self {
        Self { table }
    }

    fn select_level(&self, load: f64) -> usize {
        if load >= DEFAULT_UP_THRESHOLD {
            return self.table.max_level();
        }
        // freq_next = load × max_freq, resolved upward.
        let target = self.table.max_frequency() * load.clamp(0.0, 1.0);
        self.table.resolve_at_least(target)
    }
}

impl Governor for Ondemand {
    fn name(&self) -> &str {
        "ondemand"
    }

    fn start(&mut self, _t: Seconds, _vc: Volts, current: Opp) -> GovernorAction {
        // Kernel boots the policy at its current speed; first sample
        // decides the real target.
        GovernorAction { target_opp: Some(current), ..Default::default() }
    }

    fn on_event(&mut self, event: &GovernorEvent, current: Opp) -> GovernorAction {
        let GovernorEvent::Tick { load, .. } = *event else {
            return GovernorAction::none();
        };
        let level = self.select_level(load);
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
    use proptest::prelude::*;

    fn tick(load: f64) -> GovernorEvent {
        GovernorEvent::Tick { t: Seconds::new(0.1), vc: Volts::new(5.3), load }
    }

    #[test]
    fn saturated_load_jumps_to_max() {
        let mut g = Ondemand::new(FrequencyTable::paper_levels());
        let action = g.on_event(&tick(1.0), Opp::lowest());
        assert_eq!(action.target_opp.unwrap().level(), 7);
    }

    #[test]
    fn light_load_scales_proportionally() {
        let mut g = Ondemand::new(FrequencyTable::paper_levels());
        // 30 % of 1.4 GHz = 0.42 GHz → level 1 (0.45 GHz).
        let action = g.on_event(&tick(0.3), Opp::lowest().with_level(7));
        assert_eq!(action.target_opp.unwrap().level(), 1);
    }

    #[test]
    fn steady_state_is_a_no_op() {
        let mut g = Ondemand::new(FrequencyTable::paper_levels());
        let action = g.on_event(&tick(1.0), Opp::lowest().with_level(7));
        assert!(action.is_none());
    }

    proptest! {
        #[test]
        fn selected_level_is_monotone_in_load(l1 in 0.0f64..1.0, dl in 0.0f64..0.5) {
            let g = Ondemand::new(FrequencyTable::paper_levels());
            let l2 = (l1 + dl).min(1.0);
            prop_assert!(g.select_level(l2) >= g.select_level(l1));
        }
    }
}
