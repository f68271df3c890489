//! The `budget-shift` governor: a shared power budget reallocated
//! between the LITTLE and big domains every sampling period.
//!
//! SysScale-style multi-domain management: instead of stepping one
//! combined ladder, the governor maintains a watt budget derived from
//! the buffer's state of charge and asks the shared-budget allocator
//! ([`PowerBudget::allocate`]) for the throughput-maximal per-domain
//! split that fits. Surplus charge grows the budget — watts flow into
//! the big domain; deficit shrinks it — the big cluster drains first
//! and the remaining budget concentrates in the efficient LITTLE
//! domain.
//!
//! A decision is a lookup: the governor holds the platform's
//! [`OppTable`], whose budget frontier lists, in ascending watts, every
//! budget at which the best allocation changes. Each tick binary-searches
//! it instead of rescanning all (config, level) candidates. A candidate
//! is admitted once the budget covers its config's running maximum
//! power over levels `0..=level`; among those the highest instruction
//! throughput wins, then the lower power, then the earlier candidate.

use pn_core::events::{Governor, GovernorAction, GovernorEvent};
use pn_soc::domain::PowerBudget;
use pn_soc::opp::Opp;
use pn_soc::opp_table::OppTable;
use pn_soc::platform::Platform;
use pn_soc::transition::TransitionStrategy;
use pn_units::{Seconds, Volts, Watts};
use std::sync::Arc;

/// Default proportional gain: watts of budget per volt of charge held
/// above the reserve voltage.
const DEFAULT_GAIN_W_PER_V: f64 = 5.0;

/// Default reserve voltage: the budget reaches zero here, comfortably
/// above the platform's 4.1 V brown-out floor.
const DEFAULT_RESERVE: Volts = Volts::new(4.6);

/// Default sampling period. Deliberately short: a small supercapacitor
/// buffer (the paper's 47 mF point sees ~4 V/s of sag under a
/// mis-sized plan) can burn through the whole reserve between two slow
/// ticks, and the budget must shrink before the floor is reached.
const DEFAULT_PERIOD: Seconds = Seconds::new(0.1);

/// Sampling multi-domain governor planning against a shared budget.
///
/// Each tick the watt budget is proportional to the charge held above
/// a reserve voltage — an absolute control law, so the same `VC`
/// always buys the same per-domain allocation. The buffer settles
/// where the allocation's draw meets the harvest: surplus charge
/// raises `VC` and watts flow into the big domain; deficit drains it
/// and the plan retreats toward the LITTLE-only floor.
///
/// # Examples
///
/// ```
/// use pn_core::events::Governor;
/// use pn_governors::BudgetShift;
/// use pn_soc::platform::Platform;
/// use pn_units::{Seconds, Volts};
///
/// let mut gov = BudgetShift::for_platform(&Platform::odroid_xu4());
/// // 5.3 V holds 0.7 V over the reserve: a 3.5 W budget.
/// let action = gov.start(Seconds::ZERO, Volts::new(5.3), pn_soc::opp::Opp::lowest());
/// assert!(action.target_opp.is_some());
/// ```
#[derive(Debug, Clone)]
pub struct BudgetShift {
    points: Arc<OppTable>,
    target_voltage: Volts,
}

impl BudgetShift {
    /// Creates the governor planning with `platform`'s operating-point
    /// table, servoing around its target voltage.
    pub fn for_platform(platform: &Platform) -> Self {
        Self {
            points: Arc::clone(platform.opp_table()),
            target_voltage: platform.target_voltage(),
        }
    }

    fn plan(&self, vc: Volts, current: Opp) -> GovernorAction {
        let headroom = vc.value() - DEFAULT_RESERVE.value();
        let budget_w = (DEFAULT_GAIN_W_PER_V * headroom).max(0.0);
        let budget = PowerBudget::new(Watts::new(budget_w)).expect("budget is clamped finite");
        let target = match budget.allocate(&self.points) {
            Some((opp, _)) => opp,
            // Even the floor point is over budget: retreat to it and
            // let harvest refill the buffer.
            None => Opp::lowest(),
        };
        if target == current {
            return GovernorAction::none();
        }
        // Sagging buffers shed cores first (fastest power drop);
        // charged ones raise frequency first, then plug cores in.
        let strategy = if vc < self.target_voltage {
            TransitionStrategy::CoreFirst
        } else {
            TransitionStrategy::FrequencyFirst
        };
        GovernorAction {
            target_opp: Some(target),
            strategy: Some(strategy),
            ..Default::default()
        }
    }
}

impl Governor for BudgetShift {
    fn name(&self) -> &str {
        "budget-shift"
    }

    fn start(&mut self, _t: Seconds, vc: Volts, current: Opp) -> GovernorAction {
        self.plan(vc, current)
    }

    fn on_event(&mut self, event: &GovernorEvent, current: Opp) -> GovernorAction {
        let GovernorEvent::Tick { vc, .. } = *event else {
            return GovernorAction::none();
        };
        self.plan(vc, current)
    }

    fn tick_period(&self) -> Option<Seconds> {
        Some(DEFAULT_PERIOD)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gov() -> BudgetShift {
        BudgetShift::for_platform(&Platform::odroid_xu4())
    }

    fn tick(vc: f64) -> GovernorEvent {
        GovernorEvent::Tick { t: Seconds::new(1.0), vc: Volts::new(vc), load: 1.0 }
    }

    /// The allocation the governor settles on at `vc` — replanning
    /// from it at the same voltage moves nowhere.
    fn settled(g: &mut BudgetShift, vc: f64) -> Opp {
        g.on_event(&tick(vc), Opp::lowest()).target_opp.unwrap_or_else(Opp::lowest)
    }

    #[test]
    fn the_control_law_is_absolute_and_idempotent() {
        let mut g = gov();
        // The same VC always buys the same allocation, regardless of
        // the point the governor is currently at...
        let planned = settled(&mut g, 5.3);
        assert_ne!(planned, Opp::lowest(), "0.7 V of headroom buys more than the floor");
        // ...so replanning from the settled point requests nothing.
        let action = g.on_event(&tick(5.3), planned);
        assert!(action.is_none(), "plan moved at the fixed point: {action:?}");
    }

    #[test]
    fn surplus_grows_the_allocation_deficit_shrinks_it() {
        let mut g = gov();
        let base = settled(&mut g, 5.3);
        let platform = Platform::odroid_xu4();
        let p = |opp: Opp| opp.power(platform.power(), platform.frequencies()).unwrap();
        let up = g.on_event(&tick(5.9), base).target_opp.expect("surplus moves the plan");
        assert!(p(up) > p(base), "surplus should buy a hungrier point");
        assert_eq!(g.on_event(&tick(5.9), base).strategy, Some(TransitionStrategy::FrequencyFirst));
        let down = g.on_event(&tick(4.8), base).target_opp.expect("deficit moves the plan");
        assert!(p(down) < p(base), "deficit should shed power");
        assert_eq!(g.on_event(&tick(4.8), base).strategy, Some(TransitionStrategy::CoreFirst));
    }

    #[test]
    fn collapse_retreats_to_the_floor_point() {
        let mut g = gov();
        let all_cores = pn_soc::cores::CoreConfig::new(4, 4).unwrap();
        // Below the reserve the budget is zero: nothing fits, so the
        // plan retreats to the floor point and waits for harvest.
        let action = g.start(Seconds::ZERO, Volts::new(4.5), Opp::new(all_cores, 7));
        assert_eq!(action.target_opp.unwrap(), Opp::lowest());
        assert_eq!(action.strategy, Some(TransitionStrategy::CoreFirst));
    }

    #[test]
    fn crossings_are_ignored() {
        use pn_core::events::ThresholdEdge;
        let mut g = gov();
        let event = GovernorEvent::ThresholdCrossed {
            edge: ThresholdEdge::Low,
            vc: Volts::new(4.5),
            t: Seconds::new(1.0),
        };
        assert!(g.on_event(&event, Opp::lowest()).is_none());
        assert!(!g.uses_threshold_interrupts());
        assert_eq!(g.tick_period(), Some(DEFAULT_PERIOD));
    }
}
