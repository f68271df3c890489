//! The governor interface shared by the power-neutral controller and
//! the baseline Linux governors.
//!
//! The co-simulation drives every governor through the same [`Governor`]
//! trait: interrupt-driven governors receive
//! [`GovernorEvent::ThresholdCrossed`] events from the (modelled)
//! monitoring hardware; sampling governors receive periodic
//! [`GovernorEvent::Tick`]s carrying the CPU load, exactly as Linux
//! cpufreq governors sample utilisation.

use pn_soc::opp::Opp;
use pn_soc::transition::TransitionStrategy;
use pn_units::{Seconds, Volts};

/// Which dynamic threshold was crossed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThresholdEdge {
    /// `Vhigh` crossed from below — harvest is outrunning consumption.
    High,
    /// `Vlow` crossed from above — consumption is outrunning harvest.
    Low,
}

/// An input event delivered to a governor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GovernorEvent {
    /// The monitoring hardware raised a threshold interrupt.
    ThresholdCrossed {
        /// Which threshold fired.
        edge: ThresholdEdge,
        /// Supply voltage at the crossing.
        vc: Volts,
        /// Simulation time of the crossing.
        t: Seconds,
    },
    /// A periodic sampling tick (Linux-governor style).
    Tick {
        /// Simulation time of the tick.
        t: Seconds,
        /// Supply voltage at the tick.
        vc: Volts,
        /// CPU load in `[0, 1]` over the last sampling window.
        load: f64,
    },
}

/// A requested idle (DPM) move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IdleRequest {
    /// Drop into the platform's idle state with this ladder index
    /// (0 = shallowest). Out-of-range indices clamp to the deepest
    /// state; ignored on platforms with no idle states.
    Enter(usize),
    /// Wake from the current idle state.
    Exit,
}

/// What a governor wants done in response to an event.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GovernorAction {
    /// Requested operating performance point, if any change is wanted.
    pub target_opp: Option<Opp>,
    /// Ordering for compound OPP changes.
    pub strategy: Option<TransitionStrategy>,
    /// New `(high, low)` thresholds to program into the monitor.
    pub thresholds: Option<(Volts, Volts)>,
    /// Requested idle-state move, if any.
    pub idle: Option<IdleRequest>,
}

impl GovernorAction {
    /// An action requesting nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// `true` when the action requests no change at all.
    pub fn is_none(&self) -> bool {
        self.target_opp.is_none() && self.thresholds.is_none() && self.idle.is_none()
    }
}

/// A dynamic power-management policy.
///
/// Implementations must be deterministic: the same event sequence must
/// produce the same actions (all experiments in this workspace are
/// seeded and reproducible).
pub trait Governor {
    /// Human-readable policy name (e.g. `"power-neutral"`,
    /// `"ondemand"`).
    fn name(&self) -> &str;

    /// Called once when the system starts; returns the initial action
    /// (initial OPP and, for interrupt-driven governors, the initial
    /// thresholds per the paper's Eq. 1).
    fn start(&mut self, t: Seconds, vc: Volts, current: Opp) -> GovernorAction;

    /// Called for every event the governor subscribed to.
    fn on_event(&mut self, event: &GovernorEvent, current: Opp) -> GovernorAction;

    /// Sampling period for [`GovernorEvent::Tick`] delivery; `None`
    /// for purely interrupt-driven governors.
    fn tick_period(&self) -> Option<Seconds> {
        None
    }

    /// `true` when the governor wants threshold interrupts from the
    /// monitoring hardware.
    fn uses_threshold_interrupts(&self) -> bool {
        false
    }

    /// CPU time consumed by one event handler invocation, used for the
    /// Fig. 15 overhead accounting. The default, 30 µs, is an
    /// assumption for a lightweight kernel-governor callback: the paper
    /// measures no baseline governor's handler.
    fn handler_cost(&self) -> Seconds {
        Seconds::new(30e-6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Null;

    impl Governor for Null {
        fn name(&self) -> &str {
            "null"
        }
        fn start(&mut self, _t: Seconds, _vc: Volts, _current: Opp) -> GovernorAction {
            GovernorAction::none()
        }
        fn on_event(&mut self, _event: &GovernorEvent, _current: Opp) -> GovernorAction {
            GovernorAction::none()
        }
    }

    #[test]
    fn default_action_is_none() {
        let a = GovernorAction::none();
        assert!(a.is_none());
        assert!(a.target_opp.is_none());
    }

    #[test]
    fn trait_defaults() {
        let g = Null;
        assert_eq!(g.tick_period(), None);
        assert!(!g.uses_threshold_interrupts());
        assert!(g.handler_cost().value() > 0.0);
    }

    #[test]
    fn governor_is_object_safe() {
        let mut g: Box<dyn Governor> = Box::new(Null);
        let action = g.start(Seconds::ZERO, Volts::new(5.0), Opp::lowest());
        assert!(action.is_none());
    }
}
