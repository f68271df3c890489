//! The `race-to-idle` governor: sprint at full speed, then sleep.
//!
//! Classic DPM doctrine: finishing work quickly and dropping into a
//! deep idle state often beats running slowly, because idle power is
//! far below even the lowest active OPP. This governor applies the
//! doctrine to a harvesting buffer — race at the top frequency while
//! the capacitor holds charge, and dive into the deepest idle state
//! the moment the low threshold fires, waking again once harvest has
//! refilled the buffer past the high threshold.

use pn_core::events::{Governor, GovernorAction, GovernorEvent, IdleRequest, ThresholdEdge};
use pn_soc::opp::Opp;
use pn_units::{Seconds, Volts};

/// Wake threshold: above this much stored charge, racing resumes.
pub const DEFAULT_HIGH_THRESHOLD: Volts = Volts::new(5.2);

/// Sleep threshold: below this, the governor parks the SoC.
pub const DEFAULT_LOW_THRESHOLD: Volts = Volts::new(4.6);

/// Interrupt-driven race-to-idle policy.
///
/// Unlike the power-neutral controller, the thresholds are static —
/// the pair forms a hysteresis band, not a tracking window — and the
/// response to a crossing is an idle-state move, not an OPP step.
///
/// # Examples
///
/// ```
/// use pn_core::events::{Governor, IdleRequest};
/// use pn_governors::RaceToIdle;
/// use pn_soc::opp::Opp;
/// use pn_units::{Seconds, Volts};
///
/// let mut gov = RaceToIdle::new();
/// let action = gov.start(Seconds::ZERO, Volts::new(5.3), Opp::lowest());
/// assert_eq!(action.target_opp.unwrap().level(), usize::MAX); // race flat out
/// assert!(action.thresholds.is_some());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct RaceToIdle;

impl RaceToIdle {
    /// Creates the governor with the default hysteresis band.
    pub fn new() -> Self {
        Self
    }

    fn race(current: Opp) -> GovernorAction {
        // `usize::MAX` is the conventional "top level" request; the
        // runtime clamps it to the platform table.
        GovernorAction { target_opp: Some(current.with_level(usize::MAX)), ..Default::default() }
    }
}

impl Governor for RaceToIdle {
    fn name(&self) -> &str {
        "race-to-idle"
    }

    fn start(&mut self, _t: Seconds, _vc: Volts, current: Opp) -> GovernorAction {
        GovernorAction {
            thresholds: Some((DEFAULT_HIGH_THRESHOLD, DEFAULT_LOW_THRESHOLD)),
            ..Self::race(current)
        }
    }

    fn on_event(&mut self, event: &GovernorEvent, current: Opp) -> GovernorAction {
        let GovernorEvent::ThresholdCrossed { edge, .. } = *event else {
            return GovernorAction::none();
        };
        match edge {
            // Buffer sagging: park in the deepest idle state the
            // platform offers (the index clamps to the ladder).
            ThresholdEdge::Low => GovernorAction {
                idle: Some(IdleRequest::Enter(usize::MAX)),
                ..Default::default()
            },
            // Buffer recovered: wake and race again. The OPP request
            // lands once the exit transition resolves.
            ThresholdEdge::High => GovernorAction {
                idle: Some(IdleRequest::Exit),
                ..Self::race(current)
            },
        }
    }

    fn uses_threshold_interrupts(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crossing(edge: ThresholdEdge, vc: f64) -> GovernorEvent {
        GovernorEvent::ThresholdCrossed { edge, vc: Volts::new(vc), t: Seconds::new(1.0) }
    }

    #[test]
    fn starts_racing_with_a_static_band() {
        let mut g = RaceToIdle::new();
        let action = g.start(Seconds::ZERO, Volts::new(5.3), Opp::lowest());
        assert_eq!(action.target_opp.unwrap().level(), usize::MAX);
        assert_eq!(action.thresholds, Some((DEFAULT_HIGH_THRESHOLD, DEFAULT_LOW_THRESHOLD)));
        assert!(action.idle.is_none());
    }

    #[test]
    fn low_crossing_dives_into_the_deepest_idle_state() {
        let mut g = RaceToIdle::new();
        g.start(Seconds::ZERO, Volts::new(5.3), Opp::lowest());
        let action = g.on_event(&crossing(ThresholdEdge::Low, 4.59), Opp::lowest());
        assert_eq!(action.idle, Some(IdleRequest::Enter(usize::MAX)));
        assert!(action.target_opp.is_none(), "no OPP step while parking");
    }

    #[test]
    fn high_crossing_wakes_and_races() {
        let mut g = RaceToIdle::new();
        g.start(Seconds::ZERO, Volts::new(5.3), Opp::lowest());
        let action = g.on_event(&crossing(ThresholdEdge::High, 5.21), Opp::lowest());
        assert_eq!(action.idle, Some(IdleRequest::Exit));
        assert_eq!(action.target_opp.unwrap().level(), usize::MAX);
    }

    #[test]
    fn ticks_are_ignored() {
        let mut g = RaceToIdle::new();
        let tick = GovernorEvent::Tick { t: Seconds::new(1.0), vc: Volts::new(5.0), load: 1.0 };
        assert!(g.on_event(&tick, Opp::lowest()).is_none());
        assert!(g.uses_threshold_interrupts());
        assert_eq!(g.tick_period(), None);
    }
}
