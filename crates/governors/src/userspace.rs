//! The `userspace` governor: a fixed, user-chosen frequency.

use pn_core::events::{Governor, GovernorAction, GovernorEvent};
use pn_soc::opp::Opp;
use pn_units::{Seconds, Volts};

/// Pins a fixed frequency level chosen by the user.
///
/// # Examples
///
/// ```
/// use pn_core::events::Governor;
/// use pn_governors::Userspace;
/// use pn_soc::opp::Opp;
/// use pn_units::{Seconds, Volts};
///
/// let mut gov = Userspace::pinned(4);
/// let action = gov.start(Seconds::ZERO, Volts::new(5.3), Opp::lowest());
/// assert_eq!(action.target_opp.unwrap().level(), 4);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Userspace {
    level: usize,
}

impl Userspace {
    /// Creates the governor pinned to an explicit level index.
    pub fn pinned(level: usize) -> Self {
        Self { level }
    }
}

impl Governor for Userspace {
    fn name(&self) -> &str {
        "userspace"
    }

    fn start(&mut self, _t: Seconds, _vc: Volts, current: Opp) -> GovernorAction {
        GovernorAction { target_opp: Some(current.with_level(self.level)), ..Default::default() }
    }

    fn on_event(&mut self, _event: &GovernorEvent, current: Opp) -> GovernorAction {
        if current.level() == self.level {
            GovernorAction::none()
        } else {
            GovernorAction {
                target_opp: Some(current.with_level(self.level)),
                ..Default::default()
            }
        }
    }

    fn tick_period(&self) -> Option<Seconds> {
        Some(Seconds::new(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn start_requests_pinned_level() {
        let mut g = Userspace::pinned(3);
        let action = g.start(Seconds::ZERO, Volts::new(5.0), Opp::lowest());
        assert_eq!(action.target_opp.unwrap().level(), 3);
    }

    #[test]
    fn steady_state_is_a_no_op() {
        let mut g = Userspace::pinned(0);
        let action = g.on_event(
            &GovernorEvent::Tick { t: Seconds::new(1.0), vc: Volts::new(5.0), load: 1.0 },
            Opp::lowest(),
        );
        assert!(action.is_none());
    }
}
