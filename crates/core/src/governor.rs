//! The power-neutral governor state machine (paper Fig. 5).
//!
//! On every threshold interrupt the governor performs, in order:
//!
//! 1. **DVFS response** — one step down (on `Vlow`) or up (on `Vhigh`)
//!    through the frequency ladder;
//! 2. **core hot-plug response** — Eqs. (2)–(3): compare the crossing
//!    interval τ against `Vq/β` (big) and `Vq/α` (LITTLE) and
//!    plug/unplug accordingly;
//! 3. **threshold update** — shift both thresholds by `Vq` in the
//!    crossing direction (clamped to the tracking window);
//! 4. restart the τ timer.
//!
//! Compound responses are ordered **core-first on power reductions**
//! (the paper's §IV-A shows this draws ~3× less charge, Table I) and
//! **frequency-first on power increases** (a DVFS step is the fastest
//! way to start exploiting a rising harvest).

use crate::events::{Governor, GovernorAction, GovernorEvent, ThresholdEdge};
use crate::params::ControlParams;
use crate::scaling::{scaling_from_crossing, CoreScaling, CrossingSign};
use crate::thresholds::ThresholdPair;
use crate::CoreError;
use pn_soc::cores::CoreType;
use pn_soc::freq::FrequencyTable;
use pn_soc::opp::Opp;
use pn_soc::platform::Platform;
use pn_soc::transition::TransitionStrategy;
use pn_units::{Seconds, Volts};

/// The interrupt-driven power-neutral governor.
///
/// See the [crate-level documentation](crate) for a worked example.
#[derive(Debug, Clone)]
pub struct PowerNeutralGovernor {
    params: ControlParams,
    frequencies: FrequencyTable,
    thresholds: Option<ThresholdPair>,
    window_min: Volts,
    window_max: Volts,
    last_crossing: Option<Seconds>,
}

impl PowerNeutralGovernor {
    /// Creates a governor for `platform` with the given parameters.
    ///
    /// The threshold tracking window is the platform's operating
    /// window stretched slightly above the rated maximum (the PV
    /// open-circuit voltage bounds the excursion physically).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidPlatform`] if the platform's
    /// frequency table has fewer than two levels (no DVFS to perform).
    pub fn new(params: ControlParams, platform: &Platform) -> Result<Self, CoreError> {
        if platform.frequencies().len() < 2 {
            return Err(CoreError::InvalidPlatform("need at least two frequency levels"));
        }
        let window = platform.voltage_window();
        Ok(Self {
            params,
            frequencies: platform.frequencies().clone(),
            thresholds: None,
            window_min: window.min,
            window_max: window.max + Volts::new(0.2),
            last_crossing: None,
        })
    }

    fn apply_core_scaling(opp: Opp, scaling: CoreScaling) -> Opp {
        let mut config = opp.config();
        if scaling.big > 0 {
            if let Some(next) = config.plugged(CoreType::Big) {
                config = next;
            }
        } else if scaling.big < 0 {
            if let Some(next) = config.unplugged(CoreType::Big) {
                config = next;
            }
        }
        if scaling.little > 0 {
            if let Some(next) = config.plugged(CoreType::Little) {
                config = next;
            }
        } else if scaling.little < 0 {
            if let Some(next) = config.unplugged(CoreType::Little) {
                config = next;
            }
        }
        opp.with_config(config)
    }

    fn handle_crossing(&mut self, edge: ThresholdEdge, t: Seconds, current: Opp) -> GovernorAction {
        let tau = match self.last_crossing {
            Some(prev) => (t - prev).max(Seconds::ZERO),
            // First crossing since start: treat as a slow drift so the
            // response is DVFS-only, matching the paper's conservative
            // start-up behaviour.
            None => Seconds::new(f64::INFINITY),
        };
        self.last_crossing = Some(t);

        // 1. DVFS response (Fig. 5, first box).
        let level = current.level();
        let (new_level, sign) = match edge {
            ThresholdEdge::Low => (self.frequencies.step_down(level), CrossingSign::Falling),
            ThresholdEdge::High => (self.frequencies.step_up(level), CrossingSign::Rising),
        };

        // 2. Core hot-plug response (Eqs. 2–3).
        let scaling = if tau.is_finite() {
            scaling_from_crossing(tau, sign, &self.params)
        } else {
            CoreScaling::NONE
        };
        let mut target = Self::apply_core_scaling(current.with_level(new_level), scaling);
        if target == current {
            target = current; // saturated at a ladder end; nothing to do
        }

        // 3. Threshold update (Fig. 5, last box).
        let thresholds = self.thresholds.as_mut().expect("on_event after start");
        match edge {
            ThresholdEdge::Low => thresholds.shift_down(self.params.v_q()),
            ThresholdEdge::High => thresholds.shift_up(self.params.v_q()),
        }
        let programmed = (thresholds.high(), thresholds.low());

        // Power reductions go core-first (Table I); increases go
        // frequency-first (cheapest way to start consuming more).
        let strategy = match edge {
            ThresholdEdge::Low => TransitionStrategy::CoreFirst,
            ThresholdEdge::High => TransitionStrategy::FrequencyFirst,
        };

        GovernorAction {
            target_opp: if target == current { None } else { Some(target) },
            strategy: Some(strategy),
            thresholds: Some(programmed),
            ..Default::default()
        }
    }
}

impl Governor for PowerNeutralGovernor {
    fn name(&self) -> &str {
        "power-neutral"
    }

    fn start(&mut self, t: Seconds, vc: Volts, current: Opp) -> GovernorAction {
        let pair = ThresholdPair::centered(
            vc,
            self.params.v_width(),
            self.window_min,
            self.window_max,
        )
        .expect("window validated at construction");
        self.thresholds = Some(pair);
        self.last_crossing = Some(t);
        GovernorAction {
            target_opp: Some(current),
            strategy: Some(TransitionStrategy::CoreFirst),
            thresholds: Some((pair.high(), pair.low())),
            ..Default::default()
        }
    }

    fn on_event(&mut self, event: &GovernorEvent, current: Opp) -> GovernorAction {
        match *event {
            GovernorEvent::ThresholdCrossed { edge, t, .. } => {
                self.handle_crossing(edge, t, current)
            }
            // The power-neutral governor is purely interrupt-driven.
            GovernorEvent::Tick { .. } => GovernorAction::none(),
        }
    }

    fn uses_threshold_interrupts(&self) -> bool {
        true
    }

    /// Interrupt-handler cost: read a GPIO, compute the response and
    /// queue the OPP change; the engine adds the SPI rewrite of the two
    /// pot wipers from the monitor's reprogram latency. An assumption:
    /// the paper measures only the whole scheme's CPU share, ≈0.104 %
    /// (Fig. 15), not a per-interrupt cost.
    fn handler_cost(&self) -> Seconds {
        Seconds::new(180e-6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pn_soc::cores::CoreConfig;

    fn governor() -> PowerNeutralGovernor {
        PowerNeutralGovernor::new(
            ControlParams::paper_optimal().unwrap(),
            &Platform::odroid_xu4(),
        )
        .unwrap()
    }

    fn cross(edge: ThresholdEdge, t: f64) -> GovernorEvent {
        GovernorEvent::ThresholdCrossed { edge, vc: Volts::new(5.3), t: Seconds::new(t) }
    }

    #[test]
    fn start_centres_thresholds_per_eq1() {
        let mut g = governor();
        let action = g.start(Seconds::ZERO, Volts::new(5.3), Opp::lowest());
        let (high, low) = action.thresholds.unwrap();
        assert!((high.value() - (5.3 + 0.144 / 2.0)).abs() < 1e-9);
        assert!((low.value() - (5.3 - 0.144 / 2.0)).abs() < 1e-9);
    }

    #[test]
    fn first_crossing_is_dvfs_only() {
        let mut g = governor();
        let opp = Opp::new(CoreConfig::new(4, 2).unwrap(), 5);
        g.start(Seconds::ZERO, Volts::new(5.3), opp);
        // Even though this first crossing happens "instantly", τ is
        // measured from start (0.5 s) — slow — so no core change.
        let action = g.on_event(&cross(ThresholdEdge::Low, 0.5), opp);
        let target = action.target_opp.unwrap();
        assert_eq!(target.level(), 4);
        assert_eq!(target.config(), opp.config());
    }

    #[test]
    fn fast_fall_removes_big_and_little() {
        let mut g = governor();
        let opp = Opp::new(CoreConfig::new(4, 2).unwrap(), 5);
        g.start(Seconds::ZERO, Volts::new(5.3), opp);
        g.on_event(&cross(ThresholdEdge::Low, 1.0), opp);
        // Second crossing 50 ms later: τ = 0.05 < Vq/β = 0.1 s.
        let action = g.on_event(&cross(ThresholdEdge::Low, 1.05), opp.with_level(4));
        let target = action.target_opp.unwrap();
        assert_eq!(target.level(), 3);
        assert_eq!(target.config(), CoreConfig::new(3, 1).unwrap());
        assert_eq!(action.strategy, Some(TransitionStrategy::CoreFirst));
    }

    #[test]
    fn moderate_fall_removes_only_little() {
        let mut g = governor();
        let opp = Opp::new(CoreConfig::new(4, 2).unwrap(), 5);
        g.start(Seconds::ZERO, Volts::new(5.3), opp);
        g.on_event(&cross(ThresholdEdge::Low, 1.0), opp);
        // τ = 0.2 s: between Vq/β = 0.1 s and Vq/α ≈ 0.4 s.
        let action = g.on_event(&cross(ThresholdEdge::Low, 1.2), opp.with_level(4));
        let target = action.target_opp.unwrap();
        assert_eq!(target.config(), CoreConfig::new(3, 2).unwrap());
    }

    #[test]
    fn rising_mirror_adds_cores_frequency_first() {
        let mut g = governor();
        let opp = Opp::new(CoreConfig::new(2, 0).unwrap(), 2);
        g.start(Seconds::ZERO, Volts::new(5.0), opp);
        g.on_event(&cross(ThresholdEdge::High, 1.0), opp);
        let action = g.on_event(&cross(ThresholdEdge::High, 1.05), opp.with_level(3));
        let target = action.target_opp.unwrap();
        assert_eq!(target.level(), 4);
        assert_eq!(target.config(), CoreConfig::new(3, 1).unwrap());
        assert_eq!(action.strategy, Some(TransitionStrategy::FrequencyFirst));
    }

    #[test]
    fn saturation_at_the_bottom_yields_threshold_only_action() {
        let mut g = governor();
        let opp = Opp::lowest();
        g.start(Seconds::ZERO, Volts::new(4.3), opp);
        let action = g.on_event(&cross(ThresholdEdge::Low, 2.0), opp);
        // Nothing left to reduce, but the thresholds still track down.
        assert!(action.target_opp.is_none());
        assert!(action.thresholds.is_some());
    }

    #[test]
    fn thresholds_track_the_crossings() {
        let mut g = governor();
        let opp = Opp::new(CoreConfig::new(4, 0).unwrap(), 4);
        let start = g.start(Seconds::ZERO, Volts::new(5.3), opp);
        let (h0, _) = start.thresholds.unwrap();
        let a1 = g.on_event(&cross(ThresholdEdge::Low, 1.0), opp);
        let (h1, _) = a1.thresholds.unwrap();
        let v_q = ControlParams::paper_optimal().unwrap().v_q();
        assert!((h0 - h1 - v_q).abs() < Volts::new(1e-9));
    }

    #[test]
    fn tick_events_are_ignored() {
        let mut g = governor();
        let opp = Opp::lowest();
        g.start(Seconds::ZERO, Volts::new(5.0), opp);
        let action = g.on_event(
            &GovernorEvent::Tick { t: Seconds::new(1.0), vc: Volts::new(5.0), load: 1.0 },
            opp,
        );
        assert!(action.is_none());
    }

    #[test]
    fn requires_a_usable_frequency_table() {
        use pn_soc::freq::FrequencyTable;
        use pn_soc::latency::LatencyModel;
        use pn_soc::perf::PerfModel;
        use pn_soc::platform::VoltageWindow;
        use pn_soc::power::PowerModel;
        let single = Platform::new(
            "single-level",
            FrequencyTable::new(vec![pn_units::Hertz::from_gigahertz(1.0)]).unwrap(),
            PowerModel::odroid_xu4(),
            PerfModel::odroid_xu4(),
            LatencyModel::odroid_xu4(),
            VoltageWindow::odroid_xu4(),
            Volts::new(5.3),
        )
        .unwrap();
        assert!(matches!(
            PowerNeutralGovernor::new(ControlParams::paper_optimal().unwrap(), &single),
            Err(CoreError::InvalidPlatform(_))
        ));
    }
}
