//! DVFS and core hot-plug transition latencies (Fig. 10).
//!
//! Fig. 10 measures two overheads on the ODROID XU4:
//!
//! * **core hot-plug** (top panel): tens of milliseconds per core, and
//!   markedly *slower at low clock frequency* — the kernel's hot-plug
//!   path itself runs on the throttled cores (≈8–15 ms at 1.4 GHz but
//!   20–40 ms at 200 MHz);
//! * **DVFS** (bottom panel): single milliseconds per level change,
//!   growing slightly with the number of online cores and marginally
//!   more expensive for down-transitions.
//!
//! This asymmetry is the paper's whole argument for Table I: reducing
//! performance *core-first* is far cheaper than *frequency-first*,
//! because frequency-first is forced to hot-plug at 200 MHz.

use crate::cores::CoreConfig;
use crate::SocError;
use pn_units::{Hertz, Joules, Seconds, Watts};
use std::fmt;

/// Direction of a frequency change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DvfsDirection {
    /// Moving to a higher frequency.
    Up,
    /// Moving to a lower frequency.
    Down,
}

/// The calibrated transition-latency model.
///
/// # Examples
///
/// ```
/// use pn_soc::latency::LatencyModel;
/// use pn_units::Hertz;
///
/// let lat = LatencyModel::odroid_xu4();
/// let slow = lat.hotplug_latency(8, Hertz::from_gigahertz(0.2));
/// let fast = lat.hotplug_latency(8, Hertz::from_gigahertz(1.4));
/// assert!(slow > fast * 2.0); // hot-plugging at 200 MHz is much slower
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Hot-plug base latency in milliseconds.
    hotplug_base_ms: f64,
    /// Hot-plug latency growth per (target) online-core count, ms.
    hotplug_per_core_ms: f64,
    /// Frequency sensitivity of hot-plug: multiplies by `1 + k/f_GHz`.
    hotplug_freq_factor: f64,
    /// DVFS base latency in milliseconds.
    dvfs_base_ms: f64,
    /// DVFS latency growth per online core, ms.
    dvfs_per_core_ms: f64,
    /// Extra DVFS latency for down-transitions, ms.
    dvfs_down_extra_ms: f64,
}

impl LatencyModel {
    /// Creates a model from explicit parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidParameter`] for negative terms.
    fn new(
        hotplug_base_ms: f64,
        hotplug_per_core_ms: f64,
        hotplug_freq_factor: f64,
        dvfs_base_ms: f64,
        dvfs_per_core_ms: f64,
        dvfs_down_extra_ms: f64,
    ) -> Result<Self, SocError> {
        let all = [
            hotplug_base_ms,
            hotplug_per_core_ms,
            hotplug_freq_factor,
            dvfs_base_ms,
            dvfs_per_core_ms,
            dvfs_down_extra_ms,
        ];
        if all.iter().any(|x| *x < 0.0 || !x.is_finite()) {
            return Err(SocError::InvalidParameter("latency terms must be non-negative"));
        }
        Ok(Self {
            hotplug_base_ms,
            hotplug_per_core_ms,
            hotplug_freq_factor,
            dvfs_base_ms,
            dvfs_per_core_ms,
            dvfs_down_extra_ms,
        })
    }

    /// The calibrated ODROID XU4 model (Fig. 10).
    pub fn odroid_xu4() -> Self {
        Self::new(3.0, 0.45, 0.8, 0.8, 0.18, 0.4).expect("preset latency model is valid")
    }

    /// Latency of one hot-plug operation whose *end state* has
    /// `target_total` online cores, performed while running at clock
    /// frequency `f`. Covers both plug and unplug (Fig. 10, top).
    pub fn hotplug_latency(&self, target_total: u8, f: Hertz) -> Seconds {
        let f_ghz = f.to_gigahertz().max(0.05);
        let ms = (self.hotplug_base_ms + self.hotplug_per_core_ms * f64::from(target_total))
            * (1.0 + self.hotplug_freq_factor / f_ghz);
        Seconds::from_millis(ms)
    }

    /// Latency of a single-level frequency change at the given core
    /// configuration (Fig. 10, bottom).
    pub fn dvfs_latency(&self, config: CoreConfig, direction: DvfsDirection) -> Seconds {
        let mut ms = self.dvfs_base_ms + self.dvfs_per_core_ms * f64::from(config.total());
        if direction == DvfsDirection::Down {
            ms += self.dvfs_down_extra_ms;
        }
        Seconds::from_millis(ms)
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self::odroid_xu4()
    }
}

/// A platform idle (C-)state: a sleep mode the whole SoC can drop
/// into between work, trading wake-up latency for residency power.
///
/// Entry and exit are *not free*: both take wall-clock time during
/// which the SoC still burns power and cannot respond to interrupts,
/// and the transition itself dissipates `transition_energy` (cache
/// flush, rail ramp, context save/restore).
#[derive(Debug, Clone, PartialEq)]
pub struct IdleState {
    name: &'static str,
    power: Watts,
    entry_latency: Seconds,
    exit_latency: Seconds,
    min_residency: Seconds,
    transition_energy: Joules,
}

impl IdleState {
    /// Creates an idle state.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidParameter`] for negative or
    /// non-finite parameters, or an empty name.
    pub fn new(
        name: &'static str,
        power: Watts,
        entry_latency: Seconds,
        exit_latency: Seconds,
        min_residency: Seconds,
        transition_energy: Joules,
    ) -> Result<Self, SocError> {
        let all = [
            power.value(),
            entry_latency.value(),
            exit_latency.value(),
            min_residency.value(),
            transition_energy.value(),
        ];
        if name.is_empty() {
            return Err(SocError::InvalidParameter("idle state needs a name"));
        }
        if all.iter().any(|x| *x < 0.0 || !x.is_finite()) {
            return Err(SocError::InvalidParameter("idle state terms must be non-negative"));
        }
        Ok(Self { name, power, entry_latency, exit_latency, min_residency, transition_energy })
    }

    /// The state's name (e.g. `"shallow"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Board power while resident in the state.
    pub fn power(&self) -> Watts {
        self.power
    }

    /// Time to enter the state; interrupts are masked and active power
    /// is still drawn.
    pub fn entry_latency(&self) -> Seconds {
        self.entry_latency
    }

    /// Time to leave the state after a wake event.
    pub fn exit_latency(&self) -> Seconds {
        self.exit_latency
    }

    /// Minimum time the SoC must stay resident once entered (hardware
    /// rail-settling floor); wake events during the floor are honoured
    /// only after it elapses.
    pub fn min_residency(&self) -> Seconds {
        self.min_residency
    }

    /// Energy dissipated by one enter+exit round trip on top of the
    /// latencies' power draw.
    pub fn transition_energy(&self) -> Joules {
        self.transition_energy
    }

    /// Round-trip latency overhead: entry plus exit.
    pub fn overhead(&self) -> Seconds {
        self.entry_latency + self.exit_latency
    }
}

impl fmt::Display for IdleState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} W)", self.name, self.power.value())
    }
}

/// The ODROID XU4 idle ladder: a shallow clock-gated state (WFI-like,
/// microsecond-scale transitions) and a deep rail-gated state
/// (suspend-like, millisecond-scale transitions with a residency
/// floor). Ordered shallow to deep.
pub fn odroid_xu4_idle_states() -> Vec<IdleState> {
    vec![
        IdleState::new(
            "shallow",
            Watts::new(1.25),
            Seconds::from_millis(0.5),
            Seconds::from_millis(0.5),
            Seconds::from_millis(1.0),
            Joules::new(0.5e-3),
        )
        .expect("preset shallow idle state is valid"),
        IdleState::new(
            "deep",
            Watts::new(0.85),
            Seconds::from_millis(4.0),
            Seconds::from_millis(8.0),
            Seconds::from_millis(50.0),
            Joules::new(20e-3),
        )
        .expect("preset deep idle state is valid"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ghz(g: f64) -> Hertz {
        Hertz::from_gigahertz(g)
    }

    #[test]
    fn fig10_hotplug_magnitudes() {
        let lat = LatencyModel::odroid_xu4();
        // At 200 MHz: ~20–40 ms per transition.
        let at_02 = lat.hotplug_latency(8, ghz(0.2)).to_millis();
        assert!(at_02 > 20.0 && at_02 < 45.0, "got {at_02} ms");
        // At 1.4 GHz: ~5–20 ms per transition.
        let at_14 = lat.hotplug_latency(8, ghz(1.4)).to_millis();
        assert!(at_14 > 5.0 && at_14 < 20.0, "got {at_14} ms");
    }

    #[test]
    fn fig10_dvfs_magnitudes() {
        let lat = LatencyModel::odroid_xu4();
        for total in [1u8, 4, 5, 8] {
            let config = if total <= 4 {
                CoreConfig::new(total, 0).unwrap()
            } else {
                CoreConfig::new(4, total - 4).unwrap()
            };
            for dir in [DvfsDirection::Up, DvfsDirection::Down] {
                let ms = lat.dvfs_latency(config, dir).to_millis();
                assert!(ms > 0.3 && ms < 3.0, "dvfs {ms} ms out of Fig. 10 range");
            }
        }
    }

    #[test]
    fn hotplug_much_slower_at_low_frequency() {
        let lat = LatencyModel::odroid_xu4();
        let ratio = lat.hotplug_latency(5, ghz(0.2)) / lat.hotplug_latency(5, ghz(1.4));
        assert!(ratio > 2.5, "ratio = {ratio}");
    }

    #[test]
    fn dvfs_is_orders_of_magnitude_cheaper_than_hotplug() {
        let lat = LatencyModel::odroid_xu4();
        let dvfs = lat.dvfs_latency(CoreConfig::MAX, DvfsDirection::Down);
        let plug = lat.hotplug_latency(8, ghz(1.4));
        assert!(plug / dvfs > 3.0);
    }

    #[test]
    fn down_transitions_cost_more() {
        let lat = LatencyModel::odroid_xu4();
        let c = CoreConfig::new(4, 2).unwrap();
        assert!(lat.dvfs_latency(c, DvfsDirection::Down) > lat.dvfs_latency(c, DvfsDirection::Up));
    }

    #[test]
    fn constructor_rejects_negative_terms() {
        assert!(LatencyModel::new(-1.0, 0.5, 0.8, 0.8, 0.2, 0.4).is_err());
        assert!(LatencyModel::new(3.0, 0.5, 0.8, 0.8, 0.2, f64::NAN).is_err());
    }

    #[test]
    fn idle_ladder_orders_shallow_to_deep() {
        let states = odroid_xu4_idle_states();
        assert_eq!(states.len(), 2);
        assert_eq!(states[0].name(), "shallow");
        assert_eq!(states[1].name(), "deep");
        assert!(states[1].power() < states[0].power());
        assert!(states[1].overhead() > states[0].overhead());
        assert!(states[1].min_residency() > states[0].min_residency());
    }

    #[test]
    fn idle_state_constructor_rejects_bad_terms() {
        let s = Seconds::from_millis(1.0);
        assert!(IdleState::new("", Watts::new(1.0), s, s, s, Joules::new(0.0)).is_err());
        assert!(IdleState::new("x", Watts::new(-1.0), s, s, s, Joules::new(0.0)).is_err());
        assert!(IdleState::new("x", Watts::new(1.0), s, s, s, Joules::new(f64::NAN)).is_err());
    }

    proptest! {
        #[test]
        fn hotplug_monotone_in_core_count(f in 0.2f64..1.4, n in 1u8..8) {
            let lat = LatencyModel::odroid_xu4();
            prop_assert!(lat.hotplug_latency(n + 1, ghz(f)) > lat.hotplug_latency(n, ghz(f)));
        }

        #[test]
        fn hotplug_monotone_in_frequency(f in 0.2f64..1.3, df in 0.05f64..0.2, n in 1u8..=8) {
            let lat = LatencyModel::odroid_xu4();
            prop_assert!(lat.hotplug_latency(n, ghz(f)) > lat.hotplug_latency(n, ghz(f + df)));
        }
    }
}
