//! The assembled platform description.
//!
//! [`Platform`] bundles the frequency table, power, performance and
//! latency models together with the board's electrical operating window
//! — everything the governor and the co-simulation need.

use crate::freq::FrequencyTable;
use crate::latency::{odroid_xu4_idle_states, IdleState, LatencyModel};
use crate::opp_table::OppTable;
use crate::perf::PerfModel;
use crate::power::PowerModel;
use crate::SocError;
use pn_units::Volts;
use std::sync::{Arc, OnceLock};

/// The safe electrical operating window of the board's supply input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageWindow {
    /// Minimum operating voltage; below this the board browns out.
    pub min: Volts,
    /// Maximum rated operating voltage.
    pub max: Volts,
}

impl VoltageWindow {
    /// The ODROID XU4 window quoted in the paper: 4.1 V – 5.7 V.
    pub fn odroid_xu4() -> Self {
        Self { min: Volts::new(4.1), max: Volts::new(5.7) }
    }

    /// `true` when `v` lies inside the window.
    fn contains(&self, v: Volts) -> bool {
        v >= self.min && v <= self.max
    }
}

/// A complete platform description.
///
/// It also carries its [`OppTable`], built once from its models, so
/// the simulation reads OPP power and throughput by lookup.
///
/// # Examples
///
/// ```
/// use pn_soc::platform::Platform;
///
/// let xu4 = Platform::odroid_xu4();
/// assert_eq!(xu4.name(), "ODROID XU4 (Exynos5422)");
/// assert_eq!(xu4.frequencies().len(), 8);
/// let window = xu4.voltage_window();
/// assert!(window.min < xu4.target_voltage() && xu4.target_voltage() < window.max);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    name: String,
    frequencies: FrequencyTable,
    power: PowerModel,
    perf: PerfModel,
    latency: LatencyModel,
    voltage_window: VoltageWindow,
    target_voltage: Volts,
    idle_states: Vec<IdleState>,
    /// Derived from the models above, which no method changes; shared
    /// so clones stay cheap.
    opp_table: Arc<OppTable>,
}

impl Platform {
    /// Assembles a platform from its parts.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidParameter`] when the target voltage
    /// lies outside the operating window or the window is inverted.
    pub fn new(
        name: impl Into<String>,
        frequencies: FrequencyTable,
        power: PowerModel,
        perf: PerfModel,
        latency: LatencyModel,
        voltage_window: VoltageWindow,
        target_voltage: Volts,
    ) -> Result<Self, SocError> {
        if voltage_window.min >= voltage_window.max {
            return Err(SocError::InvalidParameter("voltage window is inverted"));
        }
        if !voltage_window.contains(target_voltage) {
            return Err(SocError::InvalidParameter("target voltage outside operating window"));
        }
        let opp_table = Arc::new(OppTable::new(&power, &perf, &frequencies));
        Ok(Self {
            name: name.into(),
            frequencies,
            power,
            perf,
            latency,
            voltage_window,
            target_voltage,
            idle_states: odroid_xu4_idle_states(),
            opp_table,
        })
    }

    /// The ODROID XU4 preset used throughout the paper, with the target
    /// voltage set to the PV array's calibrated maximum power point
    /// (5.3 V, §V-B). The preset is assembled once per process, so
    /// every call shares one [`OppTable`].
    pub fn odroid_xu4() -> Self {
        static PRESET: OnceLock<Platform> = OnceLock::new();
        PRESET
            .get_or_init(|| {
                Self::new(
                    "ODROID XU4 (Exynos5422)",
                    FrequencyTable::paper_levels(),
                    PowerModel::odroid_xu4(),
                    PerfModel::odroid_xu4(),
                    LatencyModel::odroid_xu4(),
                    VoltageWindow::odroid_xu4(),
                    Volts::new(5.3),
                )
                .expect("preset platform is valid")
            })
            .clone()
    }

    /// Human-readable platform name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The DVFS frequency table.
    pub fn frequencies(&self) -> &FrequencyTable {
        &self.frequencies
    }

    /// The board power model.
    pub fn power(&self) -> &PowerModel {
        &self.power
    }

    /// The performance model.
    pub fn perf(&self) -> &PerfModel {
        &self.perf
    }

    /// The operating-point table: every OPP's board power and
    /// throughput, plus the budget frontier, computed once from the
    /// models above.
    pub fn opp_table(&self) -> &Arc<OppTable> {
        &self.opp_table
    }

    /// The transition-latency model.
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    /// The electrical operating window.
    pub fn voltage_window(&self) -> VoltageWindow {
        self.voltage_window
    }

    /// The supply-voltage target (the PV array's MPP voltage in the
    /// paper's experiments).
    pub fn target_voltage(&self) -> Volts {
        self.target_voltage
    }

    /// The platform's idle-state ladder, shallow to deep.
    pub fn idle_states(&self) -> &[IdleState] {
        &self.idle_states
    }
}

impl Default for Platform {
    fn default() -> Self {
        Self::odroid_xu4()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cores::CoreConfig;
    use crate::opp::Opp;

    #[test]
    fn preset_is_self_consistent() {
        let p = Platform::odroid_xu4();
        assert!(p.voltage_window().contains(p.target_voltage()));
        assert_eq!(p.frequencies().len(), 8);
        // Power at the top OPP is within the Fig. 4 envelope.
        let top = Opp::highest(p.frequencies());
        let w = top.power(p.power(), p.frequencies()).unwrap();
        assert!(w.value() < 7.5);
    }

    #[test]
    fn rejects_target_outside_window() {
        let with_target = |target: f64| {
            Platform::new(
                "xu4",
                FrequencyTable::paper_levels(),
                PowerModel::odroid_xu4(),
                PerfModel::odroid_xu4(),
                LatencyModel::odroid_xu4(),
                VoltageWindow::odroid_xu4(),
                Volts::new(target),
            )
        };
        assert!(with_target(3.0).is_err());
        assert!(with_target(5.0).is_ok());
        let preset = Platform::odroid_xu4();
        assert!(preset.voltage_window().contains(preset.target_voltage()));
    }

    #[test]
    fn rejects_inverted_window() {
        let err = Platform::new(
            "bad",
            FrequencyTable::paper_levels(),
            PowerModel::odroid_xu4(),
            PerfModel::odroid_xu4(),
            LatencyModel::odroid_xu4(),
            VoltageWindow { min: Volts::new(5.7), max: Volts::new(4.1) },
            Volts::new(5.0),
        )
        .unwrap_err();
        assert!(matches!(err, SocError::InvalidParameter(_)));
    }

    #[test]
    fn window_geometry() {
        let w = VoltageWindow::odroid_xu4();
        assert!(((w.max - w.min).value() - 1.6).abs() < 1e-12);
        assert!(w.contains(Volts::new(4.1)));
        assert!(w.contains(Volts::new(5.7)));
        assert!(!w.contains(Volts::new(5.71)));
    }

    #[test]
    fn preset_carries_the_idle_ladder() {
        let p = Platform::odroid_xu4();
        assert_eq!(p.idle_states().len(), 2);
        assert_eq!(p.idle_states()[0].name(), "shallow");
    }

    #[test]
    fn lowest_opp_is_cpu0_at_min_frequency() {
        let p = Platform::odroid_xu4();
        let low = Opp::lowest();
        assert_eq!(low.config(), CoreConfig::MIN);
        assert_eq!(low.frequency(p.frequencies()).unwrap(), p.frequencies().min_frequency());
    }
}
