//! Board power model, calibrated to the paper's Fig. 4.
//!
//! Fig. 4 plots total board power against operating frequency for the
//! eight configurations of the hot-plug ladder, measured while running
//! the smallpt ray tracer. We reproduce those curves with the standard
//! CMOS decomposition
//!
//! ```text
//! P(nL, nb, f) = P_base + nL·(C_L·f·V(f)² + s_L) + nb·(C_b·f·V(f)² + s_b)
//! ```
//!
//! where `V(f)` is the rail voltage-frequency map, `C_x` an effective
//! switched capacitance per core and `s_x` a per-core static power.
//! Constants are chosen so the curve family spans ≈1.8 W (one LITTLE
//! core at 200 MHz) to ≈7 W (all eight cores at 1.4 GHz), matching the
//! figure.

use crate::cores::{CoreConfig, CoreType};
use crate::domain::Domain;
use crate::SocError;
use pn_units::{Hertz, Volts, Watts};

/// Piecewise-linear rail voltage as a function of clock frequency.
#[derive(Debug, Clone, PartialEq)]
pub struct RailVoltage {
    points: Vec<(Hertz, Volts)>,
}

impl RailVoltage {
    /// Creates a map from `(frequency, voltage)` breakpoints sorted by
    /// frequency.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidParameter`] for fewer than two points
    /// or unsorted frequencies.
    pub fn new(points: Vec<(Hertz, Volts)>) -> Result<Self, SocError> {
        if points.len() < 2 {
            return Err(SocError::InvalidParameter("rail map needs at least two points"));
        }
        if points.windows(2).any(|w| w[1].0 <= w[0].0) {
            return Err(SocError::InvalidParameter("rail map frequencies must ascend"));
        }
        Ok(Self { points })
    }

    /// A typical Exynos5422 rail: 0.9125 V at 200 MHz rising to 1.25 V
    /// at 1.4 GHz.
    pub fn exynos5422() -> Self {
        let pts = [
            (0.2, 0.9125),
            (0.45, 0.9375),
            (0.72, 0.975),
            (0.92, 1.025),
            (1.1, 1.0875),
            (1.2, 1.125),
            (1.3, 1.1875),
            (1.4, 1.25),
        ];
        Self::new(pts.iter().map(|(g, v)| (Hertz::from_gigahertz(*g), Volts::new(*v))).collect())
            .expect("preset rail map is valid")
    }

    /// Rail voltage at frequency `f` (linear interpolation, clamped at
    /// the map's ends).
    fn voltage(&self, f: Hertz) -> Volts {
        let pts = &self.points;
        if f <= pts[0].0 {
            return pts[0].1;
        }
        if f >= pts[pts.len() - 1].0 {
            return pts[pts.len() - 1].1;
        }
        for w in pts.windows(2) {
            let (f0, v0) = w[0];
            let (f1, v1) = w[1];
            if f <= f1 {
                let s = (f - f0) / (f1 - f0);
                return v0 + (v1 - v0) * s;
            }
        }
        pts[pts.len() - 1].1
    }
}

/// Per-core power parameters of one cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterPower {
    /// Effective switched capacitance per core, in farads
    /// (`P_dyn = C_eff · f · V²`).
    pub switched_capacitance: f64,
    /// Static (leakage + uncore share) power per online core.
    pub static_power: Watts,
}

/// The board power model.
///
/// # Examples
///
/// ```
/// use pn_soc::power::PowerModel;
/// use pn_soc::cores::CoreConfig;
/// use pn_units::Hertz;
///
/// # fn main() -> Result<(), pn_soc::SocError> {
/// let model = PowerModel::odroid_xu4();
/// let one_little = CoreConfig::new(1, 0)?;
/// let p = model.board_power(one_little, Hertz::from_gigahertz(0.2));
/// assert!(p.value() > 1.5 && p.value() < 2.1); // Fig. 4 bottom-left corner
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    base: Watts,
    little: ClusterPower,
    big: ClusterPower,
    rail: RailVoltage,
}

impl PowerModel {
    /// Creates a model from explicit parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidParameter`] for negative powers or
    /// capacitances.
    pub fn new(
        base: Watts,
        little: ClusterPower,
        big: ClusterPower,
        rail: RailVoltage,
    ) -> Result<Self, SocError> {
        let ok = base.value() >= 0.0
            && little.switched_capacitance >= 0.0
            && big.switched_capacitance >= 0.0
            && little.static_power.value() >= 0.0
            && big.static_power.value() >= 0.0;
        if !ok {
            return Err(SocError::InvalidParameter("power parameters must be non-negative"));
        }
        Ok(Self { base, little, big, rail })
    }

    /// The calibrated ODROID XU4 model (Fig. 4).
    pub fn odroid_xu4() -> Self {
        Self::new(
            Watts::new(1.55),
            ClusterPower {
                switched_capacitance: 178e-12,
                static_power: Watts::new(0.02),
            },
            ClusterPower {
                switched_capacitance: 389e-12,
                static_power: Watts::new(0.15),
            },
            RailVoltage::exynos5422(),
        )
        .expect("preset power model is valid")
    }

    /// Baseline board power with everything idle except the always-on
    /// infrastructure (fans, memory, regulators).
    pub fn base_power(&self) -> Watts {
        self.base
    }

    /// Dynamic power of a single core of `kind` at frequency `f`.
    fn core_dynamic_power(&self, kind: CoreType, f: Hertz) -> Watts {
        let cluster = match kind {
            CoreType::Little => &self.little,
            CoreType::Big => &self.big,
        };
        let v = self.rail.voltage(f).value();
        Watts::new(cluster.switched_capacitance * f.value() * v * v)
    }

    /// Total per-core power (dynamic + static) of `kind` at `f`.
    fn core_power(&self, kind: CoreType, f: Hertz) -> Watts {
        let cluster = match kind {
            CoreType::Little => &self.little,
            CoreType::Big => &self.big,
        };
        self.core_dynamic_power(kind, f) + cluster.static_power
    }

    /// Power drawn by one voltage/frequency domain with `cores` of its
    /// cores online at frequency `f` (the board base is not included —
    /// it belongs to no domain).
    pub fn domain_power(&self, domain: Domain, cores: u8, f: Hertz) -> Watts {
        self.core_power(domain.core_type(), f) * f64::from(cores)
    }

    /// Total board power for a configuration at frequency `f`, as
    /// plotted in Fig. 4: the base plus every domain's contribution.
    pub fn board_power(&self, config: CoreConfig, f: Hertz) -> Watts {
        self.base
            + self.domain_power(Domain::Little, config.little(), f)
            + self.domain_power(Domain::Big, config.big(), f)
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        Self::odroid_xu4()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freq::FrequencyTable;
    use proptest::prelude::*;

    fn ghz(g: f64) -> Hertz {
        Hertz::from_gigahertz(g)
    }

    #[test]
    fn fig4_corners() {
        let m = PowerModel::odroid_xu4();
        // Bottom-left of Fig. 4: one A7 at 200 MHz, just under 2 W.
        let p_min = m.board_power(CoreConfig::MIN, ghz(0.2));
        assert!(p_min.value() > 1.5 && p_min.value() < 2.0, "p_min = {p_min}");
        // Top-right: eight cores at 1.4 GHz, ≈7 W.
        let p_max = m.board_power(CoreConfig::MAX, ghz(1.4));
        assert!(p_max.value() > 6.0 && p_max.value() < 7.5, "p_max = {p_max}");
        // Mid curve: 4 A7 at 1.4 GHz ≈ 3.2 W.
        let p_4l = m.board_power(CoreConfig::new(4, 0).unwrap(), ghz(1.4));
        assert!(p_4l.value() > 2.8 && p_4l.value() < 3.5, "p_4l = {p_4l}");
    }

    #[test]
    fn big_cores_cost_more_than_little() {
        let m = PowerModel::odroid_xu4();
        for (_lvl, f) in FrequencyTable::paper_levels().iter() {
            assert!(m.core_power(CoreType::Big, f) > m.core_power(CoreType::Little, f));
        }
    }

    #[test]
    fn rail_interpolation_is_monotone_and_clamped() {
        let rail = RailVoltage::exynos5422();
        assert_eq!(rail.voltage(ghz(0.1)), rail.voltage(ghz(0.2)));
        assert_eq!(rail.voltage(ghz(2.0)), rail.voltage(ghz(1.4)));
        let mut prev = rail.voltage(ghz(0.2));
        for g in [0.3, 0.5, 0.7, 0.9, 1.1, 1.3, 1.4] {
            let v = rail.voltage(ghz(g));
            assert!(v >= prev, "rail must be monotone");
            prev = v;
        }
    }

    #[test]
    fn paper_levels_give_roughly_linear_power_spacing() {
        // The paper claims its eight frequencies correspond to linearly
        // spaced power nodes; verify the spacing is within 35% of ideal.
        let m = PowerModel::odroid_xu4();
        let config = CoreConfig::MAX;
        let table = FrequencyTable::paper_levels();
        let powers: Vec<f64> =
            table.iter().map(|(_, f)| m.board_power(config, f).value()).collect();
        let ideal_gap = (powers[7] - powers[0]) / 7.0;
        for w in powers.windows(2) {
            let gap = w[1] - w[0];
            assert!(
                (gap - ideal_gap).abs() < 0.35 * ideal_gap + 0.12,
                "gap {gap} vs ideal {ideal_gap}"
            );
        }
    }

    #[test]
    fn constructor_validates() {
        assert!(PowerModel::new(
            Watts::new(-1.0),
            ClusterPower { switched_capacitance: 1e-10, static_power: Watts::new(0.05) },
            ClusterPower { switched_capacitance: 4e-10, static_power: Watts::new(0.12) },
            RailVoltage::exynos5422(),
        )
        .is_err());
        assert!(RailVoltage::new(vec![(ghz(1.0), Volts::new(1.0))]).is_err());
    }

    proptest! {
        #[test]
        fn board_power_monotone_in_frequency(g1 in 0.2f64..1.3, dg in 0.01f64..0.1,
                                             little in 1u8..=4, big in 0u8..=4) {
            let m = PowerModel::odroid_xu4();
            let c = CoreConfig::new(little, big).unwrap();
            prop_assert!(m.board_power(c, ghz(g1 + dg)) >= m.board_power(c, ghz(g1)));
        }

        #[test]
        fn board_power_monotone_in_cores(g in 0.2f64..1.4, little in 1u8..4, big in 0u8..4) {
            let m = PowerModel::odroid_xu4();
            let c = CoreConfig::new(little, big).unwrap();
            let more_l = CoreConfig::new(little + 1, big).unwrap();
            let more_b = CoreConfig::new(little, big + 1).unwrap();
            prop_assert!(m.board_power(more_l, ghz(g)) > m.board_power(c, ghz(g)));
            prop_assert!(m.board_power(more_b, ghz(g)) > m.board_power(c, ghz(g)));
        }
    }
}
