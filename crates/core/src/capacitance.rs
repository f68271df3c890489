//! Buffer-capacitance sizing (paper §IV-A and Table I).
//!
//! Power-neutral operation removes the *energy* buffer but still needs
//! a small *latency* buffer: enough capacitance to carry the board
//! through the worst-case performance transition — from the highest
//! OPP (maximum draw) to the lowest — when the harvest collapses. The
//! required capacitance follows from the charge drawn during the
//! transition and the voltage headroom the capacitor may spend:
//!
//! ```text
//! C_required = Q / (V_start − V_min)
//! ```
//!
//! Table I evaluates the two response orderings; the core-first
//! strategy draws several times less charge (hot-plugging at 1.4 GHz is
//! fast; at 200 MHz it is painfully slow), which is why the paper's rig
//! needs only 15-odd mF of theoretical buffer and uses a 47 mF part
//! for margin.

use crate::CoreError;
use pn_soc::opp::Opp;
use pn_soc::platform::Platform;
use pn_soc::transition::{plan_transition, transition_cost, TransitionStrategy};
use pn_units::{Coulombs, Farads, Seconds, Volts};

/// One row of Table I: the cost of a worst-case transition under one
/// strategy, and the buffer capacitance it implies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BufferSizing {
    /// The response ordering evaluated.
    pub strategy: TransitionStrategy,
    /// Transition time δ.
    pub duration: Seconds,
    /// Charge drawn, `Q = ∫I dt`.
    pub charge: Coulombs,
    /// Required capacitance `C = Q / (V_start − V_min)`.
    pub required_capacitance: Farads,
}

/// Computes the required buffer capacitance for a given transition
/// charge and voltage window.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] when the window is empty or
/// the charge negative.
///
/// # Examples
///
/// ```
/// use pn_core::capacitance::required_capacitance;
/// use pn_units::{Coulombs, Volts};
///
/// # fn main() -> Result<(), pn_core::CoreError> {
/// // Table I row (b): 0.0461 C across the 5.7 → 4.1 V window.
/// let c = required_capacitance(Coulombs::new(0.0461), Volts::new(5.7), Volts::new(4.1))?;
/// assert!((c.to_millifarads() - 28.8).abs() < 0.1);
/// # Ok(())
/// # }
/// ```
pub fn required_capacitance(
    charge: Coulombs,
    v_start: Volts,
    v_min: Volts,
) -> Result<Farads, CoreError> {
    if v_start <= v_min {
        return Err(CoreError::InvalidParameter("v_start must exceed v_min"));
    }
    if charge.value() < 0.0 {
        return Err(CoreError::InvalidParameter("charge must be non-negative"));
    }
    Ok(charge / (v_start - v_min))
}

/// Evaluates the worst-case (highest → lowest OPP) transition for one
/// strategy on a platform, Table I style.
///
/// The charge is integrated at the *minimum* operating voltage — the
/// paper's "whilst operating at the lowest voltage" worst case, where
/// current draw for a given power is largest.
///
/// # Errors
///
/// Propagates planning/costing failures as [`CoreError::InvalidPlatform`].
fn worst_case_sizing(
    platform: &Platform,
    strategy: TransitionStrategy,
) -> Result<BufferSizing, CoreError> {
    let table = platform.frequencies();
    let window = platform.voltage_window();
    let plan = plan_transition(
        Opp::highest(table),
        Opp::lowest(),
        strategy,
        table,
        platform.latency(),
    )
    .map_err(|_| CoreError::InvalidPlatform("transition planning failed"))?;
    let cost = transition_cost(&plan, platform.power(), table, window.min)
        .map_err(|_| CoreError::InvalidPlatform("transition costing failed"))?;
    let required = required_capacitance(cost.charge, window.max, window.min)?;
    Ok(BufferSizing {
        strategy,
        duration: cost.duration,
        charge: cost.charge,
        required_capacitance: required,
    })
}

/// Evaluates both Table I strategies and returns `(frequency_first,
/// core_first)`.
///
/// # Errors
///
/// Propagates planning/costing failures as [`CoreError::InvalidPlatform`].
pub fn table1(platform: &Platform) -> Result<(BufferSizing, BufferSizing), CoreError> {
    Ok((
        worst_case_sizing(platform, TransitionStrategy::FrequencyFirst)?,
        worst_case_sizing(platform, TransitionStrategy::CoreFirst)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn required_capacitance_formula() {
        let c = required_capacitance(Coulombs::new(0.16), Volts::new(5.7), Volts::new(4.1))
            .unwrap();
        assert!((c.to_millifarads() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn validation() {
        assert!(required_capacitance(Coulombs::new(0.1), Volts::new(4.1), Volts::new(5.7))
            .is_err());
        assert!(required_capacitance(Coulombs::new(-0.1), Volts::new(5.7), Volts::new(4.1))
            .is_err());
    }

    #[test]
    fn table1_core_first_needs_less_buffer() {
        let platform = Platform::odroid_xu4();
        let (freq_first, core_first) = table1(&platform).unwrap();
        assert!(freq_first.required_capacitance > core_first.required_capacitance);
        assert!(freq_first.duration > core_first.duration);
        // The paper's chosen 47 mF part comfortably covers the
        // core-first requirement.
        assert!(core_first.required_capacitance.to_millifarads() < 47.0);
    }

    #[test]
    fn table1_magnitudes_are_plausible() {
        let platform = Platform::odroid_xu4();
        let (freq_first, core_first) = table1(&platform).unwrap();
        // δ: paper reports 345 ms vs 63 ms; we accept the same order.
        assert!(freq_first.duration.to_millis() > 150.0);
        assert!(core_first.duration.to_millis() < 150.0);
        // Q: paper reports 0.1299 C vs 0.0461 C.
        assert!(freq_first.charge.value() > 0.06);
        assert!(core_first.charge.value() < 0.12);
    }
}
