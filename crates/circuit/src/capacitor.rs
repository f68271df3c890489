//! The buffer-capacitor model.
//!
//! The power-neutral system deliberately shrinks the energy buffer to a
//! few tens of millifarads (47 mF in the paper's rig — *three orders of
//! magnitude* below typical energy-neutral supercapacitor banks).
//! [`Supercapacitor`] models it as a capacitance with a parallel
//! leakage path, the buffer loss the engine integrates.

use crate::CircuitError;
use pn_units::{Amps, Farads, Joules, Ohms, Volts};

/// A supercapacitor: ideal `C` with a parallel leakage resistance.
///
/// # Examples
///
/// ```
/// use pn_circuit::capacitor::Supercapacitor;
/// use pn_units::{Amps, Farads, Ohms, Volts};
///
/// # fn main() -> Result<(), pn_circuit::CircuitError> {
/// let c = Supercapacitor::new(Farads::from_millifarads(47.0), Ohms::new(1e15))?;
/// // 1 A of net charge current raises 47 mF at ~21 V/s.
/// let slope = c.dv_dt(Volts::new(5.0), Amps::new(1.0), Amps::ZERO);
/// assert!((slope - 1.0 / 0.047).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Supercapacitor {
    capacitance: Farads,
    leakage_resistance: Ohms,
    /// `1/C` and `1/R_leak`, so that [`Supercapacitor::dv_dt`] divides
    /// by nothing.
    inv_c: f64,
    g_leak: f64,
}

impl Supercapacitor {
    /// Creates a supercapacitor model.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidArgument`] when the capacitance or
    /// leakage resistance is non-positive or non-finite.
    pub fn new(capacitance: Farads, leakage_resistance: Ohms) -> Result<Self, CircuitError> {
        if !(capacitance.value() > 0.0) || !capacitance.is_finite() {
            return Err(CircuitError::InvalidArgument("capacitance must be positive and finite"));
        }
        if !(leakage_resistance.value() > 0.0) || !leakage_resistance.is_finite() {
            return Err(CircuitError::InvalidArgument(
                "leakage resistance must be positive and finite",
            ));
        }
        Ok(Self {
            capacitance,
            leakage_resistance,
            inv_c: 1.0 / capacitance.value(),
            g_leak: 1.0 / leakage_resistance.value(),
        })
    }

    /// The 47 mF buffer used for the paper's experiments (§IV-A), with
    /// datasheet-typical leakage for a small supercap.
    pub fn paper_buffer() -> Self {
        Self::new(Farads::from_millifarads(47.0), Ohms::new(40_000.0))
            .expect("preset parameters are valid")
    }

    /// The capacitance.
    pub fn capacitance(&self) -> Farads {
        self.capacitance
    }

    /// The parallel leakage resistance.
    pub fn leakage_resistance(&self) -> Ohms {
        self.leakage_resistance
    }

    /// The leakage conductance `1/R_leak`, siemens.
    ///
    /// # Examples
    ///
    /// ```
    /// use pn_circuit::capacitor::Supercapacitor;
    /// use pn_units::{Farads, Ohms};
    ///
    /// # fn main() -> Result<(), pn_circuit::CircuitError> {
    /// let sc = Supercapacitor::new(Farads::from_millifarads(47.0), Ohms::new(40_000.0))?;
    /// let leak = 5.3 * sc.leakage_conductance(); // amps at 5.3 V
    /// assert!(leak < 2e-4); // sub-milliamp leakage
    /// # Ok(())
    /// # }
    /// ```
    pub fn leakage_conductance(&self) -> f64 {
        self.g_leak
    }

    /// Stored energy at voltage `v`: `E = ½CV²`.
    pub fn energy(&self, v: Volts) -> Joules {
        Joules::new(0.5 * self.capacitance.value() * v.value() * v.value())
    }

    /// Voltage slope of the capacitor node given the externally supplied
    /// and drawn currents: `dV/dt = (I_in − I_out − V/R_leak)/C`.
    #[inline]
    pub fn dv_dt(&self, v: Volts, i_in: Amps, i_out: Amps) -> f64 {
        (i_in.value() - i_out.value() - v.value() * self.g_leak) * self.inv_c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rejects_bad_parameters() {
        assert!(Supercapacitor::new(Farads::new(0.0), Ohms::new(1e4)).is_err());
        assert!(Supercapacitor::new(Farads::new(-1.0), Ohms::new(1e4)).is_err());
        assert!(Supercapacitor::new(Farads::new(0.047), Ohms::new(0.0)).is_err());
    }

    #[test]
    fn energy_is_half_c_v_squared() {
        let c = Supercapacitor::new(Farads::new(0.047), Ohms::new(1e4)).unwrap();
        let e = c.energy(Volts::new(5.3));
        assert!((e.value() - 0.5 * 0.047 * 5.3 * 5.3).abs() < 1e-12);
    }

    #[test]
    fn paper_buffer_self_discharge_is_slow() {
        let sc = Supercapacitor::paper_buffer();
        // τ = R·C ≈ 1880 s: leakage must be negligible on transition
        // timescales (tens of milliseconds).
        let tau = sc.leakage_resistance().value() * sc.capacitance().value();
        assert!(tau > 600.0, "{tau}");
    }

    #[test]
    fn discharging_lowers_voltage() {
        let sc = Supercapacitor::paper_buffer();
        let slope = sc.dv_dt(Volts::new(5.0), Amps::ZERO, Amps::new(0.5));
        assert!(slope < 0.0);
        // Discharging 47 mF with 0.5 A: ~10.6 V/s plus leakage.
        assert!((slope + 0.5 / 0.047).abs() < 0.1);
    }

    proptest! {
        #[test]
        fn energy_monotone_in_voltage(c in 1e-3f64..1.0, v in 0.0f64..10.0, dv in 0.01f64..1.0) {
            let cap = Supercapacitor::new(Farads::new(c), Ohms::new(1e4)).unwrap();
            prop_assert!(cap.energy(Volts::new(v + dv)) > cap.energy(Volts::new(v)));
        }

        #[test]
        fn charge_balance_slope(c in 1e-3f64..1.0, i_in in 0.0f64..2.0, i_out in 0.0f64..2.0) {
            let sc = Supercapacitor::new(Farads::new(c), Ohms::new(1e15)).unwrap();
            let slope = sc.dv_dt(Volts::new(5.0), Amps::new(i_in), Amps::new(i_out));
            // With astronomically large leakage resistance the slope is
            // just (i_in − i_out)/C.
            prop_assert!((slope - (i_in - i_out) / c).abs() < 1e-6);
        }
    }
}
