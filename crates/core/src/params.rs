//! Control parameters of the power-neutral governor.
//!
//! Four parameters shape the controller:
//!
//! * `Vwidth` — initial separation of the two thresholds (Eq. 1),
//! * `Vq` — how far the thresholds move on every crossing, and the ΔV
//!   used in the slope estimate (Eq. 3),
//! * `α` — minimum |dVC/dt| to warrant a LITTLE-core change (Eq. 2),
//! * `β` — minimum |dVC/dt| to warrant a big-core change, `β > α`.
//!
//! The paper reports three operating points, all provided as presets:
//! the simulation demo of Fig. 6, the best values found by the §III
//! sweep (used for the PV experiments), and the deliberately large
//! values used for illustration in Fig. 11.

use crate::CoreError;
use pn_units::Volts;

/// Volts-per-second slope threshold.
pub type SlopeThreshold = f64;

/// The four control parameters of the governor.
///
/// # Examples
///
/// ```
/// use pn_core::params::ControlParams;
///
/// # fn main() -> Result<(), pn_core::CoreError> {
/// let p = ControlParams::paper_optimal()?;
/// assert!((p.v_width().to_millivolts() - 144.0).abs() < 1e-9);
/// assert!(p.beta() > p.alpha());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlParams {
    v_width: Volts,
    v_q: Volts,
    alpha: SlopeThreshold,
    beta: SlopeThreshold,
}

impl ControlParams {
    /// Creates a parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] unless
    /// `0 < Vq ≤ Vwidth` and `0 < α < β`.
    pub fn new(
        v_width: Volts,
        v_q: Volts,
        alpha: SlopeThreshold,
        beta: SlopeThreshold,
    ) -> Result<Self, CoreError> {
        if !(v_width.value() > 0.0) || !v_width.is_finite() {
            return Err(CoreError::InvalidParameter("v_width must be positive"));
        }
        if !(v_q.value() > 0.0) || !v_q.is_finite() {
            return Err(CoreError::InvalidParameter("v_q must be positive"));
        }
        if v_q > v_width {
            return Err(CoreError::InvalidParameter("v_q must not exceed v_width"));
        }
        if !(alpha > 0.0) || !alpha.is_finite() {
            return Err(CoreError::InvalidParameter("alpha must be positive"));
        }
        if !(beta > alpha) || !beta.is_finite() {
            return Err(CoreError::InvalidParameter("beta must exceed alpha"));
        }
        Ok(Self { v_width, v_q, alpha, beta })
    }

    /// The best-performing values from the paper's §III simulation
    /// sweep: `Vwidth` = 144 mV, `Vq` = 47.9 mV, `α` = 0.120 V/s,
    /// `β` = 0.479 V/s. These were used for the PV-array experiments.
    ///
    /// # Errors
    ///
    /// Never fails for the preset constants.
    pub fn paper_optimal() -> Result<Self, CoreError> {
        Self::new(Volts::from_millivolts(144.0), Volts::from_millivolts(47.9), 0.120, 0.479)
    }

    /// The parameters of the paper's Fig. 6 simulation demo:
    /// `Vwidth` = 0.2 V, `Vq` = 80 mV, `α` = 0.1 V/s, `β` = 0.12 V/s.
    ///
    /// # Errors
    ///
    /// Never fails for the preset constants.
    pub fn fig6_simulation() -> Result<Self, CoreError> {
        Self::new(Volts::from_millivolts(200.0), Volts::from_millivolts(80.0), 0.1, 0.12)
    }

    /// The deliberately large parameters of Fig. 11 ("chosen for
    /// clarity of illustration"): `Vwidth` = 335 mV, `Vq` = 190 mV,
    /// `α` = 0.238 V/s, `β` = 0.633 V/s.
    ///
    /// # Errors
    ///
    /// Never fails for the preset constants.
    pub fn fig11_demo() -> Result<Self, CoreError> {
        Self::new(Volts::from_millivolts(335.0), Volts::from_millivolts(190.0), 0.238, 0.633)
    }

    /// Initial threshold separation `Vwidth`.
    pub fn v_width(&self) -> Volts {
        self.v_width
    }

    /// Threshold step / slope numerator `Vq`.
    pub fn v_q(&self) -> Volts {
        self.v_q
    }

    /// LITTLE-core slope threshold `α` in V/s.
    pub fn alpha(&self) -> SlopeThreshold {
        self.alpha
    }

    /// big-core slope threshold `β` in V/s.
    pub fn beta(&self) -> SlopeThreshold {
        self.beta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn presets_match_the_paper() {
        let opt = ControlParams::paper_optimal().unwrap();
        assert!((opt.v_q().to_millivolts() - 47.9).abs() < 1e-9);
        assert!((opt.alpha() - 0.120).abs() < 1e-12);
        assert!((opt.beta() - 0.479).abs() < 1e-12);

        let fig6 = ControlParams::fig6_simulation().unwrap();
        assert!((fig6.v_width().value() - 0.2).abs() < 1e-12);

        let fig11 = ControlParams::fig11_demo().unwrap();
        assert!((fig11.v_q().to_millivolts() - 190.0).abs() < 1e-9);
    }

    #[test]
    fn validation() {
        let v = Volts::from_millivolts;
        assert!(ControlParams::new(v(0.0), v(10.0), 0.1, 0.2).is_err());
        assert!(ControlParams::new(v(100.0), v(0.0), 0.1, 0.2).is_err());
        assert!(ControlParams::new(v(100.0), v(200.0), 0.1, 0.2).is_err(), "vq > vwidth");
        assert!(ControlParams::new(v(100.0), v(50.0), 0.0, 0.2).is_err());
        assert!(ControlParams::new(v(100.0), v(50.0), 0.3, 0.2).is_err(), "beta < alpha");
        assert!(ControlParams::new(v(100.0), v(50.0), 0.2, 0.2).is_err(), "beta == alpha");
    }

    proptest! {
        #[test]
        fn valid_domain_accepts(width_mv in 10.0f64..500.0, q_frac in 0.05f64..1.0,
                                alpha in 0.01f64..1.0, beta_mult in 1.01f64..10.0) {
            let p = ControlParams::new(
                Volts::from_millivolts(width_mv),
                Volts::from_millivolts(width_mv * q_frac),
                alpha,
                alpha * beta_mult,
            );
            prop_assert!(p.is_ok());
            let p = p.unwrap();
            prop_assert!(p.alpha() < p.beta());
        }

        #[test]
        fn accessors_round_trip_the_inputs(width_mv in 10.0f64..500.0, q_frac in 0.05f64..1.0,
                                           alpha in 0.01f64..1.0, beta_mult in 1.01f64..10.0) {
            let p = ControlParams::new(
                Volts::from_millivolts(width_mv),
                Volts::from_millivolts(width_mv * q_frac),
                alpha,
                alpha * beta_mult,
            ).unwrap();
            prop_assert!((p.v_width().to_millivolts() - width_mv).abs() < 1e-9);
            prop_assert!((p.v_q().to_millivolts() - width_mv * q_frac).abs() < 1e-9);
            prop_assert!((p.alpha() - alpha).abs() < 1e-12);
            prop_assert!((p.beta() - alpha * beta_mult).abs() < 1e-12);
        }

        #[test]
        fn vq_above_vwidth_is_always_rejected(width_mv in 10.0f64..500.0,
                                              excess in 1.0001f64..5.0,
                                              alpha in 0.01f64..1.0) {
            let p = ControlParams::new(
                Volts::from_millivolts(width_mv),
                Volts::from_millivolts(width_mv * excess),
                alpha,
                alpha * 2.0,
            );
            prop_assert!(p.is_err());
        }

        #[test]
        fn beta_not_exceeding_alpha_is_always_rejected(width_mv in 10.0f64..500.0,
                                                       alpha in 0.01f64..1.0,
                                                       shrink in 0.0f64..=1.0) {
            // Any β ≤ α — including β = α exactly — must be rejected.
            let p = ControlParams::new(
                Volts::from_millivolts(width_mv),
                Volts::from_millivolts(width_mv * 0.5),
                alpha,
                alpha * shrink,
            );
            prop_assert!(p.is_err());
        }

        #[test]
        fn non_finite_and_non_positive_inputs_are_rejected(width_mv in 10.0f64..500.0,
                                                           alpha in 0.01f64..1.0,
                                                           bad in 0usize..6) {
            let v = Volts::from_millivolts;
            let (w, q, a, b) = match bad {
                0 => (0.0, width_mv * 0.5, alpha, alpha * 2.0),
                1 => (width_mv, 0.0, alpha, alpha * 2.0),
                2 => (width_mv, width_mv * 0.5, 0.0, alpha * 2.0),
                3 => (f64::NAN, width_mv * 0.5, alpha, alpha * 2.0),
                4 => (width_mv, width_mv * 0.5, f64::NAN, alpha * 2.0),
                _ => (width_mv, width_mv * 0.5, alpha, f64::INFINITY),
            };
            prop_assert!(ControlParams::new(v(w), v(q), a, b).is_err());
        }
    }
}
