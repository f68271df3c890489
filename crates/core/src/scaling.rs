//! Slope estimation and core-scaling factors (paper Eqs. 2–3).
//!
//! The derivative controller approximates the capacitor-voltage slope
//! only at crossings, where it is essentially free:
//!
//! ```text
//! dVC/dt ≈ ΔVC/Δτ = ±Vq/τ            (Eq. 3)
//! ```
//!
//! where τ is the time since the previous crossing (the thresholds move
//! by exactly `Vq` per crossing, so `Vq` *is* ΔVC). The ternary core
//! scaling factors are then (Eq. 2):
//!
//! ```text
//! Sb = +1 if dVC/dt > β, −1 if dVC/dt < −β, else 0
//! SL = +1 if dVC/dt > α, −1 if dVC/dt < −α, else 0
//! ```
//!
//! Because `β > α`, a *fast* excursion moves a big core (and, being
//! even faster than `α`, a LITTLE one too), while a moderate excursion
//! moves only a LITTLE core. A slow drift (τ > Vq/α) changes no cores
//! at all and is handled by DVFS alone.

use crate::params::ControlParams;
use pn_units::Seconds;

/// Sign of a threshold crossing for slope purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrossingSign {
    /// `Vhigh` was crossed: the supply is rising.
    Rising,
    /// `Vlow` was crossed: the supply is falling.
    Falling,
}

/// The ternary core-scaling factor pair `(Sb, SL)` of Eq. (2).
///
/// Values are −1 (remove a core), 0 (no change) or +1 (add a core).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CoreScaling {
    /// `Sb` — big-core factor.
    pub big: i8,
    /// `SL` — LITTLE-core factor.
    pub little: i8,
}

impl CoreScaling {
    /// No core change.
    pub const NONE: CoreScaling = CoreScaling { big: 0, little: 0 };
}

/// Estimates `dVC/dt` from a crossing interval per Eq. (3).
///
/// Returns the signed slope in V/s; the magnitude is `Vq/τ` and the
/// sign follows the crossing direction. A non-positive τ (the very
/// first crossing, or two crossings located at the same instant) is
/// treated as an infinitely fast excursion.
fn estimate_slope(v_q: pn_units::Volts, tau: Seconds, sign: CrossingSign) -> f64 {
    let magnitude = if tau.value() > 0.0 { v_q.value() / tau.value() } else { f64::INFINITY };
    match sign {
        CrossingSign::Rising => magnitude,
        CrossingSign::Falling => -magnitude,
    }
}

/// Computes the core-scaling factors of Eq. (2) from a signed slope.
fn scaling_from_slope(dv_dt: f64, params: &ControlParams) -> CoreScaling {
    let big = if dv_dt > params.beta() {
        1
    } else if dv_dt < -params.beta() {
        -1
    } else {
        0
    };
    let little = if dv_dt > params.alpha() {
        1
    } else if dv_dt < -params.alpha() {
        -1
    } else {
        0
    };
    CoreScaling { big, little }
}

/// Convenience composition: scaling factors straight from a crossing
/// interval, as the governor computes them in its interrupt handler.
pub fn scaling_from_crossing(
    tau: Seconds,
    sign: CrossingSign,
    params: &ControlParams,
) -> CoreScaling {
    scaling_from_slope(estimate_slope(params.v_q(), tau, sign), params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pn_units::Volts;
    use proptest::prelude::*;

    fn params() -> ControlParams {
        ControlParams::paper_optimal().unwrap()
    }

    #[test]
    fn slow_drift_changes_no_cores() {
        // τ = 1 s ⇒ |slope| = 47.9 mV/s < α.
        let s = scaling_from_crossing(Seconds::new(1.0), CrossingSign::Falling, &params());
        assert_eq!(s, CoreScaling::NONE);
    }

    /// The crossing interval at which Eq. (3) estimates `dv_dt` volts
    /// per second under `p` (a falling slope reads as its magnitude).
    fn tau_for_slope(dv_dt: f64, p: &ControlParams) -> Seconds {
        Seconds::new(p.v_q().value() / dv_dt.abs())
    }

    #[test]
    fn a_violent_collapse_sheds_a_big_and_a_little_core() {
        // −1 V/s: beyond β.
        let p = params();
        let s = scaling_from_crossing(tau_for_slope(-1.0, &p), CrossingSign::Falling, &p);
        assert_eq!(s, CoreScaling { big: -1, little: -1 });
    }

    #[test]
    fn a_moderate_fall_of_0_2_v_per_s_sheds_only_a_little_core() {
        // −0.2 V/s: beyond α, within β.
        let p = params();
        let s = scaling_from_crossing(tau_for_slope(-0.2, &p), CrossingSign::Falling, &p);
        assert_eq!(s, CoreScaling { big: 0, little: -1 });
    }

    #[test]
    fn the_slope_takes_the_crossing_direction_as_its_sign() {
        let v_q = Volts::from_millivolts(47.9);
        let falling = estimate_slope(v_q, Seconds::new(0.1), CrossingSign::Falling);
        assert!((falling + 0.479).abs() < 1e-9);
        let rising = estimate_slope(v_q, Seconds::new(0.1), CrossingSign::Rising);
        assert!((rising - 0.479).abs() < 1e-9);
    }

    #[test]
    fn moderate_fall_sheds_a_little_core() {
        // τ = 0.2 s ⇒ |slope| ≈ 0.24 V/s: above α, below β.
        let s = scaling_from_crossing(Seconds::new(0.2), CrossingSign::Falling, &params());
        assert_eq!(s, CoreScaling { big: 0, little: -1 });
    }

    #[test]
    fn fast_fall_sheds_both() {
        // τ = 0.05 s ⇒ |slope| ≈ 0.958 V/s: above β (and hence α).
        let s = scaling_from_crossing(Seconds::new(0.05), CrossingSign::Falling, &params());
        assert_eq!(s, CoreScaling { big: -1, little: -1 });
    }

    #[test]
    fn rising_mirror_adds_cores() {
        let s = scaling_from_crossing(Seconds::new(0.05), CrossingSign::Rising, &params());
        assert_eq!(s, CoreScaling { big: 1, little: 1 });
        let s = scaling_from_crossing(Seconds::new(0.2), CrossingSign::Rising, &params());
        assert_eq!(s, CoreScaling { big: 0, little: 1 });
    }

    #[test]
    fn zero_tau_is_treated_as_infinite_slope() {
        let s = scaling_from_crossing(Seconds::ZERO, CrossingSign::Falling, &params());
        assert_eq!(s, CoreScaling { big: -1, little: -1 });
    }

    #[test]
    fn boundary_taus_match_params() {
        let p = params();
        // τ_b = Vq/β, from substituting Eq. 3 into Eq. 2.
        let big_response_tau = p.v_q().value() / p.beta();
        // Just inside the big-response window.
        let s = scaling_from_crossing(
            Seconds::new(big_response_tau * 0.99),
            CrossingSign::Falling,
            &p,
        );
        assert_eq!(s.big, -1);
        // Just outside it: only the LITTLE response fires.
        let s = scaling_from_crossing(
            Seconds::new(big_response_tau * 1.01),
            CrossingSign::Falling,
            &p,
        );
        assert_eq!(s.big, 0);
        assert_eq!(s.little, -1);
    }

    proptest! {
        #[test]
        fn factors_are_consistent(tau_s in 1e-4f64..10.0, rising in proptest::bool::ANY) {
            let p = params();
            let sign = if rising { CrossingSign::Rising } else { CrossingSign::Falling };
            let s = scaling_from_crossing(Seconds::new(tau_s), sign, &p);
            // A big response implies a LITTLE response (β > α).
            if s.big != 0 {
                prop_assert_eq!(s.little, s.big);
            }
            // Signs must agree with the crossing direction.
            if rising {
                prop_assert!(s.big >= 0 && s.little >= 0);
            } else {
                prop_assert!(s.big <= 0 && s.little <= 0);
            }
        }

        #[test]
        fn slope_magnitude_matches_eq3(tau_s in 1e-3f64..10.0) {
            let p = params();
            let slope = estimate_slope(p.v_q(), Seconds::new(tau_s), CrossingSign::Rising);
            prop_assert!((slope - p.v_q().value() / tau_s).abs() < 1e-12);
        }
    }
}
