//! The dynamic threshold pair (paper Eq. 1 and the tracking rule).
//!
//! At start-up the thresholds are calibrated to straddle the current
//! capacitor voltage:
//!
//! ```text
//! Vhigh(0) = VC + Vwidth/2      Vlow(0) = VC − Vwidth/2
//! ```
//!
//! Each `Vlow` crossing then shifts *both* thresholds down by `Vq`,
//! each `Vhigh` crossing shifts both up — the pair walks after the
//! harvested supply. The pair is clamped to a tracking window so the
//! low threshold never chases `VC` below the brownout voltage (where
//! an interrupt would be useless) and never walks above the board's
//! rated maximum.

use crate::CoreError;
use pn_units::Volts;

/// The `Vhigh`/`Vlow` pair with its tracking window.
///
/// # Examples
///
/// ```
/// use pn_core::thresholds::ThresholdPair;
/// use pn_units::Volts;
///
/// # fn main() -> Result<(), pn_core::CoreError> {
/// let mut pair = ThresholdPair::centered(
///     Volts::new(5.3),
///     Volts::new(0.2),
///     Volts::new(4.1),
///     Volts::new(5.9),
/// )?;
/// assert!((pair.high() - Volts::new(5.4)).abs() < Volts::new(1e-9));
/// assert!((pair.low() - Volts::new(5.2)).abs() < Volts::new(1e-9));
/// pair.shift_down(Volts::new(0.08));
/// assert!((pair.low() - Volts::new(5.12)).abs() < Volts::new(1e-9));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdPair {
    high: Volts,
    low: Volts,
    window_min: Volts,
    window_max: Volts,
}

impl ThresholdPair {
    /// Calibrates the pair around `vc` per Eq. (1), then clamps it into
    /// `[window_min, window_max]`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] when the window is
    /// inverted or narrower than `width`.
    pub fn centered(
        vc: Volts,
        width: Volts,
        window_min: Volts,
        window_max: Volts,
    ) -> Result<Self, CoreError> {
        if window_max <= window_min {
            return Err(CoreError::InvalidParameter("tracking window is inverted"));
        }
        if width > window_max - window_min {
            return Err(CoreError::InvalidParameter("width exceeds the tracking window"));
        }
        if !(width.value() > 0.0) {
            return Err(CoreError::InvalidParameter("width must be positive"));
        }
        let mut pair = Self {
            high: vc + width * 0.5,
            low: vc - width * 0.5,
            window_min,
            window_max,
        };
        pair.clamp_into_window();
        Ok(pair)
    }

    /// The upper threshold `Vhigh`.
    pub fn high(&self) -> Volts {
        self.high
    }

    /// The lower threshold `Vlow`.
    pub fn low(&self) -> Volts {
        self.low
    }

    /// Shifts both thresholds down by `vq` (a `Vlow` crossing
    /// response), clamped so `low` never drops below the window floor.
    pub fn shift_down(&mut self, vq: Volts) {
        let allowed = (self.low - self.window_min).max(Volts::ZERO);
        let shift = vq.min(allowed);
        self.low -= shift;
        self.high -= shift;
    }

    /// Shifts both thresholds up by `vq` (a `Vhigh` crossing response),
    /// clamped so `high` never exceeds the window ceiling.
    pub fn shift_up(&mut self, vq: Volts) {
        let allowed = (self.window_max - self.high).max(Volts::ZERO);
        let shift = vq.min(allowed);
        self.low += shift;
        self.high += shift;
    }

    fn clamp_into_window(&mut self) {
        if self.low < self.window_min {
            let shift = self.window_min - self.low;
            self.low += shift;
            self.high += shift;
        }
        if self.high > self.window_max {
            let shift = self.high - self.window_max;
            self.low -= shift;
            self.high -= shift;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pair() -> ThresholdPair {
        ThresholdPair::centered(
            Volts::new(5.3),
            Volts::new(0.144),
            Volts::new(4.1),
            Volts::new(5.9),
        )
        .unwrap()
    }

    /// Current separation between the thresholds.
    fn width(p: &ThresholdPair) -> Volts {
        p.high() - p.low()
    }

    #[test]
    fn eq1_initialisation() {
        let p = pair();
        assert!((p.high().value() - 5.372).abs() < 1e-12);
        assert!((p.low().value() - 5.228).abs() < 1e-12);
    }

    #[test]
    fn shifts_preserve_width() {
        let mut p = pair();
        let w = width(&p);
        p.shift_down(Volts::new(0.0479));
        assert!((width(&p) - w).abs() < Volts::new(1e-12));
        p.shift_up(Volts::new(0.0479));
        assert!((width(&p) - w).abs() < Volts::new(1e-12));
    }

    #[test]
    fn low_threshold_stops_at_window_floor() {
        let mut p = pair();
        for _ in 0..100 {
            p.shift_down(Volts::new(0.05));
        }
        assert!((p.low() - Volts::new(4.1)).abs() < Volts::new(1e-9));
        // Width is still intact — the whole pair stopped.
        assert!((width(&p).value() - 0.144).abs() < 1e-9);
    }

    #[test]
    fn high_threshold_stops_at_window_ceiling() {
        let mut p = pair();
        for _ in 0..100 {
            p.shift_up(Volts::new(0.05));
        }
        assert!((p.high() - Volts::new(5.9)).abs() < Volts::new(1e-9));
    }

    #[test]
    fn centered_clamps_near_the_rails() {
        // Centring at 4.12 V would push Vlow below the floor; the pair
        // must slide up instead.
        let p = ThresholdPair::centered(
            Volts::new(4.12),
            Volts::new(0.2),
            Volts::new(4.1),
            Volts::new(5.9),
        )
        .unwrap();
        assert!(p.low() >= Volts::new(4.1));
        assert!((width(&p).value() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn construction_validation() {
        assert!(ThresholdPair::centered(
            Volts::new(5.0),
            Volts::new(0.2),
            Volts::new(5.9),
            Volts::new(4.1)
        )
        .is_err());
        assert!(ThresholdPair::centered(
            Volts::new(5.0),
            Volts::new(3.0),
            Volts::new(4.1),
            Volts::new(5.9)
        )
        .is_err());
        assert!(ThresholdPair::centered(
            Volts::new(5.0),
            Volts::ZERO,
            Volts::new(4.1),
            Volts::new(5.9)
        )
        .is_err());
    }

    proptest! {
        #[test]
        fn invariants_hold_under_random_walks(
            steps in proptest::collection::vec(proptest::bool::ANY, 0..200),
            vq_mv in 1.0f64..200.0,
        ) {
            let mut p = pair();
            let vq = Volts::from_millivolts(vq_mv);
            for up in steps {
                if up { p.shift_up(vq) } else { p.shift_down(vq) }
                prop_assert!(p.low() < p.high());
                prop_assert!(p.low() >= Volts::new(4.1) - Volts::new(1e-9));
                prop_assert!(p.high() <= Volts::new(5.9) + Volts::new(1e-9));
                prop_assert!((width(&p).value() - 0.144).abs() < 1e-9);
            }
        }
    }
}
