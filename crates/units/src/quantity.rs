//! Unit newtype definitions and their dimensional arithmetic.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Defines a quantity newtype over `f64` with the standard arithmetic
/// within the same dimension (add, subtract, negate, scale by `f64`,
/// dimensionless ratio) plus the common trait set.
macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $symbol:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// Zero of this quantity.
            pub const ZERO: $name = $name(0.0);

            /// Wraps a raw `f64` value expressed in the base unit.
            #[inline]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw value in the base unit.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// The larger of `self` and `other`.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// The smaller of `self` and `other`.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Clamps `self` into `[lo, hi]`.
            ///
            /// # Panics
            ///
            /// Panics if `lo > hi`.
            #[inline]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                assert!(lo.0 <= hi.0, "clamp bounds inverted");
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// `true` when the wrapped value is finite (not NaN/∞).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        /// Dimensionless ratio of two like quantities.
        impl Div for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $symbol)
                } else {
                    write!(f, "{} {}", self.0, $symbol)
                }
            }
        }

        impl From<f64> for $name {
            fn from(value: f64) -> Self {
                Self(value)
            }
        }

        impl From<$name> for f64 {
            fn from(q: $name) -> f64 {
                q.0
            }
        }
    };
}

quantity!(
    /// Electric potential in volts.
    Volts,
    "V"
);
quantity!(
    /// Electric current in amperes.
    Amps,
    "A"
);
quantity!(
    /// Power in watts.
    Watts,
    "W"
);
quantity!(
    /// Energy in joules.
    Joules,
    "J"
);
quantity!(
    /// Electric charge in coulombs.
    Coulombs,
    "C"
);
quantity!(
    /// Capacitance in farads.
    Farads,
    "F"
);
quantity!(
    /// Resistance in ohms.
    Ohms,
    "Ω"
);
quantity!(
    /// Time in seconds.
    Seconds,
    "s"
);
quantity!(
    /// Frequency in hertz.
    Hertz,
    "Hz"
);
quantity!(
    /// Solar irradiance in watts per square metre.
    WattsPerSquareMeter,
    "W/m²"
);

// ---------------------------------------------------------------------------
// Cross-dimension physical laws.
// ---------------------------------------------------------------------------

/// `P = V · I`
impl Mul<Amps> for Volts {
    type Output = Watts;
    #[inline]
    fn mul(self, rhs: Amps) -> Watts {
        Watts::new(self.value() * rhs.value())
    }
}

/// `P = I · V`
impl Mul<Volts> for Amps {
    type Output = Watts;
    #[inline]
    fn mul(self, rhs: Volts) -> Watts {
        rhs * self
    }
}

/// `I = P / V`
impl Div<Volts> for Watts {
    type Output = Amps;
    #[inline]
    fn div(self, rhs: Volts) -> Amps {
        Amps::new(self.value() / rhs.value())
    }
}

/// `V = P / I`
impl Div<Amps> for Watts {
    type Output = Volts;
    #[inline]
    fn div(self, rhs: Amps) -> Volts {
        Volts::new(self.value() / rhs.value())
    }
}

/// `E = P · t`
impl Mul<Seconds> for Watts {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: Seconds) -> Joules {
        Joules::new(self.value() * rhs.value())
    }
}

/// `E = t · P`
impl Mul<Watts> for Seconds {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: Watts) -> Joules {
        rhs * self
    }
}

/// `P = E / t`
impl Div<Seconds> for Joules {
    type Output = Watts;
    #[inline]
    fn div(self, rhs: Seconds) -> Watts {
        Watts::new(self.value() / rhs.value())
    }
}

/// `Q = I · t`
impl Mul<Seconds> for Amps {
    type Output = Coulombs;
    #[inline]
    fn mul(self, rhs: Seconds) -> Coulombs {
        Coulombs::new(self.value() * rhs.value())
    }
}

/// `Q = t · I`
impl Mul<Amps> for Seconds {
    type Output = Coulombs;
    #[inline]
    fn mul(self, rhs: Amps) -> Coulombs {
        rhs * self
    }
}

/// `I = Q / t`
impl Div<Seconds> for Coulombs {
    type Output = Amps;
    #[inline]
    fn div(self, rhs: Seconds) -> Amps {
        Amps::new(self.value() / rhs.value())
    }
}

/// `C = Q / V`
impl Div<Volts> for Coulombs {
    type Output = Farads;
    #[inline]
    fn div(self, rhs: Volts) -> Farads {
        Farads::new(self.value() / rhs.value())
    }
}

/// `Q = C · V`
impl Mul<Volts> for Farads {
    type Output = Coulombs;
    #[inline]
    fn mul(self, rhs: Volts) -> Coulombs {
        Coulombs::new(self.value() * rhs.value())
    }
}

/// `V = Q / C`
impl Div<Farads> for Coulombs {
    type Output = Volts;
    #[inline]
    fn div(self, rhs: Farads) -> Volts {
        Volts::new(self.value() / rhs.value())
    }
}

/// `I = V / R`
impl Div<Ohms> for Volts {
    type Output = Amps;
    #[inline]
    fn div(self, rhs: Ohms) -> Amps {
        Amps::new(self.value() / rhs.value())
    }
}

/// `V = I · R`
impl Mul<Ohms> for Amps {
    type Output = Volts;
    #[inline]
    fn mul(self, rhs: Ohms) -> Volts {
        Volts::new(self.value() * rhs.value())
    }
}

/// `R = V / I`
impl Div<Amps> for Volts {
    type Output = Ohms;
    #[inline]
    fn div(self, rhs: Amps) -> Ohms {
        Ohms::new(self.value() / rhs.value())
    }
}

// ---------------------------------------------------------------------------
// Convenience constructors and conversions.
// ---------------------------------------------------------------------------

impl Volts {
    /// Constructs a voltage given in millivolts.
    ///
    /// # Examples
    ///
    /// ```
    /// use pn_units::Volts;
    /// assert_eq!(Volts::from_millivolts(144.0), Volts::new(0.144));
    /// ```
    pub fn from_millivolts(mv: f64) -> Self {
        Self::new(mv / 1e3)
    }

    /// This voltage expressed in millivolts.
    pub fn to_millivolts(self) -> f64 {
        self.value() * 1e3
    }
}

impl Farads {
    /// Constructs a capacitance given in millifarads.
    ///
    /// # Examples
    ///
    /// ```
    /// use pn_units::Farads;
    /// assert_eq!(Farads::from_millifarads(47.0), Farads::new(0.047));
    /// ```
    pub fn from_millifarads(mf: f64) -> Self {
        Self::new(mf / 1e3)
    }

    /// This capacitance expressed in millifarads.
    pub fn to_millifarads(self) -> f64 {
        self.value() * 1e3
    }
}

impl Watts {
    /// Constructs a power given in milliwatts.
    pub fn from_milliwatts(mw: f64) -> Self {
        Self::new(mw / 1e3)
    }
}

impl Seconds {
    /// Constructs a duration given in milliseconds.
    ///
    /// # Examples
    ///
    /// ```
    /// use pn_units::Seconds;
    /// assert_eq!(Seconds::from_millis(63.21), Seconds::new(0.06321));
    /// ```
    pub fn from_millis(ms: f64) -> Self {
        Self::new(ms / 1e3)
    }

    /// Constructs a duration given in minutes.
    pub fn from_minutes(minutes: f64) -> Self {
        Self::new(minutes * 60.0)
    }

    /// Constructs a duration given in hours.
    pub fn from_hours(hours: f64) -> Self {
        Self::new(hours * 3600.0)
    }

    /// This duration expressed in milliseconds.
    pub fn to_millis(self) -> f64 {
        self.value() * 1e3
    }

    /// Formats the duration as `MM:SS` (as used by the paper's Table II).
    ///
    /// # Examples
    ///
    /// ```
    /// use pn_units::Seconds;
    /// assert_eq!(Seconds::new(5.0).to_mmss(), "00:05");
    /// assert_eq!(Seconds::from_minutes(60.0).to_mmss(), "60:00");
    /// ```
    pub fn to_mmss(self) -> String {
        let total = self.value().max(0.0).round() as u64;
        format!("{:02}:{:02}", total / 60, total % 60)
    }
}

impl Hertz {
    /// Constructs a frequency given in gigahertz.
    ///
    /// # Examples
    ///
    /// ```
    /// use pn_units::Hertz;
    /// assert_eq!(Hertz::from_gigahertz(1.4), Hertz::new(1.4e9));
    /// ```
    pub fn from_gigahertz(ghz: f64) -> Self {
        Self::new(ghz * 1e9)
    }

    /// This frequency expressed in gigahertz.
    pub fn to_gigahertz(self) -> f64 {
        self.value() / 1e9
    }
}

/// Alias-style helper: gigahertz are common enough in the platform model
/// to deserve a dedicated constructor type.
pub type Gigahertz = Hertz;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ohms_law_round_trip() {
        let v = Volts::new(5.0);
        let r = Ohms::new(100.0);
        let i = v / r;
        assert!((i.value() - 0.05).abs() < 1e-12);
        assert!(((i * r) - v).abs() < Volts::new(1e-12));
    }

    #[test]
    fn power_energy_charge_chain() {
        let p = Volts::new(5.3) * Amps::new(1.0);
        let e = p * Seconds::new(10.0);
        assert!((e.value() - 53.0).abs() < 1e-9);
        let q = Amps::new(0.5) * Seconds::new(4.0);
        let c = q / Volts::new(2.0);
        assert!((c.value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_with_precision() {
        assert_eq!(format!("{:.2}", Volts::new(5.3456)), "5.35 V");
        assert_eq!(format!("{:.1}", Watts::new(1.24)), "1.2 W");
    }

    #[test]
    fn clamp_bounds() {
        let v = Volts::new(6.2).clamp(Volts::new(4.1), Volts::new(5.7));
        assert_eq!(v, Volts::new(5.7));
    }

    #[test]
    #[should_panic(expected = "clamp bounds inverted")]
    fn clamp_panics_on_inverted_bounds() {
        let _ = Volts::new(5.0).clamp(Volts::new(5.7), Volts::new(4.1));
    }

    #[test]
    fn sum_of_quantities() {
        let total: Watts = [Watts::new(1.0), Watts::new(2.5)].into_iter().sum();
        assert_eq!(total, Watts::new(3.5));
    }

    proptest! {
        #[test]
        fn add_sub_inverse(a in -1e6f64..1e6, b in -1e6f64..1e6) {
            let x = Volts::new(a);
            let y = Volts::new(b);
            let back = (x + y) - y;
            prop_assert!((back.value() - a).abs() <= 1e-6 * (1.0 + a.abs()));
        }

        #[test]
        fn ratio_is_dimensionless_scale(a in 0.1f64..1e3, k in 0.1f64..100.0) {
            let x = Watts::new(a);
            let y = x * k;
            prop_assert!(((y / x) - k).abs() < 1e-9);
        }

        #[test]
        fn ohms_law_consistency(v in 0.01f64..100.0, r in 0.01f64..1e5) {
            let i = Volts::new(v) / Ohms::new(r);
            let p1 = Volts::new(v) * i;
            let p2 = Amps::new(i.value()) * Volts::new(v);
            prop_assert!((p1.value() - p2.value()).abs() < 1e-9 * (1.0 + p1.value().abs()));
        }

        #[test]
        fn charge_capacitance_round_trip(q in 1e-6f64..10.0, v in 0.5f64..10.0) {
            let c = Coulombs::new(q) / Volts::new(v);
            let q2 = c * Volts::new(v);
            prop_assert!((q2.value() - q).abs() < 1e-9 * (1.0 + q));
        }
    }
}
