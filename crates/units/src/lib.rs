//! Newtype physical quantities with dimensional arithmetic.
//!
//! Every electrical and temporal quantity used by the `power-neutral`
//! workspace is a newtype over `f64` ([C-NEWTYPE]). The wrappers are
//! deliberately thin — they exist so that a capacitance can never be
//! passed where a voltage is expected — while cross-type operator
//! overloads encode the handful of physical laws the simulator relies on
//! (`V·A = W`, `W·s = J`, `A·s = C`, `Q/V = F`, `V/Ω = A`, …).
//!
//! # Examples
//!
//! ```
//! use pn_units::{Volts, Amps, Watts, Seconds};
//!
//! let v = Volts::new(5.3);
//! let i = Amps::new(0.5);
//! let p: Watts = v * i;
//! assert!((p.value() - 2.65).abs() < 1e-12);
//!
//! let e = p * Seconds::new(2.0);
//! assert!((e.value() - 5.3).abs() < 1e-12);
//! ```
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

mod quantity;

pub use quantity::{
    Amps, Coulombs, Farads, Gigahertz, Hertz, Joules, Ohms, Seconds, Volts, Watts,
    WattsPerSquareMeter,
};
