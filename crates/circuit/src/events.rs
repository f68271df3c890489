//! Zero-crossing location on sampled signals.
//!
//! The co-simulation engine must stop *exactly* where `VC` crosses a
//! comparator threshold — the moment the monitoring hardware of the
//! paper's Fig. 9 raises an interrupt. On an integrated step it locates
//! crossings on the step's cubic ([`StepCubic`](crate::ode::StepCubic)).
//! These helpers serve signals with no such structure, the controlled
//! supply's prescribed waveform: a uniform scan for a sign change, then
//! bisection, mirroring Simulink's zero-crossing detection. The scan
//! misses a level crossed twice between two of its samples.

use crate::CircuitError;

/// Direction of a threshold crossing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrossingDirection {
    /// The signal moved from below the threshold to above it.
    Rising,
    /// The signal moved from above the threshold to below it.
    Falling,
}

/// A located crossing event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Crossing {
    /// Time at which the signal met the threshold.
    pub t: f64,
    /// Crossing direction.
    pub direction: CrossingDirection,
}

/// Locates where `g(t)` crosses zero on `[a, b]` by bisection, given
/// that `g(a)` and `g(b)` straddle zero.
///
/// Returns `None` when no sign change exists on the interval. The
/// returned time is accurate to `tol` seconds.
///
/// # Examples
///
/// ```
/// use pn_circuit::events::bisect_crossing;
///
/// let g = |t: f64| t - 0.3;
/// let c = bisect_crossing(&g, 0.0, 1.0, 1e-12).expect("crossing exists");
/// assert!((c.t - 0.3).abs() < 1e-9);
/// ```
pub fn bisect_crossing(g: &impl Fn(f64) -> f64, a: f64, b: f64, tol: f64) -> Option<Crossing> {
    let ga = g(a);
    let gb = g(b);
    if ga == 0.0 {
        return Some(Crossing { t: a, direction: direction_of(ga, gb) });
    }
    if ga.signum() == gb.signum() {
        return None;
    }
    let direction = direction_of(ga, gb);
    let (mut lo, mut hi) = (a, b);
    let mut g_lo = ga;
    // 128 iterations is enough to hit f64 resolution on any interval.
    for _ in 0..128 {
        if (hi - lo) <= tol {
            break;
        }
        let mid = 0.5 * (lo + hi);
        let g_mid = g(mid);
        if g_mid == 0.0 {
            return Some(Crossing { t: mid, direction });
        }
        if g_mid.signum() == g_lo.signum() {
            lo = mid;
            g_lo = g_mid;
        } else {
            hi = mid;
        }
    }
    // Report the far edge of the bracket so the caller lands *past* the
    // crossing, guaranteeing the comparator condition holds at the event.
    Some(Crossing { t: hi, direction })
}

fn direction_of(ga: f64, gb: f64) -> CrossingDirection {
    if ga < gb {
        CrossingDirection::Rising
    } else {
        CrossingDirection::Falling
    }
}

/// Locates the first crossing of `signal(t)` through `threshold` on
/// `[a, b]`, scanning `subdivisions` uniform sub-intervals so that an
/// even number of crossings inside the step cannot be missed.
///
/// # Errors
///
/// Returns [`CircuitError::InvalidArgument`] when `b < a` or
/// `subdivisions == 0`.
///
/// # Examples
///
/// ```
/// use pn_circuit::events::first_threshold_crossing;
///
/// # fn main() -> Result<(), pn_circuit::CircuitError> {
/// let wave = |t: f64| (t * std::f64::consts::PI).sin();
/// let c = first_threshold_crossing(&wave, 0.5, 0.0, 2.0, 8, 1e-10)?
///     .expect("sine crosses 0.5 twice on [0, 2]");
/// assert!((c.t - 1.0 / 6.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn first_threshold_crossing(
    signal: &impl Fn(f64) -> f64,
    threshold: f64,
    a: f64,
    b: f64,
    subdivisions: usize,
    tol: f64,
) -> Result<Option<Crossing>, CircuitError> {
    if b < a {
        return Err(CircuitError::InvalidArgument("interval end precedes start"));
    }
    if subdivisions == 0 {
        return Err(CircuitError::InvalidArgument("subdivisions must be positive"));
    }
    let g = |t: f64| signal(t) - threshold;
    let width = (b - a) / subdivisions as f64;
    let mut left = a;
    let mut g_left = g(left);
    for i in 1..=subdivisions {
        let right = if i == subdivisions { b } else { a + width * i as f64 };
        let g_right = g(right);
        if g_left == 0.0 {
            // Starting exactly on the threshold does not count as a new
            // crossing; wait for the signal to move away first.
        } else if g_left.signum() != g_right.signum() {
            return Ok(bisect_crossing(&g, left, right, tol));
        }
        left = right;
        g_left = g_right;
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn detects_falling_direction() {
        let g = |t: f64| 1.0 - t;
        let c = bisect_crossing(&g, 0.0, 2.0, 1e-12).unwrap();
        assert_eq!(c.direction, CrossingDirection::Falling);
        assert!((c.t - 1.0).abs() < 1e-9);
    }

    #[test]
    fn no_crossing_returns_none() {
        let g = |_t: f64| 1.0;
        assert!(bisect_crossing(&g, 0.0, 1.0, 1e-12).is_none());
    }

    #[test]
    fn subdivision_catches_double_crossing() {
        // Parabola dips below zero and comes back inside one interval.
        let signal = |t: f64| (t - 0.5) * (t - 0.5);
        // signal - 0.04 has roots at 0.3 and 0.7.
        let c = first_threshold_crossing(&signal, 0.04, 0.0, 1.0, 16, 1e-10).unwrap().unwrap();
        assert!((c.t - 0.3).abs() < 1e-6, "found {}", c.t);
        assert_eq!(c.direction, CrossingDirection::Falling);
    }

    #[test]
    fn starting_on_threshold_is_not_a_crossing() {
        let signal = |t: f64| t;
        let c = first_threshold_crossing(&signal, 0.0, 0.0, 1.0, 4, 1e-10).unwrap();
        assert!(c.is_none(), "got {c:?}");
    }

    #[test]
    fn rejects_invalid_interval() {
        let signal = |t: f64| t;
        assert!(first_threshold_crossing(&signal, 0.0, 1.0, 0.0, 4, 1e-10).is_err());
        assert!(first_threshold_crossing(&signal, 0.0, 0.0, 1.0, 0, 1e-10).is_err());
    }

    proptest! {
        #[test]
        fn linear_crossings_are_exact(threshold in -0.9f64..0.9, slope in 1.0f64..10.0) {
            let signal = move |t: f64| slope * (t - 1.0);
            // crossing at t = 1 + threshold/slope, inside [0, 3] for our ranges
            let expected = 1.0 + threshold / slope;
            let c = first_threshold_crossing(&signal, threshold, 0.0, 3.0, 8, 1e-12)
                .unwrap().unwrap();
            prop_assert!((c.t - expected).abs() < 1e-8);
            prop_assert_eq!(c.direction, CrossingDirection::Rising);
        }

        #[test]
        fn crossing_time_is_inside_interval(a in 0.0f64..1.0, width in 0.1f64..5.0) {
            let b = a + width;
            let signal = |t: f64| t.sin();
            if let Some(c) = first_threshold_crossing(&signal, 0.5, a, b, 32, 1e-10).unwrap() {
                prop_assert!(c.t >= a - 1e-9 && c.t <= b + 1e-9);
                // At the reported time, the signal is at the threshold.
                prop_assert!((signal(c.t) - 0.5).abs() < 1e-6);
            }
        }
    }
}
