//! Safeguarded Newton–Raphson root finding for scalar equations.
//!
//! The solar-cell equation (paper Eq. 4) is implicit in the cell current
//! `I`; it is solved here with Newton iteration, falling back to interval
//! bisection whenever an iterate leaves a caller-supplied bracket. The
//! combination is globally convergent on monotone residuals such as the
//! single-diode equation.

use crate::CircuitError;

// Tuned for the PV operating-point solve, the only one there is: a
// tight residual (sub-microamp) with a generous iteration budget.

/// Absolute tolerance on the residual `|f(x)|`.
pub(crate) const RESIDUAL_TOLERANCE: f64 = 1e-10;
/// Absolute tolerance on the step `|Δx|`.
const STEP_TOLERANCE: f64 = 1e-12;
/// Iterations before giving up.
const MAX_ITERATIONS: usize = 64;

/// Result of a successful root solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonSolution {
    /// The root estimate.
    pub root: f64,
    /// Iterations consumed.
    pub iterations: usize,
}

/// Solves `f(x) = 0` by plain Newton iteration from `x0`.
///
/// `f_df` must return the pair `(f(x), f'(x))`.
///
/// # Errors
///
/// Returns [`CircuitError::SolveDiverged`] when the iteration budget is
/// exhausted or an iterate becomes non-finite.
///
/// # Examples
///
/// ```
/// use pn_circuit::newton::solve;
///
/// # fn main() -> Result<(), pn_circuit::CircuitError> {
/// // sqrt(2) as the positive root of x² − 2.
/// let sol = solve(|x| (x * x - 2.0, 2.0 * x), 1.0)?;
/// assert!((sol.root - 2f64.sqrt()).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
pub fn solve(
    mut f_df: impl FnMut(f64) -> (f64, f64),
    x0: f64,
) -> Result<NewtonSolution, CircuitError> {
    let mut x = x0;
    let mut last_residual = f64::INFINITY;
    for iteration in 0..MAX_ITERATIONS {
        let (fx, dfx) = f_df(x);
        last_residual = fx.abs();
        if last_residual <= RESIDUAL_TOLERANCE {
            return Ok(NewtonSolution { root: x, iterations: iteration });
        }
        if !fx.is_finite() || !dfx.is_finite() || dfx == 0.0 {
            break;
        }
        let step = fx / dfx;
        x -= step;
        if !x.is_finite() {
            break;
        }
        if step.abs() <= STEP_TOLERANCE {
            return Ok(NewtonSolution { root: x, iterations: iteration + 1 });
        }
    }
    Err(CircuitError::SolveDiverged {
        last: x,
        residual: last_residual,
        iterations: MAX_ITERATIONS,
    })
}

/// Solves `f(x) = 0` by Newton iteration safeguarded by bisection on the
/// bracket `[a, b]`.
///
/// Whenever a Newton step leaves the bracket (or the derivative
/// vanishes) the method falls back to the bracket midpoint, so it is
/// globally convergent whenever `f(a)` and `f(b)` have opposite signs.
///
/// # Errors
///
/// * [`CircuitError::BracketInvalid`] if `f(a)` and `f(b)` have the same
///   sign,
/// * [`CircuitError::SolveDiverged`] if the iteration budget runs out.
///
/// # Examples
///
/// ```
/// use pn_circuit::newton::solve_bracketed;
///
/// # fn main() -> Result<(), pn_circuit::CircuitError> {
/// let sol = solve_bracketed(|x| (x.exp() - 3.0, x.exp()), 0.0, 2.0)?;
/// assert!((sol.root - 3f64.ln()).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
pub fn solve_bracketed(
    mut f_df: impl FnMut(f64) -> (f64, f64),
    a: f64,
    b: f64,
) -> Result<NewtonSolution, CircuitError> {
    let (mut lo, mut hi) = if a <= b { (a, b) } else { (b, a) };
    let (f_lo, _) = f_df(lo);
    let (f_hi, _) = f_df(hi);
    if f_lo == 0.0 {
        return Ok(NewtonSolution { root: lo, iterations: 0 });
    }
    if f_hi == 0.0 {
        return Ok(NewtonSolution { root: hi, iterations: 0 });
    }
    if f_lo.signum() == f_hi.signum() {
        return Err(CircuitError::BracketInvalid { a: lo, b: hi });
    }
    // `lo` only moves to iterates of this sign (a zero residual has
    // returned), so `f(lo)` keeps it.
    let sign_lo = f_lo.signum();
    let mut x = 0.5 * (lo + hi);
    let mut last_residual = f64::INFINITY;
    for iteration in 0..MAX_ITERATIONS {
        let (fx, dfx) = f_df(x);
        last_residual = fx.abs();
        if last_residual <= RESIDUAL_TOLERANCE || (hi - lo) <= STEP_TOLERANCE {
            return Ok(NewtonSolution { root: x, iterations: iteration });
        }
        // Maintain the bracket.
        if fx.signum() == sign_lo {
            lo = x;
        } else {
            hi = x;
        }
        // Newton proposal, replaced by bisection when unusable.
        let newton_x = if dfx != 0.0 && dfx.is_finite() && fx.is_finite() {
            x - fx / dfx
        } else {
            f64::NAN
        };
        x = if newton_x.is_finite() && newton_x > lo && newton_x < hi {
            newton_x
        } else {
            0.5 * (lo + hi)
        };
    }
    Err(CircuitError::SolveDiverged {
        last: x,
        residual: last_residual,
        iterations: MAX_ITERATIONS,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn plain_newton_finds_sqrt() {
        let sol = solve(|x| (x * x - 9.0, 2.0 * x), 1.0).unwrap();
        assert!((sol.root - 3.0).abs() < 1e-10);
        assert!(sol.iterations < 20);
    }

    #[test]
    fn plain_newton_reports_divergence() {
        // f(x) = x^(1/3) has an infinite-derivative root that Newton
        // overshoots forever: x_{n+1} = -2 x_n.
        let err = solve(
            |x| (x.signum() * x.abs().powf(1.0 / 3.0), (1.0 / 3.0) * x.abs().powf(-2.0 / 3.0)),
            1.0,
        )
        .unwrap_err();
        match err {
            CircuitError::SolveDiverged { iterations, .. } => {
                assert_eq!(iterations, MAX_ITERATIONS)
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn bracketed_rejects_same_sign_endpoints() {
        let err = solve_bracketed(|x| (x * x + 1.0, 2.0 * x), -1.0, 1.0).unwrap_err();
        assert!(matches!(err, CircuitError::BracketInvalid { .. }));
    }

    #[test]
    fn bracketed_survives_bad_derivative() {
        // Derivative reported as zero everywhere: must fall back to bisection.
        let sol = solve_bracketed(|x| (x - 0.25, 0.0), 0.0, 1.0).unwrap();
        assert!((sol.root - 0.25).abs() < 1e-9);
    }

    #[test]
    fn bracketed_handles_reversed_endpoints() {
        let sol = solve_bracketed(|x| (x - 0.5, 1.0), 1.0, 0.0).unwrap();
        assert!((sol.root - 0.5).abs() < 1e-9);
    }

    #[test]
    fn bracketed_evaluates_once_per_iteration() {
        // The root of eˣ − 3 on [0, 2], as in the doc example: two
        // evaluations at the bracket ends, then one per iterate.
        let mut evaluations = 0;
        let f = |x: f64| {
            evaluations += 1;
            (x.exp() - 3.0, x.exp())
        };
        let sol = solve_bracketed(f, 0.0, 2.0).unwrap();
        assert!(evaluations <= sol.iterations + 3, "{evaluations} for {sol:?}");
        // The root the solver returned when it also re-evaluated f(lo)
        // at every iteration.
        assert_eq!(sol.root.to_bits(), 0x3ff1_93ea_7aad_030a);
    }

    #[test]
    fn exact_endpoint_root_is_returned_immediately() {
        let sol = solve_bracketed(|x| (x, 1.0), 0.0, 1.0).unwrap();
        assert_eq!(sol.root, 0.0);
        assert_eq!(sol.iterations, 0);
    }

    proptest! {
        #[test]
        fn bracketed_finds_roots_of_shifted_exponential(target in 0.05f64..20.0) {
            // Root of e^x − target on a wide bracket.
            let sol = solve_bracketed(|x| (x.exp() - target, x.exp()), -5.0, 5.0).unwrap();
            prop_assert!((sol.root - target.ln()).abs() < 1e-8);
        }

        #[test]
        fn plain_newton_square_roots(target in 0.01f64..1e6) {
            let sol = solve(|x| (x * x - target, 2.0 * x), target.max(1.0)).unwrap();
            prop_assert!((sol.root - target.sqrt()).abs() < 1e-6 * (1.0 + target.sqrt()));
        }
    }
}
