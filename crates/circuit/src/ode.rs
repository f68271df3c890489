//! Ordinary differential equation solver: [`Rk23`], the adaptive
//! Bogacki–Shampine 2(3) embedded pair with proportional step-size
//! control and cubic Hermite dense output. This is the same method
//! family as Matlab's `ode23`, which the paper used for its Simulink
//! model (§III).
//!
//! The pair is first-same-as-last (FSAL; Shampine & Reichelt, "The
//! MATLAB ODE Suite", 1997): a step's last stage is the derivative at
//! its end, so a step continuing from there on the same right-hand
//! side costs three evaluations, not four ([`Rk23::step_from`]). The
//! controller scales the step by `0.9·err^(−1/3)`, clamped to
//! `[0.2, 5]` on acceptance and `[0.2, 0.9]` on rejection.
//! [`StepCubic`] splits a scalar step's dense output into monotone
//! pieces. [`first_crossing_on`] and [`time_in_band_on`] locate level
//! crossings and band residency on monotone pieces from any source
//! (the step cubic here, a piecewise-linear waveform elsewhere).
//!
//! The solver integrates one scalar state, the only one the
//! power-neutral co-simulation has: the PV array's junction voltage
//! `V_d = VC + R_s·I` under the exact supply model, in which the
//! single-diode equation is explicit, and the buffer-capacitor voltage
//! `VC` under the interpolated one. The engine integrates only between
//! the discrete events that change the load, and re-expresses each
//! accepted step in `VC` from its stage values for event location.

use crate::CircuitError;

/// Smallest step the controller may take before reporting underflow,
/// seconds: the same as the event-location resolution,
/// [`CROSSING_TOLERANCE`].
pub const MIN_STEP: f64 = 1e-9;

/// The first step a fresh solver tries, seconds. The controller grows
/// or shrinks it from there.
const INITIAL_STEP: f64 = 1e-4;

/// Tolerances and the step ceiling for the adaptive [`Rk23`] solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveOptions {
    /// Relative error tolerance.
    pub rtol: f64,
    /// Absolute error tolerance.
    pub atol: f64,
    /// Largest step the controller may take (caps how far the simulation
    /// can coast past environment breakpoints).
    pub max_step: f64,
}

impl AdaptiveOptions {
    /// Steps of up to `max_step`, seconds, to the tolerance pair
    /// `(rtol, atol)`.
    pub fn new(max_step: f64, (rtol, atol): (f64, f64)) -> Self {
        Self { rtol, atol, max_step }
    }
}

/// One accepted adaptive step, including the data needed for dense
/// output on the step interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceptedStep {
    /// Step start time.
    pub t0: f64,
    /// Step end time.
    pub t1: f64,
    /// State at `t0`.
    pub y0: f64,
    /// State at `t1`.
    pub y1: f64,
    /// Derivative at `t0`.
    pub f0: f64,
    /// Derivative at `t1`.
    pub f1: f64,
}

impl AcceptedStep {
    /// Cubic Hermite interpolation of the state at `t ∈ [t0, t1]`.
    ///
    /// # Panics
    ///
    /// Panics if `t` lies outside the step interval by more than a
    /// floating-point sliver.
    pub fn interpolate(&self, t: f64) -> f64 {
        let h = self.t1 - self.t0;
        if h == 0.0 {
            return self.y1;
        }
        let s = (t - self.t0) / h;
        assert!(
            (-1e-9..=1.0 + 1e-9).contains(&s),
            "interpolation time {t} outside step [{}, {}]",
            self.t0,
            self.t1
        );
        let s = s.clamp(0.0, 1.0);
        let s2 = s * s;
        let s3 = s2 * s;
        let h00 = 2.0 * s3 - 3.0 * s2 + 1.0;
        let h10 = s3 - 2.0 * s2 + s;
        let h01 = -2.0 * s3 + 3.0 * s2;
        let h11 = s3 - s2;
        h00 * self.y0 + h10 * h * self.f0 + h01 * self.y1 + h11 * h * self.f1
    }
}

/// How close [`StepCubic::first_crossing`] brackets a crossing, seconds.
pub const CROSSING_TOLERANCE: f64 = 1e-9;

/// Direction of a threshold crossing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrossingDirection {
    /// The signal moved from below the threshold to above it.
    Rising,
    /// The signal moved from above the threshold to below it.
    Falling,
}

/// The first crossing of `level` in `direction` along `pieces`:
/// monotone pieces in time order, each as its two end points
/// `(t, y)`. The crossing lies on the first piece that starts short of
/// `level` and ends having reached it (`≥ level` rising, `≤ level`
/// falling), where `crossing(start, end, level)` locates it. `None`
/// when no piece does; a crossing in the other direction does not hide
/// a later one.
pub fn first_crossing_on(
    mut pieces: impl Iterator<Item = [(f64, f64); 2]>,
    level: f64,
    direction: CrossingDirection,
    crossing: impl Fn((f64, f64), (f64, f64), f64) -> f64,
) -> Option<f64> {
    let reached = |y: f64| match direction {
        CrossingDirection::Rising => y >= level,
        CrossingDirection::Falling => y <= level,
    };
    pieces.find(|[a, b]| !reached(a.1) && reached(b.1)).map(|[a, b]| crossing(a, b, level))
}

/// Time a signal spends inside `band = [lo, hi]` along `pieces`, given
/// as for [`first_crossing_on`]: each monotone piece enters and leaves
/// the band at most once, where `crossing(start, end, edge)` locates
/// the edge.
pub fn time_in_band_on(
    pieces: impl Iterator<Item = [(f64, f64); 2]>,
    band: (f64, f64),
    crossing: impl Fn((f64, f64), (f64, f64), f64) -> f64,
) -> f64 {
    pieces
        .map(|[(a, fa), (b, fb)]| {
            monotone_time_in_band((a, b), (fa, fb), band, |v| crossing((a, fa), (b, fb), v))
        })
        .sum()
}

/// Time a signal spends inside `[lo, hi]` on `[a, b]`, over which it
/// runs monotonically from `fa` to `fb`. `crosses(v)` is when it passes
/// level `v`, asked only for levels strictly between `fa` and `fb`.
fn monotone_time_in_band(
    (a, b): (f64, f64),
    (fa, fb): (f64, f64),
    (lo, hi): (f64, f64),
    crosses: impl Fn(f64) -> f64,
) -> f64 {
    // Time spent at or below `v`.
    let below = |v: f64| {
        if v >= fa.max(fb) {
            b - a
        } else if v <= fa.min(fb) {
            0.0
        } else if fb > fa {
            crosses(v) - a
        } else {
            b - crosses(v)
        }
    };
    below(hi) - below(lo)
}

/// The dense output of an accepted scalar step as the cubic
/// `y0 + b·s + c·s² + d·s³` in `s = (t − t0)/h`, cut at its stationary
/// points into at most three monotone pieces, on each of which the
/// output passes a level at most once. Built once per step, it serves
/// every level asked of that step: [`StepCubic::first_crossing`]
/// locates comparator crossings and [`StepCubic::crossing`] the edges of
/// a band, both by safeguarded Newton on one piece. Values are read
/// from [`AcceptedStep::interpolate`], so a crossing reported here holds
/// on the interpolant the caller reads.
#[derive(Debug, Clone, Copy)]
pub struct StepCubic {
    step: AcceptedStep,
    /// `(b, c, d)`.
    coef: [f64; 3],
    /// Piece ends `(t, y)`: `t0`, the stationary points inside the
    /// step in time order, `t1`. The first `len` are set.
    knots: [(f64, f64); 4],
    len: usize,
}

impl StepCubic {
    /// Computes the cubic's coefficients and stationary points.
    pub fn new(step: &AcceptedStep) -> Self {
        let h = step.t1 - step.t0;
        let (y0, b, d1) = (step.y0, h * step.f0, h * step.f1);
        let delta = step.y1 - y0;
        let (c, d) = (3.0 * delta - 2.0 * b - d1, b + d1 - 2.0 * delta);
        // Roots of b + 2c·s + 3d·s²; NaN where there are none.
        let mut roots = if d == 0.0 {
            [-b / (2.0 * c), f64::NAN]
        } else {
            let disc = (c * c - 3.0 * d * b).sqrt();
            [(-c - disc) / (3.0 * d), (-c + disc) / (3.0 * d)]
        };
        if roots[1] < roots[0] {
            roots.swap(0, 1);
        }
        let mut cubic = Self {
            step: *step,
            coef: [b, c, d],
            knots: [(step.t0, y0); 4],
            len: 1,
        };
        for s in roots {
            let t = step.t0 + s * h;
            if t > step.t0 && t < step.t1 {
                cubic.knots[cubic.len] = (t, cubic.step.interpolate(t));
                cubic.len += 1;
            }
        }
        cubic.knots[cubic.len] = (step.t1, step.y1);
        cubic.len += 1;
        cubic
    }

    /// The output's time derivative at `t`.
    fn slope(&self, t: f64) -> f64 {
        let h = self.step.t1 - self.step.t0;
        let s = (t - self.step.t0) / h;
        let [b, c, d] = self.coef;
        (b + s * (2.0 * c + s * 3.0 * d)) / h
    }

    /// The monotone pieces of `[from, to] ⊆ [t0, t1]`, in time order,
    /// each as its two end points `(t, y)`: the pieces run between the
    /// window's ends and the stationary points inside it.
    pub fn pieces(&self, from: f64, to: f64) -> impl Iterator<Item = [(f64, f64); 2]> {
        let at = |t: f64| match self.knots[..self.len].iter().find(|k| k.0 == t) {
            Some(&knot) => knot,
            None => (t, self.step.interpolate(t)),
        };
        let mut points = [at(from); 4];
        let mut n = 1;
        for &knot in self.knots[..self.len].iter().filter(|k| k.0 > from && k.0 < to) {
            points[n] = knot;
            n += 1;
        }
        points[n] = at(to);
        (0..n).map(move |k| [points[k], points[k + 1]])
    }

    /// The earliest crossing of `level` in `direction` on `(from, t1]`:
    /// an instant at most [`CROSSING_TOLERANCE`] past the first time
    /// the output, having been short of `level`, reaches it (`≥ level`
    /// rising, `≤ level` falling). The output there has reached
    /// `level`. `None` when it never does so after `from`; a crossing
    /// in the other direction does not hide a later one.
    pub fn first_crossing(
        &self,
        level: f64,
        direction: CrossingDirection,
        from: f64,
    ) -> Option<f64> {
        let pieces = self.pieces(from, self.step.t1);
        first_crossing_on(pieces, level, direction, |a, b, v| self.crossing(a, b, v))
    }

    /// Where the output passes `level` on the monotone piece from
    /// `(ta, ya)` to `(tb, yb)`, with `level` beyond `ya` and not
    /// beyond `yb`: the far end of a bracket at most
    /// [`CROSSING_TOLERANCE`] wide, so the output has reached `level`
    /// there. Newton steps shrink the bracket, replaced by bisection
    /// when they leave it or stall; once a step falls below half the
    /// tolerance, one probe half a tolerance across the estimate closes
    /// the bracket.
    pub fn crossing(&self, (mut lo, ya): (f64, f64), (mut hi, yb): (f64, f64), level: f64) -> f64 {
        let reached = |y: f64| if yb > ya { y >= level } else { y <= level };
        let half = 0.5 * CROSSING_TOLERANCE;
        // The secant through the ends starts the iteration.
        let mut t = lo + (hi - lo) * ((level - ya) / (yb - ya));
        let mut last_dx = hi - lo;
        // Each Newton step is at most half the one before it, or the
        // bracket is bisected instead, so the loop ends long before the
        // cap.
        for _ in 0..128 {
            if hi - lo <= CROSSING_TOLERANCE {
                break;
            }
            if !(t > lo && t < hi) {
                t = 0.5 * (lo + hi);
            }
            let y = self.step.interpolate(t);
            let below = !reached(y);
            if below {
                lo = t;
            } else {
                hi = t;
            }
            let newton = t - (y - level) / self.slope(t);
            let dx = (newton - t).abs();
            (t, last_dx) = if dx < half {
                // A failed probe bisects next.
                (if below { t + half } else { t - half }, 0.0)
            } else if !(newton > lo && newton < hi) || dx > 0.5 * last_dx {
                (0.5 * (lo + hi), 0.5 * (hi - lo))
            } else {
                (newton, dx)
            };
        }
        hi
    }
}

/// Adaptive Bogacki–Shampine 2(3) solver (the `ode23` method).
///
/// The solver holds its current step-size estimate between calls so that
/// a caller-driven loop (such as the co-simulation engine, which must
/// stop at comparator events) retains full step-control history.
///
/// # Examples
///
/// ```
/// use pn_circuit::ode::{AdaptiveOptions, Rk23};
///
/// # fn main() -> Result<(), pn_circuit::CircuitError> {
/// // dy/dt = -y, y(0) = 1  ⇒  y(1) = e⁻¹, one accepted step at a time.
/// let mut solver = Rk23::new(AdaptiveOptions::new(0.05, (1e-6, 1e-8)));
/// let mut f = |_t: f64, y: f64| -y;
/// let (mut t, mut y) = (0.0, 1.0);
/// while t < 1.0 {
///     let step = solver.step(&mut f, t, y, 1.0)?;
///     (t, y) = (step.t1, step.y1);
/// }
/// assert!((y - (-1.0f64).exp()).abs() < 1e-5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Rk23 {
    options: AdaptiveOptions,
    h: f64,
}

impl Rk23 {
    /// Creates a solver with the given options.
    pub fn new(options: AdaptiveOptions) -> Self {
        Self { h: INITIAL_STEP, options }
    }

    /// The solver options.
    pub fn options(&self) -> &AdaptiveOptions {
        &self.options
    }

    /// Notifies the controller of a right-hand-side discontinuity at a
    /// step boundary (an OPP change, a threshold reprogram). It keeps
    /// the learned step estimate rather than resetting it to the
    /// initial guess — the first step after the jump is error-controlled
    /// like any other and is simply rejected and shrunk if the new
    /// dynamics need it, which costs one extra derivative sweep instead
    /// of the four-to-five re-growth steps a full reset forces.
    pub fn notify_discontinuity(&mut self) {
        // Trim the estimate slightly: the post-event derivative often
        // differs enough that a full-size first step would be rejected
        // outright; half the estimate keeps most of the learned size
        // while making first-try acceptance the common case.
        self.h = (0.5 * self.h).clamp(MIN_STEP, self.options.max_step);
    }

    /// Performs one accepted adaptive step of `dy/dt = f(t, y)` from
    /// `(t, y)`, never stepping past `t_limit`.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::InvalidArgument`] if `t_limit <= t`,
    /// * [`CircuitError::StepSizeUnderflow`] if the error tolerance
    ///   cannot be met at the minimum step size, or the error estimate
    ///   is not a number there.
    pub fn step(
        &mut self,
        mut f: impl FnMut(f64, f64) -> f64,
        t: f64,
        y: f64,
        t_limit: f64,
    ) -> Result<AcceptedStep, CircuitError> {
        let f0 = f(t, y);
        self.step_from(f, t, y, f0, t_limit)
    }

    /// [`Rk23::step`] with the derivative `f0 = f(t, y)` supplied. The
    /// pair is first-same-as-last: a step's last stage is the
    /// derivative at its end point, so a caller continuing from an
    /// accepted step's `(t1, y1)` on an unchanged right-hand side
    /// passes its `f1` and saves one evaluation per step. When `f0` is
    /// bitwise `f(t, y)` the step is bitwise that of [`Rk23::step`].
    ///
    /// # Errors
    ///
    /// Same contract as [`Rk23::step`].
    pub fn step_from(
        &mut self,
        mut f: impl FnMut(f64, f64) -> f64,
        t: f64,
        y: f64,
        f0: f64,
        t_limit: f64,
    ) -> Result<AcceptedStep, CircuitError> {
        if !(t_limit > t) {
            return Err(CircuitError::InvalidArgument("t_limit must exceed t"));
        }
        let opts = self.options;
        let mut h = self.h.clamp(MIN_STEP, opts.max_step).min(t_limit - t);
        loop {
            // Bogacki–Shampine tableau.
            let k1 = f0;
            let k2 = f(t + 0.5 * h, y + 0.5 * h * k1);
            let k3 = f(t + 0.75 * h, y + 0.75 * h * k2);
            let y1 = y + h * (2.0 / 9.0 * k1 + 1.0 / 3.0 * k2 + 4.0 / 9.0 * k3);
            let k4 = f(t + h, y1);
            // Embedded 2nd-order solution for the error estimate.
            let z = y + h * (7.0 / 24.0 * k1 + 0.25 * k2 + 1.0 / 3.0 * k3 + 0.125 * k4);
            let scale = opts.atol + opts.rtol * y.abs().max(y1.abs());
            // NaN when the right-hand side was: rejected below.
            let error_norm = ((y1 - z) / scale).abs();
            if error_norm <= 1.0 || h <= MIN_STEP {
                // At the minimum step a step is accepted anyway if its
                // error is within three orders of the tolerance;
                // otherwise, or when there is no error estimate, the
                // tolerance is out of reach.
                if !(error_norm <= 1e3) {
                    return Err(CircuitError::StepSizeUnderflow { t, step: h });
                }
                // Step accepted: update the stored step estimate for the
                // next call.
                self.h = (h * growth(error_norm)).clamp(MIN_STEP, opts.max_step);
                return Ok(AcceptedStep { t0: t, t1: t + h, y0: y, y1, f0: k1, f1: k4 });
            }
            // Step rejected (NaN included): shrink and retry.
            let shrink = (0.9 / error_norm.cbrt()).clamp(0.2, 0.9);
            h = (h * shrink).max(MIN_STEP);
        }
    }
}

/// Error norm below which the step-growth clamp decides alone:
/// `0.9 / ∛0.005 ≈ 5.26` already exceeds the largest growth, 5.
const GROWTH_CLAMPED_BELOW: f64 = 0.005;

/// Step growth after an accepted step: the standard I-controller for
/// order 3, `0.9 / ∛error_norm` clamped to `[0.2, 5]`. Half the accepted
/// steps of a power-neutral hour land below [`GROWTH_CLAMPED_BELOW`],
/// where the clamp returns 5 and the `cbrt` is skipped.
fn growth(error_norm: f64) -> f64 {
    if error_norm < GROWTH_CLAMPED_BELOW {
        5.0
    } else {
        (0.9 / error_norm.cbrt()).clamp(0.2, 5.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn growth_shortcut_matches_the_clamped_cbrt_bitwise() {
        let full = |e: f64| (0.9 / e.cbrt()).clamp(0.2, 5.0);
        let mut below = vec![f64::from_bits(1), f64::MIN_POSITIVE, 1e-300, 1e-12, 1e-6, 1e-3];
        let mut e = GROWTH_CLAMPED_BELOW;
        for _ in 0..1000 {
            e = e.next_down();
            below.push(e);
        }
        below.extend((1..5000).map(|k| GROWTH_CLAMPED_BELOW * f64::from(k) / 5000.0));
        for e in below {
            assert!(e < GROWTH_CLAMPED_BELOW);
            assert_eq!(growth(e).to_bits(), full(e).to_bits(), "error norm {e:e}");
        }
        // An exact step (zero error norm) grows by the ceiling.
        assert_eq!(growth(0.0), 5.0);
        for e in [GROWTH_CLAMPED_BELOW, 0.01, 0.5, 1.0] {
            assert_eq!(growth(e).to_bits(), full(e).to_bits(), "error norm {e:e}");
        }
    }

    fn exp_decay(_t: f64, y: f64) -> f64 {
        -y
    }

    /// Integrates from `t0` to `t_end` and returns the final state;
    /// each step's last stage serves as the next one's first.
    fn integrate(
        solver: &mut Rk23,
        mut f: impl FnMut(f64, f64) -> f64,
        t0: f64,
        y0: f64,
        t_end: f64,
    ) -> f64 {
        let (mut t, mut y) = (t0, y0);
        let mut f1 = None;
        while t < t_end {
            let f0 = f1.unwrap_or_else(|| f(t, y));
            let step = solver.step_from(&mut f, t, y, f0, t_end).unwrap();
            (t, y, f1) = (step.t1, step.y1, Some(step.f1));
        }
        y
    }

    #[test]
    fn rk23_matches_analytic_exponential() {
        let mut solver = Rk23::new(AdaptiveOptions::new(0.5, (1e-6, 1e-8)));
        let y = integrate(&mut solver, exp_decay, 0.0, 1.0, 3.0);
        assert!((y - (-3.0f64).exp()).abs() < 1e-5);
    }

    #[test]
    fn a_nan_right_hand_side_is_rejected_down_to_underflow() {
        // No error estimate exists: the step shrinks to the minimum
        // and fails there rather than accepting a NaN state.
        let mut solver = Rk23::new(AdaptiveOptions::new(5e-2, (1e-6, 1e-8)));
        let result = solver.step(|_, _| f64::NAN, 0.0, 1.0, 1.0);
        assert!(
            matches!(result, Err(CircuitError::StepSizeUnderflow { step, .. }) if step == MIN_STEP),
            "{result:?}"
        );
        // Past the first stage only, too.
        let result = solver.step(|t, y| if t > 0.0 { f64::NAN } else { -y }, 0.0, 1.0, 1.0);
        assert!(matches!(result, Err(CircuitError::StepSizeUnderflow { .. })), "{result:?}");
    }

    #[test]
    fn notify_discontinuity_keeps_the_learned_step() {
        let mut solver = Rk23::new(AdaptiveOptions::new(5e-2, (1e-6, 1e-8)));
        // Let the controller grow the step on an easy problem.
        integrate(&mut solver, exp_decay, 0.0, 1.0, 2.0);
        let learned = solver.h;
        assert!(learned > 10.0 * INITIAL_STEP, "step never grew: {learned}");
        solver.notify_discontinuity();
        let kept = solver.h;
        assert!((kept - 0.5 * learned).abs() < 1e-15, "kept {kept} vs learned {learned}");
        // And the trimmed estimate stays within the configured bounds.
        let mut tiny = Rk23::new(AdaptiveOptions::new(5e-2, (1e-6, 1e-8)));
        for _ in 0..100 {
            tiny.notify_discontinuity();
        }
        assert!(tiny.h >= MIN_STEP);
    }

    #[test]
    fn rk23_respects_t_limit() {
        let mut solver = Rk23::new(AdaptiveOptions::new(5e-2, (1e-6, 1e-8)));
        let step = solver.step(exp_decay, 0.0, 1.0, 1e-6).unwrap();
        assert!(step.t1 <= 1e-6 + 1e-18);
    }

    #[test]
    fn rk23_rejects_backwards_span() {
        let mut solver = Rk23::new(AdaptiveOptions::new(5e-2, (1e-6, 1e-8)));
        assert!(matches!(
            solver.step(exp_decay, 1.0, 1.0, 0.0),
            Err(CircuitError::InvalidArgument(_))
        ));
    }

    #[test]
    fn dense_output_endpoints_match() {
        let mut solver = Rk23::new(AdaptiveOptions::new(5e-2, (1e-6, 1e-8)));
        let step = solver.step(exp_decay, 0.0, 1.0, 0.5).unwrap();
        let at_start = step.interpolate(step.t0);
        let at_end = step.interpolate(step.t1);
        assert!((at_start - step.y0).abs() < 1e-12);
        assert!((at_end - step.y1).abs() < 1e-12);
    }

    #[test]
    fn dense_output_midpoint_accuracy() {
        let mut solver = Rk23::new(AdaptiveOptions::new(0.2, (1e-6, 1e-8)));
        let step = solver.step(exp_decay, 0.0, 1.0, 0.2).unwrap();
        let tm = 0.5 * (step.t0 + step.t1);
        let interp = step.interpolate(tm);
        assert!((interp - (-tm).exp()).abs() < 1e-6);
    }

    /// A non-trivial 1-D system: forced, nonlinear and time-dependent.
    fn forced(t: f64, y: f64) -> f64 {
        (3.0 * t).sin() - y * y * y
    }

    #[test]
    fn reusing_the_last_stage_is_bitwise_a_fresh_first_stage() {
        let options = AdaptiveOptions::new(0.1, (1e-6, 1e-8));
        let (mut fresh, mut reused) = (Rk23::new(options), Rk23::new(options));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let (mut t, mut y, mut f1) = (0.0, 0.5, None);
        while t < 4.0 {
            let step = fresh.step(forced, t, y, 4.0).unwrap();
            (t, y) = (step.t1, step.y1);
            a.push(step);
        }
        (t, y) = (0.0, 0.5);
        while t < 4.0 {
            let f0 = f1.unwrap_or_else(|| forced(t, y));
            let step = reused.step_from(forced, t, y, f0, 4.0).unwrap();
            (t, y, f1) = (step.t1, step.y1, Some(step.f1));
            b.push(step);
        }
        assert!(a.len() > 20, "{} steps", a.len());
        assert_eq!(a, b);
    }

    #[test]
    fn a_reused_last_stage_leaves_three_evaluations_per_step() {
        let evaluations = std::cell::Cell::new(0);
        let mut counted = |t: f64, y: f64| {
            evaluations.set(evaluations.get() + 1);
            forced(t, y)
        };
        // Steps capped well below what the tolerance allows: none is
        // rejected, so each costs its three new stages and no more.
        let options = AdaptiveOptions::new(0.01, (1e-4, 1e-6));
        let mut solver = Rk23::new(options);
        let (mut t, mut y, mut steps) = (0.0, 0.5, 0);
        let mut f0 = counted(t, y);
        while t < 4.0 {
            let step = solver.step_from(&mut counted, t, y, f0, 4.0).unwrap();
            (t, y, f0) = (step.t1, step.y1, step.f1);
            steps += 1;
        }
        assert!(steps > 20, "{steps} steps");
        assert_eq!(evaluations.get(), 1 + 3 * steps);
    }

    /// Where the 10⁴-point sampled interpolant first reaches `level`
    /// from short of it, refined by bisection to a bracket `(lo, hi]`.
    fn sampled_first_crossing(
        step: &AcceptedStep,
        level: f64,
        rising: bool,
    ) -> Option<(f64, f64)> {
        let reached = |t: f64| {
            let y = step.interpolate(t);
            if rising { y >= level } else { y <= level }
        };
        const N: usize = 10_000;
        let h = step.t1 - step.t0;
        let at = |k: usize| if k == N { step.t1 } else { step.t0 + h * k as f64 / N as f64 };
        let k = (0..N).find(|&k| !reached(at(k)) && reached(at(k + 1)))?;
        let (mut lo, mut hi) = (at(k), at(k + 1));
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if mid <= lo || mid >= hi {
                break;
            }
            if reached(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some((lo, hi))
    }

    #[test]
    fn two_crossings_inside_one_eighth_of_a_step_are_found() {
        // p(s) = (s − 0.03)(s − 0.09)(1 + s) on [0, 1]: it dips below
        // zero on (0.03, 0.09) only, between two samples of a uniform
        // 8-way scan, which would see no sign change.
        let step = AcceptedStep {
            t0: 0.0,
            t1: 1.0,
            y0: 0.0027,
            y1: 1.7654,
            f0: -0.1173,
            f1: 4.6427,
        };
        let signal = |t: f64| step.interpolate(t);
        let cubic = StepCubic::new(&step);
        let down = cubic.first_crossing(0.0, CrossingDirection::Falling, 0.0).unwrap();
        let up = cubic.first_crossing(0.0, CrossingDirection::Rising, 0.0).unwrap();
        for (t, root) in [(down, 0.03), (up, 0.09)] {
            assert!(t >= root - 1e-12 && t <= root + CROSSING_TOLERANCE, "{t} vs {root}");
        }
        assert!(signal(down) <= 0.0 && signal(up) >= 0.0);
        // Armed past the dip, neither direction is crossed again.
        assert_eq!(cubic.first_crossing(0.0, CrossingDirection::Falling, 0.1), None);
        assert_eq!(cubic.first_crossing(0.0, CrossingDirection::Rising, 0.1), None);
    }

    #[test]
    fn band_time_of_a_monotone_span() {
        let ramp = |v: f64| v; // rising 1 V/s from 0 V at t = 0
        assert_eq!(monotone_time_in_band((0.0, 4.0), (0.0, 4.0), (1.0, 2.0), ramp), 1.0);
        let fall = |v: f64| 4.0 - v; // falling from 4 V to 0 V
        assert_eq!(monotone_time_in_band((0.0, 4.0), (4.0, 0.0), (1.0, 2.0), fall), 1.0);
        // Wholly inside, wholly outside, and half out of the band.
        assert_eq!(monotone_time_in_band((0.0, 4.0), (1.0, 1.5), (1.0, 2.0), ramp), 4.0);
        assert_eq!(monotone_time_in_band((0.0, 4.0), (2.5, 3.0), (1.0, 2.0), ramp), 0.0);
        assert_eq!(monotone_time_in_band((1.0, 3.0), (1.0, 3.0), (1.0, 2.0), ramp), 1.0);
    }

    #[test]
    fn dense_band_time_splits_at_the_extrema() {
        // Through (10 s, 0 V) and (12 s, 0 V) with slopes 0.5 V/s, the
        // dense output is p(s) = s(2s − 1)(s − 1) in s = (t − 10)/2:
        // above zero on (0, 1/2) with its top, ≈0.096 V, at s ≈ 0.211,
        // and below zero on (1/2, 1).
        let step = AcceptedStep { t0: 10.0, t1: 12.0, y0: 0.0, y1: 0.0, f0: 0.5, f1: 0.5 };
        let p = |s: f64| s * (2.0 * s - 1.0) * (s - 1.0);
        for s in [0.0, 0.2, 0.5, 0.9, 1.0] {
            assert!((step.interpolate(10.0 + 2.0 * s) - p(s)).abs() < 1e-15, "at {s}");
        }
        let cubic = StepCubic::new(&step);
        let band_time = |t_end: f64, band: (f64, f64)| {
            time_in_band_on(cubic.pieces(10.0, t_end), band, |a, b, v| cubic.crossing(a, b, v))
        };
        let inside = band_time(12.0, (0.0, 1.0));
        assert!((inside - 1.0).abs() < 1e-9, "{inside}");
        // [0.05, 1] holds the hump between the two smallest roots of
        // p(s) = 0.05.
        let root = |mut lo: f64, mut hi: f64| {
            for _ in 0..100 {
                let mid = 0.5 * (lo + hi);
                if (p(mid) > 0.05) == (p(hi) > 0.05) {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            hi
        };
        let (rise, fall) = (root(0.0, 0.2113), root(0.2113, 0.5));
        let hump = band_time(12.0, (0.05, 1.0));
        assert!((hump - 2.0 * (fall - rise)).abs() < 1e-9, "{hump}");
        // Cut short at s = 1/4, past the top: the fall is not reached.
        let cut = band_time(10.5, (0.05, 1.0));
        assert!((cut - 2.0 * (0.25 - rise)).abs() < 1e-9, "{cut}");
    }

    proptest! {
        #[test]
        fn the_step_cubic_finds_the_first_crossing_of_the_sampled_interpolant(
            t0 in 0.0f64..100.0,
            h in 1e-3f64..1.0,
            ends in proptest::collection::vec(-1.0f64..1.0, 2..3),
            slopes in proptest::collection::vec(-5.0f64..5.0, 2..3),
            level in -1.5f64..1.5,
            rising in proptest::bool::ANY,
        ) {
            let step = AcceptedStep {
                t0,
                t1: t0 + h,
                y0: ends[0],
                y1: ends[1],
                f0: slopes[0],
                f1: slopes[1],
            };
            let direction =
                if rising { CrossingDirection::Rising } else { CrossingDirection::Falling };
            let found = StepCubic::new(&step).first_crossing(level, direction, t0);
            let reference = sampled_first_crossing(&step, level, rising);
            prop_assert_eq!(found.is_some(), reference.is_some(), "{:?} vs {:?}", found, reference);
            if let (Some(t), Some((lo, hi))) = (found, reference) {
                let y = step.interpolate(t);
                prop_assert!(if rising { y >= level } else { y <= level }, "{} at {}", y, t);
                prop_assert!(
                    t >= lo - 1e-12 && t - hi <= CROSSING_TOLERANCE,
                    "{} vs ({}, {}]", t, lo, hi
                );
            }
        }

        #[test]
        fn rk23_exponential_growth(rate in -2.0f64..2.0, t_end in 0.1f64..3.0) {
            let f = move |_t: f64, y: f64| rate * y;
            let mut solver = Rk23::new(AdaptiveOptions::new(0.25, (1e-6, 1e-8)));
            let y = integrate(&mut solver, f, 0.0, 1.0, t_end);
            let exact = (rate * t_end).exp();
            prop_assert!((y - exact).abs() < 1e-4 * (1.0 + exact.abs()));
        }
    }
}
