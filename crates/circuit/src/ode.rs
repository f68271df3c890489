//! Ordinary differential equation solver: [`Rk23`], the adaptive
//! Bogacki–Shampine 2(3) embedded pair with proportional step-size
//! control and cubic Hermite dense output. This is the same method
//! family as Matlab's `ode23`, which the paper used for its Simulink
//! model (§III).
//!
//! The solver operates on fixed-size state vectors `[f64; N]`; the
//! power-neutral co-simulation only needs `N = 1` (the buffer-capacitor
//! voltage), but it is written for arbitrary small systems and is
//! tested on 2-dimensional oscillators.

use crate::CircuitError;

/// Right-hand side of an ODE system `dy/dt = f(t, y)`.
///
/// Implemented for all closures of the matching signature; a named trait
/// keeps solver signatures readable.
pub trait OdeSystem<const N: usize> {
    /// Evaluates the derivative at time `t` and state `y`.
    fn eval(&mut self, t: f64, y: &[f64; N]) -> [f64; N];
}

impl<F, const N: usize> OdeSystem<N> for F
where
    F: FnMut(f64, &[f64; N]) -> [f64; N],
{
    fn eval(&mut self, t: f64, y: &[f64; N]) -> [f64; N] {
        self(t, y)
    }
}

fn axpy<const N: usize>(y: &[f64; N], h: f64, k: &[f64; N]) -> [f64; N] {
    let mut out = *y;
    for i in 0..N {
        out[i] += h * k[i];
    }
    out
}

/// Tolerances and step bounds for the adaptive [`Rk23`] solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveOptions {
    /// Relative error tolerance.
    pub rtol: f64,
    /// Absolute error tolerance.
    pub atol: f64,
    /// Smallest step the controller may take before reporting underflow.
    pub min_step: f64,
    /// Largest step the controller may take (caps how far the simulation
    /// can coast past environment breakpoints).
    pub max_step: f64,
    /// Initial step size guess.
    pub initial_step: f64,
}

impl AdaptiveOptions {
    /// Defaults matched to the power-neutral co-simulation: millivolt
    /// accuracy on a volts-scale state with steps between 1 µs and 50 ms.
    pub fn new() -> Self {
        Self { rtol: 1e-6, atol: 1e-8, min_step: 1e-9, max_step: 5e-2, initial_step: 1e-4 }
    }

    /// Sets the maximum step (builder style).
    pub fn with_max_step(mut self, max_step: f64) -> Self {
        self.max_step = max_step;
        self
    }

    /// Sets the tolerances (builder style).
    pub fn with_tolerances(mut self, rtol: f64, atol: f64) -> Self {
        self.rtol = rtol;
        self.atol = atol;
        self
    }
}

impl Default for AdaptiveOptions {
    fn default() -> Self {
        Self::new()
    }
}

/// One accepted adaptive step, including the data needed for dense
/// output on the step interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceptedStep<const N: usize> {
    /// Step start time.
    pub t0: f64,
    /// Step end time.
    pub t1: f64,
    /// State at `t0`.
    pub y0: [f64; N],
    /// State at `t1`.
    pub y1: [f64; N],
    /// Derivative at `t0`.
    pub f0: [f64; N],
    /// Derivative at `t1`.
    pub f1: [f64; N],
    /// Local error estimate (scaled norm; ≤ 1 means accepted).
    pub error_norm: f64,
}

impl<const N: usize> AcceptedStep<N> {
    /// Cubic Hermite interpolation of the state at `t ∈ [t0, t1]`.
    ///
    /// # Panics
    ///
    /// Panics if `t` lies outside the step interval by more than a
    /// floating-point sliver.
    pub fn interpolate(&self, t: f64) -> [f64; N] {
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
        let mut out = [0.0; N];
        for (i, o) in out.iter_mut().enumerate() {
            *o = h00 * self.y0[i] + h10 * h * self.f0[i] + h01 * self.y1[i] + h11 * h * self.f1[i];
        }
        out
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
/// // dy/dt = -y, y(0) = 1  ⇒  y(1) = e⁻¹.
/// let mut solver = Rk23::new(AdaptiveOptions::new());
/// let mut f = |_t: f64, y: &[f64; 1]| [-y[0]];
/// let y = solver.integrate(&mut f, 0.0, [1.0], 1.0)?;
/// assert!((y[0] - (-1.0f64).exp()).abs() < 1e-5);
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
        Self { h: options.initial_step, options }
    }

    /// The solver options.
    pub fn options(&self) -> &AdaptiveOptions {
        &self.options
    }

    /// Current step-size estimate.
    pub fn current_step(&self) -> f64 {
        self.h
    }

    /// Resets the step-size estimate (e.g. after a discontinuity in the
    /// right-hand side such as an OPP change).
    pub fn reset_step(&mut self) {
        self.h = self.options.initial_step;
    }

    /// Notifies the controller of a right-hand-side discontinuity at a
    /// step boundary (an OPP change, a threshold reprogram). Unlike
    /// [`Rk23::reset_step`], this keeps the learned step estimate —
    /// the first step after the jump is error-controlled like any
    /// other and is simply rejected and shrunk if the new dynamics
    /// need it, which costs one extra derivative sweep instead of the
    /// four-to-five re-growth steps a full reset forces.
    pub fn notify_discontinuity(&mut self) {
        // Trim the estimate slightly: the post-event derivative often
        // differs enough that a full-size first step would be rejected
        // outright; half the estimate keeps most of the learned size
        // while making first-try acceptance the common case.
        self.h = (0.5 * self.h).clamp(self.options.min_step, self.options.max_step);
    }

    /// Performs one accepted adaptive step from `(t, y)`, never stepping
    /// past `t_limit`.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::InvalidArgument`] if `t_limit <= t`,
    /// * [`CircuitError::StepSizeUnderflow`] if the error tolerance
    ///   cannot be met at the minimum step size.
    pub fn step<const N: usize>(
        &mut self,
        system: &mut impl OdeSystem<N>,
        t: f64,
        y: &[f64; N],
        t_limit: f64,
    ) -> Result<AcceptedStep<N>, CircuitError> {
        if !(t_limit > t) {
            return Err(CircuitError::InvalidArgument("t_limit must exceed t"));
        }
        let opts = self.options;
        let mut h = self.h.clamp(opts.min_step, opts.max_step).min(t_limit - t);
        let f0 = system.eval(t, y);
        loop {
            // Bogacki–Shampine tableau.
            let k1 = f0;
            let k2 = system.eval(t + 0.5 * h, &axpy(y, 0.5 * h, &k1));
            let k3 = system.eval(t + 0.75 * h, &axpy(y, 0.75 * h, &k2));
            let mut y1 = *y;
            for i in 0..N {
                y1[i] += h * (2.0 / 9.0 * k1[i] + 1.0 / 3.0 * k2[i] + 4.0 / 9.0 * k3[i]);
            }
            let k4 = system.eval(t + h, &y1);
            // Embedded 2nd-order solution for the error estimate.
            let mut error_norm: f64 = 0.0;
            for i in 0..N {
                let z = y[i]
                    + h * (7.0 / 24.0 * k1[i] + 0.25 * k2[i] + 1.0 / 3.0 * k3[i] + 0.125 * k4[i]);
                let scale = opts.atol + opts.rtol * y[i].abs().max(y1[i].abs());
                error_norm = error_norm.max(((y1[i] - z) / scale).abs());
            }
            if error_norm <= 1.0 || h <= opts.min_step {
                if error_norm > 1.0 && h <= opts.min_step {
                    // Accept anyway but only if the absolute error is
                    // small; otherwise report underflow.
                    if error_norm > 1e3 {
                        return Err(CircuitError::StepSizeUnderflow { t, step: h });
                    }
                }
                // Step accepted: update the stored step estimate for the
                // next call (standard I-controller, order 3 ⇒ exponent 1/3).
                let grow = if error_norm > 0.0 {
                    (0.9 * (1.0 / error_norm).powf(1.0 / 3.0)).clamp(0.2, 5.0)
                } else {
                    5.0
                };
                self.h = (h * grow).clamp(opts.min_step, opts.max_step);
                return Ok(AcceptedStep { t0: t, t1: t + h, y0: *y, y1, f0: k1, f1: k4, error_norm });
            }
            // Step rejected: shrink and retry.
            let shrink = (0.9 * (1.0 / error_norm).powf(1.0 / 3.0)).clamp(0.2, 0.9);
            h = (h * shrink).max(opts.min_step);
        }
    }

    /// Integrates from `t0` to `t_end`, returning the final state.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`Rk23::step`]; additionally rejects a
    /// backwards time span.
    pub fn integrate<const N: usize>(
        &mut self,
        system: &mut impl OdeSystem<N>,
        t0: f64,
        y0: [f64; N],
        t_end: f64,
    ) -> Result<[f64; N], CircuitError> {
        if t_end < t0 {
            return Err(CircuitError::InvalidArgument("t_end must not precede t0"));
        }
        let mut t = t0;
        let mut y = y0;
        while t < t_end {
            let step = self.step(system, t, &y, t_end)?;
            t = step.t1;
            y = step.y1;
        }
        Ok(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn exp_decay(_t: f64, y: &[f64; 1]) -> [f64; 1] {
        [-y[0]]
    }

    #[test]
    fn rk23_matches_analytic_exponential() {
        let mut solver = Rk23::new(AdaptiveOptions::new().with_max_step(0.5));
        let y = solver.integrate(&mut exp_decay, 0.0, [1.0], 3.0).unwrap();
        assert!((y[0] - (-3.0f64).exp()).abs() < 1e-5);
    }

    #[test]
    fn rk23_two_dimensional_oscillator_conserves_energy_approximately() {
        // y'' = -y as a 2-system; energy drift must stay tiny over 10 periods.
        let mut f = |_t: f64, y: &[f64; 2]| [y[1], -y[0]];
        let mut solver =
            Rk23::new(AdaptiveOptions::new().with_tolerances(1e-9, 1e-12).with_max_step(0.1));
        let y = solver.integrate(&mut f, 0.0, [1.0, 0.0], 20.0 * std::f64::consts::PI).unwrap();
        let energy = y[0] * y[0] + y[1] * y[1];
        assert!((energy - 1.0).abs() < 1e-4, "energy drift {energy}");
    }

    #[test]
    fn notify_discontinuity_keeps_the_learned_step() {
        let mut solver = Rk23::new(AdaptiveOptions::new());
        // Let the controller grow the step on an easy problem.
        solver.integrate(&mut exp_decay, 0.0, [1.0], 2.0).unwrap();
        let learned = solver.current_step();
        assert!(learned > 10.0 * solver.options().initial_step, "step never grew: {learned}");
        solver.notify_discontinuity();
        let kept = solver.current_step();
        assert!((kept - 0.5 * learned).abs() < 1e-15, "kept {kept} vs learned {learned}");
        // A full reset still collapses to the initial guess.
        solver.reset_step();
        assert_eq!(solver.current_step(), solver.options().initial_step);
        // And the trimmed estimate stays within the configured bounds.
        let mut tiny = Rk23::new(AdaptiveOptions::new());
        for _ in 0..100 {
            tiny.notify_discontinuity();
        }
        assert!(tiny.current_step() >= tiny.options().min_step);
    }

    #[test]
    fn rk23_respects_t_limit() {
        let mut solver = Rk23::new(AdaptiveOptions::new());
        let step = solver.step(&mut exp_decay, 0.0, &[1.0], 1e-6).unwrap();
        assert!(step.t1 <= 1e-6 + 1e-18);
    }

    #[test]
    fn rk23_rejects_backwards_span() {
        let mut solver = Rk23::new(AdaptiveOptions::new());
        assert!(matches!(
            solver.integrate(&mut exp_decay, 1.0, [1.0], 0.0),
            Err(CircuitError::InvalidArgument(_))
        ));
    }

    #[test]
    fn dense_output_endpoints_match() {
        let mut solver = Rk23::new(AdaptiveOptions::new());
        let step = solver.step(&mut exp_decay, 0.0, &[1.0], 0.5).unwrap();
        let at_start = step.interpolate(step.t0);
        let at_end = step.interpolate(step.t1);
        assert!((at_start[0] - step.y0[0]).abs() < 1e-12);
        assert!((at_end[0] - step.y1[0]).abs() < 1e-12);
    }

    #[test]
    fn dense_output_midpoint_accuracy() {
        let mut solver = Rk23::new(AdaptiveOptions::new().with_max_step(0.2));
        let step = solver.step(&mut exp_decay, 0.0, &[1.0], 0.2).unwrap();
        let tm = 0.5 * (step.t0 + step.t1);
        let interp = step.interpolate(tm)[0];
        assert!((interp - (-tm).exp()).abs() < 1e-6);
    }

    proptest! {
        #[test]
        fn rk23_exponential_growth(rate in -2.0f64..2.0, t_end in 0.1f64..3.0) {
            let mut f = move |_t: f64, y: &[f64; 1]| [rate * y[0]];
            let mut solver = Rk23::new(AdaptiveOptions::new().with_max_step(0.25));
            let y = solver.integrate(&mut f, 0.0, [1.0], t_end).unwrap();
            let exact = (rate * t_end).exp();
            prop_assert!((y[0] - exact).abs() < 1e-4 * (1.0 + exact.abs()));
        }
    }
}
