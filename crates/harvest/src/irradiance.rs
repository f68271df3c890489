//! Sampled irradiance traces.

use crate::HarvestError;
use pn_units::{Seconds, WattsPerSquareMeter};

/// A time-sampled irradiance signal with linear interpolation between
/// samples and clamping outside the sampled span.
///
/// # Examples
///
/// ```
/// use pn_harvest::irradiance::IrradianceTrace;
/// use pn_units::{Seconds, WattsPerSquareMeter};
///
/// # fn main() -> Result<(), pn_harvest::HarvestError> {
/// let trace = IrradianceTrace::new(vec![
///     (Seconds::new(0.0), WattsPerSquareMeter::new(0.0)),
///     (Seconds::new(10.0), WattsPerSquareMeter::new(1000.0)),
/// ])?;
/// assert_eq!(trace.sample(Seconds::new(5.0)).value(), 500.0);
/// assert_eq!(trace.sample(Seconds::new(99.0)).value(), 1000.0); // clamped
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct IrradianceTrace {
    samples: Vec<(Seconds, WattsPerSquareMeter)>,
}

impl IrradianceTrace {
    /// Creates a trace from samples sorted by strictly increasing time.
    ///
    /// # Errors
    ///
    /// Returns [`HarvestError::InvalidTrace`] for an empty, unsorted or
    /// non-finite sample list.
    pub fn new(samples: Vec<(Seconds, WattsPerSquareMeter)>) -> Result<Self, HarvestError> {
        if samples.is_empty() {
            return Err(HarvestError::InvalidTrace("trace is empty"));
        }
        if samples.iter().any(|(t, g)| !t.is_finite() || !g.is_finite() || g.value() < 0.0) {
            return Err(HarvestError::InvalidTrace("samples must be finite and non-negative"));
        }
        if samples.windows(2).any(|w| w[1].0 <= w[0].0) {
            return Err(HarvestError::InvalidTrace("sample times must strictly increase"));
        }
        Ok(Self { samples })
    }

    /// Builds a trace by sampling `f` every `dt` over `[t0, t1]`.
    ///
    /// # Errors
    ///
    /// Returns [`HarvestError::InvalidParameter`] when `dt` is not
    /// positive or the span is empty, and propagates trace validation.
    pub fn from_fn(
        t0: Seconds,
        t1: Seconds,
        dt: Seconds,
        mut f: impl FnMut(Seconds) -> WattsPerSquareMeter,
    ) -> Result<Self, HarvestError> {
        if !(dt.value() > 0.0) {
            return Err(HarvestError::InvalidParameter("dt must be positive"));
        }
        if t1 <= t0 {
            return Err(HarvestError::InvalidParameter("empty time span"));
        }
        let n = ((t1 - t0).value() / dt.value()).ceil() as usize;
        let mut samples = Vec::with_capacity(n + 1);
        for k in 0..=n {
            let t = (t0 + dt * k as f64).min(t1);
            samples.push((t, f(t)));
            if t >= t1 {
                break;
            }
        }
        Self::new(samples)
    }

    /// A constant-irradiance trace over `[t0, t1]`.
    ///
    /// # Errors
    ///
    /// Returns [`HarvestError::InvalidParameter`] for an empty span.
    pub fn constant(
        t0: Seconds,
        t1: Seconds,
        g: WattsPerSquareMeter,
    ) -> Result<Self, HarvestError> {
        if t1 <= t0 {
            return Err(HarvestError::InvalidParameter("empty time span"));
        }
        Self::new(vec![(t0, g), (t1, g)])
    }

    /// Irradiance at time `t` (linear interpolation, clamped to the
    /// first/last sample outside the span).
    ///
    /// Random access: every call binary-searches the interior samples.
    /// For the engine's (mostly) forward-in-time query pattern,
    /// [`IrradianceTrace::cursor`] answers the same queries in
    /// amortized O(1) with bitwise-identical results.
    pub fn sample(&self, t: Seconds) -> WattsPerSquareMeter {
        let s = &self.samples;
        let last = s.len() - 1;
        // Clamp branches hoisted ahead of the search: boundary queries
        // (constant traces, spans starting at the first sample time)
        // never pay for a binary search.
        if t >= s[last].0 {
            return s[last].1;
        }
        if t <= s[0].0 {
            return s[0].1;
        }
        // Binary search the *interior* samples only — both endpoints
        // were settled above, so the search never re-scans the head or
        // tail even when queries sit exactly on the leading timestamps.
        let idx = 1 + s[1..last].partition_point(|(ts, _)| *ts <= t);
        interpolate(s[idx - 1], s[idx], t)
    }

    /// A sequential sampler positioned at the start of this trace (see
    /// [`IrradianceCursor`]).
    pub fn cursor(&self) -> IrradianceCursor {
        IrradianceCursor::new()
    }

    /// First sample time.
    pub fn start(&self) -> Seconds {
        self.samples[0].0
    }

    /// Last sample time.
    pub fn end(&self) -> Seconds {
        self.samples[self.samples.len() - 1].0
    }

    /// Duration covered by the trace.
    pub fn duration(&self) -> Seconds {
        self.end() - self.start()
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when the trace has no samples (impossible after
    /// construction; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Iterates over `(time, irradiance)` samples.
    pub fn iter(&self) -> impl Iterator<Item = (Seconds, WattsPerSquareMeter)> + '_ {
        self.samples.iter().copied()
    }

    /// Peak irradiance over the trace.
    pub fn peak(&self) -> WattsPerSquareMeter {
        self.samples.iter().map(|(_, g)| *g).fold(WattsPerSquareMeter::ZERO, |a, b| a.max(b))
    }

    /// Mean irradiance (trapezoidal, time-weighted).
    pub fn mean(&self) -> WattsPerSquareMeter {
        if self.samples.len() < 2 {
            return self.samples[0].1;
        }
        let mut area = 0.0;
        for w in self.samples.windows(2) {
            let dt = (w[1].0 - w[0].0).value();
            area += 0.5 * (w[0].1.value() + w[1].1.value()) * dt;
        }
        WattsPerSquareMeter::new(area / self.duration().value())
    }
}

/// Linear interpolation on one segment (shared by the random-access
/// and cursor paths so both produce bit-identical results).
#[inline]
fn interpolate(
    (t0, g0): (Seconds, WattsPerSquareMeter),
    (t1, g1): (Seconds, WattsPerSquareMeter),
    t: Seconds,
) -> WattsPerSquareMeter {
    let alpha = (t - t0) / (t1 - t0);
    g0 + (g1 - g0) * alpha
}

/// Amortized-O(1) sequential sampler over an [`IrradianceTrace`].
///
/// The simulation engine queries irradiance at times that advance
/// monotonically except for short backtracks when the ODE solver
/// rejects a trial step. A cursor remembers which segment answered the
/// previous query and walks forward from there, so a whole day of
/// forward queries costs O(n) total instead of O(n·log n); backward
/// queries fall back to the same interior binary search
/// [`IrradianceTrace::sample`] uses. Every query returns a result
/// bitwise identical to `sample`, in any order.
///
/// The cursor holds no reference to the trace — pass the trace to each
/// [`IrradianceCursor::sample`] call. Positions are only meaningful
/// against one trace; reuse across traces is safe (the hint is
/// clamped) but forfeits the O(1) amortization.
///
/// # Examples
///
/// ```
/// use pn_harvest::irradiance::IrradianceTrace;
/// use pn_units::{Seconds, WattsPerSquareMeter};
///
/// # fn main() -> Result<(), pn_harvest::HarvestError> {
/// let trace = IrradianceTrace::new(vec![
///     (Seconds::new(0.0), WattsPerSquareMeter::new(0.0)),
///     (Seconds::new(10.0), WattsPerSquareMeter::new(1000.0)),
/// ])?;
/// let mut cursor = trace.cursor();
/// for k in 0..100 {
///     let t = Seconds::new(k as f64 * 0.1);
///     assert_eq!(cursor.sample(&trace, t), trace.sample(t));
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IrradianceCursor {
    /// Index `k` of the segment `[t_k, t_{k+1})` that answered the
    /// previous query.
    segment: usize,
}

impl IrradianceCursor {
    /// A cursor positioned at the start of a trace.
    pub fn new() -> Self {
        Self { segment: 0 }
    }

    /// Irradiance at time `t`, bitwise identical to
    /// [`IrradianceTrace::sample`] — O(1) amortized for non-decreasing
    /// query times.
    #[inline]
    pub fn sample(&mut self, trace: &IrradianceTrace, t: Seconds) -> WattsPerSquareMeter {
        self.sample_with_slope(trace, t).0
    }

    /// [`IrradianceCursor::sample`] together with the trace's left
    /// derivative `dG/dt` at `t`, in W/m² per second: the slope of the
    /// segment containing `t`, or of the segment that ends at `t` when
    /// `t` is a sample instant, and zero up to the first sample and past
    /// the last. Taking the segment that ends at a sample instant makes
    /// the slope at a run's last instant independent of any sample
    /// after it.
    #[inline]
    pub fn sample_with_slope(
        &mut self,
        trace: &IrradianceTrace,
        t: Seconds,
    ) -> (WattsPerSquareMeter, f64) {
        let s = &trace.samples;
        let last = s.len() - 1;
        let slope = |k: usize| (s[k + 1].1 - s[k].1).value() / (s[k + 1].0 - s[k].0).value();
        if t >= s[last].0 {
            self.segment = last.saturating_sub(1);
            let ends_here = t == s[last].0 && last > 0;
            return (s[last].1, if ends_here { slope(last - 1) } else { 0.0 });
        }
        if t <= s[0].0 {
            self.segment = 0;
            return (s[0].1, 0.0);
        }
        // Interior query: locate k with t_k <= t < t_{k+1}.
        let mut k = self.segment.min(last - 1);
        if s[k].0 > t {
            // Backtrack (rejected trial step): re-locate by the same
            // interior binary search the random-access path uses.
            k = s[1..last].partition_point(|(ts, _)| *ts <= t);
        } else {
            while k + 1 < last && s[k + 1].0 <= t {
                k += 1;
            }
        }
        self.segment = k;
        // `t > s[0].0` here, so a sample instant `s[k].0 == t` has k ≥ 1.
        let left = if s[k].0 == t { k - 1 } else { k };
        (interpolate(s[k], s[k + 1], t), slope(left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn simple() -> IrradianceTrace {
        IrradianceTrace::new(vec![
            (Seconds::new(0.0), WattsPerSquareMeter::new(100.0)),
            (Seconds::new(10.0), WattsPerSquareMeter::new(300.0)),
            (Seconds::new(20.0), WattsPerSquareMeter::new(200.0)),
        ])
        .unwrap()
    }

    #[test]
    fn rejects_degenerate_traces() {
        assert!(IrradianceTrace::new(vec![]).is_err());
        assert!(IrradianceTrace::new(vec![
            (Seconds::new(1.0), WattsPerSquareMeter::new(1.0)),
            (Seconds::new(1.0), WattsPerSquareMeter::new(2.0)),
        ])
        .is_err());
        assert!(IrradianceTrace::new(vec![(
            Seconds::new(0.0),
            WattsPerSquareMeter::new(-5.0)
        )])
        .is_err());
    }

    #[test]
    fn interpolation_and_clamping() {
        let t = simple();
        assert_eq!(t.sample(Seconds::new(-5.0)).value(), 100.0);
        assert_eq!(t.sample(Seconds::new(5.0)).value(), 200.0);
        assert_eq!(t.sample(Seconds::new(15.0)).value(), 250.0);
        assert_eq!(t.sample(Seconds::new(25.0)).value(), 200.0);
    }

    #[test]
    fn stats() {
        let t = simple();
        assert_eq!(t.peak().value(), 300.0);
        assert_eq!(t.duration().value(), 20.0);
        // Trapezoids: (100+300)/2*10 + (300+200)/2*10 = 2000 + 2500 = 4500 over 20 s.
        assert!((t.mean().value() - 225.0).abs() < 1e-9);
    }

    #[test]
    fn from_fn_covers_span_inclusive() {
        let t = IrradianceTrace::from_fn(
            Seconds::new(0.0),
            Seconds::new(1.0),
            Seconds::new(0.3),
            |t| WattsPerSquareMeter::new(t.value() * 100.0),
        )
        .unwrap();
        assert_eq!(t.start().value(), 0.0);
        assert_eq!(t.end().value(), 1.0);
        assert!((t.sample(Seconds::new(1.0)).value() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn constant_trace() {
        let t = IrradianceTrace::constant(
            Seconds::new(0.0),
            Seconds::new(5.0),
            WattsPerSquareMeter::new(42.0),
        )
        .unwrap();
        assert_eq!(t.sample(Seconds::new(2.5)).value(), 42.0);
        assert!(IrradianceTrace::constant(
            Seconds::new(5.0),
            Seconds::new(5.0),
            WattsPerSquareMeter::ZERO
        )
        .is_err());
    }

    #[test]
    fn duplicate_leading_timestamps_are_rejected_and_boundaries_resolve_without_search() {
        // Strictly-increasing validation means a truly duplicated
        // leading timestamp can never be constructed…
        assert!(IrradianceTrace::new(vec![
            (Seconds::new(0.0), WattsPerSquareMeter::new(1.0)),
            (Seconds::new(0.0), WattsPerSquareMeter::new(2.0)),
            (Seconds::new(1.0), WattsPerSquareMeter::new(3.0)),
        ])
        .is_err());
        // …so the adversarial case for the hoisted clamps is a leading
        // pair separated by one ULP, with queries landing exactly on
        // those (to double precision, "duplicate") timestamps. Both
        // must resolve from the clamp/interior-search fast path, not by
        // re-scanning ambiguous equal-key runs.
        let t0 = 1.0f64;
        let t1 = f64::from_bits(t0.to_bits() + 1);
        let trace = IrradianceTrace::new(vec![
            (Seconds::new(t0), WattsPerSquareMeter::new(100.0)),
            (Seconds::new(t1), WattsPerSquareMeter::new(200.0)),
            (Seconds::new(2.0), WattsPerSquareMeter::new(300.0)),
        ])
        .unwrap();
        assert_eq!(trace.sample(Seconds::new(t0)).value(), 100.0);
        assert_eq!(trace.sample(Seconds::new(t1)).value(), 200.0);
        assert_eq!(trace.sample(Seconds::new(2.0)).value(), 300.0);
        let mut cursor = trace.cursor();
        for t in [t0, t1, 1.5, t1, t0, 2.0, 5.0] {
            assert_eq!(cursor.sample(&trace, Seconds::new(t)), trace.sample(Seconds::new(t)));
        }
    }

    #[test]
    fn cursor_matches_sample_on_forward_walks() {
        let trace = simple();
        let mut cursor = trace.cursor();
        for k in 0..600 {
            let t = Seconds::new(-5.0 + k as f64 * 0.05);
            let got = cursor.sample(&trace, t);
            let want = trace.sample(t);
            assert_eq!(got.value().to_bits(), want.value().to_bits(), "t = {t}");
        }
    }

    #[test]
    fn cursor_is_bitwise_exact_at_the_trace_endpoints() {
        // Satellite check: a query landing exactly on the final sample
        // time must resolve through the clamp branch (returning the
        // stored sample verbatim), never through an interior
        // interpolation whose `g0 + (g1 - g0) * 1.0` could differ in
        // the last bit. Use a from_fn day whose endpoint timestamps are
        // not round numbers, so any off-by-one in the interior-slice
        // search would surface.
        let trace = IrradianceTrace::from_fn(
            Seconds::new(0.1),
            Seconds::new(7.3),
            Seconds::new(0.7),
            |t| WattsPerSquareMeter::new(50.0 + (t.value() * 1.7).sin().abs() * 900.0),
        )
        .unwrap();
        let (start, end) = (trace.start(), trace.end());
        let stored_first = trace.iter().next().unwrap().1;
        let stored_last = trace.iter().last().unwrap().1;
        // A fresh cursor at each endpoint, and one walked forward
        // through the whole day first: the hint must not change the
        // answer.
        for warm in [false, true] {
            let mut cursor = trace.cursor();
            if warm {
                let mut k = 0;
                while start + Seconds::new(0.05) * k as f64 <= end {
                    cursor.sample(&trace, start + Seconds::new(0.05) * k as f64);
                    k += 1;
                }
            }
            for (t, stored) in [(start, stored_first), (end, stored_last)] {
                let got = cursor.sample(&trace, t);
                let want = trace.sample(t);
                assert_eq!(got.value().to_bits(), want.value().to_bits(), "t = {t}, warm = {warm}");
                assert_eq!(got.value().to_bits(), stored.value().to_bits(), "clamp must return the stored sample");
            }
            // One ULP inside the final sample still interpolates — and
            // still agrees between the paths.
            let inside = Seconds::new(f64::from_bits(end.value().to_bits() - 1));
            assert_eq!(
                cursor.sample(&trace, inside).value().to_bits(),
                trace.sample(inside).value().to_bits(),
            );
        }
    }

    #[test]
    fn cursor_survives_backtracks_and_stale_hints() {
        let trace = simple();
        let mut cursor = trace.cursor();
        // Advance deep into the trace, then replay an earlier window —
        // the rejected-trial-step pattern of the adaptive ODE solver.
        assert_eq!(cursor.sample(&trace, Seconds::new(19.0)), trace.sample(Seconds::new(19.0)));
        for t in [3.0, 12.0, 4.0, 0.0, 19.9, 7.5, -2.0, 25.0, 15.0] {
            let t = Seconds::new(t);
            assert_eq!(cursor.sample(&trace, t), trace.sample(t), "t = {t}");
        }
        // A hint left past the end of a shorter trace is clamped.
        let short = IrradianceTrace::constant(
            Seconds::ZERO,
            Seconds::new(1.0),
            WattsPerSquareMeter::new(7.0),
        )
        .unwrap();
        assert_eq!(cursor.sample(&short, Seconds::new(0.5)).value(), 7.0);
    }

    #[test]
    fn slope_is_the_left_derivative() {
        // Segments rise 20 W/m²/s, then fall 10 W/m²/s.
        let trace = simple();
        let mut cursor = trace.cursor();
        let slope = |cursor: &mut IrradianceCursor, t: f64| {
            let (g, slope) = cursor.sample_with_slope(&trace, Seconds::new(t));
            assert_eq!(g.value().to_bits(), trace.sample(Seconds::new(t)).value().to_bits());
            slope
        };
        for (t, want) in [(-1.0, 0.0), (0.0, 0.0), (5.0, 20.0), (10.0, 20.0), (15.0, -10.0)] {
            assert_eq!(slope(&mut cursor, t), want, "t = {t}");
        }
        // The last instant reads the segment that ends there, also
        // after a backtrack; past it the trace is flat.
        for (t, want) in [(20.0, -10.0), (3.0, 20.0), (20.0, -10.0), (21.0, 0.0), (10.0, 20.0)] {
            assert_eq!(slope(&mut cursor, t), want, "t = {t}");
        }
    }

    proptest! {
        #[test]
        fn cursor_and_sample_agree_on_any_query_order(
            queries in proptest::collection::vec(-5.0f64..30.0, 1..40),
        ) {
            let trace = simple();
            let mut cursor = trace.cursor();
            for q in queries {
                let t = Seconds::new(q);
                prop_assert_eq!(
                    cursor.sample(&trace, t).value().to_bits(),
                    trace.sample(t).value().to_bits(),
                    "t = {}", t
                );
            }
        }

        #[test]
        fn sample_is_within_trace_bounds(query in -10.0f64..40.0) {
            let t = simple();
            let g = t.sample(Seconds::new(query)).value();
            prop_assert!((100.0..=300.0).contains(&g));
        }

        #[test]
        fn mean_between_min_and_max(a in 0.0f64..500.0, b in 0.0f64..500.0, c in 0.0f64..500.0) {
            let t = IrradianceTrace::new(vec![
                (Seconds::new(0.0), WattsPerSquareMeter::new(a)),
                (Seconds::new(1.0), WattsPerSquareMeter::new(b)),
                (Seconds::new(2.0), WattsPerSquareMeter::new(c)),
            ]).unwrap();
            let lo = a.min(b).min(c);
            let hi = a.max(b).max(c);
            let m = t.mean().value();
            prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
        }
    }
}
