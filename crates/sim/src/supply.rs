//! The energy supply driving the simulation, and the engine's supply
//! fast path ([`SupplyModel`] / [`SupplyState`]). Under the exact model
//! the engine integrates the PV junction voltage `V_d = VC + R_s·I`
//! rather than `VC`, so no integration stage solves the single-diode
//! equation; [`SupplyState`] owns that change of variable.

use crate::SimError;
use pn_circuit::solar::SolarCell;
use pn_circuit::surface::PanelSurface;
use pn_harvest::irradiance::{IrradianceCursor, IrradianceTrace};
use pn_units::{Amps, Seconds, Volts, WattsPerSquareMeter};
use std::sync::Arc;

/// A prescribed supply-voltage waveform (the paper's §V-A bench test
/// with a controlled variable supply, Fig. 11): linear between its
/// samples, so each segment is monotone. The engine walks those
/// segments and finds comparator crossings and band residency on them
/// in closed form, as it does on an integrated step's cubic.
///
/// # Examples
///
/// ```
/// use pn_sim::supply::VoltageWaveform;
/// use pn_units::{Seconds, Volts};
///
/// # fn main() -> Result<(), pn_sim::SimError> {
/// let w = VoltageWaveform::new(vec![
///     (Seconds::new(0.0), Volts::new(5.0)),
///     (Seconds::new(10.0), Volts::new(5.5)),
/// ])?;
/// assert!((w.sample(Seconds::new(5.0)).value() - 5.25).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VoltageWaveform {
    samples: Vec<(Seconds, Volts)>,
}

impl VoltageWaveform {
    /// Creates a waveform from samples sorted by strictly increasing
    /// time (linear interpolation between, clamped outside).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for an empty or unsorted
    /// sample list.
    pub fn new(samples: Vec<(Seconds, Volts)>) -> Result<Self, SimError> {
        if samples.is_empty() {
            return Err(SimError::InvalidConfig("waveform is empty"));
        }
        if samples.windows(2).any(|w| w[1].0 <= w[0].0) {
            return Err(SimError::InvalidConfig("waveform times must strictly increase"));
        }
        Ok(Self { samples })
    }

    /// Builds a waveform by sampling `f` every `dt` over `[t0, t1]`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a non-positive `dt` or
    /// empty span.
    pub fn from_fn(
        t0: Seconds,
        t1: Seconds,
        dt: Seconds,
        mut f: impl FnMut(Seconds) -> Volts,
    ) -> Result<Self, SimError> {
        if !(dt.value() > 0.0) || t1 <= t0 {
            return Err(SimError::InvalidConfig("bad waveform span"));
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

    /// Voltage at time `t`.
    pub fn sample(&self, t: Seconds) -> Volts {
        let s = &self.samples;
        if t <= s[0].0 {
            return s[0].1;
        }
        if t >= s[s.len() - 1].0 {
            return s[s.len() - 1].1;
        }
        let idx = s.partition_point(|(ts, _)| *ts <= t);
        let (t0, v0) = s[idx - 1];
        let (t1, v1) = s[idx];
        v0 + (v1 - v0) * ((t - t0) / (t1 - t0))
    }

    /// The monotone pieces of `[from, to]` (seconds), in time order,
    /// each as its two end points `(t, v)`: the pieces run between the
    /// window's ends and the samples strictly inside it, the shape of
    /// [`StepCubic::pieces`](pn_circuit::ode::StepCubic::pieces).
    pub(crate) fn pieces(&self, from: f64, to: f64) -> impl Iterator<Item = [(f64, f64); 2]> + '_ {
        let at = |t: f64| (t, self.sample(Seconds::new(t)).value());
        let first = self.samples.partition_point(|(ts, _)| ts.value() <= from);
        let mut start = at(from);
        self.samples[first..]
            .iter()
            .map(|&(t, v)| (t.value(), v.value()))
            .take_while(move |&(t, _)| t < to)
            .chain(std::iter::once(at(to)))
            .map(move |end| [std::mem::replace(&mut start, end), end])
    }

    /// Where the waveform passes `level` on the piece from `(ta, va)`
    /// to `(tb, vb)` of [`VoltageWaveform::pieces`], with `level`
    /// beyond `va` and not beyond `vb`: the first instant of `(ta, tb]`
    /// at which [`VoltageWaveform::sample`] has reached `level` (`≥`
    /// rising, `≤` falling). The closed-form root is off by rounding
    /// only, so the neighbouring instants settle it; a near-flat piece
    /// that needs more than a few is bisected instead.
    pub(crate) fn crossing(&self, (ta, va): (f64, f64), (tb, vb): (f64, f64), level: f64) -> f64 {
        let reached = |t: f64| {
            let v = self.sample(Seconds::new(t)).value();
            if vb > va { v >= level } else { v <= level }
        };
        let (mut lo, mut hi) = (ta, tb);
        let mut t = ta + (level - va) / (vb - va) * (tb - ta);
        for probe in 0.. {
            if !(t > lo && t < hi) || probe > 8 {
                t = 0.5 * (lo + hi);
                if !(t > lo && t < hi) {
                    break;
                }
            }
            if reached(t) {
                (hi, t) = (t, t.next_down());
            } else {
                (lo, t) = (t, t.next_up());
            }
        }
        hi
    }
}

/// The energy source of the simulated system.
#[derive(Debug, Clone)]
pub enum Supply {
    /// A PV array under an irradiance trace, directly coupled to the
    /// buffer capacitor (the paper's Figs. 2/8 topology).
    Photovoltaic {
        /// The array's single-diode model.
        cell: SolarCell,
        /// Irradiance over the simulated span, behind an [`Arc`] so
        /// campaign cells sharing a day share one rendered trace
        /// (cloning a `Supply` never deep-copies the samples).
        irradiance: Arc<IrradianceTrace>,
    },
    /// An ideal controlled voltage source that pins `VC` to a waveform
    /// (the paper's §V-A verification rig).
    Controlled {
        /// The prescribed supply voltage.
        waveform: VoltageWaveform,
    },
}

impl Supply {
    /// A PV supply over `irradiance`; accepts an owned trace or an
    /// already-shared [`Arc`] (campaigns pass the latter so every cell
    /// of a `(weather, seed)` group aliases one rendered day).
    pub fn photovoltaic(cell: SolarCell, irradiance: impl Into<Arc<IrradianceTrace>>) -> Self {
        Supply::Photovoltaic { cell, irradiance: irradiance.into() }
    }

    /// Irradiance at `t` for PV supplies (zero for controlled ones).
    pub fn irradiance(&self, t: Seconds) -> WattsPerSquareMeter {
        match self {
            Supply::Photovoltaic { irradiance, .. } => irradiance.sample(t),
            Supply::Controlled { .. } => WattsPerSquareMeter::ZERO,
        }
    }

    /// Source current into the node at voltage `v` and time `t`.
    ///
    /// # Errors
    ///
    /// Propagates PV operating-point solver failures.
    pub fn current(&self, t: Seconds, v: Volts) -> Result<Amps, SimError> {
        match self {
            Supply::Photovoltaic { cell, irradiance } => {
                Ok(cell.current(v, irradiance.sample(t))?)
            }
            Supply::Controlled { .. } => Ok(Amps::ZERO),
        }
    }
}

/// How the engine evaluates the PV operating point on its hot path.
///
/// `Exact` is the reference model: the engine integrates the junction
/// voltage, in which Eq. 4 is explicit, and runs the safeguarded Newton
/// solve (warm-started from the previous root by the engine's
/// [`SupplyState`]) only at its start and event points; every sample
/// is bitwise-reproducible. Keep it for golden traces and
/// paper-figure/Table II reproduction.
///
/// `Interpolated` trades amp-level accuracy for throughput: currents
/// come from a pretabulated [`PanelSurface`] validated to `tol` amps
/// against the exact model at build time. Use it for campaign sweeps
/// and adaptive searches, where the verdict of a cell — not the
/// trailing bits of its trace — is the product.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SupplyModel {
    /// Evaluate the single-diode equation exactly: explicitly in the
    /// junction voltage at every stage, by Newton at event points.
    Exact,
    /// Bilinear interpolation on a shared [`PanelSurface`] built and
    /// validated to `tol` amps.
    Interpolated {
        /// Build-time-validated interpolation tolerance, amps.
        tol: f64,
    },
}

impl SupplyModel {
    /// Default interpolation tolerance (amps): three decimal orders
    /// below the paper array's ~1.2 A short-circuit current.
    pub const DEFAULT_INTERPOLATION_TOL: f64 = 1e-3;

    /// The interpolated model at the default tolerance.
    pub fn interpolated() -> Self {
        SupplyModel::Interpolated { tol: Self::DEFAULT_INTERPOLATION_TOL }
    }

    /// Stable machine token (`exact`, or `interp:<tol>` with the
    /// tolerance in shortest-round-trip form). Round-trips through
    /// [`SupplyModel::from_slug`] bitwise.
    pub fn slug(&self) -> String {
        match self {
            SupplyModel::Exact => "exact".into(),
            SupplyModel::Interpolated { tol } => format!("interp:{tol}"),
        }
    }

    /// Parses a [`SupplyModel::slug`] token. A bare `interp` means the
    /// default tolerance; explicit tolerances must be positive and
    /// finite.
    pub fn from_slug(slug: &str) -> Option<SupplyModel> {
        match slug {
            "exact" => return Some(SupplyModel::Exact),
            "interp" => return Some(SupplyModel::interpolated()),
            _ => {}
        }
        let tol: f64 = slug.strip_prefix("interp:")?.parse().ok()?;
        (tol > 0.0 && tol.is_finite()).then_some(SupplyModel::Interpolated { tol })
    }
}

impl Default for SupplyModel {
    /// The exact model: opting into interpolation is deliberate.
    fn default() -> Self {
        SupplyModel::Exact
    }
}

impl std::fmt::Display for SupplyModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.slug())
    }
}

/// The supply seen from the integrator at one instant: the operating
/// point `(VC, I)` and the change of variable between the buffer voltage
/// `VC` and the integrated state `y` (see [`SupplyState`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Buffer-node voltage `VC`, volts.
    pub vc: f64,
    /// Source current into the node, amps.
    pub current: f64,
    /// `∂VC/∂y` at fixed time.
    pub dvc_dy: f64,
    /// `∂VC/∂t` at fixed state, volts per second.
    pub dvc_dt: f64,
}

impl OperatingPoint {
    /// The state's rate `dy/dt` for a buffer slope `dVC/dt`:
    /// `(dVC/dt − ∂VC/∂t) / (∂VC/∂y)`. Bitwise `dvc_dt` itself under
    /// the identity change of variable.
    #[inline]
    pub fn state_rate(&self, dvc_dt: f64) -> f64 {
        (dvc_dt - self.dvc_dt) / self.dvc_dy
    }
}

/// Per-simulation mutable fast-path state for a [`Supply`].
///
/// One `SupplyState` lives inside each engine run and carries what the
/// stateless [`Supply::current`] cannot: the monotone
/// [`IrradianceCursor`] serving forward-in-time queries in amortized
/// O(1), the previous Newton root seeding the next exact solve, and
/// the shared interpolation surface when the [`SupplyModel`] asks for
/// one. Because the state is owned by a single simulation, campaigns
/// stay bitwise-deterministic across executor thread counts.
///
/// It also owns the integrator's change of variable. Under the exact
/// model the engine integrates the PV junction voltage
/// `y = V_d = VC + R_s·I`, in which the single-diode equation is
/// explicit, so [`SupplyState::operating_point`] costs one exponential
/// and no Newton solve. Under the interpolated model (and for a
/// controlled supply) the change of variable is the identity, `y = VC`.
/// The only exact solves left are [`SupplyState::current`] at the
/// lane's start and at its event points.
#[derive(Debug, Clone)]
pub struct SupplyState {
    surface: Option<Arc<PanelSurface>>,
    cursor: IrradianceCursor,
    last_root: Option<f64>,
}

impl SupplyState {
    /// Prepares the fast-path state for one simulation of `supply`.
    /// For the interpolated model over a PV supply this fetches (and
    /// on first use builds) the process-shared [`PanelSurface`].
    ///
    /// # Errors
    ///
    /// Propagates surface construction failures (invalid tolerance).
    pub fn new(supply: &Supply, model: SupplyModel) -> Result<Self, SimError> {
        let surface = match (supply, model) {
            (Supply::Photovoltaic { cell, .. }, SupplyModel::Interpolated { tol }) => {
                Some(PanelSurface::shared(cell, Amps::new(tol))?)
            }
            _ => None,
        };
        Ok(Self { surface, cursor: IrradianceCursor::new(), last_root: None })
    }

    /// Irradiance at `t` through the monotone cursor (zero for
    /// controlled supplies). Bitwise identical to
    /// [`Supply::irradiance`].
    pub fn irradiance(&mut self, supply: &Supply, t: Seconds) -> WattsPerSquareMeter {
        match supply {
            Supply::Photovoltaic { irradiance, .. } => self.cursor.sample(irradiance, t),
            Supply::Controlled { .. } => WattsPerSquareMeter::ZERO,
        }
    }

    /// Source current into the node at voltage `v` and time `t`: the
    /// solve at the lane's start and event points. Exact-model queries
    /// run the Newton solve warm-started from the previous root;
    /// interpolated-model queries hit the surface (falling back to the
    /// exact solver outside its tabulated domain).
    ///
    /// # Errors
    ///
    /// Propagates PV operating-point solver failures.
    pub fn current(&mut self, supply: &Supply, t: Seconds, v: Volts) -> Result<Amps, SimError> {
        match supply {
            Supply::Photovoltaic { cell, irradiance } => {
                let g = self.cursor.sample(irradiance, t);
                match &self.surface {
                    Some(surface) => Ok(surface.current(v, g)?),
                    None => {
                        let i = cell.current_seeded(v, g, self.last_root)?;
                        self.last_root = Some(i.value());
                        Ok(i)
                    }
                }
            }
            Supply::Controlled { .. } => Ok(Amps::ZERO),
        }
    }

    /// The integrator's state at the operating point `(v, i)`: the
    /// junction voltage under the exact model, `v` otherwise.
    pub fn state(&self, supply: &Supply, v: Volts, i: Amps) -> f64 {
        match supply {
            Supply::Photovoltaic { cell, .. } if self.surface.is_none() => {
                cell.junction_voltage(v, i).value()
            }
            _ => v.value(),
        }
    }

    /// The operating point at time `t` and integrator state `y` — the
    /// engine's per-stage hot path. The exact model evaluates the
    /// junction form (one exponential) with the irradiance slope the
    /// cursor reads alongside the irradiance; the interpolated model
    /// reads the surface at `VC = y`.
    ///
    /// # Errors
    ///
    /// Propagates surface fallback solver failures.
    // A hint to inline it into the engine's right-hand side, which
    // calls it at every RK23 stage.
    #[inline]
    pub fn operating_point(
        &mut self,
        supply: &Supply,
        t: Seconds,
        y: f64,
    ) -> Result<OperatingPoint, SimError> {
        let identity = |current: f64| OperatingPoint { vc: y, current, dvc_dy: 1.0, dvc_dt: 0.0 };
        match supply {
            Supply::Photovoltaic { cell, irradiance } => match &self.surface {
                Some(surface) => {
                    let g = self.cursor.sample(irradiance, t);
                    Ok(identity(surface.current(Volts::new(y), g)?.value()))
                }
                None => {
                    let (g, slope) = self.cursor.sample_with_slope(irradiance, t);
                    let point = cell.at_junction(Volts::new(y), g);
                    Ok(OperatingPoint {
                        vc: point.voltage.value(),
                        current: point.current.value(),
                        dvc_dy: point.dv_dvd,
                        dvc_dt: point.dv_dg * slope,
                    })
                }
            },
            Supply::Controlled { .. } => Ok(identity(0.0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pn_circuit::ode::{first_crossing_on, CrossingDirection, CROSSING_TOLERANCE};
    use proptest::prelude::*;

    #[test]
    fn waveform_validation() {
        assert!(VoltageWaveform::new(vec![]).is_err());
        assert!(VoltageWaveform::new(vec![
            (Seconds::new(1.0), Volts::new(5.0)),
            (Seconds::new(1.0), Volts::new(5.1)),
        ])
        .is_err());
    }

    #[test]
    fn waveform_clamps_outside_span() {
        let w = VoltageWaveform::new(vec![
            (Seconds::new(1.0), Volts::new(4.5)),
            (Seconds::new(2.0), Volts::new(5.5)),
        ])
        .unwrap();
        assert_eq!(w.sample(Seconds::ZERO), Volts::new(4.5));
        assert_eq!(w.sample(Seconds::new(3.0)), Volts::new(5.5));
    }

    #[test]
    fn waveform_pieces_split_at_the_samples_inside_the_window() {
        let w = VoltageWaveform::new(vec![
            (Seconds::new(1.0), Volts::new(4.5)),
            (Seconds::new(2.0), Volts::new(5.5)),
            (Seconds::new(3.0), Volts::new(5.0)),
        ])
        .unwrap();
        let pieces: Vec<_> = w.pieces(1.5, 3.5).collect();
        assert_eq!(
            pieces,
            [[(1.5, 5.0), (2.0, 5.5)], [(2.0, 5.5), (3.0, 5.0)], [(3.0, 5.0), (3.5, 5.0)]]
        );
        // A window on a sample or inside one segment cuts nothing.
        assert_eq!(w.pieces(2.0, 2.5).collect::<Vec<_>>(), [[(2.0, 5.5), (2.5, 5.25)]]);
    }

    /// Where the waveform sampled at 10⁴ points of `[from, to]` (and at
    /// its own samples inside, where its slope changes) first reaches
    /// `level` from short of it, refined by bisection to a bracket
    /// `(lo, hi]`.
    fn sampled_first_crossing(
        w: &VoltageWaveform,
        (from, to): (f64, f64),
        level: f64,
        rising: bool,
    ) -> Option<(f64, f64)> {
        let reached = |t: f64| {
            let v = w.sample(Seconds::new(t)).value();
            if rising { v >= level } else { v <= level }
        };
        const N: usize = 10_000;
        let at = |k: usize| if k == N { to } else { from + (to - from) * k as f64 / N as f64 };
        let mut grid: Vec<f64> = (0..=N).map(at).collect();
        grid.extend(w.samples.iter().map(|s| s.0.value()).filter(|&t| t > from && t < to));
        grid.sort_by(f64::total_cmp);
        let k = grid.windows(2).position(|g| !reached(g[0]) && reached(g[1]))?;
        let (mut lo, mut hi) = (grid[k], grid[k + 1]);
        loop {
            let mid = 0.5 * (lo + hi);
            if mid <= lo || mid >= hi {
                return Some((lo, hi));
            }
            if reached(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
    }

    proptest! {
        #[test]
        fn waveform_pieces_find_the_first_crossing_of_the_sampled_waveform(
            t0 in 0.0f64..100.0,
            gaps in proptest::collection::vec(1e-3f64..1.0, 11..12),
            volts in proptest::collection::vec(4.0f64..6.0, 2..13),
            pick in 0usize..24,
            level in 3.9f64..6.1,
            rising in proptest::bool::ANY,
            arm in -0.1f64..1.0,
        ) {
            let mut t = t0;
            let mut samples = vec![(Seconds::new(t), Volts::new(volts[0]))];
            for (gap, &v) in gaps.iter().zip(&volts[1..]) {
                t += gap;
                samples.push((Seconds::new(t), Volts::new(v)));
            }
            let w = VoltageWaveform::new(samples).unwrap();
            // Half the cases ask for a level the waveform passes through
            // a sample exactly.
            let level = volts.get(pick).copied().unwrap_or(level);
            let window = (t0 + arm * (t - t0), t + 0.1 * (t - t0));
            let direction =
                if rising { CrossingDirection::Rising } else { CrossingDirection::Falling };
            let pieces = w.pieces(window.0, window.1);
            let found = first_crossing_on(pieces, level, direction, |a, b, v| w.crossing(a, b, v));
            let reference = sampled_first_crossing(&w, window, level, rising);
            prop_assert_eq!(found.is_some(), reference.is_some(), "{:?} vs {:?}", found, reference);
            if let (Some(t), Some((lo, hi))) = (found, reference) {
                let v = w.sample(Seconds::new(t)).value();
                prop_assert!(if rising { v >= level } else { v <= level }, "{} at {}", v, t);
                prop_assert!(t > lo && t - hi <= CROSSING_TOLERANCE, "{} vs ({}, {}]", t, lo, hi);
            }
        }
    }

    #[test]
    fn pv_supply_sources_current() {
        let supply = Supply::photovoltaic(
            SolarCell::odroid_array(),
            IrradianceTrace::constant(
                Seconds::ZERO,
                Seconds::new(10.0),
                WattsPerSquareMeter::new(1000.0),
            )
            .unwrap(),
        );
        let i = supply.current(Seconds::new(1.0), Volts::new(5.0)).unwrap();
        assert!(i.value() > 1.0);
    }

    #[test]
    fn supply_model_slugs_round_trip() {
        let models = [
            SupplyModel::Exact,
            SupplyModel::interpolated(),
            SupplyModel::Interpolated { tol: 0.1 + 0.2 }, // awkward float
            SupplyModel::Interpolated { tol: 5e-4 },
        ];
        for m in models {
            assert_eq!(SupplyModel::from_slug(&m.slug()), Some(m), "slug {:?}", m.slug());
            assert!(!m.slug().contains([' ', ',']), "slug {:?} not CSV-safe", m.slug());
        }
        assert_eq!(SupplyModel::from_slug("interp"), Some(SupplyModel::interpolated()));
        assert_eq!(SupplyModel::from_slug("interp:0"), None);
        assert_eq!(SupplyModel::from_slug("interp:-1"), None);
        assert_eq!(SupplyModel::from_slug("interp:inf"), None);
        assert_eq!(SupplyModel::from_slug("table"), None);
        assert_eq!(SupplyModel::default(), SupplyModel::Exact);
    }

    #[test]
    fn supply_state_matches_the_stateless_paths() {
        let supply = Supply::photovoltaic(
            SolarCell::odroid_array(),
            IrradianceTrace::new(vec![
                (Seconds::ZERO, WattsPerSquareMeter::new(200.0)),
                (Seconds::new(10.0), WattsPerSquareMeter::new(1000.0)),
            ])
            .unwrap(),
        );
        // Exact model: same roots as Supply::current to solver
        // tolerance, irradiance bitwise identical, cursor advancing.
        let mut state = SupplyState::new(&supply, SupplyModel::Exact).unwrap();
        for k in 0..20 {
            let t = Seconds::new(k as f64 * 0.5);
            let v = Volts::new(4.5 + 0.02 * k as f64);
            assert_eq!(state.irradiance(&supply, t), supply.irradiance(t));
            let warm = state.current(&supply, t, v).unwrap();
            let cold = supply.current(t, v).unwrap();
            assert!((warm - cold).value().abs() < 1e-8, "t = {t}: {warm} vs {cold}");
        }
        // Interpolated model: within the surface tolerance.
        let tol = 1e-3;
        let mut interp =
            SupplyState::new(&supply, SupplyModel::Interpolated { tol }).unwrap();
        for k in 0..20 {
            let t = Seconds::new(k as f64 * 0.5);
            let v = Volts::new(5.0);
            let fast = interp.current(&supply, t, v).unwrap();
            let exact = supply.current(t, v).unwrap();
            assert!((fast - exact).value().abs() <= tol, "t = {t}: {fast} vs {exact}");
        }
        // Invalid tolerances surface as errors at state construction.
        assert!(SupplyState::new(&supply, SupplyModel::Interpolated { tol: -1.0 }).is_err());
    }

    #[test]
    fn the_exact_state_is_the_junction_voltage() {
        let g = |t: f64, w: f64| (Seconds::new(t), WattsPerSquareMeter::new(w));
        let supply = Supply::photovoltaic(
            SolarCell::odroid_array(),
            IrradianceTrace::new(vec![g(0.0, 200.0), g(10.0, 1000.0)]).unwrap(),
        );
        let Supply::Photovoltaic { cell, .. } = &supply else { unreachable!() };
        let mut state = SupplyState::new(&supply, SupplyModel::Exact).unwrap();
        let (t, v) = (Seconds::new(4.0), Volts::new(5.2));
        let i = state.current(&supply, t, v).unwrap();
        let y = state.state(&supply, v, i);
        assert_eq!(y, (v + i * cell.params().rs).value());
        // The state maps back to the solved point, with VC moving at
        // −R_s·dI_L/dt = −0.25 Ω · 1.2 mA/(W/m²) · 80 W/m²/s at fixed
        // junction voltage.
        let point = state.operating_point(&supply, t, y).unwrap();
        assert!((point.vc - v.value()).abs() < 1e-9, "{point:?}");
        assert!((point.current - i.value()).abs() < 1e-9, "{point:?}");
        assert!((point.dvc_dt + 0.25 * 1.2e-3 * 80.0).abs() < 1e-12, "{point:?}");
        assert!(point.dvc_dy > 1.0);
        // The interpolated model integrates VC itself.
        let mut interp = SupplyState::new(&supply, SupplyModel::interpolated()).unwrap();
        let i = interp.current(&supply, t, v).unwrap();
        assert_eq!(interp.state(&supply, v, i), v.value());
        let point = interp.operating_point(&supply, t, v.value()).unwrap();
        assert_eq!((point.vc, point.current), (v.value(), i.value()));
        assert_eq!(point.state_rate(0.125), 0.125);
    }

    #[test]
    fn controlled_supply_state_is_inert() {
        let supply = Supply::Controlled {
            waveform: VoltageWaveform::new(vec![
                (Seconds::ZERO, Volts::new(5.0)),
                (Seconds::new(1.0), Volts::new(5.2)),
            ])
            .unwrap(),
        };
        let mut state = SupplyState::new(&supply, SupplyModel::interpolated()).unwrap();
        assert_eq!(state.current(&supply, Seconds::ZERO, Volts::new(5.0)).unwrap(), Amps::ZERO);
        assert_eq!(state.irradiance(&supply, Seconds::ZERO), WattsPerSquareMeter::ZERO);
    }

    #[test]
    fn controlled_supply_has_no_pv_current() {
        let supply = Supply::Controlled {
            waveform: VoltageWaveform::from_fn(
                Seconds::ZERO,
                Seconds::new(1.0),
                Seconds::new(0.1),
                |_| Volts::new(5.0),
            )
            .unwrap(),
        };
        assert_eq!(supply.current(Seconds::ZERO, Volts::new(5.0)).unwrap(), Amps::ZERO);
    }
}
