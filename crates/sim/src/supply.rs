//! The energy supply driving the simulation, and the engine's supply
//! fast path ([`SupplyModel`] / [`SupplyState`]).

use crate::SimError;
use pn_circuit::solar::SolarCell;
use pn_circuit::surface::PanelSurface;
use pn_harvest::irradiance::{IrradianceCursor, IrradianceTrace};
use pn_units::{Amps, Seconds, Volts, WattsPerSquareMeter};
use std::sync::Arc;

/// A prescribed supply-voltage waveform (the paper's §V-A bench test
/// with a controlled variable supply, Fig. 11).
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

    /// End time of the waveform.
    pub fn end(&self) -> Seconds {
        self.samples[self.samples.len() - 1].0
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

    /// `true` for the controlled-voltage variant.
    pub fn is_controlled(&self) -> bool {
        matches!(self, Supply::Controlled { .. })
    }
}

/// How the engine evaluates the PV operating point on its hot path.
///
/// `Exact` is the reference model: every query runs the safeguarded
/// Newton solve of Eq. 4 (warm-started from the previous root by the
/// engine's [`SupplyState`]), and every sample is bitwise-reproducible.
/// Keep it for golden traces and paper-figure/Table II reproduction.
///
/// `Interpolated` trades amp-level accuracy for throughput: currents
/// come from a pretabulated [`PanelSurface`] validated to `tol` amps
/// against the exact model at build time. Use it for campaign sweeps
/// and adaptive searches, where the verdict of a cell — not the
/// trailing bits of its trace — is the product.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SupplyModel {
    /// Solve the single-diode equation exactly at every query.
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

/// Per-simulation mutable fast-path state for a [`Supply`].
///
/// One `SupplyState` lives inside each engine run and carries what the
/// stateless [`Supply::current`] cannot: the monotone
/// [`IrradianceCursor`] serving forward-in-time queries in amortized
/// O(1), the previous Newton root seeding the next exact solve, and
/// the shared interpolation surface when the [`SupplyModel`] asks for
/// one. Because the state is owned by a single simulation, campaigns
/// stay bitwise-deterministic across executor thread counts.
#[derive(Debug, Clone)]
pub struct SupplyState {
    model: SupplyModel,
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
        Ok(Self { model, surface, cursor: IrradianceCursor::new(), last_root: None })
    }

    /// The model this state evaluates.
    pub fn model(&self) -> SupplyModel {
        self.model
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

    /// Source current into the node at voltage `v` and time `t` — the
    /// engine's per-derivative-evaluation hot path. Exact-model
    /// queries warm-start from the previous root; interpolated-model
    /// queries hit the surface (falling back to the exact solver
    /// outside its tabulated domain).
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
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(!supply.is_controlled());
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
        assert_eq!(state.model(), SupplyModel::Exact);
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
        assert!(supply.is_controlled());
    }
}
