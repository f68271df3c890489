//! Single-diode photovoltaic source model (paper Eq. 4).
//!
//! The paper models its PV array with the standard single-diode
//! equivalent circuit
//!
//! ```text
//! I = Il − I0·(exp((V + Rs·I)/(N·VT)) − 1) − (V + Rs·I)/Rp
//! ```
//!
//! which is implicit in the terminal current `I`; [`SolarCell::current`]
//! solves it with the safeguarded Newton iteration from
//! [`crate::newton`]. In the junction voltage `Vd = V + Rs·I` the same
//! equation is explicit, `I = Il − I0·(exp(Vd/(N·VT)) − 1) − Vd/Rp` and
//! `V = Vd − Rs·I`, which [`SolarCell::at_junction`] evaluates with one
//! exponential and no solve. The light-generated current `Il` scales
//! linearly with irradiance, so one parameter set covers the whole day.
//!
//! Two calibrated presets are provided:
//!
//! * [`SolarCell::odroid_array`] — the 1340 cm² monocrystalline array of
//!   the paper's experimental rig (Fig. 13: Isc ≈ 1.2 A, Voc ≈ 6.8 V,
//!   MPP ≈ 5.3 V / ≈5.7 W at full sun),
//! * [`SolarCell::small_cell`] — the 250 cm² cell whose day-long output
//!   trace appears in Fig. 1 (peak ≈ 1 W).

use crate::newton::{solve, solve_bracketed, NewtonSolution};
use crate::CircuitError;
use pn_units::{Amps, Ohms, Volts, Watts, WattsPerSquareMeter};

/// Reference irradiance at which [`SolarCellParams::il_ref`] is quoted
/// (standard test conditions).
pub const REFERENCE_IRRADIANCE: WattsPerSquareMeter = WattsPerSquareMeter::new(1000.0);

/// Electrical parameters of the single-diode model.
///
/// `n_vt` is the *aggregate* junction scale `N·V_T·cells-in-series`
/// expressed directly in volts, which is the form the paper's Eq. (4)
/// uses for the whole array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolarCellParams {
    /// Light-generated current at [`REFERENCE_IRRADIANCE`].
    pub il_ref: Amps,
    /// Diode reverse-saturation current.
    pub i0: Amps,
    /// Series resistance.
    pub rs: Ohms,
    /// Parallel (shunt) resistance.
    pub rp: Ohms,
    /// Aggregate thermal/quality voltage `N·V_T` for the series string.
    pub n_vt: Volts,
}

/// A photovoltaic source described by the single-diode model.
///
/// # Examples
///
/// ```
/// use pn_circuit::solar::SolarCell;
/// use pn_units::{Volts, WattsPerSquareMeter};
///
/// # fn main() -> Result<(), pn_circuit::CircuitError> {
/// let array = SolarCell::odroid_array();
/// let g = WattsPerSquareMeter::new(1000.0);
/// let mpp = array.max_power_point(g)?;
/// assert!((mpp.voltage.value() - 5.3).abs() < 0.25);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolarCell {
    params: SolarCellParams,
    junction: JunctionConstants,
}

/// The parameter quotients [`SolarCell::at_junction`] reads, computed
/// once per cell so that evaluating the junction form divides by
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
struct JunctionConstants {
    /// `1/(N·V_T)`, per volt.
    inv_n_vt: f64,
    /// `I0/(N·V_T)`, amps per volt.
    i0_per_n_vt: f64,
    /// `1/R_p`, siemens.
    inv_rp: f64,
    /// `dIl/dG`, amps per W/m².
    il_per_g: f64,
    /// `∂V/∂G` at fixed junction voltage, `−Rs·dIl/dG`.
    dv_dg: f64,
}

impl JunctionConstants {
    fn of(p: &SolarCellParams) -> Self {
        let (il_ref, rs, nvt) = (p.il_ref.value(), p.rs.value(), p.n_vt.value());
        Self {
            inv_n_vt: 1.0 / nvt,
            i0_per_n_vt: p.i0.value() / nvt,
            inv_rp: 1.0 / p.rp.value(),
            il_per_g: il_ref / REFERENCE_IRRADIANCE.value(),
            dv_dg: -rs * il_ref / REFERENCE_IRRADIANCE.value(),
        }
    }
}

/// A point on the power–voltage curve, as returned by
/// [`SolarCell::max_power_point`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaxPowerPoint {
    /// Terminal voltage at maximum power.
    pub voltage: Volts,
    /// Terminal current at maximum power.
    pub current: Amps,
    /// The maximum power itself.
    pub power: Watts,
}

/// One sample of an IV sweep, as produced by [`SolarCell::iv_curve`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IvPoint {
    /// Terminal voltage.
    pub voltage: Volts,
    /// Terminal current at that voltage.
    pub current: Amps,
    /// Power delivered at that voltage.
    pub power: Watts,
}

/// A point of the single-diode curve evaluated from its junction
/// voltage, as returned by [`SolarCell::at_junction`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JunctionPoint {
    /// Terminal voltage `V = Vd − Rs·I`.
    pub voltage: Volts,
    /// Terminal current.
    pub current: Amps,
    /// `∂V/∂Vd` at fixed irradiance: `1 + Rs·(I0/(N·VT)·exp(Vd/(N·VT)) + 1/Rp)`.
    pub dv_dvd: f64,
    /// `∂V/∂G` at fixed junction voltage, volts per W/m²: `−Rs·dIl/dG`.
    pub dv_dg: f64,
}

impl SolarCell {
    /// Creates a cell from explicit single-diode parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidArgument`] when any parameter is
    /// non-positive or non-finite.
    fn new(params: SolarCellParams) -> Result<Self, CircuitError> {
        let ok = params.il_ref.value() > 0.0
            && params.i0.value() > 0.0
            && params.rs.value() > 0.0
            && params.rp.value() > 0.0
            && params.n_vt.value() > 0.0
            && params.il_ref.is_finite()
            && params.i0.is_finite()
            && params.rs.is_finite()
            && params.rp.is_finite()
            && params.n_vt.is_finite();
        if !ok {
            return Err(CircuitError::InvalidArgument(
                "solar cell parameters must be positive and finite",
            ));
        }
        Ok(Self::from_params(params))
    }

    fn from_params(params: SolarCellParams) -> Self {
        Self { params, junction: JunctionConstants::of(&params) }
    }

    /// Creates a cell calibrated to hit a target short-circuit current
    /// and open-circuit voltage at reference irradiance, deriving the
    /// saturation current from `Il ≈ I0·exp(Voc/n_vt) + Voc/Rp`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidArgument`] when the targets are
    /// unreachable (e.g. `Voc/Rp ≥ Isc`) or any argument is non-positive.
    fn from_targets(
        isc: Amps,
        voc: Volts,
        n_vt: Volts,
        rs: Ohms,
        rp: Ohms,
    ) -> Result<Self, CircuitError> {
        if voc.value() <= 0.0 || isc.value() <= 0.0 {
            return Err(CircuitError::InvalidArgument("isc and voc must be positive"));
        }
        let shunt_loss = voc.value() / rp.value();
        if shunt_loss >= isc.value() {
            return Err(CircuitError::InvalidArgument(
                "shunt resistance too small for the requested voc",
            ));
        }
        let i0 = (isc.value() - shunt_loss) / ((voc.value() / n_vt.value()).exp() - 1.0);
        Self::new(SolarCellParams { il_ref: isc, i0: Amps::new(i0), rs, rp, n_vt })
    }

    /// The 1340 cm² monocrystalline array used for the paper's
    /// experimental validation, calibrated to Fig. 13.
    pub fn odroid_array() -> Self {
        Self::from_targets(
            Amps::new(1.2),
            Volts::new(6.8),
            Volts::new(0.45),
            Ohms::new(0.25),
            Ohms::new(120.0),
        )
        .expect("preset parameters are valid")
    }

    /// The 250 cm² cell whose daily output is plotted in the paper's
    /// Fig. 1 (peak power ≈ 1 W).
    pub fn small_cell() -> Self {
        Self::odroid_array().scaled_by_area(250.0 / 1340.0)
    }

    /// Returns a cell scaled to `ratio` times the active area: currents
    /// scale up with area, resistances scale down.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is not positive and finite.
    fn scaled_by_area(&self, ratio: f64) -> Self {
        assert!(ratio > 0.0 && ratio.is_finite(), "area ratio must be positive");
        Self::from_params(SolarCellParams {
            il_ref: self.params.il_ref * ratio,
            i0: self.params.i0 * ratio,
            rs: self.params.rs / ratio,
            rp: self.params.rp / ratio,
            n_vt: self.params.n_vt,
        })
    }

    /// The model parameters.
    pub fn params(&self) -> &SolarCellParams {
        &self.params
    }

    /// Light-generated current at irradiance `g` (linear scaling).
    fn light_current(&self, g: WattsPerSquareMeter) -> Amps {
        self.params.il_ref * (g.value().max(0.0) / REFERENCE_IRRADIANCE.value())
    }

    /// Solves the implicit single-diode equation for the terminal
    /// current at voltage `v` and irradiance `g`.
    ///
    /// The current is negative above the open-circuit voltage (the
    /// junction then sinks current), which is exactly the mechanism that
    /// pins a directly-coupled system below `Voc`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::SolveDiverged`] if the Newton/bisection
    /// iteration fails (practically unreachable for physical inputs) and
    /// [`CircuitError::InvalidArgument`] for non-finite voltages.
    pub fn current(&self, v: Volts, g: WattsPerSquareMeter) -> Result<Amps, CircuitError> {
        self.current_seeded(v, g, None)
    }

    /// [`SolarCell::current`] with an optional warm start: `seed` is
    /// used as the initial guess for a plain (unbracketed) Newton
    /// iteration, falling back to the cold bracketed solve when it is
    /// absent or fails to converge.
    ///
    /// The residual is strictly decreasing and concave in `I`, so plain
    /// Newton converges from essentially any finite seed; seeding with
    /// the previous engine step's root cuts the iteration count from
    /// roughly ten to two or three. The path is bitwise-deterministic —
    /// the same `(v, g, seed)` always produces the same root — but a
    /// warm root may differ from the cold one in trailing bits (both
    /// satisfy the same `1e-10` residual tolerance).
    ///
    /// # Errors
    ///
    /// Same contract as [`SolarCell::current`].
    pub fn current_seeded(
        &self,
        v: Volts,
        g: WattsPerSquareMeter,
        seed: Option<f64>,
    ) -> Result<Amps, CircuitError> {
        Ok(Amps::new(self.solve_seeded(v, g, seed)?.root))
    }

    /// [`SolarCell::current_seeded`] returning the whole
    /// [`NewtonSolution`]: the root (the current in amps) and the
    /// iterations spent. Both solves stop at the same residual
    /// tolerance, so when the root's residual is within it, solving the
    /// same `(v, g)` again seeded with this root returns the root
    /// unchanged.
    ///
    /// # Errors
    ///
    /// Same contract as [`SolarCell::current`].
    fn solve_seeded(
        &self,
        v: Volts,
        g: WattsPerSquareMeter,
        seed: Option<f64>,
    ) -> Result<NewtonSolution, CircuitError> {
        if !v.is_finite() {
            return Err(CircuitError::InvalidArgument("terminal voltage must be finite"));
        }
        let p = &self.params;
        let il = self.light_current(g).value();
        let (i0, rs, rp, nvt) = (p.i0.value(), p.rs.value(), p.rp.value(), p.n_vt.value());
        let vv = v.value();
        let mut residual = |i: f64| {
            let x = (vv + rs * i) / nvt;
            // Guard the exponential so the bracket endpoints stay finite.
            let e = x.min(120.0).exp();
            let f = il - i0 * (e - 1.0) - (vv + rs * i) / rp - i;
            let df = -i0 * (rs / nvt) * e - rs / rp - 1.0;
            (f, df)
        };
        if let Some(seed) = seed {
            if seed.is_finite() {
                if let Ok(sol) = solve(&mut residual, seed) {
                    if sol.root.is_finite() {
                        return Ok(sol);
                    }
                }
            }
        }
        // Monotone decreasing residual: bracket generously on both sides.
        let hi = il + 1.0;
        let lo = -(20.0 * il.max(0.05) + vv.abs() / rp + 1.0);
        solve_bracketed(&mut residual, lo, hi)
    }

    /// The junction voltage `Vd = V + Rs·I` of the terminal operating
    /// point `(v, i)`.
    pub fn junction_voltage(&self, v: Volts, i: Amps) -> Volts {
        v + i * self.params.rs
    }

    /// Evaluates Eq. 4 at junction voltage `vd` and irradiance `g`,
    /// where it is explicit: one exponential gives the terminal current
    /// and voltage and their partial derivatives. For `vd` taken from
    /// [`SolarCell::junction_voltage`] of a solved point, it returns
    /// that point back to within the solve's residual.
    pub fn at_junction(&self, vd: Volts, g: WattsPerSquareMeter) -> JunctionPoint {
        let k = &self.junction;
        let il = g.value().max(0.0) * k.il_per_g;
        let (i0, rs) = (self.params.i0.value(), self.params.rs.value());
        let vd = vd.value();
        // The same guard as the Newton residual's.
        let e = (vd * k.inv_n_vt).min(120.0).exp();
        let i = il - i0 * (e - 1.0) - vd * k.inv_rp;
        JunctionPoint {
            voltage: Volts::new(vd - rs * i),
            current: Amps::new(i),
            dv_dvd: 1.0 + rs * (k.i0_per_n_vt * e + k.inv_rp),
            dv_dg: k.dv_dg,
        }
    }

    /// Power delivered at voltage `v` and irradiance `g`.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`SolarCell::current`].
    fn power(&self, v: Volts, g: WattsPerSquareMeter) -> Result<Watts, CircuitError> {
        Ok(v * self.current(v, g)?)
    }

    /// Open-circuit voltage at irradiance `g` (zero for zero harvest).
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn open_circuit_voltage(&self, g: WattsPerSquareMeter) -> Result<Volts, CircuitError> {
        let il = self.light_current(g).value();
        if il <= 0.0 {
            return Ok(Volts::ZERO);
        }
        let p = &self.params;
        let (i0, rp, nvt) = (p.i0.value(), p.rp.value(), p.n_vt.value());
        let residual = |v: f64| {
            let e = (v / nvt).min(120.0).exp();
            let f = il - i0 * (e - 1.0) - v / rp;
            let df = -i0 * e / nvt - 1.0 / rp;
            (f, df)
        };
        // Voc is below n_vt·ln(il/i0 + 1) + a volt of slack.
        let upper = nvt * ((il / i0 + 1.0).ln()) + 1.0;
        let sol = solve_bracketed(residual, 0.0, upper)?;
        Ok(Volts::new(sol.root))
    }

    /// Sweeps the IV curve from 0 V to `Voc` in `points` samples.
    ///
    /// # Errors
    ///
    /// Propagates solver failures; rejects `points < 2`.
    pub fn iv_curve(
        &self,
        g: WattsPerSquareMeter,
        points: usize,
    ) -> Result<Vec<IvPoint>, CircuitError> {
        if points < 2 {
            return Err(CircuitError::InvalidArgument("iv curve needs at least two points"));
        }
        let voc = self.open_circuit_voltage(g)?;
        let mut curve = Vec::with_capacity(points);
        for k in 0..points {
            let v = voc * (k as f64 / (points - 1) as f64);
            let i = self.current(v, g)?;
            curve.push(IvPoint { voltage: v, current: i, power: v * i });
        }
        Ok(curve)
    }

    /// Finds the maximum power point at irradiance `g` by golden-section
    /// search on the (unimodal) power–voltage curve.
    ///
    /// # Errors
    ///
    /// Propagates solver failures. At zero irradiance the MPP is the
    /// origin.
    pub fn max_power_point(&self, g: WattsPerSquareMeter) -> Result<MaxPowerPoint, CircuitError> {
        let voc = self.open_circuit_voltage(g)?;
        if voc.value() <= 0.0 {
            return Ok(MaxPowerPoint {
                voltage: Volts::ZERO,
                current: Amps::ZERO,
                power: Watts::ZERO,
            });
        }
        let phi = (5f64.sqrt() - 1.0) / 2.0;
        let (mut a, mut b) = (0.0, voc.value());
        let mut x1 = b - phi * (b - a);
        let mut x2 = a + phi * (b - a);
        let mut p1 = self.power(Volts::new(x1), g)?.value();
        let mut p2 = self.power(Volts::new(x2), g)?.value();
        for _ in 0..80 {
            if (b - a) < 1e-6 {
                break;
            }
            if p1 < p2 {
                a = x1;
                x1 = x2;
                p1 = p2;
                x2 = a + phi * (b - a);
                p2 = self.power(Volts::new(x2), g)?.value();
            } else {
                b = x2;
                x2 = x1;
                p2 = p1;
                x1 = b - phi * (b - a);
                p1 = self.power(Volts::new(x1), g)?.value();
            }
        }
        let v = Volts::new(0.5 * (a + b));
        let i = self.current(v, g)?;
        Ok(MaxPowerPoint { voltage: v, current: i, power: v * i })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const FULL_SUN: WattsPerSquareMeter = WattsPerSquareMeter::new(1000.0);

    #[test]
    fn odroid_array_matches_fig13_targets() {
        let cell = SolarCell::odroid_array();
        let isc = cell.current(Volts::ZERO, FULL_SUN).unwrap();
        let voc = cell.open_circuit_voltage(FULL_SUN).unwrap();
        let mpp = cell.max_power_point(FULL_SUN).unwrap();
        assert!((isc.value() - 1.2).abs() < 0.02, "isc = {isc}");
        assert!((voc.value() - 6.8).abs() < 0.02, "voc = {voc}");
        assert!((mpp.voltage.value() - 5.3).abs() < 0.25, "vmpp = {}", mpp.voltage);
        assert!(mpp.power.value() > 5.0 && mpp.power.value() < 6.5, "pmpp = {}", mpp.power);
    }

    #[test]
    fn small_cell_peaks_near_one_watt() {
        let cell = SolarCell::small_cell();
        let mpp = cell.max_power_point(FULL_SUN).unwrap();
        assert!(mpp.power.value() > 0.8 && mpp.power.value() < 1.3, "p = {}", mpp.power);
    }

    #[test]
    fn current_is_negative_above_voc() {
        let cell = SolarCell::odroid_array();
        let voc = cell.open_circuit_voltage(FULL_SUN).unwrap();
        let i = cell.current(voc + Volts::new(0.2), FULL_SUN).unwrap();
        assert!(i.value() < 0.0, "i = {i}");
    }

    #[test]
    fn zero_irradiance_is_a_dark_diode() {
        let cell = SolarCell::odroid_array();
        let g0 = WattsPerSquareMeter::ZERO;
        assert_eq!(cell.open_circuit_voltage(g0).unwrap(), Volts::ZERO);
        let i = cell.current(Volts::new(5.0), g0).unwrap();
        assert!(i.value() < 0.0);
        let mpp = cell.max_power_point(g0).unwrap();
        assert_eq!(mpp.power, Watts::ZERO);
    }

    #[test]
    fn iv_curve_spans_isc_to_voc() {
        let cell = SolarCell::odroid_array();
        let curve = cell.iv_curve(FULL_SUN, 50).unwrap();
        assert_eq!(curve.len(), 50);
        assert!((curve[0].current.value() - 1.2).abs() < 0.02);
        assert!(curve.last().unwrap().current.value().abs() < 1e-3);
        assert!(cell.iv_curve(FULL_SUN, 1).is_err());
    }

    #[test]
    fn from_targets_rejects_unreachable_voc() {
        let err = SolarCell::from_targets(
            Amps::new(0.01),
            Volts::new(6.8),
            Volts::new(0.45),
            Ohms::new(0.25),
            Ohms::new(100.0),
        )
        .unwrap_err();
        assert!(matches!(err, CircuitError::InvalidArgument(_)));
    }

    #[test]
    fn new_rejects_nonpositive_parameters() {
        let bad = SolarCellParams {
            il_ref: Amps::new(1.0),
            i0: Amps::new(-1e-9),
            rs: Ohms::new(0.2),
            rp: Ohms::new(100.0),
            n_vt: Volts::new(0.4),
        };
        assert!(SolarCell::new(bad).is_err());
    }

    #[test]
    fn scaled_by_area_scales_power_linearly() {
        let base = SolarCell::odroid_array();
        let half = base.scaled_by_area(0.5);
        let p_base = base.max_power_point(FULL_SUN).unwrap().power.value();
        let p_half = half.max_power_point(FULL_SUN).unwrap().power.value();
        assert!((p_half / p_base - 0.5).abs() < 0.02, "ratio {}", p_half / p_base);
    }

    #[test]
    fn seeded_solve_is_deterministic_and_survives_bad_seeds() {
        let cell = SolarCell::odroid_array();
        let v = Volts::new(5.3);
        let a = cell.current_seeded(v, FULL_SUN, Some(1.0)).unwrap();
        let b = cell.current_seeded(v, FULL_SUN, Some(1.0)).unwrap();
        assert_eq!(a.value().to_bits(), b.value().to_bits(), "warm start must be reproducible");
        // Non-finite and wildly wrong seeds fall back to the cold path.
        for seed in [f64::NAN, f64::INFINITY, -1e12, 1e12] {
            let i = cell.current_seeded(v, FULL_SUN, Some(seed)).unwrap();
            assert!((i.value() - a.value()).abs() < 1e-8, "seed {seed} → {i}");
        }
    }

    proptest! {
        #[test]
        fn warm_started_newton_matches_cold_start(
            v in 0.0f64..6.7, g in 0.0f64..1200.0, dv in -0.3f64..0.3,
        ) {
            // Seed with the root of a nearby operating point, exactly
            // as the engine's previous-step warm start does.
            let cell = SolarCell::odroid_array();
            let g = WattsPerSquareMeter::new(g);
            let seed = cell
                .current(Volts::new((v + dv).clamp(0.0, 6.7)), g)
                .unwrap()
                .value();
            let cold = cell.current(Volts::new(v), g).unwrap().value();
            let warm = cell.current_seeded(Volts::new(v), g, Some(seed)).unwrap().value();
            prop_assert!(
                (warm - cold).abs() <= 1e-8,
                "cold {cold} vs warm {warm} (seed {seed})"
            );
        }

        #[test]
        fn the_junction_form_returns_the_solved_point(frac in 0.0f64..=1.0, g in 0.0f64..1200.0) {
            let cell = SolarCell::odroid_array();
            let g = WattsPerSquareMeter::new(g);
            let v = cell.open_circuit_voltage(g).unwrap() * frac;
            let solved = cell.solve_seeded(v, g, None).unwrap();
            let i = Amps::new(solved.root);
            let point = cell.at_junction(cell.junction_voltage(v, i), g);
            // `I(Vd) − I` is exactly the Newton residual at the root.
            let tol = crate::newton::RESIDUAL_TOLERANCE;
            prop_assert!((point.current - i).value().abs() <= tol, "{} vs {i}", point.current);
            let rs = cell.params().rs.value();
            let off = (point.voltage - v).value().abs();
            prop_assert!(off <= rs * tol + 1e-14, "{} vs {v}", point.voltage);
            // ∂V/∂Vd against a central difference.
            let vd = cell.junction_voltage(v, i);
            let h = Volts::new(1e-6);
            let dv = (cell.at_junction(vd + h, g).voltage - cell.at_junction(vd - h, g).voltage)
                .value()
                / (2.0 * h.value());
            let slope = point.dv_dvd;
            prop_assert!((dv - slope).abs() <= 1e-6 * slope, "{dv} vs {slope}");
        }

        #[test]
        fn current_monotone_decreasing_in_voltage(
            v1 in 0.0f64..6.5, dv in 0.01f64..0.5, g in 50.0f64..1200.0,
        ) {
            let cell = SolarCell::odroid_array();
            let g = WattsPerSquareMeter::new(g);
            let i1 = cell.current(Volts::new(v1), g).unwrap();
            let i2 = cell.current(Volts::new(v1 + dv), g).unwrap();
            prop_assert!(i2 <= i1);
        }

        #[test]
        fn current_monotone_increasing_in_irradiance(
            v in 0.0f64..6.0, g1 in 10.0f64..900.0, dg in 10.0f64..300.0,
        ) {
            let cell = SolarCell::odroid_array();
            let i1 = cell.current(Volts::new(v), WattsPerSquareMeter::new(g1)).unwrap();
            let i2 = cell.current(Volts::new(v), WattsPerSquareMeter::new(g1 + dg)).unwrap();
            prop_assert!(i2 >= i1);
        }

        #[test]
        fn mpp_power_bounds_the_pv_curve(g in 50.0f64..1200.0, v in 0.1f64..6.7) {
            let cell = SolarCell::odroid_array();
            let g = WattsPerSquareMeter::new(g);
            let mpp = cell.max_power_point(g).unwrap();
            let p = cell.power(Volts::new(v), g).unwrap();
            prop_assert!(p.value() <= mpp.power.value() + 1e-6);
        }

        #[test]
        fn voc_grows_with_irradiance(g1 in 20.0f64..500.0, dg in 10.0f64..500.0) {
            let cell = SolarCell::odroid_array();
            let v1 = cell.open_circuit_voltage(WattsPerSquareMeter::new(g1)).unwrap();
            let v2 = cell.open_circuit_voltage(WattsPerSquareMeter::new(g1 + dg)).unwrap();
            prop_assert!(v2 >= v1);
        }
    }
}
