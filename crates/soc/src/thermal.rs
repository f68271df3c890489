//! Lumped-RC die thermal model with throttling and temporary boost.
//!
//! The paper's board never throttles — its test window tops out well
//! below the Exynos5422's trip points — but real MP-SoCs lose power
//! neutrality to heat long before the harvester does: the die warms
//! toward `ambient + P·R`, a throttle ceiling caps the OPP ladder, and
//! a short boost window above nominal spends a thermal budget. This
//! module models that as a single lumped thermal mass (resistance `R`
//! to ambient, capacity `C`), which makes every trajectory between
//! power discontinuities a closed-form exponential:
//!
//! ```text
//! T(t) = T_ss + (T0 − T_ss)·exp(−t/τ),   T_ss = ambient + P·R,   τ = R·C
//! ```
//!
//! so the engine can integrate temperature exactly and predict
//! threshold crossings analytically — no extra ODE state, and bitwise
//! reproducibility for free. Crossings (throttle trip, release, boost
//! entry/exit, budget exhaustion) are handed to the RK23 engine as
//! discontinuities, exactly like idle entry/exit.
//!
//! The throttle/boost ladder follows the adaptive power-mode shape of
//! the thermal-management literature: a hysteresis band (`release_c`
//! below `throttle_c`) around the trip point, and an opportunistic
//! boost mode that engages while the die is cold and a boost budget
//! remains.

use crate::SocError;
use std::fmt;

/// Thermal-axis selection for a simulation: no thermal model at all
/// (the seed behaviour, bitwise-unchanged), or a lumped-RC die model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ThermalSpec {
    /// No thermal model: temperature is not tracked, nothing throttles
    /// and nothing boosts. The default.
    #[default]
    Off,
    /// Lumped-RC die model with throttle ceiling and optional boost.
    Rc(RcThermal),
}

impl ThermalSpec {
    /// The stress preset used by `--thermal`: τ = 40 s, trip at 75 °C
    /// with release at 70 °C capping the ladder at level 2, and a 10 s
    /// boost budget (1.35× power, 1.2× throughput) spent while the die
    /// is below 45 °C. Tuned so a saturated campaign cell trips within
    /// the smoke window.
    pub fn stress() -> ThermalSpec {
        ThermalSpec::Rc(RcThermal {
            ambient_c: 25.0,
            r_c_per_w: 8.0,
            c_j_per_c: 5.0,
            throttle_c: 75.0,
            release_c: 70.0,
            cap_level: 2,
            boost: Some(BoostSpec {
                power_factor: 1.35,
                perf_factor: 1.2,
                budget_s: 10.0,
                enter_c: 45.0,
                exit_c: 55.0,
            }),
        })
    }

    /// Stable machine-readable token for persistence and CSV export:
    /// `off`, or `rc:<ambient>:<r>:<c>:<throttle>:<release>:<cap>` with
    /// an optional `:boost:<pf>:<xf>:<budget>:<enter>:<exit>` suffix.
    /// Floats use shortest-round-trip formatting, so
    /// [`ThermalSpec::from_slug`] recovers the exact bit patterns.
    pub fn slug(&self) -> String {
        match self {
            ThermalSpec::Off => "off".to_string(),
            ThermalSpec::Rc(rc) => {
                let mut s = format!(
                    "rc:{}:{}:{}:{}:{}:{}",
                    rc.ambient_c,
                    rc.r_c_per_w,
                    rc.c_j_per_c,
                    rc.throttle_c,
                    rc.release_c,
                    rc.cap_level
                );
                if let Some(b) = rc.boost {
                    s.push_str(&format!(
                        ":boost:{}:{}:{}:{}:{}",
                        b.power_factor, b.perf_factor, b.budget_s, b.enter_c, b.exit_c
                    ));
                }
                s
            }
        }
    }

    /// Parses a [`ThermalSpec::slug`] token back into a spec. Returns
    /// `None` for malformed tokens or specs that fail validation.
    pub fn from_slug(slug: &str) -> Option<ThermalSpec> {
        if slug == "off" {
            return Some(ThermalSpec::Off);
        }
        let mut parts = slug.split(':');
        if parts.next()? != "rc" {
            return None;
        }
        let mut f = || parts.next()?.parse::<f64>().ok();
        let (ambient_c, r_c_per_w, c_j_per_c, throttle_c, release_c) =
            (f()?, f()?, f()?, f()?, f()?);
        let cap_level = parts.next()?.parse::<usize>().ok()?;
        let boost = match parts.next() {
            None => None,
            Some("boost") => {
                let mut f = || parts.next()?.parse::<f64>().ok();
                Some(BoostSpec {
                    power_factor: f()?,
                    perf_factor: f()?,
                    budget_s: f()?,
                    enter_c: f()?,
                    exit_c: f()?,
                })
            }
            Some(_) => return None,
        };
        if parts.next().is_some() {
            return None;
        }
        let rc =
            RcThermal { ambient_c, r_c_per_w, c_j_per_c, throttle_c, release_c, cap_level, boost };
        rc.validate().ok()?;
        Some(ThermalSpec::Rc(rc))
    }

    /// Validates the spec's physical domain.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidParameter`] when any parameter is
    /// outside its physical domain (see [`RcThermal::validate`]).
    pub fn validate(&self) -> Result<(), SocError> {
        match self {
            ThermalSpec::Off => Ok(()),
            ThermalSpec::Rc(rc) => rc.validate(),
        }
    }
}

impl fmt::Display for ThermalSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThermalSpec::Off => f.write_str("no thermal model"),
            ThermalSpec::Rc(rc) => write!(
                f,
                "RC thermal (τ {:.0} s, trip {:.0} °C{})",
                rc.tau_s(),
                rc.throttle_c,
                if rc.boost.is_some() { ", boost" } else { "" }
            ),
        }
    }
}

/// Parameters of the lumped-RC die model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RcThermal {
    /// Ambient (heatsink) temperature the die relaxes toward at zero
    /// power, °C.
    pub ambient_c: f64,
    /// Junction-to-ambient thermal resistance, °C per watt.
    pub r_c_per_w: f64,
    /// Lumped thermal capacity, joules per °C.
    pub c_j_per_c: f64,
    /// Trip point: reaching this temperature caps the OPP ladder, °C.
    pub throttle_c: f64,
    /// Hysteresis release: cooling to this temperature lifts the cap,
    /// °C. Must sit below `throttle_c`.
    pub release_c: f64,
    /// Highest frequency-level index allowed while throttled.
    pub cap_level: usize,
    /// Optional boost mode spent while the die is cold.
    pub boost: Option<BoostSpec>,
}

impl RcThermal {
    /// The thermal time constant τ = R·C, seconds.
    fn tau_s(&self) -> f64 {
        self.r_c_per_w * self.c_j_per_c
    }

    /// Steady-state die temperature under constant power `p_w`.
    fn steady_state_c(&self, p_w: f64) -> f64 {
        self.ambient_c + p_w * self.r_c_per_w
    }

    /// Closed-form temperature after holding power `p_w` for `dt_s`
    /// seconds starting from `temp_c`.
    fn step_c(&self, temp_c: f64, p_w: f64, dt_s: f64) -> f64 {
        let ss = self.steady_state_c(p_w);
        ss + (temp_c - ss) * (-dt_s / self.tau_s()).exp()
    }

    /// Time until the trajectory from `temp_c` under constant power
    /// `p_w` crosses `target_c`, or `None` when it never does (the
    /// steady state sits on the wrong side, or the die is already
    /// past the target). The returned time is strictly positive.
    fn crossing_time_s(&self, temp_c: f64, p_w: f64, target_c: f64) -> Option<f64> {
        let ss = self.steady_state_c(p_w);
        let from = temp_c - ss;
        let to = target_c - ss;
        // The trajectory decays monotonically toward `ss`: it reaches
        // `target` iff the target lies strictly between start and
        // steady state (same side of ss, smaller gap).
        if from == 0.0 || to == 0.0 || from.signum() != to.signum() || to.abs() >= from.abs() {
            return None;
        }
        let dt = self.tau_s() * (from / to).ln();
        (dt > 0.0).then_some(dt)
    }

    /// Validates the model's physical domain.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidParameter`] for non-positive R or C,
    /// a non-finite ambient, an inverted hysteresis band, or a boost
    /// band that overlaps the throttle band.
    pub fn validate(&self) -> Result<(), SocError> {
        if !self.ambient_c.is_finite() {
            return Err(SocError::InvalidParameter("thermal ambient must be finite"));
        }
        if !(self.r_c_per_w > 0.0) || !(self.c_j_per_c > 0.0) {
            return Err(SocError::InvalidParameter("thermal R and C must be positive"));
        }
        if !(self.release_c < self.throttle_c) {
            return Err(SocError::InvalidParameter("thermal release must sit below throttle"));
        }
        if !(self.ambient_c < self.release_c) {
            return Err(SocError::InvalidParameter("thermal ambient must sit below release"));
        }
        if let Some(b) = self.boost {
            if !(b.power_factor > 0.0) || !(b.perf_factor > 0.0) {
                return Err(SocError::InvalidParameter("boost factors must be positive"));
            }
            if !(b.budget_s >= 0.0) || !b.budget_s.is_finite() {
                return Err(SocError::InvalidParameter("boost budget must be non-negative"));
            }
            if !(b.enter_c < b.exit_c) {
                return Err(SocError::InvalidParameter("boost enter must sit below exit"));
            }
            if !(b.exit_c <= self.release_c) {
                return Err(SocError::InvalidParameter("boost band must sit below release"));
            }
        }
        Ok(())
    }
}

/// A temporary performance boost above nominal, spent while cold.
///
/// Boost engages whenever the die sits below `enter_c` with budget
/// remaining, and disengages when the die heats to `exit_c` or the
/// budget runs out. While boosting, the active OPP's power and
/// throughput are both scaled up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoostSpec {
    /// Power multiplier applied to the active OPP while boosting.
    pub power_factor: f64,
    /// Throughput (FPS / IPS) multiplier while boosting.
    pub perf_factor: f64,
    /// Total boost residency allowed over the run, seconds.
    pub budget_s: f64,
    /// Boost engages below this temperature (°C) when budget remains.
    pub enter_c: f64,
    /// Boost disengages at this temperature, °C.
    pub exit_c: f64,
}

/// The discrete thermal transitions the engine schedules as RK23
/// discontinuities, in the fixed priority order used to break exact
/// ties.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThermalEvent {
    /// The die heated to the trip point: cap the ladder.
    ThrottleOn,
    /// The die cooled to the release point: lift the cap.
    ThrottleOff,
    /// The die heated to the boost exit point, or the budget ran out:
    /// drop back to nominal.
    BoostOff,
    /// The die cooled to the boost entry point with budget remaining:
    /// boost again.
    BoostOn,
}

/// Per-lane thermal integrator: the exact exponential state between
/// power discontinuities, plus the throttle/boost state machine and
/// its residency accounting.
#[derive(Debug, Clone, Copy)]
pub struct ThermalState {
    spec: RcThermal,
    temp_c: f64,
    peak_c: f64,
    throttled: bool,
    boosting: bool,
    boost_left_s: f64,
    throttle_time_s: f64,
    boost_time_s: f64,
}

impl ThermalState {
    /// Starts the integrator at ambient. Boost engages immediately when
    /// the spec grants a budget (the die starts cold).
    pub fn new(spec: RcThermal) -> Self {
        let budget = spec.boost.map_or(0.0, |b| b.budget_s);
        let boosting = spec.boost.is_some_and(|b| budget > 0.0 && spec.ambient_c < b.enter_c);
        Self {
            spec,
            temp_c: spec.ambient_c,
            peak_c: spec.ambient_c,
            throttled: false,
            boosting,
            boost_left_s: budget,
            throttle_time_s: 0.0,
            boost_time_s: 0.0,
        }
    }

    /// Hottest temperature reached so far, °C.
    pub fn peak_c(&self) -> f64 {
        self.peak_c
    }

    /// Whether the OPP ladder is currently capped.
    pub fn throttled(&self) -> bool {
        self.throttled
    }

    /// Total time spent throttled so far, seconds.
    pub fn throttle_time_s(&self) -> f64 {
        self.throttle_time_s
    }

    /// Total boost residency so far, seconds.
    pub fn boost_time_s(&self) -> f64 {
        self.boost_time_s
    }

    /// The ladder cap currently in force, if any.
    pub fn level_cap(&self) -> Option<usize> {
        self.throttled.then_some(self.spec.cap_level)
    }

    /// Power multiplier currently in force (1.0 unless boosting).
    pub fn power_factor(&self) -> f64 {
        if self.boosting {
            self.spec.boost.map_or(1.0, |b| b.power_factor)
        } else {
            1.0
        }
    }

    /// Throughput multiplier currently in force (1.0 unless boosting).
    pub fn perf_factor(&self) -> f64 {
        if self.boosting {
            self.spec.boost.map_or(1.0, |b| b.perf_factor)
        } else {
            1.0
        }
    }

    /// Advances the exact exponential by `dt_s` under constant power
    /// `p_w`, accruing throttle/boost residency. The engine must not
    /// step across a scheduled transition (see
    /// [`ThermalState::next_event_in`]); residency accounting assumes
    /// the discrete state is constant over the segment.
    pub fn advance(&mut self, p_w: f64, dt_s: f64) {
        if dt_s <= 0.0 {
            return;
        }
        self.temp_c = self.spec.step_c(self.temp_c, p_w, dt_s);
        // The exponential is monotone, so the segment peak is at an
        // endpoint.
        self.peak_c = self.peak_c.max(self.temp_c);
        if self.throttled {
            self.throttle_time_s += dt_s;
        }
        if self.boosting {
            self.boost_time_s += dt_s;
            self.boost_left_s = (self.boost_left_s - dt_s).max(0.0);
        }
    }

    /// Time until the next discrete thermal transition under constant
    /// power `p_w`, with the event that fires there — or `None` when
    /// the current trajectory settles without one. Exact ties are
    /// broken in [`ThermalEvent`] declaration order.
    pub fn next_event_in(&self, p_w: f64) -> Option<(f64, ThermalEvent)> {
        let cross = |target| self.spec.crossing_time_s(self.temp_c, p_w, target);
        let mut best: Option<(f64, ThermalEvent)> = None;
        let mut consider = |cand: Option<f64>, ev: ThermalEvent| {
            if let Some(dt) = cand {
                if best.is_none_or(|(b, _)| dt < b) {
                    best = Some((dt, ev));
                }
            }
        };
        if self.throttled {
            consider(cross(self.spec.release_c), ThermalEvent::ThrottleOff);
        } else {
            consider(cross(self.spec.throttle_c), ThermalEvent::ThrottleOn);
        }
        if let Some(b) = self.spec.boost {
            if self.boosting {
                consider(cross(b.exit_c), ThermalEvent::BoostOff);
                if self.boost_left_s > 0.0 {
                    consider(Some(self.boost_left_s), ThermalEvent::BoostOff);
                }
            } else if self.boost_left_s > 0.0 {
                consider(cross(b.enter_c), ThermalEvent::BoostOn);
            }
        }
        best
    }

    /// Fires a transition scheduled by [`ThermalState::next_event_in`]
    /// after the engine has advanced exactly to its time. Threshold
    /// crossings snap the temperature onto the threshold, so float
    /// drift in the exponential cannot re-schedule the same crossing.
    pub fn apply_event(&mut self, event: ThermalEvent) {
        match event {
            ThermalEvent::ThrottleOn => {
                self.temp_c = self.spec.throttle_c;
                self.peak_c = self.peak_c.max(self.temp_c);
                self.throttled = true;
            }
            ThermalEvent::ThrottleOff => {
                self.temp_c = self.spec.release_c;
                self.throttled = false;
            }
            ThermalEvent::BoostOff => {
                if let Some(b) = self.spec.boost {
                    // Snap only on a genuine exit-temperature crossing;
                    // a budget exhaustion fires wherever the die sits.
                    if self.boost_left_s > 0.0 && (self.temp_c - b.exit_c).abs() < 1e-6 {
                        self.temp_c = b.exit_c;
                        self.peak_c = self.peak_c.max(self.temp_c);
                    }
                }
                self.boosting = false;
            }
            ThermalEvent::BoostOn => {
                if let Some(b) = self.spec.boost {
                    self.temp_c = b.enter_c;
                }
                self.boosting = self.boost_left_s > 0.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rc() -> RcThermal {
        match ThermalSpec::stress() {
            ThermalSpec::Rc(rc) => rc,
            ThermalSpec::Off => unreachable!(),
        }
    }

    #[test]
    fn stress_preset_is_valid() {
        ThermalSpec::stress().validate().unwrap();
        assert_eq!(rc().tau_s(), 40.0);
    }

    #[test]
    fn slugs_round_trip_exactly() {
        for spec in [
            ThermalSpec::Off,
            ThermalSpec::stress(),
            ThermalSpec::Rc(RcThermal { boost: None, ..rc() }),
            ThermalSpec::Rc(RcThermal { ambient_c: 21.125, throttle_c: 80.5, ..rc() }),
        ] {
            let slug = spec.slug();
            assert!(!slug.contains([' ', ',']), "slug {slug:?} not token-safe");
            assert_eq!(ThermalSpec::from_slug(&slug), Some(spec), "{slug}");
        }
        assert_eq!(ThermalSpec::from_slug("off"), Some(ThermalSpec::Off));
        assert_eq!(ThermalSpec::from_slug("rc:1:2"), None);
        assert_eq!(ThermalSpec::from_slug("rc:25:8:5:75:70:2:junk"), None);
        assert_eq!(ThermalSpec::from_slug("rc:25:8:5:70:75:2"), None, "inverted band");
        assert_eq!(ThermalSpec::from_slug("warp"), None);
    }

    #[test]
    fn step_matches_fine_euler_integration() {
        let rc = rc();
        let (p, dt) = (5.0, 12.0);
        let exact = rc.step_c(30.0, p, dt);
        let mut t = 30.0;
        let n = 200_000;
        for _ in 0..n {
            let h = dt / n as f64;
            t += h * ((p * rc.r_c_per_w + rc.ambient_c - t) / rc.tau_s());
        }
        assert!((exact - t).abs() < 1e-3, "exact {exact} vs euler {t}");
    }

    #[test]
    fn crossing_time_lands_on_target() {
        let rc = rc();
        let p = 8.0; // ss = 25 + 64 = 89 °C: hot enough to trip.
        let dt = rc.crossing_time_s(30.0, p, rc.throttle_c).unwrap();
        assert!((rc.step_c(30.0, p, dt) - rc.throttle_c).abs() < 1e-9);
        // Cooling back down at low power crosses the release point.
        let dt = rc.crossing_time_s(rc.throttle_c, 0.5, rc.release_c).unwrap();
        assert!((rc.step_c(rc.throttle_c, 0.5, dt) - rc.release_c).abs() < 1e-9);
        // Unreachable targets: steady state on the wrong side.
        assert_eq!(rc.crossing_time_s(30.0, 0.5, rc.throttle_c), None);
        assert_eq!(rc.crossing_time_s(30.0, 8.0, 20.0), None);
    }

    #[test]
    fn state_machine_trips_releases_and_spends_boost() {
        let mut st = ThermalState::new(rc());
        assert!(st.boosting, "cold start engages boost");
        assert!(!st.throttled());
        // Run hot until the budget empties, firing each event in turn.
        let p_hot = 8.0;
        let mut fired = Vec::new();
        for _ in 0..8 {
            let Some((dt, ev)) = st.next_event_in(p_hot) else { break };
            st.advance(p_hot, dt);
            st.apply_event(ev);
            fired.push(ev);
            if ev == ThermalEvent::ThrottleOn {
                break;
            }
        }
        assert_eq!(fired[0], ThermalEvent::BoostOff, "boost exits before the trip point");
        assert!(fired.contains(&ThermalEvent::ThrottleOn));
        assert!(st.throttled());
        assert_eq!(st.level_cap(), Some(2));
        assert_eq!(st.temp_c, 75.0, "trip snaps onto the threshold");
        assert!(st.boost_time_s() > 0.0);
        assert!(st.throttle_time_s() == 0.0, "residency starts after the trip");
        // Cool off: the release event lifts the cap and accrues
        // throttled residency on the way down.
        let p_cool = 0.5;
        let (dt, ev) = st.next_event_in(p_cool).unwrap();
        assert_eq!(ev, ThermalEvent::ThrottleOff);
        st.advance(p_cool, dt);
        st.apply_event(ev);
        assert!(!st.throttled());
        assert_eq!(st.level_cap(), None);
        assert_eq!(st.temp_c, 70.0);
        assert!(st.throttle_time_s() > 0.0);
        // Keep cooling: boost wants to re-engage at the entry point iff
        // budget remains.
        let next = st.next_event_in(p_cool);
        if st.boost_time_s() < 10.0 {
            assert_eq!(next.unwrap().1, ThermalEvent::BoostOn);
        }
    }

    #[test]
    fn budget_exhaustion_ends_boost_without_a_crossing() {
        let spec = RcThermal {
            boost: Some(BoostSpec {
                power_factor: 1.2,
                perf_factor: 1.1,
                budget_s: 3.0,
                enter_c: 45.0,
                exit_c: 55.0,
            }),
            ..rc()
        };
        let mut st = ThermalState::new(spec);
        // Gentle power: the die settles below the boost exit point, so
        // the only scheduled event is the budget running dry.
        let p = 2.0; // ss = 41 °C < exit_c
        let (dt, ev) = st.next_event_in(p).unwrap();
        assert_eq!(ev, ThermalEvent::BoostOff);
        assert_eq!(dt, 3.0);
        st.advance(p, dt);
        st.apply_event(ev);
        assert!(!st.boosting);
        assert_eq!(st.boost_time_s(), 3.0);
        assert_eq!(st.power_factor(), 1.0);
        // Budget gone: cooling below the entry point schedules nothing.
        assert_eq!(st.next_event_in(0.0), None);
    }

    #[test]
    fn scales_are_exactly_one_outside_boost() {
        let mut st = ThermalState::new(RcThermal { boost: None, ..rc() });
        assert_eq!(st.power_factor(), 1.0);
        assert_eq!(st.perf_factor(), 1.0);
        st.advance(6.0, 100.0);
        assert_eq!(st.power_factor(), 1.0);
        assert!(st.peak_c() > rc().ambient_c);
    }

    #[test]
    fn validation_rejects_unphysical_specs() {
        assert!(RcThermal { r_c_per_w: 0.0, ..rc() }.validate().is_err());
        assert!(RcThermal { c_j_per_c: -1.0, ..rc() }.validate().is_err());
        assert!(RcThermal { release_c: 80.0, ..rc() }.validate().is_err());
        assert!(RcThermal { ambient_c: f64::NAN, ..rc() }.validate().is_err());
        assert!(RcThermal { ambient_c: 72.0, ..rc() }.validate().is_err());
        let bad_boost = |b: BoostSpec| RcThermal { boost: Some(b), ..rc() }.validate().is_err();
        let b = BoostSpec {
            power_factor: 1.2,
            perf_factor: 1.1,
            budget_s: 5.0,
            enter_c: 45.0,
            exit_c: 55.0,
        };
        assert!(bad_boost(BoostSpec { power_factor: 0.0, ..b }));
        assert!(bad_boost(BoostSpec { budget_s: f64::INFINITY, ..b }));
        assert!(bad_boost(BoostSpec { enter_c: 60.0, ..b }));
        assert!(bad_boost(BoostSpec { exit_c: 72.0, ..b }));
        assert!(RcThermal { boost: Some(b), ..rc() }.validate().is_ok());
    }
}
