//! Canned scenarios for the paper's experiments.
//!
//! A [`Scenario`] bundles a platform, a supply, a buffer and engine
//! options, and can be run under the power-neutral governor, any
//! baseline governor, or a static (uncontrolled) configuration.

use crate::engine::{self, SimOptions, SimReport};
use crate::supply::{Supply, VoltageWaveform};
use crate::SimError;
use pn_circuit::capacitor::Supercapacitor;
use pn_circuit::solar::SolarCell;
use pn_core::events::Governor;
use pn_core::governor::PowerNeutralGovernor;
use pn_core::params::ControlParams;
use pn_governors::{Hold, Powersave};
use pn_harvest::clearsky::ClearSky;
use pn_harvest::irradiance::IrradianceTrace;
use pn_harvest::weather::{DayProfile, Weather};
use pn_soc::cores::CoreConfig;
use pn_soc::opp::Opp;
use pn_soc::platform::Platform;
use pn_units::{Seconds, Volts, WattsPerSquareMeter};
use std::sync::Arc;

/// A runnable experiment configuration.
#[derive(Debug, Clone)]
pub struct Scenario {
    platform: Platform,
    supply: Supply,
    pub(crate) buffer: Supercapacitor,
    params: ControlParams,
    initial_opp: Opp,
    pub(crate) initial_vc: Volts,
    options: SimOptions,
}

impl Scenario {
    /// Generic constructor used by the canned builders below: the
    /// ODROID-XU4 on the paper's buffer at its target voltage, under
    /// the paper's control parameters from the lowest OPP.
    pub(crate) fn new(supply: Supply, options: SimOptions) -> Self {
        let platform = Platform::odroid_xu4();
        Self {
            initial_vc: platform.target_voltage(),
            platform,
            supply,
            buffer: Supercapacitor::paper_buffer(),
            params: ControlParams::paper_optimal().expect("paper preset valid"),
            initial_opp: Opp::lowest(),
            options,
        }
    }

    /// Overrides the control parameters (builder style).
    pub fn with_params(mut self, params: ControlParams) -> Self {
        self.params = params;
        self
    }

    /// Overrides the buffer capacitor (builder style).
    pub fn with_buffer(mut self, buffer: Supercapacitor) -> Self {
        self.buffer = buffer;
        self
    }

    /// Overrides the initial OPP (builder style).
    fn with_initial_opp(mut self, opp: Opp) -> Self {
        self.initial_opp = opp;
        self
    }

    /// Overrides the initial capacitor voltage (builder style).
    fn with_initial_vc(mut self, vc: Volts) -> Self {
        self.initial_vc = vc;
        self
    }

    /// Overrides the engine options wholesale (builder style).
    pub fn with_options(mut self, options: SimOptions) -> Self {
        self.options = options;
        self
    }

    /// Drops the trace request, for a caller that reads only the report's
    /// accrued outcomes (builder style).
    pub(crate) fn unrecorded(mut self) -> Self {
        self.options.record_dt = None;
        self
    }

    /// Shortens (or lengthens) the simulated window to `duration` from
    /// its start (builder style).
    pub fn with_duration(mut self, duration: Seconds) -> Self {
        self.options.t_end = self.options.t_start + duration;
        self
    }

    /// The engine options.
    pub fn options(&self) -> &SimOptions {
        &self.options
    }

    /// The platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The supply.
    pub fn supply(&self) -> &Supply {
        &self.supply
    }

    /// Runs under the proposed power-neutral governor.
    ///
    /// # Errors
    ///
    /// Propagates engine failures.
    pub fn run_power_neutral(&self) -> Result<SimReport, SimError> {
        let gov = PowerNeutralGovernor::new(self.params, &self.platform)?;
        self.run_governor(Box::new(gov))
    }

    /// Runs under an arbitrary governor. Baseline (non-hot-plugging)
    /// governors are started with all eight cores online, as Linux
    /// boots the board.
    ///
    /// # Errors
    ///
    /// Propagates engine failures.
    pub fn run_governor(&self, governor: Box<dyn Governor>) -> Result<SimReport, SimError> {
        let initial = if governor.uses_threshold_interrupts() {
            self.initial_opp
        } else {
            Opp::new(CoreConfig::MAX, 0)
        };
        engine::run(self, governor, initial)
    }

    /// Runs with a fixed OPP and no control at all (the red "small
    /// supercapacitor only" curve of Fig. 3).
    ///
    /// # Errors
    ///
    /// Propagates engine failures.
    pub fn run_static(&self, opp: Opp) -> Result<SimReport, SimError> {
        engine::run(self, Box::new(Hold::new()), opp)
    }

    /// Runs the paper's powersave baseline (Table II's only surviving
    /// Linux governor).
    ///
    /// # Errors
    ///
    /// Propagates engine failures.
    pub fn run_powersave(&self) -> Result<SimReport, SimError> {
        self.run_governor(Box::new(Powersave::new()))
    }
}

/// The full-sun PV day of Figs. 12–14: the paper's test window
/// (10:30–16:30) under the weak autumn sky whose MPP power peaks near
/// 3.3 W.
pub fn full_sun_day(seed: u64) -> Scenario {
    weather_day(Weather::FullSun, seed)
}

/// The paper's test window, 10:30–16:30, that [`weather_day`] simulates.
fn test_window() -> (Seconds, Seconds) {
    (Seconds::from_hours(10.5), Seconds::from_hours(16.5))
}

/// Sample period of weather-day traces.
const DAY_DT: Seconds = Seconds::new(1.0);

/// A PV day in the given weather over the paper's test window.
pub fn weather_day(weather: Weather, seed: u64) -> Scenario {
    let (start, end) = test_window();
    weather_day_with_trace(weather_day_trace_shared(weather, seed, end - start))
}

/// The irradiance trace [`weather_day`] renders: the paper's test
/// window (10:30–16:30) under the weak autumn sky, sampled every
/// second. Always renders the full day afresh; campaigns share each
/// distinct window through [`weather_day_trace_shared`] instead.
pub fn weather_day_trace(weather: Weather, seed: u64) -> IrradianceTrace {
    weather_day_profile(weather, seed, test_window().1).build(DAY_DT).expect("day profile valid")
}

/// The leading part of [`weather_day_trace`] that a simulation of
/// `duration` from 10:30 reads, through the process-wide day memo
/// ([`DayProfile::build_shared`]). Repeated requests for the same
/// `(weather, seed, duration)` — within one campaign or across runs in
/// the same process — share a single rendered trace.
///
/// The window ends on the full day's sample grid, one padding sample
/// past the first sample at or after the simulation's end:
/// `10:30 + dt·(⌈duration/dt⌉ + 1)`. Its samples are bitwise the full
/// day's leading samples, and the padding sample keeps the engine's
/// last read, at `10:30 + duration`, interpolating between the same
/// two samples as on the full day. A window reaching 16:30 is the full
/// day itself, the same memo entry [`weather_day`] uses.
pub fn weather_day_trace_shared(
    weather: Weather,
    seed: u64,
    duration: Seconds,
) -> Arc<IrradianceTrace> {
    let (start, day_end) = test_window();
    // `start + dt·k` is the expression `IrradianceTrace::from_fn` puts
    // sample k at, so `end` is exactly a sample time of the full day.
    let k = (duration / DAY_DT).ceil().max(0.0) + 1.0;
    let end = start + DAY_DT * k;
    let end = if end < day_end { end } else { day_end };
    weather_day_profile(weather, seed, end).build_shared(DAY_DT).expect("day profile valid")
}

fn weather_day_profile(weather: Weather, seed: u64, end: Seconds) -> DayProfile {
    let sky = ClearSky::paper_test_day().expect("preset sky valid");
    DayProfile::new(weather, seed).with_sky(sky).with_span(test_window().0, end)
}

/// Assembles the [`weather_day`] scenario around an already-rendered
/// irradiance trace: the simulated window is the trace's span. The
/// trace must come from [`weather_day_trace`] — or the day memo's copy
/// of it, or of a leading window of it — for the scenario to match
/// `weather_day` bitwise over that window. A window from
/// [`weather_day_trace_shared`] spans one padding sample past the
/// duration it was rendered for, so set the simulated window with
/// [`Scenario::with_duration`].
pub fn weather_day_with_trace(irradiance: impl Into<Arc<IrradianceTrace>>) -> Scenario {
    let irradiance = irradiance.into();
    let (start, end) = (irradiance.start(), irradiance.end());
    let supply = Supply::photovoltaic(SolarCell::odroid_array(), irradiance);
    let options = SimOptions::new(end)
        .with_span(start, end)
        .with_record_dt(Seconds::new(5.0))
        .with_max_step(Seconds::new(0.25));
    Scenario::new(supply, options)
}

/// The Table II hour: 60 minutes around solar noon with gentle
/// (shallow-cloud) full-sun conditions, matching the power envelope of
/// the paper's Fig. 14 midday. Table II reports verdicts, not
/// trajectories, so the hour records no trace unless its options ask
/// for one.
pub fn table2_hour(seed: u64) -> Scenario {
    let start = Seconds::from_hours(12.0);
    let end = Seconds::from_hours(13.0);
    let sky = ClearSky::paper_test_day().expect("preset sky valid");
    let mut params = Weather::FullSun.cloud_params();
    // The paper's test hour shows only shallow dips (Fig. 14): cap the
    // cloud depth so the powersave baseline is viable, as it was on
    // the real rig.
    params.depth_range = (0.02, 0.06);
    let irradiance = pn_harvest::clouds::CloudField::generate(params, start, end, seed)
        .expect("params valid")
        .render(&sky, start, end, Seconds::new(1.0))
        .expect("trace valid");
    let supply = Supply::photovoltaic(SolarCell::odroid_array(), irradiance);
    let options = SimOptions::new(end).with_span(start, end).with_max_step(Seconds::new(0.25));
    // The paper's governor had been tracking the supply since morning;
    // by noon the gentle macro ramp has carried it to the
    // LITTLE-saturated ceiling (the Fig. 12 regime). Start there
    // rather than replaying the whole morning.
    Scenario::new(supply, options)
        .with_initial_opp(Opp::new(CoreConfig::new(4, 0).expect("valid config"), 7))
}

/// The Fig. 6 shadowing simulation: full irradiance, then a sudden
/// deep shadow. The window is `duration` long with the shadow edge at
/// `shadow_at`.
pub fn shadowing(shadow_at: Seconds, duration: Seconds) -> Scenario {
    let g_full = WattsPerSquareMeter::new(1000.0);
    let g_shadow = WattsPerSquareMeter::new(420.0);
    let edge = Seconds::new(0.25); // shadow front passes in 250 ms
    let irradiance =
        IrradianceTrace::from_fn(Seconds::ZERO, duration, Seconds::new(0.05), |t| {
            if t <= shadow_at {
                g_full
            } else if t <= shadow_at + edge {
                let s = (t - shadow_at) / edge;
                g_full + (g_shadow - g_full) * s
            } else {
                g_shadow
            }
        })
        .expect("trace valid");
    let supply = Supply::photovoltaic(SolarCell::odroid_array(), irradiance);
    let options = SimOptions::new(duration)
        .with_record_dt(Seconds::new(0.02))
        .with_max_step(Seconds::new(0.01));
    Scenario::new(supply, options)
        .with_params(ControlParams::fig6_simulation().expect("preset valid"))
        .with_initial_opp(Opp::new(CoreConfig::MAX, 5))
        .with_initial_vc(Volts::new(5.3))
}

/// The Fig. 3 concept scenario: a sinusoidally varying harvest.
pub fn sinusoid(period: Seconds, duration: Seconds) -> Scenario {
    let irradiance =
        IrradianceTrace::from_fn(Seconds::ZERO, duration, Seconds::new(0.02), |t| {
            let phase = 2.0 * std::f64::consts::PI * t.value() / period.value();
            // Oscillate between ~420 and ~1000 W/m²: the trough still
            // covers the lowest OPP, the crest approaches full sun.
            WattsPerSquareMeter::new(710.0 + 290.0 * phase.cos())
        })
        .expect("trace valid");
    let supply = Supply::photovoltaic(SolarCell::odroid_array(), irradiance);
    let options = SimOptions::new(duration)
        .with_record_dt(Seconds::new(0.02))
        .with_max_step(Seconds::new(0.01));
    Scenario::new(supply, options).with_initial_vc(Volts::new(5.5))
}

/// The Fig. 11 bench test: a controlled variable supply with minor
/// fluctuations (feature "A") and one sudden deep drop (feature "B").
pub fn controlled_supply_demo() -> Scenario {
    let v = |x: f64| Volts::new(x);
    let s = |x: f64| Seconds::new(x);
    let waveform = VoltageWaveform::new(vec![
        (s(0.0), v(4.70)),
        (s(10.0), v(4.70)),
        // Stepped rise ≈0.45 V/s: above α — LITTLE cores come online.
        (s(11.0), v(5.15)),
        (s(25.0), v(5.15)),
        // Faster step ≈0.7 V/s: above β — big cores come online too.
        (s(25.5), v(5.50)),
        (s(42.0), v(5.50)),
        // Feature "A": minor slow fluctuations, handled by DVFS alone.
        (s(47.0), v(5.34)),
        (s(53.0), v(5.48)),
        (s(59.0), v(5.33)),
        (s(65.0), v(5.47)),
        (s(72.0), v(5.52)),
        (s(88.0), v(5.55)),
        // Feature "B": sudden deep reduction ≈0.9 V/s — cores shed.
        (s(90.2), v(4.45)),
        (s(104.0), v(4.42)),
        // Stepped recovery.
        (s(118.0), v(4.45)),
        (s(119.0), v(4.88)),
        (s(130.0), v(4.90)),
        (s(130.6), v(5.28)),
        (s(145.0), v(5.30)),
        (s(146.0), v(5.55)),
        (s(160.0), v(5.50)),
    ])
    .expect("waveform valid");
    let options = SimOptions::new(Seconds::new(160.0))
        .with_record_dt(Seconds::new(0.25))
        .with_max_step(Seconds::new(0.02));
    Scenario::new(Supply::Controlled { waveform }, options)
        .with_params(ControlParams::fig11_demo().expect("preset valid"))
        .with_initial_opp(Opp::new(CoreConfig::new(2, 0).expect("valid config"), 2))
}

/// Constant-irradiance scenario (unit tests and the quickstart
/// example).
pub fn constant_sun(g: WattsPerSquareMeter, duration: Seconds) -> Scenario {
    let irradiance = IrradianceTrace::constant(Seconds::ZERO, duration, g).expect("trace valid");
    let supply = Supply::photovoltaic(SolarCell::odroid_array(), irradiance);
    Scenario::new(supply, SimOptions::new(duration).with_record_dt(Seconds::new(0.5)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignSpec;

    #[test]
    fn shadowing_scenario_keeps_the_controlled_system_alive() {
        let scenario = shadowing(Seconds::new(2.0), Seconds::new(8.0));
        let controlled = scenario.run_power_neutral().unwrap();
        assert!(controlled.survived(), "power-neutral control must ride out the shadow");
        // The same shadow kills the uncontrolled system at the same OPP.
        let uncontrolled = scenario.run_static(Opp::new(CoreConfig::MAX, 5)).unwrap();
        assert!(!uncontrolled.survived(), "static performance must brown out");
    }

    #[test]
    fn controlled_demo_sheds_cores_at_feature_b() {
        let report = controlled_supply_demo().run_power_neutral().unwrap();
        assert!(report.survived());
        let cores = report.recorder().total_cores();
        // Cores were added during the rise and shed after the drop.
        let max_cores = cores.max().unwrap();
        let at_b = cores.sample(100.0).unwrap();
        assert!(max_cores >= 4.0, "max cores {max_cores}");
        assert!(at_b < max_cores, "cores not shed after B: {at_b} vs {max_cores}");
    }

    #[test]
    fn constant_sun_short_run_is_stable() {
        let report = constant_sun(WattsPerSquareMeter::new(560.0), Seconds::new(20.0))
            .run_power_neutral()
            .unwrap();
        assert!(report.survived());
        assert!(report.work().instructions() > 0.0);
    }

    #[test]
    fn only_the_builders_whose_traces_are_read_ask_for_one() {
        let s = Seconds::new;
        let g = WattsPerSquareMeter::new(560.0);
        let cell = CampaignSpec::smoke().cells()[0].scenario().expect("cell builds");
        let requests = [
            ("table2_hour", table2_hour(1), None),
            ("weather_day", weather_day(Weather::PartialSun, 1), Some(s(5.0))),
            ("full_sun_day", full_sun_day(1), Some(s(5.0))),
            ("shadowing", shadowing(s(2.0), s(8.0)), Some(s(0.02))),
            ("sinusoid", sinusoid(s(4.0), s(8.0)), Some(s(0.02))),
            ("controlled_supply_demo", controlled_supply_demo(), Some(s(0.25))),
            ("constant_sun", constant_sun(g, s(1.0)), Some(s(0.5))),
            ("CampaignCell::scenario", cell, Some(s(5.0))),
        ];
        for (name, scenario, record_dt) in requests {
            assert_eq!(scenario.options().record_dt, record_dt, "{name}");
            assert_eq!(scenario.unrecorded().options().record_dt, None, "{name}");
        }
    }

    #[test]
    fn table2_hour_scenario_spans_an_hour() {
        let s = table2_hour(1);
        assert!((s.options().t_end - s.options().t_start - Seconds::from_hours(1.0)).abs()
            < Seconds::new(1e-6));
    }
}
