//! Stress-palette coverage of plain campaigns.
//!
//! Every case runs one campaign over a slice of the governor, weather,
//! thermal, arrival and fault palettes twice — sequentially and on
//! three worker threads — and asserts that the two reports are equal
//! and that every cell's outcome is physically sane: residency times
//! (idle, throttle, boost) lie within the cell's lifetime, the lifetime
//! within the simulated window, and the `VC` stability is a fraction.
//! Two more properties hold cell by cell across the same palettes: an
//! outcome does not depend on the recording interval, and the engine's
//! energy accounts close against the buffer's stored energy.

use power_neutral::harvest::faults::FaultSpec;
use power_neutral::harvest::weather::Weather;
use power_neutral::sim::campaign::{
    run_campaign, CampaignCell, CampaignReport, CampaignSpec, GovernorSpec,
};
use power_neutral::sim::engine::SimOptions;
use power_neutral::sim::executor::Executor;
use power_neutral::sim::supply::SupplyModel;
use power_neutral::soc::opp::Opp;
use power_neutral::soc::thermal::{RcThermal, ThermalSpec};
use power_neutral::units::Seconds;
use power_neutral::workload::arrival::ArrivalSpec;
use proptest::prelude::*;

/// Every governor the campaign layer can drive.
fn governors() -> Vec<GovernorSpec> {
    vec![
        GovernorSpec::PowerNeutral,
        GovernorSpec::Performance,
        GovernorSpec::Powersave,
        GovernorSpec::Userspace(2),
        GovernorSpec::Ondemand,
        GovernorSpec::Conservative,
        GovernorSpec::Interactive,
        GovernorSpec::Hold(Opp::lowest()),
        GovernorSpec::RaceToIdle,
        GovernorSpec::BudgetShift,
    ]
}

/// The thermal palette: no model, the CLI stress preset, and a
/// fast-tripping variant (τ = 4 s, trip 1 °C above ambient) whose
/// throttle/release crossings land inside the short windows.
fn thermals() -> Vec<ThermalSpec> {
    vec![
        ThermalSpec::Off,
        ThermalSpec::stress(),
        ThermalSpec::Rc(RcThermal {
            ambient_c: 25.0,
            r_c_per_w: 8.0,
            c_j_per_c: 0.5,
            throttle_c: 26.0,
            release_c: 25.5,
            cap_level: 1,
            boost: None,
        }),
    ]
}

/// The arrival palette: saturated, the CLI bursty preset, and a dense
/// variant with edges every couple of seconds and a zero idle duty.
fn arrivals() -> Vec<ArrivalSpec> {
    vec![
        ArrivalSpec::Saturated,
        ArrivalSpec::bursty_stress(),
        ArrivalSpec::Bursty { rate_hz: 0.5, mean_burst_s: 1.0, idle_duty: 0.0 },
    ]
}

/// The fault palette: clean harvest, the CLI shading preset, and a
/// brown-out storm frequent enough to strike a 3-second window.
fn faults() -> Vec<FaultSpec> {
    vec![
        FaultSpec::None,
        FaultSpec::shading_stress(),
        FaultSpec::Brownout { rate_hz: 0.2, len_s: 2.0, depth: 0.9 },
    ]
}

/// Slack for residency sums accumulated step by step against a
/// lifetime computed in one subtraction.
const ROUNDING: f64 = 1e-9;

/// Runs `spec` sequentially and on three workers, asserts the reports
/// are equal and every cell is sane, and returns the report.
fn run_checked(spec: &CampaignSpec) -> CampaignReport {
    let sequential = run_campaign(spec, &Executor::sequential()).expect("campaign runs");
    let parallel = run_campaign(spec, &Executor::new(3)).expect("campaign runs");
    assert_eq!(parallel, sequential, "3-thread run diverged from the sequential one");
    for c in sequential.cells() {
        let label = c.cell.label();
        let life = c.lifetime_seconds;
        assert!(life <= c.cell.duration.value(), "{label}: lifetime {life} past the window");
        for (what, t) in [
            ("idle", c.idle_time_seconds),
            ("throttle", c.throttle_time_seconds),
            ("boost", c.boost_time_seconds),
        ] {
            assert!(
                (0.0..=life + ROUNDING).contains(&t),
                "{label}: {what} time {t} outside [0, lifetime {life}]"
            );
        }
        assert!(
            (0.0..=1.0).contains(&c.vc_stability),
            "{label}: VC stability {} is not a fraction",
            c.vc_stability
        );
    }
    sequential
}

/// The one cell of a single-valued matrix over the palettes, 3 s long.
fn palette_cell(governor: usize, weather: usize, seed: u64, stress: [usize; 3]) -> CampaignCell {
    let [t, a, f] = stress;
    let cells = CampaignSpec::new()
        .expect("paper preset valid")
        .with_weathers(vec![Weather::all()[weather]])
        .with_seeds(vec![seed])
        .with_governors(vec![governors()[governor]])
        .with_thermals(vec![thermals()[t]])
        .with_arrivals(vec![arrivals()[a]])
        .with_faults(vec![faults()[f]])
        .with_duration(Seconds::new(3.0))
        .cells();
    assert_eq!(cells.len(), 1);
    cells[0]
}

/// Relative slack of the energy balance, against `|E_in|`. The engine
/// integrates `E_in` (and the leakage) as an extra ODE component by
/// the same RK23 step and dense output as `VC`, outside the solver's
/// error control; the balance is therefore off by the two components'
/// truncation errors, which the step control (relative tolerance 1e-6
/// on `VC`) keeps far below this. Across the full palette (10
/// governors × 6 weathers × 4 seeds × 27 stress combinations, 3 s
/// cells) the worst residual measured is 0.14 of the bound: 1.5e-7 J on
/// a hail cell that harvests −0.3 mJ before it browns out, while the
/// largest, 3.3e-6 J, sits on 4.5 J harvested.
const CLOSURE_RELATIVE: f64 = 1e-4;

/// Absolute slack of the energy balance, joules. `E_in` alone cannot
/// scale the bound: a dark array held above its open-circuit voltage
/// sinks current, so a cell that browns out in the dark harvests
/// nothing or less while discharging the whole buffer (about 0.26 J).
const CLOSURE_ABSOLUTE: f64 = 1e-6;

proptest! {
    /// The outcome of a cell is bitwise the same whether its run is
    /// recorded every 5 s (the cell scenario's interval), every 50 ms
    /// or not at all (as `evaluate` runs it): recording observes, it
    /// does not steer.
    #[test]
    fn cell_outcomes_do_not_depend_on_the_recording_interval(
        g in 0usize..10,
        w in 0usize..6,
        seed in 1u64..5,
        t in 0usize..3,
        a in 0usize..3,
        f in 0usize..3,
    ) {
        let cell = palette_cell(g, w, seed, [t, a, f]);
        let scenario = cell.scenario().expect("cell builds");
        let outcome_with = |record_dt: Option<f64>| {
            let options =
                SimOptions { record_dt: record_dt.map(Seconds::new), ..*scenario.options() };
            let run = scenario.clone().with_options(options);
            let report = cell.governor.run(&run).expect("cell runs");
            cell.outcome(&run, &report)
        };
        prop_assert_eq!(cell.evaluate().expect("cell runs"), outcome_with(Some(5.0)));
        prop_assert_eq!(outcome_with(Some(5.0)), outcome_with(Some(0.05)));
        prop_assert_eq!(outcome_with(Some(5.0)), outcome_with(None));
    }

    /// Harvested energy is consumed, leaked or stored:
    /// `E_in − E_out − E_leaked = ½C(V_end² − V_0²)` on every cell.
    #[test]
    fn cell_energy_accounts_close(
        g in 0usize..10,
        w in 0usize..6,
        seed in 1u64..5,
        t in 0usize..3,
        a in 0usize..3,
        f in 0usize..3,
    ) {
        let cell = palette_cell(g, w, seed, [t, a, f]);
        let report = cell.governor.run(&cell.scenario().expect("cell builds")).expect("cell runs");
        let capacitance = cell.buffer_mf * 1e-3;
        let v0 = report.recorder().vc().values()[0];
        let v_end = report.final_vc().value();
        let stored = 0.5 * capacitance * (v_end * v_end - v0 * v0);
        let e_in = report.energy_in().value();
        let residual =
            e_in - report.energy_out().value() - report.energy_leaked().value() - stored;
        prop_assert!(
            residual.abs() <= CLOSURE_RELATIVE * e_in.abs() + CLOSURE_ABSOLUTE,
            "{}: residual {residual:e} J of E_in {e_in} J",
            cell.label()
        );
    }

    /// One sampled governor paired with powersave, a sampled weather
    /// and seed, both supply models.
    #[test]
    fn sampled_governor_weather_and_model_cells_are_sane(
        g in 0usize..10,
        w in 0usize..6,
        seed in 1u64..5,
        interp in proptest::bool::ANY,
    ) {
        let mut spec = CampaignSpec::new()
            .expect("paper preset valid")
            .with_weathers(vec![Weather::all()[w]])
            .with_seeds(vec![seed])
            .with_governors(vec![governors()[g], GovernorSpec::Powersave])
            .with_duration(Seconds::new(3.0));
        if interp {
            spec = spec.with_supply_model(SupplyModel::interpolated());
        }
        run_checked(&spec);
    }

    /// Every (thermal, arrival, fault) combination: throttle and boost
    /// crossings, arrival edges and harvester fault storms are all
    /// engine discontinuities.
    #[test]
    fn sampled_stress_axes_cells_are_sane(
        t in 0usize..3,
        a in 0usize..3,
        f in 0usize..3,
        w in 0usize..6,
        seed in 1u64..4,
    ) {
        let spec = CampaignSpec::new()
            .expect("paper preset valid")
            .with_weathers(vec![Weather::all()[w]])
            .with_seeds(vec![seed])
            .with_governors(vec![GovernorSpec::PowerNeutral, GovernorSpec::Powersave])
            .with_thermals(vec![thermals()[t]])
            .with_arrivals(vec![arrivals()[a]])
            .with_faults(vec![faults()[f]])
            .with_duration(Seconds::new(3.0));
        run_checked(&spec);
    }
}

#[test]
fn all_stress_axes_at_once_are_sane() {
    // Every palette entry armed in one matrix over one shared day.
    let spec = CampaignSpec::new()
        .expect("paper preset valid")
        .with_weathers(vec![Weather::PartialSun])
        .with_seeds(vec![2])
        .with_governors(vec![GovernorSpec::PowerNeutral, GovernorSpec::Powersave])
        .with_thermals(thermals())
        .with_arrivals(arrivals())
        .with_faults(faults())
        .with_duration(Seconds::new(4.0));
    let report = run_checked(&spec);
    assert_eq!(report.len(), 2 * 27);
}

#[test]
fn full_governor_axis_is_sane() {
    // All ten governors over one shared day.
    let spec = CampaignSpec::new()
        .expect("paper preset valid")
        .with_weathers(vec![Weather::PartialSun])
        .with_seeds(vec![3])
        .with_governors(governors())
        .with_duration(Seconds::new(4.0));
    run_checked(&spec);
}

#[test]
fn campaigns_are_thread_count_invariant() {
    // Beyond the three-worker check every case makes: the report must
    // not depend on how many workers claim the cells.
    let spec = CampaignSpec::new()
        .expect("paper preset valid")
        .with_weathers(vec![Weather::FullSun, Weather::Cloudy, Weather::Stormy])
        .with_seeds(vec![1, 2])
        .with_governors(vec![GovernorSpec::PowerNeutral, GovernorSpec::Powersave])
        .with_duration(Seconds::new(6.0));
    let sequential = run_checked(&spec);
    for threads in [2usize, 4, 8] {
        let wide = run_campaign(&spec, &Executor::new(threads)).unwrap();
        assert_eq!(wide, sequential, "{threads}-thread run diverged");
    }
}

#[test]
fn dpm_governors_are_sane_across_every_weather() {
    // The idle-capable policies pause and resume mid-run (idle
    // entry/exit discontinuities), so they get an exhaustive weather
    // sweep.
    for weather in Weather::all() {
        let spec = CampaignSpec::new()
            .expect("paper preset valid")
            .with_weathers(vec![weather])
            .with_seeds(vec![2])
            .with_governors(vec![GovernorSpec::RaceToIdle, GovernorSpec::BudgetShift])
            .with_duration(Seconds::new(5.0));
        run_checked(&spec);
    }
}
