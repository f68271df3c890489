//! The headline claims: voltage stabilisation at the MPP, power
//! tracking without overdraw, and negligible control overhead.

use power_neutral::analysis::metrics::{fraction_within_band, mean_utilisation, time_integral};
use power_neutral::harvest::weather::Weather;
use power_neutral::sim::campaign::GovernorSpec;
use power_neutral::sim::engine::SimReport;
use power_neutral::sim::experiments::{fig12, fig13, fig14, fig15};
use power_neutral::sim::scenario::{self, Scenario};
use power_neutral::units::Seconds;

/// `scenario` recorded every millisecond: the same run (recording only
/// observes), sampled at the end of every step longer than 1 ms.
fn densely_recorded(scenario: &Scenario) -> Scenario {
    let options = scenario.options().with_record_dt(Seconds::new(1e-3));
    scenario.clone().with_options(options)
}

#[test]
fn vc_stabilises_near_the_target_voltage() {
    let fig = fig12::run(7, Seconds::from_minutes(15.0)).expect("fig12 runs");
    assert!(fig.survived);
    assert!(
        fig.within_5pct > 0.6,
        "±5 % residency {:.1} % too low",
        fig.within_5pct * 100.0
    );
}

#[test]
fn the_system_dwells_near_the_maximum_power_point() {
    let fig = fig13::run(11, Seconds::from_minutes(15.0)).expect("fig13 runs");
    assert!(
        (fig.modal_voltage - fig.mpp_voltage).abs() < 0.8,
        "modal {} vs mpp {}",
        fig.modal_voltage,
        fig.mpp_voltage
    );
}

#[test]
fn consumption_tracks_availability_without_systematic_overdraw() {
    let fig = fig14::run(5, Seconds::from_minutes(15.0)).expect("fig14 runs");
    assert!(fig.utilisation > 0.5, "wasting harvest: utilisation {}", fig.utilisation);
    assert!(fig.utilisation < 1.15, "overdrawing: utilisation {}", fig.utilisation);
    assert!(fig.overdraw_fraction < 0.35, "overdraw fraction {}", fig.overdraw_fraction);
}

#[test]
fn control_overhead_is_well_under_one_percent() {
    let fig = fig15::run(9, Seconds::from_minutes(15.0)).expect("fig15 runs");
    assert!(fig.control_cpu_fraction < 0.01, "overhead {}", fig.control_cpu_fraction);
    assert!(fig.monitor_power_fraction_of_min < 0.0082);
}

#[test]
fn harvest_extraction_beats_powersave_by_construction() {
    // Power neutrality means consuming what is harvested; powersave
    // consumes a fixed trickle and leaves the rest unextracted (the PV
    // array floats toward open circuit). Compare the energy actually
    // pulled from the array.
    // Compare around solar noon, where the headroom above powersave's
    // fixed draw is widest (morning harvest barely covers it).
    let base = scenario::table2_hour(13).with_duration(Seconds::from_minutes(10.0));
    let pn = base.run_power_neutral().expect("pn run");
    let ps = base.run_powersave().expect("powersave run");
    let harvested = |r: &SimReport| r.energy_in().value();
    assert!(
        harvested(&pn) > 1.05 * harvested(&ps),
        "pn {} J vs powersave {} J",
        harvested(&pn),
        harvested(&ps)
    );
    // And every consumed watt is a delivered watt (power neutrality):
    let util = mean_utilisation(pn.recorder().power_out(), pn.recorder().power_in(), 0.5)
        .expect("utilisation");
    assert!(util > 0.9 && util < 1.1, "pn utilisation {util}");
}

#[test]
fn stability_metric_agrees_with_an_independent_computation() {
    // Fig. 12's residency is resolved on the engine's dense output; the
    // linear interpolation of a 1 ms recording of the same run must
    // reproduce it to well under a sample's worth of time.
    let base = scenario::full_sun_day(7).with_duration(Seconds::from_minutes(10.0));
    let report = densely_recorded(&base).run_power_neutral().expect("run");
    let direct = fraction_within_band(report.recorder().vc(), 5.3, 0.05).expect("metric");
    let fig = fig12::run(7, Seconds::from_minutes(10.0)).expect("fig12");
    assert!((direct - fig.within_5pct).abs() <= 1e-3, "{direct} vs {}", fig.within_5pct);
}

#[test]
fn reported_outcomes_agree_with_a_dense_recording() {
    // A partly sunny minute: power-neutral tracks it, powersave browns
    // out after about 1.9 s. The report's numbers are accrued as the
    // engine steps; a 1 ms recording of the same run recomputes them.
    let base = scenario::weather_day(Weather::PartialSun, 1).with_duration(Seconds::new(60.0));
    let dense = densely_recorded(&base);
    for governor in [GovernorSpec::PowerNeutral, GovernorSpec::Powersave] {
        let name = governor.slug();
        let report = governor.run(&dense).expect("run");
        let recorder = report.recorder();
        let e_in = time_integral(recorder.power_in()).expect("energy in");
        let relative = e_in / report.energy_in().value() - 1.0;
        assert!(relative.abs() <= 1e-3, "{name}: E_in off by {relative:e}");
        let band = fraction_within_band(recorder.vc(), 5.3, 0.05).expect("residency");
        let gap = band - report.vc_stability();
        assert!(gap.abs() <= 1e-3, "{name}: residency off by {gap:e}");
        // The load is constant between step ends and a snapshot records
        // the load from its instant on, so a zero-order hold over the
        // samples integrates it exactly when every load change is
        // sampled, as at 1 ms. (The trapezoid rule of `time_integral`
        // half-counts the step before each change instead: 1.4e-3
        // high for power-neutral, and 3.3e-3 low for powersave, whose
        // brownout sample reads the dead board's 0 W.)
        let (times, watts) = (recorder.power_out().times(), recorder.power_out().values());
        let held: f64 = (1..times.len()).map(|k| watts[k - 1] * (times[k] - times[k - 1])).sum();
        let relative = held / report.energy_out().value() - 1.0;
        assert!(relative.abs() <= 1e-9, "{name}: E_out off by {relative:e}");
    }
}
