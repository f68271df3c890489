//! Regression coverage for the workspace dependency DAG itself.
//!
//! Every façade re-export is referenced here by a concrete item, so a
//! future refactor that drops a crate from the workspace (or renames a
//! re-export) fails this test at compile time rather than silently
//! shrinking the public API.

use power_neutral::analysis::metrics::fraction_within_band;
use power_neutral::circuit::solar::SolarCell;
use power_neutral::core::params::ControlParams;
use power_neutral::governors::{
    Conservative, Interactive, Ondemand, Performance, Powersave, Userspace,
};
use power_neutral::harvest::weather::{DayProfile, Weather};
use power_neutral::monitor::monitor::VoltageMonitor;
use power_neutral::sim::scenario;
use power_neutral::soc::platform::Platform;
use power_neutral::units::{Seconds, Volts, Watts, WattsPerSquareMeter};
use power_neutral::workload::work::WorkAccount;

/// One item per re-exported crate, exercised at runtime so the façade
/// wiring is checked end-to-end, not just at name-resolution time.
#[test]
fn every_facade_reexport_is_functional() {
    // pn-units
    let v = Volts::new(5.3);
    assert!((v.value() - 5.3).abs() < 1e-12);

    // pn-soc
    let xu4 = Platform::odroid_xu4();
    assert_eq!(xu4.frequencies().len(), 8);

    // pn-core
    let params = ControlParams::paper_optimal().unwrap();
    assert!(params.v_width().value() > 0.0);

    // pn-circuit
    let cell = SolarCell::odroid_array();
    let i = cell.current(v, WattsPerSquareMeter::new(1000.0)).unwrap();
    assert!(i.value() > 0.0);

    // pn-harvest
    let trace = DayProfile::new(Weather::FullSun, 42).build(Seconds::new(600.0)).unwrap();
    assert!(trace.sample(Seconds::from_hours(12.0)).value() > 0.0);

    // pn-monitor
    let monitor = VoltageMonitor::paper_board().unwrap();
    assert!(monitor.power() >= Watts::new(0.0));

    // pn-analysis (empty band query on a degenerate series errors — the
    // call itself proves the crate is wired).
    let series = power_neutral::analysis::series::TimeSeries::new("vc");
    assert!(fraction_within_band(&series, 5.3, 0.05).is_err());

    // pn-workload
    let mut work = WorkAccount::new();
    work.accrue(1.0, 1.0, 1e9);
    assert_eq!(work.instructions_billions(), 1.0);

    // pn-sim + pn-governors: a short closed-loop run.
    let report = scenario::constant_sun(WattsPerSquareMeter::new(560.0), Seconds::new(5.0))
        .run_power_neutral()
        .unwrap();
    assert!(report.survived());
}

/// The six baseline governors stay constructible through the façade.
#[test]
fn baseline_governors_resolve_through_facade() {
    let xu4 = Platform::odroid_xu4();
    let table = xu4.frequencies().clone();
    let _ = Performance::new();
    let _ = Powersave::new();
    let _ = Userspace::pinned(3);
    let _ = Ondemand::new(table.clone());
    let _ = Conservative::new(table.clone());
    let _ = Interactive::new(table);
}
