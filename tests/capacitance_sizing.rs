//! §IV-A / Table I semantics: buffer sizing and its consequences.

use power_neutral::circuit::capacitor::Supercapacitor;
use power_neutral::core::capacitance::{required_capacitance, table1};
use power_neutral::sim::experiments::table1 as table1_exp;
use power_neutral::sim::scenario;
use power_neutral::soc::platform::Platform;
use power_neutral::units::{Coulombs, Farads, Ohms, Seconds, Volts};

#[test]
fn core_first_requires_less_capacitance() {
    let (freq_first, core_first) = table1(&Platform::odroid_xu4()).expect("table1");
    assert!(freq_first.required_capacitance > core_first.required_capacitance);
    assert!(core_first.required_capacitance.to_millifarads() < 47.0);
}

#[test]
fn experiment_and_library_agree() {
    let t = table1_exp::run().expect("experiment");
    let (a, b) = table1(&Platform::odroid_xu4()).expect("library");
    assert!((t.frequency_first.charge_c - a.charge.value()).abs() < 1e-12);
    assert!((t.core_first.required_mf - b.required_capacitance.to_millifarads()).abs() < 1e-9);
}

#[test]
fn paper_numbers_reproduce_through_the_formula() {
    // Feeding the paper's own measured charges through C = Q/ΔV with
    // the full operating window reproduces its scenario (a) value.
    let c_a = required_capacitance(Coulombs::new(0.1299), Volts::new(5.7), Volts::new(4.1))
        .expect("valid");
    assert!((c_a.to_millifarads() - 81.2).abs() < 1.0, "got {}", c_a.to_millifarads());
}

#[test]
fn undersized_buffers_degrade_shadow_survival() {
    // With the paper's 47 mF part the governor rides out a sudden deep
    // shadow; with a 20× smaller buffer the voltage collapses faster
    // than the (latency-bound) response can shed load.
    let base = scenario::shadowing(Seconds::new(2.0), Seconds::new(8.0));
    let ok = base.run_power_neutral().expect("47 mF run");
    assert!(ok.survived(), "paper buffer must ride out the shadow");

    let tiny = base
        .clone()
        .with_buffer(
            Supercapacitor::new(Farads::from_millifarads(2.0), Ohms::new(40_000.0)).expect("valid"),
        )
        .run_power_neutral()
        .expect("2 mF run");
    let vc_ok = ok.recorder().vc().min().unwrap();
    let vc_tiny = tiny.recorder().vc().min().unwrap();
    assert!(
        !tiny.survived() || vc_tiny < vc_ok,
        "2 mF should dip deeper or die: {vc_tiny} vs {vc_ok}"
    );
}

#[test]
fn formula_validates_inputs() {
    assert!(
        required_capacitance(Coulombs::new(0.1), Volts::new(4.1), Volts::new(5.7)).is_err()
    );
    assert!(
        required_capacitance(Coulombs::new(-0.1), Volts::new(5.7), Volts::new(4.1)).is_err()
    );
}
