//! Shape tests over the remaining experiment modules: every figure's
//! qualitative claim, asserted end to end through the public API.

use power_neutral::sim::experiments::{fig01, fig03, fig04, fig06, fig07, fig10, fig11};
use power_neutral::units::Seconds;

#[test]
fn fig01_day_trace_has_macro_and_micro_structure() {
    let fig = fig01::run(42, Seconds::new(30.0)).expect("fig01");
    assert!(fig.peak_watts > 0.6 && fig.peak_watts < 1.3);
    assert!(fig.micro_variability > 0.001);
    // Macro structure: the first and last samples (night) are dark.
    let power = fig.power.as_series().values();
    assert_eq!(power[0], 0.0);
    assert_eq!(*power.last().unwrap(), 0.0);
}

#[test]
fn fig03_concept_holds() {
    let fig = fig03::run(Seconds::new(4.0), Seconds::new(16.0)).expect("fig03");
    assert!(fig.static_lifetime.is_some());
    assert!(fig.scaled_lifetime.is_none());
}

#[test]
fn fig04_and_fig07_are_mutually_consistent() {
    let f4 = fig04::run().expect("fig04");
    let f7 = fig07::run().expect("fig07");
    // Every Fig. 7 point's power must equal the Fig. 4 curve value for
    // the same (config, frequency).
    for p in f7.little_only.iter().chain(f7.with_big.iter()) {
        let curve = f4
            .curves
            .iter()
            .find(|c| c.config == p.config)
            .expect("config present in fig04");
        let (_, power) = curve
            .points
            .iter()
            .find(|(g, _)| (*g - p.frequency_ghz).abs() < 1e-9)
            .expect("frequency present");
        assert!((power - p.power_w).abs() < 1e-9);
    }
}

#[test]
fn fig06_shadowing_claims() {
    let fig = fig06::run(Seconds::new(2.0), Seconds::new(8.0)).expect("fig06");
    assert!(fig.controlled_survived);
    assert!(fig.uncontrolled_lifetime.is_some());
    // The uncontrolled system dies *after* the shadow lands at 2 s.
    assert!(fig.uncontrolled_lifetime.unwrap() > 2.0);
}

#[test]
fn fig10_hierarchy_is_preserved() {
    let fig = fig10::run().expect("fig10");
    // Every hot-plug bar exceeds every DVFS bar — the asymmetry behind
    // the paper's core-first strategy.
    let min_hotplug =
        fig.hotplug.iter().map(|b| b.latency_ms).fold(f64::INFINITY, f64::min);
    let max_dvfs = fig.dvfs.iter().map(|b| b.latency_ms).fold(0.0, f64::max);
    assert!(min_hotplug > max_dvfs);
}

#[test]
fn fig11_transient_vs_long_term_response_separation() {
    let fig = fig11::run().expect("fig11");
    // Feature A (minor fluctuation): core count does not move between
    // 44 s and 88 s.
    let cores = fig.total_cores.as_series();
    let cores_a_start = cores.sample(44.0).expect("sample");
    let cores_a_end = cores.sample(88.0).expect("sample");
    assert_eq!(cores_a_start, cores_a_end, "cores changed across feature A");
    // Feature B (sudden drop at 90 s): cores shed within seconds.
    let cores_after_b = cores.sample(100.0).expect("sample");
    assert!(cores_after_b < cores_a_end);
}
