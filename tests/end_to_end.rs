//! Cross-crate integration tests: the full PV → buffer → monitor →
//! governor → SoC loop.

use power_neutral::sim::scenario;
use power_neutral::units::{Seconds, Volts, WattsPerSquareMeter};

#[test]
fn power_neutral_loop_is_stable_under_constant_sun() {
    let report = scenario::constant_sun(WattsPerSquareMeter::new(560.0), Seconds::new(45.0))
        .run_power_neutral()
        .expect("simulation runs");
    assert!(report.survived());
    // The board does useful work and the loop actually reacts.
    assert!(report.work().instructions_billions() > 1.0);
    assert!(report.transitions() >= 1);
    // VC remains inside the physically coherent range: above brownout,
    // below the array's open-circuit voltage.
    let vc = report.recorder().vc();
    assert!(vc.min().unwrap() > 4.1);
    assert!(vc.max().unwrap() < 6.9);
}

#[test]
fn darkness_always_kills_within_the_buffer_budget() {
    // With zero harvest the 47 mF buffer holds the lowest OPP only
    // briefly: E = ½C(5.3² − 4.1²)/P ≈ 0.265 J / 1.75 W ≈ 150 ms.
    let report = scenario::constant_sun(WattsPerSquareMeter::new(0.0), Seconds::new(5.0))
        .run_power_neutral()
        .expect("simulation runs");
    assert!(!report.survived());
    let life = report.lifetime().unwrap().value();
    assert!(life < 1.0, "lived {life} s in darkness");
    // Brownout is detected at the operating minimum, not below.
    assert!((report.final_vc() - Volts::new(4.1)).abs() < Volts::new(0.05));
}

#[test]
fn reports_are_reproducible_bit_for_bit() {
    let run = || {
        scenario::weather_day(power_neutral::harvest::weather::Weather::PartialSun, 99)
            .with_duration(Seconds::new(120.0))
            .run_power_neutral()
            .expect("simulation runs")
    };
    let a = run();
    let b = run();
    assert_eq!(a.transitions(), b.transitions());
    assert_eq!(a.final_vc(), b.final_vc());
    assert_eq!(a.work().instructions(), b.work().instructions());
    assert_eq!(a.recorder().vc().values(), b.recorder().vc().values());
}

#[test]
fn harsher_weather_harvests_less_work() {
    use power_neutral::harvest::weather::Weather;
    let work = |w: Weather| {
        scenario::weather_day(w, 4)
            .with_duration(Seconds::new(180.0))
            .run_power_neutral()
            .expect("simulation runs")
            .work()
            .instructions()
    };
    let sunny = work(Weather::FullSun);
    let hail = work(Weather::Hail);
    assert!(
        sunny > hail,
        "full sun should outproduce hail: {sunny} vs {hail}"
    );
}

#[test]
fn bigger_buffers_change_nothing_in_steady_state() {
    use power_neutral::circuit::capacitor::Supercapacitor;
    use power_neutral::units::{Farads, Ohms};
    let base = scenario::constant_sun(WattsPerSquareMeter::new(560.0), Seconds::new(20.0));
    let small = base.run_power_neutral().expect("47 mF run");
    let big = base
        .clone()
        .with_buffer(
            Supercapacitor::new(Farads::new(1.0), Ohms::new(40_000.0)).expect("valid buffer"),
        )
        .run_power_neutral()
        .expect("1 F run");
    // Both survive; the tiny buffer is enough — the paper's thesis.
    assert!(small.survived());
    assert!(big.survived());
}
