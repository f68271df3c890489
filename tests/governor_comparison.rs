//! Table II semantics across the whole governor zoo.

use power_neutral::sim::experiments::table2;
use power_neutral::sim::scenario;
use power_neutral::soc::cores::CoreConfig;
use power_neutral::soc::opp::Opp;
use power_neutral::units::{Seconds, WattsPerSquareMeter};

#[test]
fn table2_ordering_holds() {
    let t = table2::run(3, Seconds::from_minutes(5.0)).expect("table runs");

    // The paper: Performance, Ondemand and Interactive "could not
    // support any operation".
    for scheme in ["performance", "ondemand", "interactive"] {
        let row = t.row(scheme).expect(scheme);
        assert!(!row.survived, "{scheme} must brown out");
        assert!(row.lifetime_seconds < 10.0);
    }

    // Conservative: a short, gradual-ramp-limited lifetime (00:05).
    let conservative = t.row("conservative").expect("row");
    assert!(!conservative.survived);
    assert!(conservative.lifetime_seconds > 1.0 && conservative.lifetime_seconds < 30.0);

    // Conservative still beats the instant-death governors on work done.
    let performance = t.row("performance").expect("row");
    assert!(conservative.instructions_billions > performance.instructions_billions);

    // Powersave and the proposed governor both survive; proposed wins.
    let powersave = t.row("powersave").expect("row");
    let proposed = t.row("power-neutral").expect("row");
    assert!(powersave.survived);
    assert!(proposed.survived);
    assert!(proposed.instructions_billions > powersave.instructions_billions);
    assert!(proposed.renders_per_minute > powersave.renders_per_minute);
}

#[test]
fn renders_per_minute_magnitudes_match_the_paper() {
    let t = table2::run(8, Seconds::from_minutes(5.0)).expect("table runs");
    // Paper: powersave 0.1456 r/min, proposed 0.2460 r/min. Accept a
    // generous band around those magnitudes.
    let powersave = t.row("powersave").expect("row").renders_per_minute;
    let proposed = t.row("power-neutral").expect("row").renders_per_minute;
    assert!((0.05..0.4).contains(&powersave), "powersave {powersave} r/min");
    assert!((0.1..0.6).contains(&proposed), "proposed {proposed} r/min");
}

#[test]
fn table2_cells_are_internally_consistent() {
    let duration = Seconds::from_minutes(2.0);
    let t = table2::run(12, duration).expect("table runs");

    for row in &t.rows {
        // A lifetime can never exceed the observation window, and the
        // survival flag is exactly "lived the whole window".
        assert!(
            row.lifetime_seconds <= duration.value() + 1e-6,
            "{} lived {} s in a {} s window",
            row.scheme,
            row.lifetime_seconds,
            duration.value()
        );
        assert_eq!(
            row.survived,
            (row.lifetime_seconds - duration.value()).abs() < 1e-6,
            "{}: survived flag inconsistent with lifetime",
            row.scheme
        );
        // The formatted lifetime agrees with the numeric one.
        assert_eq!(row.lifetime, Seconds::new(row.lifetime_seconds).to_mmss(), "{}", row.scheme);
        // Work columns are consistent: both are non-negative, and a
        // scheme that completed renders must have executed instructions.
        assert!(row.instructions_billions >= 0.0);
        assert!(row.renders_per_minute >= 0.0);
        if row.renders_per_minute > 0.0 {
            assert!(row.instructions_billions > 0.0, "{}: renders without instructions", row.scheme);
        }
    }

    // Powersave draws the least of any live scheme, so it can never
    // brown out before the power-neutral governor.
    let powersave = t.row("powersave").expect("row");
    let proposed = t.row("power-neutral").expect("row");
    assert!(
        powersave.lifetime_seconds >= proposed.lifetime_seconds - 1e-6,
        "powersave ({} s) browned out before power-neutral ({} s)",
        powersave.lifetime_seconds,
        proposed.lifetime_seconds
    );
}

#[test]
fn static_work_is_monotone_in_average_opp() {
    // One LITTLE core pinned at increasing frequency levels under
    // constant sun: every run survives and a higher OPP must complete
    // strictly more work.
    let sun = scenario::constant_sun(WattsPerSquareMeter::new(560.0), Seconds::new(20.0));
    let config = CoreConfig::new(1, 0).expect("one LITTLE core");
    let mut last = -1.0;
    for level in [0usize, 2, 4, 7] {
        let report = sun.run_static(Opp::new(config, level)).expect("static run");
        assert!(report.survived(), "one LITTLE core at level {level} must survive");
        let instructions = report.work().instructions();
        assert!(
            instructions > last,
            "work not monotone in OPP: level {level} did {instructions} after {last}"
        );
        last = instructions;
    }
}

#[test]
fn different_seeds_preserve_the_qualitative_outcome() {
    for seed in [1, 2, 5] {
        let t = table2::run(seed, Seconds::from_minutes(3.0)).expect("table runs");
        assert!(t.row("power-neutral").expect("row").survived, "seed {seed}");
        assert!(t.row("powersave").expect("row").survived, "seed {seed}");
        assert!(!t.row("performance").expect("row").survived, "seed {seed}");
        assert!(
            t.proposed_over_powersave().expect("rows") > 1.0,
            "seed {seed}: proposed must beat powersave"
        );
    }
}

#[test]
fn the_table2_hour_is_pinned_bitwise() {
    use power_neutral::sim::campaign::GovernorSpec;
    // (governor, transitions, instructions bits, final VC bits): any
    // change to the numerics of the Table II hour moves one of these.
    let pins = [
        (GovernorSpec::PowerNeutral, 49_003, 0x4291_3ecd_6a5e_05f8_u64, 0x4015_fccb_cdd2_2443_u64),
        (GovernorSpec::BudgetShift, 28_101, 0x429b_a6ec_6f24_96da, 0x4015_2a4b_a2f2_6953),
    ];
    let hour = scenario::table2_hour(1);
    for (governor, transitions, instructions, final_vc) in pins {
        let report = governor.run(&hour).expect("the Table II hour runs");
        let name = governor.slug();
        assert_eq!(report.transitions(), transitions, "{name}");
        assert_eq!(report.work().instructions().to_bits(), instructions, "{name}");
        assert_eq!(report.final_vc().value().to_bits(), final_vc, "{name}");
    }
}
