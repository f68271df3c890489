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
        (GovernorSpec::PowerNeutral, 49_003, 0x4291_3ecd_c00b_68ec_u64, 0x4015_fb4e_b15a_69ca_u64),
        (GovernorSpec::BudgetShift, 28_101, 0x429b_a6ec_6f24_a1b5, 0x4015_2a4b_8b15_aced),
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

#[test]
fn a_table2_hour_trace_is_pinned_bitwise() {
    use power_neutral::sim::campaign::GovernorSpec;
    // FNV-1a 64 over the bits of the time column, then of each of the
    // nine traced quantities in accessor order: any change to a
    // recorded value, or to how a trace stores and reads it, moves one
    // of these.
    let pins = [
        (GovernorSpec::PowerNeutral, 0xc92f_f835_f710_2556_u64),
        (GovernorSpec::BudgetShift, 0xe7d2_6f54_2a53_92f9),
    ];
    let hour = scenario::table2_hour(1);
    for (governor, digest) in pins {
        let report = governor.run(&hour).expect("the Table II hour runs");
        let r = report.recorder();
        let columns = [
            r.vc().times(),
            r.vc().values(),
            r.frequency_ghz().values(),
            r.little_cores().values(),
            r.big_cores().values(),
            r.total_cores().values(),
            r.power_out().values(),
            r.power_in().values(),
            r.v_high().values(),
            r.v_low().values(),
        ];
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        for byte in columns.iter().flat_map(|c| c.iter()).flat_map(|x| x.to_bits().to_le_bytes()) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(hash, digest, "{} trace digest {hash:#018x}", governor.slug());
    }
}

#[test]
fn every_table2_hour_keeps_its_transitions_and_lifetime() {
    use power_neutral::sim::campaign::GovernorSpec::{self, *};
    // (seed, governor, transitions, lifetime in seconds or `None` for a
    // survivor, instructions) of all 56 Table II hours the repo
    // benchmark runs, as computed by the engine that integrated `VC`
    // itself and ended a step at every post-action recheck. The count
    // of every hour sums to 448,907 transitions. Integrator changes
    // must keep every count and verdict; lifetimes may move by 1 µs
    // and instructions by 1e-6 relative.
    #[rustfmt::skip]
    let pins: [(u64, GovernorSpec, u64, Option<f64>, f64); 56] = [
        (1, Performance, 1, Some(0.07592545531952055), 3.3521597763720345e8),
        (1, Ondemand, 1, Some(0.19182869150245097), 4.8047071660209805e8),
        (1, Interactive, 2, Some(0.1709055955070653), 5.1932410508219063e8),
        (1, Conservative, 2, Some(2.175481936945289), 3.207160566432081e9),
        (1, Powersave, 0, None, 2.474496e12),
        (1, PowerNeutral, 49_003, None, 4.740357986177492e12),
        (1, BudgetShift, 28_101, None, 7.600936306981713e12),
        (2, Performance, 1, Some(0.07592545531952055), 3.3521597763720345e8),
        (2, Ondemand, 1, Some(0.19182869150245097), 4.8047071660209805e8),
        (2, Interactive, 2, Some(0.1709055955070653), 5.1932410508219063e8),
        (2, Conservative, 2, Some(2.175481936945289), 3.207160566432081e9),
        (2, Powersave, 0, None, 2.474496000000001e12),
        (2, PowerNeutral, 50_007, None, 4.744980706964305e12),
        (2, BudgetShift, 28_316, None, 7.5907087400741045e12),
        (3, Performance, 1, Some(0.07592545531952055), 3.3521597763720345e8),
        (3, Ondemand, 1, Some(0.19182869150245097), 4.8047071660209805e8),
        (3, Interactive, 2, Some(0.1709055955070653), 5.1932410508219063e8),
        (3, Conservative, 2, Some(2.175481936945289), 3.207160566432081e9),
        (3, Powersave, 0, None, 2.474496e12),
        (3, PowerNeutral, 8_079, None, 4.3185412893771035e12),
        (3, BudgetShift, 28_203, None, 7.617544326191268e12),
        (4, Performance, 1, Some(0.07592545531952055), 3.3521597763720345e8),
        (4, Ondemand, 1, Some(0.19182869150245097), 4.8047071660209805e8),
        (4, Interactive, 2, Some(0.1709055955070653), 5.1932410508219063e8),
        (4, Conservative, 2, Some(2.175481936945289), 3.207160566432081e9),
        (4, Powersave, 0, None, 2.4744959999999995e12),
        (4, PowerNeutral, 23_751, None, 4.471163188438872e12),
        (4, BudgetShift, 28_010, None, 7.608262507400381e12),
        (5, Performance, 1, Some(0.07592545531952055), 3.3521597763720345e8),
        (5, Ondemand, 1, Some(0.19182869150245097), 4.8047071660209805e8),
        (5, Interactive, 2, Some(0.1709055955070653), 5.1932410508219063e8),
        (5, Conservative, 2, Some(2.175481936945289), 3.207160566432081e9),
        (5, Powersave, 0, None, 2.474496e12),
        (5, PowerNeutral, 10, None, 4.2355618169185923e12),
        (5, BudgetShift, 28_274, None, 7.618258148757614e12),
        (6, Performance, 1, Some(0.07592545531952055), 3.3521597763720345e8),
        (6, Ondemand, 1, Some(0.19182869150245097), 4.8047071660209805e8),
        (6, Interactive, 2, Some(0.1709055955070653), 5.1932410508219063e8),
        (6, Conservative, 2, Some(2.175481936945289), 3.207160566432081e9),
        (6, Powersave, 0, None, 2.474496e12),
        (6, PowerNeutral, 40, None, 4.2354222974310767e12),
        (6, BudgetShift, 27_961, None, 7.616563321549861e12),
        (7, Performance, 1, Some(0.07592545531952055), 3.3521597763720345e8),
        (7, Ondemand, 1, Some(0.19182869150245097), 4.8047071660209805e8),
        (7, Interactive, 2, Some(0.1709055955070653), 5.1932410508219063e8),
        (7, Conservative, 2, Some(2.175481936945289), 3.207160566432081e9),
        (7, Powersave, 0, None, 2.4744959999999995e12),
        (7, PowerNeutral, 39_271, None, 4.634784524389214e12),
        (7, BudgetShift, 29_057, None, 7.565989381337756e12),
        (8, Performance, 1, Some(0.07592545531952055), 3.3521597763720345e8),
        (8, Ondemand, 1, Some(0.19182869150245097), 4.8047071660209805e8),
        (8, Interactive, 2, Some(0.1709055955070653), 5.1932410508219063e8),
        (8, Conservative, 2, Some(2.175481936945289), 3.207160566432081e9),
        (8, Powersave, 0, None, 2.474496e12),
        (8, PowerNeutral, 52_300, None, 4.829941280042057e12),
        (8, BudgetShift, 28_476, None, 7.590952175995085e12),
    ];
    assert_eq!(pins.iter().map(|pin| pin.2).sum::<u64>(), 448_907);
    for seed in 1..=8 {
        let hour = scenario::table2_hour(seed);
        for &(_, governor, transitions, lifetime, instructions) in
            pins.iter().filter(|pin| pin.0 == seed)
        {
            let report = governor.run(&hour).expect("the Table II hour runs");
            let label = format!("seed {seed} {}", governor.slug());
            assert_eq!(report.transitions(), transitions, "{label}");
            let got = report.lifetime().map(|l| l.value());
            assert_eq!(got.is_none(), lifetime.is_none(), "{label}: verdict {got:?}");
            if let (Some(got), Some(want)) = (got, lifetime) {
                assert!((got - want).abs() <= 1e-6, "{label}: lifetime {got} vs {want}");
            }
            let drift = (report.work().instructions() / instructions - 1.0).abs();
            assert!(drift <= 1e-6, "{label}: instructions drifted by {drift:e}");
        }
    }
}
