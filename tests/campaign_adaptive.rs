//! Lockdown of the adaptive campaign driver.
//!
//! Three families of guarantees are pinned here:
//!
//! * **Convergence** — for any monotone brown-out predicate over the
//!   buffer grid, the driver halts within `max_rounds` and brackets
//!   the boundary within the configured tolerance (property test, no
//!   simulation involved).
//! * **Determinism** — an adaptive run over real simulations produces
//!   bitwise-identical probe reports and brackets across thread
//!   counts, and repeated synthetic drives emit identical rounds.
//! * **Golden artifacts** — the smoke campaign's adaptive probe
//!   report (wire format) and its summary-only CSV must match the
//!   artifacts checked in under `tests/golden/` byte for byte.
//!   Regenerate deliberately with
//!   `PN_BLESS=1 cargo test --test campaign_adaptive`.

use power_neutral::sim::adaptive::{AdaptiveAxis, AdaptiveCampaign, AdaptiveConfig, BracketStatus};
use power_neutral::sim::campaign::{CampaignCell, CampaignReport, CampaignSpec, CellOutcome};
use power_neutral::sim::executor::Executor;
use power_neutral::sim::persist;
use power_neutral::soc::thermal::{RcThermal, ThermalSpec};
use power_neutral::units::Seconds;
use proptest::prelude::*;

mod common;
use common::assert_matches_golden;

/// The adaptive configuration the golden artifacts and the
/// determinism test pin: coarse enough that every smoke group settles
/// quickly, tight enough that bisection actually runs.
fn golden_config() -> AdaptiveConfig {
    AdaptiveConfig { tolerance_mf: 64.0, max_rounds: 24, ..AdaptiveConfig::default() }
}

/// Runs the 10-second smoke campaign and refines it to settled
/// brackets on the given executor.
fn run_adaptive(executor: &Executor) -> AdaptiveCampaign {
    let spec = CampaignSpec::smoke().with_duration(Seconds::new(10.0));
    let report =
        power_neutral::sim::campaign::run_campaign(&spec, executor).expect("smoke campaign");
    let mut adaptive =
        AdaptiveCampaign::from_report(&report, golden_config()).expect("seed report non-empty");
    adaptive.run(executor).expect("refinement rounds");
    adaptive
}

#[test]
fn golden_adaptive_artifacts_are_stable() {
    let adaptive = run_adaptive(&Executor::sequential());
    assert!(adaptive.settled());
    let probe_report = adaptive.probe_report();
    let wire = persist::report_to_string(&probe_report);
    assert_matches_golden(
        "campaign_adaptive.pnc",
        include_str!("golden/campaign_adaptive.pnc"),
        &wire,
    );
    let summary = persist::report_summary_csv_string(&probe_report).unwrap();
    assert_matches_golden(
        "campaign_adaptive_summary.csv",
        include_str!("golden/campaign_adaptive_summary.csv"),
        &summary,
    );
    // The checked-in wire artifact (with its summary section) must
    // decode back to today's probe report bitwise.
    if std::env::var_os("PN_BLESS").is_none() {
        let decoded =
            persist::report_from_str(include_str!("golden/campaign_adaptive.pnc")).unwrap();
        assert_eq!(decoded, probe_report);
    }
}

#[test]
fn adaptive_runs_are_deterministic_across_thread_counts() {
    let sequential = run_adaptive(&Executor::sequential());
    let threaded = run_adaptive(&Executor::new(3));
    assert_eq!(sequential.probe_report(), threaded.probe_report());
    assert_eq!(sequential.brackets(), threaded.brackets());
    assert_eq!(sequential.rounds(), threaded.rounds());
    // Every settled bracket either converged within tolerance or
    // reported why it could not.
    for b in sequential.brackets() {
        assert!(b.status.is_terminal());
        if b.status == BracketStatus::Converged {
            assert!(b.width_mf().unwrap() <= golden_config().tolerance_mf);
        }
    }
}

/// Fabricates the report `spec` would produce under an arbitrary
/// synthetic survival rule (no simulation involved).
fn synthetic_report_with(
    spec: &CampaignSpec,
    survives: impl Fn(&CampaignCell) -> bool,
) -> CampaignReport {
    let cells = spec
        .cells()
        .iter()
        .map(|&cell| CellOutcome {
            cell,
            survived: survives(&cell),
            lifetime_seconds: 1.0,
            vc_stability: 0.9,
            instructions_billions: 1.0,
            renders_per_minute: 6.0,
            energy_in_joules: 2.0,
            energy_out_joules: 1.0,
            transitions: 1,
            final_vc: 5.0,
            idle_time_seconds: 0.0,
            idle_entries: 0,
            peak_temp_c: 0.0,
            throttle_time_seconds: 0.0,
            boost_time_seconds: 0.0,
            faults_injected: 0,
        })
        .collect();
    CampaignReport::from_parts(0, cells)
}

/// Drives the adaptive loop against an arbitrary synthetic rule (no
/// simulation involved), returning the settled driver.
fn drive_with(
    seed_spec: &CampaignSpec,
    config: AdaptiveConfig,
    survives: impl Fn(&CampaignCell) -> bool + Copy,
) -> AdaptiveCampaign {
    let seed = synthetic_report_with(seed_spec, survives);
    let mut adaptive = AdaptiveCampaign::from_report(&seed, config).expect("valid seed");
    let mut rounds = 0usize;
    while let Some(specs) = adaptive.next_round() {
        rounds += 1;
        assert!(rounds <= config.max_rounds, "driver exceeded its own round cap");
        for spec in specs {
            adaptive.observe(&synthetic_report_with(&spec, survives));
        }
    }
    adaptive
}

/// Drives the buffer-axis rule.
fn drive(
    seed_spec: &CampaignSpec,
    threshold_mf: f64,
    config: AdaptiveConfig,
) -> AdaptiveCampaign {
    drive_with(seed_spec, config, |cell| cell.buffer_mf >= threshold_mf)
}

/// An RC template whose throttle ceiling sits at `throttle_c` with the
/// hysteresis gap and no boost — the shape thermal-axis probe specs
/// themselves use.
fn thermal_at(throttle_c: f64) -> ThermalSpec {
    ThermalSpec::Rc(RcThermal {
        ambient_c: 25.0,
        r_c_per_w: 8.0,
        c_j_per_c: 5.0,
        throttle_c,
        release_c: throttle_c - 5.0,
        cap_level: 2,
        boost: None,
    })
}

#[test]
fn thermal_limit_bisection_converges_from_both_expand_directions() {
    // Survival is monotone *decreasing* in the throttle ceiling: a
    // cell survives iff its ceiling is at most `limit`. Seeding the
    // search from far below the boundary (pure expand-up) and from far
    // above it (pure expand-down) must bracket the same limit, each to
    // within the thermal axis' 1 °C tolerance.
    let limit = 88.0;
    let config = AdaptiveConfig::for_axis(AdaptiveAxis::ThermalLimitC);
    let rule = |cell: &CampaignCell| match cell.thermal {
        ThermalSpec::Rc(rc) => rc.throttle_c <= limit,
        ThermalSpec::Off => false,
    };
    let mut estimates: Vec<Vec<f64>> = Vec::new();
    for seed_ceiling in [40.0, 140.0] {
        let spec = CampaignSpec::smoke()
            .with_duration(Seconds::new(10.0))
            .with_thermals(vec![thermal_at(seed_ceiling)]);
        let adaptive = drive_with(&spec, config, rule);
        assert!(adaptive.settled());
        let brackets = adaptive.brackets();
        assert!(!brackets.is_empty());
        for b in &brackets {
            assert_eq!(b.status, BracketStatus::Converged, "seed {seed_ceiling}: {:?}", b.status);
            // Inverted axis: lo is the largest surviving ceiling, hi
            // the smallest browned-out one.
            let (lo, hi) = (b.lo_mf.unwrap(), b.hi_mf.unwrap());
            assert!(
                lo <= limit && limit < hi,
                "seed {seed_ceiling}: bracket [{lo}, {hi}] misses the {limit} °C limit"
            );
            assert!(hi - lo <= config.tolerance_mf, "seed {seed_ceiling}: width {}", hi - lo);
        }
        estimates.push(brackets.iter().map(|b| b.boundary_estimate_mf().unwrap()).collect());
    }
    for (up, down) in estimates[0].iter().zip(&estimates[1]) {
        assert!(
            (up - down).abs() <= config.tolerance_mf,
            "expand directions disagree: {up} vs {down}"
        );
    }
}

proptest! {
    #[test]
    fn bisection_converges_for_any_monotone_predicate(
        threshold in 2.0f64..5000.0,
        grid_lo in 1.0f64..50.0,
        grid_span in 2.0f64..100.0,
        tolerance in 0.5f64..50.0,
    ) {
        // 64 rounds comfortably covers worst-case expansion from the
        // grid to the boundary plus bisection down to the tolerance.
        let config = AdaptiveConfig {
            tolerance_mf: tolerance,
            max_rounds: 64,
            ..AdaptiveConfig::default()
        };
        let spec = CampaignSpec::new()
            .unwrap()
            .with_buffers_mf(vec![grid_lo, grid_lo * grid_span]);
        let adaptive = drive(&spec, threshold, config);
        prop_assert!(adaptive.settled());
        prop_assert!(adaptive.rounds() <= config.max_rounds);
        let brackets = adaptive.brackets();
        prop_assert_eq!(brackets.len(), 1);
        let b = &brackets[0];
        match b.status {
            BracketStatus::Converged => {
                let (lo, hi) = (b.lo_mf.unwrap(), b.hi_mf.unwrap());
                prop_assert!(
                    hi - lo <= tolerance,
                    "bracket [{}, {}] wider than tolerance {}", lo, hi, tolerance
                );
                prop_assert!(
                    lo < threshold && threshold <= hi,
                    "bracket [{}, {}] misses boundary {}", lo, hi, threshold
                );
            }
            // The boundary can legitimately sit below the expansion
            // floor (threshold ≤ floor never browns out in range).
            BracketStatus::BelowFloor => {
                prop_assert!(threshold <= config.floor_mf * 2.0,
                    "boundary {} reported below floor {}", threshold, config.floor_mf);
            }
            other => prop_assert!(false, "unexpected status {:?}", other),
        }

        // Rounds are a pure function of the observations: driving the
        // same predicate again reproduces the brackets exactly.
        let again = drive(&spec, threshold, config);
        prop_assert_eq!(again.brackets(), adaptive.brackets());
        prop_assert_eq!(again.rounds(), adaptive.rounds());
    }
}
