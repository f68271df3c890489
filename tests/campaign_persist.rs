//! Golden-artifact lockdown of the campaign persistence layer.
//!
//! Three families of guarantees are pinned here:
//!
//! * **Golden files** — the 2×2 smoke campaign's CSV and wire-format
//!   documents must match the artifacts checked in under
//!   `tests/golden/` byte for byte, in both debug and release
//!   profiles. Regenerate deliberately with
//!   `PN_BLESS=1 cargo test --test campaign_persist`.
//! * **Shard/merge** — splitting the matrix into any number of shards
//!   and merging their reports (including through a serialize/decode
//!   cycle) reproduces the unsharded [`CampaignReport`] bitwise;
//!   property tests cover partitioning and merge order-insensitivity.
//! * **Day memo** — every cell of one (weather, seed) day shares a
//!   single trace from the process-wide day memo, and memo-served
//!   campaigns replay bitwise-identically to runs on freshly rendered
//!   days.

use power_neutral::circuit::capacitor::Supercapacitor;
use power_neutral::core::params::ControlParams;
use power_neutral::harvest::faults::FaultSpec;
use power_neutral::soc::thermal::{RcThermal, ThermalSpec};
use power_neutral::workload::arrival::ArrivalSpec;
use power_neutral::sim::engine::SimOverrides;
use power_neutral::sim::scenario::{self, Scenario};
use power_neutral::sim::supply::{Supply, SupplyModel};
use power_neutral::harvest::weather::Weather;
use power_neutral::sim::campaign::{
    resume_campaign, run_campaign, CampaignCell, CampaignReport, CampaignSpec, CellOutcome,
    GovernorSpec,
};
use power_neutral::sim::SimError;
use power_neutral::sim::executor::Executor;
use power_neutral::sim::persist;
use power_neutral::units::Seconds;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// The smoke campaign, simulated once and shared across tests.
fn smoke_report() -> &'static CampaignReport {
    static REPORT: OnceLock<CampaignReport> = OnceLock::new();
    REPORT.get_or_init(|| run_campaign(&CampaignSpec::smoke(), &Executor::new(2)).unwrap())
}

/// A fast variant of the smoke matrix for the multi-run shard tests.
fn quick_spec() -> CampaignSpec {
    CampaignSpec::smoke().with_duration(Seconds::new(10.0))
}

mod common;
use common::assert_matches_golden;

#[test]
fn golden_csv_artifact_is_stable() {
    let csv = persist::report_csv_string(smoke_report()).unwrap();
    assert_matches_golden("campaign_smoke.csv", include_str!("golden/campaign_smoke.csv"), &csv);
}

#[test]
fn golden_wire_artifact_is_stable_and_decodes() {
    let wire = persist::report_to_string(smoke_report());
    assert_matches_golden("campaign_smoke.pnc", include_str!("golden/campaign_smoke.pnc"), &wire);
    // The checked-in artifact must decode back to today's report
    // bitwise — serialization never loses precision.
    if std::env::var_os("PN_BLESS").is_none() {
        let decoded = persist::report_from_str(include_str!("golden/campaign_smoke.pnc")).unwrap();
        assert_eq!(&decoded, smoke_report());
    }
}

#[test]
fn golden_dpm_comparison_csv_is_stable() {
    // Table II-style shoot-out of the two DPM policies against the
    // power-neutral controller and the surviving Linux baseline, over
    // a bright and a dark hour. Pins the idle_time_s/idle_entries CSV
    // columns end to end: race-to-idle must actually park somewhere in
    // this matrix, so the golden demonstrably exercises the idle axis.
    let spec = CampaignSpec::new()
        .unwrap()
        .with_weathers(vec![Weather::FullSun, Weather::Cloudy])
        .with_governors(vec![
            GovernorSpec::PowerNeutral,
            GovernorSpec::Powersave,
            GovernorSpec::RaceToIdle,
            GovernorSpec::BudgetShift,
        ])
        .with_duration(Seconds::new(15.0));
    let report = run_campaign(&spec, &Executor::new(2)).unwrap();
    assert!(
        report.cells().iter().any(|c| c.idle_time_seconds > 0.0 && c.idle_entries > 0),
        "no cell ever parked — the DPM golden would not cover the idle axis"
    );
    let csv = persist::report_csv_string(&report).unwrap();
    assert_matches_golden("campaign_dpm.csv", include_str!("golden/campaign_dpm.csv"), &csv);
}

/// The adversarial stress matrix the throttle-then-recover golden
/// pins: a fast-tripping RC die (τ = 4 s, trip 1 °C above ambient, so
/// the ceiling engages and releases within the window), the bursty
/// arrival preset (whose gaps cool the die back below the release
/// point) and a dense brown-out storm on the harvester.
fn stress_spec() -> CampaignSpec {
    CampaignSpec::smoke()
        .with_thermals(vec![ThermalSpec::Rc(RcThermal {
            ambient_c: 25.0,
            r_c_per_w: 8.0,
            c_j_per_c: 0.5,
            throttle_c: 26.0,
            release_c: 25.5,
            cap_level: 1,
            boost: None,
        })])
        .with_arrivals(vec![ArrivalSpec::bursty_stress()])
        .with_faults(vec![FaultSpec::Brownout { rate_hz: 0.2, len_s: 2.0, depth: 0.9 }])
        .with_duration(Seconds::new(15.0))
}

#[test]
fn golden_stress_artifacts_pin_throttle_then_recover() {
    let report = run_campaign(&stress_spec(), &Executor::new(2)).unwrap();
    // The golden must demonstrably exercise all three axes: some cell
    // throttles AND spends part of its lifetime back below the
    // ceiling (throttle-then-recover), and the storm actually lands.
    assert!(
        report
            .cells()
            .iter()
            .any(|c| c.throttle_time_seconds > 0.0 && c.throttle_time_seconds < c.lifetime_seconds),
        "no cell both throttled and recovered — the golden would not cover the thermal axis"
    );
    assert!(
        report.cells().iter().any(|c| c.faults_injected > 0),
        "no fault event ever landed — the golden would not cover the fault axis"
    );
    let csv = persist::report_csv_string(&report).unwrap();
    assert_matches_golden("campaign_stress.csv", include_str!("golden/campaign_stress.csv"), &csv);
    let wire = persist::report_to_string(&report);
    assert_matches_golden("campaign_stress.pnc", include_str!("golden/campaign_stress.pnc"), &wire);
    if std::env::var_os("PN_BLESS").is_none() {
        let decoded =
            persist::report_from_str(include_str!("golden/campaign_stress.pnc")).unwrap();
        assert_eq!(decoded, report, "persisted thermal state does not round-trip bitwise");
    }
}

#[test]
fn stress_spec_documents_re_emit_byte_identically() {
    // Spec determinism: parse → emit must reproduce the document
    // byte for byte, so shard coordinators can fingerprint specs by
    // their serialized form.
    let wire = persist::spec_to_string(&stress_spec());
    let parsed = persist::spec_from_str(&wire).unwrap();
    assert_eq!(parsed, stress_spec());
    assert_eq!(persist::spec_to_string(&parsed), wire);
}

#[test]
fn shard_and_merge_reproduce_the_unsharded_report_bitwise() {
    let spec = quick_spec();
    let executor = Executor::sequential();
    let full = run_campaign(&spec, &executor).unwrap();
    let full_csv = persist::report_csv_string(&full).unwrap();
    // Shard counts from trivial through one-cell-per-shard to more
    // shards than cells (trailing empties).
    for count in 1..=4 {
        let parts: Vec<CampaignReport> =
            spec.shard(count).iter().map(|s| s.run(&executor).unwrap()).collect();
        let merged = CampaignReport::merge(parts).unwrap();
        assert_eq!(merged, full, "shard({count})+merge diverged from the unsharded run");
        assert_eq!(persist::report_csv_string(&merged).unwrap(), full_csv);
    }
    let count = spec.cell_count() + 3;
    let mut parts: Vec<CampaignReport> =
        spec.shard(count).iter().map(|s| s.run(&executor).unwrap()).collect();
    assert_eq!(CampaignReport::merge(parts.clone()).unwrap(), full);
    // Regression: with more shards than cells, empty shards share
    // their start offset with non-empty ones; merge must stay
    // order-insensitive even then (a stable sort on start alone would
    // spuriously report a gap when the non-empty twin arrives first).
    parts.reverse();
    assert_eq!(CampaignReport::merge(parts).unwrap(), full);
}

#[test]
fn shard_reports_survive_a_persistence_round_trip_before_merging() {
    // The distributed workflow: each machine runs one shard, writes
    // the wire document, and a coordinator decodes + merges.
    let spec = quick_spec();
    let executor = Executor::sequential();
    let full = run_campaign(&spec, &executor).unwrap();
    let decoded: Vec<CampaignReport> = spec
        .shard(3)
        .iter()
        .map(|s| {
            let wire = persist::report_to_string(&s.run(&executor).unwrap());
            persist::report_from_str(&wire).unwrap()
        })
        .collect();
    assert_eq!(CampaignReport::merge(decoded).unwrap(), full);
}

#[test]
fn resuming_a_persisted_partial_report_matches_the_uninterrupted_run() {
    // The interrupted workflow end to end: a shard runs, its partial
    // report is persisted, the process dies; a later invocation
    // decodes the file and resumes — the merged report and its CSV
    // must be byte-identical to a one-shot run.
    let spec = quick_spec();
    let executor = Executor::sequential();
    let full = run_campaign(&spec, &executor).unwrap();
    let full_csv = persist::report_csv_string(&full).unwrap();
    for (i, shard) in spec.shard(3).iter().enumerate() {
        let wire = persist::report_to_string(&shard.run(&executor).unwrap());
        let saved = persist::report_from_str(&wire).unwrap();
        let resumed = resume_campaign(&spec, &saved, &executor).unwrap();
        assert_eq!(resumed, full, "resume from persisted shard {i} diverged");
        assert_eq!(persist::report_csv_string(&resumed).unwrap(), full_csv);
    }
}

#[test]
fn resume_rejects_duplicate_cells_by_label() {
    // A saved report that claims cells the resume run would simulate
    // again must be rejected with the offending cell's label — the
    // merge names the duplicate, not just an index.
    let spec = quick_spec();
    let executor = Executor::sequential();
    let full = run_campaign(&spec, &executor).unwrap();
    let prefix = CampaignReport::from_parts(0, full.cells()[..2].to_vec());
    let overlapping = CampaignReport::from_parts(1, full.cells()[1..3].to_vec());
    let err = CampaignReport::merge([prefix, overlapping]).unwrap_err();
    assert!(matches!(err, SimError::Campaign(_)), "{err}");
    let msg = err.to_string();
    let label = full.cells()[1].cell.label();
    assert!(msg.contains("duplicate cell"), "{msg}");
    assert!(msg.contains(&label), "message {msg:?} does not name cell {label:?}");
}

#[test]
fn interpolated_campaigns_round_trip_and_stay_self_describing() {
    // The wire contract end to end: per-cell options survive the
    // file round trip bitwise, the CSV names the model per row, and a
    // saved interpolated report cannot silently resume an exact spec.
    let spec = quick_spec().with_supply_model(SupplyModel::interpolated());
    let executor = Executor::sequential();
    let report = run_campaign(&spec, &executor).unwrap();
    let decoded = persist::report_from_str(&persist::report_to_string(&report)).unwrap();
    assert_eq!(decoded, report);
    assert!(decoded
        .cells()
        .iter()
        .all(|c| c.cell.supply_model() == SupplyModel::interpolated()));
    let csv = persist::report_csv_string(&report).unwrap();
    for line in csv.lines().skip(1) {
        assert!(line.contains(",interp:0.001,"), "row lost its model slug: {line}");
    }
    let err = resume_campaign(&quick_spec(), &report, &executor).unwrap_err();
    assert!(matches!(err, SimError::Campaign(_)), "{err}");
    assert!(err.to_string().contains("does not match"), "{err}");
}

/// The scenario of a plain 47 mF cell (no stress axes, no option
/// overrides) built around a freshly rendered day instead of the day
/// memo's shared copy.
fn fresh_scenario(cell: &CampaignCell) -> Scenario {
    assert_eq!(cell.buffer_mf, 47.0, "fresh_scenario rebuilds the paper buffer only");
    assert!(cell.options.is_none() && cell.fault == FaultSpec::None);
    assert!(cell.thermal == ThermalSpec::Off && cell.arrival == ArrivalSpec::Saturated);
    scenario::weather_day_with_trace(scenario::weather_day_trace(cell.weather, cell.seed))
        .with_duration(cell.duration)
        .with_buffer(Supercapacitor::paper_buffer())
        .with_params(cell.params)
}

#[test]
fn cached_and_uncached_campaigns_replay_bitwise_identically() {
    // A campaign's days come from the day memo; rerunning every cell on
    // a freshly rendered day must reproduce its outcome bitwise.
    let spec = quick_spec();
    let report = run_campaign(&spec, &Executor::new(2)).unwrap();
    for outcome in report.cells() {
        let fresh = outcome.cell.governor.run(&fresh_scenario(&outcome.cell)).unwrap();
        let label = outcome.cell.label();
        assert_eq!(outcome.survived, fresh.survived(), "{label}");
        assert_eq!(outcome.lifetime_seconds, fresh.lifetime_or_duration().value(), "{label}");
        assert_eq!(outcome.instructions_billions, fresh.work().instructions_billions(), "{label}");
        assert_eq!(outcome.transitions, fresh.transitions(), "{label}");
        assert_eq!(outcome.final_vc, fresh.final_vc().value(), "{label}");
    }
}

#[test]
fn cached_cells_record_bitwise_identical_traces() {
    // Recorder-level clause: CellOutcome equality above could in
    // principle hide compensating trace differences, so compare the
    // full reports, recorded traces included, of a memo-served and a
    // freshly rendered run.
    let cell = CampaignCell {
        weather: Weather::PartialSun,
        seed: 11,
        thermal: ThermalSpec::Off,
        arrival: ArrivalSpec::Saturated,
        fault: FaultSpec::None,
        buffer_mf: 47.0,
        governor: GovernorSpec::PowerNeutral,
        params: ControlParams::paper_optimal().unwrap(),
        duration: Seconds::new(10.0),
        options: SimOverrides::none(),
    };
    let cached = cell.governor.run(&cell.scenario().unwrap()).unwrap();
    let fresh = cell.governor.run(&fresh_scenario(&cell)).unwrap();
    assert_eq!(cached, fresh);
    assert_eq!(cached.recorder().vc().times(), fresh.recorder().vc().times());
    assert_eq!(cached.recorder().vc().values(), fresh.recorder().vc().values());
}

#[test]
fn cache_serves_hits_for_repeated_weather_seed_pairs() {
    // The matrix is 2 weathers × 2 seeds × 2 governors × 2 buffers:
    // every cell of one (weather, seed) day must alias the same
    // memo-served trace, and distinct days must not.
    let spec = quick_spec().with_seeds(vec![1, 2]).with_buffers_mf(vec![47.0, 150.0]);
    let trace = |cell: &CampaignCell| match cell.scenario().unwrap().supply() {
        Supply::Photovoltaic { irradiance, .. } => Arc::clone(irradiance),
        Supply::Controlled { .. } => panic!("campaign cells run on PV"),
    };
    let cells = spec.cells();
    let traces: Vec<_> = cells.iter().map(trace).collect();
    for (i, a) in cells.iter().enumerate() {
        for (j, b) in cells.iter().enumerate() {
            let same_day = (a.weather, a.seed) == (b.weather, b.seed);
            assert_eq!(
                Arc::ptr_eq(&traces[i], &traces[j]),
                same_day,
                "{} vs {}",
                a.label(),
                b.label()
            );
        }
    }
}

/// Fabricates a cheap, distinctive outcome for merge property tests
/// (no simulation involved).
fn fake_outcome(cell: CampaignCell, salt: f64) -> CellOutcome {
    CellOutcome {
        cell,
        survived: salt < 0.5,
        lifetime_seconds: cell.duration.value() * salt,
        vc_stability: salt,
        instructions_billions: 10.0 * salt,
        renders_per_minute: 60.0 * salt,
        energy_in_joules: 2.0 + salt,
        energy_out_joules: 1.0 + salt,
        transitions: (salt * 100.0) as u64,
        final_vc: 5.0 + salt,
        idle_time_seconds: salt * 0.5,
        idle_entries: (salt * 7.0) as u64,
        peak_temp_c: 25.0 + salt * 50.0,
        throttle_time_seconds: salt * 2.0,
        boost_time_seconds: salt * 0.25,
        faults_injected: (salt * 3.0) as u64,
    }
}

/// A property-test spec big enough (24 cells) that shard boundaries
/// land in interesting places.
fn prop_spec() -> CampaignSpec {
    CampaignSpec::smoke().with_seeds(vec![1, 2, 3]).with_buffers_mf(vec![47.0, 150.0])
}

proptest! {
    #[test]
    fn every_cell_lands_in_exactly_one_shard(count in 1usize..=40) {
        let spec = prop_spec();
        let shards = spec.shard(count);
        prop_assert_eq!(shards.len(), count);
        let mut recomposed = Vec::new();
        for shard in &shards {
            prop_assert_eq!(shard.start(), recomposed.len());
            recomposed.extend_from_slice(shard.cells());
        }
        prop_assert_eq!(recomposed, spec.cells());
    }

    #[test]
    fn merge_is_order_insensitive_and_associative(
        count in 1usize..=10,
        keys in proptest::collection::vec(0u64..u64::MAX, 10..11),
        split in 1usize..=9,
    ) {
        let spec = prop_spec();
        let parts: Vec<CampaignReport> = spec
            .shard(count)
            .iter()
            .map(|s| CampaignReport::from_parts(
                s.start(),
                s.cells()
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| fake_outcome(c, ((s.start() + i) as f64) / 24.0))
                    .collect(),
            ))
            .collect();
        let reference = CampaignReport::merge(parts.clone()).unwrap();
        prop_assert_eq!(reference.len(), spec.cell_count());

        // Order-insensitivity: merge under a sampled permutation.
        let mut permuted: Vec<(u64, CampaignReport)> =
            keys.iter().copied().zip(parts.iter().cloned()).collect();
        permuted.sort_by_key(|(k, _)| *k);
        let shuffled: Vec<CampaignReport> = permuted.into_iter().map(|(_, p)| p).collect();
        prop_assert_eq!(CampaignReport::merge(shuffled).unwrap(), reference.clone());

        // Associativity: merging adjacent sub-merges equals merging
        // all parts at once.
        if count > 1 {
            let at = 1 + split % (count - 1).max(1);
            let left = CampaignReport::merge(parts[..at].to_vec()).unwrap();
            let right = CampaignReport::merge(parts[at..].to_vec()).unwrap();
            prop_assert_eq!(CampaignReport::merge([left, right]).unwrap(), reference);
        }
    }

    #[test]
    fn resume_reproduces_the_full_report_from_any_saved_slice(
        start in 0usize..=8,
        len in 0usize..=8,
    ) {
        // One shared full run across all sampled cases.
        static FULL: OnceLock<(CampaignSpec, CampaignReport)> = OnceLock::new();
        let (spec, full) = FULL.get_or_init(|| {
            let spec = quick_spec().with_seeds(vec![1, 2]); // 8 cells
            let full = run_campaign(&spec, &Executor::sequential()).unwrap();
            (spec, full)
        });
        let start = start.min(full.len());
        let len = len.min(full.len() - start);
        let saved = CampaignReport::from_parts(start, full.cells()[start..start + len].to_vec());
        let resumed = resume_campaign(spec, &saved, &Executor::sequential()).unwrap();
        prop_assert_eq!(&resumed, full, "resume from slice {}..{} diverged", start, start + len);
    }

    #[test]
    fn merge_rejects_incomplete_recompositions(count in 2usize..=6, drop in 0usize..6) {
        let spec = prop_spec();
        let mut parts: Vec<CampaignReport> = spec
            .shard(count)
            .iter()
            .map(|s| CampaignReport::from_parts(
                s.start(),
                s.cells().iter().map(|&c| fake_outcome(c, 0.25)).collect(),
            ))
            .collect();
        // Dropping an interior shard must be detected as a gap.
        // Dropping the first or last shard legally yields a partial
        // (offset or prefix) report — the distributed workflow merges
        // whatever contiguous run it has so far.
        let victim = drop % count;
        let removed = parts.remove(victim);
        let merged = CampaignReport::merge(parts.clone());
        if victim == 0 || victim == count - 1 {
            let merged = merged.unwrap();
            let expected_start = if victim == 0 { removed.len() } else { 0 };
            prop_assert_eq!(merged.start(), expected_start);
            prop_assert_eq!(merged.len(), spec.cell_count() - removed.len());
        } else {
            prop_assert!(merged.is_err(), "gap after shard {} went undetected", victim);
        }
    }
}
