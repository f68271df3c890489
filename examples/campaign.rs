//! Batch campaign quickstart: sweep the governor across every weather
//! condition in parallel, compare survival and work done, then show
//! the persistence layer — sharded runs merged bitwise, shard-aware
//! resume of an interrupted run, the CSV exports, and the adaptive
//! driver bisecting each group's brown-out capacitance boundary.
//!
//! ```sh
//! cargo run --release --example campaign
//! ```

use power_neutral::harvest::weather::Weather;
use power_neutral::sim::adaptive::{AdaptiveCampaign, AdaptiveConfig};
use power_neutral::sim::campaign::{
    resume_campaign, run_campaign, CampaignReport, CampaignSpec, GovernorSpec,
};
use power_neutral::sim::executor::Executor;
use power_neutral::sim::persist;
use power_neutral::sim::supply::SupplyModel;
use power_neutral::units::Seconds;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = CampaignSpec::new()?
        .with_weathers(Weather::all().to_vec())
        .with_governors(vec![GovernorSpec::PowerNeutral, GovernorSpec::Powersave])
        .with_duration(Seconds::new(30.0));

    let executor = Executor::default();
    println!(
        "running {} scenario cells on {} threads…",
        spec.cell_count(),
        executor.threads()
    );
    let report = run_campaign(&spec, &executor)?;

    println!("\n  {:<32} {:<6} {:>9} {:>10}", "cell", "alive", "VC ±5%", "instr (G)");
    println!("  {}", "-".repeat(60));
    for c in report.cells() {
        println!(
            "  {:<32} {:<6} {:>9.3} {:>10.2}",
            c.cell.label(),
            if c.survived { "yes" } else { "NO" },
            c.vc_stability,
            c.instructions_billions
        );
    }
    println!(
        "\n  survival rate {:.0} % ({} brownouts in {} cells)",
        report.survival_rate() * 100.0,
        report.brownout_count(),
        report.len()
    );
    for g in report.by_governor() {
        println!(
            "  {:<14} mean VC stability {:.3}, total {:.2} G instructions",
            g.label,
            g.vc_stability.mean().unwrap_or(0.0),
            g.instructions_billions.sum()
        );
    }

    // The supply fast path: the same matrix on the interpolated
    // model (a pretabulated PV surface instead of a Newton solve per
    // derivative evaluation). Verdicts must agree with the exact run;
    // the CSV names the model per row so mixed exports stay
    // self-describing.
    let fast_spec = spec.clone().with_supply_model(SupplyModel::interpolated());
    let fast = run_campaign(&fast_spec, &executor)?;
    assert!(
        report
            .cells()
            .iter()
            .zip(fast.cells())
            .all(|(exact, interp)| exact.survived == interp.survived),
        "interpolation must not flip smoke-matrix verdicts"
    );
    println!(
        "\n  interpolated fast path agrees on all {} verdicts (rows tagged {})",
        fast.len(),
        fast.cells()[0].cell.supply_model().slug()
    );

    // The persistence layer: the same matrix run as three shards (as
    // three machines would), each partial report serialized and
    // decoded, merges back to the exact report computed above.
    let parts: Result<Vec<CampaignReport>, _> = spec
        .shard(3)
        .iter()
        .map(|shard| {
            let partial = shard.run(&executor)?;
            persist::report_from_str(&persist::report_to_string(&partial))
        })
        .collect();
    let merged = CampaignReport::merge(parts?)?;
    assert_eq!(merged, report, "shard + persist + merge must be bitwise-lossless");
    let csv = persist::report_csv_string(&merged)?;
    println!(
        "\n  3 shards persisted and merged bitwise; CSV export: {} rows, first:\n  {}",
        merged.len(),
        csv.lines().nth(1).unwrap_or("<empty>")
    );

    // Shard-aware resume: pretend the run died after the first shard.
    // Resuming from its saved partial report simulates only the
    // missing cells and recomposes the full report bitwise.
    let saved = persist::report_from_str(&persist::report_to_string(
        &spec.shard(3)[0].run(&executor)?,
    ))?;
    let resumed = resume_campaign(&spec, &saved, &executor)?;
    assert_eq!(resumed, report, "resume must reproduce the uninterrupted run bitwise");
    println!(
        "  resumed the remaining {} cells from a {}-cell saved report — bitwise identical",
        report.len() - saved.len(),
        saved.len()
    );

    // Adaptive refinement: bisect each (weather, governor) group's
    // buffer capacitance to its brown-out boundary, steering every
    // round from the previous report.
    let config = AdaptiveConfig { tolerance_mf: 64.0, max_rounds: 24, ..Default::default() };
    let mut adaptive = AdaptiveCampaign::from_report(&report, config)?;
    let brackets = adaptive.run(&executor)?;
    println!(
        "\n  adaptive boundary search: {} rounds, {} probe cells",
        adaptive.rounds(),
        adaptive.history().len() - report.len()
    );
    for b in &brackets {
        let bracket = match (b.lo_mf, b.hi_mf) {
            (Some(lo), Some(hi)) => format!("({lo:.1}, {hi:.1}] mF"),
            (Some(lo), None) => format!("> {lo:.1} mF"),
            (None, Some(hi)) => format!("≤ {hi:.1} mF"),
            (None, None) => "unknown".into(),
        };
        println!(
            "  {:<26} boundary {:<22} [{}]",
            format!("{}/{}", b.weather, b.governor.label()),
            bracket,
            b.status
        );
    }
    // The probe history is an ordinary report: summary CSV export
    // covers the whole boundary search.
    let summary = persist::report_summary_csv_string(&adaptive.probe_report())?;
    println!("\n  summary CSV: {} group rows", summary.lines().count() - 1);
    Ok(())
}
