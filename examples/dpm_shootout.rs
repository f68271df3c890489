//! The DPM axis live: race-to-idle and budget-shift against the
//! power-neutral controller, across a bright, a mixed and a dark hour.
//!
//! Race-to-idle survives the dark hour by parking in the deepest idle
//! state (watch `idle_t`/`idle_n`); budget-shift converts surplus sun
//! into the highest throughput of the three by shifting watts into the
//! big cluster.
//!
//! ```sh
//! cargo run --release --example dpm_shootout -- [buffer-mF] [seconds]
//! ```

use power_neutral::core::params::ControlParams;
use power_neutral::harvest::faults::FaultSpec;
use power_neutral::harvest::weather::Weather;
use power_neutral::sim::campaign::{CampaignCell, GovernorSpec};
use power_neutral::sim::supply::SupplyModel;
use power_neutral::soc::thermal::ThermalSpec;
use power_neutral::units::Seconds;
use power_neutral::workload::arrival::ArrivalSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let buffer_mf: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(150.0);
    let seconds: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(60.0);

    println!("DPM shoot-out: {buffer_mf:.0} mF buffer, {seconds:.0} s per cell\n");
    println!(
        "  {:<14} {:<12} {:>6} {:>9} {:>9} {:>7} {:>10} {:>6}",
        "governor", "weather", "alive", "life (s)", "idle (s)", "parks", "instr (G)", "trans"
    );
    for gov in [GovernorSpec::PowerNeutral, GovernorSpec::RaceToIdle, GovernorSpec::BudgetShift] {
        for weather in [Weather::FullSun, Weather::PartialSun, Weather::Cloudy] {
            let cell = CampaignCell {
                weather,
                seed: 1,
                thermal: ThermalSpec::Off,
                arrival: ArrivalSpec::Saturated,
                fault: FaultSpec::None,
                buffer_mf,
                governor: gov,
                params: ControlParams::paper_optimal()?,
                duration: Seconds::new(seconds),
                supply_model: SupplyModel::Exact,
                idle: true,
            };
            let out = cell.evaluate()?;
            println!(
                "  {:<14} {:<12} {:>6} {:>9.1} {:>9.3} {:>7} {:>10.3} {:>6}",
                cell.governor.label(),
                format!("{weather}"),
                if out.survived { "yes" } else { "NO" },
                out.lifetime_seconds,
                out.idle_time_seconds,
                out.idle_entries,
                out.instructions_billions,
                out.transitions
            );
        }
    }
    Ok(())
}
