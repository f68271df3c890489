//! A PV-powered day in any weather: runs the paper's 10:30–16:30 test
//! window and charts `VC`, consumed power and core count.
//!
//! ```sh
//! cargo run --release --example solar_day -- [full-sun|partial-sun|cloud|hail] [seed]
//! ```

use power_neutral::analysis::ascii::{chart, ChartOptions};
use power_neutral::harvest::weather::Weather;
use power_neutral::sim::scenario;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let weather = match args.get(1).map(String::as_str) {
        Some("partial-sun") => Weather::PartialSun,
        Some("cloud") => Weather::Cloudy,
        Some("hail") => Weather::Hail,
        _ => Weather::FullSun,
    };
    let seed: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(7);

    println!("simulating the 10:30–16:30 window under {weather} (seed {seed})…");
    let report = scenario::weather_day(weather, seed).run_power_neutral()?;

    println!(
        "{}",
        chart(
            &[report.recorder().vc()],
            &ChartOptions::new("VC over the day (V)").with_labels("V", "s since midnight")
        )
    );
    println!(
        "{}",
        chart(
            &[report.recorder().power_out(), report.recorder().power_in()],
            &ChartOptions::new("consumed (*) vs harvested (+) power (W)")
                .with_labels("W", "s since midnight")
        )
    );
    println!(
        "{}",
        chart(
            &[report.recorder().total_cores()],
            &ChartOptions::new("online cores").with_labels("cores", "s since midnight")
        )
    );

    println!("  survived:        {}", report.survived());
    println!(
        "  ±5 % residency:  {:.1} % (paper, full sun: 93.3 %)",
        report.vc_stability() * 100.0
    );
    println!("  instructions:    {:.1} B", report.work().instructions_billions());
    println!("  transitions:     {}", report.transitions());
    Ok(())
}
