//! Table II live: every governor against the same PV hour.
//!
//! ```sh
//! cargo run --release --example governor_shootout -- [minutes] [seed]
//! ```

use power_neutral::sim::experiments::table2;
use power_neutral::units::Seconds;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let minutes: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(10.0);
    let seed: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(3);

    println!("governor shoot-out over {minutes:.0} simulated minutes (seed {seed})…\n");
    let t = table2::run(seed, Seconds::from_minutes(minutes))?;

    println!(
        "  {:<14} {:>16} {:>12} {:>18}",
        "scheme", "renders/min", "lifetime", "instructions (B)"
    );
    println!("  {}", "-".repeat(64));
    for row in &t.rows {
        println!(
            "  {:<14} {:>16.4} {:>12} {:>18.1}",
            row.scheme, row.renders_per_minute, row.lifetime, row.instructions_billions
        );
    }
    if let Some(ratio) = t.proposed_over_powersave() {
        println!(
            "\n  proposed vs powersave: ×{ratio:.2} instructions (paper: ×1.69 over one hour)"
        );
    }
    Ok(())
}
