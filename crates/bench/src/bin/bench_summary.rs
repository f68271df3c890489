//! Bench smoke: times the engine under the exact and interpolated
//! supply models and writes a machine-readable JSON summary, so CI can
//! track the perf trajectory across PRs without parsing criterion
//! output.
//!
//! ```sh
//! cargo run --release -p pn-bench --bin bench_summary -- \
//!     --out BENCH_engine.json [--runs 9] [--sim-seconds 10]
//! ```
//!
//! The headline metric is the median wall-clock nanoseconds the engine
//! spends per *simulated* second of the constant-sun power-neutral
//! scenario — the same workload as the `sim_engine` criterion bench —
//! reported for both supply models plus their ratio. Surfaces and the
//! irradiance trace are warmed before timing, so the numbers measure
//! the steady-state hot path, not one-time setup.

use pn_sim::scenario;
use pn_sim::supply::SupplyModel;
use pn_units::{Seconds, WattsPerSquareMeter};
use std::time::Instant;

struct Cli {
    out: Option<String>,
    runs: usize,
    sim_seconds: f64,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli { out: None, runs: 9, sim_seconds: 10.0 };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value =
            |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--out" => cli.out = Some(value("--out")?),
            "--runs" => {
                cli.runs = value("--runs")?.parse().map_err(|e| format!("--runs: {e}"))?;
                if cli.runs == 0 {
                    return Err("--runs wants at least 1".into());
                }
            }
            "--sim-seconds" => {
                cli.sim_seconds = value("--sim-seconds")?
                    .parse()
                    .map_err(|e| format!("--sim-seconds: {e}"))?;
                if !(cli.sim_seconds > 0.0) {
                    return Err("--sim-seconds wants a positive window".into());
                }
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(cli)
}

/// One timed engine run; returns wall nanoseconds.
fn run_once(model: SupplyModel, sim_seconds: f64) -> Result<f64, pn_sim::SimError> {
    let scenario = scenario::constant_sun(
        WattsPerSquareMeter::new(560.0),
        Seconds::new(sim_seconds),
    )
    .with_supply_model(model);
    let t0 = Instant::now();
    let report = scenario.run_power_neutral()?;
    let ns = t0.elapsed().as_nanos() as f64;
    assert!(report.survived(), "bench scenario must not brown out");
    Ok(ns)
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

fn measure(model: SupplyModel, cli: &Cli) -> Result<f64, pn_sim::SimError> {
    // Warm-up: builds the interpolation surface (shared cache) and
    // faults in everything else one-time.
    run_once(model, cli.sim_seconds)?;
    let mut samples = Vec::with_capacity(cli.runs);
    for _ in 0..cli.runs {
        samples.push(run_once(model, cli.sim_seconds)?);
    }
    Ok(median(&mut samples) / cli.sim_seconds)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cli = parse_cli()?;
    let interp = SupplyModel::interpolated();
    let exact_ns = measure(SupplyModel::Exact, &cli)?;
    let interp_ns = measure(interp, &cli)?;
    let speedup = exact_ns / interp_ns;
    let tol = match interp {
        SupplyModel::Interpolated { tol } => tol,
        SupplyModel::Exact => unreachable!("interp model selected above"),
    };
    let json = format!(
        "{{\n  \"bench\": \"sim_engine\",\n  \"scenario\": \"power_neutral_constant_sun\",\n  \
         \"simulated_seconds\": {},\n  \"runs\": {},\n  \
         \"exact_median_ns_per_sim_s\": {:.0},\n  \
         \"interpolated_median_ns_per_sim_s\": {:.0},\n  \
         \"interpolated_tol_amps\": {},\n  \"speedup\": {:.3}\n}}\n",
        cli.sim_seconds, cli.runs, exact_ns, interp_ns, tol, speedup
    );
    print!("{json}");
    if let Some(path) = &cli.out {
        std::fs::write(path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}
