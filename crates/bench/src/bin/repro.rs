//! Regenerates the paper's evaluation: Figs. 1, 3, 4, 6, 7 and 10–15,
//! Tables I and II and the §III parameter sweep, each over its paper
//! window, as an ASCII chart or table plus paper-vs-measured lines.
//!
//! ```sh
//! cargo run --release -p pn-bench --bin repro                  # every artefact
//! cargo run --release -p pn-bench --bin repro -- fig12 table2  # only these
//! ```
//!
//! Artefacts are named after their `pn_sim::experiments` modules and
//! always print in paper order.

use std::error::Error;

use pn_analysis::ascii::{bar_chart, chart, ChartOptions};
use pn_bench::{banner, compare, print_table};
use pn_sim::experiments;
use pn_sim::sweep::SweepGrid;
use pn_units::Seconds;

type Artefact = fn() -> Result<(), Box<dyn Error>>;

/// Every artefact, in paper order.
const ARTEFACTS: [(&str, Artefact); 14] = [
    ("fig01", fig01),
    ("fig03", fig03),
    ("fig04", fig04),
    ("fig06", fig06),
    ("fig07", fig07),
    ("fig10", fig10),
    ("table1", table1),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("table2", table2),
    ("fig15", fig15),
    ("params", params),
];

fn main() -> Result<(), Box<dyn Error>> {
    let names: Vec<String> = std::env::args().skip(1).collect();
    for (_, artefact) in select(&names)? {
        artefact()?;
    }
    Ok(())
}

/// The artefacts `names` selects, in paper order; no names selects
/// them all. An unknown name is an error listing the known ones.
fn select(names: &[String]) -> Result<Vec<(&'static str, Artefact)>, String> {
    if let Some(unknown) = names.iter().find(|n| !ARTEFACTS.iter().any(|(k, _)| k == n)) {
        let known: Vec<&str> = ARTEFACTS.iter().map(|(k, _)| *k).collect();
        return Err(format!("unknown artefact {unknown:?}; known: {}", known.join(", ")));
    }
    Ok(ARTEFACTS
        .into_iter()
        .filter(|(k, _)| names.is_empty() || names.iter().any(|n| n == k))
        .collect())
}

fn fig01() -> Result<(), Box<dyn Error>> {
    banner("Fig. 1", "power output of a 250 cm² solar cell over a day");
    let fig = experiments::fig01::run(42, Seconds::new(20.0))?;
    println!(
        "{}",
        chart(
            &[&fig.power],
            &ChartOptions::new("cell output power over the day (W)")
                .with_labels("W", "s since midnight")
        )
    );
    compare("peak power (W)", "~1.0", format!("{:.2}", fig.peak_watts));
    compare(
        "micro variability (mean |Δ|/peak)",
        "visible dips",
        format!("{:.3}", fig.micro_variability),
    );
    Ok(())
}

fn fig03() -> Result<(), Box<dyn Error>> {
    banner("Fig. 3", "transient input with/without power-neutral scaling");
    let fig = experiments::fig03::run(Seconds::new(4.0), Seconds::new(16.0))?;
    println!(
        "{}",
        chart(
            &[&fig.vc_scaled, &fig.vc_static],
            &ChartOptions::new("VC under a sinusoidal harvest (V)").with_labels("V", "s")
        )
    );
    compare(
        "lifetime, small capacitor only (s)",
        "short",
        fig.static_lifetime.map_or("survived".into(), |s| format!("{s:.2}")),
    );
    compare(
        "lifetime, power-neutral scaling (s)",
        "perpetual",
        fig.scaled_lifetime.map_or("survived".into(), |s| format!("{s:.2}")),
    );
    Ok(())
}

fn fig04() -> Result<(), Box<dyn Error>> {
    banner("Fig. 4", "board power (W) vs operating frequency per core configuration");
    let fig = experiments::fig04::run()?;
    let headers: Vec<String> = std::iter::once("config".to_string())
        .chain(fig.curves[0].points.iter().map(|(g, _)| format!("{g:.2} GHz")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let rows: Vec<Vec<String>> = fig
        .curves
        .iter()
        .map(|c| {
            std::iter::once(c.config.to_string())
                .chain(c.points.iter().map(|(_, p)| format!("{p:.2}")))
                .collect()
        })
        .collect();
    print_table(&header_refs, &rows);
    println!();
    let min = fig.curves[0].points[0].1;
    let max = fig.curves[7].points.last().map(|(_, p)| *p).unwrap_or(0.0);
    compare("power envelope (W)", "≈1.8 … ≈7", format!("{min:.2} … {max:.2}"));
    Ok(())
}

fn fig06() -> Result<(), Box<dyn Error>> {
    banner("Fig. 6", "control-algorithm simulation through sudden shadowing");
    let fig = experiments::fig06::run(Seconds::new(2.0), Seconds::new(8.0))?;
    println!(
        "{}",
        chart(
            &[&fig.vc_controlled, &fig.vc_uncontrolled],
            &ChartOptions::new("VC with (*) and without (+) the control scheme (V)")
                .with_labels("V", "s")
        )
    );
    println!(
        "{}",
        chart(
            &[&fig.little_cores, &fig.big_cores],
            &ChartOptions::new("active cores under control").with_labels("cores", "s")
        )
    );
    println!(
        "{}",
        chart(
            &[&fig.frequency_ghz],
            &ChartOptions::new("operating frequency under control (GHz)")
                .with_labels("GHz", "s")
        )
    );
    compare("controlled system", "stays above Vmin", if fig.controlled_survived {
        "survived"
    } else {
        "browned out"
    });
    compare(
        "uncontrolled system",
        "falls below Vmin",
        fig.uncontrolled_lifetime
            .map_or("survived".into(), |s| format!("browned out at {s:.2} s")),
    );
    Ok(())
}

fn fig07() -> Result<(), Box<dyn Error>> {
    banner("Fig. 7", "raytrace FPS vs board power per OPP");
    let fig = experiments::fig07::run()?;
    for (title, points) in
        [("LITTLE (A7) cores only", &fig.little_only), ("big+LITTLE cores", &fig.with_big)]
    {
        println!("\n  {title}:");
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|p| {
                vec![
                    p.config.to_string(),
                    format!("{:.2}", p.frequency_ghz),
                    format!("{:.2}", p.power_w),
                    format!("{:.4}", p.fps),
                ]
            })
            .collect();
        print_table(&["config", "GHz", "power (W)", "FPS"], &rows);
    }
    println!();
    let max_l = fig.little_only.iter().map(|p| p.fps).fold(0.0, f64::max);
    let max_b = fig.with_big.iter().map(|p| p.fps).fold(0.0, f64::max);
    compare("max FPS, LITTLE-only panel", "≈0.065", format!("{max_l:.4}"));
    compare("max FPS, big+LITTLE panel", "≈0.25", format!("{max_b:.4}"));
    Ok(())
}

fn fig10() -> Result<(), Box<dyn Error>> {
    banner("Fig. 10", "core hot-plug and DVFS latencies");
    let fig = experiments::fig10::run()?;

    println!("\n  hot-plug latency (ms) per transition:");
    let mut rows = Vec::new();
    for from in 1..=7u8 {
        let mut row = vec![format!("{} -> {} cores", from, from + 1)];
        for ghz in [0.2, 0.8, 1.4] {
            let bar = fig
                .hotplug
                .iter()
                .find(|b| b.from == from && (b.frequency_ghz - ghz).abs() < 1e-9)
                .expect("bar exists");
            row.push(format!("{:.1}", bar.latency_ms));
        }
        rows.push(row);
    }
    print_table(&["transition", "200 MHz", "800 MHz", "1.4 GHz"], &rows);

    println!("\n  DVFS latency (ms) per configuration:");
    let rows: Vec<Vec<String>> = fig
        .dvfs
        .iter()
        .map(|b| {
            vec![
                b.config.to_string(),
                if b.down { "down".into() } else { "up".into() },
                format!("{:.2}", b.latency_ms),
            ]
        })
        .collect();
    print_table(&["config", "direction", "latency (ms)"], &rows);

    println!();
    let max_hp = fig.hotplug.iter().map(|b| b.latency_ms).fold(0.0, f64::max);
    let max_dvfs = fig.dvfs.iter().map(|b| b.latency_ms).fold(0.0, f64::max);
    compare("max hot-plug latency (ms)", "≈40 @200 MHz", format!("{max_hp:.1}"));
    compare("max DVFS latency (ms)", "≈3", format!("{max_dvfs:.2}"));
    Ok(())
}

fn table1() -> Result<(), Box<dyn Error>> {
    banner("Table I", "worst-case transition cost and buffer-capacitor sizing");
    let t = experiments::table1::run()?;
    let rows = vec![
        vec![
            "(a) Frequency, Core".to_string(),
            format!("{:.2}", t.frequency_first.transition_ms),
            format!("{:.4}", t.frequency_first.charge_c),
            format!("{:.1}", t.frequency_first.required_mf),
        ],
        vec![
            "(b) Core, Frequency".to_string(),
            format!("{:.2}", t.core_first.transition_ms),
            format!("{:.4}", t.core_first.charge_c),
            format!("{:.1}", t.core_first.required_mf),
        ],
    ];
    print_table(
        &["scenario", "transition time δ (ms)", "charge Q (C)", "required C (mF)"],
        &rows,
    );
    println!();
    compare("δ ratio (a)/(b)", "5.5", format!("{:.2}", t.frequency_first.transition_ms / t.core_first.transition_ms));
    compare("Q ratio (a)/(b)", "2.8", format!("{:.2}", t.frequency_first.charge_c / t.core_first.charge_c));
    compare("paper's fitted part", "47 mF", format!("covers (b): {}", t.core_first.required_mf < 47.0));
    Ok(())
}

fn fig11() -> Result<(), Box<dyn Error>> {
    banner("Fig. 11", "response to a controlled variable supply");
    let fig = experiments::fig11::run()?;
    println!(
        "{}",
        chart(&[&fig.v_supply], &ChartOptions::new("Vsupply (V)").with_labels("V", "s"))
    );
    println!(
        "{}",
        chart(
            &[&fig.frequency_mhz],
            &ChartOptions::new("operating frequency (MHz)").with_labels("MHz", "s")
        )
    );
    println!(
        "{}",
        chart(
            &[&fig.total_cores, &fig.little_cores],
            &ChartOptions::new("active cores (total *, LITTLE +)").with_labels("cores", "s")
        )
    );
    compare("behaviour at feature A (minor dips)", "DVFS only", "see frequency trace");
    compare("behaviour at feature B (sudden drop)", "cores shed + DVFS", "see core trace");
    compare("governor transitions", "frequent", fig.transitions);
    Ok(())
}

fn fig12() -> Result<(), Box<dyn Error>> {
    banner("Fig. 12", "VC stability over the six-hour full-sun test");
    let fig = experiments::fig12::run(7, Seconds::from_hours(6.0))?;
    println!(
        "{}",
        chart(
            &[&fig.vc],
            &ChartOptions::new(format!(
                "VC over the test window (target {:.1} V ± 5 %)",
                fig.target_v
            ))
            .with_labels("V", "s since midnight")
        )
    );
    compare("survived the full window", "yes", fig.survived);
    compare(
        "time within ±5 % of target",
        "93.3 %",
        format!("{:.1} %", fig.within_5pct * 100.0),
    );
    Ok(())
}

fn fig13() -> Result<(), Box<dyn Error>> {
    banner("Fig. 13", "PV IV characteristics and operating-voltage residency");
    let fig = experiments::fig13::run(11, Seconds::from_hours(6.0))?;

    println!("\n  IV / PV characteristics at full sun:");
    let rows: Vec<Vec<String>> = fig
        .iv_curve
        .iter()
        .zip(fig.pv_curve.iter())
        .step_by(7)
        .map(|((v, i), (_, p))| {
            vec![format!("{v:.2}"), format!("{i:.3}"), format!("{p:.2}")]
        })
        .collect();
    print_table(&["V (V)", "I (A)", "P (W)"], &rows);

    println!();
    let bars: Vec<(String, f64)> = fig
        .residency
        .iter()
        .filter(|(_, frac)| *frac > 1e-6)
        .map(|(v, frac)| (format!("{v:.2} V"), *frac))
        .collect();
    println!("{}", bar_chart(&bars, "fraction of time at each operating voltage"));

    compare("MPP voltage (V)", "5.3", format!("{:.2}", fig.mpp_voltage));
    compare("modal operating voltage (V)", "≈5.3 (at MPP)", format!("{:.2}", fig.modal_voltage));
    Ok(())
}

fn fig14() -> Result<(), Box<dyn Error>> {
    banner("Fig. 14", "available (estimated) vs consumed power over the day");
    let fig = experiments::fig14::run(5, Seconds::from_hours(6.0))?;
    println!(
        "{}",
        chart(
            &[&fig.consumed, &fig.available],
            &ChartOptions::new("consumed (*) vs available (+) power (W)")
                .with_labels("W", "s since midnight")
        )
    );
    compare("mean utilisation of available power", "close to 1", format!("{:.2}", fig.utilisation));
    compare(
        "fraction of time overdrawing",
        "≈0 (must not exceed harvest)",
        format!("{:.3}", fig.overdraw_fraction),
    );
    Ok(())
}

fn table2() -> Result<(), Box<dyn Error>> {
    banner("Table II", "power-management schemes over a 60-minute PV test");
    let t = experiments::table2::run(3, Seconds::from_hours(1.0))?;
    let rows: Vec<Vec<String>> = t
        .rows
        .iter()
        .map(|r| {
            vec![
                r.scheme.clone(),
                format!("{:.4}", r.renders_per_minute),
                r.lifetime.clone(),
                format!("{:.1}", r.instructions_billions),
            ]
        })
        .collect();
    print_table(
        &["scheme", "avg renders/min", "lifetime (MM:SS)", "instructions (B)"],
        &rows,
    );
    println!();
    compare("conservative lifetime", "00:05", &t.row("conservative").expect("row").lifetime);
    compare(
        "powersave",
        "0.1456 r/min, 2485.6 B over 60:00",
        format!(
            "{:.4} r/min, {:.1} B over {}",
            t.row("powersave").expect("row").renders_per_minute,
            t.row("powersave").expect("row").instructions_billions,
            t.row("powersave").expect("row").lifetime,
        ),
    );
    compare(
        "proposed approach",
        "0.2460 r/min, 4200.4 B over 60:00",
        format!(
            "{:.4} r/min, {:.1} B over {}",
            t.row("power-neutral").expect("row").renders_per_minute,
            t.row("power-neutral").expect("row").instructions_billions,
            t.row("power-neutral").expect("row").lifetime,
        ),
    );
    compare(
        "instruction advantage over powersave",
        "+69.0 %",
        format!("+{:.1} %", (t.proposed_over_powersave().expect("rows") - 1.0) * 100.0),
    );
    Ok(())
}

fn fig15() -> Result<(), Box<dyn Error>> {
    banner("Fig. 15", "CPU overhead of the proposed approach");
    let fig = experiments::fig15::run(9, Seconds::from_hours(2.0))?;
    compare(
        "control software CPU usage",
        "0.104 %",
        format!("{:.3} %", fig.control_cpu_fraction * 100.0),
    );
    compare(
        "monitor power vs minimum system power",
        "1.61 mW < 0.82 %",
        format!("{:.2} %", fig.monitor_power_fraction_of_min * 100.0),
    );
    compare("OPP transitions performed", "frequent small", fig.transitions);
    Ok(())
}

fn params() -> Result<(), Box<dyn Error>> {
    banner("§III sweep", "control-parameter selection by VC stability");
    let sweep = experiments::params::run(&SweepGrid::coarse())?;
    let rows: Vec<Vec<String>> = sweep
        .results
        .iter()
        .take(12)
        .map(|r| {
            vec![
                format!("{:.0}", r.params.v_width().to_millivolts()),
                format!("{:.1}", r.params.v_q().to_millivolts()),
                format!("{:.3}", r.params.alpha()),
                format!("{:.3}", r.params.beta()),
                format!("{:.3}", r.stability),
                if r.survived { "yes".into() } else { "no".into() },
            ]
        })
        .collect();
    print_table(
        &["Vwidth (mV)", "Vq (mV)", "α (V/s)", "β (V/s)", "±5% residency", "survived"],
        &rows,
    );
    println!();
    let best = sweep.best();
    compare(
        "best parameters (Vwidth, Vq, α, β)",
        "144 mV, 47.9 mV, 0.120, 0.479",
        format!(
            "{:.0} mV, {:.1} mV, {:.3}, {:.3}",
            best.params.v_width().to_millivolts(),
            best.params.v_q().to_millivolts(),
            best.params.alpha(),
            best.params.beta()
        ),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(of: &[(&str, Artefact)]) -> Vec<String> {
        of.iter().map(|(k, _)| k.to_string()).collect()
    }

    #[test]
    fn no_names_select_every_artefact_in_paper_order() {
        assert_eq!(
            names(&select(&[]).unwrap()),
            [
                "fig01", "fig03", "fig04", "fig06", "fig07", "fig10", "table1", "fig11", "fig12",
                "fig13", "fig14", "table2", "fig15", "params"
            ]
        );
    }

    #[test]
    fn named_artefacts_print_in_paper_order() {
        let picked = select(&["table2".into(), "fig12".into()]).unwrap();
        assert_eq!(names(&picked), ["fig12", "table2"]);
    }

    #[test]
    fn an_unknown_name_is_an_error_naming_every_artefact() {
        let err = select(&["fig12".into(), "fig99".into()]).unwrap_err();
        assert!(err.contains("\"fig99\""), "{err}");
        for (name, _) in ARTEFACTS {
            assert!(err.contains(name), "{err} omits {name}");
        }
    }

    #[test]
    fn artefact_names_are_unique() {
        let mut all = names(&ARTEFACTS);
        all.sort();
        all.dedup();
        assert_eq!(all.len(), ARTEFACTS.len());
    }
}
