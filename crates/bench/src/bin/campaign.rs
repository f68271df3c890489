//! Campaign runner: simulate a (weather × seed × buffer × governor)
//! scenario matrix in parallel and print the aggregated verdicts.
//!
//! Supports sharded runs (disjoint matrix-index ranges for separate
//! machines), persisted reports that merge bitwise back into the
//! unsharded report, shard-aware resume of interrupted runs, adaptive
//! brown-out boundary refinement, and CSV export:
//!
//! ```sh
//! cargo run --release -p pn-bench --bin campaign              # 24-cell diverse matrix
//! cargo run --release -p pn-bench --bin campaign -- --smoke   # tiny 2×2 CI matrix
//! cargo run --release -p pn-bench --bin campaign -- --threads 4 --seeds 3
//! cargo run --release -p pn-bench --bin campaign -- --out report.csv
//!
//! # run shard 2 of 4 and persist its partial report…
//! cargo run --release -p pn-bench --bin campaign -- --shard 2/4 --save shard2.pnc
//! # …then recompose all four partial reports into the full one:
//! cargo run --release -p pn-bench --bin campaign -- \
//!     --merge shard1.pnc shard2.pnc shard3.pnc shard4.pnc --out report.csv
//!
//! # resume an interrupted run: skip the cells a saved partial report
//! # already carries, simulate only the rest, merge bitwise:
//! cargo run --release -p pn-bench --bin campaign -- --resume shard2.pnc --out report.csv
//!
//! # bisect each (weather, governor) group's buffer capacitance to the
//! # brown-out boundary, steering every round from the previous one:
//! cargo run --release -p pn-bench --bin campaign -- \
//!     --smoke --adapt --tolerance 8 --max-rounds 16 --summary-out summary.csv
//!
//! # run the whole matrix on the interpolated supply fast path
//! # (interp:<tol-amps> sharpens the surface):
//! cargo run --release -p pn-bench --bin campaign -- \
//!     --supply-model interp:0.0005 --out report.csv
//!
//! # swap the governor axis (any GovernorSpec slug, comma-separated) —
//! # e.g. the two DPM policies against the power-neutral controller:
//! cargo run --release -p pn-bench --bin campaign -- \
//!     --governors power-neutral,race-to-idle,budget-shift
//! # …and re-run with the idle-state ladder masked off, to measure
//! # what the DPM axis itself buys:
//! cargo run --release -p pn-bench --bin campaign -- \
//!     --governors race-to-idle --idle off
//!
//! # turn on the adversarial stress axes — lumped-RC thermal
//! # throttle/boost, bursty workload arrival, harvester fault storms:
//! cargo run --release -p pn-bench --bin campaign -- \
//!     --thermal --arrivals bursty --faults brownout --out report.csv
//! # …and bisect the thermal throttle ceiling (instead of the buffer)
//! # to each group's survival boundary:
//! cargo run --release -p pn-bench --bin campaign -- \
//!     --smoke --thermal --adapt --adapt-axis thermal
//!
//! # client mode against a running campaignd (same spec flags): submit
//! # the matrix as 6 shards and stream rows until it completes…
//! cargo run --release -p pn-bench --bin campaign -- \
//!     --smoke --submit 127.0.0.1:7070 --shards 6 --out report.csv
//! # …submit without waiting, then watch from any number of clients:
//! cargo run --release -p pn-bench --bin campaign -- \
//!     --smoke --submit 127.0.0.1:7070 --detach
//! cargo run --release -p pn-bench --bin campaign -- \
//!     --watch 127.0.0.1:7070 --job 1 --out report.csv
//!
//! # harden the client against a flaky daemon or network: up to 16
//! # connection attempts with seeded exponential backoff; after every
//! # drop the watch starts again from the top and skips the rows (by
//! # matrix index) an earlier connection already delivered:
//! cargo run --release -p pn-bench --bin campaign -- \
//!     --watch 127.0.0.1:7070 --job 1 --retry 16 --out report.csv
//! ```

use pn_bench::{banner, print_table};
use pn_harvest::faults::FaultSpec;
use pn_sim::adaptive::{AdaptiveAxis, AdaptiveCampaign, AdaptiveConfig};
use pn_sim::campaign::{
    resume_campaign, run_campaign, run_cells, CampaignReport, CampaignSpec, GovernorSpec,
};
use pn_sim::daemon;
use pn_sim::executor::Executor;
use pn_sim::persist;
use pn_sim::supply::SupplyModel;
use pn_soc::thermal::ThermalSpec;
use pn_workload::arrival::ArrivalSpec;

struct Cli {
    smoke: bool,
    threads: usize, // 0 → default parallelism
    seeds: Option<u64>,
    shard: Option<(usize, usize)>, // 1-based (index, count)
    save: Option<String>,
    out: Option<String>,
    summary_out: Option<String>,
    merge: Vec<String>,
    resume: Vec<String>,
    adapt: bool,
    tolerance: Option<f64>,
    max_rounds: Option<usize>,
    supply_model: Option<SupplyModel>,
    governors: Option<Vec<GovernorSpec>>,
    idle: Option<bool>,
    thermal: bool,
    arrivals: Option<Vec<ArrivalSpec>>,
    faults: Option<Vec<FaultSpec>>,
    adapt_axis: Option<AdaptiveAxis>,
    submit: Option<String>, // daemon address: submit the spec there
    watch: Option<String>,  // daemon address: stream an existing job
    job: Option<u64>,       // job id for --watch
    shards: Option<usize>,  // daemon-side shard count for --submit
    detach: bool,           // --submit without waiting for completion
    retry: Option<u32>,     // client connection attempts (default 1)
}

fn parse_shard(arg: &str) -> Result<(usize, usize), String> {
    let bad = || format!("--shard wants I/N (e.g. 2/4), got {arg:?}");
    let (i, n) = arg.split_once('/').ok_or_else(bad)?;
    let (i, n): (usize, usize) =
        (i.parse().map_err(|_| bad())?, n.parse().map_err(|_| bad())?);
    if i == 0 || n == 0 || i > n {
        return Err(format!("--shard index out of range: {i}/{n}"));
    }
    Ok((i, n))
}

fn parse_cli() -> Result<Cli, String> {
    // Parse every flag first, then assemble the spec, so flag order
    // cannot silently change the campaign (`--seeds 3 --smoke` and
    // `--smoke --seeds 3` must mean the same thing).
    let mut cli = Cli {
        smoke: false,
        threads: 0,
        seeds: None,
        shard: None,
        save: None,
        out: None,
        summary_out: None,
        merge: Vec::new(),
        resume: Vec::new(),
        adapt: false,
        tolerance: None,
        max_rounds: None,
        supply_model: None,
        governors: None,
        idle: None,
        thermal: false,
        arrivals: None,
        faults: None,
        adapt_axis: None,
        submit: None,
        watch: None,
        job: None,
        shards: None,
        detach: false,
        retry: None,
    };
    let mut args = std::env::args().skip(1).peekable();
    let value = |args: &mut std::iter::Peekable<std::iter::Skip<std::env::Args>>,
                 flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => cli.smoke = true,
            "--threads" => {
                cli.threads = value(&mut args, "--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
            }
            "--seeds" => {
                cli.seeds = Some(
                    value(&mut args, "--seeds")?.parse().map_err(|e| format!("--seeds: {e}"))?,
                );
            }
            "--shard" => cli.shard = Some(parse_shard(&value(&mut args, "--shard")?)?),
            "--save" => cli.save = Some(value(&mut args, "--save")?),
            "--out" => cli.out = Some(value(&mut args, "--out")?),
            "--summary-out" => cli.summary_out = Some(value(&mut args, "--summary-out")?),
            "--resume" => {
                // Greedy like --merge: any number of saved partial
                // reports (e.g. the shard checkpoints a killed daemon
                // left behind), gaps simulated, merge bitwise.
                while let Some(path) = args.peek() {
                    if path.starts_with("--") {
                        break;
                    }
                    cli.resume.push(args.next().expect("peeked"));
                }
                if cli.resume.is_empty() {
                    return Err("--resume needs at least one report file".into());
                }
            }
            "--adapt" => cli.adapt = true,
            "--submit" => cli.submit = Some(value(&mut args, "--submit")?),
            "--watch" => cli.watch = Some(value(&mut args, "--watch")?),
            "--job" => {
                cli.job =
                    Some(value(&mut args, "--job")?.parse().map_err(|e| format!("--job: {e}"))?);
            }
            "--shards" => {
                cli.shards = Some(
                    value(&mut args, "--shards")?
                        .parse()
                        .map_err(|e| format!("--shards: {e}"))?,
                );
            }
            "--detach" => cli.detach = true,
            "--retry" => {
                cli.retry = Some(
                    value(&mut args, "--retry")?
                        .parse()
                        .map_err(|e| format!("--retry: {e}"))?,
                );
            }
            "--supply-model" => {
                let slug = value(&mut args, "--supply-model")?;
                cli.supply_model = Some(SupplyModel::from_slug(&slug).ok_or_else(|| {
                    format!(
                        "--supply-model wants exact, interp or interp:<tol-amps>, got {slug:?}"
                    )
                })?);
            }
            "--governors" => {
                let list = value(&mut args, "--governors")?;
                let governors: Vec<GovernorSpec> = list
                    .split(',')
                    .map(|slug| {
                        GovernorSpec::from_slug(slug.trim()).ok_or_else(|| {
                            format!("--governors: unknown governor slug {:?}", slug.trim())
                        })
                    })
                    .collect::<Result<_, _>>()?;
                if governors.is_empty() {
                    return Err("--governors needs at least one slug".into());
                }
                cli.governors = Some(governors);
            }
            "--idle" => {
                cli.idle = Some(match value(&mut args, "--idle")?.as_str() {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("--idle wants on or off, got {other:?}")),
                });
            }
            "--thermal" => cli.thermal = true,
            "--arrivals" => {
                let list = value(&mut args, "--arrivals")?;
                let arrivals: Vec<ArrivalSpec> = list
                    .split(',')
                    .map(|slug| {
                        let slug = slug.trim();
                        if slug == "bursty" {
                            return Ok(ArrivalSpec::bursty_stress());
                        }
                        ArrivalSpec::from_slug(slug).ok_or_else(|| {
                            format!("--arrivals: unknown arrival slug {slug:?}")
                        })
                    })
                    .collect::<Result<_, _>>()?;
                cli.arrivals = Some(arrivals);
            }
            "--faults" => {
                let list = value(&mut args, "--faults")?;
                let faults: Vec<FaultSpec> = list
                    .split(',')
                    .map(|slug| {
                        let slug = slug.trim();
                        match slug {
                            "shading" => Ok(FaultSpec::shading_stress()),
                            "brownout" => Ok(FaultSpec::brownout_stress()),
                            _ => FaultSpec::from_slug(slug).ok_or_else(|| {
                                format!("--faults: unknown fault slug {slug:?}")
                            }),
                        }
                    })
                    .collect::<Result<_, _>>()?;
                cli.faults = Some(faults);
            }
            "--adapt-axis" => {
                let slug = value(&mut args, "--adapt-axis")?;
                cli.adapt_axis = Some(AdaptiveAxis::from_slug(&slug).ok_or_else(|| {
                    format!("--adapt-axis wants buffer, thermal or fault, got {slug:?}")
                })?);
            }
            "--tolerance" => {
                cli.tolerance = Some(
                    value(&mut args, "--tolerance")?
                        .parse()
                        .map_err(|e| format!("--tolerance: {e}"))?,
                );
            }
            "--max-rounds" => {
                cli.max_rounds = Some(
                    value(&mut args, "--max-rounds")?
                        .parse()
                        .map_err(|e| format!("--max-rounds: {e}"))?,
                );
            }
            "--merge" => {
                while let Some(path) = args.peek() {
                    if path.starts_with("--") {
                        break;
                    }
                    cli.merge.push(args.next().expect("peeked"));
                }
                if cli.merge.is_empty() {
                    return Err("--merge needs at least one report file".into());
                }
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if !cli.merge.is_empty()
        && (cli.shard.is_some()
            || cli.smoke
            || cli.seeds.is_some()
            || cli.threads != 0
            || !cli.resume.is_empty()
            || cli.adapt
            || cli.supply_model.is_some()
            || cli.governors.is_some()
            || cli.idle.is_some()
            || cli.thermal
            || cli.arrivals.is_some()
            || cli.faults.is_some())
    {
        return Err(
            "--merge recomposes saved reports without simulating; it cannot be combined \
             with --shard, --smoke, --seeds, --threads, --resume, --adapt, --supply-model, \
             --governors, --idle, --thermal, --arrivals or --faults"
                .into(),
        );
    }
    if !cli.resume.is_empty() && cli.shard.is_some() {
        return Err("--resume completes saved partial reports; it cannot be combined \
                    with --shard (the saved reports already pin the missing cells)"
            .into());
    }
    if cli.submit.is_some() && cli.watch.is_some() {
        return Err("--submit and --watch are separate client modes; use one".into());
    }
    let client = cli.submit.is_some() || cli.watch.is_some();
    if client
        && (cli.shard.is_some()
            || cli.save.is_some()
            || cli.summary_out.is_some()
            || !cli.merge.is_empty()
            || !cli.resume.is_empty()
            || cli.adapt
            || cli.threads != 0)
    {
        return Err("--submit/--watch talk to a campaign daemon; they cannot be combined \
                    with --shard, --save, --summary-out, --merge, --resume, --adapt or \
                    --threads (the daemon owns scheduling and persistence)"
            .into());
    }
    if cli.job.is_some() && cli.watch.is_none() {
        return Err("--job only applies to --watch".into());
    }
    if cli.watch.is_some() && cli.job.is_none() {
        return Err("--watch needs --job <id>".into());
    }
    if cli.shards.is_some() && cli.submit.is_none() {
        return Err("--shards only applies to --submit".into());
    }
    if cli.detach && cli.submit.is_none() {
        return Err("--detach only applies to --submit".into());
    }
    if cli.detach && cli.out.is_some() {
        return Err("--detach does not wait for rows; it cannot write --out".into());
    }
    if cli.retry.is_some() && !client {
        return Err("--retry only applies to the client modes (--submit/--watch)".into());
    }
    if cli.retry == Some(0) {
        return Err("--retry wants at least 1 attempt".into());
    }
    if cli.watch.is_some()
        && (cli.smoke
            || cli.seeds.is_some()
            || cli.supply_model.is_some()
            || cli.governors.is_some()
            || cli.idle.is_some()
            || cli.thermal
            || cli.arrivals.is_some()
            || cli.faults.is_some())
    {
        return Err("--watch streams a job already submitted; the spec flags (--smoke, \
                    --seeds, --supply-model, --governors, --idle, --thermal, --arrivals, \
                    --faults) only apply to --submit or local runs"
            .into());
    }
    if cli.adapt && cli.shard.is_some() {
        return Err("--adapt needs the full matrix report; run the shards, --merge them, \
                    or --resume the saved partial report first"
            .into());
    }
    if cli.max_rounds.is_some() && !cli.adapt {
        return Err("--max-rounds only applies to --adapt".into());
    }
    if cli.adapt_axis.is_some() && !cli.adapt {
        return Err("--adapt-axis only applies to --adapt".into());
    }
    if cli.tolerance.is_some() && !cli.adapt {
        return Err("--tolerance only applies to --adapt".into());
    }
    Ok(cli)
}

/// Assembles the campaign spec from the CLI's spec flags — shared by
/// the local run path and the `--submit` client mode, so a submitted
/// matrix is exactly the matrix the same flags would run locally.
fn build_spec(cli: &Cli) -> CampaignSpec {
    let mut spec = if cli.smoke { CampaignSpec::smoke() } else { CampaignSpec::diverse() };
    if let Some(n) = cli.seeds {
        spec.seeds = (1..=n.max(1)).collect();
    }
    if let Some(model) = cli.supply_model {
        spec = spec.with_supply_model(model);
    }
    if let Some(governors) = &cli.governors {
        spec = spec.with_governors(governors.clone());
    }
    if let Some(idle) = cli.idle {
        spec = spec.with_idle(idle);
    }
    if cli.thermal {
        spec = spec.with_thermals(vec![ThermalSpec::stress()]);
    }
    if let Some(arrivals) = &cli.arrivals {
        spec = spec.with_arrivals(arrivals.clone());
    }
    if let Some(faults) = &cli.faults {
        spec = spec.with_faults(faults.clone());
    }
    spec
}

fn print_spec_settings(cli: &Cli) {
    if let Some(model) = cli.supply_model {
        println!("  supply model: {model}");
    }
    if let Some(governors) = &cli.governors {
        let labels: Vec<String> = governors.iter().map(GovernorSpec::label).collect();
        println!("  governors: {}", labels.join(", "));
    }
    if let Some(idle) = cli.idle {
        println!("  idle states: {}", if idle { "on" } else { "off" });
    }
    if cli.thermal {
        println!("  thermal: {}", ThermalSpec::stress().slug());
    }
    if let Some(arrivals) = &cli.arrivals {
        let slugs: Vec<String> = arrivals.iter().map(ArrivalSpec::slug).collect();
        println!("  arrivals: {}", slugs.join(", "));
    }
    if let Some(faults) = &cli.faults {
        let slugs: Vec<String> = faults.iter().map(FaultSpec::slug).collect();
        println!("  faults: {}", slugs.join(", "));
    }
}

/// Client mode: submit the spec to a campaign daemon and/or stream a
/// job's rows as they complete. The assembled CSV is byte-identical to
/// the one a local `--out` run of the same spec writes.
fn run_client(cli: &Cli) -> Result<(), Box<dyn std::error::Error>> {
    // One attempt by default; `--retry n` arms reconnects with seeded
    // exponential backoff, and a dropped watch starts again from the
    // top, deduplicated by matrix index.
    let policy = daemon::RetryPolicy::no_retry().with_attempts(cli.retry.unwrap_or(1));
    let (addr, job) = if let Some(addr) = &cli.watch {
        (addr.clone(), cli.job.expect("validated by parse_cli"))
    } else {
        let addr = cli.submit.clone().expect("client mode");
        print_spec_settings(cli);
        let spec = build_spec(cli);
        let ticket = daemon::submit_with(&addr, &spec, cli.shards.unwrap_or(0), &policy)?;
        banner(
            "campaign",
            &format!(
                "submitted job {} ({} cells over {} shards) to {addr}",
                ticket.id, ticket.cells, ticket.shards
            ),
        );
        if cli.detach {
            println!("  stream it with: campaign --watch {addr} --job {}", ticket.id);
            return Ok(());
        }
        (addr, ticket.id)
    };
    println!("  streaming job {job} from {addr}:");
    let mut rows: Vec<(usize, String)> = Vec::new();
    let cells = daemon::watch_rows_with(&addr, job, &policy, &mut |index, row| {
        println!("  row {index:>4}  {row}");
        rows.push((index, row.to_string()));
    })?;
    println!();
    println!("  job {job} complete: {cells} cells");
    if let Some(path) = &cli.out {
        let csv = daemon::rows_to_csv(cells, rows)?;
        persist::write_atomic(path, &csv)?;
        println!("  wrote campaign CSV ({cells} rows) to {path}");
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cli = parse_cli()?;
    if cli.submit.is_some() || cli.watch.is_some() {
        return run_client(&cli);
    }
    let executor = Executor::new(cli.threads);

    let (report, ran) = if cli.merge.is_empty() {
        print_spec_settings(&cli);
        let spec = build_spec(&cli);
        let t0 = std::time::Instant::now();
        let report = if !cli.resume.is_empty() {
            let mut parts = Vec::with_capacity(cli.resume.len());
            for path in &cli.resume {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                parts
                    .push(persist::report_from_str(&text).map_err(|e| format!("{path}: {e}"))?);
            }
            let saved_cells: usize = parts.iter().map(CampaignReport::len).sum();
            banner(
                "campaign",
                &format!(
                    "resuming {} of {} cells ({} saved report(s) carry {}) on {} worker threads",
                    // Saturate: saved reports larger than the matrix are
                    // rejected by resume_campaign just below.
                    spec.cell_count().saturating_sub(saved_cells),
                    spec.cell_count(),
                    parts.len(),
                    saved_cells,
                    executor.threads()
                ),
            );
            resume_campaign(&spec, &parts, &executor)?
        } else if let Some((i, n)) = cli.shard {
            let range = spec.shard(n).swap_remove(i - 1);
            let what = format!("shard {i}/{n} ({} cells)", range.len());
            banner("campaign", &format!("{what} on {} worker threads", executor.threads()));
            run_cells(&spec.cells(), range, &executor)?
        } else {
            let what = format!("{} scenario cells", spec.cell_count());
            banner("campaign", &format!("{what} on {} worker threads", executor.threads()));
            run_campaign(&spec, &executor)?
        };
        (report, Some(t0.elapsed()))
    } else {
        banner("campaign", &format!("merging {} saved shard reports", cli.merge.len()));
        let mut parts = Vec::with_capacity(cli.merge.len());
        for path in &cli.merge {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {path}: {e}"))?;
            parts.push(persist::report_from_str(&text).map_err(|e| format!("{path}: {e}"))?);
        }
        (CampaignReport::merge(parts)?, None)
    };

    let rows: Vec<Vec<String>> = report
        .cells()
        .iter()
        .map(|c| {
            vec![
                c.cell.label(),
                if c.survived { "yes".into() } else { "NO".into() },
                format!("{:.1}", c.lifetime_seconds),
                format!("{:.3}", c.vc_stability),
                format!("{:.2}", c.instructions_billions),
                format!("{:.1}", c.energy_in_joules),
                format!("{:.1}", c.energy_out_joules),
                format!("{}", c.transitions),
            ]
        })
        .collect();
    print_table(
        &["cell", "alive", "life (s)", "VC ±5%", "instr (G)", "E_in (J)", "E_out (J)", "trans"],
        &rows,
    );

    println!();
    println!(
        "  {} cells, {} brownouts, survival rate {:.0} %, {:.1} G instructions total",
        report.len(),
        report.brownout_count(),
        report.survival_rate() * 100.0,
        report.total_instructions_billions()
    );

    let group_rows = |groups: &[pn_sim::campaign::GroupSummary]| -> Vec<Vec<String>> {
        groups
            .iter()
            .map(|g| {
                vec![
                    g.label.clone(),
                    format!("{}", g.cells),
                    format!("{}", g.brownouts),
                    format!("{:.3}", g.vc_stability.mean().unwrap_or(0.0)),
                    format!("{:.2}", g.instructions_billions.sum()),
                    format!("{:.2}", g.energy_utilisation.mean().unwrap_or(0.0)),
                ]
            })
            .collect()
    };

    println!();
    println!("  by weather:");
    print_table(
        &["weather", "cells", "brownouts", "mean VC ±5%", "instr (G)", "E_out/E_in"],
        &group_rows(&report.by_weather()),
    );
    println!();
    println!("  by governor:");
    print_table(
        &["governor", "cells", "brownouts", "mean VC ±5%", "instr (G)", "E_out/E_in"],
        &group_rows(&report.by_governor()),
    );

    // The adaptive refinement loop: bisect each (weather, governor)
    // group along the chosen axis — buffer capacitance (default),
    // thermal throttle ceiling or harvester fault depth — to the
    // brown-out boundary, emitting every round as an ordinary campaign
    // on the same executor.
    let summary_source = if cli.adapt {
        let axis = cli.adapt_axis.unwrap_or_default();
        let defaults = AdaptiveConfig::for_axis(axis);
        let config = AdaptiveConfig {
            tolerance_mf: cli.tolerance.unwrap_or(defaults.tolerance_mf),
            max_rounds: cli.max_rounds.unwrap_or(defaults.max_rounds),
            ..defaults
        };
        let mut adaptive = AdaptiveCampaign::from_report(&report, config)?;
        let t0 = std::time::Instant::now();
        let brackets = adaptive.run(&executor)?;
        // Survival is monotone *up* in buffer capacitance but *down*
        // in throttle ceiling and fault depth, so the bracket ends
        // swap meaning on the inverted axes.
        let (unit, decimals, lo_label, hi_label) = match axis {
            AdaptiveAxis::BufferMf => ("mF", 1, "browns out ≤", "survives ≥"),
            AdaptiveAxis::ThermalLimitC => ("°C", 1, "survives ≤", "browns out ≥"),
            AdaptiveAxis::FaultDepth => ("depth", 3, "survives ≤", "browns out ≥"),
        };
        let fmt_val = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.decimals$}"));
        let bracket_rows: Vec<Vec<String>> = brackets
            .iter()
            .map(|b| {
                vec![
                    format!("{}", b.weather),
                    b.governor.label(),
                    fmt_val(b.lo_mf),
                    fmt_val(b.hi_mf),
                    fmt_val(b.width_mf()),
                    fmt_val(b.boundary_estimate_mf()),
                    b.status.to_string(),
                    format!("{}", b.probes),
                ]
            })
            .collect();
        println!();
        println!(
            "  {axis} boundary brackets (tolerance {} {unit}, {} rounds, {} probe cells, {:.2} s):",
            config.tolerance_mf,
            adaptive.rounds(),
            adaptive.history().len() - report.len(),
            t0.elapsed().as_secs_f64()
        );
        let lo_header = format!("{lo_label} ({unit})");
        let hi_header = format!("{hi_label} ({unit})");
        print_table(
            &[
                "weather",
                "governor",
                &lo_header,
                &hi_header,
                "width",
                "estimate",
                "status",
                "probes",
            ],
            &bracket_rows,
        );
        Some(adaptive.probe_report())
    } else {
        None
    };

    // Artifact writes are atomic (temp file + rename): a killed writer
    // can never leave the torn final line resume rightly rejects.
    if let Some(path) = &cli.save {
        persist::write_atomic(path, &persist::report_to_string(&report))?;
        println!();
        println!("  saved report ({} cells, offset {}) to {path}", report.len(), report.start());
    }
    if let Some(path) = &cli.out {
        persist::write_atomic(path, &persist::report_csv_string(&report)?)?;
        println!();
        println!("  wrote campaign CSV ({} rows) to {path}", report.len());
    }
    if let Some(path) = &cli.summary_out {
        // With --adapt the summary covers every probed cell, so the
        // boundary search is part of the exported statistics.
        let summarised = summary_source.as_ref().unwrap_or(&report);
        persist::write_atomic(path, &persist::report_summary_csv_string(summarised)?)?;
        println!();
        println!(
            "  wrote summary CSV ({} groups over {} cells) to {path}",
            summarised.by_weather().len() + summarised.by_governor().len(),
            summarised.len()
        );
    }

    if let Some(wall) = ran {
        println!();
        println!(
            "  simulated {:.0} scenario-seconds in {:.2} s of wall time",
            report.cells().iter().map(|c| c.cell.duration.value()).sum::<f64>(),
            wall.as_secs_f64()
        );
    }
    Ok(())
}
