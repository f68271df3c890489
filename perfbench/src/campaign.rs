//! `campaign_sweep`: a cold-day campaign.
//!
//! Each repetition runs `run_campaign` on a two-thread executor over
//! every weather × 40 fresh seeds × {22, 47, 150} mF × 8 governors with
//! the default 60 s window (5,760 cells), then `report_csv_string` and
//! `write_atomic`. Repetition k takes its seeds from the benchmark seed
//! and k, so its 240 distinct days outnumber the 64-entry day memo and
//! every repetition renders its days, as a fresh `campaign` process
//! does.
//!
//! The traced run also drives an in-process campaign daemon: it is the
//! one place the daemon layer is measured (see `daemon_probe`).

use crate::digest::Digest;
use crate::layers::{self, Recorded, GOVERNORS};
use crate::spans::{SpanId, Tracer};
use crate::stats;
use crate::{Config, Outcome};
use pn_harvest::clearsky::ClearSky;
use pn_harvest::weather::{DayProfile, Weather};
use pn_sim::campaign::{run_campaign, CampaignCell, CampaignReport, CampaignSpec, GovernorSpec};
use pn_sim::daemon::{self, Daemon, DaemonConfig};
use pn_sim::executor::Executor;
use pn_sim::persist;
use pn_sim::scenario;
use pn_soc::platform::Platform;
use pn_units::Seconds;
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

const BUFFERS_MF: [f64; 3] = [22.0, 47.0, 150.0];
const SEEDS_PER_REP: u64 = 40;
/// The paper's instruction gain of power-neutral over powersave.
const PAPER_GAIN: f64 = 1.69;
/// Set-ups timed per run; the median is reported.
const SETUPS: usize = 51;
/// Repetitions the gain error is taken over: four give 960 days.
const GAIN_REPS: u64 = 4;
/// Daemon jobs the traced run submits: enough for a p90 with ten
/// samples beyond it.
const DAEMON_JOBS: usize = 120;

/// Seeds of repetition `k`: blocks of distinct (seed, k) pairs never
/// overlap while k < 25,000.
fn rep_seeds(seed: u64, k: u64) -> Vec<u64> {
    let base = 1 + seed.wrapping_mul(1_000_000) + k * SEEDS_PER_REP;
    (base..base + SEEDS_PER_REP).collect()
}

fn spec(seed: u64, k: u64) -> CampaignSpec {
    CampaignSpec::new()
        .expect("paper preset valid")
        .with_weathers(Weather::all().to_vec())
        .with_seeds(rep_seeds(seed, k))
        .with_buffers_mf(BUFFERS_MF.to_vec())
        .with_governors(GOVERNORS.to_vec())
}

/// One untraced repetition's products.
struct Rep {
    wall_ns: f64,
    run_ns: f64,
    report: Option<CampaignReport>,
    csv: String,
    failed: bool,
}

/// Runs, encodes and writes repetition `k`, then checks the outputs:
/// the report has every cell, the CSV one row per cell, and the file
/// reads back byte-identical.
fn repetition(config: &Config, executor: &Executor, k: u64, csv_path: &Path) -> Rep {
    let spec = spec(config.seed, k);
    let start = Instant::now();
    let report = run_campaign(&spec, executor).ok();
    let run_ns = start.elapsed().as_nanos() as f64;
    let csv = report
        .as_ref()
        .and_then(|r| persist::report_csv_string(r).ok());
    let written = csv
        .as_ref()
        .is_some_and(|csv| persist::write_atomic(csv_path, csv).is_ok());
    let wall_ns = start.elapsed().as_nanos() as f64;
    let csv = csv.unwrap_or_default();
    let cells = spec.cell_count();
    let failed = !written
        || report.as_ref().is_none_or(|r| r.len() != cells)
        || csv.lines().count() != cells + 1
        || std::fs::read_to_string(csv_path).ok().as_deref() != Some(csv.as_str());
    Rep {
        wall_ns,
        run_ns,
        report,
        csv,
        failed,
    }
}

/// Power-neutral and powersave instruction totals over a report's
/// cells, in billions.
fn instruction_totals(report: &CampaignReport) -> [f64; 2] {
    [GovernorSpec::PowerNeutral, GovernorSpec::Powersave].map(|spec| {
        report
            .cells()
            .iter()
            .filter(|c| c.cell.governor == spec)
            .map(|c| c.instructions_billions)
            .sum()
    })
}

pub fn run(config: &Config, tracer: Option<&Tracer>) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let spec = spec(config.seed, 0);
        std::hint::black_box(spec.cells());
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let executor = Executor::new(config.threads);
    let csv_path = config
        .work_dir
        .join(format!("campaign-{}.csv", std::process::id()));
    let cells = spec(config.seed, 0).cell_count() as u64;

    // Repetition 0 warms the process up and fixes the digest; it is not
    // timed. The gain is taken over the first `GAIN_REPS` repetitions,
    // whatever the host's speed, so it depends on the seed alone.
    let start = Instant::now();
    let first = repetition(config, &executor, 0, &csv_path);
    out.count(cells, if first.failed { cells } else { 0 });
    out.digest = Digest::default().bytes(first.csv.as_bytes()).hex();
    let mut totals = first.report.as_ref().map_or([0.0; 2], instruction_totals);

    if let Some(tracer) = tracer {
        traced(config, &executor, tracer, &csv_path, &mut out);
    } else {
        // Pooled over the timed repetitions, as in `table2_hour`.
        let (mut wall_ns, mut sim_s, mut done) = (0.0, 0.0, 0);
        let mut k = 1;
        while k < GAIN_REPS || start.elapsed() < config.budget {
            let rep = repetition(config, &executor, k, &csv_path);
            out.count(cells, if rep.failed { cells } else { 0 });
            let outcomes = rep.report.as_ref().map_or(&[][..], |r| r.cells());
            if k < GAIN_REPS {
                let [pn, ps] = rep.report.as_ref().map_or([0.0; 2], instruction_totals);
                totals = [totals[0] + pn, totals[1] + ps];
            }
            wall_ns += rep.wall_ns;
            sim_s += outcomes.iter().map(|c| c.lifetime_seconds).sum::<f64>();
            done += cells;
            k += 1;
        }
        let gain = totals[0] / totals[1];
        out.metrics.set("gain_err", (gain / PAPER_GAIN - 1.0).abs());
        out.metrics.set("setup_s", stats::median(&setup_s));
        out.metrics.set("ns_per_cell", wall_ns / done as f64);
        out.metrics.set("wall_ns_per_sim_s", wall_ns / sim_s);
    }
    let _ = std::fs::remove_file(&csv_path);
    out
}

/// Per-cell span durations of the traced repetition, nanoseconds.
struct CellSpans {
    build: u64,
    run: u64,
    reduce: u64,
}

/// The traced run: an untraced repetition, then a traced one that
/// renders the days and drives each cell itself under `Executor::map`
/// (build, run, reduce), then the persistence, executor and daemon
/// probes and the replays below the engine.
fn traced(
    config: &Config,
    executor: &Executor,
    tracer: &Tracer,
    csv_path: &Path,
    out: &mut Outcome,
) {
    let untraced = repetition(config, executor, 1, csv_path);
    let cells_n = untraced.report.as_ref().map_or(0, |r| r.len()) as u64;
    out.count(cells_n, if untraced.failed { cells_n } else { 0 });

    let spec = spec(config.seed, 2);
    let cells = spec.cells();
    let group = 2;
    let rep = tracer.enter("campaign.rep", group, None);

    let mut days: Vec<(Weather, u64)> = cells.iter().map(|c| (c.weather, c.seed)).collect();
    days.dedup();
    let memo = DayMemo::default();
    let map = tracer.enter("sim.executor.map", group, Some(rep));
    let results = executor.map(&cells, |_, cell| {
        traced_cell(cell, &memo, tracer, (group, map))
    });
    let map_ns = tracer.exit(map) as f64;
    let traced_ns = tracer.exit(rep) as f64;
    let spans = tracer.spans();

    let m = &mut out.metrics;
    m.set("harvest.days_per_rep", days.len() as f64);
    let hits = memo.hits.load(Ordering::Relaxed);
    m.set("harvest.memo_hit_ratio", hits as f64 / days.len() as f64);
    m.set("trace.untraced_ms", untraced.run_ns / 1e6);
    m.set("trace.traced_ms", traced_ns / 1e6);
    m.set("trace.overhead_ms", (traced_ns - untraced.run_ns) / 1e6);
    m.set(
        "sim.campaign.orchestration_gap_ms",
        (untraced.run_ns - map_ns) / 1e6,
    );

    let mut failed = 0;
    let mut recorded = Vec::new();
    let mut cell_spans = Vec::new();
    for result in results {
        match result {
            Some((rec, spans)) => {
                recorded.push(rec);
                cell_spans.push(spans);
            }
            None => failed += 1,
        }
    }
    out.count(cells.len() as u64, failed);
    let m = &mut out.metrics;
    let build: u64 = cell_spans.iter().map(|s| s.build).sum();
    m.set(
        "sim.campaign.cell_build_us",
        build as f64 / cell_spans.len() as f64 / 1e3,
    );
    let busy: u64 = cell_spans.iter().map(|s| s.build + s.run + s.reduce).sum();
    m.set(
        "sim.executor.busy_ratio",
        busy as f64 / (executor.threads() as f64 * map_ns),
    );
    let costs: Vec<stats::RunCost> = recorded
        .iter()
        .zip(&cell_spans)
        .map(|(rec, spans)| stats::RunCost {
            wall_ns: spans.run as f64,
            sim_s: rec.report.lifetime_or_duration().value(),
            transitions: rec.report.transitions(),
        })
        .collect();
    layers::engine_metrics(&spans, untraced.run_ns, &costs, m);

    // Un-memoised renders of the repetition's days.
    let render_ns: Vec<f64> = days
        .iter()
        .map(|&(weather, seed)| {
            let t0 = Instant::now();
            std::hint::black_box(scenario::weather_day_trace(weather, seed));
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    m.set("harvest.day_render_ms", stats::median(&render_ns) / 1e6);

    let items = vec![(); cells.len()];
    let t0 = Instant::now();
    std::hint::black_box(executor.map(&items, |i, _| i));
    m.set(
        "sim.executor.dispatch_us",
        t0.elapsed().as_nanos() as f64 / items.len() as f64 / 1e3,
    );

    if let Some(report) = &untraced.report {
        out.failed += persist_probe(report, csv_path, &mut out.metrics);
    }
    daemon_probe(config, tracer, out);
    layers::replay_all(&recorded, &Platform::odroid_xu4(), &mut out.metrics);
}

/// Which days the traced repetition has looked up, and how many of
/// those first lookups the process-wide day memo already held.
#[derive(Default)]
struct DayMemo {
    seen: Mutex<BTreeSet<(&'static str, u64)>>,
    hits: AtomicUsize,
}

/// Drives one cell as `run_campaign` would, with a span per stage
/// under `parent`. The first cell of each day looks the day up in the
/// memo (rendering it on a miss) as part of its build. `None` when any
/// stage fails.
fn traced_cell(
    cell: &CampaignCell,
    memo: &DayMemo,
    tracer: &Tracer,
    (group, parent): (u64, SpanId),
) -> Option<(Recorded, CellSpans)> {
    let (scenario, build) = tracer.time("sim.campaign.cell_build", group, Some(parent), || {
        let first = memo
            .seen
            .lock()
            .expect("day set poisoned")
            .insert((cell.weather.slug(), cell.seed));
        if first {
            let lookup = DayProfile::new(cell.weather, cell.seed)
                .with_sky(ClearSky::paper_test_day().expect("preset sky valid"))
                .with_span(Seconds::from_hours(10.5), Seconds::from_hours(16.5))
                .build_shared_traced(Seconds::new(1.0));
            if lookup.is_ok_and(|(_, hit)| hit) {
                memo.hits.fetch_add(1, Ordering::Relaxed);
            }
        }
        cell.scenario()
    });
    let scenario = scenario.ok()?;
    let name = format!("sim.engine.run.{}", cell.governor.slug());
    let (report, run) = tracer.time(&name, group, Some(parent), || cell.governor.run(&scenario));
    let report = report.ok()?;
    let target = scenario.platform().target_voltage().value();
    let (reduced, reduce) = tracer.time("sim.campaign.reduce", group, Some(parent), || {
        layers::reduce(&report, target)
    });
    reduced?;
    let spans = CellSpans { build, run, reduce };
    Some((Recorded::new(&scenario, report)?, spans))
}

/// Times the CSV encode, the atomic write and the wire round trip of
/// one-cell shard reports; returns the failed checks.
fn persist_probe(report: &CampaignReport, csv_path: &Path, m: &mut crate::Metrics) -> u64 {
    let t0 = Instant::now();
    let csv = persist::report_csv_string(report).unwrap_or_default();
    m.set(
        "sim.persist.csv_encode_ms",
        t0.elapsed().as_nanos() as f64 / 1e6,
    );
    m.set("sim.persist.bytes", csv.len() as f64);
    let t0 = Instant::now();
    let written = persist::write_atomic(csv_path, &csv).is_ok();
    m.set(
        "sim.persist.write_atomic_ms",
        t0.elapsed().as_nanos() as f64 / 1e6,
    );

    let shards: Vec<CampaignReport> = report
        .cells()
        .iter()
        .enumerate()
        .take(240)
        .map(|(i, cell)| CampaignReport::from_parts(i, vec![*cell]))
        .collect();
    let t0 = Instant::now();
    let docs: Vec<String> = shards.iter().map(persist::report_to_string).collect();
    m.set(
        "sim.persist.report_encode_us",
        t0.elapsed().as_nanos() as f64 / docs.len() as f64 / 1e3,
    );
    let t0 = Instant::now();
    let decoded: Vec<_> = docs.iter().map(|d| persist::report_from_str(d)).collect();
    m.set(
        "sim.persist.report_decode_us",
        t0.elapsed().as_nanos() as f64 / docs.len() as f64 / 1e3,
    );
    let round_trips = decoded
        .iter()
        .zip(&shards)
        .all(|(d, s)| d.as_ref().ok() == Some(s));
    u64::from(!written) + u64::from(!round_trips)
}

/// The daemon layer: an in-process daemon with one worker per thread
/// and its checkpoint directory inside the checkout. One client submits
/// an 18-cell job (two weathers × three seeds from the benchmark seed ×
/// {power-neutral, powersave, race-to-idle}, 2 s cells, one shard per
/// cell) and one watcher per thread (two here) streams it to `done`;
/// the next job goes in only after every watcher finishes. Each watcher's CSV must equal a one-shot
/// `run_campaign` CSV of the same spec, and `status` must say `done`.
fn daemon_probe(config: &Config, tracer: &Tracer, out: &mut Outcome) {
    let seeds = (1..=3)
        .map(|i| config.seed.wrapping_mul(3).wrapping_add(i))
        .collect();
    let spec = CampaignSpec::smoke()
        .with_seeds(seeds)
        .with_governors(vec![
            GovernorSpec::PowerNeutral,
            GovernorSpec::Powersave,
            GovernorSpec::RaceToIdle,
        ])
        .with_duration(Seconds::new(2.0));
    let Some(reference) = run_campaign(&spec, &Executor::sequential())
        .ok()
        .and_then(|r| persist::report_csv_string(&r).ok())
    else {
        out.count(1, 1);
        return;
    };
    let dir = config
        .work_dir
        .join(format!("daemon-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let daemon = match Daemon::start(DaemonConfig::new(&dir).with_workers(config.threads)) {
        Ok(daemon) => daemon,
        Err(e) => {
            eprintln!("perfbench: daemon did not start: {e}");
            out.count(1, 1);
            return;
        }
    };
    println!("# daemon checkpoint_fs={}", crate::fs_type(&dir));
    let addr = daemon.addr().to_string();
    let (mut submit, mut first_row, mut stream, mut job, mut files) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut failed = 0;
    let mut lines = Vec::new();
    for j in 0..DAEMON_JOBS as u64 {
        let job_span = tracer.enter("sim.daemon.job", j, None);
        let t0 = Instant::now();
        let (ticket, submit_ns) = tracer.time("sim.daemon.submit", j, Some(job_span), || {
            daemon::submit(&addr, &spec, 0)
        });
        let Ok(ticket) = ticket else {
            tracer.exit(job_span);
            failed += 1;
            continue;
        };
        // One watcher per thread; each returns its CSV and when it saw
        // its first and last row.
        let watch = || {
            tracer
                .time("sim.daemon.watch", j, Some(job_span), || {
                    let mut rows = Vec::new();
                    let mut first = None;
                    let cells = daemon::watch(&addr, ticket.id, &mut |index, row| {
                        first.get_or_insert_with(|| t0.elapsed());
                        rows.push((index, row.to_string()));
                    });
                    let csv = cells.and_then(|cells| daemon::rows_to_csv(cells, rows));
                    (csv.ok(), first, t0.elapsed())
                })
                .0
        };
        let watchers: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..config.threads).map(|_| s.spawn(watch)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("watcher panicked"))
                .collect()
        });
        let job_ns = tracer.exit(job_span);
        let status = daemon::status(&addr, ticket.id)
            .map(|s| s.state)
            .unwrap_or_default();
        let ok = watchers
            .iter()
            .all(|w| w.0.as_deref() == Some(reference.as_str()))
            && status == "done";
        failed += u64::from(!ok);
        submit.push(submit_ns as f64 / 1e6);
        let first = watchers.iter().filter_map(|w| w.1).min();
        let last = watchers.iter().map(|w| w.2).max();
        if let (Some(first), Some(last)) = (first, last) {
            first_row.push(first.as_secs_f64() * 1e3);
            stream.push((last - first).as_secs_f64() * 1e3);
        }
        job.push(job_ns as f64 / 1e6);
        let job_dir = dir.join(format!("job-{}", ticket.id));
        files.push(std::fs::read_dir(job_dir).map_or(0, |d| d.count()) as f64);
        lines.push(format!("watch {}", ticket.id));
        lines.push(format!("status {}", ticket.id));
    }
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
    out.count(DAEMON_JOBS as u64, failed);

    lines.push("submit shards 0".into());
    let t0 = Instant::now();
    let mut parsed = 0u64;
    while t0.elapsed().as_millis() < 20 {
        for line in &lines {
            std::hint::black_box(daemon::parse_request(std::hint::black_box(line)).is_ok());
        }
        parsed += lines.len() as u64;
    }
    let m = &mut out.metrics;
    m.set(
        "sim.daemon.parse_request_ns",
        t0.elapsed().as_nanos() as f64 / parsed as f64,
    );
    m.set("sim.daemon.submit_ms", stats::median(&submit));
    m.set("sim.daemon.first_row_ms", stats::median(&first_row));
    m.set("sim.daemon.stream_ms", stats::median(&stream));
    m.set("sim.daemon.job_ms_p50", stats::median(&job));
    if stats::tail_percentile(job.len()).is_some_and(|p| p >= 90.0) {
        m.set("sim.daemon.job_ms_p90", stats::percentile(&job, 90.0));
    }
    m.set("sim.daemon.jobs", job.len() as f64);
    m.set("sim.daemon.files_per_job", stats::median(&files));
}
