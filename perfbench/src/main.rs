//! End-to-end and per-layer benchmark of the power-neutral simulator.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table2_hour --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each was chosen):
//!
//! * `table2_hour` — the paper's 60-minute Table II experiment under
//!   the governor line-up plus budget-shift, one thread, closed loop;
//! * `campaign_sweep` — a cold-day campaign: 5,760 cells over 240
//!   distinct days per repetition on a two-thread executor, then the
//!   CSV encode and the atomic write.
//!
//! With `--trace 0` the run measures the end-to-end metrics with no
//! tracing; with `--trace 1` it reports the per-layer metrics, measured
//! with spans around the calls into each layer and replays of the
//! workload's recorded inputs, plus the tracing overhead. The last line
//! of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod campaign;
mod digest;
mod layers;
mod spans;
mod stats;
mod table2;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// End-to-end metrics with their units; every workload reports each.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_ns_per_sim_s", "ns"),
    ("ns_per_cell", "ns"),
    ("peak_rss_mb", "MB"),
    ("gain_err", "ratio"),
];

/// Per-layer metrics with their units, apart from the per-governor
/// families built in [`per_layer`]. A workload that does no work in a
/// layer reports 0 for it.
const PER_LAYER: [(&str, &str); 37] = [
    ("harvest.day_render_ms", "ms"),
    ("harvest.days_per_rep", "count"),
    ("harvest.memo_hit_ratio", "ratio"),
    ("harvest.irradiance_sample_ns", "ns"),
    ("harvest.irradiance_cursor_ns", "ns"),
    ("circuit.pv_solve_exact_ns", "ns"),
    ("circuit.pv_solve_surface_ns", "ns"),
    ("sim.engine.transitions", "count"),
    ("sim.engine.quiet_ns_per_sim_s", "ns"),
    ("sim.engine.ns_per_transition", "ns"),
    ("sim.engine.span_coverage", "ratio"),
    ("sim.recorder.samples", "count"),
    ("sim.recorder.record_ns", "ns"),
    ("sim.campaign.cell_build_us", "us"),
    ("sim.campaign.cell_run_us", "us"),
    ("sim.campaign.cell_reduce_us", "us"),
    ("sim.campaign.orchestration_gap_ms", "ms"),
    ("sim.executor.dispatch_us", "us"),
    ("sim.executor.busy_ratio", "ratio"),
    ("sim.persist.csv_encode_ms", "ms"),
    ("sim.persist.write_atomic_ms", "ms"),
    ("sim.persist.report_encode_us", "us"),
    ("sim.persist.report_decode_us", "us"),
    ("sim.persist.bytes", "bytes"),
    ("sim.daemon.submit_ms", "ms"),
    ("sim.daemon.first_row_ms", "ms"),
    ("sim.daemon.stream_ms", "ms"),
    ("sim.daemon.job_ms_p50", "ms"),
    ("sim.daemon.job_ms_p90", "ms"),
    ("sim.daemon.jobs", "count"),
    ("sim.daemon.files_per_job", "count"),
    ("sim.daemon.parse_request_ns", "ns"),
    ("trace.untraced_ms", "ms"),
    ("trace.traced_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("bench.nproc", "count"),
    ("bench.threads", "count"),
];

/// Every per-layer metric name with its unit.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .collect();
    for spec in layers::GOVERNORS {
        all.push((format!("governors.decision_ns.{}", spec.slug()), "ns"));
        all.push((format!("sim.engine.run_ms.{}", spec.slug()), "ms"));
    }
    all
}

/// Metric values by name, as measured.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Sets (or replaces) a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (simulations, cells, jobs).
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Measured metrics.
    pub metrics: Metrics,
    /// Digest of the workload's outputs, fixed by the seed.
    pub digest: String,
}

impl Outcome {
    /// Counts `n` operations, of which `failed` failed a check.
    pub fn count(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }
}

/// Settings shared by every workload.
pub struct Config {
    /// Benchmark seed the inputs are made from.
    pub seed: u64,
    /// How long the timed loop runs.
    pub budget: Duration,
    /// Worker threads (and client connections) the load may use.
    pub threads: usize,
    /// Directory inside the checkout for files the run writes.
    pub work_dir: PathBuf,
}

struct Cli {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0, 10, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Cli {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Peak resident set of this process (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Filesystem type of the mount holding `path`, from
/// `/proc/self/mountinfo` (longest matching mount point).
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    info.lines()
        .filter_map(|line| {
            let (left, right) = line.split_once(" - ")?;
            let mount = left.split_whitespace().nth(4)?;
            let fs = right.split_whitespace().next()?;
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

fn json(outcome: &Outcome, names: &[(String, &'static str)]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = outcome.metrics.0.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(why) => {
            eprintln!("perfbench: {why}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work_dir = PathBuf::from(".perfbench");
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", work_dir.display());
        std::process::exit(1);
    }
    let config = Config {
        seed: cli.seed,
        budget: Duration::from_secs(cli.seconds),
        threads: nproc.min(2),
        work_dir,
    };
    let tracer = spans::Tracer::default();
    let tracer = cli.trace.then_some(&tracer);
    let mut outcome = match cli.workload.as_str() {
        "table2_hour" => table2::run(&config, tracer),
        "campaign_sweep" => campaign::run(&config, tracer),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    println!(
        "# env nproc={nproc} threads={} work_dir_fs={}",
        config.threads,
        fs_type(&config.work_dir)
    );
    println!(
        "# digest {} seed={} {}",
        cli.workload, cli.seed, outcome.digest
    );
    let names = if let Some(tracer) = tracer {
        outcome.metrics.set("bench.nproc", nproc as f64);
        outcome.metrics.set("bench.threads", config.threads as f64);
        let path = config.work_dir.join(format!("spans-{}.tsv", cli.workload));
        match tracer.write_tsv(&path) {
            Ok(()) => println!("# spans {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
        per_layer()
    } else {
        outcome.metrics.set("peak_rss_mb", peak_rss_mb());
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name.to_string(), unit))
            .collect()
    };
    println!("{}", json(&outcome, &names));
}
