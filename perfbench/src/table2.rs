//! `table2_hour`: the paper's 60-minute Table II experiment.
//!
//! Each repetition runs `scenario::table2_hour` for the reference seed
//! block under the Table II line-up (performance, ondemand,
//! interactive, conservative, powersave, power-neutral) plus
//! budget-shift, one simulation at a time on one thread. The benchmark
//! seed fixes the order of the 56 runs. The block itself is fixed:
//! engine cost follows the number of OPP transitions, which ranges
//! from 0 to 62,000 per seed, so a block drawn from the benchmark seed
//! would move the per-second cost, and the gain error, by more than
//! any bound a regression check can use.

use crate::digest::Digest;
use crate::layers::{self, Recorded};
use crate::spans::Tracer;
use crate::stats::{self, RunCost};
use crate::{Config, Outcome};
use pn_sim::campaign::GovernorSpec;
use pn_sim::engine::SimReport;
use pn_sim::scenario::{self, Scenario};
use pn_soc::platform::Platform;
use std::time::Instant;

/// The reference seed block.
const SEEDS: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// Table II's line-up plus budget-shift, which drives the same engine
/// through periodic sampling ticks instead of threshold interrupts.
const LINEUP: [GovernorSpec; 7] = [
    GovernorSpec::Performance,
    GovernorSpec::Ondemand,
    GovernorSpec::Interactive,
    GovernorSpec::Conservative,
    GovernorSpec::Powersave,
    GovernorSpec::PowerNeutral,
    GovernorSpec::BudgetShift,
];

/// The paper's instruction gain of power-neutral over powersave.
const PAPER_GAIN: f64 = 1.69;

/// Set-ups timed per run; the median is reported.
const SETUPS: usize = 25;

/// One simulation of a repetition.
struct RunResult {
    wall_ns: f64,
    /// `None` when the engine returned an error.
    report: Option<SimReport>,
}

impl RunResult {
    fn digest(&self) -> Option<u64> {
        let r = self.report.as_ref()?;
        Some(
            Digest::default()
                .u64(r.transitions())
                .f64(r.work().instructions())
                .f64(r.final_vc().value())
                .f64(r.lifetime_or_duration().value())
                .value(),
        )
    }
}

fn setup() -> Vec<Scenario> {
    SEEDS
        .iter()
        .map(|&seed| scenario::table2_hour(seed))
        .collect()
}

/// Every (seed, governor) pair, shuffled by the benchmark seed.
fn run_order(seed: u64) -> Vec<(usize, usize)> {
    let mut order: Vec<(usize, usize)> = (0..SEEDS.len())
        .flat_map(|s| (0..LINEUP.len()).map(move |g| (s, g)))
        .collect();
    let mut state = seed;
    for i in (1..order.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Runs one repetition; results are indexed `[seed][governor]`. With a
/// tracer, each run gets a `sim.engine.run` span under a repetition
/// span.
fn repetition(
    scenarios: &[Scenario],
    order: &[(usize, usize)],
    trace: Option<(&Tracer, u64)>,
) -> (f64, Vec<Vec<RunResult>>) {
    let mut results: Vec<Vec<Option<RunResult>>> = (0..SEEDS.len())
        .map(|_| (0..LINEUP.len()).map(|_| None).collect())
        .collect();
    let rep = trace.map(|(tracer, group)| tracer.enter("table2.rep", group, None));
    let start = Instant::now();
    for &(s, g) in order {
        let spec = LINEUP[g];
        let t0 = Instant::now();
        let report = match trace {
            Some((tracer, group)) => {
                let name = format!("sim.engine.run.{}", spec.slug());
                tracer.time(&name, group, rep, || spec.run(&scenarios[s])).0
            }
            None => spec.run(&scenarios[s]),
        };
        let wall_ns = t0.elapsed().as_nanos() as f64;
        results[s][g] = Some(RunResult {
            wall_ns,
            report: report.ok(),
        });
    }
    let wall_ns = start.elapsed().as_nanos() as f64;
    if let (Some((tracer, _)), Some(rep)) = (trace, rep) {
        tracer.exit(rep);
    }
    let results = results
        .into_iter()
        .map(|row| {
            row.into_iter()
                .map(|r| r.expect("every pair runs once"))
                .collect()
        })
        .collect();
    (wall_ns, results)
}

/// Checks one repetition against the first: every run returns `Ok`,
/// power-neutral and powersave survive the hour, and every run's
/// digest matches. Returns the runs that failed.
fn failures(results: &[Vec<RunResult>], reference: &[Vec<Option<u64>>]) -> u64 {
    let mut failed = 0;
    for (row, digests) in results.iter().zip(reference) {
        for ((spec, run), digest) in LINEUP.iter().zip(row).zip(digests) {
            let must_survive = matches!(spec, GovernorSpec::PowerNeutral | GovernorSpec::Powersave);
            let ok = match &run.report {
                Some(report) => (!must_survive || report.survived()) && run.digest() == *digest,
                None => false,
            };
            failed += u64::from(!ok);
        }
    }
    failed
}

fn simulated_seconds(results: &[Vec<RunResult>]) -> f64 {
    results
        .iter()
        .flatten()
        .filter_map(|r| r.report.as_ref())
        .map(|r| r.lifetime_or_duration().value())
        .sum()
}

/// `|mean over the seeds of (power-neutral ÷ powersave instructions)
/// ÷ 1.69 − 1|`.
fn gain_err(results: &[Vec<RunResult>]) -> f64 {
    let index = |spec| {
        LINEUP
            .iter()
            .position(|&g| g == spec)
            .expect("in the line-up")
    };
    let (pn, ps) = (
        index(GovernorSpec::PowerNeutral),
        index(GovernorSpec::Powersave),
    );
    let ratios: Vec<f64> = results
        .iter()
        .filter_map(|row| {
            let pn = row[pn].report.as_ref()?.work().instructions();
            let ps = row[ps].report.as_ref()?.work().instructions();
            (ps > 0.0).then(|| pn / ps)
        })
        .collect();
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    (mean / PAPER_GAIN - 1.0).abs()
}

pub fn run(config: &Config, tracer: Option<&Tracer>) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut scenarios = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        scenarios = setup();
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let order = run_order(config.seed);
    let runs = (SEEDS.len() * LINEUP.len()) as u64;

    // The first repetition warms the process up; every later one must
    // reproduce its digests.
    let start = Instant::now();
    let (_, first) = repetition(&scenarios, &order, None);
    let reference: Vec<Vec<Option<u64>>> = first
        .iter()
        .map(|row| row.iter().map(RunResult::digest).collect())
        .collect();
    out.count(runs, failures(&first, &reference));
    out.metrics.set("gain_err", gain_err(&first));
    out.digest = reference
        .iter()
        .flatten()
        .fold(Digest::default(), |d, x| d.u64(x.unwrap_or(0)))
        .hex();

    if let Some(tracer) = tracer {
        traced(&scenarios, &order, tracer, &reference, &mut out);
        return out;
    }
    // Host speed drifts over tens of seconds, so the timed repetitions
    // are pooled (total wall over total work) rather than reduced to
    // the median repetition, which would report one drift state.
    let (mut wall_ns, mut sim_s, mut cells) = (0.0, 0.0, 0.0);
    while cells == 0.0 || start.elapsed() < config.budget {
        let (rep_ns, results) = repetition(&scenarios, &order, None);
        out.count(runs, failures(&results, &reference));
        wall_ns += rep_ns;
        sim_s += simulated_seconds(&results);
        cells += runs as f64;
    }
    out.metrics.set("setup_s", stats::median(&setup_s));
    out.metrics.set("wall_ns_per_sim_s", wall_ns / sim_s);
    out.metrics.set("ns_per_cell", wall_ns / cells);
    out
}

/// The traced run: one untraced and one traced repetition (their
/// difference is the tracing overhead), then replays of the traced
/// repetition's recorded inputs through each layer.
fn traced(
    scenarios: &[Scenario],
    order: &[(usize, usize)],
    tracer: &Tracer,
    reference: &[Vec<Option<u64>>],
    out: &mut Outcome,
) {
    let runs = (SEEDS.len() * LINEUP.len()) as u64;
    let (untraced_ns, results) = repetition(scenarios, order, None);
    out.count(runs, failures(&results, reference));
    let (traced_ns, results) = repetition(scenarios, order, Some((tracer, 1)));
    out.count(runs, failures(&results, reference));
    let m = &mut out.metrics;
    m.set("trace.untraced_ms", untraced_ns / 1e6);
    m.set("trace.traced_ms", traced_ns / 1e6);
    m.set("trace.overhead_ms", (traced_ns - untraced_ns) / 1e6);

    let mut costs = Vec::new();
    let mut recorded = Vec::new();
    for (row, scenario) in results.into_iter().zip(scenarios) {
        for run in row {
            let Some(report) = run.report else { continue };
            costs.push(RunCost {
                wall_ns: run.wall_ns,
                sim_s: report.lifetime_or_duration().value(),
                transitions: report.transitions(),
            });
            recorded.extend(Recorded::new(scenario, report));
        }
    }
    layers::engine_metrics(&tracer.spans(), untraced_ns, &costs, m);

    // A Table II "cell" builds one hour per seed and shares it across
    // the line-up.
    let build_ns: Vec<f64> = SEEDS
        .iter()
        .map(|&seed| {
            let (scenario, ns) = tracer.time("sim.campaign.cell_build", 1, None, || {
                scenario::table2_hour(seed)
            });
            std::hint::black_box(scenario);
            ns as f64
        })
        .collect();
    m.set("sim.campaign.cell_build_us", stats::median(&build_ns) / 1e3);
    layers::replay_all(&recorded, &Platform::odroid_xu4(), m);
}

/// SplitMix64: expands the benchmark seed into the run order.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_order_is_a_seeded_permutation() {
        let order = run_order(7);
        assert_eq!(order, run_order(7));
        assert_ne!(order, run_order(8));
        let mut sorted = order.clone();
        sorted.sort_unstable();
        let all: Vec<_> = (0..SEEDS.len())
            .flat_map(|s| (0..LINEUP.len()).map(move |g| (s, g)))
            .collect();
        assert_eq!(sorted, all);
    }
}
