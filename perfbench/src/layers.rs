//! Per-layer replays for the traced run.
//!
//! The engine's inner layers run inside `Simulation::run`, where the
//! benchmark cannot put spans. Instead the traced run keeps the reports
//! of the workload's own simulations and replays their recorded inputs
//! through each layer's public functions: irradiance sampling at the
//! recorded times, the PV solve on the recorded (VC, G) pairs, governor
//! decisions on the trajectory's threshold edges and sampling ticks,
//! the recorder on the recorded snapshots, and the cell reduction.

use crate::spans::Span;
use crate::stats::{fit_costs, RunCost};
use crate::Metrics;
use pn_analysis::metrics::{fraction_within_band, time_integral};
use pn_circuit::solar::SolarCell;
use pn_circuit::surface::PanelSurface;
use pn_core::events::{Governor, GovernorAction, GovernorEvent, ThresholdEdge};
use pn_core::governor::PowerNeutralGovernor;
use pn_core::params::ControlParams;
use pn_governors::{
    BudgetShift, Conservative, Interactive, Ondemand, Performance, Powersave, RaceToIdle,
};
use pn_harvest::irradiance::{IrradianceCursor, IrradianceTrace};
use pn_sim::campaign::GovernorSpec;
use pn_sim::engine::SimReport;
use pn_sim::recorder::{Recorder, Snapshot};
use pn_sim::scenario::Scenario;
use pn_sim::supply::{Supply, SupplyModel};
use pn_soc::cores::CoreConfig;
use pn_soc::opp::Opp;
use pn_soc::platform::Platform;
use pn_units::{Amps, Seconds, Volts, Watts, WattsPerSquareMeter};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Every governor a workload can run, in the order metrics list them.
pub const GOVERNORS: [GovernorSpec; 8] = [
    GovernorSpec::PowerNeutral,
    GovernorSpec::Performance,
    GovernorSpec::Powersave,
    GovernorSpec::Ondemand,
    GovernorSpec::Conservative,
    GovernorSpec::Interactive,
    GovernorSpec::RaceToIdle,
    GovernorSpec::BudgetShift,
];

/// Each replay repeats its pass until it has run this long, so short
/// inputs still give a stable per-call time.
const MIN_REPLAY_NS: u128 = 40_000_000;

/// One finished simulation with the inputs it ran on.
pub struct Recorded {
    /// The run's irradiance trace.
    pub trace: Arc<IrradianceTrace>,
    /// The PV array model.
    pub cell: SolarCell,
    /// The report, with its recorded trajectory.
    pub report: SimReport,
}

impl Recorded {
    /// Pairs a photovoltaic scenario's supply with the report it
    /// produced; `None` for a controlled supply.
    pub fn new(scenario: &Scenario, report: SimReport) -> Option<Self> {
        match scenario.supply() {
            Supply::Photovoltaic { cell, irradiance } => Some(Self {
                trace: Arc::clone(irradiance),
                cell: *cell,
                report,
            }),
            Supply::Controlled { .. } => None,
        }
    }

    fn times(&self) -> &[f64] {
        self.report.recorder().vc().times()
    }

    fn vcs(&self) -> &[f64] {
        self.report.recorder().vc().values()
    }
}

/// Repeats `pass` (which returns the calls it made) until
/// [`MIN_REPLAY_NS`] has elapsed; returns ns per call.
fn per_call_ns(mut pass: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    loop {
        calls += pass();
        let elapsed = start.elapsed().as_nanos();
        if calls == 0 {
            return 0.0;
        }
        if elapsed >= MIN_REPLAY_NS {
            return elapsed as f64 / calls as f64;
        }
    }
}

/// Replays every layer below the engine on `runs` and adds the
/// `harvest.irradiance_*`, `circuit.*`, `governors.*`,
/// `sim.recorder.*` and `sim.campaign.cell_reduce_us` metrics.
pub fn replay_all(runs: &[Recorded], platform: &Platform, metrics: &mut Metrics) {
    let samples: usize = runs.iter().map(|r| r.times().len()).sum();
    metrics.set("sim.recorder.samples", samples as f64);
    if samples == 0 {
        return;
    }
    metrics.set(
        "harvest.irradiance_sample_ns",
        per_call_ns(|| {
            for run in runs {
                for &t in run.times() {
                    black_box(run.trace.sample(Seconds::new(black_box(t))));
                }
            }
            samples as u64
        }),
    );
    metrics.set(
        "harvest.irradiance_cursor_ns",
        per_call_ns(|| {
            for run in runs {
                let mut cursor = IrradianceCursor::new();
                for &t in run.times() {
                    black_box(cursor.sample(&run.trace, Seconds::new(black_box(t))));
                }
            }
            samples as u64
        }),
    );
    replay_pv(runs, samples as u64, metrics);
    for spec in GOVERNORS {
        let ns = per_call_ns(|| {
            runs.iter()
                .map(|run| replay_governor(spec, platform, run.times(), run.vcs()))
                .sum()
        });
        metrics.set(&format!("governors.decision_ns.{}", spec.slug()), ns);
    }
    metrics.set(
        "sim.recorder.record_ns",
        per_call_ns(|| replay_recorder(runs)),
    );
    let target = platform.target_voltage().value();
    let reduce_ns = per_call_ns(|| {
        for run in runs {
            black_box(reduce(&run.report, target));
        }
        runs.len() as u64
    });
    metrics.set("sim.campaign.cell_reduce_us", reduce_ns / 1e3);
}

/// Engine metrics of a traced repetition: the `sim.engine.run.<slug>`
/// spans (per governor, their mean, and their total over the untraced
/// repetition's wall) and the quiet-versus-per-transition cost fit.
pub fn engine_metrics(spans: &[Span], untraced_ns: f64, costs: &[RunCost], m: &mut Metrics) {
    let runs: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name.starts_with("sim.engine.run."))
        .collect();
    let total: u64 = runs.iter().map(|s| s.duration_ns()).sum();
    m.set("sim.engine.span_coverage", total as f64 / untraced_ns);
    m.set(
        "sim.campaign.cell_run_us",
        total as f64 / runs.len() as f64 / 1e3,
    );
    for spec in GOVERNORS {
        let name = format!("sim.engine.run.{}", spec.slug());
        let ns: u64 = runs
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns())
            .sum();
        m.set(
            &format!("sim.engine.run_ms.{}", spec.slug()),
            ns as f64 / 1e6,
        );
    }
    let transitions: u64 = costs.iter().map(|c| c.transitions).sum();
    m.set("sim.engine.transitions", transitions as f64);
    if let Some(fit) = fit_costs(costs) {
        m.set("sim.engine.quiet_ns_per_sim_s", fit.quiet_ns_per_sim_s);
        m.set("sim.engine.ns_per_transition", fit.ns_per_transition);
    }
}

/// The reduction a campaign cell applies to its finished report:
/// time in the ±5 % band, harvested and consumed energy.
pub fn reduce(report: &SimReport, target: f64) -> Option<(f64, f64, f64)> {
    let recorder = report.recorder();
    Some((
        fraction_within_band(recorder.vc(), target, 0.05).ok()?,
        time_integral(recorder.power_in()).ok()?,
        time_integral(recorder.power_out()).ok()?,
    ))
}

fn replay_pv(runs: &[Recorded], samples: u64, metrics: &mut Metrics) {
    let pairs: Vec<Vec<(Volts, WattsPerSquareMeter)>> = runs
        .iter()
        .map(|run| {
            run.times()
                .iter()
                .zip(run.vcs())
                .map(|(&t, &vc)| (Volts::new(vc), run.trace.sample(Seconds::new(t))))
                .collect()
        })
        .collect();
    metrics.set(
        "circuit.pv_solve_exact_ns",
        per_call_ns(|| {
            for (run, pairs) in runs.iter().zip(&pairs) {
                // Warm-started from the previous root, as the engine's
                // supply state does.
                let mut root = None;
                for &(v, g) in pairs {
                    let i = run.cell.current_seeded(black_box(v), g, root).ok();
                    root = i.map(|i| i.value());
                }
                black_box(root);
            }
            samples
        }),
    );
    let tol = Amps::new(SupplyModel::DEFAULT_INTERPOLATION_TOL);
    let surfaces: Vec<Option<Arc<PanelSurface>>> = runs
        .iter()
        .map(|run| PanelSurface::shared(&run.cell, tol).ok())
        .collect();
    metrics.set(
        "circuit.pv_solve_surface_ns",
        per_call_ns(|| {
            let mut calls = 0;
            for (surface, pairs) in surfaces.iter().zip(&pairs) {
                let Some(surface) = surface else { continue };
                for &(v, g) in pairs {
                    black_box(surface.current(black_box(v), g).ok());
                }
                calls += pairs.len() as u64;
            }
            calls
        }),
    );
}

/// A fresh governor of kind `spec`, configured as campaign cells
/// configure it.
pub fn governor(spec: GovernorSpec, platform: &Platform) -> Box<dyn Governor> {
    let table = platform.frequencies().clone();
    match spec {
        GovernorSpec::PowerNeutral => Box::new(
            PowerNeutralGovernor::new(
                ControlParams::paper_optimal().expect("paper preset valid"),
                platform,
            )
            .expect("paper preset valid"),
        ),
        GovernorSpec::Performance => Box::new(Performance::new()),
        GovernorSpec::Ondemand => Box::new(Ondemand::new(table)),
        GovernorSpec::Conservative => Box::new(Conservative::new(table)),
        GovernorSpec::Interactive => Box::new(Interactive::new(table)),
        GovernorSpec::RaceToIdle => Box::new(RaceToIdle::new()),
        GovernorSpec::BudgetShift => Box::new(BudgetShift::for_platform(platform)),
        _ => Box::new(Powersave::new()),
    }
}

/// Drives a fresh `spec` governor along one recorded trajectory and
/// returns the number of decisions it made. Interrupt-driven governors
/// see an edge whenever the recorded `VC` lies beyond the thresholds
/// they programmed; sampling governors see a tick every period (at
/// full load, as the saturated workload runs); governors with neither
/// see every recorded sample as a tick.
pub fn replay_governor(spec: GovernorSpec, platform: &Platform, ts: &[f64], vcs: &[f64]) -> u64 {
    let (Some(&t0), Some(&vc0)) = (ts.first(), vcs.first()) else {
        return 0;
    };
    let mut gov = governor(spec, platform);
    let uses_irq = gov.uses_threshold_interrupts();
    let period = gov.tick_period().map(|p| p.value());
    // As `Scenario::build_governor` starts them.
    let mut current = if uses_irq {
        Opp::lowest()
    } else {
        Opp::new(CoreConfig::MAX, 0)
    };
    let mut thresholds = None;
    let action = gov.start(Seconds::new(t0), Volts::new(vc0), current);
    apply(action, &mut current, &mut thresholds);
    let mut decisions = 0;
    let mut decide = |event: GovernorEvent, current: &mut Opp, thresholds: &mut _| {
        let action = gov.on_event(&event, *current);
        apply(action, current, thresholds);
        decisions += 1;
    };
    if uses_irq {
        for (&t, &vc) in ts.iter().zip(vcs).skip(1) {
            let Some((high, low)) = thresholds else {
                continue;
            };
            let edge = if vc >= high.value() {
                ThresholdEdge::High
            } else if vc <= low.value() {
                ThresholdEdge::Low
            } else {
                continue;
            };
            let (vc, t) = (Volts::new(vc), Seconds::new(t));
            decide(
                GovernorEvent::ThresholdCrossed { edge, vc, t },
                &mut current,
                &mut thresholds,
            );
        }
    } else if let Some(period) = period {
        let t_end = ts[ts.len() - 1];
        let mut t = t0 + period;
        let mut idx = 0;
        while t <= t_end {
            while idx + 1 < ts.len() && ts[idx + 1] <= t {
                idx += 1;
            }
            let (vc, at) = (Volts::new(vcs[idx]), Seconds::new(t));
            decide(
                GovernorEvent::Tick {
                    t: at,
                    vc,
                    load: 1.0,
                },
                &mut current,
                &mut thresholds,
            );
            t += period;
        }
    } else {
        for (&t, &vc) in ts.iter().zip(vcs).skip(1) {
            let (vc, t) = (Volts::new(vc), Seconds::new(t));
            decide(
                GovernorEvent::Tick { t, vc, load: 1.0 },
                &mut current,
                &mut thresholds,
            );
        }
    }
    black_box(current);
    decisions
}

fn apply(action: GovernorAction, current: &mut Opp, thresholds: &mut Option<(Volts, Volts)>) {
    if let Some(opp) = action.target_opp {
        *current = opp;
    }
    if action.thresholds.is_some() {
        *thresholds = action.thresholds;
    }
}

/// Re-records every run's snapshots into a fresh recorder; returns the
/// snapshots recorded.
fn replay_recorder(runs: &[Recorded]) -> u64 {
    let mut calls = 0;
    for run in runs {
        let r = run.report.recorder();
        let n = r.len();
        let series = [
            r.vc().values(),
            r.frequency_ghz().values(),
            r.little_cores().values(),
            r.big_cores().values(),
            r.power_out().values(),
            r.power_in().values(),
            r.v_high().values(),
            r.v_low().values(),
        ];
        let times = r.vc().times();
        let mut fresh = Recorder::with_capacity(n);
        for i in 0..n {
            fresh.record(&Snapshot {
                t: Seconds::new(times[i]),
                vc: Volts::new(series[0][i]),
                frequency_ghz: series[1][i],
                little_cores: series[2][i] as u8,
                big_cores: series[3][i] as u8,
                power_out: Watts::new(series[4][i]),
                power_in: Watts::new(series[5][i]),
                v_high: Volts::new(series[6][i]),
                v_low: Volts::new(series[7][i]),
            });
        }
        black_box(&fresh);
        calls += n as u64;
    }
    calls
}
