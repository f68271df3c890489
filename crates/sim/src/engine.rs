//! The hybrid continuous/discrete simulation engine.
//!
//! The engine runs a [`Scenario`] as it stands: the scenario owns the
//! platform, supply, buffer, initial `VC` and [`SimOptions`], and its
//! `run_*` methods hand it, a governor and the initial OPP to this
//! module's one entry, which checks the options, builds the loop state
//! and steps it to the end of the window.
//!
//! Between events the buffer node is integrated with the adaptive RK23
//! solver (`ode23`, as in the paper's Simulink model). Under the exact
//! PV model the integrated state is the array's junction voltage
//! `V_d = VC + R_s·I`, in which the single-diode equation is explicit,
//! so no stage solves it; under the interpolated model it is `VC`
//! itself ([`SupplyState`] owns the change of variable). Each accepted
//! step is re-expressed as a cubic Hermite in `VC` through its stages'
//! `(VC, dVC/dt)`. When a monitored level or a band edge is within its
//! reach, the cubic is cut at its stationary points ([`StepCubic`]),
//! and crossings on its monotone pieces are found by safeguarded
//! Newton. A step that ends with no event hands its last stage to the
//! next step as its first (FSAL) when that step starts there under the
//! same load. A controlled supply pins `VC` to a piecewise-linear
//! waveform, whose segments are its monotone pieces, crossed in closed
//! form. On both supplies, threshold and brownout crossings and band
//! residency come from the same helpers over monotone pieces
//! ([`first_crossing_on`], [`time_in_band_on`]).
//!
//! Governor actions start multi-step OPP transitions whose per-step
//! latencies and pre-step power draws feed back into the ODE. Threshold
//! interrupts are masked while a transition is in flight (the buffer
//! capacitor's job is to carry the board through exactly this window)
//! and re-checked when it completes, which reproduces the rapid
//! response cascades visible in the paper's Fig. 6.
//!
//! Only discrete events that change the load end a step: transition
//! steps, governor ticks, thermal events and arrival edges. A
//! post-action threshold recheck is an observation, resolved on the
//! dense output of the step that passes it; it cuts the step only when
//! it delivers an edge.
//!
//! A run's outcomes are accrued as it steps: work, transitions and
//! residencies by the SoC runtime, and energy and `VC` band residency
//! by the lane over each accepted step (see [`SimReport`]). The
//! recorder is the lane's optional observer: a run records a trace
//! only when [`SimOptions::record_dt`] asks for one, and no reported
//! number depends on whether, or how often, it records.

use crate::recorder::{Recorder, Snapshot};
use crate::runtime::SocRuntime;
use crate::scenario::Scenario;
use crate::supply::{OperatingPoint, Supply, SupplyModel, SupplyState};
use crate::SimError;
use pn_circuit::capacitor::Supercapacitor;
use pn_circuit::ode::{
    first_crossing_on, time_in_band_on, AcceptedStep, AdaptiveOptions, CrossingDirection, Rk23,
    StepCubic, MIN_STEP,
};
use pn_core::events::{Governor, GovernorAction, GovernorEvent, IdleRequest, ThresholdEdge};
use pn_monitor::monitor::VoltageMonitor;
use pn_soc::opp::Opp;
use pn_soc::thermal::{ThermalSpec, ThermalState};
use pn_soc::transition::{plan_transition, TransitionStrategy};
use pn_units::{Amps, Joules, Seconds, Volts, Watts};
use pn_workload::arrival::{ArrivalSpec, ArrivalTimeline};
use pn_workload::work::WorkAccount;
use std::cell::OnceCell;

/// Dead time after an action before threshold conditions are
/// re-evaluated (comparator + interrupt + handler re-entry), seconds.
/// An assumption: the paper states no re-arm time, and no comparator or
/// kernel datasheet is at hand. It covers the power-neutral handler's
/// own 180 µs and stays below the shortest OPP-transition step of the
/// Fig. 10 latency model, about 1 ms.
const REARM_DELAY: f64 = 300e-6;

/// CPU share of the budgeting software's housekeeping/logging task:
/// 1 ms per 1 s period. An assumption: the paper gives no period or
/// cost for the task. Alone it makes 0.100 % CPU, nearly all of the
/// 0.104 % that Fig. 15 reports for the whole scheme.
const HOUSEKEEPING_SHARE: f64 = 1.0e-3 / 1.0;

/// The RK23 tolerance pair `(rtol, atol)` on the integrated state.
/// Chosen by probe, as Shampine & Reichelt ("The MATLAB ODE Suite",
/// 1997) leave the pair to the problem: over 24 Table II hours (seeds
/// 1–8 × power-neutral, budget-shift and conservative), every
/// transition count and verdict is the same at rtol 1e-6, 1e-8 and
/// 1e-10, and 14 of the 24 counts move at 1e-5. So this is the loosest
/// pair probed that keeps them.
const TOLERANCES: (f64, f64) = (1e-6, 1e-7);

/// Half-width of the `VC` stability band around the platform's target
/// voltage, as a fraction of the target: the paper's ±5 % (Fig. 12).
const BAND: f64 = 0.05;

/// Engine tunables.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// Simulation start time.
    pub t_start: Seconds,
    /// Simulation end time.
    pub t_end: Seconds,
    /// Trace recording interval, or `None` (the default) for a run that
    /// records no trace. Recording only observes the run: besides the
    /// start, every threshold edge, a brownout and the end, the grid
    /// snapshot for each instant `t_start + k·record_dt` is taken at
    /// the end of the first accepted step ending at or after it (one
    /// snapshot serves every instant a step passes), so sample times
    /// are step ends, and no step is shortened to land on the grid.
    /// Every number a [`SimReport`] reports besides the recorder itself
    /// is bitwise the same at any interval and with none.
    pub record_dt: Option<Seconds>,
    /// Maximum step length. It caps each RK23 step on the PV supply and
    /// each advance on the controlled supply, which has no ODE to step.
    /// Threshold crossings are located exactly at any cap, so it bounds
    /// only step and grid-sample spacing: the Fig. 3 and Fig. 6
    /// scenarios set 0.01 s and Fig. 11 sets 0.02 s for chart density.
    pub max_step: Seconds,
    /// Honour governor idle (DPM) requests. When `false`, idle-capable
    /// governors degrade to their awake behaviour.
    pub idle_enabled: bool,
    /// How the PV operating point is evaluated on the hot path (exact
    /// Newton, or the pretabulated interpolation surface).
    pub supply_model: SupplyModel,
    /// Die thermal model (throttle ceiling + boost). `Off` — the
    /// default — tracks no temperature and is bitwise-identical to the
    /// pre-thermal engine.
    pub thermal: ThermalSpec,
    /// Workload-arrival process. `Saturated` — the default — pins
    /// demand at 100 % and is bitwise-identical to the pre-arrival
    /// engine.
    pub arrival: ArrivalSpec,
    /// Seed for the bursty-arrival stream (ignored by `Saturated`).
    pub arrival_seed: u64,
}

impl SimOptions {
    /// Defaults for second-to-hour scale experiments.
    pub fn new(t_end: Seconds) -> Self {
        Self {
            t_start: Seconds::ZERO,
            t_end,
            record_dt: None,
            max_step: Seconds::new(0.05),
            idle_enabled: true,
            supply_model: SupplyModel::Exact,
            thermal: ThermalSpec::Off,
            arrival: ArrivalSpec::Saturated,
            arrival_seed: 0,
        }
    }

    /// Sets the simulated window (builder style).
    pub fn with_span(mut self, t_start: Seconds, t_end: Seconds) -> Self {
        self.t_start = t_start;
        self.t_end = t_end;
        self
    }

    /// Asks for a trace recorded every `dt` (builder style).
    pub fn with_record_dt(mut self, dt: Seconds) -> Self {
        self.record_dt = Some(dt);
        self
    }

    /// Sets the maximum ODE step (builder style).
    pub fn with_max_step(mut self, dt: Seconds) -> Self {
        self.max_step = dt;
        self
    }

    /// Sets the supply evaluation model (builder style).
    pub fn with_supply_model(mut self, model: SupplyModel) -> Self {
        self.supply_model = model;
        self
    }

    /// Enables or disables idle (DPM) requests (builder style).
    pub fn with_idle(mut self, enabled: bool) -> Self {
        self.idle_enabled = enabled;
        self
    }

    /// Selects the die thermal model (builder style).
    pub fn with_thermal(mut self, thermal: ThermalSpec) -> Self {
        self.thermal = thermal;
        self
    }

    /// Selects the workload-arrival process and its stream seed
    /// (builder style).
    pub fn with_arrival(mut self, arrival: ArrivalSpec, seed: u64) -> Self {
        self.arrival = arrival;
        self.arrival_seed = seed;
        self
    }
}

/// Outcome of a completed simulation.
///
/// Reports compare by value, the recorded trace included, so two runs
/// of the same scenario can be checked for bitwise identity. A run that
/// recorded no trace holds an empty [`Recorder`], so it equals a
/// recorded run of the same scenario in every field but that one.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    governor: String,
    recorder: Recorder,
    lifetime: Option<Seconds>,
    duration: Seconds,
    work: WorkAccount,
    control_cpu: Seconds,
    transitions: u64,
    idle_time: Seconds,
    idle_entries: u64,
    peak_temp_c: f64,
    throttle_time: Seconds,
    boost_time: Seconds,
    final_vc: Volts,
    energy_in: Joules,
    energy_out: Joules,
    energy_leaked: Joules,
    band_time: Seconds,
}

impl SimReport {
    /// The governor that was driving.
    pub fn governor(&self) -> &str {
        &self.governor
    }

    /// The recorded traces: empty, with nothing allocated, when the run
    /// was not asked to record ([`SimOptions::record_dt`]).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Time of brownout, measured from the simulation start, or `None`
    /// when the board survived the whole window.
    pub fn lifetime(&self) -> Option<Seconds> {
        self.lifetime
    }

    /// Lifetime as reported in Table II: the brownout time, or the
    /// full window when the board survived.
    pub fn lifetime_or_duration(&self) -> Seconds {
        self.lifetime.unwrap_or(self.duration)
    }

    /// `true` when the board never browned out.
    pub fn survived(&self) -> bool {
        self.lifetime.is_none()
    }

    /// Length of the simulated window.
    pub fn duration(&self) -> Seconds {
        self.duration
    }

    /// Completed work.
    pub fn work(&self) -> &WorkAccount {
        &self.work
    }

    /// CPU fraction consumed by the power-budgeting software
    /// (Fig. 15's headline number).
    pub fn control_cpu_fraction(&self) -> f64 {
        let alive = self.lifetime_or_duration().value();
        if alive > 0.0 {
            self.control_cpu.value() / alive
        } else {
            0.0
        }
    }

    /// Number of OPP transitions performed.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Time spent resident in idle (DPM) states.
    pub fn idle_time(&self) -> Seconds {
        self.idle_time
    }

    /// Number of idle-state entries performed.
    pub fn idle_entries(&self) -> u64 {
        self.idle_entries
    }

    /// Hottest die temperature reached, °C. Ambient (or 0.0 with the
    /// thermal model off) when the die never heated.
    pub fn peak_temp_c(&self) -> f64 {
        self.peak_temp_c
    }

    /// Time spent with the thermal throttle ceiling engaged.
    pub fn throttle_time(&self) -> Seconds {
        self.throttle_time
    }

    /// Time spent in the thermal boost state.
    pub fn boost_time(&self) -> Seconds {
        self.boost_time
    }

    /// Final capacitor voltage.
    pub fn final_vc(&self) -> Volts {
        self.final_vc
    }

    /// Energy the harvester delivered into the buffer node while the
    /// board was alive: `∫ VC·I_pv dt`, integrated alongside `VC` by
    /// each RK23 step from the PV currents its own stages evaluated (no
    /// extra solve). A controlled supply delivers exactly what the load
    /// draws, so there this equals [`SimReport::energy_out`].
    pub fn energy_in(&self) -> Joules {
        self.energy_in
    }

    /// Energy the board and monitor drew while alive: `∫ P_load dt`,
    /// exact because the load is constant between discontinuities.
    pub fn energy_out(&self) -> Joules {
        self.energy_out
    }

    /// Energy lost through the buffer's leakage resistance while alive:
    /// `∫ VC²/R_leak dt` (zero on a controlled supply, which pins `VC`).
    /// With the stored-energy change it closes the PV energy balance
    /// `E_in = E_out + E_leaked + ½C(V_end² − V_0²)`.
    pub fn energy_leaked(&self) -> Joules {
        self.energy_leaked
    }

    /// Fraction of the lifetime (or full window) `VC` spent within ±5 %
    /// of the platform's target voltage, resolved on each step's dense
    /// output — the paper's Fig. 12 stability metric.
    pub fn vc_stability(&self) -> f64 {
        let alive = self.lifetime_or_duration().value();
        if alive > 0.0 {
            self.band_time.value() / alive
        } else {
            0.0
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CrossKind {
    Brownout,
    Edge(ThresholdEdge),
}

struct AdvanceOutcome {
    t: f64,
    vc: f64,
    /// The integrator's state at `t` (see [`SupplyState::state`]).
    y: f64,
    /// Source current at `(t, vc)`, amps (zero for a controlled supply).
    i_in: f64,
    event: Option<CrossKind>,
    /// What the advanced span accrued.
    accrued: Accrued,
    /// The last stage of a step that ended at `(t, y)`.
    fsal: Option<Fsal>,
}

/// The last RK23 stage of an accepted step that ended with no event:
/// the right-hand side at the step's end under the load it ran with.
/// The next step's first stage is the same evaluation when it starts
/// from the bit-identical `(t, y)` on the bit-identical load (first
/// same as last), so it is taken from here instead.
#[derive(Debug, Clone, Copy)]
struct Fsal {
    /// `(t, y, p_load)` the stage was evaluated at.
    at: [f64; 3],
    /// `(VC, I, dVC/dt)` there.
    stage: [f64; 3],
    /// The state's rate `dy/dt` there.
    rate: f64,
}

/// Energy and `VC` band residency, accrued per accepted step while the
/// board is alive.
#[derive(Debug, Clone, Copy, Default)]
struct Accrued {
    /// `∫ VC·I_in dt`, joules.
    energy_in: f64,
    /// `∫ P_load dt`, joules.
    energy_out: f64,
    /// `∫ VC²/R_leak dt`, joules.
    energy_leaked: f64,
    /// Time with `VC` inside the stability band, seconds.
    band_time: f64,
}

impl Accrued {
    fn add(&mut self, step: &Accrued) {
        self.energy_in += step.energy_in;
        self.energy_out += step.energy_out;
        self.energy_leaked += step.energy_leaked;
        self.band_time += step.band_time;
    }
}

/// Runs `scenario` under `governor` from `initial_opp` to completion:
/// the engine entry behind every `Scenario::run_*`.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for a window that is empty or
/// has an end that is not finite, an initial voltage outside a sane
/// range, a `max_step` that is not finite and above the solver's
/// [`MIN_STEP`] or a `record_dt` that is not finite and positive, and
/// [`SimError::Soc`] for a thermal model that [`ThermalSpec::validate`]
/// rejects. Otherwise propagates solver and monitor failures; these
/// indicate a mis-assembled scenario, not a brownout (brownouts are
/// reported in the [`SimReport`]).
pub(crate) fn run(
    scenario: &Scenario,
    governor: Box<dyn Governor>,
    initial_opp: Opp,
) -> Result<SimReport, SimError> {
    let options = scenario.options();
    let (t_start, t_end) = (options.t_start.value(), options.t_end.value());
    if !(t_start < t_end && t_start.is_finite() && t_end.is_finite()) {
        return Err(SimError::InvalidConfig("simulation window must be finite and non-empty"));
    }
    let initial_vc = scenario.initial_vc.value();
    if !(initial_vc > 0.0) || initial_vc > 10.0 {
        return Err(SimError::InvalidConfig("initial vc out of range"));
    }
    // A cap at or below the minimum step leaves the solver no step
    // to take, and the controlled supply's span no progress.
    let max_step = options.max_step.value();
    if !(max_step > MIN_STEP && max_step.is_finite()) {
        return Err(SimError::InvalidConfig("max_step must be finite and above MIN_STEP"));
    }
    if let Some(record_dt) = options.record_dt.map(Seconds::value) {
        if !(record_dt > 0.0 && record_dt.is_finite()) {
            return Err(SimError::InvalidConfig("record_dt must be finite and positive"));
        }
    }
    options.thermal.validate()?;
    let mut lane = Lane::start(scenario, governor, initial_opp)?;
    while !lane.done() {
        lane.step()?;
    }
    lane.finish()
}

/// One in-flight simulation between loop iterations: every variable of
/// the simulation loop — runtime, recorder, solver, supply state, event
/// bookkeeping. [`run`] is its only driver.
struct Lane {
    supply: Supply,
    buffer: Supercapacitor,
    monitor: VoltageMonitor,
    governor: Box<dyn Governor>,
    opts: SimOptions,
    vmin: f64,
    uses_irq: bool,
    t_start: f64,
    t_end: f64,
    runtime: SocRuntime,
    /// The trace, when the run was asked to record one.
    recorder: Option<Recorder>,
    supply_state: SupplyState,
    solver: Rk23,
    /// The last stage of the step that ended at `(t, y)`, if it ended
    /// with no event.
    fsal: Option<Fsal>,
    t: f64,
    vc: f64,
    /// The integrator's state at `t`: the PV junction voltage under the
    /// exact model, `vc` otherwise.
    y: f64,
    /// Source current at `(t, vc)`, amps: the last evaluation the
    /// integrator or an event made there (zero for a controlled
    /// supply). Snapshots read it, so recording never solves the PV
    /// model.
    i_in: f64,
    /// The `VC` stability band, `[lo, hi]` volts.
    band: (f64, f64),
    /// Energy and band residency accrued so far.
    accrued: Accrued,
    next_tick: Option<f64>,
    /// When the post-action threshold recheck falls due: an
    /// observation resolved inside the step that reaches it, unless it
    /// coincides with the next discrete boundary.
    recheck_at: Option<f64>,
    /// Next recording grid instant (observation only: not a boundary).
    next_record: f64,
    /// Die thermal state — `None` iff [`SimOptions::thermal`] is `Off`,
    /// in which case no thermal code touches the hot path at all.
    thermal: Option<ThermalState>,
    /// Expanded arrival timeline (one flat segment for `Saturated`).
    arrival: ArrivalTimeline,
    /// Duty of the arrival segment containing `t` (cached; refreshed
    /// at segment edges).
    arrival_duty: f64,
}

impl Lane {
    /// Performs the one-time setup (governor start-up, initial
    /// snapshot) and hands back the per-simulation loop state that
    /// [`run`] steps to completion.
    fn start(
        scenario: &Scenario,
        mut governor: Box<dyn Governor>,
        initial_opp: Opp,
    ) -> Result<Lane, SimError> {
        let opts = *scenario.options();
        let platform = scenario.platform();
        let vmin = platform.voltage_window().min.value();
        let uses_irq = governor.uses_threshold_interrupts();

        let runtime = SocRuntime::new(platform.clone(), initial_opp);
        // Preallocate a requested trace from the known window and
        // recording interval (plus slack for event snapshots); clamped
        // so a tiny record_dt cannot demand absurd memory up front.
        let recorder = opts.record_dt.map(|dt| {
            let expected = (((opts.t_end - opts.t_start) / dt).ceil() as usize)
                .saturating_add(16)
                .min(1 << 22);
            Recorder::with_capacity(expected)
        });
        let supply = scenario.supply().clone();
        let mut supply_state = SupplyState::new(&supply, opts.supply_model)?;
        let solver = Rk23::new(AdaptiveOptions::new(opts.max_step.value(), TOLERANCES));

        let t_start = opts.t_start.value();
        let t_end = opts.t_end.value();
        let t = t_start;
        let vc = match &supply {
            Supply::Controlled { waveform } => waveform.sample(Seconds::new(t)).value(),
            Supply::Photovoltaic { .. } => scenario.initial_vc.value(),
        };
        let i_in = supply_state.current(&supply, Seconds::new(t), Volts::new(vc))?;
        let y = supply_state.state(&supply, Volts::new(vc), i_in);
        let i_in = i_in.value();
        let target = platform.target_voltage().value();

        // Governor start-up; its action applies once the lane exists.
        let action = governor.start(Seconds::new(t), Volts::new(vc), runtime.current_opp());
        let next_tick = governor.tick_period().map(|p| t + p.value());

        let thermal = match opts.thermal {
            ThermalSpec::Off => None,
            ThermalSpec::Rc(rc) => Some(ThermalState::new(rc)),
        };
        let arrival = ArrivalTimeline::build(opts.arrival, opts.arrival_seed, t_start, t_end);
        let arrival_duty = arrival.duty_at(t_start);

        let mut lane = Lane {
            supply,
            buffer: scenario.buffer,
            monitor: VoltageMonitor::paper_board()?,
            governor,
            opts,
            vmin,
            uses_irq,
            t_start,
            t_end,
            runtime,
            recorder,
            supply_state,
            solver,
            fsal: None,
            t,
            vc,
            y,
            i_in,
            band: (target * (1.0 - BAND), target * (1.0 + BAND)),
            accrued: Accrued::default(),
            next_tick,
            recheck_at: None,
            next_record: t + opts.record_dt.map_or(0.0, Seconds::value),
            thermal,
            arrival,
            arrival_duty,
        };
        let _ = lane.apply(action)?;
        // A stress boost can engage at cold start; the scales must be
        // in force before the first snapshot and the first advance.
        lane.refresh_scales();
        lane.snapshot();
        Ok(lane)
    }

    /// `true` once the lane has reached its window end or browned out
    /// (Table II semantics); `step` must not be called again.
    fn done(&self) -> bool {
        self.t >= self.t_end - 1e-12 || !self.runtime.is_alive()
    }

    /// One iteration of the hybrid loop: integrate toward the next
    /// discrete boundary (stopping early at threshold/brownout
    /// crossings and at edges a post-action recheck delivers, which
    /// resolve inline through the governor), then handle whichever
    /// discrete boundaries were reached.
    ///
    /// Kept out of line: with `run` as its only caller the compiler
    /// may inline this large body into the loop, which measured a few
    /// percent slower on the Table II hour.
    #[inline(never)]
    fn step(&mut self) -> Result<(), SimError> {
        debug_assert!(self.runtime.is_alive(), "stepped a browned-out lane");
        // Load power at the top of the step: it is constant until the
        // next discontinuity, so it both drives the ODE and determines
        // when the thermal state next crosses a threshold.
        let p_load = (self.runtime.power() + self.monitor.power()).value();

        // Next discrete boundary.
        let mut boundary = self.t_end;
        if let Some(d) = self.runtime.step_deadline() {
            boundary = boundary.min(d.value());
        }
        if let Some(tk) = self.next_tick {
            boundary = boundary.min(tk);
        }
        // Thermal threshold crossings and arrival-segment edges are
        // discontinuities like ticks: absent (adding no boundary and
        // no float traffic) when the axes are at their defaults.
        let thermal_event = self
            .thermal
            .as_ref()
            .and_then(|st| st.next_event_in(p_load))
            .map(|(dt, event)| (self.t + dt, event));
        if let Some((at, _)) = thermal_event {
            boundary = boundary.min(at);
        }
        let arrival_edge = self.arrival.next_edge_after(self.t);
        if let Some(edge) = arrival_edge {
            boundary = boundary.min(edge);
        }

        if boundary > self.t + 1e-12 {
            // Continuous phase: advance toward the boundary. While
            // interrupts are live the thresholds are armed, from the
            // pending recheck on if there is one. A recheck before the
            // boundary falls due within the advance; one coinciding
            // with or past it leaves the thresholds unarmed and waits
            // for the discrete phase, which keeps the handling order
            // at coincident instants.
            let (armed, recheck) = match self.recheck_at {
                Some(r) if r >= boundary - 1e-9 => (false, None),
                recheck => (self.interrupts_live(), recheck),
            };
            let (high, low) = if armed {
                let (h, l) = self.monitor.effective_thresholds();
                (Some(h.value()), Some(l.value()))
            } else {
                (None, None)
            };
            let outcome = self.advance(p_load, (high, low), recheck, boundary)?;
            if recheck.is_some_and(|r| r <= outcome.t) {
                self.recheck_at = None;
            }
            self.accrued.add(&outcome.accrued);
            let dt = outcome.t - self.t;
            self.runtime.accrue(
                Seconds::new(dt),
                Seconds::new(dt * HOUSEKEEPING_SHARE),
            );
            if let Some(st) = self.thermal.as_mut() {
                // Heat for the elapsed span even when the advance stops
                // early at a voltage crossing below.
                st.advance(p_load, dt);
            }
            self.t = outcome.t;
            self.vc = outcome.vc;
            self.y = outcome.y;
            self.i_in = outcome.i_in;
            self.fsal = outcome.fsal;
            match outcome.event {
                Some(CrossKind::Brownout) => {
                    self.runtime.brownout(Seconds::new(self.t));
                    self.solver.notify_discontinuity();
                    self.snapshot();
                    return Ok(());
                }
                Some(CrossKind::Edge(edge)) => {
                    self.deliver_edge(edge)?;
                    self.snapshot();
                    return Ok(());
                }
                None => {}
            }
            if self.t < boundary - 1e-12 {
                // Mid-flight accepted step; keep integrating.
                self.record_due();
                return Ok(());
            }
        } else {
            self.t = boundary;
        }

        // Discrete boundary handling (several may coincide).
        if self.runtime.step_deadline().is_some_and(|d| (d.value() - self.t).abs() <= 1e-9) {
            let finished = self.runtime.complete_step(Seconds::new(self.t));
            if finished {
                self.recheck_at = Some(self.t + REARM_DELAY);
            }
            self.solver.notify_discontinuity();
        }
        if self.next_tick.is_some_and(|tk| (tk - self.t).abs() <= 1e-9) {
            let period = self.governor.tick_period().expect("tick governor").value();
            self.next_tick = Some(self.t + period);
            // The governor sees the arrival process's demand level
            // (pinned at 100 % for the saturated benchmark).
            let event = GovernorEvent::Tick {
                t: Seconds::new(self.t),
                vc: Volts::new(self.vc),
                load: self.arrival_duty,
            };
            let action = self.governor.on_event(&event, self.runtime.current_opp());
            let _ = self.apply(action)?;
            self.solver.notify_discontinuity();
        }
        // A recheck falls due here only when it coincides with the
        // boundary: one before it fell due inside an advance.
        if self.recheck_at.is_some_and(|r| (r - self.t).abs() <= 1e-9) {
            self.recheck_at = None;
            if self.interrupts_live() {
                let (high, low) = self.monitor.effective_thresholds();
                if let Some(edge) = level_edge(self.vc, Some(high.value()), Some(low.value())) {
                    self.deliver_edge(edge)?;
                }
            }
        }
        if thermal_event.is_some_and(|(at, _)| (at - self.t).abs() <= 1e-9) {
            let (_, event) = thermal_event.expect("checked above");
            let (throttled_now, cap) = {
                let st = self.thermal.as_mut().expect("thermal event without state");
                st.apply_event(event);
                (st.throttled(), st.level_cap())
            };
            self.runtime.set_level_cap(cap);
            self.refresh_scales();
            if throttled_now {
                self.enforce_level_cap()?;
            }
            self.solver.notify_discontinuity();
        }
        if arrival_edge.is_some_and(|edge| (edge - self.t).abs() <= 1e-9) {
            // duty_at at the exact edge resolves to the new segment.
            self.arrival_duty = self.arrival.duty_at(self.t);
            self.refresh_scales();
            self.solver.notify_discontinuity();
        }
        self.record_due();
        Ok(())
    }

    /// Whether threshold interrupts reach the governor now: it asked for
    /// them, and neither a transition nor an interrupt-masking idle
    /// state is in progress.
    fn interrupts_live(&self) -> bool {
        self.uses_irq
            && !self.runtime.is_transitioning()
            && !self.runtime.idle_masks_interrupts()
    }

    /// Takes the grid snapshot once a recorded lane has reached the
    /// next recording instant, then moves that instant past `t`.
    fn record_due(&mut self) {
        let Some(dt) = self.opts.record_dt.map(Seconds::value) else {
            return;
        };
        if self.t >= self.next_record - 1e-9 {
            self.snapshot();
            let k = ((self.t + 1e-9 - self.t_start) / dt).floor() + 1.0;
            self.next_record = self.t_start + k * dt;
        }
    }

    /// Applies a governor action at the current instant: program
    /// thresholds, start a transition, charge the handler cost. Returns
    /// `true` when the action actually changed the system state
    /// (thresholds moved to different taps or a transition started) —
    /// the engine only re-arms its post-action threshold recheck in
    /// that case, because a level-asserted comparator produces no
    /// further *edges* while nothing changes.
    fn apply(&mut self, action: GovernorAction) -> Result<bool, SimError> {
        let t = Seconds::new(self.t);
        if action.is_none() {
            return Ok(false);
        }
        let mut changed = false;
        let mut cost = self.governor.handler_cost();
        if let Some((high, low)) = action.thresholds {
            let before = self.monitor.effective_thresholds();
            let after = self.monitor.set_thresholds(high, low)?;
            cost += self.monitor.reprogram_latency();
            if (after.0 - before.0).abs() > Volts::new(1e-9)
                || (after.1 - before.1).abs() > Volts::new(1e-9)
            {
                changed = true;
            }
        }
        // Idle moves resolve before OPP requests: a governor asking for
        // both in one action is parking the SoC, so the OPP change waits
        // until it is awake again (the post-exit recheck redelivers it).
        match action.idle {
            Some(IdleRequest::Enter(index))
                if self.opts.idle_enabled && self.runtime.begin_idle(index, t) =>
            {
                changed = true;
            }
            Some(IdleRequest::Exit) if self.runtime.request_wake(t) => {
                changed = true;
            }
            _ => {}
        }
        if let Some(requested) = action.target_opp {
            if !self.runtime.is_transitioning() && !self.runtime.is_idle() {
                let level = self.runtime.clamp_level(requested.level());
                let target = Opp::new(requested.config(), level);
                if target != self.runtime.current_opp() {
                    let strategy = action.strategy.unwrap_or(TransitionStrategy::FrequencyFirst);
                    if self.start_transition(target, strategy)? {
                        changed = true;
                    }
                }
            }
        }
        self.runtime.charge_control_time(cost);
        Ok(changed)
    }

    /// Delivers a threshold edge to the governor at the current state
    /// and applies its action: a state change re-arms the post-action
    /// recheck after [`REARM_DELAY`], and the solver restarts either
    /// way (the handler may have moved the load or the thresholds).
    fn deliver_edge(&mut self, edge: ThresholdEdge) -> Result<(), SimError> {
        let event = GovernorEvent::ThresholdCrossed {
            edge,
            vc: Volts::new(self.vc),
            t: Seconds::new(self.t),
        };
        let action = self.governor.on_event(&event, self.runtime.current_opp());
        if self.apply(action)? {
            self.recheck_at = Some(self.t + REARM_DELAY);
        }
        self.solver.notify_discontinuity();
        Ok(())
    }

    /// Pushes the composed thermal × arrival multipliers into the
    /// runtime. The default axes (`Off`, `Saturated`) compose to the
    /// literal 1.0 scales — the duty envelope is only ever *computed*
    /// off the saturated path, so defaults stay bitwise-identical.
    fn refresh_scales(&mut self) {
        let (thermal_power, thermal_perf) = match &self.thermal {
            Some(st) => (st.power_factor(), st.perf_factor()),
            None => (1.0, 1.0),
        };
        let duty = self.arrival_duty;
        let (power, perf) = if duty == 1.0 {
            (thermal_power, thermal_perf)
        } else {
            // Partial demand still burns a static floor: idling cores
            // clock-gate but stay powered (leakage + uncore).
            (thermal_power * (0.35 + 0.65 * duty), thermal_perf * duty)
        };
        self.runtime.set_scales(power, perf);
    }

    /// Forces an immediate down-shift when the throttle ceiling lands
    /// below the running OPP. A lane mid-transition or parked in idle
    /// keeps its state — the cap still gates every later request via
    /// `clamp_level`, which is how real DVFS throttling behaves (the
    /// ceiling applies at the next opportunity, not retroactively).
    fn enforce_level_cap(&mut self) -> Result<(), SimError> {
        let Some(cap) = self.runtime.level_cap() else {
            return Ok(());
        };
        if self.runtime.is_transitioning() || self.runtime.is_idle() {
            return Ok(());
        }
        let current = self.runtime.current_opp();
        if current.level() <= cap {
            return Ok(());
        }
        self.start_transition(Opp::new(current.config(), cap), TransitionStrategy::FrequencyFirst)?;
        Ok(())
    }

    /// Plans the move from the running OPP to `target` on the
    /// platform's frequency table and latency model, and starts it at
    /// the current instant. Returns whether the plan has any step.
    fn start_transition(
        &mut self,
        target: Opp,
        strategy: TransitionStrategy,
    ) -> Result<bool, SimError> {
        let plan = plan_transition(
            self.runtime.current_opp(),
            target,
            strategy,
            self.runtime.platform().frequencies(),
            self.runtime.platform().latency(),
        )?;
        let stepped = !plan.is_empty();
        self.runtime.begin_transition(plan, Seconds::new(self.t));
        Ok(stepped)
    }

    /// Takes the final snapshot and assembles the report.
    fn finish(mut self) -> Result<SimReport, SimError> {
        // Final snapshot at the stop time.
        self.snapshot();
        // Event snapshots grow the trace past its grid-sized capacity,
        // and a brownout leaves most of it unused: a finished report
        // keeps no page-sized slack.
        let recorder = self.recorder.map_or_else(Recorder::new, |mut recorder| {
            recorder.trim();
            recorder
        });
        Ok(SimReport {
            governor: self.governor.name().to_string(),
            recorder,
            lifetime: self.runtime.death_time().map(|d| d - Seconds::new(self.t_start)),
            duration: Seconds::new(self.t_end - self.t_start),
            work: *self.runtime.work(),
            control_cpu: self.runtime.control_cpu_time(),
            transitions: self.runtime.transitions_started(),
            idle_time: self.runtime.idle_time(),
            idle_entries: self.runtime.idle_entries(),
            peak_temp_c: self.thermal.map_or(0.0, |st| st.peak_c()),
            throttle_time: Seconds::new(self.thermal.map_or(0.0, |st| st.throttle_time_s())),
            boost_time: Seconds::new(self.thermal.map_or(0.0, |st| st.boost_time_s())),
            final_vc: Volts::new(self.vc),
            energy_in: Joules::new(self.accrued.energy_in),
            energy_out: Joules::new(self.accrued.energy_out),
            energy_leaked: Joules::new(self.accrued.energy_leaked),
            band_time: Seconds::new(self.accrued.band_time),
        })
    }

    /// Records the lane's current state into its trace, if it keeps one.
    fn snapshot(&mut self) {
        let Some(recorder) = self.recorder.as_mut() else {
            return;
        };
        let opp = self.runtime.effective_opp();
        let freq = self
            .runtime
            .platform()
            .frequencies()
            .frequency(opp.level())
            .map(|f| f.to_gigahertz())
            .unwrap_or(0.0);
        let power_out = if self.runtime.is_alive() {
            self.runtime.power() + self.monitor.power()
        } else {
            Watts::ZERO
        };
        let power_in = match &self.supply {
            Supply::Photovoltaic { .. } => Volts::new(self.vc) * Amps::new(self.i_in),
            Supply::Controlled { .. } => power_out,
        };
        let (v_high, v_low) = if self.uses_irq {
            self.monitor.effective_thresholds()
        } else {
            (Volts::ZERO, Volts::ZERO)
        };
        let (little, big) = if self.runtime.is_alive() {
            (opp.config().little(), opp.config().big())
        } else {
            (0, 0)
        };
        recorder.record(&Snapshot {
            t: Seconds::new(self.t),
            vc: Volts::new(self.vc),
            frequency_ghz: if self.runtime.is_alive() { freq } else { 0.0 },
            little_cores: little,
            big_cores: big,
            power_out,
            power_in,
            v_high,
            v_low,
        });
    }

    /// Advances the continuous state from `(t, y)` (`y` in the
    /// integrator's variable) by one accepted step toward `boundary`
    /// under the load power `p_load`, watts, stopping at the earliest
    /// event, and accrues the span. The events are a brownout (always
    /// armed: a lane stops at brownout), a rising crossing of `high` or
    /// a falling one of `low` (each `Some` when interrupts are live),
    /// and an edge that a pending post-action `recheck` before the
    /// boundary delivers (see [`first_event`]).
    fn advance(
        &mut self,
        p_load: f64,
        (high, low): (Option<f64>, Option<f64>),
        recheck: Option<f64>,
        boundary: f64,
    ) -> Result<AdvanceOutcome, SimError> {
        let Lane {
            ref supply,
            ref mut supply_state,
            ref buffer,
            ref mut solver,
            fsal,
            vmin,
            band,
            t,
            y,
            ..
        } = *self;
        match supply {
            Supply::Controlled { waveform } => {
                let f = |tt: f64| waveform.sample(Seconds::new(tt)).value();
                // No solver steps here: `max_step` caps the span instead,
                // which bounds grid-sample spacing as it does on the PV
                // path.
                let end = boundary.min(t + solver.options().max_step);
                // The waveform's linear pieces are its monotone pieces.
                let crossing = |a, b, v| waveform.crossing(a, b, v);
                let locate = |level: f64, want: CrossingDirection, a: f64| {
                    first_crossing_on(waveform.pieces(a, end), level, want, crossing)
                };
                let found = first_event(&f, locate, (t, end), vmin, (high, low), recheck);
                let (t1, event) = match found {
                    Some((tc, kind)) => (tc, Some(kind)),
                    None => (end, None),
                };
                // The source pins `VC` and delivers what the load draws.
                let energy = p_load * (t1 - t);
                let band_time = time_in_band_on(waveform.pieces(t, t1), band, crossing);
                let accrued = Accrued {
                    energy_in: energy,
                    energy_out: energy,
                    energy_leaked: 0.0,
                    band_time,
                };
                let vc = f(t1);
                Ok(AdvanceOutcome { t: t1, vc, y: vc, i_in: 0.0, event, accrued, fsal: None })
            }
            Supply::Photovoltaic { .. } => {
                let mut solve_error: Option<SimError> = None;
                // The previous step's last stage is this one's first
                // when it ended here under the same load.
                let at = [t, y, p_load].map(f64::to_bits);
                let carried = fsal.filter(|c| c.at.map(f64::to_bits) == at);
                // `(VC, I, dVC/dt)` at the step's stages: the first is
                // stage k1, where the lane stands (carried, or the first
                // evaluation); the latest three evaluations are, once
                // the step is accepted, its stages k2, k3 and k4 (a
                // rejected attempt re-evaluates only those).
                let mut stages = [carried.map_or([0.0; 3], |c| c.stage); 4];
                let mut evaluated = carried.is_some();
                let deriv = |tt: f64, y: f64| {
                    // The supply fast path: monotone irradiance cursor plus
                    // the explicit junction form (or the interpolation
                    // surface).
                    let point = supply_state
                        .operating_point(supply, Seconds::new(tt), y)
                        .unwrap_or_else(|e| {
                            solve_error = Some(e);
                            OperatingPoint { vc: y, current: 0.0, dvc_dy: 1.0, dvc_dt: 0.0 }
                        });
                    let v = point.vc.max(0.05);
                    let i_out = Amps::new(p_load / v.max(0.3));
                    let dvc_dt = buffer.dv_dt(Volts::new(v), Amps::new(point.current), i_out);
                    let stage = [v, point.current, dvc_dt];
                    if evaluated {
                        stages = [stages[0], stages[2], stages[3], stage];
                    } else {
                        stages[0] = stage;
                        evaluated = true;
                    }
                    point.state_rate(dvc_dt)
                };
                let step = match carried {
                    Some(c) => solver.step_from(deriv, t, y, c.rate, boundary)?,
                    None => solver.step(deriv, t, y, boundary)?,
                };
                if let Some(e) = solve_error {
                    return Err(e);
                }
                // The step in `VC`: the cubic Hermite through its first
                // and last stages' `(VC, dVC/dt)`. Crossings, the band
                // and the energy quadrature all read this one.
                let [first, .., last] = stages;
                let step_vc = AcceptedStep {
                    t0: step.t0,
                    t1: step.t1,
                    y0: first[0],
                    y1: last[0],
                    f0: first[2],
                    f1: last[2],
                };
                // Rigorous range bound of the cubic Hermite dense output on
                // this step: the Hermite value basis stays inside
                // [min(y0,y1), max(y0,y1)] and the two tangent basis
                // polynomials peak at 4/27, so levels outside the bound
                // cannot be reached. The step's cubic is split at its
                // stationary points only once a level inside is asked
                // for (the uncommon case). (A recheck still compares `VC`
                // against every armed threshold: one outside the bound
                // may lie behind it.)
                let (y0, y1) = (first[0], last[0]);
                let margin = (4.0 / 27.0) * (step.t1 - step.t0) * (first[2].abs() + last[2].abs());
                let (y_min, y_max) = (y0.min(y1) - margin, y0.max(y1) + margin);
                let reachable = |level: &f64| *level >= y_min && *level <= y_max;
                let cubic = OnceCell::new();
                let cubic = || cubic.get_or_init(|| StepCubic::new(&step_vc));
                let f = |tt: f64| step_vc.interpolate(tt);
                let locate = |level: f64, want: CrossingDirection, a: f64| {
                    reachable(&level).then(|| cubic().first_crossing(level, want, a)).flatten()
                };
                let span = (step.t0, step.t1);
                let found = first_event(&f, locate, span, vmin, (high, low), recheck);
                let (t1, vc1, y1, i1, event, fsal) = match found {
                    Some((tc, kind)) => {
                        // The event's own operating point, solved exactly:
                        // the next step starts from it.
                        let v = Volts::new(f(tc));
                        let i = supply_state.current(supply, Seconds::new(tc), v)?;
                        let y = supply_state.state(supply, v, i);
                        (tc, v.value(), y, i.value(), Some(kind), None)
                    }
                    None => {
                        let at = [step.t1, step.y1, p_load];
                        let fsal = Fsal { at, stage: last, rate: step.f1 };
                        (step.t1, y1, step.y1, last[1], None, Some(fsal))
                    }
                };
                let dt = t1 - t;
                // The same bound decides the band: a span wholly inside
                // it needs no search, and one reaching neither edge lies
                // wholly outside.
                let band_time = if band.0 <= y_min && y_max <= band.1 {
                    dt
                } else if reachable(&band.0) || reachable(&band.1) {
                    let crossing = |a, b, v| cubic().crossing(a, b, v);
                    time_in_band_on(cubic().pieces(step.t0, t1), band, crossing)
                } else {
                    0.0
                };
                let g_leak = buffer.leakage_conductance();
                let energy_in = stage_quadrature(&step_vc, stages.map(|[v, i, _]| v * i), t1);
                let energy_leaked =
                    stage_quadrature(&step_vc, stages.map(|[v, _, _]| v * v * g_leak), t1);
                let accrued =
                    Accrued { energy_in, energy_out: p_load * dt, energy_leaked, band_time };
                Ok(AdvanceOutcome { t: t1, vc: vc1, y: y1, i_in: i1, event, accrued, fsal })
            }
        }
    }
}

/// `∫ q dt` over `[t0, t_end]` of an accepted step, from `q` at the
/// step's four Bogacki–Shampine stages: `q` integrated as one more
/// component of the ODE by the same RK23 step (weights 2/9, 1/3, 4/9)
/// and, for a step cut short at an event, the same cubic Hermite dense
/// output. It stays out of the solver's error control, so accruing it
/// cannot change a trajectory.
fn stage_quadrature(step: &AcceptedStep, q: [f64; 4], t_end: f64) -> f64 {
    let h = step.t1 - step.t0;
    let whole = h * (2.0 / 9.0 * q[0] + 1.0 / 3.0 * q[1] + 4.0 / 9.0 * q[2]);
    if t_end >= step.t1 {
        return whole;
    }
    let s = (t_end - step.t0) / h;
    let (s2, s3) = (s * s, s * s * s);
    (s3 - 2.0 * s2 + s) * h * q[0] + (3.0 * s2 - 2.0 * s3) * whole + (s3 - s2) * h * q[3]
}

/// Finds the earliest event of the signal `f` on `[a, b]`, given
/// `locate(level, direction, from)`, its first crossing of `level` in
/// `direction` on `(from, b]`. The events are a brownout anywhere, and a
/// threshold edge once the thresholds are armed, which is from `a`, or
/// from `r` when a post-action recheck is pending at `r`. A recheck at
/// `r ≤ b` is resolved on `f` itself: a level already at or beyond a
/// threshold at `r` delivers its edge at exactly `r`, and otherwise the
/// thresholds are armed from `r` on. Shared by both supply branches, so
/// a recheck resolves the same way on either.
fn first_event(
    f: &impl Fn(f64) -> f64,
    locate: impl Fn(f64, CrossingDirection, f64) -> Option<f64>,
    (a, b): (f64, f64),
    vmin: f64,
    (high, low): (Option<f64>, Option<f64>),
    recheck: Option<f64>,
) -> Option<(f64, CrossKind)> {
    let Some(r) = recheck else {
        return earliest_crossing(&locate, a, Some(vmin), high, low);
    };
    let brownout = earliest_crossing(&locate, a, Some(vmin), None, None);
    if r > b {
        return brownout;
    }
    let r = r.max(a);
    let edge = if let Some(edge) = level_edge(f(r), high, low) {
        Some((r, CrossKind::Edge(edge)))
    } else if r < b {
        earliest_crossing(&locate, r, None, high, low)
    } else {
        None
    };
    // A brownout at the same instant wins, as in `earliest_crossing`.
    match (brownout, edge) {
        (Some(down), Some(up)) if up.0 < down.0 => Some(up),
        (None, edge) => edge,
        (down, _) => down,
    }
}

/// The edge a level at or beyond an armed threshold raises, the high
/// threshold tested first: how a recheck resolves a comparator that is
/// already asserted.
fn level_edge(level: f64, high: Option<f64>, low: Option<f64>) -> Option<ThresholdEdge> {
    if high.is_some_and(|h| level >= h) {
        Some(ThresholdEdge::High)
    } else if low.is_some_and(|l| level <= l) {
        Some(ThresholdEdge::Low)
    } else {
        None
    }
}

/// Finds the earliest crossing of the three monitored levels from `a`
/// on, each in the direction that raises its event.
fn earliest_crossing(
    locate: &impl Fn(f64, CrossingDirection, f64) -> Option<f64>,
    a: f64,
    vmin: Option<f64>,
    high: Option<f64>,
    low: Option<f64>,
) -> Option<(f64, CrossKind)> {
    let mut best: Option<(f64, CrossKind)> = None;
    let levels = [
        (vmin, CrossingDirection::Falling, CrossKind::Brownout),
        (high, CrossingDirection::Rising, CrossKind::Edge(ThresholdEdge::High)),
        (low, CrossingDirection::Falling, CrossKind::Edge(ThresholdEdge::Low)),
    ];
    for (level, want, kind) in levels {
        let Some(level) = level else { continue };
        if let Some(t) = locate(level, want, a) {
            if best.is_none_or(|(bt, _)| t < bt) {
                best = Some((t, kind));
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supply::VoltageWaveform;
    use pn_core::governor::PowerNeutralGovernor;
    use pn_core::params::ControlParams;
    use pn_governors::{Performance, Powersave};
    use pn_harvest::irradiance::IrradianceTrace;
    use pn_soc::platform::Platform;
    use pn_soc::thermal::RcThermal;
    use pn_units::WattsPerSquareMeter;

    fn pv_supply(g: f64, t_end: f64) -> Supply {
        Supply::photovoltaic(
            pn_circuit::solar::SolarCell::odroid_array(),
            IrradianceTrace::constant(
                Seconds::ZERO,
                Seconds::new(t_end),
                WattsPerSquareMeter::new(g),
            )
            .unwrap(),
        )
    }

    /// Runs `governor` from `initial_opp` on the paper's board and
    /// buffer from 5.3 V, powered by `supply` under `options`.
    fn run_on(
        governor: Box<dyn Governor>,
        supply: Supply,
        options: SimOptions,
        initial_opp: Opp,
    ) -> Result<SimReport, SimError> {
        run(&Scenario::new(supply, options), governor, initial_opp)
    }

    /// The default options over `[0, t_end]`, recorded every 0.5 s.
    fn recorded(t_end: f64) -> SimOptions {
        SimOptions::new(Seconds::new(t_end)).with_record_dt(Seconds::new(0.5))
    }

    /// [`run_on`] under [`recorded`] options.
    fn simulate(
        governor: Box<dyn Governor>,
        supply: Supply,
        t_end: f64,
        initial_opp: Opp,
    ) -> SimReport {
        run_on(governor, supply, recorded(t_end), initial_opp).unwrap()
    }

    fn pn_governor() -> Box<dyn Governor> {
        Box::new(
            PowerNeutralGovernor::new(
                ControlParams::paper_optimal().unwrap(),
                &Platform::odroid_xu4(),
            )
            .unwrap(),
        )
    }

    #[test]
    fn performance_governor_browns_out_fast_on_weak_sun() {
        // ~560 W/m² gives ≈3.3 W available; performance draws ≈7 W.
        let report = simulate(
            Box::new(Performance::new()),
            pv_supply(560.0, 30.0),
            30.0,
            Opp::new(pn_soc::cores::CoreConfig::MAX, 0),
        );
        assert!(!report.survived(), "performance should brown out");
        assert!(report.lifetime().unwrap().value() < 5.0);
    }

    #[test]
    fn powersave_survives_weak_sun() {
        let report = simulate(
            Box::new(Powersave::new()),
            pv_supply(560.0, 30.0),
            30.0,
            Opp::new(pn_soc::cores::CoreConfig::MAX, 0),
        );
        assert!(report.survived(), "powersave must survive ≈3.3 W harvest");
        assert!(report.work().instructions() > 0.0);
    }

    #[test]
    fn power_neutral_survives_and_outperforms_powersave() {
        let pn = simulate(pn_governor(), pv_supply(560.0, 60.0), 60.0, Opp::lowest());
        assert!(pn.survived(), "power-neutral must survive");
        let ps = simulate(
            Box::new(Powersave::new()),
            pv_supply(560.0, 60.0),
            60.0,
            Opp::new(pn_soc::cores::CoreConfig::MAX, 0),
        );
        assert!(
            pn.work().instructions() > ps.work().instructions(),
            "pn {} vs powersave {}",
            pn.work().instructions(),
            ps.work().instructions()
        );
    }

    #[test]
    fn power_neutral_tracks_mpp_voltage() {
        let report = simulate(pn_governor(), pv_supply(560.0, 120.0), 120.0, Opp::lowest());
        assert!(report.survived());
        // After convergence VC must hover near the MPP (5.3 V target).
        let vc = report.recorder().vc();
        let tail_mean: f64 = {
            let values = vc.values();
            let n = values.len();
            values[n - n / 3..].iter().sum::<f64>() / (n / 3) as f64
        };
        assert!(
            (4.6..=6.2).contains(&tail_mean),
            "vc settled at {tail_mean} — not near the PV knee"
        );
        // And the governor must actually have transitioned.
        assert!(report.transitions() > 1);
    }

    #[test]
    fn controlled_supply_drives_crossings() {
        // Ramp down from 5.3 to 4.3 V over 20 s: the governor must see
        // several Vlow crossings and scale down.
        let waveform = VoltageWaveform::new(vec![
            (Seconds::ZERO, Volts::new(5.3)),
            (Seconds::new(20.0), Volts::new(4.3)),
        ])
        .unwrap();
        let start = Opp::new(pn_soc::cores::CoreConfig::MAX, 7);
        let report = simulate(pn_governor(), Supply::Controlled { waveform }, 20.0, start);
        assert!(report.survived());
        let freq = report.recorder().frequency_ghz();
        let first = freq.values()[0];
        let last = *freq.values().last().unwrap();
        assert!(last < first, "frequency should have scaled down: {first} → {last}");
    }

    /// Programs `(5.3 V, 4.5 V)` at start and logs every edge. With its
    /// flag set, its first edge pulls the rising threshold down to
    /// 5.0 V, below `VC`.
    struct Retune(std::rc::Rc<std::cell::RefCell<Vec<(f64, ThresholdEdge)>>>, bool);

    impl Governor for Retune {
        fn name(&self) -> &str {
            "retune"
        }
        fn start(&mut self, _t: Seconds, _vc: Volts, _current: Opp) -> GovernorAction {
            GovernorAction {
                thresholds: Some((Volts::new(5.3), Volts::new(4.5))),
                ..GovernorAction::none()
            }
        }
        fn on_event(&mut self, event: &GovernorEvent, _current: Opp) -> GovernorAction {
            let GovernorEvent::ThresholdCrossed { edge, t, .. } = event else {
                return GovernorAction::none();
            };
            let mut edges = self.0.borrow_mut();
            edges.push((t.value(), *edge));
            if !self.1 || edges.len() > 1 {
                return GovernorAction::none();
            }
            GovernorAction {
                thresholds: Some((Volts::new(5.0), Volts::new(4.5))),
                ..GovernorAction::none()
            }
        }
        fn uses_threshold_interrupts(&self) -> bool {
            true
        }
    }

    #[test]
    fn a_recheck_beyond_the_new_threshold_delivers_at_its_instant() {
        // VC ramps 5.1 → 5.5 V over 10 s and crosses 5.3 V at 5 s. The
        // retuned 5.0 V threshold lies behind VC, so the post-action
        // recheck must deliver a second rising edge at exactly the
        // recheck instant, inside an advance rather than at a boundary.
        let waveform = VoltageWaveform::new(vec![
            (Seconds::ZERO, Volts::new(5.1)),
            (Seconds::new(10.0), Volts::new(5.5)),
        ])
        .unwrap();
        let edges = std::rc::Rc::default();
        let governor = Box::new(Retune(std::rc::Rc::clone(&edges), true));
        let report = simulate(governor, Supply::Controlled { waveform }, 10.0, Opp::lowest());
        assert!(report.survived());
        let edges = edges.borrow();
        assert_eq!(edges.len(), 2, "{edges:?}");
        let (first, second) = (edges[0], edges[1]);
        assert_eq!(first.1, ThresholdEdge::High);
        assert!((4.5..5.5).contains(&first.0), "{edges:?}");
        assert_eq!(second, (first.0 + REARM_DELAY, ThresholdEdge::High));
    }

    #[test]
    fn a_crossing_after_one_the_other_way_is_delivered() {
        // VC falls through 5.3 V at 2.5 ms, the wrong way for the rising
        // threshold, and rises back through it at 15 ms, inside the same
        // 50 ms span.
        let waveform = VoltageWaveform::new(vec![
            (Seconds::ZERO, Volts::new(5.6)),
            (Seconds::new(0.005), Volts::new(5.0)),
            (Seconds::new(0.025), Volts::new(5.6)),
        ])
        .unwrap();
        let supply = Supply::Controlled { waveform: waveform.clone() };
        let edges = std::rc::Rc::default();
        let governor = Box::new(Retune(std::rc::Rc::clone(&edges), false));
        simulate(governor, supply, 0.05, Opp::lowest());
        let (high, _) = VoltageMonitor::paper_board()
            .unwrap()
            .set_thresholds(Volts::new(5.3), Volts::new(4.5))
            .unwrap();
        let edges = edges.borrow();
        assert_eq!(edges.len(), 1, "{edges:?}");
        let (t, edge) = edges[0];
        assert_eq!(edge, ThresholdEdge::High);
        assert!((0.0149..0.0150).contains(&t), "{edges:?}");
        assert!(waveform.sample(Seconds::new(t)) >= high, "{t}");
    }

    #[test]
    fn band_time_is_exact_across_a_waveform_breakpoint() {
        // A 5 ms excursion to 5.9 V and back leaves the 5.3 V ± 5 % band
        // while above 5.565 V: 2 · 5 ms · (1 − 0.265/0.6) of the second.
        let waveform = VoltageWaveform::new(vec![
            (Seconds::ZERO, Volts::new(5.3)),
            (Seconds::new(0.005), Volts::new(5.9)),
            (Seconds::new(0.010), Volts::new(5.3)),
            (Seconds::new(1.0), Volts::new(5.3)),
        ])
        .unwrap();
        let performance = Box::new(Performance::new());
        let report = simulate(performance, Supply::Controlled { waveform }, 1.0, Opp::lowest());
        let stability = report.vc_stability();
        assert!((stability - (1.0 - 0.335 / 60.0)).abs() < 1e-9, "{stability}");
    }

    #[test]
    fn brownout_is_reported_with_interpolated_time() {
        // Darkness: the board discharges the 47 mF buffer and dies.
        let report = simulate(
            Box::new(Performance::new()),
            pv_supply(0.0, 10.0),
            10.0,
            Opp::new(pn_soc::cores::CoreConfig::MAX, 7),
        );
        let life = report.lifetime().unwrap().value();
        // ~7 W from 47 mF between 5.3 and 4.1 V: C·ΔV/I ≈ 0.047·1.2/1.4 ≈ 40 ms.
        assert!(life > 0.005 && life < 0.5, "lifetime {life}");
        let final_vc = report.final_vc().value();
        assert!((final_vc - 4.1).abs() < 0.05, "died at {final_vc} V");
    }

    #[test]
    fn report_accessors_are_consistent() {
        let report = simulate(pn_governor(), pv_supply(560.0, 10.0), 10.0, Opp::lowest());
        assert_eq!(report.governor(), "power-neutral");
        assert!(report.duration().value() > 9.9);
        assert!(report.recorder().len() > 5);
        assert!(report.control_cpu_fraction() < 0.05);
    }

    #[test]
    fn interpolated_model_tracks_the_exact_engine() {
        let run = |model: SupplyModel| {
            let options = recorded(30.0).with_supply_model(model);
            run_on(pn_governor(), pv_supply(560.0, 30.0), options, Opp::lowest()).unwrap()
        };
        let exact = run(SupplyModel::Exact);
        let interp = run(SupplyModel::interpolated());
        assert_eq!(exact.survived(), interp.survived(), "verdict must not flip");
        assert!(
            (exact.final_vc() - interp.final_vc()).value().abs() < 0.1,
            "final vc drifted: {} vs {}",
            exact.final_vc(),
            interp.final_vc()
        );
        let ratio = interp.work().instructions() / exact.work().instructions();
        assert!((0.95..=1.05).contains(&ratio), "work drifted: ratio {ratio}");
        // And the interpolated engine replays itself bitwise.
        assert_eq!(interp, run(SupplyModel::interpolated()));
    }

    #[test]
    fn record_dt_override_decimates_the_trace() {
        let run = |options: SimOptions| {
            let max = Opp::new(pn_soc::cores::CoreConfig::MAX, 0);
            run_on(Box::new(Powersave::new()), pv_supply(560.0, 10.0), options, max).unwrap()
        };
        let unrecorded = run(SimOptions::new(Seconds::new(10.0)));
        let dense = run(recorded(10.0));
        let sparse = run(recorded(10.0).with_record_dt(Seconds::new(5.0)));
        assert!(
            sparse.recorder().len() * 2 < dense.recorder().len(),
            "decimation had no effect: {} vs {}",
            sparse.recorder().len(),
            dense.recorder().len()
        );
        // An unrecorded run keeps an empty trace with nothing allocated.
        let trace = unrecorded.recorder();
        assert!(trace.sample_vectors().iter().all(|&(len, capacity, _)| len + capacity == 0));
        assert_eq!(trace.side_bytes(), 0);
        // Recording only observes: every other field is bitwise equal.
        for report in [dense, sparse] {
            assert!(!report.recorder().is_empty());
            assert_eq!(SimReport { recorder: Recorder::new(), ..report }, unrecorded);
        }
    }

    #[test]
    fn an_accepted_step_ends_on_its_stages_k2_k3_k4() {
        // The engine takes an accepted step's stage k1 from the first
        // right-hand-side evaluation and its stages k2..k4 from the
        // latest three. Pin that on a step whose first attempt, far too
        // long for y' = −50y, is rejected: eight exact steps on a flat
        // right-hand side first grow the step ×5 each, to the 1 s cap.
        let mut solver = Rk23::new(AdaptiveOptions::new(1.0, (1e-6, 1e-8)));
        let mut t = 0.0;
        for _ in 0..8 {
            t = solver.step(|_, _| 0.0, t, 1.0, 100.0).unwrap().t1;
        }
        let mut times = Vec::new();
        let f = |t: f64, y: f64| {
            times.push(t);
            -50.0 * y
        };
        let step = solver.step(f, 2.0, 1.0, 3.0).unwrap();
        let h = step.t1 - step.t0;
        assert!(times.len() > 4, "no attempt was rejected: {times:?}");
        assert_eq!(times[0], 2.0);
        let stages = &times[times.len() - 3..];
        for (t, c) in stages.iter().zip([0.5, 0.75, 1.0]) {
            assert!((t - (2.0 + c * h)).abs() < 1e-12, "{stages:?} for h = {h}");
        }
    }

    #[test]
    fn default_axes_are_bitwise_inert() {
        // Explicitly setting thermal Off + saturated arrivals must
        // reproduce the untouched-options run bit for bit: no scale,
        // cap, or boundary code may fire on the default path.
        let plain = simulate(pn_governor(), pv_supply(560.0, 20.0), 20.0, Opp::lowest());
        let options = recorded(20.0)
            .with_thermal(ThermalSpec::Off)
            .with_arrival(ArrivalSpec::Saturated, 99);
        let spelled = run_on(pn_governor(), pv_supply(560.0, 20.0), options, Opp::lowest());
        assert_eq!(plain, spelled.unwrap());
    }

    #[test]
    fn thermal_stress_throttles_and_reports_heat() {
        // A stiff 5.3 V rail keeps the board alive while ~7 W through
        // 8 °C/W drives the die far past the 75 °C ceiling.
        let waveform = VoltageWaveform::new(vec![
            (Seconds::ZERO, Volts::new(5.3)),
            (Seconds::new(400.0), Volts::new(5.3)),
        ])
        .unwrap();
        let report = run_on(
            Box::new(Performance::new()),
            Supply::Controlled { waveform },
            recorded(400.0).with_thermal(ThermalSpec::stress()),
            Opp::new(pn_soc::cores::CoreConfig::MAX, 7),
        )
        .unwrap();
        assert!(report.survived());
        assert!(report.peak_temp_c() > 74.0, "peak {}", report.peak_temp_c());
        assert!(
            report.throttle_time().value() > 1.0,
            "throttle time {}",
            report.throttle_time()
        );
        // Boost engages from the cold start and burns its budget.
        assert!(report.boost_time().value() > 0.0);
        assert!(report.boost_time().value() <= 10.0 + 1e-9);
        // The capped ladder shows up in the recorded frequency trace.
        let min_freq = report
            .recorder()
            .frequency_ghz()
            .values()
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        assert!(min_freq < 1.0, "ladder never capped: min {min_freq} GHz");
    }

    #[test]
    fn thermal_off_reports_zero_heat() {
        let report = simulate(pn_governor(), pv_supply(560.0, 10.0), 10.0, Opp::lowest());
        assert_eq!(report.peak_temp_c(), 0.0);
        assert_eq!(report.throttle_time(), Seconds::ZERO);
        assert_eq!(report.boost_time(), Seconds::ZERO);
    }

    #[test]
    fn bursty_arrivals_cut_work_and_power() {
        let make = |arrival: ArrivalSpec, seed: u64| {
            run_on(
                Box::new(Powersave::new()),
                pv_supply(560.0, 300.0),
                recorded(300.0).with_arrival(arrival, seed),
                Opp::new(pn_soc::cores::CoreConfig::MAX, 0),
            )
            .unwrap()
        };
        let saturated = make(ArrivalSpec::Saturated, 17);
        let bursty = make(ArrivalSpec::bursty_stress(), 17);
        assert!(
            bursty.work().instructions() < saturated.work().instructions(),
            "gaps must cost work: {} vs {}",
            bursty.work().instructions(),
            saturated.work().instructions()
        );
        // Same arrival seed replays bitwise.
        assert_eq!(bursty, make(ArrivalSpec::bursty_stress(), 17));
        // A different seed produces a different trajectory.
        assert_ne!(bursty, make(ArrivalSpec::bursty_stress(), 18));
    }

    #[test]
    fn rejects_an_invalid_thermal_model() {
        let with_thermal = |thermal: ThermalSpec| {
            let options = SimOptions::new(Seconds::new(20.0)).with_thermal(thermal);
            run_on(pn_governor(), pv_supply(560.0, 20.0), options, Opp::lowest())
        };
        let ThermalSpec::Rc(stress) = ThermalSpec::stress() else {
            panic!("the stress preset is an RC model")
        };
        // A zero resistance never heats the die; a release above the
        // trip point never lets the throttle go.
        for bad in [RcThermal { r_c_per_w: 0.0, ..stress }, RcThermal { release_c: 80.0, ..stress }]
        {
            let result = with_thermal(ThermalSpec::Rc(bad));
            assert!(matches!(result, Err(SimError::Soc(_))), "{bad:?} was accepted");
        }
        for good in [ThermalSpec::Off, ThermalSpec::stress()] {
            with_thermal(good).unwrap();
        }
    }

    #[test]
    fn rejects_a_max_step_or_record_dt_that_cannot_work() {
        let waveform = VoltageWaveform::new(vec![
            (Seconds::ZERO, Volts::new(5.3)),
            (Seconds::new(20.0), Volts::new(5.3)),
        ])
        .unwrap();
        for supply in [pv_supply(560.0, 20.0), Supply::Controlled { waveform }] {
            let with = |options: SimOptions| {
                run_on(pn_governor(), supply.clone(), options, Opp::lowest())
            };
            let base = SimOptions::new(Seconds::new(20.0));
            // A step cap the solver cannot take, and one that lets the
            // controlled span make no progress.
            for bad in [0.0, MIN_STEP, -1.0, f64::NAN, f64::INFINITY] {
                let result = with(base.with_max_step(Seconds::new(bad)));
                assert!(matches!(result, Err(SimError::InvalidConfig(_))), "max_step {bad}");
            }
            for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
                let result = with(base.with_record_dt(Seconds::new(bad)));
                assert!(matches!(result, Err(SimError::InvalidConfig(_))), "record_dt {bad}");
            }
            with(base.with_max_step(Seconds::new(1e-3))).unwrap();
        }
    }

    #[test]
    fn rejects_empty_window() {
        // An infinite end never finishes, and a NaN end makes no
        // progress: neither is a window.
        for t_end in [0.0, f64::INFINITY, f64::NAN] {
            let options = SimOptions::new(Seconds::new(t_end));
            let r = run_on(pn_governor(), pv_supply(500.0, 1.0), options, Opp::lowest());
            assert!(r.is_err(), "t_end {t_end} was accepted");
        }
    }
}
