//! The hybrid continuous/discrete simulation engine.
//!
//! Between events the buffer-capacitor voltage is integrated with the
//! adaptive RK23 solver (`ode23`, as in the paper's Simulink model);
//! threshold and brownout crossings are located on each accepted
//! step's dense output by bisection; governor actions start multi-step
//! OPP transitions whose per-step latencies and pre-step power draws
//! feed back into the ODE. Threshold interrupts are masked while a
//! transition is in flight (the buffer capacitor's job is to carry the
//! board through exactly this window) and re-checked when it
//! completes, which reproduces the rapid response cascades visible in
//! the paper's Fig. 6.

use crate::recorder::{Recorder, Snapshot};
use crate::runtime::SocRuntime;
use crate::supply::{Supply, SupplyModel, SupplyState};
use crate::SimError;
use pn_circuit::capacitor::Supercapacitor;
use pn_circuit::events::{first_threshold_crossing, CrossingDirection};
use pn_circuit::ode::{AdaptiveOptions, Rk23};
use pn_core::events::{Governor, GovernorAction, GovernorEvent, IdleRequest, ThresholdEdge};
use pn_monitor::monitor::VoltageMonitor;
use pn_soc::opp::Opp;
use pn_soc::platform::Platform;
use pn_soc::thermal::{ThermalSpec, ThermalState};
use pn_soc::transition::{plan_transition, TransitionStrategy};
use pn_units::{Seconds, Volts, Watts};
use pn_workload::arrival::{ArrivalSpec, ArrivalTimeline};
use pn_workload::work::WorkAccount;

/// Dead time after an action before threshold conditions are
/// re-evaluated (comparator + interrupt + handler re-entry), seconds.
const REARM_DELAY: f64 = 300e-6;

/// CPU share of the budgeting software's housekeeping/logging task:
/// 1 ms per 1 s period (Fig. 15 accounting).
const HOUSEKEEPING_SHARE: f64 = 1.0e-3 / 1.0;

/// Engine tunables.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// Simulation start time.
    pub t_start: Seconds,
    /// Simulation end time.
    pub t_end: Seconds,
    /// Trace recording interval.
    pub record_dt: Seconds,
    /// Maximum ODE step (also bounds event-detection granularity).
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
            record_dt: Seconds::new(0.5),
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

    /// Sets the recording interval (builder style).
    pub fn with_record_dt(mut self, dt: Seconds) -> Self {
        self.record_dt = dt;
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

    /// Applies per-cell overrides on top of these options (builder
    /// style); unset override fields leave the option untouched.
    pub fn with_overrides(mut self, overrides: &SimOverrides) -> Self {
        if let Some(dt) = overrides.record_dt {
            self.record_dt = dt;
        }
        if let Some(dt) = overrides.max_step {
            self.max_step = dt;
        }
        if let Some(model) = overrides.supply_model {
            self.supply_model = model;
        }
        if let Some(idle) = overrides.idle {
            self.idle_enabled = idle;
        }
        self
    }
}

/// Sparse per-cell overrides of [`SimOptions`], carried by campaign
/// specs and cells so one matrix can mix recording decimation (very
/// long windows), step caps and supply models without forking the
/// scenario builders. `None` fields inherit the scenario's options.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimOverrides {
    /// Override of [`SimOptions::record_dt`] (trace decimation).
    pub record_dt: Option<Seconds>,
    /// Override of [`SimOptions::max_step`].
    pub max_step: Option<Seconds>,
    /// Override of [`SimOptions::supply_model`].
    pub supply_model: Option<SupplyModel>,
    /// Override of [`SimOptions::idle_enabled`].
    pub idle: Option<bool>,
}

impl SimOverrides {
    /// No overrides: every cell inherits its scenario's options.
    pub fn none() -> Self {
        Self::default()
    }

    /// `true` when no field overrides anything.
    pub fn is_none(&self) -> bool {
        *self == Self::default()
    }

    /// Sets the supply model (builder style).
    pub fn with_supply_model(mut self, model: SupplyModel) -> Self {
        self.supply_model = Some(model);
        self
    }

    /// Sets the recording interval (builder style).
    pub fn with_record_dt(mut self, dt: Seconds) -> Self {
        self.record_dt = Some(dt);
        self
    }

    /// Sets the maximum ODE step (builder style).
    pub fn with_max_step(mut self, dt: Seconds) -> Self {
        self.max_step = Some(dt);
        self
    }

    /// Enables or disables idle (DPM) requests (builder style).
    pub fn with_idle(mut self, enabled: bool) -> Self {
        self.idle = Some(enabled);
        self
    }
}

/// Outcome of a completed simulation.
///
/// Reports compare by value — including the full recorded traces — so
/// two runs of the same scenario can be checked for bitwise identity.
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
}

impl SimReport {
    /// The governor that was driving.
    pub fn governor(&self) -> &str {
        &self.governor
    }

    /// The recorded traces.
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
}

/// Builder-assembled simulation of the Fig. 2/8 system.
pub struct Simulation {
    platform: Platform,
    supply: Supply,
    buffer: Supercapacitor,
    monitor: VoltageMonitor,
    governor: Box<dyn Governor>,
    initial_opp: Opp,
    initial_vc: Volts,
    options: SimOptions,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("platform", &self.platform.name())
            .field("governor", &self.governor.name())
            .field("options", &self.options)
            .finish_non_exhaustive()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CrossKind {
    Brownout,
    High,
    Low,
}

struct AdvanceOutcome {
    t: f64,
    vc: f64,
    event: Option<CrossKind>,
}

impl Simulation {
    /// Assembles a simulation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for an empty window or an
    /// initial voltage outside a sane range.
    #[allow(clippy::too_many_arguments)] // one parameter per physical subsystem
    pub fn new(
        platform: Platform,
        supply: Supply,
        buffer: Supercapacitor,
        monitor: VoltageMonitor,
        governor: Box<dyn Governor>,
        initial_opp: Opp,
        initial_vc: Volts,
        options: SimOptions,
    ) -> Result<Self, SimError> {
        if options.t_end <= options.t_start {
            return Err(SimError::InvalidConfig("empty simulation window"));
        }
        if !(initial_vc.value() > 0.0) || initial_vc.value() > 10.0 {
            return Err(SimError::InvalidConfig("initial vc out of range"));
        }
        Ok(Self { platform, supply, buffer, monitor, governor, initial_opp, initial_vc, options })
    }

    /// Runs the simulation to completion.
    ///
    /// # Errors
    ///
    /// Propagates solver and monitor failures; these indicate a
    /// mis-assembled scenario, not a brownout (brownouts are reported
    /// in the [`SimReport`]).
    pub fn run(self) -> Result<SimReport, SimError> {
        let mut lane = self.start()?;
        while !lane.done() {
            lane.step()?;
        }
        lane.finish()
    }

    /// Performs the one-time setup (governor start-up, initial
    /// snapshot) and hands back the per-simulation loop state that
    /// `run()` steps to completion.
    fn start(mut self) -> Result<Lane, SimError> {
        let opts = self.options;
        let vmin = self.platform.voltage_window().min.value();
        let uses_irq = self.governor.uses_threshold_interrupts();

        let runtime = SocRuntime::new(self.platform.clone(), self.initial_opp);
        // Preallocate the trace from the known window and recording
        // interval (plus slack for event snapshots); clamped so a
        // degenerate record_dt cannot demand absurd memory up front.
        let expected_snapshots = (((opts.t_end - opts.t_start).value()
            / opts.record_dt.value().max(1e-9))
        .ceil() as usize)
            .saturating_add(16)
            .min(1 << 22);
        let recorder = Recorder::with_capacity(expected_snapshots);
        let supply_state = SupplyState::new(&self.supply, opts.supply_model)?;
        let solver = Rk23::new(
            AdaptiveOptions::new()
                .with_max_step(opts.max_step.value())
                .with_tolerances(1e-6, 1e-7),
        );

        let t_start = opts.t_start.value();
        let t_end = opts.t_end.value();
        let t = t_start;
        let vc = match &self.supply {
            Supply::Controlled { waveform } => waveform.sample(Seconds::new(t)).value(),
            Supply::Photovoltaic { .. } => self.initial_vc.value(),
        };

        // Governor start-up; its action applies once the lane exists.
        let action = self.governor.start(Seconds::new(t), Volts::new(vc), runtime.current_opp());
        let next_tick = self.governor.tick_period().map(|p| t + p.value());

        let thermal = match opts.thermal {
            ThermalSpec::Off => None,
            ThermalSpec::Rc(rc) => Some(ThermalState::new(rc)),
        };
        let arrival = ArrivalTimeline::build(opts.arrival, opts.arrival_seed, t_start, t_end);
        let arrival_duty = arrival.duty_at(t_start);

        let mut lane = Lane {
            supply: self.supply,
            buffer: self.buffer,
            monitor: self.monitor,
            governor: self.governor,
            opts,
            vmin,
            uses_irq,
            t_start,
            t_end,
            runtime,
            recorder,
            supply_state,
            solver,
            t,
            vc,
            next_tick,
            recheck_at: None,
            next_record: t + opts.record_dt.value(),
            thermal,
            arrival,
            arrival_duty,
        };
        let _ = lane.apply(action)?;
        // A stress boost can engage at cold start; the scales must be
        // in force before the first snapshot and the first advance.
        lane.refresh_scales();
        lane.snapshot()?;
        Ok(lane)
    }
}

/// One in-flight simulation between loop iterations: every variable of
/// the simulation loop — runtime, recorder, solver, supply state, event
/// bookkeeping. [`Simulation::run`] is its only driver.
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
    recorder: Recorder,
    supply_state: SupplyState,
    solver: Rk23,
    t: f64,
    vc: f64,
    next_tick: Option<f64>,
    recheck_at: Option<f64>,
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
    /// `true` once the lane has reached its window end or browned out
    /// (Table II semantics); `step` must not be called again.
    fn done(&self) -> bool {
        self.t >= self.t_end - 1e-12 || !self.runtime.is_alive()
    }

    /// One iteration of the hybrid loop: integrate toward the next
    /// discrete boundary (stopping early at threshold/brownout
    /// crossings, which resolve inline through the governor), then
    /// handle whichever discrete boundaries were reached.
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
        if let Some(r) = self.recheck_at {
            boundary = boundary.min(r);
        }
        boundary = boundary.min(self.next_record);
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
            // Continuous phase: advance toward the boundary.
            let armed = self.uses_irq
                && !self.runtime.is_transitioning()
                && !self.runtime.idle_masks_interrupts()
                && self.recheck_at.is_none();
            let (high, low) = if armed {
                let (h, l) = self.monitor.effective_thresholds();
                (Some(h.value()), Some(l.value()))
            } else {
                (None, None)
            };
            let ctx = AdvanceCtx {
                supply: &self.supply,
                supply_state: &mut self.supply_state,
                buffer: &self.buffer,
                solver: &mut self.solver,
                p_load,
                vmin: self.vmin,
                high,
                low,
            };
            let outcome = ctx.advance(self.t, self.vc, boundary)?;
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
            match outcome.event {
                Some(CrossKind::Brownout) => {
                    self.runtime.brownout(Seconds::new(self.t));
                    self.solver.notify_discontinuity();
                    self.snapshot()?;
                    return Ok(());
                }
                Some(kind) => {
                    self.deliver_edge(if kind == CrossKind::High {
                        ThresholdEdge::High
                    } else {
                        ThresholdEdge::Low
                    })?;
                    self.snapshot()?;
                    return Ok(());
                }
                None => {}
            }
            if self.t < boundary - 1e-12 {
                // Mid-flight accepted step; keep integrating.
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
        if self.recheck_at.is_some_and(|r| (r - self.t).abs() <= 1e-9) {
            self.recheck_at = None;
            if self.uses_irq
                && !self.runtime.is_transitioning()
                && !self.runtime.idle_masks_interrupts()
            {
                let (high, low) = self.monitor.effective_thresholds();
                if self.vc >= high.value() {
                    self.deliver_edge(ThresholdEdge::High)?;
                } else if self.vc <= low.value() {
                    self.deliver_edge(ThresholdEdge::Low)?;
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
        if self.t >= self.next_record - 1e-9 {
            self.snapshot()?;
            self.next_record = self.t + self.opts.record_dt.value();
        }
        Ok(())
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
                    let plan = plan_transition(
                        self.runtime.current_opp(),
                        target,
                        strategy,
                        self.runtime.platform().frequencies(),
                        self.runtime.platform().latency(),
                    )?;
                    if !plan.is_empty() {
                        changed = true;
                    }
                    self.runtime.begin_transition(plan, t);
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
        let target = Opp::new(current.config(), cap);
        let plan = plan_transition(
            current,
            target,
            TransitionStrategy::FrequencyFirst,
            self.runtime.platform().frequencies(),
            self.runtime.platform().latency(),
        )?;
        self.runtime.begin_transition(plan, Seconds::new(self.t));
        Ok(())
    }

    /// Takes the final snapshot and assembles the report.
    fn finish(mut self) -> Result<SimReport, SimError> {
        // Final snapshot at the stop time.
        self.snapshot()?;
        Ok(SimReport {
            governor: self.governor.name().to_string(),
            recorder: self.recorder,
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
        })
    }

    /// Records the lane's current state into its trace.
    fn snapshot(&mut self) -> Result<(), SimError> {
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
            Supply::Photovoltaic { .. } => {
                let i = self.supply_state.current(
                    &self.supply,
                    Seconds::new(self.t),
                    Volts::new(self.vc),
                )?;
                Volts::new(self.vc) * i
            }
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
        self.recorder.record(&Snapshot {
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
        Ok(())
    }
}

/// The continuous-phase context of one lane: the integration resources
/// (supply, fast-path state, buffer, solver) plus the load power and
/// the armed threshold set, assembled by each `Lane::step` from its
/// own fields.
struct AdvanceCtx<'a> {
    supply: &'a Supply,
    supply_state: &'a mut SupplyState,
    buffer: &'a Supercapacitor,
    solver: &'a mut Rk23,
    /// Total load power drawn from the buffer node, watts.
    p_load: f64,
    /// Brown-out level (always armed: a lane stops at brownout).
    vmin: f64,
    /// Rising threshold — armed when interrupts are live.
    high: Option<f64>,
    /// Falling threshold — armed when interrupts are live.
    low: Option<f64>,
}

impl AdvanceCtx<'_> {
    /// Advances the continuous state from `(t, vc)` toward `boundary`,
    /// stopping at the earliest crossing (brownout, Vhigh rising, Vlow
    /// falling).
    fn advance(self, t: f64, vc: f64, boundary: f64) -> Result<AdvanceOutcome, SimError> {
        let AdvanceCtx { supply, supply_state, buffer, solver, p_load, vmin, high, low } = self;
        match supply {
            Supply::Controlled { waveform } => {
                let f = |tt: f64| waveform.sample(Seconds::new(tt)).value();
                let subdivisions = (((boundary - t) / 0.01).ceil() as usize).clamp(4, 4000);
                let found = scan_crossings(&f, t, boundary, subdivisions, Some(vmin), high, low)?;
                match found {
                    Some((tc, kind)) => {
                        Ok(AdvanceOutcome { t: tc, vc: f(tc), event: Some(kind) })
                    }
                    None => Ok(AdvanceOutcome { t: boundary, vc: f(boundary), event: None }),
                }
            }
            Supply::Photovoltaic { .. } => {
                let mut solve_error: Option<SimError> = None;
                let mut deriv = |tt: f64, y: &[f64; 1]| -> [f64; 1] {
                    let v = y[0].max(0.05);
                    // The supply fast path: monotone irradiance cursor plus
                    // warm-started Newton (or the interpolation surface).
                    let i_in = match supply_state.current(supply, Seconds::new(tt), Volts::new(v))
                    {
                        Ok(i) => i,
                        Err(e) => {
                            solve_error = Some(e);
                            pn_units::Amps::ZERO
                        }
                    };
                    let i_out = pn_units::Amps::new(p_load / v.max(0.3));
                    [buffer.dv_dt(Volts::new(v), i_in, i_out)]
                };
                let step = solver.step(&mut deriv, t, &[vc], boundary)?;
                if let Some(e) = solve_error {
                    return Err(e);
                }
                // Rigorous range bound of the cubic Hermite dense output on
                // this step: the Hermite value basis stays inside
                // [min(y0,y1), max(y0,y1)] and the two tangent basis
                // polynomials peak at 4/27, so thresholds outside the
                // bound cannot be crossed — skip their subdivision scans
                // entirely (the overwhelmingly common case). Detection on
                // the remaining thresholds is bit-identical to scanning
                // all of them.
                let (y0, y1) = (step.y0[0], step.y1[0]);
                let margin =
                    (4.0 / 27.0) * (step.t1 - step.t0) * (step.f0[0].abs() + step.f1[0].abs());
                let reachable = |threshold: &f64| {
                    *threshold >= y0.min(y1) - margin && *threshold <= y0.max(y1) + margin
                };
                let f = |tt: f64| step.interpolate(tt)[0];
                let subdivisions = 8;
                let found = scan_crossings(
                    &f,
                    step.t0,
                    step.t1,
                    subdivisions,
                    Some(vmin).filter(reachable),
                    high.filter(reachable),
                    low.filter(reachable),
                )?;
                match found {
                    Some((tc, kind)) => {
                        Ok(AdvanceOutcome { t: tc, vc: f(tc), event: Some(kind) })
                    }
                    None => Ok(AdvanceOutcome { t: step.t1, vc: step.y1[0], event: None }),
                }
            }
        }
    }
}

/// Finds the earliest qualifying crossing of the three monitored
/// levels on `[a, b]`.
fn scan_crossings(
    f: &impl Fn(f64) -> f64,
    a: f64,
    b: f64,
    subdivisions: usize,
    vmin: Option<f64>,
    high: Option<f64>,
    low: Option<f64>,
) -> Result<Option<(f64, CrossKind)>, SimError> {
    let mut best: Option<(f64, CrossKind)> = None;
    let mut consider = |threshold: f64,
                        want: CrossingDirection,
                        kind: CrossKind|
     -> Result<(), SimError> {
        if let Some(c) = first_threshold_crossing(f, threshold, a, b, subdivisions, 1e-9)? {
            if c.direction == want && best.is_none_or(|(bt, _)| c.t < bt) {
                best = Some((c.t, kind));
            }
        }
        Ok(())
    };
    if let Some(v) = vmin {
        consider(v, CrossingDirection::Falling, CrossKind::Brownout)?;
    }
    if let Some(h) = high {
        consider(h, CrossingDirection::Rising, CrossKind::High)?;
    }
    if let Some(l) = low {
        consider(l, CrossingDirection::Falling, CrossKind::Low)?;
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supply::VoltageWaveform;
    use pn_core::governor::PowerNeutralGovernor;
    use pn_core::params::ControlParams;
    use pn_governors::{Performance, Powersave};
    use pn_harvest::irradiance::IrradianceTrace;
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

    fn build(
        governor: Box<dyn Governor>,
        supply: Supply,
        t_end: f64,
        initial_opp: Opp,
    ) -> Simulation {
        Simulation::new(
            Platform::odroid_xu4(),
            supply,
            Supercapacitor::paper_buffer(),
            VoltageMonitor::paper_board().unwrap(),
            governor,
            initial_opp,
            Volts::new(5.3),
            SimOptions::new(Seconds::new(t_end)),
        )
        .unwrap()
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
        let sim = build(
            Box::new(Performance::new()),
            pv_supply(560.0, 30.0),
            30.0,
            Opp::new(pn_soc::cores::CoreConfig::MAX, 0),
        );
        let report = sim.run().unwrap();
        assert!(!report.survived(), "performance should brown out");
        assert!(report.lifetime().unwrap().value() < 5.0);
    }

    #[test]
    fn powersave_survives_weak_sun() {
        let sim = build(
            Box::new(Powersave::new()),
            pv_supply(560.0, 30.0),
            30.0,
            Opp::new(pn_soc::cores::CoreConfig::MAX, 0),
        );
        let report = sim.run().unwrap();
        assert!(report.survived(), "powersave must survive ≈3.3 W harvest");
        assert!(report.work().instructions() > 0.0);
    }

    #[test]
    fn power_neutral_survives_and_outperforms_powersave() {
        let pn = build(
            pn_governor(),
            pv_supply(560.0, 60.0),
            60.0,
            Opp::lowest(),
        )
        .run()
        .unwrap();
        assert!(pn.survived(), "power-neutral must survive");
        let ps = build(
            Box::new(Powersave::new()),
            pv_supply(560.0, 60.0),
            60.0,
            Opp::new(pn_soc::cores::CoreConfig::MAX, 0),
        )
        .run()
        .unwrap();
        assert!(
            pn.work().instructions() > ps.work().instructions(),
            "pn {} vs powersave {}",
            pn.work().instructions(),
            ps.work().instructions()
        );
    }

    #[test]
    fn power_neutral_tracks_mpp_voltage() {
        let report =
            build(pn_governor(), pv_supply(560.0, 120.0), 120.0, Opp::lowest()).run().unwrap();
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
        let sim = build(pn_governor(), Supply::Controlled { waveform }, 20.0, start);
        let report = sim.run().unwrap();
        assert!(report.survived());
        let freq = report.recorder().frequency_ghz();
        let first = freq.values()[0];
        let last = *freq.values().last().unwrap();
        assert!(last < first, "frequency should have scaled down: {first} → {last}");
    }

    #[test]
    fn brownout_is_reported_with_interpolated_time() {
        // Darkness: the board discharges the 47 mF buffer and dies.
        let sim = build(
            Box::new(Performance::new()),
            pv_supply(0.0, 10.0),
            10.0,
            Opp::new(pn_soc::cores::CoreConfig::MAX, 7),
        );
        let report = sim.run().unwrap();
        let life = report.lifetime().unwrap().value();
        // ~7 W from 47 mF between 5.3 and 4.1 V: C·ΔV/I ≈ 0.047·1.2/1.4 ≈ 40 ms.
        assert!(life > 0.005 && life < 0.5, "lifetime {life}");
        let final_vc = report.final_vc().value();
        assert!((final_vc - 4.1).abs() < 0.05, "died at {final_vc} V");
    }

    #[test]
    fn report_accessors_are_consistent() {
        let report =
            build(pn_governor(), pv_supply(560.0, 10.0), 10.0, Opp::lowest()).run().unwrap();
        assert_eq!(report.governor(), "power-neutral");
        assert!(report.duration().value() > 9.9);
        assert!(report.recorder().len() > 5);
        assert!(report.control_cpu_fraction() < 0.05);
    }

    #[test]
    fn interpolated_model_tracks_the_exact_engine() {
        let run = |model: SupplyModel| {
            Simulation::new(
                Platform::odroid_xu4(),
                pv_supply(560.0, 30.0),
                Supercapacitor::paper_buffer(),
                VoltageMonitor::paper_board().unwrap(),
                pn_governor(),
                Opp::lowest(),
                Volts::new(5.3),
                SimOptions::new(Seconds::new(30.0)).with_supply_model(model),
            )
            .unwrap()
            .run()
            .unwrap()
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
    fn sim_overrides_apply_sparsely() {
        let base = SimOptions::new(Seconds::new(10.0));
        assert_eq!(base.supply_model, SupplyModel::Exact);
        let overrides = SimOverrides::none()
            .with_record_dt(Seconds::new(2.0))
            .with_supply_model(SupplyModel::interpolated());
        assert!(!overrides.is_none());
        assert!(SimOverrides::none().is_none());
        let merged = base.with_overrides(&overrides);
        assert_eq!(merged.record_dt, Seconds::new(2.0));
        assert_eq!(merged.supply_model, SupplyModel::interpolated());
        // Unset fields inherit.
        assert_eq!(merged.max_step, base.max_step);
        assert_eq!(merged.t_end, base.t_end);
    }

    #[test]
    fn record_dt_override_decimates_the_trace() {
        let run = |overrides: SimOverrides| {
            Simulation::new(
                Platform::odroid_xu4(),
                pv_supply(560.0, 10.0),
                Supercapacitor::paper_buffer(),
                VoltageMonitor::paper_board().unwrap(),
                Box::new(Powersave::new()),
                Opp::new(pn_soc::cores::CoreConfig::MAX, 0),
                Volts::new(5.3),
                SimOptions::new(Seconds::new(10.0)).with_overrides(&overrides),
            )
            .unwrap()
            .run()
            .unwrap()
        };
        let dense = run(SimOverrides::none()); // default 0.5 s grid
        let sparse = run(SimOverrides::none().with_record_dt(Seconds::new(5.0)));
        assert!(
            sparse.recorder().len() * 2 < dense.recorder().len(),
            "decimation had no effect: {} vs {}",
            sparse.recorder().len(),
            dense.recorder().len()
        );
    }

    #[test]
    fn default_axes_are_bitwise_inert() {
        // Explicitly setting thermal Off + saturated arrivals must
        // reproduce the untouched-options run bit for bit: no scale,
        // cap, or boundary code may fire on the default path.
        let base = build(pn_governor(), pv_supply(560.0, 20.0), 20.0, Opp::lowest());
        let plain = base.run().unwrap();
        let mut spelled = build(pn_governor(), pv_supply(560.0, 20.0), 20.0, Opp::lowest());
        spelled.options = spelled
            .options
            .with_thermal(ThermalSpec::Off)
            .with_arrival(ArrivalSpec::Saturated, 99);
        assert_eq!(plain, spelled.run().unwrap());
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
        let mut sim = build(
            Box::new(Performance::new()),
            Supply::Controlled { waveform },
            400.0,
            Opp::new(pn_soc::cores::CoreConfig::MAX, 7),
        );
        sim.options = sim.options.with_thermal(ThermalSpec::stress());
        let report = sim.run().unwrap();
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
        let report =
            build(pn_governor(), pv_supply(560.0, 10.0), 10.0, Opp::lowest()).run().unwrap();
        assert_eq!(report.peak_temp_c(), 0.0);
        assert_eq!(report.throttle_time(), Seconds::ZERO);
        assert_eq!(report.boost_time(), Seconds::ZERO);
    }

    #[test]
    fn bursty_arrivals_cut_work_and_power() {
        let make = |arrival: ArrivalSpec| {
            let mut sim = build(
                Box::new(Powersave::new()),
                pv_supply(560.0, 300.0),
                300.0,
                Opp::new(pn_soc::cores::CoreConfig::MAX, 0),
            );
            sim.options = sim.options.with_arrival(arrival, 17);
            sim.run().unwrap()
        };
        let saturated = make(ArrivalSpec::Saturated);
        let bursty = make(ArrivalSpec::bursty_stress());
        assert!(
            bursty.work().instructions() < saturated.work().instructions(),
            "gaps must cost work: {} vs {}",
            bursty.work().instructions(),
            saturated.work().instructions()
        );
        // Same arrival seed replays bitwise.
        assert_eq!(bursty, make(ArrivalSpec::bursty_stress()));
        // A different seed produces a different trajectory.
        let mut other = build(
            Box::new(Powersave::new()),
            pv_supply(560.0, 300.0),
            300.0,
            Opp::new(pn_soc::cores::CoreConfig::MAX, 0),
        );
        other.options = other.options.with_arrival(ArrivalSpec::bursty_stress(), 18);
        assert_ne!(bursty, other.run().unwrap());
    }

    #[test]
    fn rejects_empty_window() {
        let r = Simulation::new(
            Platform::odroid_xu4(),
            pv_supply(500.0, 1.0),
            Supercapacitor::paper_buffer(),
            VoltageMonitor::paper_board().unwrap(),
            pn_governor(),
            Opp::lowest(),
            Volts::new(5.3),
            SimOptions::new(Seconds::ZERO),
        );
        assert!(r.is_err());
    }
}
