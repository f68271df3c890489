//! The SoC runtime: current OPP, in-flight transitions, work and
//! overhead accounting.

use pn_soc::opp::Opp;
use pn_soc::platform::Platform;
use pn_soc::transition::TransitionStep;
use pn_units::{Seconds, Watts};
use pn_workload::work::WorkAccount;
use std::collections::VecDeque;

/// Where an in-flight idle (DPM) move stands.
#[derive(Debug, Clone, Copy, PartialEq)]
enum IdlePhase {
    /// Dropping into the state; completes at `step_deadline`.
    /// Interrupts are masked and active power still burns.
    Entering,
    /// Resident in the state since `entered_at`: idle power, wake
    /// interrupts live, no deadline until a wake is requested.
    Resident { entered_at: Seconds },
    /// Waking; completes at `step_deadline`. Interrupts are masked.
    Exiting,
}

/// An idle move in flight: which ladder state and which phase.
#[derive(Debug, Clone, Copy, PartialEq)]
struct IdleFlight {
    index: usize,
    phase: IdlePhase,
}

/// Live platform state during a simulation.
#[derive(Debug, Clone)]
pub struct SocRuntime {
    platform: Platform,
    current: Opp,
    alive: bool,
    /// Remaining steps of an in-flight transition; the front step is
    /// executing and completes at `step_deadline`.
    pending: VecDeque<TransitionStep>,
    step_deadline: Option<Seconds>,
    /// In-flight idle move; mutually exclusive with `pending` (an OPP
    /// transition and an idle move never overlap).
    idle: Option<IdleFlight>,
    work: WorkAccount,
    control_cpu: Seconds,
    transitions_started: u64,
    idle_time: Seconds,
    idle_entries: u64,
    death_time: Option<Seconds>,
    /// Thermal-throttle ceiling on requested frequency levels, if any.
    level_cap: Option<usize>,
    /// Multiplier on the active OPP's power draw (boost). Exactly 1.0
    /// outside boost, so the default path multiplies by the identity.
    power_scale: f64,
    /// Multiplier on the active OPP's throughput (boost × arrival
    /// duty). Exactly 1.0 for the default saturated, unboosted path.
    perf_scale: f64,
}

impl SocRuntime {
    /// Creates a runtime at an initial OPP.
    pub fn new(platform: Platform, initial: Opp) -> Self {
        Self {
            platform,
            current: initial,
            alive: true,
            pending: VecDeque::new(),
            step_deadline: None,
            idle: None,
            work: WorkAccount::new(),
            control_cpu: Seconds::ZERO,
            transitions_started: 0,
            idle_time: Seconds::ZERO,
            idle_entries: 0,
            death_time: None,
            level_cap: None,
            power_scale: 1.0,
            perf_scale: 1.0,
        }
    }

    /// The platform description.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The committed OPP (the transition target once a transition
    /// completes, otherwise the stable point).
    pub fn current_opp(&self) -> Opp {
        self.current
    }

    /// The OPP the hardware is *electrically* at right now: during a
    /// transition step the pre-step OPP still burns power.
    pub fn effective_opp(&self) -> Opp {
        self.pending.front().map_or(self.current, |step| step.during)
    }

    /// `true` while an OPP change is in flight (interrupts are masked).
    pub fn is_transitioning(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Deadline of the executing transition step.
    pub fn step_deadline(&self) -> Option<Seconds> {
        self.step_deadline
    }

    /// `true` until brownout.
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// Time of death, if the board browned out.
    pub fn death_time(&self) -> Option<Seconds> {
        self.death_time
    }

    /// Completed work.
    pub fn work(&self) -> &WorkAccount {
        &self.work
    }

    /// Accumulated CPU time spent in the power-budgeting software.
    pub fn control_cpu_time(&self) -> Seconds {
        self.control_cpu
    }

    /// Number of OPP transitions started.
    pub fn transitions_started(&self) -> u64 {
        self.transitions_started
    }

    /// `true` while any idle move is in flight (entering, resident or
    /// exiting).
    pub fn is_idle(&self) -> bool {
        self.idle.is_some()
    }

    /// `true` while an idle entry or exit masks interrupts (like an
    /// OPP transition does).
    pub fn idle_masks_interrupts(&self) -> bool {
        matches!(
            self.idle,
            Some(IdleFlight { phase: IdlePhase::Entering | IdlePhase::Exiting, .. })
        )
    }

    /// Accumulated time spent resident in idle states.
    pub fn idle_time(&self) -> Seconds {
        self.idle_time
    }

    /// Number of idle entries started.
    pub fn idle_entries(&self) -> u64 {
        self.idle_entries
    }

    /// Board power right now (zero after brownout).
    ///
    /// While resident in an idle state the board draws the state's
    /// power; during idle entry/exit it still draws the active OPP's
    /// power plus the state's transition energy amortized over the
    /// entry+exit window.
    pub fn power(&self) -> Watts {
        if !self.alive {
            return Watts::ZERO;
        }
        if let Some(flight) = self.idle {
            let state = &self.platform.idle_states()[flight.index];
            match flight.phase {
                IdlePhase::Resident { .. } => return state.power(),
                IdlePhase::Entering | IdlePhase::Exiting => {
                    let overhead = state.overhead().value();
                    let extra = if overhead > 0.0 {
                        state.transition_energy().value() / overhead
                    } else {
                        0.0
                    };
                    return self.active_power() + Watts::new(extra);
                }
            }
        }
        let p = self.active_power();
        // `power_scale` is exactly 1.0 outside boost, and x·1.0 is the
        // bitwise identity — the default path is unchanged.
        Watts::new(p.value() * self.power_scale)
    }

    /// Board power of the effective OPP, read from the platform's
    /// operating-point table; zero for a level the table lacks.
    fn active_power(&self) -> Watts {
        self.platform.opp_table().row(self.effective_opp()).map_or(Watts::ZERO, |row| row.power)
    }

    /// Starts dropping into the platform idle state at ladder index
    /// `index` (clamped to the deepest state) at time `t`. Refused —
    /// returning `false` — while dead, transitioning or already idle.
    pub fn begin_idle(&mut self, index: usize, t: Seconds) -> bool {
        if !self.alive || self.is_transitioning() || self.idle.is_some() {
            return false;
        }
        let states = self.platform.idle_states();
        let index = index.min(states.len() - 1);
        let entry = states[index].entry_latency();
        self.idle = Some(IdleFlight { index, phase: IdlePhase::Entering });
        self.step_deadline = Some(t + entry);
        self.idle_entries += 1;
        true
    }

    /// Requests a wake from the resident idle state at time `t`. The
    /// exit completes — honouring the state's residency floor — at the
    /// returned `step_deadline`. Returns `false` unless resident.
    pub fn request_wake(&mut self, t: Seconds) -> bool {
        let Some(IdleFlight { index, phase: IdlePhase::Resident { entered_at } }) = self.idle
        else {
            return false;
        };
        let state = &self.platform.idle_states()[index];
        let earliest = (entered_at + state.min_residency()).max(t);
        self.step_deadline = Some(earliest + state.exit_latency());
        self.idle = Some(IdleFlight { index, phase: IdlePhase::Exiting });
        true
    }

    /// Starts a transition plan at time `t`. An empty plan is a no-op,
    /// as is any plan while an idle move is in flight (wake first).
    pub fn begin_transition(&mut self, plan: Vec<TransitionStep>, t: Seconds) {
        if plan.is_empty() || !self.alive || self.idle.is_some() {
            return;
        }
        // A new command pre-empts any queued (not yet guaranteed) steps:
        // the executing step finishes, the rest are replaced. For
        // simplicity — and because the governor masks interrupts during
        // transitions — pre-emption only occurs from tick governors,
        // where the previous plan is abandoned cleanly at a step edge.
        self.current = plan.last().expect("non-empty plan").after;
        self.pending = plan.into();
        let first = self.pending.front().expect("non-empty plan");
        self.step_deadline = Some(t + first.duration);
        self.transitions_started += 1;
    }

    /// Completes the executing step at time `t`; returns `true` when
    /// the whole transition (or idle entry/exit) has finished.
    pub fn complete_step(&mut self, t: Seconds) -> bool {
        if self.pending.is_empty() {
            // The deadline belongs to an idle move, not an OPP plan.
            match self.idle {
                Some(IdleFlight { index, phase: IdlePhase::Entering }) => {
                    self.idle =
                        Some(IdleFlight { index, phase: IdlePhase::Resident { entered_at: t } });
                }
                Some(IdleFlight { phase: IdlePhase::Exiting, .. }) => {
                    self.idle = None;
                }
                _ => {}
            }
            self.step_deadline = None;
            return true;
        }
        self.pending.pop_front();
        match self.pending.front() {
            Some(next) => {
                self.step_deadline = Some(t + next.duration);
                false
            }
            None => {
                self.step_deadline = None;
                true
            }
        }
    }

    /// Accrues `dt` of execution at the effective OPP's rates, plus
    /// `control_dt` of that window spent in the budgeting software. No
    /// work accrues during an idle move; resident time counts toward
    /// [`Self::idle_time`].
    pub fn accrue(&mut self, dt: Seconds, control_dt: Seconds) {
        if !self.alive || dt.value() <= 0.0 {
            return;
        }
        if let Some(flight) = self.idle {
            if matches!(flight.phase, IdlePhase::Resident { .. }) {
                self.idle_time += dt;
            }
            return;
        }
        let Some(row) = self.platform.opp_table().row(self.effective_opp()) else { return };
        // `perf_scale` is exactly 1.0 for the saturated, unboosted
        // default, so the multiplication is a bitwise no-op there.
        let scale = self.perf_scale;
        self.work.accrue(
            dt.value(),
            row.frames_per_second * scale,
            row.instructions_per_second * scale,
        );
        self.control_cpu += control_dt.min(dt);
    }

    /// Adds control-software CPU time outside the accrual path (e.g.
    /// an interrupt handler at an event instant).
    pub fn charge_control_time(&mut self, cost: Seconds) {
        if self.alive {
            self.control_cpu += cost;
        }
    }

    /// Marks the board dead at `t` (supply fell below the operating
    /// minimum).
    pub fn brownout(&mut self, t: Seconds) {
        if self.alive {
            self.alive = false;
            self.death_time = Some(t);
            self.pending.clear();
            self.step_deadline = None;
            self.idle = None;
        }
    }

    /// Resolves a requested level index against the platform table —
    /// `usize::MAX` (and anything out of range) clamps to the top —
    /// and against the thermal-throttle ceiling when one is in force.
    pub fn clamp_level(&self, level: usize) -> usize {
        level.min(self.platform.frequencies().max_level()).min(self.level_cap.unwrap_or(usize::MAX))
    }

    /// The thermal-throttle level ceiling in force, if any.
    pub fn level_cap(&self) -> Option<usize> {
        self.level_cap
    }

    /// Installs (or lifts, with `None`) the thermal-throttle level
    /// ceiling applied by [`Self::clamp_level`]. The cap gates future
    /// requests; it does not move the current OPP by itself — the
    /// engine plans the forced down-transition.
    pub fn set_level_cap(&mut self, cap: Option<usize>) {
        self.level_cap = cap;
    }

    /// Installs the boost/arrival multipliers applied to the active
    /// OPP's power draw and throughput. Both are exactly 1.0 on the
    /// default path, where the multiplications are bitwise no-ops.
    pub fn set_scales(&mut self, power_scale: f64, perf_scale: f64) {
        self.power_scale = power_scale;
        self.perf_scale = perf_scale;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pn_soc::cores::CoreConfig;
    use pn_soc::transition::{plan_transition, TransitionStrategy};

    /// `true` while the SoC sits *resident* in an idle state (wake
    /// interrupts are live).
    fn is_idle_resident(rt: &SocRuntime) -> bool {
        matches!(rt.idle, Some(IdleFlight { phase: IdlePhase::Resident { .. }, .. }))
    }

    fn runtime() -> SocRuntime {
        SocRuntime::new(Platform::odroid_xu4(), Opp::lowest())
    }

    fn plan(rt: &SocRuntime, from: Opp, to: Opp) -> Vec<TransitionStep> {
        plan_transition(
            from,
            to,
            TransitionStrategy::CoreFirst,
            rt.platform().frequencies(),
            rt.platform().latency(),
        )
        .unwrap()
    }

    #[test]
    fn effective_opp_tracks_transition_steps() {
        let mut rt = runtime();
        let target = Opp::new(CoreConfig::new(2, 0).unwrap(), 2);
        let p = plan(&rt, rt.current_opp(), target);
        rt.begin_transition(p, Seconds::ZERO);
        assert!(rt.is_transitioning());
        // During the first step the old OPP still burns.
        assert_eq!(rt.effective_opp().config(), CoreConfig::MIN);
        // Walk all steps.
        let mut t = rt.step_deadline().unwrap();
        while !rt.complete_step(t) {
            t = rt.step_deadline().unwrap();
        }
        assert!(!rt.is_transitioning());
        assert_eq!(rt.effective_opp(), target);
        assert_eq!(rt.transitions_started(), 1);
    }

    #[test]
    fn power_drops_to_zero_after_brownout() {
        let mut rt = runtime();
        assert!(rt.power().value() > 1.0);
        rt.brownout(Seconds::new(5.0));
        assert!(!rt.is_alive());
        assert_eq!(rt.power(), Watts::ZERO);
        assert_eq!(rt.death_time(), Some(Seconds::new(5.0)));
    }

    #[test]
    fn accrual_counts_work_and_overhead() {
        let mut rt = runtime();
        rt.accrue(Seconds::new(10.0), Seconds::new(0.01));
        assert!(rt.work().instructions() > 0.0);
        assert!((rt.control_cpu_time().value() - 0.01).abs() < 1e-12);
        // Dead boards accrue nothing.
        rt.brownout(Seconds::new(10.0));
        let before = rt.work().instructions();
        rt.accrue(Seconds::new(10.0), Seconds::ZERO);
        assert_eq!(rt.work().instructions(), before);
    }

    #[test]
    fn out_of_range_levels_draw_nothing_and_accrue_nothing() {
        let mut rt = SocRuntime::new(Platform::odroid_xu4(), Opp::new(CoreConfig::MAX, 8));
        assert_eq!(rt.power(), Watts::ZERO);
        rt.accrue(Seconds::new(10.0), Seconds::new(0.01));
        assert_eq!(rt.work().instructions(), 0.0);
        assert_eq!(rt.work().benchmark_frames(), 0.0);
        assert_eq!(rt.control_cpu_time(), Seconds::ZERO);
    }

    #[test]
    fn table_rows_match_the_models_bitwise() {
        let platform = Platform::odroid_xu4();
        let opp = Opp::new(CoreConfig::new(3, 2).unwrap(), 5);
        let f = platform.frequencies().frequency(5).unwrap();
        let mut rt = SocRuntime::new(platform.clone(), opp);
        assert_eq!(rt.power(), platform.power().board_power(opp.config(), f));
        rt.accrue(Seconds::new(1.0), Seconds::ZERO);
        let ips = platform.perf().instructions_per_second(opp.config(), f);
        let fps = platform.perf().frames_per_second(opp.config(), f);
        assert_eq!(rt.work().instructions().to_bits(), ips.to_bits());
        assert_eq!(rt.work().benchmark_frames().to_bits(), fps.to_bits());
    }

    #[test]
    fn clamp_level_resolves_sentinels() {
        let rt = runtime();
        assert_eq!(rt.clamp_level(usize::MAX), 7);
        assert_eq!(rt.clamp_level(3), 3);
    }

    #[test]
    fn level_cap_gates_requests_until_lifted() {
        let mut rt = runtime();
        rt.set_level_cap(Some(2));
        assert_eq!(rt.level_cap(), Some(2));
        assert_eq!(rt.clamp_level(usize::MAX), 2);
        assert_eq!(rt.clamp_level(7), 2);
        assert_eq!(rt.clamp_level(1), 1);
        rt.set_level_cap(None);
        assert_eq!(rt.clamp_level(7), 7);
    }

    #[test]
    fn scales_multiply_power_and_work() {
        let mut rt = runtime();
        let base_power = rt.power();
        rt.accrue(Seconds::new(1.0), Seconds::ZERO);
        let base_work = rt.work().instructions();
        // Unit scales are the bitwise identity.
        rt.set_scales(1.0, 1.0);
        assert_eq!(rt.power().value().to_bits(), base_power.value().to_bits());
        // Boost scales both power and throughput.
        rt.set_scales(1.35, 1.2);
        assert_eq!(rt.power().value().to_bits(), (base_power.value() * 1.35).to_bits());
        rt.accrue(Seconds::new(1.0), Seconds::ZERO);
        let boosted = rt.work().instructions() - base_work;
        assert!(
            (boosted - base_work * 1.2).abs() < base_work * 1e-12,
            "boosted second accrued {boosted}, want {}",
            base_work * 1.2
        );
    }

    #[test]
    fn empty_plan_is_a_noop() {
        let mut rt = runtime();
        rt.begin_transition(Vec::new(), Seconds::ZERO);
        assert!(!rt.is_transitioning());
        assert_eq!(rt.transitions_started(), 0);
    }

    #[test]
    fn idle_lifecycle_walks_enter_resident_exit() {
        let mut rt = runtime();
        let states = rt.platform().idle_states().to_vec();
        let deep = &states[1];
        let active = rt.power();

        assert!(rt.begin_idle(usize::MAX, Seconds::ZERO)); // clamps to deepest
        assert_eq!(rt.idle.map(|f| f.index), Some(1));
        assert!(rt.idle_masks_interrupts());
        assert!(!is_idle_resident(&rt));
        // Entering burns more than active (transition energy amortized).
        assert!(rt.power() > active);
        let entered = rt.step_deadline().unwrap();
        assert_eq!(entered, Seconds::ZERO + deep.entry_latency());

        assert!(rt.complete_step(entered));
        assert!(is_idle_resident(&rt));
        assert!(!rt.idle_masks_interrupts());
        assert_eq!(rt.power(), deep.power());
        assert_eq!(rt.step_deadline(), None);

        // Resident time accrues as idle time, not work.
        let work_before = rt.work().instructions();
        rt.accrue(Seconds::new(2.0), Seconds::ZERO);
        assert_eq!(rt.work().instructions(), work_before);
        assert_eq!(rt.idle_time(), Seconds::new(2.0));

        // A wake just after entry is floored by the residency minimum.
        let wake_at = entered + Seconds::new(2.0);
        assert!(rt.request_wake(wake_at));
        let exit_deadline = rt.step_deadline().unwrap();
        assert_eq!(exit_deadline, (entered + deep.min_residency()).max(wake_at) + deep.exit_latency());
        assert!(rt.idle_masks_interrupts());
        assert!(rt.complete_step(exit_deadline));
        assert!(!rt.is_idle());
        assert_eq!(rt.idle_entries(), 1);
        assert_eq!(rt.power(), active);
    }

    #[test]
    fn idle_and_transitions_are_mutually_exclusive() {
        let mut rt = runtime();
        // While idle, transition plans are refused.
        assert!(rt.begin_idle(0, Seconds::ZERO));
        let p = plan(&rt, rt.current_opp(), Opp::new(CoreConfig::new(2, 0).unwrap(), 2));
        rt.begin_transition(p.clone(), Seconds::ZERO);
        assert_eq!(rt.transitions_started(), 0);
        // A second idle entry is refused too.
        assert!(!rt.begin_idle(0, Seconds::ZERO));
        // Wake requests outside residency are refused.
        assert!(!rt.request_wake(Seconds::ZERO));

        // While transitioning, idle entry is refused.
        let mut rt = runtime();
        rt.begin_transition(p, Seconds::ZERO);
        assert!(!rt.begin_idle(0, Seconds::ZERO));
    }

    #[test]
    fn brownout_clears_idle_state() {
        let mut rt = runtime();
        assert!(rt.begin_idle(0, Seconds::ZERO));
        rt.brownout(Seconds::new(1.0));
        assert!(!rt.is_idle());
        assert_eq!(rt.power(), Watts::ZERO);
    }
}
