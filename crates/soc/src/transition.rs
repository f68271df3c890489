//! Multi-step OPP transition planning and costing (Table I).
//!
//! §IV-A of the paper asks: when the harvest collapses, how much charge
//! does the board draw while scaling from the *highest* OPP to the
//! *lowest*, and therefore how big must the buffer capacitor be? Two
//! orderings are compared:
//!
//! * **(a) frequency-first** — step the clock all the way down, then
//!   hot-unplug seven cores *at 200 MHz*, where each unplug is slowest;
//! * **(b) core-first** — hot-unplug at 1.4 GHz (fast), then step the
//!   clock down with only CPU0 online.
//!
//! The paper measures δ = 345.42 ms / Q = 0.1299 C for (a) versus
//! δ = 63.21 ms / Q = 0.0461 C for (b). [`plan_transition`] builds the
//! step sequence and [`transition_cost`] integrates time and charge,
//! assuming each step consumes the power of its *pre-step* OPP (a core
//! keeps burning until its unplug completes; a down-clock keeps the old
//! frequency power until the PLL relocks).

use crate::cores::{CoreConfig, CoreType};
use crate::freq::FrequencyTable;
use crate::latency::{DvfsDirection, LatencyModel};
use crate::opp::Opp;
use crate::power::PowerModel;
use crate::SocError;
use pn_units::{Coulombs, Seconds, Volts, Watts};
use std::fmt;

/// The order in which a compound OPP change is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransitionStrategy {
    /// Change frequency first, then hot-plug cores (Table I scenario a).
    FrequencyFirst,
    /// Hot-plug cores first, then change frequency (Table I scenario b).
    CoreFirst,
}

impl fmt::Display for TransitionStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransitionStrategy::FrequencyFirst => write!(f, "frequency, core"),
            TransitionStrategy::CoreFirst => write!(f, "core, frequency"),
        }
    }
}

/// What a single transition step does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepKind {
    /// A single-level frequency change.
    Dvfs(DvfsDirection),
    /// Plugging one core of the given type.
    Plug(CoreType),
    /// Unplugging one core of the given type.
    Unplug(CoreType),
}

/// One atomic step of a transition plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransitionStep {
    /// What the step does.
    pub kind: StepKind,
    /// OPP in force *while the step executes* (pre-step state).
    pub during: Opp,
    /// OPP after the step completes.
    pub after: Opp,
    /// Wall-clock duration of the step.
    pub duration: Seconds,
}

/// Builds the step sequence that takes the platform from `from` to
/// `to` using `strategy`.
///
/// Core changes walk LITTLE-count then big-count toward the target;
/// removals drop big cores first (they burn the most power), additions
/// bring LITTLE cores up first — matching the paper's ladder ordering.
///
/// # Errors
///
/// Returns [`SocError::LevelOutOfRange`] when either OPP's level does
/// not exist in `table`.
pub fn plan_transition(
    from: Opp,
    to: Opp,
    strategy: TransitionStrategy,
    table: &FrequencyTable,
    latency: &LatencyModel,
) -> Result<Vec<TransitionStep>, SocError> {
    // Validate both endpoints up front.
    from.frequency(table)?;
    to.frequency(table)?;
    let mut steps = Vec::new();
    let mut current = from;
    match strategy {
        TransitionStrategy::FrequencyFirst => {
            push_freq_steps(&mut steps, &mut current, to.level(), table, latency)?;
            push_core_steps(&mut steps, &mut current, to.config(), table, latency)?;
        }
        TransitionStrategy::CoreFirst => {
            push_core_steps(&mut steps, &mut current, to.config(), table, latency)?;
            push_freq_steps(&mut steps, &mut current, to.level(), table, latency)?;
        }
    }
    Ok(steps)
}

fn push_freq_steps(
    steps: &mut Vec<TransitionStep>,
    current: &mut Opp,
    target_level: usize,
    table: &FrequencyTable,
    latency: &LatencyModel,
) -> Result<(), SocError> {
    while current.level() != target_level {
        let direction =
            if target_level < current.level() { DvfsDirection::Down } else { DvfsDirection::Up };
        let next_level = match direction {
            DvfsDirection::Down => table.step_down(current.level()),
            DvfsDirection::Up => table.step_up(current.level()),
        };
        let after = current.with_level(next_level);
        steps.push(TransitionStep {
            kind: StepKind::Dvfs(direction),
            during: *current,
            after,
            duration: latency.dvfs_latency(current.config(), direction),
        });
        *current = after;
    }
    Ok(())
}

fn push_core_steps(
    steps: &mut Vec<TransitionStep>,
    current: &mut Opp,
    target: CoreConfig,
    table: &FrequencyTable,
    latency: &LatencyModel,
) -> Result<(), SocError> {
    let f = current.frequency(table)?;
    loop {
        let config = current.config();
        // Removals: big cores first; additions: LITTLE cores first.
        let step = if config.big() > target.big() {
            Some((StepKind::Unplug(CoreType::Big), config.unplugged(CoreType::Big)))
        } else if config.little() > target.little() {
            Some((StepKind::Unplug(CoreType::Little), config.unplugged(CoreType::Little)))
        } else if config.little() < target.little() {
            Some((StepKind::Plug(CoreType::Little), config.plugged(CoreType::Little)))
        } else if config.big() < target.big() {
            Some((StepKind::Plug(CoreType::Big), config.plugged(CoreType::Big)))
        } else {
            None
        };
        let Some((kind, Some(next_config))) = step else { break };
        let after = current.with_config(next_config);
        // Fig. 10 reports latency per transition labelled by the total
        // core count involved; use the larger of the two endpoint counts.
        let involved = config.total().max(next_config.total());
        steps.push(TransitionStep {
            kind,
            during: *current,
            after,
            duration: latency.hotplug_latency(involved, f),
        });
        *current = after;
    }
    Ok(())
}

/// Integrated cost of a transition, as reported in Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransitionCost {
    /// Total transition time δ.
    pub duration: Seconds,
    /// Charge drawn from the buffer, `Q = ∫ I dt` at the supply voltage.
    pub charge: Coulombs,
}

/// Integrates the time and charge cost of a transition plan at
/// a (roughly constant) supply voltage `v`.
///
/// # Errors
///
/// Returns [`SocError::LevelOutOfRange`] when a step's OPP does not
/// resolve against `table`, and [`SocError::InvalidParameter`] for a
/// non-positive supply voltage.
pub fn transition_cost(
    steps: &[TransitionStep],
    power: &PowerModel,
    table: &FrequencyTable,
    v: Volts,
) -> Result<TransitionCost, SocError> {
    if !(v.value() > 0.0) {
        return Err(SocError::InvalidParameter("supply voltage must be positive"));
    }
    let mut duration = Seconds::ZERO;
    let mut charge = Coulombs::ZERO;
    for step in steps {
        let p: Watts = step.during.power(power, table)?;
        duration += step.duration;
        charge += (p / v) * step.duration;
    }
    Ok(TransitionCost { duration, charge })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (FrequencyTable, PowerModel, LatencyModel) {
        (FrequencyTable::paper_levels(), PowerModel::odroid_xu4(), LatencyModel::odroid_xu4())
    }

    fn full_scale_plan(strategy: TransitionStrategy) -> Vec<TransitionStep> {
        let (table, _, latency) = setup();
        plan_transition(Opp::highest(&table), Opp::lowest(), strategy, &table, &latency).unwrap()
    }

    #[test]
    fn plans_have_fourteen_steps_top_to_bottom() {
        // 7 frequency levels + 7 core removals.
        for strategy in [TransitionStrategy::FrequencyFirst, TransitionStrategy::CoreFirst] {
            assert_eq!(full_scale_plan(strategy).len(), 14, "{strategy}");
        }
    }

    #[test]
    fn plans_end_at_the_target() {
        for strategy in [TransitionStrategy::FrequencyFirst, TransitionStrategy::CoreFirst] {
            let plan = full_scale_plan(strategy);
            assert_eq!(plan.last().unwrap().after, Opp::lowest());
        }
    }

    #[test]
    fn steps_chain_contiguously() {
        for strategy in [TransitionStrategy::FrequencyFirst, TransitionStrategy::CoreFirst] {
            let plan = full_scale_plan(strategy);
            for pair in plan.windows(2) {
                assert_eq!(pair[0].after, pair[1].during);
            }
        }
    }

    #[test]
    fn removals_drop_big_cores_first() {
        let plan = full_scale_plan(TransitionStrategy::CoreFirst);
        let kinds: Vec<_> = plan.iter().map(|s| s.kind).collect();
        // First four steps must unplug the four big cores.
        for kind in &kinds[..4] {
            assert_eq!(*kind, StepKind::Unplug(CoreType::Big));
        }
        assert_eq!(kinds[4], StepKind::Unplug(CoreType::Little));
    }

    #[test]
    fn table1_core_first_beats_frequency_first() {
        let (table, power, _) = setup();
        let v = Volts::new(4.1); // "whilst operating at the lowest voltage"
        let cost_a = transition_cost(
            &full_scale_plan(TransitionStrategy::FrequencyFirst),
            &power,
            &table,
            v,
        )
        .unwrap();
        let cost_b =
            transition_cost(&full_scale_plan(TransitionStrategy::CoreFirst), &power, &table, v)
                .unwrap();
        // Shape of Table I: (b) is several times faster and cheaper.
        assert!(cost_a.duration / cost_b.duration > 2.0, "time ratio too small");
        assert!(cost_a.charge / cost_b.charge > 1.4, "charge ratio too small");
        // Magnitudes: δ in the hundreds/tens of ms, Q in the ~0.1 C range.
        assert!(cost_a.duration.to_millis() > 150.0 && cost_a.duration.to_millis() < 500.0);
        assert!(cost_b.duration.to_millis() > 30.0 && cost_b.duration.to_millis() < 150.0);
        assert!(cost_a.charge.value() > 0.05 && cost_a.charge.value() < 0.3);
        assert!(cost_b.charge.value() > 0.02 && cost_b.charge.value() < 0.15);
    }

    #[test]
    fn upward_transition_plans_plug_little_first() {
        let (table, _, latency) = setup();
        let plan = plan_transition(
            Opp::lowest(),
            Opp::highest(&table),
            TransitionStrategy::CoreFirst,
            &table,
            &latency,
        )
        .unwrap();
        assert_eq!(plan.len(), 14);
        for step in &plan[..3] {
            assert_eq!(step.kind, StepKind::Plug(CoreType::Little));
        }
        assert_eq!(plan[3].kind, StepKind::Plug(CoreType::Big));
    }

    #[test]
    fn identity_transition_is_empty() {
        let (table, _, latency) = setup();
        let opp = Opp::new(CoreConfig::new(2, 1).unwrap(), 3);
        let plan =
            plan_transition(opp, opp, TransitionStrategy::CoreFirst, &table, &latency).unwrap();
        assert!(plan.is_empty());
    }

    #[test]
    fn cost_rejects_bad_voltage() {
        let (table, power, _) = setup();
        let plan = full_scale_plan(TransitionStrategy::CoreFirst);
        assert!(transition_cost(&plan, &power, &table, Volts::ZERO).is_err());
    }

    #[test]
    fn invalid_opp_level_is_rejected() {
        let (table, _, latency) = setup();
        let bad = Opp::new(CoreConfig::MIN, 99);
        assert!(plan_transition(
            bad,
            Opp::lowest(),
            TransitionStrategy::CoreFirst,
            &table,
            &latency
        )
        .is_err());
    }
}
