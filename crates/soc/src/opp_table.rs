//! Every model value the simulation's hot path reads, tabulated once
//! per platform.
//!
//! A platform never changes during a run, yet the engine asks for the
//! board power and throughput of the effective OPP on every step, and a
//! budget-planning governor searches the whole (config, level) grid on
//! every tick. [`OppTable`] answers both by lookup: one [`OppRow`] per
//! (config, level), plus the budget frontier that
//! [`PowerBudget::allocate`](crate::domain::PowerBudget::allocate)
//! binary-searches. Rows are computed by the model functions
//! themselves, so every value is bitwise what a direct evaluation
//! returns.

use crate::cores::{CoreConfig, CORES_PER_CLUSTER};
use crate::domain::{domain_split, Domain};
use crate::freq::FrequencyTable;
use crate::opp::Opp;
use crate::perf::PerfModel;
use crate::power::PowerModel;
use pn_units::Watts;

/// The model values of one operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OppRow {
    /// Board power ([`PowerModel::board_power`]).
    pub power: Watts,
    /// Raytrace throughput ([`PerfModel::frames_per_second`]).
    pub frames_per_second: f64,
    /// Instruction throughput ([`PerfModel::instructions_per_second`]).
    pub instructions_per_second: f64,
}

/// One step of the budget frontier: every budget from `threshold` watts
/// up to the next step's threshold allocates `opp`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FrontierStep {
    threshold: f64,
    opp: Opp,
    split: [Watts; 2],
}

/// The operating-point table of one platform.
///
/// # Examples
///
/// ```
/// use pn_soc::cores::CoreConfig;
/// use pn_soc::opp::Opp;
/// use pn_soc::platform::Platform;
///
/// let xu4 = Platform::odroid_xu4();
/// let top = Opp::highest(xu4.frequencies());
/// let row = xu4.opp_table().row(top).expect("the top OPP exists");
/// assert_eq!(row.power, top.power(xu4.power(), xu4.frequencies()).unwrap());
/// assert!(xu4.opp_table().row(Opp::new(CoreConfig::MAX, 8)).is_none());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OppTable {
    levels: usize,
    /// Indexed by `config_slot(config) * levels + level`.
    rows: Vec<OppRow>,
    /// Ascending thresholds; the best allocation changes at each step.
    frontier: Vec<FrontierStep>,
}

/// Position of `config` among the 20 valid configurations.
fn config_slot(config: CoreConfig) -> usize {
    usize::from(config.little() - 1) * usize::from(CORES_PER_CLUSTER + 1)
        + usize::from(config.big())
}

impl OppTable {
    /// Tabulates every (config, level) point of the given models.
    pub fn new(power: &PowerModel, perf: &PerfModel, table: &FrequencyTable) -> Self {
        // `CoreConfig::all` enumerates the configurations in slot order.
        let rows = CoreConfig::all()
            .into_iter()
            .flat_map(|config| {
                table.iter().map(move |(_, f)| OppRow {
                    power: power.board_power(config, f),
                    frames_per_second: perf.frames_per_second(config, f),
                    instructions_per_second: perf.instructions_per_second(config, f),
                })
            })
            .collect();
        let mut points = Self { levels: table.len(), rows, frontier: Vec::new() };
        points.frontier = points.budget_frontier(power, table);
        points
    }

    /// The row of `opp`, or `None` when its level is not in the table.
    pub fn row(&self, opp: Opp) -> Option<&OppRow> {
        if opp.level() >= self.levels {
            return None;
        }
        self.rows.get(config_slot(opp.config()) * self.levels + opp.level())
    }

    /// The allocation for a budget of `budget_w` watts: the last
    /// frontier step whose threshold fits the budget.
    pub(crate) fn allocation(&self, budget_w: f64) -> Option<(Opp, [Watts; 2])> {
        let fitting = self.frontier.partition_point(|step| step.threshold <= budget_w);
        let step = self.frontier[..fitting].last()?;
        Some((step.opp, step.split))
    }

    /// Sorts the budget candidates by the least budget that admits them
    /// and keeps each prefix's best.
    ///
    /// Candidates are enumerated as the budget allocator defines them:
    /// big cores outermost, then LITTLE cores, then level. A candidate
    /// is admitted once the budget covers its config's running maximum
    /// power over levels `0..=level`, not its own power: the allocator
    /// stops at a config's first level over budget, and power need not
    /// rise with level (a rail voltage may fall with frequency). The best
    /// candidate has the highest instruction throughput, then the lower
    /// power, then the earlier enumeration.
    fn budget_frontier(&self, power: &PowerModel, table: &FrequencyTable) -> Vec<FrontierStep> {
        struct Candidate {
            eligible: f64,
            index: usize,
            power: f64,
            ips: f64,
            opp: Opp,
        }
        let mut candidates = Vec::with_capacity(self.rows.len());
        for big in Domain::Big.min_cores()..=Domain::Big.max_cores() {
            for little in Domain::Little.min_cores()..=Domain::Little.max_cores() {
                let Ok(config) = CoreConfig::new(little, big) else { continue };
                let mut eligible = f64::NEG_INFINITY;
                for (level, _) in table.iter() {
                    let opp = Opp::new(config, level);
                    let row = self.row(opp).expect("every table level has a row");
                    eligible = eligible.max(row.power.value());
                    candidates.push(Candidate {
                        eligible,
                        index: candidates.len(),
                        power: row.power.value(),
                        ips: row.instructions_per_second,
                        opp,
                    });
                }
            }
        }
        // Stable, so equal thresholds keep the enumeration order.
        candidates.sort_by(|a, b| a.eligible.total_cmp(&b.eligible));
        let mut frontier: Vec<FrontierStep> = Vec::new();
        let mut best: Option<&Candidate> = None;
        for c in &candidates {
            let better = best.is_none_or(|b| {
                c.ips > b.ips
                    || (c.ips == b.ips
                        && (c.power < b.power || (c.power == b.power && c.index < b.index)))
            });
            if better {
                best = Some(c);
                let f = table.frequency(c.opp.level()).expect("candidate level exists");
                frontier.push(FrontierStep {
                    threshold: c.eligible,
                    opp: c.opp,
                    split: domain_split(power, c.opp.config(), f),
                });
            }
        }
        frontier
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::PowerBudget;
    use crate::power::{ClusterPower, RailVoltage};
    use pn_units::{Hertz, Volts};
    use proptest::prelude::*;

    fn preset() -> (PowerModel, PerfModel, FrequencyTable) {
        (PowerModel::odroid_xu4(), PerfModel::odroid_xu4(), FrequencyTable::paper_levels())
    }

    /// A platform whose rail voltage dips with frequency, so board power
    /// falls between its lowest two levels.
    fn dipping() -> (PowerModel, PerfModel, FrequencyTable) {
        let ghz = Hertz::from_gigahertz;
        let rail = RailVoltage::new(vec![
            (ghz(0.2), Volts::new(1.4)),
            (ghz(0.45), Volts::new(0.6)),
            (ghz(1.4), Volts::new(1.3)),
        ])
        .unwrap();
        let power = PowerModel::new(
            Watts::new(1.55),
            ClusterPower { switched_capacitance: 178e-12, static_power: Watts::new(0.02) },
            ClusterPower { switched_capacitance: 389e-12, static_power: Watts::new(0.15) },
            rail,
        )
        .unwrap();
        (power, PerfModel::odroid_xu4(), FrequencyTable::paper_levels())
    }

    /// A platform with frequency-independent power and identical
    /// clusters: every config with the same core count ties with the
    /// others in power and throughput at each level, so the
    /// enumeration-order tie rule decides.
    fn flat() -> (PowerModel, PerfModel, FrequencyTable) {
        let cluster = ClusterPower { switched_capacitance: 0.0, static_power: Watts::new(0.25) };
        let rail = RailVoltage::exynos5422();
        let power = PowerModel::new(Watts::new(1.5), cluster, cluster, rail).unwrap();
        let perf = PerfModel::new(0.02, 0.02, 0.5, 0.5, 0.015).unwrap();
        (power, perf, FrequencyTable::paper_levels())
    }

    /// The brute-force allocator scan the frontier replaces: every
    /// config in enumeration order, each up to its first level over
    /// budget, keeping the strictly better candidate.
    fn scan(
        budget_w: f64,
        power: &PowerModel,
        perf: &PerfModel,
        table: &FrequencyTable,
    ) -> Option<(Opp, [Watts; 2])> {
        let mut best: Option<(Opp, f64, f64)> = None;
        for big in Domain::Big.min_cores()..=Domain::Big.max_cores() {
            for little in Domain::Little.min_cores()..=Domain::Little.max_cores() {
                let Ok(config) = CoreConfig::new(little, big) else { continue };
                for (level, f) in table.iter() {
                    let p = power.board_power(config, f).value();
                    if p > budget_w {
                        break;
                    }
                    let ips = perf.instructions_per_second(config, f);
                    let better = match best {
                        None => true,
                        Some((_, best_ips, best_p)) => {
                            ips > best_ips || (ips == best_ips && p < best_p)
                        }
                    };
                    if better {
                        best = Some((Opp::new(config, level), ips, p));
                    }
                }
            }
        }
        best.map(|(opp, _, _)| {
            let f = table.frequency(opp.level()).unwrap();
            (opp, domain_split(power, opp.config(), f))
        })
    }

    fn allocate(points: &OppTable, budget_w: f64) -> Option<(Opp, [Watts; 2])> {
        PowerBudget::new(Watts::new(budget_w)).unwrap().allocate(points)
    }

    fn bits(a: Option<(Opp, [Watts; 2])>) -> Option<(Opp, [u64; 2])> {
        a.map(|(opp, split)| (opp, split.map(|w| w.value().to_bits())))
    }

    #[test]
    fn rows_are_the_models_bit_for_bit() {
        for (power, perf, table) in [preset(), dipping(), flat()] {
            let points = OppTable::new(&power, &perf, &table);
            for config in CoreConfig::all() {
                for (level, f) in table.iter() {
                    let row = points.row(Opp::new(config, level)).unwrap();
                    assert_eq!(
                        row.power.value().to_bits(),
                        power.board_power(config, f).value().to_bits()
                    );
                    assert_eq!(
                        row.frames_per_second.to_bits(),
                        perf.frames_per_second(config, f).to_bits()
                    );
                    assert_eq!(
                        row.instructions_per_second.to_bits(),
                        perf.instructions_per_second(config, f).to_bits()
                    );
                }
                assert!(points.row(Opp::new(config, table.len())).is_none());
                assert!(points.row(Opp::new(config, usize::MAX)).is_none());
            }
        }
    }

    #[test]
    fn the_dipping_rail_makes_power_non_monotone_in_level() {
        let (power, _, table) = dipping();
        let f = |level| table.frequency(level).unwrap();
        let config = CoreConfig::MAX;
        assert!(power.board_power(config, f(1)) < power.board_power(config, f(0)));
    }

    #[test]
    fn the_frontier_matches_the_scan_at_every_edge() {
        for (power, perf, table) in [preset(), dipping(), flat()] {
            let points = OppTable::new(&power, &perf, &table);
            let mut budgets = vec![0.0, 1e3, f64::MAX];
            for config in CoreConfig::all() {
                for (_, f) in table.iter() {
                    let p = power.board_power(config, f).value();
                    budgets.extend([p, p.next_up(), p.next_down()]);
                }
            }
            for b in budgets {
                assert_eq!(
                    bits(allocate(&points, b)),
                    bits(scan(b, &power, &perf, &table)),
                    "budget {b} W"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn the_frontier_matches_the_scan(b in 0.0f64..=10.0) {
            for (power, perf, table) in [preset(), dipping(), flat()] {
                let points = OppTable::new(&power, &perf, &table);
                prop_assert_eq!(
                    bits(allocate(&points, b)), bits(scan(b, &power, &perf, &table)), "budget {} W", b
                );
            }
        }
    }
}
