//! Named voltage/frequency domains sharing one power budget.
//!
//! The Exynos5422 exposes two CPU clusters on separate voltage rails:
//! the Cortex-A7 "LITTLE" cluster and the Cortex-A15 "big" cluster.
//! The paper's governor treats the SoC as a single domain (one level,
//! one ladder); multi-domain policies — SysScale-style budget shifting,
//! per-cluster race-to-idle — instead reason about *per-domain*
//! operating points competing for one shared power budget. This module
//! names the domains, splits board power across them, and provides the
//! shared-budget allocator those policies plan with.

use crate::cores::{CoreConfig, CoreType, CORES_PER_CLUSTER};
use crate::opp::Opp;
use crate::opp_table::OppTable;
use crate::power::PowerModel;
use crate::SocError;
use pn_units::{Hertz, Watts};
use std::fmt;

/// A named voltage/frequency domain of the SoC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// The Cortex-A7 cluster: low power, always holds CPU0.
    Little,
    /// The Cortex-A15 cluster: high performance, fully unpluggable.
    Big,
}

impl Domain {
    /// Every domain, in the order power sums are taken (LITTLE first).
    pub const ALL: [Domain; 2] = [Domain::Little, Domain::Big];

    /// Human-readable domain name.
    pub fn name(&self) -> &'static str {
        match self {
            Domain::Little => "LITTLE",
            Domain::Big => "big",
        }
    }

    /// The core type populating this domain.
    pub fn core_type(&self) -> CoreType {
        match self {
            Domain::Little => CoreType::Little,
            Domain::Big => CoreType::Big,
        }
    }

    /// Fewest cores the domain can run with online (CPU0 lives in the
    /// LITTLE domain and cannot be unplugged).
    pub fn min_cores(&self) -> u8 {
        match self {
            Domain::Little => 1,
            Domain::Big => 0,
        }
    }

    /// Most cores the domain can bring online.
    pub fn max_cores(&self) -> u8 {
        CORES_PER_CLUSTER
    }

    /// Online cores of this domain in a combined configuration.
    pub fn cores_in(&self, config: CoreConfig) -> u8 {
        config.count(self.core_type())
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A power budget shared by every domain of the SoC.
///
/// The budget is what multi-domain governors trade between clusters:
/// all domains (plus the board base) must fit under `total`, and watts
/// not spent in one domain are free to be spent in another.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBudget {
    total: Watts,
}

impl PowerBudget {
    /// Creates a budget.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidParameter`] for a negative or
    /// non-finite budget.
    pub fn new(total: Watts) -> Result<Self, SocError> {
        if !(total.value() >= 0.0 && total.value().is_finite()) {
            return Err(SocError::InvalidParameter("power budget must be finite and non-negative"));
        }
        Ok(Self { total })
    }

    /// The total budget.
    pub fn total(&self) -> Watts {
        self.total
    }

    /// Finds the throughput-maximal combined OPP whose board power fits
    /// this budget, searching the full per-domain core grid (not just
    /// the hot-plug ladder) so budget can shift freely between the
    /// LITTLE and big domains. Returns the chosen OPP and its
    /// per-domain split, or `None` when even the floor point
    /// (`Opp::lowest`) exceeds the budget.
    ///
    /// The candidates are enumerated big core count outermost, LITTLE
    /// core count inside it and level innermost. A config's levels are
    /// admitted in order up to its first level over budget, so a level
    /// fits only when the running maximum of the config's power over
    /// levels `0..=level` does — power need not rise with level, since
    /// a rail voltage may fall with frequency. Among the admitted
    /// candidates the highest instruction throughput wins, ties going
    /// to the lower power, then to the earlier enumeration.
    ///
    /// Cost: one binary search of the budget frontier that `points`
    /// precomputes (at most one step per candidate, so under 8
    /// comparisons on the 160-candidate XU4 grid) instead of a scan of
    /// every (config, level) candidate.
    pub fn allocate(&self, points: &OppTable) -> Option<(Opp, [Watts; 2])> {
        points.allocation(self.total.value())
    }
}

/// Per-domain power of `config` at frequency `f` (board base excluded).
pub(crate) fn domain_split(power: &PowerModel, config: CoreConfig, f: Hertz) -> [Watts; 2] {
    Domain::ALL.map(|d| power.domain_power(d, d.cores_in(config), f))
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::freq::FrequencyTable;
    use crate::perf::PerfModel;

    fn models() -> (PowerModel, PerfModel, FrequencyTable) {
        (PowerModel::odroid_xu4(), PerfModel::odroid_xu4(), FrequencyTable::paper_levels())
    }

    #[test]
    fn domain_split_reassembles_board_power() {
        let (power, _, table) = models();
        for opp in crate::opp::ladder_opps(&table) {
            let split = domain_split(&power, opp.config(), table.frequency(opp.level()).unwrap());
            let total = power.base_power() + split[0] + split[1];
            let direct = opp.power(&power, &table).unwrap();
            assert!((total - direct).abs() < Watts::new(1e-12), "{opp}");
        }
    }

    #[test]
    fn allocation_saturates_the_budget_monotonically() {
        let (power, perf, table) = models();
        let points = OppTable::new(&power, &perf, &table);
        let mut last_ips = 0.0;
        for budget_w in [2.0, 3.0, 4.0, 5.0, 6.0, 7.5] {
            let budget = PowerBudget::new(Watts::new(budget_w)).unwrap();
            let (opp, split) = budget.allocate(&points).expect("fits");
            let p = opp.power(&power, &table).unwrap();
            assert!(p <= budget.total(), "{opp} at {p} over {budget_w} W");
            assert!(power.base_power() + split[0] + split[1] <= budget.total() + Watts::new(1e-12));
            let f = table.frequency(opp.level()).unwrap();
            let ips = perf.instructions_per_second(opp.config(), f);
            assert!(ips >= last_ips, "throughput fell as the budget grew");
            last_ips = ips;
        }
    }

    #[test]
    fn abundant_budget_shifts_watts_into_the_big_domain() {
        let (power, perf, table) = models();
        let points = OppTable::new(&power, &perf, &table);
        let lean = PowerBudget::new(Watts::new(2.0)).unwrap();
        let rich = PowerBudget::new(Watts::new(7.0)).unwrap();
        let (lean_opp, lean_split) = lean.allocate(&points).unwrap();
        let (rich_opp, rich_split) = rich.allocate(&points).unwrap();
        // A lean budget is spent entirely in the efficient LITTLE
        // domain; abundance shifts watts across to the big domain.
        assert_eq!(lean_opp.config().big(), 0, "lean: {lean_opp}");
        assert_eq!(lean_split[1], Watts::ZERO);
        assert!(rich_opp.config().big() > 0, "rich: {rich_opp}");
        assert!(rich_split[1] > rich_split[0]);
    }

    #[test]
    fn impossible_budget_allocates_nothing() {
        let (power, perf, table) = models();
        let starved = PowerBudget::new(Watts::new(0.5)).unwrap();
        assert!(starved.allocate(&OppTable::new(&power, &perf, &table)).is_none());
        assert!(PowerBudget::new(Watts::new(-1.0)).is_err());
        assert!(PowerBudget::new(Watts::new(f64::NAN)).is_err());
    }

    #[test]
    fn domain_names_and_views() {
        assert_eq!(Domain::Little.to_string(), "LITTLE");
        assert_eq!(Domain::Big.to_string(), "big");
        let config = CoreConfig::new(2, 3).unwrap();
        assert_eq!(Domain::Little.cores_in(config), 2);
        assert_eq!(Domain::Big.cores_in(config), 3);
    }
}
