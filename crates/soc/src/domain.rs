//! Named voltage/frequency domains sharing one power budget.
//!
//! The Exynos5422 exposes two CPU clusters on separate voltage rails:
//! the Cortex-A7 "LITTLE" cluster and the Cortex-A15 "big" cluster.
//! The paper's governor treats the SoC as a single domain (one level,
//! one ladder); multi-domain policies — SysScale-style budget shifting,
//! per-cluster race-to-idle — instead reason about *per-domain*
//! operating points competing for one shared power budget. This module
//! names the domains, enumerates their per-domain OPP ladders, and
//! provides the shared-budget allocator those policies plan with.

use crate::cores::{CoreConfig, CoreType, CORES_PER_CLUSTER};
use crate::freq::FrequencyTable;
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

/// A per-domain operating point: how many of the domain's cores are
/// online and which frequency level they run at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DomainOpp {
    /// The domain this point belongs to.
    pub domain: Domain,
    /// Online cores in the domain.
    pub cores: u8,
    /// Frequency-level index into the domain's ladder.
    pub level: usize,
}

impl DomainOpp {
    /// Power drawn by this domain alone (excluding the board base).
    ///
    /// # Errors
    ///
    /// Returns [`SocError::LevelOutOfRange`] when the level does not
    /// exist in `table`.
    pub fn power(&self, power: &PowerModel, table: &FrequencyTable) -> Result<Watts, SocError> {
        Ok(power.domain_power(self.domain, self.cores, table.frequency(self.level)?))
    }
}

impl fmt::Display for DomainOpp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{} @ L{}", self.cores, self.domain, self.level)
    }
}

/// Enumerates one domain's OPP ladder: every admissible core count of
/// the domain crossed with every frequency level of `table`, lowest
/// first.
pub fn domain_ladder(domain: Domain, table: &FrequencyTable) -> Vec<DomainOpp> {
    let mut out = Vec::with_capacity(
        usize::from(domain.max_cores() - domain.min_cores() + 1) * table.len(),
    );
    for cores in domain.min_cores()..=domain.max_cores() {
        for (level, _) in table.iter() {
            out.push(DomainOpp { domain, cores, level });
        }
    }
    out
}

/// Splits a combined OPP into its per-domain points (both domains share
/// one clock level in the combined model).
pub fn domain_opps(opp: Opp) -> [DomainOpp; 2] {
    Domain::ALL.map(|domain| DomainOpp {
        domain,
        cores: domain.cores_in(opp.config()),
        level: opp.level(),
    })
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

    /// Per-domain power split of a combined OPP (board base excluded).
    ///
    /// # Errors
    ///
    /// Returns [`SocError::LevelOutOfRange`] when the OPP's level does
    /// not exist in `table`.
    pub fn split(
        &self,
        opp: Opp,
        power: &PowerModel,
        table: &FrequencyTable,
    ) -> Result<[Watts; 2], SocError> {
        Ok(domain_split(power, opp.config(), table.frequency(opp.level())?))
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

    use crate::perf::PerfModel;

    fn models() -> (PowerModel, PerfModel, FrequencyTable) {
        (PowerModel::odroid_xu4(), PerfModel::odroid_xu4(), FrequencyTable::paper_levels())
    }

    #[test]
    fn ladders_cover_the_domain_grids() {
        let table = FrequencyTable::paper_levels();
        // LITTLE: cores 1..=4 × 8 levels; big: cores 0..=4 × 8 levels.
        assert_eq!(domain_ladder(Domain::Little, &table).len(), 32);
        assert_eq!(domain_ladder(Domain::Big, &table).len(), 40);
        for opp in domain_ladder(Domain::Little, &table) {
            assert_eq!(opp.domain, Domain::Little);
            assert!(opp.cores >= 1);
        }
    }

    #[test]
    fn domain_split_reassembles_board_power() {
        let (power, _, table) = models();
        let budget = PowerBudget::new(Watts::new(5.0)).unwrap();
        for opp in crate::opp::ladder_opps(&table) {
            let split = budget.split(opp, &power, &table).unwrap();
            let total = power.base_power() + split[0] + split[1];
            let direct = opp.power(&power, &table).unwrap();
            assert!((total - direct).abs() < Watts::new(1e-12), "{opp}");
        }
    }

    #[test]
    fn split_matches_per_domain_opp_power() {
        let (power, _, table) = models();
        let budget = PowerBudget::new(Watts::new(4.0)).unwrap();
        let opp = Opp::new(CoreConfig::new(3, 2).unwrap(), 4);
        let split = budget.split(opp, &power, &table).unwrap();
        for (i, d) in domain_opps(opp).iter().enumerate() {
            assert_eq!(split[i], d.power(&power, &table).unwrap());
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
        let opp = Opp::new(CoreConfig::new(2, 3).unwrap(), 5);
        let [l, b] = domain_opps(opp);
        assert_eq!((l.cores, l.level), (2, 5));
        assert_eq!((b.cores, b.level), (3, 5));
        assert_eq!(DomainOpp { domain: Domain::Big, cores: 2, level: 1 }.to_string(), "2xbig @ L1");
    }
}
