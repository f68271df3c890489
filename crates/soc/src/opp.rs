//! Operating performance points (OPPs).
//!
//! An OPP is a pair of (core configuration, frequency level). The
//! combination of DVFS (8 levels) and DPM via hot-plugging (the 8-step
//! ladder, or all 20 configurations when the derivative controller
//! diverges from the ladder) yields the "variety of operating
//! performance points" of the paper's §II.

use crate::cores::CoreConfig;
use crate::freq::FrequencyTable;
use crate::power::PowerModel;
use crate::SocError;
use pn_units::{Hertz, Watts};
use std::fmt;

/// An operating performance point: which cores are online and which
/// frequency level they run at.
///
/// # Examples
///
/// ```
/// use pn_soc::cores::CoreConfig;
/// use pn_soc::opp::Opp;
///
/// # fn main() -> Result<(), pn_soc::SocError> {
/// let opp = Opp::new(CoreConfig::new(4, 1)?, 3);
/// assert_eq!(opp.level(), 3);
/// assert_eq!(opp.config().total(), 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Opp {
    config: CoreConfig,
    level: usize,
}

impl Opp {
    /// Creates an OPP. The level is validated against a table on use,
    /// not construction, so OPPs stay `Copy` and table-independent.
    pub fn new(config: CoreConfig, level: usize) -> Self {
        Self { config, level }
    }

    /// The lowest OPP of the platform: one LITTLE core at the lowest
    /// frequency level.
    pub fn lowest() -> Self {
        Self { config: CoreConfig::MIN, level: 0 }
    }

    /// The highest OPP given a frequency table: all cores at maximum
    /// frequency.
    pub fn highest(table: &FrequencyTable) -> Self {
        Self { config: CoreConfig::MAX, level: table.max_level() }
    }

    /// The core configuration.
    pub fn config(&self) -> CoreConfig {
        self.config
    }

    /// The frequency-level index.
    pub fn level(&self) -> usize {
        self.level
    }

    /// Returns this OPP with a different frequency level.
    pub fn with_level(&self, level: usize) -> Self {
        Self { level, ..*self }
    }

    /// Returns this OPP with a different core configuration.
    pub fn with_config(&self, config: CoreConfig) -> Self {
        Self { config, ..*self }
    }

    /// The clock frequency of this OPP under `table`.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::LevelOutOfRange`] when the level does not
    /// exist in `table`.
    pub fn frequency(&self, table: &FrequencyTable) -> Result<Hertz, SocError> {
        table.frequency(self.level)
    }

    /// Board power at this OPP.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::LevelOutOfRange`] when the level does not
    /// exist in `table`.
    pub fn power(&self, power: &PowerModel, table: &FrequencyTable) -> Result<Watts, SocError> {
        Ok(power.board_power(self.config, self.frequency(table)?))
    }
}

impl fmt::Display for Opp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ L{}", self.config, self.level)
    }
}

/// Enumerates the OPP space along the Fig. 4 ladder: 8 configurations ×
/// all frequency levels.
pub fn ladder_opps(table: &FrequencyTable) -> Vec<Opp> {
    let mut out = Vec::with_capacity(8 * table.len());
    for config in CoreConfig::ladder() {
        for (level, _) in table.iter() {
            out.push(Opp::new(config, level));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::PerfModel;

    #[test]
    fn ladder_opps_covers_the_grid() {
        let table = FrequencyTable::paper_levels();
        let opps = ladder_opps(&table);
        assert_eq!(opps.len(), 64);
        assert!(opps.contains(&Opp::lowest()));
        assert!(opps.contains(&Opp::highest(&table)));
    }

    #[test]
    fn power_and_fps_agree_with_models() {
        let table = FrequencyTable::paper_levels();
        let power = PowerModel::odroid_xu4();
        let perf = PerfModel::odroid_xu4();
        let opp = Opp::new(CoreConfig::new(4, 0).unwrap(), table.max_level());
        let p = opp.power(&power, &table).unwrap();
        assert!((p.value() - power.board_power(opp.config(), Hertz::from_gigahertz(1.4)).value())
            .abs()
            < 1e-12);
        let fps = perf.frames_per_second(opp.config(), opp.frequency(&table).unwrap());
        assert!(fps > 0.05 && fps < 0.08);
    }

    #[test]
    fn invalid_level_is_reported() {
        let table = FrequencyTable::paper_levels();
        let opp = Opp::new(CoreConfig::MIN, 42);
        assert!(matches!(opp.frequency(&table), Err(SocError::LevelOutOfRange { .. })));
    }

    #[test]
    fn with_level_and_config_builders() {
        let opp = Opp::lowest().with_level(5).with_config(CoreConfig::MAX);
        assert_eq!(opp.level(), 5);
        assert_eq!(opp.config(), CoreConfig::MAX);
    }

    #[test]
    fn display_is_informative() {
        let table = FrequencyTable::paper_levels();
        let s = Opp::highest(&table).to_string();
        assert!(s.contains("4xA7+4xA15"));
        assert!(s.contains("L7"));
    }
}
