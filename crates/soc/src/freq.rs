//! The DVFS frequency table.
//!
//! The paper selects eight operating frequencies "corresponding to
//! linearly spaced power consumption nodes": 0.2, 0.45, 0.72, 0.92,
//! 1.1, 1.2, 1.3 and 1.4 GHz (§III). The governor only ever moves one
//! level at a time; the Linux baseline governors request arbitrary
//! frequencies which are resolved to table entries with cpufreq
//! semantics.

use crate::SocError;
use pn_units::Hertz;

/// The frequency levels, in GHz, used throughout the paper.
const PAPER_LEVELS_GHZ: [f64; 8] = [0.2, 0.45, 0.72, 0.92, 1.1, 1.2, 1.3, 1.4];

/// An ordered table of DVFS frequency levels.
///
/// # Examples
///
/// ```
/// use pn_soc::freq::FrequencyTable;
/// use pn_units::Hertz;
///
/// # fn main() -> Result<(), pn_soc::SocError> {
/// let table = FrequencyTable::paper_levels();
/// assert_eq!(table.len(), 8);
/// assert_eq!(table.frequency(table.max_level())?, Hertz::from_gigahertz(1.4));
/// // cpufreq CPUFREQ_RELATION_L: lowest frequency at or above the target.
/// let level = table.resolve_at_least(Hertz::from_gigahertz(1.0));
/// assert_eq!(table.frequency(level)?, Hertz::from_gigahertz(1.1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FrequencyTable {
    levels: Vec<Hertz>,
}

impl FrequencyTable {
    /// Creates a table from strictly ascending, positive frequencies.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidFrequencyTable`] for an empty,
    /// unsorted, or non-positive table.
    pub fn new(levels: Vec<Hertz>) -> Result<Self, SocError> {
        if levels.is_empty() {
            return Err(SocError::InvalidFrequencyTable("table is empty"));
        }
        if levels.iter().any(|f| !(f.value() > 0.0) || !f.is_finite()) {
            return Err(SocError::InvalidFrequencyTable("frequencies must be positive and finite"));
        }
        if levels.windows(2).any(|w| w[1] <= w[0]) {
            return Err(SocError::InvalidFrequencyTable("frequencies must be strictly ascending"));
        }
        Ok(Self { levels })
    }

    /// The eight paper levels (§III).
    pub fn paper_levels() -> Self {
        Self::new(PAPER_LEVELS_GHZ.iter().map(|g| Hertz::from_gigahertz(*g)).collect())
            .expect("paper levels are valid")
    }

    /// Number of levels.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// `true` when the table has no levels (never, post-construction).
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// The frequency at `level`.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::LevelOutOfRange`] for an invalid index.
    pub fn frequency(&self, level: usize) -> Result<Hertz, SocError> {
        self.levels
            .get(level)
            .copied()
            .ok_or(SocError::LevelOutOfRange { level, available: self.levels.len() })
    }

    /// Index of the highest level.
    pub fn max_level(&self) -> usize {
        self.levels.len() - 1
    }

    /// The lowest frequency.
    pub fn min_frequency(&self) -> Hertz {
        self.levels[0]
    }

    /// The highest frequency.
    pub fn max_frequency(&self) -> Hertz {
        *self.levels.last().expect("table is non-empty")
    }

    /// One level down, saturating at the bottom.
    pub fn step_down(&self, level: usize) -> usize {
        level.saturating_sub(1)
    }

    /// One level up, saturating at the top.
    pub fn step_up(&self, level: usize) -> usize {
        (level + 1).min(self.max_level())
    }

    /// Lowest level whose frequency is at or above `target`
    /// (cpufreq `CPUFREQ_RELATION_L`); the top level when `target`
    /// exceeds the table.
    pub fn resolve_at_least(&self, target: Hertz) -> usize {
        self.levels.iter().position(|f| *f >= target).unwrap_or(self.max_level())
    }

    /// Highest level whose frequency is at or below `target`
    /// (cpufreq `CPUFREQ_RELATION_H`); the bottom level when `target`
    /// is below the table.
    pub fn resolve_at_most(&self, target: Hertz) -> usize {
        self.levels.iter().rposition(|f| *f <= target).unwrap_or(0)
    }

    /// Iterates over `(level, frequency)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Hertz)> + '_ {
        self.levels.iter().copied().enumerate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rejects_degenerate_tables() {
        assert!(FrequencyTable::new(vec![]).is_err());
        assert!(FrequencyTable::new(vec![Hertz::new(0.0)]).is_err());
        assert!(FrequencyTable::new(vec![
            Hertz::from_gigahertz(1.0),
            Hertz::from_gigahertz(0.5)
        ])
        .is_err());
        assert!(FrequencyTable::new(vec![
            Hertz::from_gigahertz(1.0),
            Hertz::from_gigahertz(1.0)
        ])
        .is_err());
    }

    #[test]
    fn paper_levels_are_the_eight_from_section_iii() {
        let t = FrequencyTable::paper_levels();
        assert_eq!(t.len(), 8);
        assert_eq!(t.min_frequency(), Hertz::from_gigahertz(0.2));
        assert_eq!(t.max_frequency(), Hertz::from_gigahertz(1.4));
    }

    #[test]
    fn stepping_saturates() {
        let t = FrequencyTable::paper_levels();
        assert_eq!(t.step_down(0), 0);
        assert_eq!(t.step_up(t.max_level()), t.max_level());
        assert_eq!(t.step_up(0), 1);
        assert_eq!(t.step_down(3), 2);
    }

    #[test]
    fn resolution_semantics() {
        let t = FrequencyTable::paper_levels();
        // Exact hits resolve to themselves.
        assert_eq!(t.resolve_at_least(Hertz::from_gigahertz(0.92)), 3);
        assert_eq!(t.resolve_at_most(Hertz::from_gigahertz(0.92)), 3);
        // Between levels.
        assert_eq!(t.resolve_at_least(Hertz::from_gigahertz(1.0)), 4);
        assert_eq!(t.resolve_at_most(Hertz::from_gigahertz(1.0)), 3);
        // Out of range saturates.
        assert_eq!(t.resolve_at_least(Hertz::from_gigahertz(9.0)), t.max_level());
        assert_eq!(t.resolve_at_most(Hertz::from_gigahertz(0.05)), 0);
    }

    #[test]
    fn frequency_lookup_errors_out_of_range() {
        let t = FrequencyTable::paper_levels();
        assert!(matches!(t.frequency(8), Err(SocError::LevelOutOfRange { level: 8, .. })));
    }

    proptest! {
        #[test]
        fn resolve_at_least_returns_smallest_adequate(target_ghz in 0.1f64..1.6) {
            let t = FrequencyTable::paper_levels();
            let target = Hertz::from_gigahertz(target_ghz);
            let level = t.resolve_at_least(target);
            let f = t.frequency(level).unwrap();
            if target <= t.max_frequency() {
                prop_assert!(f >= target);
                if level > 0 {
                    prop_assert!(t.frequency(level - 1).unwrap() < target);
                }
            } else {
                prop_assert_eq!(level, t.max_level());
            }
        }

        #[test]
        fn step_round_trip(level in 0usize..8) {
            let t = FrequencyTable::paper_levels();
            let up = t.step_up(level);
            prop_assert!(up >= level);
            prop_assert!(t.step_down(up) <= up);
        }
    }
}
