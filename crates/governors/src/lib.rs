//! Baseline Linux cpufreq governors (paper §V-C, Table II).
//!
//! The paper compares its power-neutral scheme against the default
//! Linux power-management governors while harvesting from the PV
//! array. This crate reimplements the *policy semantics* of each
//! governor against the same
//! [`Governor`](pn_core::events::Governor) interface the
//! power-neutral controller uses:
//!
//! * [`hold`] — pin the starting OPP entirely (the "static"
//!   comparator of Figs. 3 and 6, no management at all),
//! * [`performance`] — pin the maximum frequency,
//! * [`powersave`] — pin the minimum frequency,
//! * [`userspace`] — pin a user-chosen frequency,
//! * [`ondemand`] — sample load; jump to max above the up-threshold,
//!   else scale proportionally,
//! * [`conservative`] — sample load; step gradually up/down by
//!   `freq_step`,
//! * [`interactive`] — Android-style: burst to `hispeed_freq` on high
//!   load with above-hispeed delays.
//!
//! None of these governors hot-plug cores: whatever configuration is
//! online stays online — exactly why they cannot track a transient
//! harvest (Performance, Ondemand and Interactive "could not support
//! any operation" on the paper's rig; Conservative survived about five
//! seconds).
//!
//! Beyond the Linux baselines, two DPM-aware policies exercise the
//! platform's domain and idle-state axes:
//!
//! * [`race_to_idle`] — sprint at the top frequency, park in the
//!   deepest idle state when the buffer sags,
//! * [`budget_shift`] — reallocate one shared watt budget between the
//!   LITTLE and big domains every sampling period.

pub mod budget_shift;
pub mod conservative;
pub mod hold;
pub mod interactive;
pub mod ondemand;
pub mod performance;
pub mod powersave;
pub mod race_to_idle;
pub mod userspace;

pub use budget_shift::BudgetShift;
pub use conservative::Conservative;
pub use hold::Hold;
pub use interactive::Interactive;
pub use ondemand::Ondemand;
pub use performance::Performance;
pub use powersave::Powersave;
pub use race_to_idle::RaceToIdle;
pub use userspace::Userspace;

#[cfg(test)]
mod tests {
    use super::*;
    use pn_core::events::Governor;
    use pn_soc::freq::FrequencyTable;

    /// Every baseline governor of Table II-style sweeps.
    fn all_baselines(table: &FrequencyTable) -> Vec<Box<dyn Governor>> {
        vec![
            Box::new(Performance::new()),
            Box::new(Powersave::new()),
            Box::new(Userspace::pinned(table.len() / 2)),
            Box::new(Ondemand::new(table.clone())),
            Box::new(Conservative::new(table.clone())),
            Box::new(Interactive::new(table.clone())),
        ]
    }

    #[test]
    fn all_baselines_have_unique_names() {
        let table = FrequencyTable::paper_levels();
        let govs = all_baselines(&table);
        assert_eq!(govs.len(), 6);
        let mut names: Vec<&str> = govs.iter().map(|g| g.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6, "duplicate governor names");
    }

    #[test]
    fn no_baseline_uses_threshold_interrupts() {
        let table = FrequencyTable::paper_levels();
        for g in all_baselines(&table) {
            assert!(!g.uses_threshold_interrupts(), "{} should not use interrupts", g.name());
        }
    }
}
