//! Table I — time and charge expended transitioning from the highest
//! to the lowest OPP under the two response orderings, and the buffer
//! capacitance each implies.

use crate::SimError;
use pn_core::capacitance;
use pn_soc::platform::Platform;
use pn_soc::transition::TransitionStrategy;

/// One row of Table I.
#[derive(Debug, Clone, Copy)]
pub struct Table1Row {
    /// The response ordering.
    pub strategy: TransitionStrategy,
    /// Transition time δ, milliseconds.
    pub transition_ms: f64,
    /// Charge drawn, coulombs.
    pub charge_c: f64,
    /// Required buffer capacitance, millifarads.
    pub required_mf: f64,
}

/// The regenerated Table I.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// Scenario (a): frequency first, then cores.
    pub frequency_first: Table1Row,
    /// Scenario (b): cores first, then frequency.
    pub core_first: Table1Row,
}

/// Regenerates Table I on the XU4 platform preset.
///
/// # Errors
///
/// Propagates planning failures (infallible for the preset).
pub fn run() -> Result<Table1, SimError> {
    let platform = Platform::odroid_xu4();
    let (a, b) = capacitance::table1(&platform)?;
    let row = |s: capacitance::BufferSizing| Table1Row {
        strategy: s.strategy,
        transition_ms: s.duration.to_millis(),
        charge_c: s.charge.value(),
        required_mf: s.required_capacitance.to_millifarads(),
    };
    Ok(Table1 { frequency_first: row(a), core_first: row(b) })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_core_first_wins_decisively() {
        let t = run().unwrap();
        // Paper: (a) 345 ms / 0.1299 C vs (b) 63 ms / 0.0461 C.
        assert!(t.frequency_first.transition_ms > 2.0 * t.core_first.transition_ms);
        assert!(t.frequency_first.charge_c > 1.4 * t.core_first.charge_c);
        // So does the buffer each requires, (a)/(b): the paper's
        // argument for the core-first ordering.
        assert!(t.frequency_first.required_mf > 1.4 * t.core_first.required_mf);
        // The paper's 47 mF part covers the core-first requirement.
        assert!(t.core_first.required_mf < 47.0);
        // Magnitudes in the paper's ballpark.
        assert!(t.frequency_first.transition_ms > 150.0 && t.frequency_first.transition_ms < 500.0);
        assert!(t.core_first.transition_ms > 30.0 && t.core_first.transition_ms < 150.0);
    }
}
