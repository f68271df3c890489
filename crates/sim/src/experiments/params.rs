//! §III — the parameter-selection sweep that produced the paper's
//! optimal `Vwidth` = 144 mV, `Vq` = 47.9 mV, `α` = 0.120 V/s,
//! `β` = 0.479 V/s.

use crate::executor::Executor;
use crate::scenario;
use crate::sweep::{run_sweep, SweepGrid, SweepResult};
use crate::SimError;
use pn_units::Seconds;

/// The regenerated parameter-selection data.
#[derive(Debug, Clone)]
pub struct ParamsSweep {
    /// All candidates, best first.
    pub results: Vec<SweepResult>,
}

impl ParamsSweep {
    /// The winning candidate.
    pub fn best(&self) -> &SweepResult {
        &self.results[0]
    }
}

/// Runs the sweep on the Fig. 6 shadowing scenario (the same stimulus
/// class the paper's Matlab study used), scoring ±5 % residency around
/// the 5.3 V target.
///
/// # Errors
///
/// Propagates engine failures.
pub fn run(grid: &SweepGrid) -> Result<ParamsSweep, SimError> {
    let scenario = scenario::shadowing(Seconds::new(2.0), Seconds::new(10.0));
    let results = run_sweep(&scenario, grid, &Executor::default())?;
    Ok(ParamsSweep { results })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_prefers_paper_scale_parameters() {
        // A deliberately small grid contrasting paper-scale parameters
        // against extreme ones.
        let grid = SweepGrid {
            v_width_mv: vec![144.0, 600.0],
            v_q_fraction: vec![0.333],
            alpha: vec![0.12],
            beta_multiple: vec![4.0],
        };
        let sweep = run(&grid).unwrap();
        assert_eq!(sweep.results.len(), 2);
        let best = sweep.best();
        assert!(best.survived);
        // The fine (paper-scale) threshold width tracks better than a
        // very coarse one.
        assert!(
            best.params.v_width().to_millivolts() < 300.0,
            "sweep picked vwidth {}",
            best.params.v_width().to_millivolts()
        );
    }
}
