//! The §III parameter sweep: selecting `Vwidth`, `Vq`, `α`, `β`.
//!
//! The paper simulated its Matlab model over many parameter
//! combinations and scored each by `VC` stability — the proportion of
//! time within ±5 % of the target voltage — arriving at
//! `Vwidth` = 144 mV, `Vq` = 47.9 mV, `α` = 0.120 V/s, `β` = 0.479 V/s.
//! [`run_sweep`] reproduces the procedure on a scenario of this
//! workspace, evaluating candidates in parallel.

use crate::executor::Executor;
use crate::scenario::Scenario;
use crate::SimError;
use pn_core::params::ControlParams;
use pn_units::Volts;

/// The candidate grid of a sweep.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// `Vwidth` candidates, in millivolts.
    pub v_width_mv: Vec<f64>,
    /// `Vq` candidates as fractions of `Vwidth`.
    pub v_q_fraction: Vec<f64>,
    /// `α` candidates, in V/s.
    pub alpha: Vec<f64>,
    /// `β` candidates as multiples of `α`.
    pub beta_multiple: Vec<f64>,
}

impl SweepGrid {
    /// A coarse grid bracketing the paper's optimum.
    pub fn coarse() -> Self {
        Self {
            v_width_mv: vec![100.0, 144.0, 200.0, 300.0],
            v_q_fraction: vec![0.25, 0.333, 0.5],
            alpha: vec![0.06, 0.12, 0.24],
            beta_multiple: vec![2.0, 4.0],
        }
    }

    /// Enumerates every valid [`ControlParams`] on the grid.
    fn candidates(&self) -> Vec<ControlParams> {
        let mut out = Vec::new();
        for &w in &self.v_width_mv {
            for &qf in &self.v_q_fraction {
                for &a in &self.alpha {
                    for &bm in &self.beta_multiple {
                        if let Ok(p) = ControlParams::new(
                            Volts::from_millivolts(w),
                            Volts::from_millivolts(w * qf),
                            a,
                            a * bm,
                        ) {
                            out.push(p);
                        }
                    }
                }
            }
        }
        out
    }
}

/// One scored sweep candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepResult {
    /// The candidate parameters.
    pub params: ControlParams,
    /// Fraction of time `VC` stayed within ±5 % of the target.
    pub stability: f64,
    /// Whether the run survived.
    pub survived: bool,
}

/// Runs the sweep over `scenario` on `executor`, scoring each
/// candidate by its report's ±5 % band residency around the platform's
/// target voltage ([`SimReport::vc_stability`]). Results are sorted
/// best-first (survivors before casualties, then by stability).
///
/// [`SimReport::vc_stability`]: crate::engine::SimReport::vc_stability
///
/// # Errors
///
/// Propagates engine failures from individual runs.
pub fn run_sweep(
    scenario: &Scenario,
    grid: &SweepGrid,
    executor: &Executor,
) -> Result<Vec<SweepResult>, SimError> {
    let candidates = grid.candidates();
    let outcomes = executor.map(&candidates, |_, &params| evaluate(scenario, params));
    let mut scored = Vec::with_capacity(candidates.len());
    for outcome in outcomes {
        scored.push(outcome?);
    }
    scored.sort_by(|a, b| {
        b.survived
            .cmp(&a.survived)
            .then(b.stability.partial_cmp(&a.stability).expect("stability is finite"))
    });
    Ok(scored)
}

fn evaluate(scenario: &Scenario, params: ControlParams) -> Result<SweepResult, SimError> {
    let report = scenario.clone().with_params(params).run_power_neutral()?;
    Ok(SweepResult { params, stability: report.vc_stability(), survived: report.survived() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;
    use pn_units::{Seconds, WattsPerSquareMeter};

    #[test]
    fn grid_enumerates_full_product() {
        let grid = SweepGrid::coarse();
        let n = grid.candidates().len();
        assert_eq!(n, 4 * 3 * 3 * 2);
    }

    #[test]
    fn sweep_scores_and_sorts() {
        // Tiny grid on a short scenario to keep the test fast.
        let grid = SweepGrid {
            v_width_mv: vec![144.0, 300.0],
            v_q_fraction: vec![0.333],
            alpha: vec![0.12],
            beta_multiple: vec![4.0],
        };
        let scenario =
            scenario::constant_sun(WattsPerSquareMeter::new(560.0), Seconds::new(12.0));
        let results = run_sweep(&scenario, &grid, &Executor::default()).unwrap();
        assert_eq!(results.len(), 2);
        // Sorted best-first.
        assert!(results[0].stability >= results[1].stability || results[0].survived);
        for r in &results {
            assert!((0.0..=1.0).contains(&r.stability));
        }
        // The sweep is deterministic across executor widths.
        let sequential =
            run_sweep(&scenario, &grid, &Executor::sequential()).unwrap();
        assert_eq!(results, sequential);
    }
}
