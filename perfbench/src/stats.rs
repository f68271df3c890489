//! The benchmark's own arithmetic: medians, the tail-percentile rule,
//! and the quiet-versus-per-transition engine cost fit.

/// Median of `xs` (mean of the two middle values for an even count).
/// Returns `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `xs`; `NaN` when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// Nearest rank of percentile `p` among `n` samples, `⌈p·n/100⌉`,
/// immune to the representation error of `p` (0.999 · 10⁴ is not
/// exactly 9990 in binary floating point).
fn rank(p: f64, n: usize) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil().max(0.0) as usize
}

/// The percentiles a tail is reported at, highest first.
const TAIL_PERCENTILES: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// The highest of p99.9 / p99 / p90 / p50 that leaves at least ten of
/// `n` samples strictly beyond its nearest rank, or `None` when even
/// the median does not (fewer than 20 samples).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES.into_iter().find(|&p| {
        let rank = rank(p, n);
        rank >= 1 && n >= rank + 10
    })
}

/// One engine run, as the cost fit sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunCost {
    /// Host wall time of the run, nanoseconds.
    pub wall_ns: f64,
    /// Simulated seconds the run covered.
    pub sim_s: f64,
    /// OPP transitions the run performed.
    pub transitions: u64,
}

/// Engine cost split into a quiet rate and a per-transition cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostFit {
    /// Host ns per simulated second of runs with no transitions.
    pub quiet_ns_per_sim_s: f64,
    /// Host ns per OPP transition, fitted on the other runs after
    /// their quiet share is taken out (least squares through the
    /// origin).
    pub ns_per_transition: f64,
}

/// Fits [`CostFit`] to `runs`: the quiet rate from the runs with zero
/// transitions, then `ns_per_transition = Σ xᵢyᵢ / Σ xᵢ²` with
/// `xᵢ` the transitions and `yᵢ` the wall time left after the quiet
/// rate is charged for the run's simulated seconds. `None` when the
/// runs hold no quiet run with simulated time or no transition.
pub fn fit_costs(runs: &[RunCost]) -> Option<CostFit> {
    let (quiet_ns, quiet_s) = runs
        .iter()
        .filter(|r| r.transitions == 0)
        .fold((0.0, 0.0), |(ns, s), r| (ns + r.wall_ns, s + r.sim_s));
    if quiet_s <= 0.0 {
        return None;
    }
    let quiet_ns_per_sim_s = quiet_ns / quiet_s;
    let (xy, xx) = runs
        .iter()
        .filter(|r| r.transitions > 0)
        .fold((0.0, 0.0), |(xy, xx), r| {
            let x = r.transitions as f64;
            let y = r.wall_ns - quiet_ns_per_sim_s * r.sim_s;
            (xy + x * y, xx + x * x)
        });
    if xx <= 0.0 {
        return None;
    }
    Some(CostFit {
        quiet_ns_per_sim_s,
        ns_per_transition: xy / xx,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        // p90 of 100 samples is rank 90: exactly ten lie beyond it.
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in [20, 57, 100, 140, 1000, 4321, 10_000] {
            let p = tail_percentile(n).unwrap();
            assert!(n - rank(p, n) >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn cost_fit_recovers_quiet_rate_and_transition_cost() {
        let quiet = 1_400.0;
        let per_transition = 5_000.0;
        let run = |sim_s: f64, transitions: u64| RunCost {
            wall_ns: quiet * sim_s + per_transition * transitions as f64,
            sim_s,
            transitions,
        };
        let runs = [
            run(3600.0, 0),
            run(2.0, 0),
            run(3600.0, 49_003),
            run(3600.0, 10),
            run(60.0, 7),
        ];
        let fit = fit_costs(&runs).unwrap();
        assert!((fit.quiet_ns_per_sim_s - quiet).abs() < 1e-6);
        assert!((fit.ns_per_transition - per_transition).abs() < 1e-6);
    }

    #[test]
    fn cost_fit_needs_both_kinds_of_run() {
        let busy = RunCost {
            wall_ns: 1e6,
            sim_s: 10.0,
            transitions: 3,
        };
        let quiet = RunCost {
            wall_ns: 1e6,
            sim_s: 10.0,
            transitions: 0,
        };
        assert_eq!(fit_costs(&[busy]), None);
        assert_eq!(fit_costs(&[quiet]), None);
        assert!(fit_costs(&[busy, quiet]).is_some());
    }
}
