//! Stochastic workload arrival: seeded bursty frame-arrival traces.
//!
//! The paper's benchmark saturates the board continuously — smallpt
//! renders back to back, so the governor always sees 100 % demand.
//! Real workloads arrive in bursts: frames queue up, drain, and leave
//! the SoC near-idle between episodes. [`ArrivalSpec::Bursty`] models
//! that as an alternating renewal process — exponentially-distributed
//! busy bursts separated by exponentially-distributed gaps (a Poisson
//! burst-arrival process), each gap running at a low residual duty
//! envelope rather than hard zero (housekeeping, decode, UI).
//!
//! A spec is expanded once per simulation into an
//! [`ArrivalTimeline`]: a deterministic, seed-reproducible list of
//! piecewise-constant duty segments covering the simulated window.
//! Segment edges are discontinuities for the simulation engine — the
//! load level is exactly constant between them, so the engine can
//! scale throughput and dynamic power per segment without any
//! within-step sampling.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Workload-arrival selection for a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ArrivalSpec {
    /// Back-to-back frames: the benchmark's always-saturated demand.
    /// The default, and bitwise-identical to the pre-arrival engine.
    #[default]
    Saturated,
    /// Poisson bursts over a residual duty envelope.
    Bursty {
        /// Burst arrival rate: mean bursts per second of *gap* time
        /// (the gap between bursts is exponential with mean
        /// `1/rate_hz`).
        rate_hz: f64,
        /// Mean burst length, seconds (exponentially distributed).
        mean_burst_s: f64,
        /// Demand level between bursts, in `[0, 1)` of saturation.
        idle_duty: f64,
    },
}

impl ArrivalSpec {
    /// The stress preset used by `--arrivals bursty`: ~12 s mean gaps
    /// between ~8 s bursts with a 20 % residual duty — enough edges to
    /// cross every smoke window, sparse enough not to drown the RK23
    /// step budget on a full day.
    pub fn bursty_stress() -> ArrivalSpec {
        ArrivalSpec::Bursty { rate_hz: 0.08, mean_burst_s: 8.0, idle_duty: 0.2 }
    }

    /// Stable machine-readable token for persistence and CSV export:
    /// `saturated`, or `bursty:<rate>:<burst>:<duty>` with
    /// shortest-round-trip float formatting. Round-trips through
    /// [`ArrivalSpec::from_slug`] exactly.
    pub fn slug(&self) -> String {
        match self {
            ArrivalSpec::Saturated => "saturated".to_string(),
            ArrivalSpec::Bursty { rate_hz, mean_burst_s, idle_duty } => {
                format!("bursty:{rate_hz}:{mean_burst_s}:{idle_duty}")
            }
        }
    }

    /// Parses an [`ArrivalSpec::slug`] token back into a spec. Returns
    /// `None` for malformed tokens or parameters outside their domain
    /// (non-positive rates or burst lengths, duty outside `[0, 1)`).
    pub fn from_slug(slug: &str) -> Option<ArrivalSpec> {
        if slug == "saturated" {
            return Some(ArrivalSpec::Saturated);
        }
        let rest = slug.strip_prefix("bursty:")?;
        let mut parts = rest.split(':');
        let mut f = || parts.next()?.parse::<f64>().ok();
        let (rate_hz, mean_burst_s, idle_duty) = (f()?, f()?, f()?);
        if parts.next().is_some() {
            return None;
        }
        let ok = rate_hz > 0.0
            && rate_hz.is_finite()
            && mean_burst_s > 0.0
            && mean_burst_s.is_finite()
            && (0.0..1.0).contains(&idle_duty);
        ok.then_some(ArrivalSpec::Bursty { rate_hz, mean_burst_s, idle_duty })
    }
}

impl fmt::Display for ArrivalSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArrivalSpec::Saturated => f.write_str("saturated"),
            ArrivalSpec::Bursty { rate_hz, mean_burst_s, idle_duty } => write!(
                f,
                "bursty ({rate_hz} bursts/s, {mean_burst_s} s mean, {idle_duty} idle duty)"
            ),
        }
    }
}

/// One piecewise-constant demand segment.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Segment {
    /// Segment start time, seconds.
    start: f64,
    /// Demand in `[0, 1]` of saturation, constant until the next edge.
    duty: f64,
}

/// A spec expanded over a concrete window: deterministic
/// piecewise-constant duty with queryable edges.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalTimeline {
    segments: Vec<Segment>,
}

impl ArrivalTimeline {
    /// Expands `spec` over `[t_start, t_end]`, drawing segment lengths
    /// from a SplitMix64 stream seeded with `seed`. The window opens
    /// mid-burst (the workload was already running when the window
    /// starts); `Saturated` produces a single full-duty segment and no
    /// interior edges.
    pub fn build(spec: ArrivalSpec, seed: u64, t_start: f64, t_end: f64) -> ArrivalTimeline {
        let mut segments = vec![Segment { start: t_start, duty: 1.0 }];
        if let ArrivalSpec::Bursty { rate_hz, mean_burst_s, idle_duty } = spec {
            let mut rng = StdRng::seed_from_u64(seed);
            // Draw exponential lengths; 1-u keeps the argument in (0,1].
            let mut exp = |mean: f64| -> f64 {
                let u: f64 = rng.gen();
                -mean * (1.0 - u).ln()
            };
            let mut t = t_start;
            let mut busy = true;
            while t < t_end {
                t += exp(if busy { mean_burst_s } else { 1.0 / rate_hz });
                busy = !busy;
                if t < t_end {
                    segments.push(Segment { start: t, duty: if busy { 1.0 } else { idle_duty } });
                }
            }
        }
        ArrivalTimeline { segments }
    }

    /// The demand level at time `t` (clamped into the window).
    pub fn duty_at(&self, t: f64) -> f64 {
        self.segments[self.segment_index(t)].duty
    }

    /// The first segment edge strictly after `t`, or `None` when the
    /// rest of the window is one segment. Edges are the engine's
    /// discontinuity boundaries.
    pub fn next_edge_after(&self, t: f64) -> Option<f64> {
        self.segments.get(self.segment_index(t) + 1).map(|s| s.start)
    }

    fn segment_index(&self, t: f64) -> usize {
        // partition_point returns the count of segments starting at or
        // before t; the active segment is the last of those.
        self.segments.partition_point(|s| s.start <= t).saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of segments over the window (1 for `Saturated`).
    fn segment_count(tl: &ArrivalTimeline) -> usize {
        tl.segments.len()
    }

    /// Demand-weighted fraction of the window ending at `end`: 1.0 for
    /// `Saturated`, below 1.0 whenever gaps exist.
    fn mean_duty(tl: &ArrivalTimeline, end: f64) -> f64 {
        let mut sum = 0.0;
        for (i, s) in tl.segments.iter().enumerate() {
            let stop = tl.segments.get(i + 1).map_or(end, |n| n.start);
            sum += s.duty * (stop - s.start);
        }
        sum / (end - tl.segments[0].start)
    }

    #[test]
    fn slugs_round_trip_exactly() {
        for spec in [
            ArrivalSpec::Saturated,
            ArrivalSpec::bursty_stress(),
            ArrivalSpec::Bursty { rate_hz: 0.125, mean_burst_s: 3.5, idle_duty: 0.0 },
        ] {
            let slug = spec.slug();
            assert!(!slug.contains([' ', ',']), "slug {slug:?} not token-safe");
            assert_eq!(ArrivalSpec::from_slug(&slug), Some(spec), "{slug}");
        }
        assert_eq!(ArrivalSpec::from_slug("bursty:0:1:0.5"), None);
        assert_eq!(ArrivalSpec::from_slug("bursty:1:1:1.5"), None);
        assert_eq!(ArrivalSpec::from_slug("bursty:1:1"), None);
        assert_eq!(ArrivalSpec::from_slug("bursty:1:1:0.5:9"), None);
        assert_eq!(ArrivalSpec::from_slug("poisson"), None);
    }

    #[test]
    fn saturated_is_one_flat_segment() {
        let tl = ArrivalTimeline::build(ArrivalSpec::Saturated, 42, 100.0, 500.0);
        assert_eq!(segment_count(&tl), 1);
        assert_eq!(tl.duty_at(100.0), 1.0);
        assert_eq!(tl.duty_at(499.0), 1.0);
        assert_eq!(tl.next_edge_after(100.0), None);
        assert_eq!(mean_duty(&tl, 500.0), 1.0);
    }

    #[test]
    fn bursty_timeline_is_deterministic_per_seed() {
        let spec = ArrivalSpec::bursty_stress();
        let a = ArrivalTimeline::build(spec, 7, 0.0, 3600.0);
        let b = ArrivalTimeline::build(spec, 7, 0.0, 3600.0);
        let c = ArrivalTimeline::build(spec, 8, 0.0, 3600.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn bursty_alternates_on_and_off_duty() {
        let spec = ArrivalSpec::Bursty { rate_hz: 0.1, mean_burst_s: 5.0, idle_duty: 0.25 };
        let tl = ArrivalTimeline::build(spec, 3, 0.0, 10_000.0);
        assert!(segment_count(&tl) > 10, "window should hold many segments");
        for (i, s) in tl.segments.iter().enumerate() {
            let expect = if i % 2 == 0 { 1.0 } else { 0.25 };
            assert_eq!(s.duty, expect, "segment {i}");
            if i > 0 {
                assert!(s.start > tl.segments[i - 1].start, "edges must advance");
            }
        }
        let mean = mean_duty(&tl, 10_000.0);
        assert!(mean > 0.25 && mean < 1.0, "mean duty {mean}");
    }

    #[test]
    fn edge_queries_walk_every_segment() {
        let spec = ArrivalSpec::Bursty { rate_hz: 0.2, mean_burst_s: 4.0, idle_duty: 0.1 };
        let tl = ArrivalTimeline::build(spec, 11, 50.0, 800.0);
        let mut t = 50.0;
        let mut edges = 0;
        while let Some(next) = tl.next_edge_after(t) {
            assert!(next > t);
            // The duty on either side of an edge differs.
            assert_ne!(tl.duty_at(t), tl.duty_at(next), "edge at {next}");
            t = next;
            edges += 1;
        }
        assert_eq!(edges, segment_count(&tl) - 1);
        assert!((t..800.0).contains(&tl.segments.last().unwrap().start));
    }

    #[test]
    fn expected_burst_fraction_roughly_matches_parameters() {
        // Long-run busy fraction of an alternating renewal process is
        // E[burst] / (E[burst] + E[gap]).
        let (rate, burst, idle) = (0.1, 10.0, 0.0);
        let spec = ArrivalSpec::Bursty { rate_hz: rate, mean_burst_s: burst, idle_duty: idle };
        let mut acc = 0.0;
        let n = 32;
        for seed in 0..n {
            acc += mean_duty(&ArrivalTimeline::build(spec, seed, 0.0, 100_000.0), 100_000.0);
        }
        let mean = acc / n as f64;
        let expect = burst / (burst + 1.0 / rate);
        assert!((mean - expect).abs() < 0.03, "busy fraction {mean} vs {expect}");
    }
}
