//! Harvester fault injection: panel-shading steps and brown-out storms.
//!
//! Weather attenuates the sky; faults attenuate the *panel*. A
//! [`FaultSpec`] composes multiplicatively with any weather day — the
//! rendered irradiance trace is re-scaled sample by sample wherever a
//! fault interval is active — so the same seeded day can be replayed
//! with and without faults and differ only inside the fault windows.
//!
//! Two fault shapes cover the adversarial axis:
//!
//! * [`FaultSpec::Shading`] — deterministic periodic panel shading
//!   (a chimney's shadow, a cleaning robot): from a start offset, a
//!   fixed fraction of every period loses a fixed depth.
//! * [`FaultSpec::Brownout`] — a seeded Poisson storm of deep supply
//!   collapses (connector corrosion, MPPT resets): exponentially
//!   spaced events of fixed length, near-total attenuation.
//!
//! Both count their event intervals through [`FaultSpec::count_in`],
//! so campaign reducers can count injected faults deterministically
//! without re-deriving the trace.

use crate::irradiance::IrradianceTrace;
use crate::HarvestError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Domain-mixing constant so the fault stream of seed `s` is
/// uncorrelated with the cloud-field stream of the same seed.
const FAULT_SEED_SALT: u64 = 0xFA17_5EED_0000_0001;

/// Harvester-fault selection for a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum FaultSpec {
    /// No panel faults. The default; traces pass through untouched.
    #[default]
    None,
    /// Deterministic periodic panel shading.
    Shading {
        /// Absolute time the shading pattern starts, seconds.
        start_s: f64,
        /// Pattern period, seconds.
        period_s: f64,
        /// Shaded fraction of each period, in `(0, 1)`.
        duty: f64,
        /// Irradiance fraction lost while shaded, in `(0, 1]`.
        depth: f64,
    },
    /// Seeded Poisson storm of brown-out events.
    Brownout {
        /// Event arrival rate, events per second (exponential gaps
        /// with mean `1/rate_hz`).
        rate_hz: f64,
        /// Length of each event, seconds.
        len_s: f64,
        /// Irradiance fraction lost during an event, in `(0, 1]`.
        depth: f64,
    },
}

impl FaultSpec {
    /// The shading stress preset used by `--faults shading`: a quarter
    /// of every 10-minute period loses 70 % of the panel.
    pub fn shading_stress() -> FaultSpec {
        FaultSpec::Shading { start_s: 0.0, period_s: 600.0, duty: 0.25, depth: 0.7 }
    }

    /// The brown-out stress preset used by `--faults brownout`: on
    /// average one 20-second near-total (95 %) collapse every ~4
    /// minutes.
    pub fn brownout_stress() -> FaultSpec {
        FaultSpec::Brownout { rate_hz: 0.004, len_s: 20.0, depth: 0.95 }
    }

    /// Stable machine-readable token for persistence and CSV export:
    /// `none`, `shading:<start>:<period>:<duty>:<depth>` or
    /// `brownout:<rate>:<len>:<depth>`, with shortest-round-trip float
    /// formatting. Round-trips through [`FaultSpec::from_slug`]
    /// exactly.
    pub fn slug(&self) -> String {
        match self {
            FaultSpec::None => "none".to_string(),
            FaultSpec::Shading { start_s, period_s, duty, depth } => {
                format!("shading:{start_s}:{period_s}:{duty}:{depth}")
            }
            FaultSpec::Brownout { rate_hz, len_s, depth } => {
                format!("brownout:{rate_hz}:{len_s}:{depth}")
            }
        }
    }

    /// Parses a [`FaultSpec::slug`] token back into a spec. Returns
    /// `None` for malformed tokens or parameters outside their domain.
    pub fn from_slug(slug: &str) -> Option<FaultSpec> {
        if slug == "none" {
            return Some(FaultSpec::None);
        }
        let fields = |rest: &str, n: usize| -> Option<Vec<f64>> {
            let vals: Option<Vec<f64>> = rest.split(':').map(|p| p.parse::<f64>().ok()).collect();
            vals.filter(|v| v.len() == n && v.iter().all(|x| x.is_finite()))
        };
        if let Some(rest) = slug.strip_prefix("shading:") {
            let v = fields(rest, 4)?;
            let (start_s, period_s, duty, depth) = (v[0], v[1], v[2], v[3]);
            let ok = start_s >= 0.0
                && period_s > 0.0
                && duty > 0.0
                && duty < 1.0
                && depth > 0.0
                && depth <= 1.0;
            return ok.then_some(FaultSpec::Shading { start_s, period_s, duty, depth });
        }
        if let Some(rest) = slug.strip_prefix("brownout:") {
            let v = fields(rest, 3)?;
            let (rate_hz, len_s, depth) = (v[0], v[1], v[2]);
            let ok = rate_hz > 0.0 && len_s > 0.0 && depth > 0.0 && depth <= 1.0;
            return ok.then_some(FaultSpec::Brownout { rate_hz, len_s, depth });
        }
        None
    }

    /// The attenuation depth of this fault shape, if it has one.
    pub fn depth(&self) -> Option<f64> {
        match self {
            FaultSpec::None => None,
            FaultSpec::Shading { depth, .. } | FaultSpec::Brownout { depth, .. } => Some(*depth),
        }
    }

    /// The same fault shape with its depth replaced (used by the
    /// adaptive driver to bisect along the fault-depth axis). `None`
    /// stays `None`.
    pub fn with_depth(self, depth: f64) -> FaultSpec {
        match self {
            FaultSpec::None => FaultSpec::None,
            FaultSpec::Shading { start_s, period_s, duty, .. } => {
                FaultSpec::Shading { start_s, period_s, duty, depth }
            }
            FaultSpec::Brownout { rate_hz, len_s, .. } => {
                FaultSpec::Brownout { rate_hz, len_s, depth }
            }
        }
    }

    /// Fault intervals `(start, end)` intersecting the window
    /// `[t0, t1)`, in time order. Deterministic per `(spec, seed)`:
    /// the brown-out stream is generated from absolute time zero, so
    /// the same seed yields the same storm regardless of the window
    /// queried.
    fn events_in(&self, seed: u64, t0: f64, t1: f64) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        if t1 <= t0 {
            return out;
        }
        match *self {
            FaultSpec::None => {}
            FaultSpec::Shading { start_s, period_s, duty, .. } => {
                let shade_len = duty * period_s;
                // First period whose shaded interval could reach t0.
                let k0 = if t0 <= start_s {
                    0
                } else {
                    ((t0 - start_s - shade_len) / period_s).ceil().max(0.0) as u64
                };
                let mut k = k0;
                loop {
                    let s = start_s + k as f64 * period_s;
                    if s >= t1 {
                        break;
                    }
                    let e = s + shade_len;
                    if e > t0 {
                        out.push((s, e));
                    }
                    k += 1;
                }
            }
            FaultSpec::Brownout { rate_hz, len_s, .. } => {
                let mut rng = StdRng::seed_from_u64(seed ^ FAULT_SEED_SALT);
                let mut t = 0.0;
                loop {
                    let u: f64 = rng.gen();
                    t += -(1.0 - u).ln() / rate_hz;
                    if t >= t1 {
                        break;
                    }
                    if t + len_s > t0 {
                        out.push((t, t + len_s));
                    }
                }
            }
        }
        out
    }

    /// Number of fault events intersecting `[t0, t1)` — the campaign
    /// report's `faults_injected` metric.
    pub fn count_in(&self, seed: u64, t0: f64, t1: f64) -> u64 {
        self.events_in(seed, t0, t1).len() as u64
    }

    /// Applies the fault pattern to a rendered irradiance trace,
    /// multiplying every sample inside a fault interval by
    /// `1 − depth`. Sample times are preserved exactly; `None` returns
    /// a bitwise-identical copy (campaign code avoids even the copy by
    /// checking [`FaultSpec::default`] first).
    ///
    /// # Errors
    ///
    /// Propagates trace validation (cannot fail for factors in
    /// `[0, 1]`).
    pub fn attenuate(&self, trace: &IrradianceTrace, seed: u64) -> Result<IrradianceTrace, HarvestError> {
        let depth = match self.depth() {
            None => return IrradianceTrace::new(trace.iter().collect()),
            Some(d) => d,
        };
        let events = self.events_in(seed, trace.start().value(), trace.end().value());
        let factor = 1.0 - depth;
        let mut cursor = 0;
        let samples = trace
            .iter()
            .map(|(t, g)| {
                while cursor < events.len() && events[cursor].1 <= t.value() {
                    cursor += 1;
                }
                let faulted = cursor < events.len()
                    && events[cursor].0 <= t.value()
                    && t.value() < events[cursor].1;
                (t, if faulted { g * factor } else { g })
            })
            .collect();
        IrradianceTrace::new(samples)
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSpec::None => f.write_str("no faults"),
            FaultSpec::Shading { period_s, duty, depth, .. } => {
                write!(f, "shading ({:.0}% of every {period_s} s, depth {depth})", duty * 100.0)
            }
            FaultSpec::Brownout { rate_hz, len_s, depth } => {
                write!(f, "brown-out storm ({rate_hz}/s, {len_s} s, depth {depth})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pn_units::{Seconds, WattsPerSquareMeter};

    fn flat(t0: f64, t1: f64, g: f64) -> IrradianceTrace {
        IrradianceTrace::from_fn(Seconds::new(t0), Seconds::new(t1), Seconds::new(1.0), |_| {
            WattsPerSquareMeter::new(g)
        })
        .unwrap()
    }

    #[test]
    fn slugs_round_trip_exactly() {
        for spec in [
            FaultSpec::None,
            FaultSpec::shading_stress(),
            FaultSpec::brownout_stress(),
            FaultSpec::Shading { start_s: 37800.0, period_s: 450.5, duty: 0.125, depth: 1.0 },
            FaultSpec::Brownout { rate_hz: 0.0625, len_s: 3.5, depth: 0.5 },
        ] {
            let slug = spec.slug();
            assert!(!slug.contains([' ', ',']), "slug {slug:?} not token-safe");
            assert_eq!(FaultSpec::from_slug(&slug), Some(spec), "{slug}");
        }
        assert_eq!(FaultSpec::from_slug("none"), Some(FaultSpec::None));
        assert_eq!(FaultSpec::from_slug("shading:0:600:0:0.7"), None, "zero duty");
        assert_eq!(FaultSpec::from_slug("shading:0:600:1:0.7"), None, "full duty");
        assert_eq!(FaultSpec::from_slug("brownout:0:20:0.9"), None, "zero rate");
        assert_eq!(FaultSpec::from_slug("brownout:0.01:20:1.5"), None, "depth > 1");
        assert_eq!(FaultSpec::from_slug("brownout:0.01:20"), None, "short");
        assert_eq!(FaultSpec::from_slug("meteor"), None);
    }

    #[test]
    fn shading_events_tile_the_window_deterministically() {
        let spec = FaultSpec::Shading { start_s: 100.0, period_s: 200.0, duty: 0.25, depth: 0.5 };
        // Periods shade [100,150), [300,350), [500,550)…
        let ev = spec.events_in(0, 0.0, 700.0);
        assert_eq!(ev, vec![(100.0, 150.0), (300.0, 350.0), (500.0, 550.0)]);
        // A window opening mid-event still sees it.
        assert_eq!(spec.events_in(0, 120.0, 200.0), vec![(100.0, 150.0)]);
        // The seed is irrelevant to deterministic shading.
        assert_eq!(spec.events_in(0, 0.0, 700.0), spec.events_in(9, 0.0, 700.0));
        assert_eq!(spec.count_in(0, 0.0, 700.0), 3);
        assert_eq!(FaultSpec::None.count_in(0, 0.0, 700.0), 0);
    }

    #[test]
    fn brownout_storm_is_seeded_and_window_independent() {
        let spec = FaultSpec::Brownout { rate_hz: 0.01, len_s: 15.0, depth: 0.9 };
        let a = spec.events_in(42, 0.0, 20_000.0);
        let b = spec.events_in(42, 0.0, 20_000.0);
        let c = spec.events_in(43, 0.0, 20_000.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.is_empty());
        for w in a.windows(2) {
            assert!(w[1].0 > w[0].0, "events must be ordered");
        }
        // Querying a sub-window yields exactly the overlapping slice of
        // the full storm.
        let sub = spec.events_in(42, 5_000.0, 10_000.0);
        let expect: Vec<_> =
            a.iter().copied().filter(|&(s, e)| e > 5_000.0 && s < 10_000.0).collect();
        assert_eq!(sub, expect);
    }

    #[test]
    fn attenuation_scales_only_faulted_samples() {
        let spec = FaultSpec::Shading { start_s: 10.0, period_s: 100.0, duty: 0.2, depth: 0.6 };
        let base = flat(0.0, 200.0, 500.0);
        let hit = spec.attenuate(&base, 7).unwrap();
        assert_eq!(hit.len(), base.len());
        for ((t, g), (t2, g2)) in base.iter().zip(hit.iter()) {
            assert_eq!(t, t2, "sample times preserved");
            let in_fault = (10.0..30.0).contains(&t.value()) || (110.0..130.0).contains(&t.value());
            let expect = if in_fault { g.value() * 0.4 } else { g.value() };
            assert_eq!(g2.value().to_bits(), expect.to_bits(), "t = {t}");
        }
        // No-fault pass-through is bitwise identical.
        let same = FaultSpec::None.attenuate(&base, 7).unwrap();
        assert_eq!(same, base);
    }

    #[test]
    fn full_depth_blacks_the_panel_out() {
        let spec = FaultSpec::Shading { start_s: 0.0, period_s: 10.0, duty: 0.5, depth: 1.0 };
        let hit = spec.attenuate(&flat(0.0, 10.0, 800.0), 0).unwrap();
        assert_eq!(hit.sample(Seconds::new(2.0)).value(), 0.0);
        assert_eq!(hit.sample(Seconds::new(7.0)).value(), 800.0);
    }

    #[test]
    fn with_depth_rewrites_only_the_depth() {
        assert_eq!(FaultSpec::None.with_depth(0.5), FaultSpec::None);
        assert_eq!(FaultSpec::None.depth(), None);
        let b = FaultSpec::brownout_stress().with_depth(0.5);
        assert_eq!(b.depth(), Some(0.5));
        match (FaultSpec::brownout_stress(), b) {
            (FaultSpec::Brownout { rate_hz: r0, len_s: l0, .. },
             FaultSpec::Brownout { rate_hz, len_s, depth }) => {
                assert_eq!((rate_hz, len_s, depth), (r0, l0, 0.5));
            }
            _ => unreachable!(),
        }
        let s = FaultSpec::shading_stress().with_depth(0.25);
        assert_eq!(s.depth(), Some(0.25));
    }
}
