//! The micro-variability layer: a seeded stochastic cloud field.
//!
//! Clouds are generated as a marked Poisson process over the day: each
//! event has an arrival time, a duration and an attenuation depth, and
//! overlapping clouds multiply their transmittances. Edges are smoothed
//! over a short ramp so the resulting signal has realistic (finite)
//! slew — important because the governor's derivative controller reacts
//! to `dVC/dt`.
//!
//! All randomness is drawn from a caller-seeded [`rand::rngs::StdRng`],
//! so every experiment in this workspace is reproducible.

use crate::clearsky::ClearSky;
use crate::irradiance::IrradianceTrace;
use crate::HarvestError;
use pn_units::Seconds;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One cloud occlusion event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CloudEvent {
    /// When the cloud starts occluding.
    pub start: Seconds,
    /// How long it occludes.
    pub duration: Seconds,
    /// Fraction of light removed at full occlusion, in `[0, 1)`.
    pub depth: f64,
}

impl CloudEvent {
    /// Transmittance contribution of this cloud at time `t`, with
    /// `ramp`-long linear edges.
    fn transmittance(&self, t: Seconds, ramp: Seconds) -> f64 {
        let t = t.value();
        let (start, dur, ramp) = (self.start.value(), self.duration.value(), ramp.value());
        let end = start + dur;
        if t <= start || t >= end {
            return 1.0;
        }
        // Linear attack/release envelopes, clamped to full depth.
        let edge = (t - start).min(end - t);
        let envelope = if ramp > 0.0 { (edge / ramp).min(1.0) } else { 1.0 };
        1.0 - self.depth * envelope
    }
}

/// Statistical parameters of a cloud field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CloudParams {
    /// Mean number of cloud events per hour.
    pub events_per_hour: f64,
    /// Mean occlusion duration (exponentially distributed).
    pub mean_duration: Seconds,
    /// Attenuation depth range `[min, max)`.
    pub depth_range: (f64, f64),
    /// Edge ramp duration.
    pub ramp: Seconds,
    /// Persistent overcast transmittance multiplied into the whole day
    /// (1.0 = none).
    pub overcast_transmittance: f64,
}

impl CloudParams {
    fn validate(&self) -> Result<(), HarvestError> {
        if self.events_per_hour < 0.0 || !self.events_per_hour.is_finite() {
            return Err(HarvestError::InvalidParameter("events_per_hour must be non-negative"));
        }
        if !(self.mean_duration.value() > 0.0) {
            return Err(HarvestError::InvalidParameter("mean_duration must be positive"));
        }
        let (lo, hi) = self.depth_range;
        if !(0.0..=1.0).contains(&lo) || !(0.0..=1.0).contains(&hi) || hi < lo {
            return Err(HarvestError::InvalidParameter("depth_range must be within [0, 1]"));
        }
        if !(0.0..=1.0).contains(&self.overcast_transmittance) {
            return Err(HarvestError::InvalidParameter(
                "overcast_transmittance must be within [0, 1]",
            ));
        }
        Ok(())
    }
}

/// A generated cloud field covering a fixed time span.
///
/// # Examples
///
/// ```
/// use pn_harvest::clouds::{CloudField, CloudParams};
/// use pn_units::Seconds;
///
/// # fn main() -> Result<(), pn_harvest::HarvestError> {
/// let params = CloudParams {
///     events_per_hour: 12.0,
///     mean_duration: Seconds::new(90.0),
///     depth_range: (0.3, 0.8),
///     ramp: Seconds::new(5.0),
///     overcast_transmittance: 1.0,
/// };
/// let field = CloudField::generate(params, Seconds::ZERO, Seconds::from_hours(24.0), 7)?;
/// let tr = field.transmittance(Seconds::from_hours(12.0));
/// assert!((0.0..=1.0).contains(&tr));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CloudField {
    events: Vec<CloudEvent>,
    params: CloudParams,
}

impl CloudField {
    /// Generates a field over `[start, end]` from a seed.
    ///
    /// # Errors
    ///
    /// Returns [`HarvestError::InvalidParameter`] for out-of-domain
    /// parameters or an empty span.
    pub fn generate(
        params: CloudParams,
        start: Seconds,
        end: Seconds,
        seed: u64,
    ) -> Result<Self, HarvestError> {
        params.validate()?;
        if end <= start {
            return Err(HarvestError::InvalidParameter("empty time span"));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        if params.events_per_hour > 0.0 {
            let mean_gap = 3600.0 / params.events_per_hour;
            let mut t = start.value();
            loop {
                // Exponential inter-arrival times (Poisson process).
                let u: f64 = rng.gen_range(1e-12..1.0);
                t += -mean_gap * u.ln();
                if t >= end.value() {
                    break;
                }
                let ud: f64 = rng.gen_range(1e-12..1.0);
                let duration = -params.mean_duration.value() * ud.ln();
                let (lo, hi) = params.depth_range;
                let depth = if hi > lo { rng.gen_range(lo..hi) } else { lo };
                events.push(CloudEvent {
                    start: Seconds::new(t),
                    duration: Seconds::new(duration.max(1.0)),
                    depth,
                });
            }
        }
        Ok(Self { events, params })
    }

    /// The generated events.
    pub fn events(&self) -> &[CloudEvent] {
        &self.events
    }

    /// Combined transmittance at time `t` (product over active clouds
    /// times the persistent overcast factor), in `[0, 1]`.
    ///
    /// Random access: every call walks all clouds started by `t`.
    /// [`CloudField::render`] samples forward in time through a
    /// `CloudSweep` instead, which answers the same queries in time
    /// linear in the active clouds, bitwise identically; this method is
    /// its oracle.
    pub fn transmittance(&self, t: Seconds) -> f64 {
        let mut tr = self.params.overcast_transmittance;
        for event in &self.events {
            // Events are sorted by start; stop early once past `t`.
            if event.start > t {
                break;
            }
            tr *= event.transmittance(t, self.params.ramp);
        }
        tr.clamp(0.0, 1.0)
    }

    /// Renders `sky`'s irradiance under this field over `[start, end]`,
    /// sampling every `dt`. The field is swept forward, so each sample
    /// costs time in the clouds active at it, not in every cloud
    /// started so far; every sample is bitwise
    /// `sky.irradiance(t) * self.transmittance(t)`.
    ///
    /// # Errors
    ///
    /// Returns [`HarvestError::InvalidParameter`] for an empty span or
    /// non-positive `dt`.
    pub fn render(
        &self,
        sky: &ClearSky,
        start: Seconds,
        end: Seconds,
        dt: Seconds,
    ) -> Result<IrradianceTrace, HarvestError> {
        let mut sweep = self.sweep();
        IrradianceTrace::from_fn(start, end, dt, |t| sky.irradiance(t) * sweep.transmittance(t))
    }

    /// A sequential sampler positioned before the first cloud (see
    /// [`CloudSweep`]).
    fn sweep(&self) -> CloudSweep<'_> {
        CloudSweep { field: self, next: 0, active: Vec::new(), last: f64::NEG_INFINITY }
    }
}

/// Forward sampler over a [`CloudField`]: keeps the started, not yet
/// ended clouds in start order, so a day of non-decreasing queries
/// costs time linear in the clouds active at each query instead of in
/// every cloud started so far.
///
/// Every query is bitwise identical to [`CloudField::transmittance`]:
/// the product runs over the same clouds in the same order, and the
/// clouds it skips have ended, so their factor is exactly `1.0`. A
/// query earlier than the previous one restarts the sweep from the
/// first cloud.
#[derive(Debug)]
struct CloudSweep<'a> {
    field: &'a CloudField,
    /// Index of the first cloud not yet started.
    next: usize,
    /// Started clouds that had not ended at the previous query.
    active: Vec<CloudEvent>,
    /// The previous query time.
    last: f64,
}

impl CloudSweep<'_> {
    /// Combined transmittance at time `t`.
    fn transmittance(&mut self, t: Seconds) -> f64 {
        if t.value() < self.last {
            self.next = 0;
            self.active.clear();
        }
        self.last = t.value();
        let events = &self.field.events;
        while self.next < events.len() && events[self.next].start <= t {
            self.active.push(events[self.next]);
            self.next += 1;
        }
        // The same end expression `CloudEvent::transmittance` tests.
        self.active.retain(|e| t.value() < e.start.value() + e.duration.value());
        let ramp = self.field.params.ramp;
        let mut tr = self.field.params.overcast_transmittance;
        for event in &self.active {
            tr *= event.transmittance(t, ramp);
        }
        tr.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn params() -> CloudParams {
        CloudParams {
            events_per_hour: 20.0,
            mean_duration: Seconds::new(60.0),
            depth_range: (0.2, 0.9),
            ramp: Seconds::new(4.0),
            overcast_transmittance: 1.0,
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = CloudField::generate(params(), Seconds::ZERO, Seconds::from_hours(6.0), 5).unwrap();
        let b = CloudField::generate(params(), Seconds::ZERO, Seconds::from_hours(6.0), 5).unwrap();
        assert_eq!(a, b);
        let c = CloudField::generate(params(), Seconds::ZERO, Seconds::from_hours(6.0), 6).unwrap();
        assert_ne!(a.events(), c.events());
    }

    #[test]
    fn event_count_tracks_rate() {
        let field =
            CloudField::generate(params(), Seconds::ZERO, Seconds::from_hours(10.0), 11).unwrap();
        let n = field.events().len() as f64;
        // Expect ~200 events; Poisson 3σ ≈ 42.
        assert!((n - 200.0).abs() < 60.0, "generated {n} events");
    }

    #[test]
    fn overcast_caps_transmittance() {
        let mut p = params();
        p.events_per_hour = 0.0;
        p.overcast_transmittance = 0.35;
        let field = CloudField::generate(p, Seconds::ZERO, Seconds::from_hours(1.0), 3).unwrap();
        assert!((field.transmittance(Seconds::new(100.0)) - 0.35).abs() < 1e-12);
    }

    #[test]
    fn cloud_edges_ramp() {
        let event = CloudEvent {
            start: Seconds::new(100.0),
            duration: Seconds::new(50.0),
            depth: 0.5,
        };
        let ramp = Seconds::new(10.0);
        assert_eq!(event.transmittance(Seconds::new(99.0), ramp), 1.0);
        // Halfway up the attack ramp: half the depth applied.
        let half = event.transmittance(Seconds::new(105.0), ramp);
        assert!((half - 0.75).abs() < 1e-9);
        // Fully inside: full depth.
        let mid = event.transmittance(Seconds::new(125.0), ramp);
        assert!((mid - 0.5).abs() < 1e-9);
    }

    #[test]
    fn validation_rejects_bad_params() {
        let mut p = params();
        p.depth_range = (0.5, 0.2);
        assert!(CloudField::generate(p, Seconds::ZERO, Seconds::new(10.0), 0).is_err());
        let mut p = params();
        p.overcast_transmittance = 1.5;
        assert!(CloudField::generate(p, Seconds::ZERO, Seconds::new(10.0), 0).is_err());
        assert!(CloudField::generate(params(), Seconds::new(10.0), Seconds::new(5.0), 0).is_err());
    }

    #[test]
    fn shorter_spans_generate_a_prefix_of_the_events() {
        let long = CloudField::generate(params(), Seconds::ZERO, Seconds::from_hours(6.0), 9).unwrap();
        for edge in long.events().iter().step_by(7) {
            // A span ending exactly where this cloud starts leaves it
            // out, yet agrees with the longer field at that instant:
            // the cloud's factor there is exactly 1.0.
            let short = CloudField::generate(params(), Seconds::ZERO, edge.start, 9).unwrap();
            let n = short.events().len();
            assert_eq!(short.events(), &long.events()[..n]);
            assert_eq!(long.events()[n].start, edge.start);
            assert_eq!(
                short.transmittance(edge.start).to_bits(),
                long.transmittance(edge.start).to_bits()
            );
        }
    }

    proptest! {
        #[test]
        fn sweep_matches_random_access_bitwise(
            seed in 0u64..1000,
            rate in 0.0f64..120.0,
            mean_s in 1.0f64..600.0,
            lo in 0.0f64..=1.0,
            width in 0.0f64..=1.0,
            ramp in 0.0f64..30.0,
            overcast in 0.0f64..=1.0,
            shape in 0u8..4,
            dt in 0.5f64..10.0,
        ) {
            // Bit 0 clear: a degenerate depth range; bit 1 clear: no ramp.
            let hi = if shape & 1 == 0 { lo } else { (lo + width).min(1.0) };
            let ramp = if shape & 2 == 0 { 0.0 } else { ramp };
            let p = CloudParams {
                events_per_hour: rate,
                mean_duration: Seconds::new(mean_s),
                depth_range: (lo, hi),
                ramp: Seconds::new(ramp),
                overcast_transmittance: overcast,
            };
            let (t0, t1) = (100.0, 3700.0);
            let field = CloudField::generate(p, Seconds::new(t0), Seconds::new(t1), seed).unwrap();
            // A sampling grid plus every cloud's start, ramp-top and end,
            // so queries also land exactly on the edges.
            let mut times: Vec<f64> =
                (0..).map(|k| t0 + dt * k as f64).take_while(|t| *t <= t1).collect();
            for e in field.events() {
                let (start, end) = (e.start.value(), e.start.value() + e.duration.value());
                times.extend([start, start + ramp, end]);
            }
            times.sort_by(f64::total_cmp);
            let mut sweep = field.sweep();
            for &t in &times {
                let t = Seconds::new(t);
                prop_assert_eq!(
                    sweep.transmittance(t).to_bits(), field.transmittance(t).to_bits(), "t = {}", t
                );
            }
            // A backward query restarts the sweep and still agrees.
            let t = Seconds::new(times[times.len() / 2]);
            prop_assert_eq!(sweep.transmittance(t).to_bits(), field.transmittance(t).to_bits());
        }

        #[test]
        fn transmittance_always_in_unit_interval(seed in 0u64..50, hour in 0.0f64..10.0) {
            let field = CloudField::generate(
                params(), Seconds::ZERO, Seconds::from_hours(10.0), seed,
            ).unwrap();
            let tr = field.transmittance(Seconds::from_hours(hour));
            prop_assert!((0.0..=1.0).contains(&tr));
        }
    }
}
