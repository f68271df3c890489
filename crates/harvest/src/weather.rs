//! Weather presets and the day-profile builder.
//!
//! §V-B of the paper reports "testing was performed for over 20 hours
//! in a variety of weather conditions (full-sun, partial-sun, cloud,
//! and hail)". [`Weather`] captures those four conditions as cloud-field
//! parameterisations over the clear-sky envelope — plus two harsher
//! campaign-matrix conditions ([`Weather::Stormy`] and
//! [`Weather::Winter`]) that push a governor well below the paper's
//! tested envelope — and [`DayProfile`] renders a complete, seeded
//! irradiance trace for a day.

use crate::clearsky::ClearSky;
use crate::clouds::{CloudField, CloudParams};
use crate::irradiance::IrradianceTrace;
use crate::HarvestError;
use pn_units::Seconds;
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// The four weather conditions the paper tested under, plus two
/// harsher synthetic conditions for campaign matrices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Weather {
    /// Clear day with only occasional shallow clouds.
    FullSun,
    /// Broken cloud: frequent, fairly deep occlusions.
    PartialSun,
    /// Persistent overcast with embedded deeper cells.
    Cloudy,
    /// Storm/hail: heavy attenuation with violent bursts.
    Hail,
    /// Severe storm front: near-continuous deep occlusion under a dark
    /// overcast — harsher than the paper's hail condition.
    Stormy,
    /// Deep winter overcast: a very dark, slow-moving cloud deck with
    /// long embedded cells; the darkest condition of the matrix.
    Winter,
}

impl Weather {
    /// Every condition, brightest first.
    ///
    /// The ordering is a contract: conditions are listed by decreasing
    /// expected harvest, the first four entries are exactly
    /// [`Weather::paper_conditions`] (in the same order), and the
    /// trailing [`Weather::Stormy`] / [`Weather::Winter`] pair are
    /// campaign-only extensions that the paper never tested. Campaign
    /// matrices, persisted reports and plots all rely on this order
    /// staying stable.
    pub fn all() -> [Weather; 6] {
        [
            Weather::FullSun,
            Weather::PartialSun,
            Weather::Cloudy,
            Weather::Hail,
            Weather::Stormy,
            Weather::Winter,
        ]
    }

    /// The four conditions §V-B of the paper reports testing under —
    /// exactly the first four entries of [`Weather::all`], brightest
    /// first. [`Weather::Stormy`] and [`Weather::Winter`] are *not*
    /// part of this set: they are synthetic campaign-matrix extensions.
    pub fn paper_conditions() -> [Weather; 4] {
        [Weather::FullSun, Weather::PartialSun, Weather::Cloudy, Weather::Hail]
    }

    /// Stable machine-readable token for persistence and CSV export
    /// (the [`fmt::Display`] names contain spaces and are meant for
    /// humans). Round-trips through [`Weather::from_slug`].
    pub fn slug(&self) -> &'static str {
        match self {
            Weather::FullSun => "full-sun",
            Weather::PartialSun => "partial-sun",
            Weather::Cloudy => "cloudy",
            Weather::Hail => "hail",
            Weather::Stormy => "stormy",
            Weather::Winter => "winter",
        }
    }

    /// Parses a [`Weather::slug`] token back into a condition.
    pub fn from_slug(slug: &str) -> Option<Weather> {
        Weather::all().into_iter().find(|w| w.slug() == slug)
    }

    /// Cloud-field parameters characterising this condition.
    pub fn cloud_params(&self) -> CloudParams {
        match self {
            Weather::FullSun => CloudParams {
                events_per_hour: 2.5,
                mean_duration: Seconds::new(40.0),
                depth_range: (0.04, 0.12),
                ramp: Seconds::new(4.0),
                overcast_transmittance: 1.0,
            },
            Weather::PartialSun => CloudParams {
                events_per_hour: 18.0,
                mean_duration: Seconds::new(90.0),
                depth_range: (0.25, 0.80),
                ramp: Seconds::new(5.0),
                overcast_transmittance: 0.95,
            },
            Weather::Cloudy => CloudParams {
                events_per_hour: 10.0,
                mean_duration: Seconds::new(240.0),
                depth_range: (0.30, 0.70),
                ramp: Seconds::new(8.0),
                overcast_transmittance: 0.40,
            },
            Weather::Hail => CloudParams {
                events_per_hour: 30.0,
                mean_duration: Seconds::new(120.0),
                depth_range: (0.50, 0.95),
                ramp: Seconds::new(2.0),
                overcast_transmittance: 0.30,
            },
            // Expected cloud attenuation exp(−μ·E[depth]) with
            // μ = events/h · duration / 3600 concurrent events keeps
            // the brightest-first ordering of `all()` well separated:
            // hail ≈ 0.15, stormy ≈ 0.09, winter ≈ 0.05 of clear sky.
            Weather::Stormy => CloudParams {
                events_per_hour: 30.0,
                mean_duration: Seconds::new(150.0),
                depth_range: (0.50, 0.90),
                ramp: Seconds::new(2.0),
                overcast_transmittance: 0.22,
            },
            Weather::Winter => CloudParams {
                events_per_hour: 8.0,
                mean_duration: Seconds::new(420.0),
                depth_range: (0.40, 0.80),
                ramp: Seconds::new(15.0),
                overcast_transmittance: 0.08,
            },
        }
    }
}

impl fmt::Display for Weather {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Weather::FullSun => write!(f, "full sun"),
            Weather::PartialSun => write!(f, "partial sun"),
            Weather::Cloudy => write!(f, "cloud"),
            Weather::Hail => write!(f, "hail"),
            Weather::Stormy => write!(f, "storm"),
            Weather::Winter => write!(f, "winter"),
        }
    }
}

/// Builder for a seeded, full-day irradiance trace.
///
/// # Examples
///
/// ```
/// use pn_harvest::weather::{DayProfile, Weather};
/// use pn_units::Seconds;
///
/// # fn main() -> Result<(), pn_harvest::HarvestError> {
/// let trace = DayProfile::new(Weather::PartialSun, 1)
///     .with_span(Seconds::from_hours(10.0), Seconds::from_hours(17.0))
///     .build(Seconds::new(30.0))?;
/// assert!(trace.peak().value() > 100.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DayProfile {
    weather: Weather,
    seed: u64,
    sky: Option<ClearSky>,
    start: Seconds,
    end: Seconds,
}

impl DayProfile {
    /// Starts a profile for the given weather and RNG seed, covering
    /// the whole 24-hour day under the temperate clear-sky preset.
    pub fn new(weather: Weather, seed: u64) -> Self {
        Self {
            weather,
            seed,
            sky: None,
            start: Seconds::ZERO,
            end: Seconds::from_hours(24.0),
        }
    }

    /// Overrides the clear-sky envelope.
    pub fn with_sky(mut self, sky: ClearSky) -> Self {
        self.sky = Some(sky);
        self
    }

    /// Restricts the rendered span (e.g. the paper's 10:30–16:30 test
    /// window in Fig. 12).
    pub fn with_span(mut self, start: Seconds, end: Seconds) -> Self {
        self.start = start;
        self.end = end;
        self
    }

    /// Renders the trace, sampling every `dt`.
    ///
    /// # Errors
    ///
    /// Returns [`HarvestError::InvalidParameter`] for an empty span or
    /// non-positive `dt`.
    pub fn build(&self, dt: Seconds) -> Result<IrradianceTrace, HarvestError> {
        let sky = match self.sky {
            Some(s) => s,
            None => ClearSky::temperate_day()?,
        };
        let clouds =
            CloudField::generate(self.weather.cloud_params(), self.start, self.end, self.seed)?;
        IrradianceTrace::from_fn(self.start, self.end, dt, |t| {
            sky.irradiance(t) * clouds.transmittance(t)
        })
    }

    /// Renders the trace through a process-wide memo, so repeated
    /// builds of the same profile (the common case in campaign
    /// matrices, where every cell of a `(weather, seed)` group wants
    /// the same day) are served from cache instead of re-rendered.
    ///
    /// The cache key covers everything [`DayProfile::build`] reads —
    /// weather, seed, the clear-sky envelope (by exact bit pattern) and
    /// the span/`dt` — so a hit is bitwise-identical to a fresh render.
    /// The memo is capacity-capped with first-in-first-out eviction, so
    /// a campaign touching more than [`DAY_CACHE_CAPACITY`] distinct
    /// days keeps sharing its *recent* days instead of building every
    /// day past the cap from scratch on each request.
    ///
    /// The memo is safe to share across threads: concurrent requests
    /// for the same day render it once (the others wait for that
    /// render), distinct days render in parallel, and a failed render
    /// caches nothing.
    ///
    /// # Errors
    ///
    /// Same contract as [`DayProfile::build`].
    pub fn build_shared(&self, dt: Seconds) -> Result<Arc<IrradianceTrace>, HarvestError> {
        self.build_shared_traced(dt).map(|(trace, _)| trace)
    }

    /// [`DayProfile::build_shared`], also reporting whether the lookup
    /// hit the memo (`true`) or rendered a fresh trace (`false`).
    ///
    /// Campaign drivers use the flag to notice when their working set
    /// has outgrown the memo — a run that expects the PR 6 sharing
    /// speedup but sees misses on repeated builds is thrashing the cap.
    ///
    /// # Errors
    ///
    /// Same contract as [`DayProfile::build`].
    pub fn build_shared_traced(
        &self,
        dt: Seconds,
    ) -> Result<(Arc<IrradianceTrace>, bool), HarvestError> {
        memoise(self.cache_key(dt), || self.build(dt))
    }

    fn cache_key(&self, dt: Seconds) -> DayKey {
        DayKey {
            weather: self.weather,
            seed: self.seed,
            sky: self.sky.map(|s| {
                [
                    s.sunrise().value().to_bits(),
                    s.sunset().value().to_bits(),
                    s.peak().value().to_bits(),
                    s.sharpness().to_bits(),
                ]
            }),
            start: self.start.value().to_bits(),
            end: self.end.value().to_bits(),
            dt: dt.value().to_bits(),
        }
    }
}

/// Everything `DayProfile::build` reads, as exact bit patterns.
#[derive(PartialEq, Eq, Hash)]
struct DayKey {
    weather: Weather,
    seed: u64,
    sky: Option<[u64; 4]>,
    start: u64,
    end: u64,
    dt: u64,
}

/// Upper bound on memoised day traces (a 6-hour day at 1 Hz is
/// ≈350 KB, so the cap bounds the memo at ≈22 MB worst case). Reaching
/// the cap evicts the oldest day rather than pinning the memo's
/// contents forever.
pub const DAY_CACHE_CAPACITY: usize = 64;

/// One memoised day: empty until its first render completes. Each day
/// has its own lock, so a render blocks only requests for that day.
type DaySlot = Mutex<Option<Arc<IrradianceTrace>>>;

/// The memo is a FIFO deque rather than a map: at 64 entries a linear
/// key scan is noise next to a day render, and the deque's order *is*
/// the eviction order.
type DayCache = VecDeque<(DayKey, Arc<DaySlot>)>;

fn lock_day_cache() -> MutexGuard<'static, DayCache> {
    static CACHE: OnceLock<Mutex<DayCache>> = OnceLock::new();
    CACHE
        .get_or_init(|| Mutex::new(VecDeque::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Returns the memoised trace for `key`, rendering it with `build` on
/// the first request, plus whether the memo already held it.
///
/// The memo-wide lock is held only to find or reserve the day's slot;
/// the render runs under the slot's own lock. Requests for one day
/// therefore wait for a single render, while distinct days render in
/// parallel. A failed render removes its reserved slot again, so the
/// error is not cached and the day keeps no FIFO position.
fn memoise(
    key: DayKey,
    build: impl FnOnce() -> Result<IrradianceTrace, HarvestError>,
) -> Result<(Arc<IrradianceTrace>, bool), HarvestError> {
    let slot = {
        let mut cache = lock_day_cache();
        match cache.iter().find(|(k, _)| *k == key) {
            Some((_, slot)) => Arc::clone(slot),
            None => {
                if cache.len() >= DAY_CACHE_CAPACITY {
                    // Evict the oldest day; any simulation already
                    // holding its trace keeps it alive independently of
                    // the memo.
                    cache.pop_front();
                }
                let slot = Arc::new(DaySlot::default());
                cache.push_back((key, Arc::clone(&slot)));
                slot
            }
        }
    };
    let mut trace = slot.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(hit) = trace.as_ref() {
        return Ok((Arc::clone(hit), true));
    }
    match build() {
        Ok(built) => {
            let built = Arc::new(built);
            *trace = Some(Arc::clone(&built));
            Ok((built, false))
        }
        Err(e) => {
            drop(trace);
            lock_day_cache().retain(|(_, s)| !Arc::ptr_eq(s, &slot));
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_over_daylight(w: Weather, seed: u64) -> f64 {
        DayProfile::new(w, seed)
            .with_span(Seconds::from_hours(9.0), Seconds::from_hours(17.0))
            .build(Seconds::new(20.0))
            .unwrap()
            .mean()
            .value()
    }

    #[test]
    fn weather_ordering_full_sun_brightest() {
        // Averaged across seeds, harsher weather harvests less.
        let avg = |w: Weather| (0..5).map(|s| mean_over_daylight(w, s)).sum::<f64>() / 5.0;
        let full = avg(Weather::FullSun);
        let partial = avg(Weather::PartialSun);
        let cloudy = avg(Weather::Cloudy);
        let hail = avg(Weather::Hail);
        assert!(full > partial, "full {full} vs partial {partial}");
        assert!(partial > cloudy, "partial {partial} vs cloudy {cloudy}");
        assert!(cloudy > hail, "cloudy {cloudy} vs hail {hail}");
    }

    #[test]
    fn full_sun_day_shows_micro_variability() {
        let trace = DayProfile::new(Weather::FullSun, 3)
            .with_span(Seconds::from_hours(11.0), Seconds::from_hours(15.0))
            .build(Seconds::new(10.0))
            .unwrap();
        // Peak near the clear-sky level...
        assert!(trace.peak().value() > 900.0);
        // ...but not perfectly flat: some dip exists.
        let min = trace.iter().map(|(_, g)| g.value()).fold(f64::INFINITY, f64::min);
        assert!(min < trace.peak().value() * 0.999);
    }

    #[test]
    fn night_is_dark_in_every_weather() {
        for w in Weather::all() {
            let trace = DayProfile::new(w, 9)
                .with_span(Seconds::ZERO, Seconds::from_hours(4.0))
                .build(Seconds::new(60.0))
                .unwrap();
            assert_eq!(trace.peak().value(), 0.0, "{w} night not dark");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = DayProfile::new(Weather::Hail, 77).build(Seconds::new(60.0)).unwrap();
        let b = DayProfile::new(Weather::Hail, 77).build(Seconds::new(60.0)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn display_names() {
        assert_eq!(Weather::FullSun.to_string(), "full sun");
        assert_eq!(Weather::Hail.to_string(), "hail");
        assert_eq!(Weather::Stormy.to_string(), "storm");
        assert_eq!(Weather::Winter.to_string(), "winter");
    }

    #[test]
    fn campaign_conditions_extend_the_paper_set() {
        assert_eq!(Weather::all().len(), 6);
        assert_eq!(Weather::paper_conditions().len(), 4);
        // Ordering contract: the paper set is exactly the brightest
        // four, in order, and the campaign-only extensions trail it.
        assert_eq!(Weather::all()[..4], Weather::paper_conditions());
        assert_eq!(Weather::all()[4..], [Weather::Stormy, Weather::Winter]);
        assert!(!Weather::paper_conditions().contains(&Weather::Stormy));
        assert!(!Weather::paper_conditions().contains(&Weather::Winter));
    }

    #[test]
    fn slugs_round_trip_and_stay_machine_readable() {
        for w in Weather::all() {
            assert_eq!(Weather::from_slug(w.slug()), Some(w), "{w}");
            assert!(!w.slug().contains([' ', ',']), "slug {:?} not CSV-safe", w.slug());
        }
        assert_eq!(Weather::from_slug("monsoon"), None);
        // Pinned spellings: persisted reports depend on them.
        assert_eq!(Weather::FullSun.slug(), "full-sun");
        assert_eq!(Weather::Winter.slug(), "winter");
    }

    #[test]
    fn harsh_conditions_are_darker_than_hail() {
        // Averaged across seeds, the two campaign extensions harvest
        // less than every paper condition.
        let avg = |w: Weather| (0..5).map(|s| mean_over_daylight(w, s)).sum::<f64>() / 5.0;
        let hail = avg(Weather::Hail);
        let stormy = avg(Weather::Stormy);
        let winter = avg(Weather::Winter);
        assert!(hail > stormy, "hail {hail} vs stormy {stormy}");
        assert!(stormy > winter, "stormy {stormy} vs winter {winter}");
        // Even the darkest day still harvests something at noon.
        assert!(winter > 0.0);
    }

    #[test]
    fn second_build_of_same_day_is_cache_served() {
        let profile = DayProfile::new(Weather::Cloudy, 4242)
            .with_span(Seconds::from_hours(10.5), Seconds::from_hours(16.5));
        let dt = Seconds::new(7.0);
        let first = profile.build_shared(dt).unwrap();
        let second = profile.build_shared(dt).unwrap();
        // Same allocation, not merely equal contents.
        assert!(Arc::ptr_eq(&first, &second));
        // And bitwise-identical to an uncached render.
        assert_eq!(*first, profile.build(dt).unwrap());
    }

    #[test]
    fn cache_key_distinguishes_every_build_input() {
        let base = DayProfile::new(Weather::Cloudy, 7)
            .with_span(Seconds::from_hours(11.0), Seconds::from_hours(12.0));
        let dt = Seconds::new(11.0);
        let a = base.build_shared(dt).unwrap();
        let other_seed = DayProfile::new(Weather::Cloudy, 8)
            .with_span(Seconds::from_hours(11.0), Seconds::from_hours(12.0))
            .build_shared(dt)
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &other_seed));
        let other_dt = base.build_shared(Seconds::new(13.0)).unwrap();
        assert!(!Arc::ptr_eq(&a, &other_dt));
        let other_sky =
            base.clone().with_sky(ClearSky::paper_test_day().unwrap()).build_shared(dt).unwrap();
        assert!(!Arc::ptr_eq(&a, &other_sky));
        assert_ne!(*a, *other_sky);
    }

    /// The cap-overflow tests each push `DAY_CACHE_CAPACITY`-scale
    /// entry counts through the process-wide memo; two of them running
    /// concurrently would evict each other's days mid-assertion, so
    /// they serialize here. (The small tests insert a handful of days
    /// at most — far too few to flush a 64-entry FIFO — and need no
    /// lock.)
    static BIG_CACHE_TESTS: Mutex<()> = Mutex::new(());

    #[test]
    fn overflowing_the_memo_cap_still_shares_fresh_days() {
        let _serial = BIG_CACHE_TESTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        // Regression: the memo used to stop inserting once it held
        // DAY_CACHE_CAPACITY days, so a campaign's 65th distinct
        // (weather, seed) group rebuilt its day on every request. With
        // FIFO eviction the newest day always lands in the memo.
        let dt = Seconds::new(30.0);
        let profile = |seed: u64| {
            DayProfile::new(Weather::PartialSun, 0xCA9_0000 + seed)
                .with_span(Seconds::from_hours(12.0), Seconds::from_hours(12.25))
        };
        // Fill the cap (and then some) with distinct days...
        for seed in 0..DAY_CACHE_CAPACITY as u64 {
            profile(seed).build_shared(dt).unwrap();
        }
        // ...then the next distinct day must still be memoised: the
        // first build renders, the immediate rebuild shares it.
        let straggler = profile(DAY_CACHE_CAPACITY as u64);
        let (first, first_hit) = straggler.build_shared_traced(dt).unwrap();
        let (second, second_hit) = straggler.build_shared_traced(dt).unwrap();
        assert!(!first_hit, "a never-built day cannot hit the memo");
        assert!(second_hit, "the 65th profile fell out of the memo");
        assert!(Arc::ptr_eq(&first, &second), "rebuild did not share");
        // The flag round-trips for plain cache hits too.
        let early = profile(DAY_CACHE_CAPACITY as u64 - 1).build_shared_traced(dt).unwrap();
        assert!(early.1, "a just-inserted day should still be resident");
    }

    #[test]
    fn memo_evicts_in_insertion_order() {
        let _serial = BIG_CACHE_TESTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let dt = Seconds::new(30.0);
        let profile = |seed: u64| {
            DayProfile::new(Weather::Cloudy, 0xF1F0_0000 + seed)
                .with_span(Seconds::from_hours(12.0), Seconds::from_hours(12.25))
        };
        // Memoise cap + 8 distinct days, oldest first.
        let n = (DAY_CACHE_CAPACITY + 8) as u64;
        for seed in 0..n {
            profile(seed).build_shared(dt).unwrap();
        }
        // FIFO: exactly the first-inserted days are gone. Probing them
        // oldest-first keeps the assertion stable — each probe's
        // re-insert can only evict days older than the ones still to
        // be probed.
        for seed in 0..8 {
            let (_, hit) = profile(seed).build_shared_traced(dt).unwrap();
            assert!(!hit, "day {seed} survived eviction — not insertion order");
        }
        let (_, hit) = profile(n - 1).build_shared_traced(dt).unwrap();
        assert!(hit, "the newest day fell out despite FIFO eviction");
    }

    #[test]
    fn memo_hits_do_not_refresh_eviction_position() {
        // The memo is FIFO, not LRU: a cache hit must not move a day
        // to the back of the eviction queue. Documented behaviour —
        // campaign groups touch their day in bursts, so recency
        // tracking would only add bookkeeping to the hot path.
        let _serial = BIG_CACHE_TESTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let dt = Seconds::new(30.0);
        let profile = |seed: u64| {
            DayProfile::new(Weather::Stormy, 0xF1F1_0000 + seed)
                .with_span(Seconds::from_hours(12.0), Seconds::from_hours(12.25))
        };
        // Fill the whole cap, then touch the oldest of our days — a
        // hit that an LRU policy would treat as a refresh.
        for seed in 0..DAY_CACHE_CAPACITY as u64 {
            profile(seed).build_shared(dt).unwrap();
        }
        let (_, touched) = profile(0).build_shared_traced(dt).unwrap();
        assert!(touched, "day 0 should still be resident right after the fill");
        // One more distinct day evicts the front of the queue — which
        // under FIFO is still day 0, its recent touch notwithstanding.
        profile(DAY_CACHE_CAPACITY as u64).build_shared(dt).unwrap();
        let (_, hit) = profile(0).build_shared_traced(dt).unwrap();
        assert!(!hit, "a hit refreshed day 0's position — FIFO became LRU");
    }

    fn test_profile(seed: u64) -> DayProfile {
        DayProfile::new(Weather::PartialSun, seed)
            .with_span(Seconds::from_hours(12.0), Seconds::from_hours(12.25))
    }

    #[test]
    fn concurrent_requests_for_one_day_render_it_once() {
        // Four threads ask for the same never-built day at once. Each
        // render announces itself and waits for a second render of the
        // day to begin: a memo that let racing requests render their
        // own copies would see one start at once. All requests must
        // share the one render instead.
        use std::sync::{Barrier, Condvar};
        use std::time::Duration;
        let profile = test_profile(0x5A3E_0000);
        let dt = Seconds::new(30.0);
        let renders = (Mutex::new(0usize), Condvar::new());
        let barrier = Barrier::new(4);
        let results: Vec<(Arc<IrradianceTrace>, bool)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        memoise(profile.cache_key(dt), || {
                            let (count, started) = &renders;
                            *count.lock().unwrap() += 1;
                            started.notify_all();
                            let wait = Duration::from_millis(250);
                            let _ = started
                                .wait_timeout_while(count.lock().unwrap(), wait, |n| *n < 2)
                                .unwrap();
                            profile.build(dt)
                        })
                        .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(*renders.0.lock().unwrap(), 1, "racing requests rendered the day twice");
        assert_eq!(results.iter().filter(|(_, hit)| !hit).count(), 1);
        assert!(results.iter().all(|(t, _)| Arc::ptr_eq(t, &results[0].0)));
        assert_eq!(*results[0].0, profile.build(dt).unwrap());
    }

    #[test]
    fn distinct_days_render_in_parallel() {
        // Each render waits for the *other* day's render to have
        // started. If the memo held one lock across renders, the second
        // could never start and the first would time out — so a pass
        // proves distinct days are not serialized.
        use std::sync::mpsc;
        use std::time::Duration;
        let dt = Seconds::new(30.0);
        let (a, b) = (test_profile(0x5A3E_0001), test_profile(0x5A3E_0002));
        let (tx_a, rx_a) = mpsc::channel();
        let (tx_b, rx_b) = mpsc::channel();
        let render = |profile: &DayProfile, started: mpsc::Sender<()>, other: mpsc::Receiver<()>| {
            let (_, hit) = memoise(profile.cache_key(dt), || {
                started.send(()).unwrap();
                assert!(
                    other.recv_timeout(Duration::from_secs(10)).is_ok(),
                    "other day's render never started: renders are serialized"
                );
                profile.build(dt)
            })
            .unwrap();
            assert!(!hit);
        };
        std::thread::scope(|scope| {
            scope.spawn(|| render(&a, tx_a, rx_b));
            scope.spawn(|| render(&b, tx_b, rx_a));
        });
    }

    #[test]
    fn failed_renders_are_not_memoised() {
        let profile = test_profile(0x5A3E_0003);
        let dt = Seconds::new(30.0);
        let err = memoise(profile.cache_key(dt), || {
            Err(HarvestError::InvalidParameter("synthetic failure"))
        });
        assert!(err.is_err());
        // The day stays renderable, and the retry renders afresh.
        let (first, hit) = profile.build_shared_traced(dt).unwrap();
        assert!(!hit, "a failed render left a trace behind");
        let (again, hit) = profile.build_shared_traced(dt).unwrap();
        assert!(hit && Arc::ptr_eq(&first, &again));
    }

    #[test]
    fn custom_sky_is_honoured() {
        let weak = ClearSky::paper_test_day().unwrap();
        let trace = DayProfile::new(Weather::FullSun, 1)
            .with_sky(weak)
            .with_span(Seconds::from_hours(12.0), Seconds::from_hours(14.0))
            .build(Seconds::new(30.0))
            .unwrap();
        // The paper-test-day sky is clearly weaker than the 1000 W/m²
        // temperate default.
        assert!(trace.peak().value() < 700.0);
        assert!(trace.peak() <= weak.peak());
    }
}
