//! Recorded simulation traces.
//!
//! A [`Recorder`] stores one time column plus one value column per
//! traced quantity — ten `f64` per snapshot. Each accessor returns a
//! borrowed [`SeriesView`] pairing the shared time column with that
//! quantity's values, so no timestamp is stored twice. When a run
//! finishes the engine releases every column's spare capacity of a
//! page or more, so a finished report holds what it recorded plus less
//! than 4 KiB per column.

use pn_analysis::series::SeriesView;
use pn_units::{Seconds, Volts, Watts};

/// Spare capacity, in samples, from which a finished column is trimmed:
/// 512 `f64` is one 4 KiB page. A shorter tail cannot lower the resident
/// set, and reallocating it only fragments the heap (trimming every
/// column raised `campaign_sweep`'s peak RSS by 7 %, with its
/// reports of a few hundred snapshots).
const TRIM_SLACK: usize = 512;

/// One snapshot of the system state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Snapshot {
    /// Simulation time.
    pub t: Seconds,
    /// Buffer-capacitor voltage.
    pub vc: Volts,
    /// Clock frequency in GHz.
    pub frequency_ghz: f64,
    /// Online LITTLE cores.
    pub little_cores: u8,
    /// Online big cores.
    pub big_cores: u8,
    /// Power drawn by the board (+ monitor).
    pub power_out: Watts,
    /// Power sourced by the harvester at the present operating point.
    pub power_in: Watts,
    /// Current `Vhigh` threshold (0 for non-interrupt governors).
    pub v_high: Volts,
    /// Current `Vlow` threshold (0 for non-interrupt governors).
    pub v_low: Volts,
}

/// Column store for every traced quantity.
///
/// Snapshots arriving at non-increasing times (e.g. an event snapshot
/// at the same instant as a grid snapshot) are silently dropped — the
/// first snapshot at an instant wins.
///
/// Recorders compare by value (every column, sample for sample), which
/// is what the golden-trace determinism tests rely on.
#[derive(Debug, Clone, PartialEq)]
pub struct Recorder {
    times: Vec<f64>,
    vc: Vec<f64>,
    frequency_ghz: Vec<f64>,
    little_cores: Vec<f64>,
    big_cores: Vec<f64>,
    total_cores: Vec<f64>,
    power_out: Vec<f64>,
    power_in: Vec<f64>,
    v_high: Vec<f64>,
    v_low: Vec<f64>,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty recorder with room for `capacity` snapshots in
    /// every column. The engine sizes this from
    /// `(t_end − t_start) / record_dt`, so grid snapshots append
    /// without reallocating mid-simulation.
    pub fn with_capacity(capacity: usize) -> Self {
        let column = || Vec::with_capacity(capacity);
        Self {
            times: column(),
            vc: column(),
            frequency_ghz: column(),
            little_cores: column(),
            big_cores: column(),
            total_cores: column(),
            power_out: column(),
            power_in: column(),
            v_high: column(),
            v_low: column(),
        }
    }

    /// Records a snapshot.
    pub fn record(&mut self, s: &Snapshot) {
        let t = s.t.value();
        if self.times.last().is_some_and(|&last| t <= last) {
            return;
        }
        self.times.push(t);
        self.vc.push(s.vc.value());
        self.frequency_ghz.push(s.frequency_ghz);
        self.little_cores.push(f64::from(s.little_cores));
        self.big_cores.push(f64::from(s.big_cores));
        self.total_cores.push(f64::from(s.little_cores + s.big_cores));
        self.power_out.push(s.power_out.value());
        self.power_in.push(s.power_in.value());
        self.v_high.push(s.v_high.value());
        self.v_low.push(s.v_low.value());
    }

    /// Releases each column's spare capacity of [`TRIM_SLACK`] samples
    /// or more; the engine calls this once a run has taken its last
    /// snapshot.
    pub(crate) fn trim(&mut self) {
        for column in self.columns_mut() {
            if column.capacity() - column.len() >= TRIM_SLACK {
                column.shrink_to_fit();
            }
        }
    }

    fn columns_mut(&mut self) -> [&mut Vec<f64>; 10] {
        [
            &mut self.times,
            &mut self.vc,
            &mut self.frequency_ghz,
            &mut self.little_cores,
            &mut self.big_cores,
            &mut self.total_cores,
            &mut self.power_out,
            &mut self.power_in,
            &mut self.v_high,
            &mut self.v_low,
        ]
    }

    /// Number of recorded snapshots.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    fn series<'a>(&'a self, name: &'a str, values: &'a [f64]) -> SeriesView<'a> {
        SeriesView::new(name, &self.times, values)
    }

    /// The `VC` trace.
    pub fn vc(&self) -> SeriesView<'_> {
        self.series("vc", &self.vc)
    }

    /// The clock-frequency trace (GHz).
    pub fn frequency_ghz(&self) -> SeriesView<'_> {
        self.series("frequency_ghz", &self.frequency_ghz)
    }

    /// The online-LITTLE-core trace.
    pub fn little_cores(&self) -> SeriesView<'_> {
        self.series("little_cores", &self.little_cores)
    }

    /// The online-big-core trace.
    pub fn big_cores(&self) -> SeriesView<'_> {
        self.series("big_cores", &self.big_cores)
    }

    /// The total-online-core trace.
    pub fn total_cores(&self) -> SeriesView<'_> {
        self.series("total_cores", &self.total_cores)
    }

    /// The consumed-power trace.
    pub fn power_out(&self) -> SeriesView<'_> {
        self.series("power_out", &self.power_out)
    }

    /// The harvested-power trace.
    pub fn power_in(&self) -> SeriesView<'_> {
        self.series("power_in", &self.power_in)
    }

    /// The `Vhigh` threshold trace.
    pub fn v_high(&self) -> SeriesView<'_> {
        self.series("v_high", &self.v_high)
    }

    /// The `Vlow` threshold trace.
    pub fn v_low(&self) -> SeriesView<'_> {
        self.series("v_low", &self.v_low)
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pn_analysis::series::TimeSeries;
    use proptest::prelude::*;

    fn snap(t: f64, vc: f64) -> Snapshot {
        Snapshot {
            t: Seconds::new(t),
            vc: Volts::new(vc),
            frequency_ghz: 1.4,
            little_cores: 4,
            big_cores: 2,
            power_out: Watts::new(4.0),
            power_in: Watts::new(3.5),
            v_high: Volts::new(5.4),
            v_low: Volts::new(5.2),
        }
    }

    /// Every accessor of `r`, in declaration order.
    fn views(r: &Recorder) -> [SeriesView<'_>; 9] {
        [
            r.vc(),
            r.frequency_ghz(),
            r.little_cores(),
            r.big_cores(),
            r.total_cores(),
            r.power_out(),
            r.power_in(),
            r.v_high(),
            r.v_low(),
        ]
    }

    #[test]
    fn records_all_series() {
        let mut r = Recorder::new();
        r.record(&snap(0.0, 5.3));
        r.record(&snap(1.0, 5.25));
        assert_eq!(r.len(), 2);
        assert_eq!(r.total_cores().values()[0], 6.0);
        assert_eq!(r.power_in().values()[1], 3.5);
    }

    #[test]
    fn preallocated_recorder_is_behaviourally_identical() {
        let mut plain = Recorder::new();
        let mut sized = Recorder::with_capacity(64);
        for k in 0..5 {
            plain.record(&snap(f64::from(k), 5.3));
            sized.record(&snap(f64::from(k), 5.3));
        }
        assert_eq!(plain, sized, "capacity is a hint, not a behaviour change");
    }

    #[test]
    fn duplicate_instants_are_dropped() {
        let mut r = Recorder::new();
        r.record(&snap(0.0, 5.3));
        r.record(&snap(0.0, 9.9));
        assert_eq!(r.len(), 1);
        assert_eq!(r.vc().values()[0], 5.3);
    }

    #[test]
    fn trim_releases_page_sized_slack_only() {
        for (capacity, trimmed) in [(5 + TRIM_SLACK, 5), (4 + TRIM_SLACK, 4 + TRIM_SLACK)] {
            let mut r = Recorder::with_capacity(capacity);
            for k in 0..5 {
                r.record(&snap(f64::from(k), 5.3));
            }
            r.trim();
            for column in r.columns_mut() {
                assert_eq!(column.len(), 5);
                assert_eq!(column.capacity(), trimmed, "capacity {capacity}");
            }
        }
    }

    #[test]
    fn equality_compares_every_column() {
        let base = snap(0.0, 5.3);
        let variants = [
            Snapshot { t: Seconds::new(0.5), ..base },
            Snapshot { vc: Volts::new(5.0), ..base },
            Snapshot { frequency_ghz: 0.2, ..base },
            Snapshot { little_cores: 1, ..base },
            Snapshot { big_cores: 0, ..base },
            Snapshot { power_out: Watts::new(1.0), ..base },
            Snapshot { power_in: Watts::new(1.0), ..base },
            Snapshot { v_high: Volts::new(6.0), ..base },
            Snapshot { v_low: Volts::new(4.0), ..base },
        ];
        let mut reference = Recorder::new();
        reference.record(&base);
        for variant in variants {
            let mut other = Recorder::new();
            other.record(&variant);
            assert_ne!(reference, other, "{variant:?} compared equal");
        }
    }

    proptest! {
        /// The shared-time-column store reads back exactly what nine
        /// independent series, each dropping stale instants, would
        /// hold — including across equal and earlier instants.
        #[test]
        fn columns_match_independent_series(ops in proptest::collection::vec(0u32..1 << 20, 0..120)) {
            let names = [
                "vc", "frequency_ghz", "little_cores", "big_cores", "total_cores",
                "power_out", "power_in", "v_high", "v_low",
            ];
            let mut expected = names.map(TimeSeries::new);
            let mut recorder = Recorder::new();
            let mut t = 0.0;
            for op in ops {
                // One op in four repeats the last instant, one steps
                // back, the rest step forward.
                t += match op % 4 {
                    0 => 0.0,
                    1 => -0.25,
                    _ => 0.125 * f64::from(op % 7 + 1),
                };
                let little = (op >> 3 & 3) as u8 + 1;
                let big = (op >> 5 & 3) as u8;
                let x = f64::from(op >> 7);
                let s = Snapshot {
                    t: Seconds::new(t),
                    vc: Volts::new(4.0 + x * 1e-4),
                    frequency_ghz: 0.2 * f64::from(op % 10),
                    little_cores: little,
                    big_cores: big,
                    power_out: Watts::new(x * 1e-3),
                    power_in: Watts::new(x * 2e-3 - 1.0),
                    v_high: Volts::new(5.0 + x * 1e-5),
                    v_low: Volts::new(5.0 - x * 1e-5),
                };
                recorder.record(&s);
                let values = [
                    s.vc.value(),
                    s.frequency_ghz,
                    f64::from(little),
                    f64::from(big),
                    f64::from(little + big),
                    s.power_out.value(),
                    s.power_in.value(),
                    s.v_high.value(),
                    s.v_low.value(),
                ];
                for (series, value) in expected.iter_mut().zip(values) {
                    let _ = series.push(t, value);
                }
            }
            prop_assert_eq!(recorder.len(), expected[0].len());
            for (view, series) in views(&recorder).into_iter().zip(&expected) {
                prop_assert_eq!(view, series.as_series());
            }
        }
    }
}
