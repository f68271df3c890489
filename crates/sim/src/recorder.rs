//! Recorded simulation traces.
//!
//! A [`Recorder`] stores one time column plus one column per traced
//! quantity, each as narrow as its values allow. `VC` and the harvested
//! power vary continuously and stay `f64`. The core counts are `u8`,
//! and their total is computed on read. Frequency, board power and the
//! two thresholds are step functions with a few hundred distinct values
//! at most: each sample is a one-byte code into that column's palette
//! of distinct values, and the 257th distinct value widens the column
//! to plain `f64`. A snapshot costs 30 bytes instead of 80.
//!
//! Each accessor returns a borrowed [`SeriesView`] pairing the shared
//! time column with that quantity's `f64` values, so no timestamp is
//! stored twice. A narrow column is expanded to `f64` on its first read
//! and kept until the next [`Recorder::record`]; a run that is never
//! read never pays for the expansion. When a run finishes the engine
//! releases every vector's spare capacity of a page or more, so a
//! finished report holds what it recorded plus less than 4 KiB per
//! vector.

use std::mem;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use pn_analysis::series::SeriesView;
use pn_units::{Seconds, Volts, Watts};

/// Spare capacity, in bytes, from which a finished vector is trimmed:
/// one 4 KiB page, 512 `f64` or 4096 one-byte codes. A shorter tail
/// cannot lower the resident set, and reallocating it only fragments
/// the heap (trimming every column raised `campaign_sweep`'s peak RSS
/// by 7 %, with its reports of a few hundred snapshots).
const TRIM_SLACK: usize = 4096;

/// Distinct values a step column codes in one byte before it widens.
const PALETTE_MAX: usize = 256;

/// Slots of a step column's lookup table, indexed by the top bits of a
/// multiplicative hash of a value's bits.
const SLOTS: usize = 64;

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
/// Recorders compare by value (every quantity, sample for sample, with
/// `f64 ==`), which is what the golden-trace determinism tests rely on.
#[derive(Debug, Clone)]
pub struct Recorder {
    times: Vec<f64>,
    vc: Vec<f64>,
    power_in: Vec<f64>,
    little_cores: Vec<u8>,
    big_cores: Vec<u8>,
    /// Frequency, board power, `Vhigh` and `Vlow`, indexed by
    /// [`FREQUENCY`], [`POWER_OUT`], [`V_HIGH`] and [`V_LOW`].
    steps: [StepColumn; 4],
    expansions: Expansions,
}

/// Indices of the step columns, and of their expansions.
const FREQUENCY: usize = 0;
const POWER_OUT: usize = 1;
const V_HIGH: usize = 2;
const V_LOW: usize = 3;
/// Indices of the core-count expansions.
const LITTLE: usize = 4;
const BIG: usize = 5;
const TOTAL: usize = 6;

/// A step-valued column: one-byte codes into the distinct values seen,
/// keyed by their bits (so `-0.0` and `0.0` keep their own), until a
/// value past [`PALETTE_MAX`] widens it to plain `f64`.
#[derive(Debug, Clone)]
enum StepColumn {
    Coded {
        palette: Vec<f64>,
        codes: Vec<u8>,
        /// Direct-mapped from a value's bits to the code last found for
        /// them; a slot whose code names another value is a miss. With
        /// it a Table II snapshot records as fast as into ten `f64`
        /// columns; scanning the palette per sample nearly doubled that.
        slots: [u8; SLOTS],
    },
    Plain(Vec<f64>),
}

impl StepColumn {
    fn with_capacity(capacity: usize) -> Self {
        Self::Coded { palette: Vec::new(), codes: Vec::with_capacity(capacity), slots: [0; SLOTS] }
    }

    #[inline]
    fn push(&mut self, x: f64) {
        let (palette, codes, slots) = match self {
            Self::Plain(values) => return values.push(x),
            Self::Coded { palette, codes, slots } => (palette, codes, slots),
        };
        let bits = x.to_bits();
        let hash = bits.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (u64::BITS - SLOTS.ilog2());
        let slot = &mut slots[hash as usize];
        match palette.get(usize::from(*slot)) {
            Some(p) if p.to_bits() == bits => {}
            _ => match code_of(palette, x) {
                Some(code) => *slot = code,
                None => return self.widen(x),
            },
        }
        codes.push(*slot);
    }

    /// Rewrites the coded samples as plain `f64` and appends `x`.
    #[cold]
    fn widen(&mut self, x: f64) {
        if let Self::Coded { palette, codes, .. } = self {
            let mut values = Vec::with_capacity(codes.capacity());
            values.extend(codes.iter().map(|&c| palette[usize::from(c)]));
            values.push(x);
            *self = Self::Plain(values);
        }
    }

    fn trim(&mut self) {
        match self {
            Self::Plain(values) => trim(values),
            Self::Coded { palette, codes, .. } => {
                trim(palette);
                trim(codes);
            }
        }
    }
}

/// The code of `x` in `palette`, adding it when new; `None` when the
/// palette is full.
#[cold]
fn code_of(palette: &mut Vec<f64>, x: f64) -> Option<u8> {
    let bits = x.to_bits();
    let code = match palette.iter().position(|p| p.to_bits() == bits) {
        Some(code) => code,
        None if palette.len() < PALETTE_MAX => {
            palette.push(x);
            palette.len() - 1
        }
        None => return None,
    };
    Some(code as u8)
}

/// Releases `column`'s spare capacity when it is [`TRIM_SLACK`] bytes
/// or more.
fn trim<T>(column: &mut Vec<T>) {
    if (column.capacity() - column.len()) * size_of::<T>() >= TRIM_SLACK {
        column.shrink_to_fit();
    }
}

/// `f64` expansions of the narrow columns, each built on its first
/// read and dropped by the next record.
#[derive(Debug, Default)]
struct Expansions {
    columns: [OnceLock<Vec<f64>>; 7],
    /// Set when any column is built, so a record tests one flag rather
    /// than every column. It publishes nothing: `clear` holds `&mut`.
    built: AtomicBool,
}

impl Expansions {
    fn get(&self, column: usize, build: impl FnOnce() -> Vec<f64>) -> &[f64] {
        self.columns[column].get_or_init(|| {
            self.built.store(true, Ordering::Relaxed);
            build()
        })
    }

    fn clear(&mut self) {
        if mem::take(self.built.get_mut()) {
            *self = Self::default();
        }
    }
}

impl Clone for Expansions {
    /// A clone starts unexpanded and builds what it reads.
    fn clone(&self) -> Self {
        Self::default()
    }
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
        Self {
            times: Vec::with_capacity(capacity),
            vc: Vec::with_capacity(capacity),
            power_in: Vec::with_capacity(capacity),
            little_cores: Vec::with_capacity(capacity),
            big_cores: Vec::with_capacity(capacity),
            steps: std::array::from_fn(|_| StepColumn::with_capacity(capacity)),
            expansions: Expansions::default(),
        }
    }

    /// Records a snapshot.
    pub fn record(&mut self, s: &Snapshot) {
        let t = s.t.value();
        if self.times.last().is_some_and(|&last| t <= last) {
            return;
        }
        self.expansions.clear();
        self.times.push(t);
        self.vc.push(s.vc.value());
        self.power_in.push(s.power_in.value());
        self.little_cores.push(s.little_cores);
        self.big_cores.push(s.big_cores);
        let steps = [s.frequency_ghz, s.power_out.value(), s.v_high.value(), s.v_low.value()];
        for (column, x) in self.steps.iter_mut().zip(steps) {
            column.push(x);
        }
    }

    /// Releases each vector's spare capacity of [`TRIM_SLACK`] bytes or
    /// more; the engine calls this once a run has taken its last
    /// snapshot.
    pub(crate) fn trim(&mut self) {
        for column in [&mut self.times, &mut self.vc, &mut self.power_in] {
            trim(column);
        }
        trim(&mut self.little_cores);
        trim(&mut self.big_cores);
        for column in &mut self.steps {
            column.trim();
        }
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

    /// The values of step column `index`.
    fn step_values(&self, index: usize) -> &[f64] {
        match &self.steps[index] {
            StepColumn::Plain(values) => values,
            StepColumn::Coded { palette, codes, .. } => self
                .expansions
                .get(index, || codes.iter().map(|&c| palette[usize::from(c)]).collect()),
        }
    }

    /// Core-count expansion `index`, built by `count` per sample.
    fn core_values(&self, index: usize, count: impl Fn(usize) -> f64) -> &[f64] {
        self.expansions.get(index, || (0..self.len()).map(count).collect())
    }

    /// The `VC` trace.
    pub fn vc(&self) -> SeriesView<'_> {
        self.series("vc", &self.vc)
    }

    /// The clock-frequency trace (GHz).
    pub fn frequency_ghz(&self) -> SeriesView<'_> {
        self.series("frequency_ghz", self.step_values(FREQUENCY))
    }

    /// The online-LITTLE-core trace.
    pub fn little_cores(&self) -> SeriesView<'_> {
        self.series("little_cores", self.core_values(LITTLE, |i| f64::from(self.little_cores[i])))
    }

    /// The online-big-core trace.
    pub fn big_cores(&self) -> SeriesView<'_> {
        self.series("big_cores", self.core_values(BIG, |i| f64::from(self.big_cores[i])))
    }

    /// The total-online-core trace.
    pub fn total_cores(&self) -> SeriesView<'_> {
        let total = |i| f64::from(self.little_cores[i]) + f64::from(self.big_cores[i]);
        self.series("total_cores", self.core_values(TOTAL, total))
    }

    /// The consumed-power trace.
    pub fn power_out(&self) -> SeriesView<'_> {
        self.series("power_out", self.step_values(POWER_OUT))
    }

    /// The harvested-power trace.
    pub fn power_in(&self) -> SeriesView<'_> {
        self.series("power_in", &self.power_in)
    }

    /// The `Vhigh` threshold trace.
    pub fn v_high(&self) -> SeriesView<'_> {
        self.series("v_high", self.step_values(V_HIGH))
    }

    /// The `Vlow` threshold trace.
    pub fn v_low(&self) -> SeriesView<'_> {
        self.series("v_low", self.step_values(V_LOW))
    }
}

impl PartialEq for Recorder {
    /// Compares every quantity's values, as a store of `f64` columns
    /// would; the storage format and the expansions play no part.
    fn eq(&self, other: &Self) -> bool {
        self.times == other.times
            && self.vc == other.vc
            && self.power_in == other.power_in
            && self.little_cores == other.little_cores
            && self.big_cores == other.big_cores
            && (0..self.steps.len()).all(|i| self.step_values(i) == other.step_values(i))
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
impl Recorder {
    /// `(len, capacity, bytes per element)` of every per-sample vector.
    fn sample_vectors(&self) -> Vec<(usize, usize, usize)> {
        fn shape<T>(v: &Vec<T>) -> (usize, usize, usize) {
            (v.len(), v.capacity(), size_of::<T>())
        }
        let mut shapes = vec![shape(&self.times), shape(&self.vc), shape(&self.power_in)];
        shapes.extend([shape(&self.little_cores), shape(&self.big_cores)]);
        shapes.extend(self.steps.iter().map(|column| match column {
            StepColumn::Plain(values) => shape(values),
            StepColumn::Coded { codes, .. } => shape(codes),
        }));
        shapes
    }

    /// Heap bytes held by the palettes and the expansions.
    fn side_bytes(&self) -> usize {
        let f64s = |v: &Vec<f64>| v.capacity() * size_of::<f64>();
        let palettes = self.steps.iter().filter_map(|column| match column {
            StepColumn::Coded { palette, .. } => Some(palette),
            StepColumn::Plain(_) => None,
        });
        let expansions = self.expansions.columns.iter().filter_map(OnceLock::get);
        palettes.chain(expansions).map(f64s).sum()
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
    fn recorders_are_shareable_values() {
        fn check<T: Clone + std::fmt::Debug + Send + Sync>() {}
        check::<Recorder>();
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
        // Slack of a page or more goes, in bytes: 512 spare samples
        // trim an `f64` column but not a one-byte one.
        for slack in [511, 512, 4095, 4096] {
            let mut r = Recorder::with_capacity(5 + slack);
            for k in 0..5 {
                r.record(&snap(f64::from(k), 5.3));
            }
            r.trim();
            for (len, capacity, width) in r.sample_vectors() {
                assert_eq!(len, 5);
                let trimmed = slack * width >= TRIM_SLACK;
                let expected = if trimmed { 5 } else { 5 + slack };
                assert_eq!(capacity, expected, "slack {slack}, width {width}");
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
            Snapshot { little_cores: 2, big_cores: 4, ..base },
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

    #[test]
    fn signed_zeros_read_back_with_their_own_bits() {
        let zeros = [0.0, -0.0, 0.0, -0.0];
        let mut r = Recorder::new();
        for (k, &z) in zeros.iter().enumerate() {
            r.record(&Snapshot {
                frequency_ghz: z,
                power_out: Watts::new(z),
                v_high: Volts::new(z),
                v_low: Volts::new(z),
                ..snap(k as f64, 5.3)
            });
        }
        let bits = zeros.map(f64::to_bits);
        for view in [r.frequency_ghz(), r.power_out(), r.v_high(), r.v_low()] {
            assert!(view.values().iter().map(|x| x.to_bits()).eq(bits), "{view:?}");
        }
        // Equality stays `f64 ==`, under which the zeros are equal.
        let mut positive = Recorder::new();
        for k in 0..zeros.len() {
            positive.record(&Snapshot {
                frequency_ghz: 0.0,
                power_out: Watts::new(0.0),
                v_high: Volts::new(0.0),
                v_low: Volts::new(0.0),
                ..snap(k as f64, 5.3)
            });
        }
        assert_eq!(r, positive);
    }

    #[test]
    fn a_257th_distinct_value_widens_the_column() {
        let mut r = Recorder::new();
        for k in 0..300 {
            r.record(&Snapshot {
                power_out: Watts::new(f64::from(k) * 0.01),
                ..snap(f64::from(k), 5.3)
            });
        }
        let widths: Vec<usize> = r.sample_vectors().iter().map(|&(_, _, width)| width).collect();
        assert_eq!(widths, [8, 8, 8, 1, 1, 1, 8, 1, 1], "only power_out widens");
        let expected: Vec<f64> = (0..300).map(|k| f64::from(k) * 0.01).collect();
        assert_eq!(r.power_out().values(), expected);
    }

    #[test]
    fn a_step_valued_snapshot_costs_thirty_bytes() {
        const N: usize = 10_000;
        let mut r = Recorder::with_capacity(N);
        for k in 0..N {
            let step = (k % 256) as f64;
            r.record(&Snapshot {
                vc: Volts::new(5.0 + k as f64 * 1e-6),
                power_in: Watts::new(k as f64 * 1e-3),
                frequency_ghz: step * 0.01,
                little_cores: (k % 5) as u8,
                big_cores: (k % 3) as u8,
                power_out: Watts::new(step * 0.1),
                v_high: Volts::new(5.3 + step * 1e-3),
                v_low: Volts::new(5.3 - step * 1e-3),
                ..snap(k as f64, 5.3)
            });
        }
        r.trim();
        let samples: usize = r.sample_vectors().iter().map(|&(_, cap, width)| cap * width).sum();
        assert_eq!(samples, 30 * N, "3 f64 + 2 core counts + 4 codes per snapshot");
        assert_eq!(r.side_bytes(), 4 * PALETTE_MAX * size_of::<f64>(), "palettes only");
        // Reading expands only the columns read, each once.
        let _ = (r.power_out(), r.total_cores(), r.power_out());
        let expanded = 2 * N * size_of::<f64>();
        assert_eq!(r.side_bytes(), 4 * PALETTE_MAX * size_of::<f64>() + expanded);
    }

    proptest! {
        /// The shared-time-column store reads back exactly what nine
        /// independent series, each dropping stale instants, would
        /// hold — across equal and earlier instants, across a step
        /// column widening past 256 distinct values, and when read
        /// between records.
        #[test]
        fn columns_match_independent_series(
            ops in proptest::collection::vec(0u32..1 << 20, 0..1200),
            wide in proptest::bool::ANY,
        ) {
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
                // Nearly every `wide` op draws a new board power.
                let out = if wide { f64::from(op) } else { f64::from(op >> 7 & 63) };
                let s = Snapshot {
                    t: Seconds::new(t),
                    vc: Volts::new(4.0 + x * 1e-4),
                    frequency_ghz: 0.2 * f64::from(op % 10),
                    little_cores: little,
                    big_cores: big,
                    power_out: Watts::new(out * 1e-3),
                    power_in: Watts::new(x * 2e-3 - 1.0),
                    v_high: Volts::new(5.0 + f64::from(op >> 7 & 127) * 1e-5),
                    v_low: Volts::new(5.0 - f64::from(op >> 9 & 127) * 1e-5),
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
                // One op in eight reads every column mid-recording.
                if op >> 12 & 7 == 0 {
                    for (view, series) in views(&recorder).into_iter().zip(&expected) {
                        prop_assert_eq!(view, series.as_series());
                    }
                }
            }
            prop_assert_eq!(recorder.len(), expected[0].as_series().len());
            for (view, series) in views(&recorder).into_iter().zip(&expected) {
                prop_assert_eq!(view, series.as_series());
            }
        }
    }
}
