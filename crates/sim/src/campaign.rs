//! Batch campaigns: a cartesian scenario matrix simulated in parallel.
//!
//! The paper evaluates its governor on a handful of hand-picked
//! conditions. A [`CampaignSpec`] instead enumerates a full
//! (weather × seed × buffer × governor × control-params) matrix of
//! [`CampaignCell`]s, [`run_campaign`] evaluates every cell on the
//! shared-counter [`Executor`], and
//! the aggregated [`CampaignReport`] answers fleet-level questions —
//! brownout counts, `VC` stability and work done per weather condition
//! or per governor — rather than single-trace ones.
//!
//! Campaigns are deterministic: cells are enumerated in a fixed order,
//! every cell is seeded, and the executor returns results in item
//! order, so a report is bitwise-identical across repeated runs and
//! across thread counts.
//!
//! A result is identified by its matrix index alone — its position in
//! [`CampaignSpec::cells`]. A shard is an index range
//! ([`CampaignSpec::shard`]), [`run_cells`] runs any range into a
//! report positioned at its first index, [`CampaignReport::merge`]
//! recomposes reports by position, and [`resume_campaign`] simulates
//! only the indices no saved report covers.
//!
//! Besides its axis values, every cell carries the two engine options
//! a spec sets for the whole matrix, resolved: its supply model and
//! its idle flag ([`CampaignSpec::with_supply_model`],
//! [`CampaignSpec::with_idle`]). Two cells therefore compare equal
//! exactly when they simulate the same scenario.
//!
//! # Examples
//!
//! ```
//! use pn_sim::campaign::{run_campaign, CampaignSpec};
//! use pn_sim::executor::Executor;
//!
//! # fn main() -> Result<(), pn_sim::SimError> {
//! let spec = CampaignSpec::smoke();
//! let report = run_campaign(&spec, &Executor::sequential())?;
//! assert_eq!(report.len(), spec.cell_count());
//! # Ok(())
//! # }
//! ```

use crate::engine::SimReport;
use crate::executor::Executor;
use crate::scenario::{self, Scenario};
use crate::supply::SupplyModel;
use crate::SimError;
use pn_analysis::summary::Aggregate;
use pn_circuit::capacitor::Supercapacitor;
use pn_core::params::ControlParams;
use pn_governors::{
    BudgetShift, Conservative, Interactive, Ondemand, Performance, Powersave, RaceToIdle,
    Userspace,
};
use pn_harvest::faults::FaultSpec;
use pn_harvest::weather::Weather;
use pn_soc::cores::CoreConfig;
use pn_soc::opp::Opp;
use pn_soc::thermal::ThermalSpec;
use pn_units::{Farads, Ohms, Seconds};
use pn_workload::arrival::ArrivalSpec;
use std::ops::Range;
use std::sync::Arc;

/// Which power-management policy drives a campaign cell.
///
/// Cells must be enumerable up front and shipped across worker
/// threads, so governors are described by value here and instantiated
/// inside the worker that runs the cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GovernorSpec {
    /// The paper's threshold-interrupt-driven power-neutral governor
    /// (uses the cell's [`ControlParams`]).
    PowerNeutral,
    /// Linux `performance`: pin the maximum frequency.
    Performance,
    /// Linux `powersave`: pin the minimum frequency.
    Powersave,
    /// Linux `userspace` pinned to a frequency-level index.
    Userspace(usize),
    /// Linux `ondemand` load sampling.
    Ondemand,
    /// Linux `conservative` gradual stepping.
    Conservative,
    /// Android-style `interactive` bursting.
    Interactive,
    /// Sprint at the top frequency, park in the deepest idle state
    /// when the buffer sags (classic race-to-idle DPM).
    RaceToIdle,
    /// Reallocate one shared watt budget between the LITTLE and big
    /// domains every sampling period (SysScale-style).
    BudgetShift,
    /// No management at all: hold the given OPP (the "static"
    /// comparator).
    Hold(Opp),
}

impl GovernorSpec {
    /// Scheme label used in reports (matches `SimReport::governor`
    /// names).
    pub fn label(&self) -> String {
        match self {
            GovernorSpec::PowerNeutral => "power-neutral".into(),
            GovernorSpec::Performance => "performance".into(),
            GovernorSpec::Powersave => "powersave".into(),
            GovernorSpec::Userspace(level) => format!("userspace@{level}"),
            GovernorSpec::Ondemand => "ondemand".into(),
            GovernorSpec::Conservative => "conservative".into(),
            GovernorSpec::Interactive => "interactive".into(),
            GovernorSpec::RaceToIdle => "race-to-idle".into(),
            GovernorSpec::BudgetShift => "budget-shift".into(),
            GovernorSpec::Hold(_) => "static".into(),
        }
    }

    /// Stable, lossless machine token for persistence (unlike
    /// [`GovernorSpec::label`], which collapses every `Hold` to
    /// `"static"`). Round-trips through [`GovernorSpec::from_slug`].
    pub fn slug(&self) -> String {
        match self {
            GovernorSpec::PowerNeutral => "power-neutral".into(),
            GovernorSpec::Performance => "performance".into(),
            GovernorSpec::Powersave => "powersave".into(),
            GovernorSpec::Userspace(level) => format!("userspace:{level}"),
            GovernorSpec::Ondemand => "ondemand".into(),
            GovernorSpec::Conservative => "conservative".into(),
            GovernorSpec::Interactive => "interactive".into(),
            GovernorSpec::RaceToIdle => "race-to-idle".into(),
            GovernorSpec::BudgetShift => "budget-shift".into(),
            GovernorSpec::Hold(opp) => {
                format!("hold:{}+{}@{}", opp.config().little(), opp.config().big(), opp.level())
            }
        }
    }

    /// Parses a [`GovernorSpec::slug`] token.
    pub fn from_slug(slug: &str) -> Option<GovernorSpec> {
        match slug {
            "power-neutral" => return Some(GovernorSpec::PowerNeutral),
            "performance" => return Some(GovernorSpec::Performance),
            "powersave" => return Some(GovernorSpec::Powersave),
            "ondemand" => return Some(GovernorSpec::Ondemand),
            "conservative" => return Some(GovernorSpec::Conservative),
            "interactive" => return Some(GovernorSpec::Interactive),
            "race-to-idle" => return Some(GovernorSpec::RaceToIdle),
            "budget-shift" => return Some(GovernorSpec::BudgetShift),
            _ => {}
        }
        if let Some(level) = slug.strip_prefix("userspace:") {
            return level.parse().ok().map(GovernorSpec::Userspace);
        }
        let rest = slug.strip_prefix("hold:")?;
        let (cores, level) = rest.split_once('@')?;
        let (little, big) = cores.split_once('+')?;
        let config = CoreConfig::new(little.parse().ok()?, big.parse().ok()?).ok()?;
        Some(GovernorSpec::Hold(Opp::new(config, level.parse().ok()?)))
    }

    /// Runs `scenario` under this policy.
    ///
    /// # Errors
    ///
    /// Propagates engine failures.
    pub fn run(&self, scenario: &Scenario) -> Result<SimReport, SimError> {
        let table = scenario.platform().frequencies();
        match self {
            GovernorSpec::PowerNeutral => scenario.run_power_neutral(),
            GovernorSpec::Performance => scenario.run_governor(Box::new(Performance::new())),
            GovernorSpec::Powersave => scenario.run_governor(Box::new(Powersave::new())),
            GovernorSpec::Userspace(level) => {
                scenario.run_governor(Box::new(Userspace::pinned(*level)))
            }
            GovernorSpec::Ondemand => scenario.run_governor(Box::new(Ondemand::new(table.clone()))),
            GovernorSpec::Conservative => {
                scenario.run_governor(Box::new(Conservative::new(table.clone())))
            }
            GovernorSpec::Interactive => {
                scenario.run_governor(Box::new(Interactive::new(table.clone())))
            }
            GovernorSpec::RaceToIdle => scenario.run_governor(Box::new(RaceToIdle::new())),
            GovernorSpec::BudgetShift => {
                scenario.run_governor(Box::new(BudgetShift::for_platform(scenario.platform())))
            }
            GovernorSpec::Hold(opp) => scenario.run_static(*opp),
        }
    }
}

/// A cartesian scenario matrix.
///
/// Each axis is a list; [`CampaignSpec::cells`] enumerates the full
/// product in a fixed (weather-major, params-minor) order.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Day-profile weather conditions.
    pub weathers: Vec<Weather>,
    /// RNG seeds for the cloud field (one full day each).
    pub seeds: Vec<u64>,
    /// Die thermal models (throttle/boost stress axis). The default
    /// single `Off` entry adds no cells and no thermal machinery.
    pub thermals: Vec<ThermalSpec>,
    /// Workload-arrival processes (stochastic demand stress axis). The
    /// default single `Saturated` entry reproduces the benchmark.
    pub arrivals: Vec<ArrivalSpec>,
    /// Harvester fault injections (shading/brown-out stress axis),
    /// composable with any weather. Defaults to a single `None`.
    pub faults: Vec<FaultSpec>,
    /// Buffer capacitances in millifarads (paper rig: 47 mF).
    pub buffers_mf: Vec<f64>,
    /// Policies to drive each scenario with.
    pub governors: Vec<GovernorSpec>,
    /// Control-parameter sets. Only power-neutral cells consume these,
    /// so the axis multiplies power-neutral cells only; baseline
    /// governors run once per (weather, seed, buffer) point under the
    /// first entry.
    pub params: Vec<ControlParams>,
    /// Simulated window per cell, measured from the day profile's
    /// start (10:30).
    pub duration: Seconds,
    /// How every cell evaluates the PV operating point (exact Newton
    /// or the interpolated surface). Defaults to `Exact`.
    pub supply_model: SupplyModel,
    /// Whether every cell honours governor idle (DPM) requests.
    /// Defaults to `true`.
    pub idle: bool,
}

impl CampaignSpec {
    /// A one-axis-each spec at the paper's operating point; extend the
    /// axes builder-style.
    ///
    /// # Errors
    ///
    /// Never fails for the preset constants.
    pub fn new() -> Result<Self, SimError> {
        Ok(Self {
            weathers: vec![Weather::FullSun],
            seeds: vec![1],
            thermals: vec![ThermalSpec::Off],
            arrivals: vec![ArrivalSpec::Saturated],
            faults: vec![FaultSpec::None],
            buffers_mf: vec![47.0],
            governors: vec![GovernorSpec::PowerNeutral],
            params: vec![ControlParams::paper_optimal()?],
            duration: Seconds::new(60.0),
            supply_model: SupplyModel::Exact,
            idle: true,
        })
    }

    /// The tiny 2×2 (weather × governor) smoke matrix used by CI.
    pub fn smoke() -> Self {
        let mut spec = Self::new().expect("paper preset valid");
        spec.weathers = vec![Weather::FullSun, Weather::Cloudy];
        spec.governors = vec![GovernorSpec::PowerNeutral, GovernorSpec::Powersave];
        spec.duration = Seconds::new(30.0);
        spec
    }

    /// A diverse 24-cell matrix: every weather condition × two buffer
    /// sizes × {power-neutral, powersave}.
    pub fn diverse() -> Self {
        let mut spec = Self::new().expect("paper preset valid");
        spec.weathers = Weather::all().to_vec();
        spec.buffers_mf = vec![47.0, 150.0];
        spec.governors = vec![GovernorSpec::PowerNeutral, GovernorSpec::Powersave];
        spec.duration = Seconds::new(45.0);
        spec
    }

    /// Replaces the weather axis (builder style).
    pub fn with_weathers(mut self, weathers: Vec<Weather>) -> Self {
        self.weathers = weathers;
        self
    }

    /// Replaces the seed axis (builder style).
    pub fn with_seeds(mut self, seeds: Vec<u64>) -> Self {
        self.seeds = seeds;
        self
    }

    /// Replaces the thermal-model axis (builder style).
    pub fn with_thermals(mut self, thermals: Vec<ThermalSpec>) -> Self {
        self.thermals = thermals;
        self
    }

    /// Replaces the workload-arrival axis (builder style).
    pub fn with_arrivals(mut self, arrivals: Vec<ArrivalSpec>) -> Self {
        self.arrivals = arrivals;
        self
    }

    /// Replaces the harvester-fault axis (builder style).
    pub fn with_faults(mut self, faults: Vec<FaultSpec>) -> Self {
        self.faults = faults;
        self
    }

    /// Replaces the buffer axis (builder style).
    pub fn with_buffers_mf(mut self, buffers_mf: Vec<f64>) -> Self {
        self.buffers_mf = buffers_mf;
        self
    }

    /// Replaces the governor axis (builder style).
    pub fn with_governors(mut self, governors: Vec<GovernorSpec>) -> Self {
        self.governors = governors;
        self
    }

    /// Replaces the control-parameter axis (builder style).
    pub fn with_params(mut self, params: Vec<ControlParams>) -> Self {
        self.params = params;
        self
    }

    /// Sets the per-cell simulated window (builder style).
    pub fn with_duration(mut self, duration: Seconds) -> Self {
        self.duration = duration;
        self
    }

    /// Selects the supply evaluation model for every cell (builder
    /// style).
    pub fn with_supply_model(mut self, model: SupplyModel) -> Self {
        self.supply_model = model;
        self
    }

    /// Enables or disables idle-state (DPM) requests for every cell
    /// (builder style). Disabling turns idle-capable governors into
    /// their always-on counterparts — useful for isolating how much of
    /// a verdict the idle ladder buys.
    pub fn with_idle(mut self, enabled: bool) -> Self {
        self.idle = enabled;
        self
    }

    /// Number of cells the matrix enumerates.
    ///
    /// Only the power-neutral governor consumes [`ControlParams`], so
    /// the params axis multiplies power-neutral cells only; every
    /// baseline governor contributes one cell per
    /// (weather, seed, buffer) point regardless of how many parameter
    /// sets are listed. A product too large for `usize` saturates to
    /// `usize::MAX` instead of wrapping.
    pub fn cell_count(&self) -> usize {
        if self.params.is_empty() {
            return 0;
        }
        let per_point: usize = self
            .governors
            .iter()
            .map(|g| if matches!(g, GovernorSpec::PowerNeutral) { self.params.len() } else { 1 })
            .sum();
        [
            self.weathers.len(),
            self.seeds.len(),
            self.thermals.len(),
            self.arrivals.len(),
            self.faults.len(),
            self.buffers_mf.len(),
        ]
        .into_iter()
        .fold(per_point, usize::saturating_mul)
    }

    /// Enumerates every cell of the matrix in a fixed order (see
    /// [`CampaignSpec::cell_count`] for how the params axis applies).
    pub fn cells(&self) -> Vec<CampaignCell> {
        let mut out = Vec::with_capacity(self.cell_count());
        let Some(first_params) = self.params.first() else { return out };
        // Stress axes nest inside (weather, seed) so every cell of one
        // rendered day stays contiguous: its day memo entry is reused by
        // neighbouring cells before FIFO eviction can reach it.
        for &weather in &self.weathers {
            for &seed in &self.seeds {
                for &thermal in &self.thermals {
                    for &arrival in &self.arrivals {
                        for &fault in &self.faults {
                            for &buffer_mf in &self.buffers_mf {
                                for &governor in &self.governors {
                                    let params_axis =
                                        if matches!(governor, GovernorSpec::PowerNeutral) {
                                            self.params.as_slice()
                                        } else {
                                            std::slice::from_ref(first_params)
                                        };
                                    for &params in params_axis {
                                        out.push(CampaignCell {
                                            weather,
                                            seed,
                                            thermal,
                                            arrival,
                                            fault,
                                            buffer_mf,
                                            governor,
                                            params,
                                            duration: self.duration,
                                            supply_model: self.supply_model,
                                            idle: self.idle,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Splits the matrix into `count` disjoint, contiguous shards that
    /// can run on separate machines. A shard is the range of matrix
    /// indices it covers into [`CampaignSpec::cells`]; run it with
    /// [`run_cells`], and merging the shard reports with
    /// [`CampaignReport::merge`] reproduces the unsharded run bitwise.
    ///
    /// Every cell lands in exactly one shard for any `count ≥ 1`
    /// (counts above the cell count yield trailing empty ranges, which
    /// run and merge as empty reports). `count == 0` is treated as 1.
    pub fn shard(&self, count: usize) -> Vec<Range<usize>> {
        let count = count.max(1);
        let n = self.cell_count();
        (0..count).map(|i| n * i / count..n * (i + 1) / count).collect()
    }
}

/// One fully resolved cell of the matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignCell {
    /// Weather condition of the day profile.
    pub weather: Weather,
    /// Cloud-field seed.
    pub seed: u64,
    /// Die thermal model for this cell.
    pub thermal: ThermalSpec,
    /// Workload-arrival process for this cell (seeded by `seed`).
    pub arrival: ArrivalSpec,
    /// Harvester fault injection applied to this cell's irradiance.
    pub fault: FaultSpec,
    /// Buffer capacitance in millifarads.
    pub buffer_mf: f64,
    /// Driving policy.
    pub governor: GovernorSpec,
    /// Control parameters (used by the power-neutral policy).
    pub params: ControlParams,
    /// Simulated window.
    pub duration: Seconds,
    /// Supply evaluation model — the token exported to campaign CSVs,
    /// so merged documents from mixed-model shards stay
    /// self-describing.
    pub supply_model: SupplyModel,
    /// Whether the cell honours governor idle (DPM) requests.
    pub idle: bool,
}

impl CampaignCell {
    /// Human-readable cell label. Stress axes appear only when they
    /// deviate from their defaults, so pre-stress labels are unchanged.
    pub fn label(&self) -> String {
        let mut label = format!(
            "{}/seed{}/{:.0}mF/{}",
            self.weather,
            self.seed,
            self.buffer_mf,
            self.governor.label()
        );
        if self.thermal != ThermalSpec::Off {
            label.push('/');
            label.push_str(&self.thermal.slug());
        }
        if self.arrival != ArrivalSpec::Saturated {
            label.push('/');
            label.push_str(&self.arrival.slug());
        }
        if self.fault != FaultSpec::None {
            label.push('/');
            label.push_str(&self.fault.slug());
        }
        label
    }

    /// Builds the runnable scenario for this cell. The irradiance trace
    /// covers only the leading window of the day the cell simulates,
    /// and comes from the process-wide day memo
    /// ([`scenario::weather_day_trace_shared`]), so every cell of one
    /// `(weather, seed, duration)` shares a single rendered window. The
    /// window's samples are bitwise the full day's, so the cell runs
    /// exactly as it would on the full [`scenario::weather_day`] trace.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a non-positive buffer
    /// capacitance, or a duration that is not finite and positive.
    pub fn scenario(&self) -> Result<Scenario, SimError> {
        let duration = self.duration.value();
        if !(duration > 0.0 && duration.is_finite()) {
            return Err(SimError::InvalidConfig("cell duration must be finite and positive"));
        }
        // Paper-typical leakage; only the capacitance is swept.
        let buffer =
            Supercapacitor::new(Farads::from_millifarads(self.buffer_mf), Ohms::new(40_000.0))?;
        let shared = scenario::weather_day_trace_shared(self.weather, self.seed, self.duration);
        let day = scenario::weather_day_with_trace(self.faulted_trace(shared)?);
        let built = day.with_duration(self.duration).with_buffer(buffer).with_params(self.params);
        let options = built
            .options()
            .with_thermal(self.thermal)
            .with_arrival(self.arrival, self.seed)
            .with_supply_model(self.supply_model)
            .with_idle(self.idle);
        Ok(built.with_options(options))
    }

    /// Applies this cell's fault injection to the cell's rendered
    /// window. `FaultSpec::None` hands the shared trace straight
    /// through (same `Arc`, zero copies); an active fault derives an
    /// attenuated private copy of the window with bitwise-untouched
    /// sample times. Fault events of a shorter window are a prefix of
    /// the full day's, so the engine samples the same irradiance as on
    /// the attenuated full day.
    fn faulted_trace(
        &self,
        shared: Arc<pn_harvest::irradiance::IrradianceTrace>,
    ) -> Result<Arc<pn_harvest::irradiance::IrradianceTrace>, SimError> {
        if self.fault == FaultSpec::None {
            return Ok(shared);
        }
        Ok(Arc::new(self.fault.attenuate(&shared, self.seed)?))
    }

    /// Runs the cell and reduces the report to a [`CellOutcome`].
    ///
    /// # Errors
    ///
    /// Propagates scenario and engine failures.
    pub fn evaluate(&self) -> Result<CellOutcome, SimError> {
        let scenario = self.scenario()?;
        let report = self.governor.run(&scenario)?;
        Ok(self.outcome(&scenario, &report))
    }

    /// The [`CellOutcome`] of `report`, a run of `scenario` (this cell's
    /// [`CampaignCell::scenario`], whose recording interval may differ:
    /// every field is read from what the engine accrued, none from the
    /// recorded trace).
    pub fn outcome(&self, scenario: &Scenario, report: &SimReport) -> CellOutcome {
        let alive = report.lifetime_or_duration();
        let opts = scenario.options();
        let faults_injected =
            self.fault.count_in(self.seed, opts.t_start.value(), opts.t_end.value());
        CellOutcome {
            cell: *self,
            survived: report.survived(),
            lifetime_seconds: alive.value(),
            vc_stability: report.vc_stability(),
            instructions_billions: report.work().instructions_billions(),
            renders_per_minute: report.work().renders_per_minute(alive.value().max(1e-9)),
            energy_in_joules: report.energy_in().value(),
            energy_out_joules: report.energy_out().value(),
            transitions: report.transitions(),
            final_vc: report.final_vc().value(),
            idle_time_seconds: report.idle_time().value(),
            idle_entries: report.idle_entries(),
            peak_temp_c: report.peak_temp_c(),
            throttle_time_seconds: report.throttle_time().value(),
            boost_time_seconds: report.boost_time().value(),
            faults_injected,
        }
    }
}

/// The reduced verdict of one cell: every field comes from the engine's
/// report, none from its recorded trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellOutcome {
    /// The cell that produced this outcome.
    pub cell: CampaignCell,
    /// Whether the board survived the whole window.
    pub survived: bool,
    /// Lifetime (or full window) in seconds.
    pub lifetime_seconds: f64,
    /// Fraction of the lifetime `VC` stayed within ±5 % of the target
    /// voltage ([`SimReport::vc_stability`]).
    pub vc_stability: f64,
    /// Completed instructions, billions.
    pub instructions_billions: f64,
    /// Average renders per minute while alive.
    pub renders_per_minute: f64,
    /// Harvested energy over the lifetime, joules
    /// ([`SimReport::energy_in`]).
    pub energy_in_joules: f64,
    /// Consumed energy over the lifetime, joules
    /// ([`SimReport::energy_out`]).
    pub energy_out_joules: f64,
    /// OPP transitions performed.
    pub transitions: u64,
    /// Final capacitor voltage, volts.
    pub final_vc: f64,
    /// Time spent resident in idle states, seconds.
    pub idle_time_seconds: f64,
    /// Idle-state entries performed.
    pub idle_entries: u64,
    /// Hottest die temperature reached, °C (0.0 with thermal off).
    pub peak_temp_c: f64,
    /// Time spent with the thermal throttle ceiling engaged, seconds.
    pub throttle_time_seconds: f64,
    /// Time spent in the thermal boost state, seconds.
    pub boost_time_seconds: f64,
    /// Harvester fault events intersecting the simulated window.
    pub faults_injected: u64,
}

/// Aggregated statistics for one group of cells (a weather condition,
/// a governor, ...).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSummary {
    /// Group label.
    pub label: String,
    /// Number of cells in the group.
    pub cells: usize,
    /// Number of cells that browned out.
    pub brownouts: usize,
    /// `VC` stability across the group.
    pub vc_stability: Aggregate,
    /// Completed instructions (billions) across the group.
    pub instructions_billions: Aggregate,
    /// Harvested-energy utilisation (consumed / harvested) across the
    /// group.
    pub energy_utilisation: Aggregate,
}

/// Aggregated verdicts of a whole campaign (or, after [`run_cells`],
/// of one index range of it).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Global matrix index of the first cell (0 for a full run).
    start: usize,
    cells: Vec<CellOutcome>,
}

impl CampaignReport {
    /// Reassembles a report from its position and outcomes — the
    /// decoding half of the persistence layer ([`crate::persist`]).
    /// The outcomes are trusted as-is; whether they describe real
    /// simulations is on the caller.
    pub fn from_parts(start: usize, cells: Vec<CellOutcome>) -> Self {
        Self { start, cells }
    }

    /// Global matrix index of this report's first cell: 0 for a full
    /// (or fully merged) campaign, the shard offset for a partial one.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Recomposes shard reports into the report of the unsharded run.
    ///
    /// Parts may arrive in any order (they are sorted by their shard
    /// offset), empty shards are legal, and the operation is
    /// associative: merging adjacent sub-merges yields exactly the
    /// same report as merging all parts at once, bitwise.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when no parts are given, and
    /// [`SimError::Campaign`] when the parts overlap (naming the first
    /// duplicated cell — e.g. a shard report merged twice, or a resumed
    /// run re-simulating a cell its saved report already carries) or
    /// leave a gap (a shard report is missing).
    pub fn merge(parts: impl IntoIterator<Item = CampaignReport>) -> Result<Self, SimError> {
        let mut parts: Vec<CampaignReport> = parts.into_iter().collect();
        if parts.is_empty() {
            return Err(SimError::InvalidConfig("no shard reports to merge"));
        }
        // An empty shard shares its start offset with the non-empty
        // shard that begins there; order empties first so the
        // contiguity scan below accepts them at that position
        // regardless of arrival order.
        parts.sort_by_key(|p| (p.start, p.cells.len()));
        let start = parts[0].start;
        let mut cells = Vec::with_capacity(parts.iter().map(|p| p.cells.len()).sum());
        for part in parts {
            let expected = start + cells.len();
            match part.start.cmp(&expected) {
                std::cmp::Ordering::Equal => cells.extend(part.cells),
                std::cmp::Ordering::Less => {
                    return Err(match part.cells.first() {
                        Some(dup) => SimError::Campaign(format!(
                            "duplicate cell {} (matrix index {}): present in more than one \
                             merged report",
                            dup.cell.label(),
                            part.start,
                        )),
                        None => SimError::Campaign(format!(
                            "empty shard report at offset {} overlaps cells already merged \
                             up to index {expected}",
                            part.start,
                        )),
                    });
                }
                std::cmp::Ordering::Greater => {
                    return Err(SimError::Campaign(format!(
                        "shard reports leave a gap in the matrix: index {expected} is missing \
                         (next report starts at {})",
                        part.start,
                    )));
                }
            }
        }
        Ok(Self { start, cells })
    }

    /// Per-cell outcomes, in matrix order.
    pub fn cells(&self) -> &[CellOutcome] {
        &self.cells
    }

    /// Number of evaluated cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` when the campaign had no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Number of cells that browned out.
    pub fn brownout_count(&self) -> usize {
        self.cells.iter().filter(|c| !c.survived).count()
    }

    /// Fraction of cells that survived their whole window.
    pub fn survival_rate(&self) -> f64 {
        if self.cells.is_empty() {
            return 0.0;
        }
        1.0 - self.brownout_count() as f64 / self.cells.len() as f64
    }

    /// Total completed instructions across the campaign, billions.
    pub fn total_instructions_billions(&self) -> f64 {
        self.cells.iter().map(|c| c.instructions_billions).sum()
    }

    /// Group statistics per weather condition, in first-seen order.
    pub fn by_weather(&self) -> Vec<GroupSummary> {
        self.grouped(|c| c.cell.weather.to_string())
    }

    /// Group statistics per governor, in first-seen order.
    pub fn by_governor(&self) -> Vec<GroupSummary> {
        self.grouped(|c| c.cell.governor.label())
    }

    fn grouped(&self, key: impl Fn(&CellOutcome) -> String) -> Vec<GroupSummary> {
        let mut groups: Vec<GroupSummary> = Vec::new();
        for outcome in &self.cells {
            let label = key(outcome);
            let group = match groups.iter_mut().find(|g| g.label == label) {
                Some(g) => g,
                None => {
                    groups.push(GroupSummary {
                        label,
                        cells: 0,
                        brownouts: 0,
                        vc_stability: Aggregate::new(),
                        instructions_billions: Aggregate::new(),
                        energy_utilisation: Aggregate::new(),
                    });
                    groups.last_mut().expect("just pushed")
                }
            };
            group.cells += 1;
            if !outcome.survived {
                group.brownouts += 1;
            }
            group.vc_stability.push(outcome.vc_stability);
            group.instructions_billions.push(outcome.instructions_billions);
            if outcome.energy_in_joules > 0.0 {
                group.energy_utilisation.push(outcome.energy_out_joules / outcome.energy_in_joules);
            }
        }
        groups
    }
}

/// Runs every cell of `spec` on `executor` and aggregates the
/// verdicts. Each distinct (weather, seed) day is rendered once, over
/// the window the cells simulate, and shared across the matrix through
/// the process-wide day memo (see [`CampaignCell::scenario`]).
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for an empty matrix and
/// propagates the first engine failure in matrix order.
pub fn run_campaign(spec: &CampaignSpec, executor: &Executor) -> Result<CampaignReport, SimError> {
    let cells = spec.cells();
    if cells.is_empty() {
        return Err(SimError::InvalidConfig("campaign matrix is empty"));
    }
    run_cells(&cells, 0..cells.len(), executor)
}

/// Runs the cells at matrix indices `range` on `executor`, one item per
/// cell, and returns a report positioned at `range.start` for
/// [`CampaignReport::merge`]. An empty range is legal and yields an
/// empty report. The executor returns results in item order, so the
/// outcomes are bitwise independent of the thread count.
///
/// # Errors
///
/// Propagates the first engine failure in matrix order.
///
/// # Panics
///
/// Panics when `range` does not lie within `cells`.
pub fn run_cells(
    cells: &[CampaignCell],
    range: Range<usize>,
    executor: &Executor,
) -> Result<CampaignReport, SimError> {
    let start = range.start;
    let outcomes = executor.map(&cells[range], |_, cell| cell.evaluate());
    Ok(CampaignReport { start, cells: outcomes.into_iter().collect::<Result<_, _>>()? })
}

/// Resumes an interrupted campaign from saved partial reports — a
/// prefix saved before an interruption, one shard of a sharded run, or
/// the per-shard checkpoints a campaign daemon wrote before it was
/// killed. Every part is validated against the spec (position, labels
/// and per-cell options), only the matrix indices no part covers are
/// simulated, and the whole set merges into a report bitwise-identical
/// to an uninterrupted [`run_campaign`] over the same spec. With no
/// parts it is a full run.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for an empty matrix,
/// [`SimError::Campaign`] when a part does not line up with the spec's
/// cells (naming the first mismatching cell) or two parts overlap, and
/// propagates the first engine failure in matrix order.
pub fn resume_campaign(
    spec: &CampaignSpec,
    saved: &[CampaignReport],
    executor: &Executor,
) -> Result<CampaignReport, SimError> {
    let cells = spec.cells();
    if cells.is_empty() {
        return Err(SimError::InvalidConfig("campaign matrix is empty"));
    }
    for part in saved {
        validate_saved_slice(&cells, part)?;
    }
    let mut order: Vec<&CampaignReport> = saved.iter().collect();
    order.sort_by_key(|p| (p.start(), p.len()));
    let mut parts: Vec<CampaignReport> = Vec::with_capacity(order.len() + 1);
    let mut cursor = 0usize;
    for part in order {
        if part.start() > cursor {
            parts.push(run_cells(&cells, cursor..part.start(), executor)?);
        }
        cursor = cursor.max(part.start() + part.len());
        parts.push(part.clone());
    }
    if cursor < cells.len() {
        parts.push(run_cells(&cells, cursor..cells.len(), executor)?);
    }
    // Overlapping saved parts survive to here (the gap walk only skips
    // past them); merge's disjointness check rejects them.
    CampaignReport::merge(parts)
}

/// Validates that `saved` is exactly the spec's cells over its matrix
/// range: same position, same labels, and — crucially — the same
/// per-cell options, control parameters and duration. A stale
/// checkpoint written under an edited spec (different supply model,
/// idle flag, governor set, …) therefore errors instead of
/// silently merging into a fresh run. Shared by [`resume_campaign`]
/// and the daemon's checkpoint-recovery path.
pub(crate) fn validate_saved_slice(
    cells: &[CampaignCell],
    saved: &CampaignReport,
) -> Result<(), SimError> {
    let start = saved.start();
    let end = start.saturating_add(saved.len());
    if end > cells.len() {
        return Err(SimError::Campaign(format!(
            "saved report covers matrix indices {start}..{end} but the spec enumerates only \
             {} cells",
            cells.len(),
        )));
    }
    for (i, outcome) in saved.cells().iter().enumerate() {
        let expected = &cells[start + i];
        if outcome.cell != *expected {
            return Err(SimError::Campaign(format!(
                "saved report does not match the campaign spec at matrix index {}: {}",
                start + i,
                cell_mismatch(expected, &outcome.cell),
            )));
        }
    }
    Ok(())
}

/// Explains how a saved cell differs from the spec's cell at the same
/// matrix index. When the axis labels differ the labels say it all;
/// when the labels agree the difference hides in the options/params —
/// exactly the stale-checkpoint-from-an-edited-spec case — so each
/// differing field is named explicitly.
fn cell_mismatch(expected: &CampaignCell, got: &CampaignCell) -> String {
    if got.label() != expected.label() {
        return format!("saved cell {} where the spec has {}", got.label(), expected.label());
    }
    let mut diffs: Vec<String> = Vec::new();
    if got.supply_model != expected.supply_model {
        diffs.push(format!(
            "supply model {} vs {}",
            got.supply_model.slug(),
            expected.supply_model.slug()
        ));
    }
    if got.idle != expected.idle {
        diffs.push(format!("idle {} vs {}", got.idle, expected.idle));
    }
    if got.params != expected.params {
        diffs.push("control params differ".to_string());
    }
    if got.duration != expected.duration {
        diffs.push(format!(
            "duration {} vs {}",
            got.duration.value(),
            expected.duration.value()
        ));
    }
    if diffs.is_empty() {
        diffs.push("cells differ in an unrecognised field".to_string());
    }
    format!(
        "cell {} matches by label but was saved under different options ({}) — the checkpoint \
         comes from an edited or stale spec",
        got.label(),
        diffs.join(", "),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_enumerates_the_full_product() {
        let spec = CampaignSpec::new()
            .unwrap()
            .with_weathers(vec![Weather::FullSun, Weather::Hail, Weather::Winter])
            .with_seeds(vec![1, 2])
            .with_buffers_mf(vec![47.0, 150.0])
            .with_governors(vec![GovernorSpec::PowerNeutral, GovernorSpec::Powersave]);
        assert_eq!(spec.cell_count(), 3 * 2 * 2 * 2);
        let cells = spec.cells();
        assert_eq!(cells.len(), spec.cell_count());
        // Fixed enumeration order: weather-major.
        assert_eq!(cells[0].weather, Weather::FullSun);
        assert_eq!(cells.last().unwrap().weather, Weather::Winter);
    }

    #[test]
    fn params_axis_multiplies_power_neutral_cells_only() {
        // Two parameter sets must not duplicate baseline simulations.
        let fig6 = ControlParams::fig6_simulation().unwrap();
        let spec = CampaignSpec::new()
            .unwrap()
            .with_governors(vec![GovernorSpec::PowerNeutral, GovernorSpec::Powersave])
            .with_params(vec![ControlParams::paper_optimal().unwrap(), fig6]);
        // 1 weather × 1 seed × 1 buffer × (2 params for PN + 1 powersave).
        assert_eq!(spec.cell_count(), 3);
        let cells = spec.cells();
        assert_eq!(cells.len(), 3);
        let powersave: Vec<_> = cells
            .iter()
            .filter(|c| c.governor == GovernorSpec::Powersave)
            .collect();
        assert_eq!(powersave.len(), 1, "baseline cells must not fan out over params");
        // An empty params axis yields an empty (rejected) matrix.
        assert_eq!(CampaignSpec::smoke().with_params(Vec::new()).cell_count(), 0);
    }

    #[test]
    fn governor_labels_are_unique() {
        let specs = [
            GovernorSpec::PowerNeutral,
            GovernorSpec::Performance,
            GovernorSpec::Powersave,
            GovernorSpec::Userspace(3),
            GovernorSpec::Ondemand,
            GovernorSpec::Conservative,
            GovernorSpec::Interactive,
            GovernorSpec::Hold(Opp::lowest()),
        ];
        let mut labels: Vec<String> = specs.iter().map(|g| g.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), specs.len());
    }

    #[test]
    fn smoke_campaign_runs_and_aggregates() {
        let spec = CampaignSpec::smoke();
        let report = run_campaign(&spec, &Executor::new(2)).unwrap();
        assert_eq!(report.len(), 4);
        assert!(report.survival_rate() >= 0.0 && report.survival_rate() <= 1.0);
        // Two weather groups of two cells each; two governor groups.
        let weathers = report.by_weather();
        assert_eq!(weathers.len(), 2);
        assert!(weathers.iter().all(|g| g.cells == 2));
        let governors = report.by_governor();
        assert_eq!(governors.len(), 2);
        for g in &governors {
            assert_eq!(g.vc_stability.count(), 2);
            assert!(g.brownouts <= g.cells);
        }
        // Full sun at midday must let the power-neutral cell survive
        // and do work.
        let pn_full_sun = &report.cells()[0];
        assert_eq!(pn_full_sun.cell.governor, GovernorSpec::PowerNeutral);
        assert!(pn_full_sun.instructions_billions > 0.0);
        assert!(pn_full_sun.energy_in_joules > 0.0);
    }

    #[test]
    fn invalid_cells_are_rejected() {
        let mut spec = CampaignSpec::smoke();
        spec.buffers_mf = vec![-1.0];
        assert!(run_campaign(&spec, &Executor::sequential()).is_err());
        spec = CampaignSpec::smoke().with_governors(Vec::new());
        assert!(matches!(
            run_campaign(&spec, &Executor::sequential()),
            Err(SimError::InvalidConfig(_))
        ));
        let cell = CampaignCell {
            weather: Weather::FullSun,
            seed: 1,
            thermal: ThermalSpec::Off,
            arrival: ArrivalSpec::Saturated,
            fault: FaultSpec::None,
            buffer_mf: 47.0,
            governor: GovernorSpec::Powersave,
            params: ControlParams::paper_optimal().unwrap(),
            duration: Seconds::ZERO,
            supply_model: SupplyModel::Exact,
            idle: true,
        };
        // An infinite window would never finish its cell.
        for duration in [Seconds::ZERO, Seconds::new(f64::INFINITY)] {
            let bad_duration = CampaignCell { duration, ..cell };
            assert!(bad_duration.scenario().is_err(), "duration {duration:?} was accepted");
        }
    }

    fn outcome(cell: CampaignCell, work: f64) -> CellOutcome {
        CellOutcome {
            cell,
            survived: true,
            lifetime_seconds: cell.duration.value(),
            vc_stability: 0.9,
            instructions_billions: work,
            renders_per_minute: 1.0,
            energy_in_joules: 2.0,
            energy_out_joules: 1.0,
            transitions: 3,
            final_vc: 5.3,
            idle_time_seconds: 0.0,
            idle_entries: 0,
            peak_temp_c: 0.0,
            throttle_time_seconds: 0.0,
            boost_time_seconds: 0.0,
            faults_injected: 0,
        }
    }

    #[test]
    fn shards_partition_the_matrix() {
        let spec = CampaignSpec::smoke().with_seeds(vec![1, 2]); // 8 cells
        let all = spec.cells();
        for count in [1usize, 2, 3, 5, 8, 13] {
            let shards = spec.shard(count);
            assert_eq!(shards.len(), count);
            let mut seen = Vec::new();
            for range in shards {
                assert_eq!(range.start, seen.len());
                seen.extend_from_slice(&all[range]);
            }
            assert_eq!(seen, all, "shard({count}) lost or duplicated cells");
        }
        // count == 0 degrades to a single shard.
        assert_eq!(spec.shard(0).len(), 1);
    }

    #[test]
    fn merge_recomposes_permuted_shards() {
        let spec = CampaignSpec::smoke().with_seeds(vec![1, 2]);
        let cells = spec.cells();
        let parts: Vec<CampaignReport> = spec
            .shard(3)
            .into_iter()
            .map(|r| {
                let work = r.start as f64;
                CampaignReport::from_parts(
                    r.start,
                    cells[r].iter().map(|&c| outcome(c, work)).collect(),
                )
            })
            .collect();
        let full = CampaignReport::merge(parts.clone()).unwrap();
        assert_eq!(full.len(), spec.cell_count());
        assert_eq!(full.start(), 0);
        // Any order of parts merges to the same report…
        let mut reversed = parts.clone();
        reversed.reverse();
        assert_eq!(CampaignReport::merge(reversed).unwrap(), full);
        // …and merging is associative over adjacent sub-merges.
        let left = CampaignReport::merge(parts[..2].to_vec()).unwrap();
        let grouped = CampaignReport::merge([left, parts[2].clone()]).unwrap();
        assert_eq!(grouped, full);
    }

    #[test]
    fn merge_rejects_gaps_overlaps_and_nothing() {
        let spec = CampaignSpec::smoke();
        let cells = spec.cells();
        let parts: Vec<CampaignReport> = spec
            .shard(4)
            .into_iter()
            .map(|r| {
                let start = r.start;
                CampaignReport::from_parts(start, cells[r].iter().map(|&c| outcome(c, 1.0)).collect())
            })
            .collect();
        assert!(CampaignReport::merge([]).is_err());
        // Missing shard → gap, naming the missing index.
        let gap = CampaignReport::merge([parts[0].clone(), parts[2].clone()]).unwrap_err();
        assert!(matches!(gap, SimError::Campaign(_)), "{gap}");
        assert!(gap.to_string().contains("gap"), "{gap}");
        // Same shard twice → duplicate, naming the duplicated cell.
        let dup = CampaignReport::merge([parts[1].clone(), parts[1].clone()]).unwrap_err();
        assert!(matches!(dup, SimError::Campaign(_)), "{dup}");
        let msg = dup.to_string();
        let label = parts[1].cells()[0].cell.label();
        assert!(msg.contains("duplicate cell"), "{msg}");
        assert!(msg.contains(&label), "message {msg:?} does not name cell {label:?}");
    }

    #[test]
    fn resume_from_any_contiguous_slice_matches_the_full_run() {
        let spec = CampaignSpec::smoke().with_duration(Seconds::new(5.0));
        let executor = Executor::sequential();
        let full = run_campaign(&spec, &executor).unwrap();
        let n = full.len();
        // Every contiguous saved slice, including empty and complete.
        for start in 0..n {
            for end in start..=n {
                let saved =
                    CampaignReport::from_parts(start, full.cells()[start..end].to_vec());
                let resumed = resume_campaign(&spec, &[saved], &executor).unwrap();
                assert_eq!(resumed, full, "resume from {start}..{end} diverged");
            }
        }
    }

    #[test]
    fn resume_rejects_mismatched_saved_reports() {
        let spec = CampaignSpec::smoke().with_duration(Seconds::new(5.0));
        let executor = Executor::sequential();
        let full = run_campaign(&spec, &executor).unwrap();
        // A saved report that extends past the matrix.
        let saved = CampaignReport::from_parts(2, full.cells().to_vec());
        let err = resume_campaign(&spec, &[saved], &executor).unwrap_err();
        assert!(matches!(err, SimError::Campaign(_)), "{err}");
        // One whose end index does not fit in usize.
        let saved = CampaignReport::from_parts(usize::MAX, full.cells()[..1].to_vec());
        let err = resume_campaign(&spec, &[saved], &executor).unwrap_err();
        assert!(matches!(err, SimError::Campaign(_)), "{err}");
        // A saved cell that is not the spec's cell at that index.
        let mut cells = full.cells().to_vec();
        cells.swap(0, 3);
        let saved = CampaignReport::from_parts(0, cells);
        let err = resume_campaign(&spec, &[saved], &executor).unwrap_err();
        assert!(err.to_string().contains("does not match"), "{err}");
    }

    #[test]
    fn resume_rejects_checkpoints_saved_under_edited_options() {
        // A checkpoint saved under the default spec, then resumed under
        // a spec whose per-cell options were edited: the labels still
        // agree, so only the full-cell comparison catches the staleness
        // — and the error must name the differing field, not just echo
        // two identical labels.
        let spec = CampaignSpec::smoke().with_duration(Seconds::new(5.0));
        let executor = Executor::sequential();
        let full = run_campaign(&spec, &executor).unwrap();
        let saved = CampaignReport::from_parts(0, full.cells()[..2].to_vec());
        let edits: [(CampaignSpec, &str); 2] = [
            (spec.clone().with_supply_model(SupplyModel::interpolated()), "supply model"),
            (spec.clone().with_idle(false), "idle"),
        ];
        for (edited, field) in &edits {
            let err = resume_campaign(edited, std::slice::from_ref(&saved), &executor).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("edited or stale spec"), "{field}: {msg}");
            assert!(msg.contains(field), "expected {field:?} named in: {msg}");
        }
        // An edited governor set changes the labels themselves.
        let edited = spec
            .clone()
            .with_governors(vec![GovernorSpec::Performance, GovernorSpec::Powersave]);
        let err = resume_campaign(&edited, std::slice::from_ref(&saved), &executor).unwrap_err();
        assert!(err.to_string().contains("where the spec has"), "{err}");
    }

    #[test]
    fn resume_from_multiple_parts_matches_the_full_run() {
        let spec = CampaignSpec::smoke().with_duration(Seconds::new(5.0));
        let executor = Executor::sequential();
        let full = run_campaign(&spec, &executor).unwrap();
        let n = full.len();
        // Two disjoint non-adjacent parts, given out of order: the
        // gaps (middle and tail) are simulated and the merge is exact.
        let parts = [
            CampaignReport::from_parts(2, full.cells()[2..3].to_vec()),
            CampaignReport::from_parts(0, full.cells()[..1].to_vec()),
        ];
        let resumed = resume_campaign(&spec, &parts, &executor).unwrap();
        assert_eq!(resumed, full);
        // No parts at all degenerates to a full run.
        let resumed = resume_campaign(&spec, &[], &executor).unwrap();
        assert_eq!(resumed, full);
        // Overlapping parts are rejected by the merge disjointness
        // check instead of double-counting cells.
        let overlapping = [
            CampaignReport::from_parts(0, full.cells()[..2].to_vec()),
            CampaignReport::from_parts(1, full.cells()[1..n].to_vec()),
        ];
        let err = resume_campaign(&spec, &overlapping, &executor).unwrap_err();
        assert!(matches!(err, SimError::Campaign(_)), "{err}");
    }

    #[test]
    fn governor_slugs_round_trip_losslessly() {
        let specs = [
            GovernorSpec::PowerNeutral,
            GovernorSpec::Performance,
            GovernorSpec::Powersave,
            GovernorSpec::Userspace(3),
            GovernorSpec::Ondemand,
            GovernorSpec::Conservative,
            GovernorSpec::Interactive,
            GovernorSpec::Hold(Opp::new(CoreConfig::new(4, 2).unwrap(), 5)),
        ];
        for g in specs {
            assert_eq!(GovernorSpec::from_slug(&g.slug()), Some(g), "slug {:?}", g.slug());
            assert!(!g.slug().contains([' ', ',']), "slug {:?} not CSV-safe", g.slug());
        }
        assert_eq!(GovernorSpec::from_slug("turbo"), None);
        assert_eq!(GovernorSpec::from_slug("hold:4@x"), None);
    }

    #[test]
    fn per_cell_options_propagate_and_mixed_model_merges_are_rejected() {
        let exact = CampaignSpec::smoke().with_duration(Seconds::new(3.0));
        let interp = exact.clone().with_supply_model(SupplyModel::interpolated());
        assert!(exact.cells().iter().all(|c| c.supply_model == SupplyModel::Exact));
        assert!(interp.cells().iter().all(|c| c.supply_model == SupplyModel::interpolated()));
        let executor = Executor::sequential();
        let a = run_campaign(&exact, &executor).unwrap();
        let b = run_campaign(&interp, &executor).unwrap();
        // Interpolation must not flip any verdict on the smoke matrix.
        for (x, y) in a.cells().iter().zip(b.cells()) {
            assert_eq!(x.survived, y.survived, "{} flipped", x.cell.label());
        }
        // Same matrix positions under different models: recomposition
        // is rejected by the existing duplicate-cell overlap error.
        // (Disjoint mixed-model shards merge by design; the CSV's
        // supply_model column keeps such documents self-describing.)
        let err = CampaignReport::merge([a, b]).unwrap_err();
        assert!(matches!(err, SimError::Campaign(_)), "{err}");
        assert!(err.to_string().contains("duplicate cell"), "{err}");
    }

    #[test]
    fn idle_off_reaches_the_engine() {
        let spec = CampaignSpec::smoke().with_governors(vec![GovernorSpec::RaceToIdle]);
        let executor = Executor::sequential();
        let on = run_campaign(&spec, &executor).unwrap();
        assert!(on.cells().iter().any(|o| o.idle_entries >= 1), "no cell ever idled");
        let off = run_campaign(&spec.with_idle(false), &executor).unwrap();
        for o in off.cells() {
            assert_eq!(o.idle_entries, 0, "{} idled with idle off", o.cell.label());
            assert_eq!(o.idle_time_seconds, 0.0, "{} idled with idle off", o.cell.label());
        }
    }

    #[test]
    fn cell_count_saturates_instead_of_wrapping() {
        // Seven axes of 600 entries each: 600^7 ≈ 2.8e19 > u64::MAX.
        let n = 600;
        let spec = CampaignSpec::new()
            .unwrap()
            .with_weathers(vec![Weather::FullSun; n])
            .with_seeds((0..n as u64).collect())
            .with_thermals(vec![ThermalSpec::Off; n])
            .with_arrivals(vec![ArrivalSpec::Saturated; n])
            .with_faults(vec![FaultSpec::None; n])
            .with_buffers_mf(vec![47.0; n])
            .with_governors(vec![GovernorSpec::Powersave; n]);
        assert_eq!(spec.cell_count(), usize::MAX);
    }

    #[test]
    fn campaigns_are_thread_count_invariant() {
        let spec = CampaignSpec::smoke().with_seeds(vec![1, 2]).with_duration(Seconds::new(4.0));
        let sequential = run_campaign(&spec, &Executor::sequential()).unwrap();
        for threads in [2, 3, 8] {
            let parallel = run_campaign(&spec, &Executor::new(threads)).unwrap();
            assert_eq!(parallel, sequential, "{threads}-thread run diverged");
        }
    }

    #[test]
    fn cell_labels_name_all_axes() {
        let cell = CampaignCell {
            weather: Weather::Stormy,
            seed: 9,
            thermal: ThermalSpec::Off,
            arrival: ArrivalSpec::Saturated,
            fault: FaultSpec::None,
            buffer_mf: 150.0,
            governor: GovernorSpec::PowerNeutral,
            params: ControlParams::paper_optimal().unwrap(),
            duration: Seconds::new(10.0),
            supply_model: SupplyModel::Exact,
            idle: true,
        };
        let label = cell.label();
        assert!(label.contains("storm"));
        assert!(label.contains("seed9"));
        assert!(label.contains("150mF"));
        assert!(label.contains("power-neutral"));
    }
}
