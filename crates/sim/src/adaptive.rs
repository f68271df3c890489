//! Adaptive campaigns: bisect the brown-out capacitance boundary.
//!
//! A brute-force [`CampaignSpec`] answers "which of these cells
//! browned out"; the paper's central sizing question is sharper: *at
//! what buffer capacitance does each harvesting condition stop
//! sustaining power-neutral operation?* [`AdaptiveCampaign`] answers
//! it with feedback instead of exhaustion. It consumes a finished
//! [`CampaignReport`], partitions the outcomes into (weather,
//! governor) groups, and steers each group's buffer-capacitance axis
//! toward the survival boundary: expansion (doubling / halving) until
//! the boundary is bracketed by a browned-out capacitance below and a
//! surviving capacitance above, then bisection until the bracket is
//! narrower than the configured tolerance.
//!
//! Every refinement round is emitted as a list of ordinary
//! [`CampaignSpec`]s (one per still-active group), so rounds run on
//! the existing executor and day memo unchanged — and, like any
//! campaign, an adaptive run is bitwise-deterministic across thread
//! counts.
//!
//! A capacitance point *browns out* for a group when **any** cell at
//! that point (across the group's seeds and parameter sets) fails to
//! survive its window — the boundary found is the worst-case one.
//!
//! The same machinery bisects the adversarial stress axes: with
//! [`AdaptiveAxis::ThermalLimitC`] the driver searches the thermal
//! throttle ceiling, with [`AdaptiveAxis::FaultDepth`] the harvester
//! fault depth. Both are *survives-low* axes (survival improves as the
//! value shrinks), so the search runs with the survival sense
//! inverted; the bisection itself is identical.
//!
//! # Examples
//!
//! Drive one refinement round by hand (no simulation involved —
//! outcomes are fabricated):
//!
//! ```
//! use pn_sim::adaptive::{AdaptiveCampaign, AdaptiveConfig};
//! use pn_sim::campaign::{CampaignReport, CampaignSpec};
//!
//! # fn main() -> Result<(), pn_sim::SimError> {
//! // A finished 2-cell report: 10 mF browned out, 100 mF survived.
//! let spec = CampaignSpec::new()?.with_buffers_mf(vec![10.0, 100.0]);
//! let cells = spec
//!     .cells()
//!     .iter()
//!     .enumerate()
//!     .map(|(i, &cell)| pn_sim::campaign::CellOutcome {
//!         cell,
//!         survived: i == 1,
//!         lifetime_seconds: 1.0,
//!         vc_stability: 0.9,
//!         instructions_billions: 1.0,
//!         renders_per_minute: 1.0,
//!         energy_in_joules: 2.0,
//!         energy_out_joules: 1.0,
//!         transitions: 0,
//!         final_vc: 5.0,
//!         idle_time_seconds: 0.0,
//!         idle_entries: 0,
//!         peak_temp_c: 0.0,
//!         throttle_time_seconds: 0.0,
//!         boost_time_seconds: 0.0,
//!         faults_injected: 0,
//!     })
//!     .collect();
//! let report = CampaignReport::from_parts(0, cells);
//!
//! let mut adaptive = AdaptiveCampaign::from_report(&report, AdaptiveConfig::default())?;
//! let round = adaptive.next_round().expect("boundary not yet within tolerance");
//! assert_eq!(round.len(), 1, "one (weather, governor) group");
//! assert_eq!(round[0].buffers_mf, vec![55.0], "bisects the 10..100 bracket");
//! # Ok(())
//! # }
//! ```

use crate::campaign::{
    run_cells, CampaignCell, CampaignReport, CampaignSpec, CellOutcome, GovernorSpec,
};
use crate::executor::Executor;
use crate::SimError;
use pn_harvest::faults::FaultSpec;
use pn_harvest::weather::Weather;
use pn_soc::thermal::{RcThermal, ThermalSpec};
use std::fmt;

/// Which campaign axis the adaptive driver bisects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdaptiveAxis {
    /// Buffer capacitance, millifarads. Survival is monotone
    /// *increasing* in the value (a larger buffer rides out longer
    /// droughts); the boundary is the smallest surviving capacitance.
    /// The default.
    #[default]
    BufferMf,
    /// Thermal throttle ceiling, °C. Survival is monotone *decreasing*
    /// in the value (a lower trip point caps power earlier), so the
    /// search runs inverted: `lo` is the largest surviving ceiling,
    /// `hi` the smallest browned-out one. Probe cells substitute the
    /// ceiling into the group's RC template, shifting the release to
    /// preserve the hysteresis gap and dropping the boost so its band
    /// cannot pinch the search range.
    ThermalLimitC,
    /// Harvester fault depth, fraction in `(0, 1]`. Deeper faults
    /// drain more energy, so survival is monotone decreasing and the
    /// search runs inverted like the thermal axis; the boundary is the
    /// deepest tolerable fault.
    FaultDepth,
}

impl AdaptiveAxis {
    /// Stable machine token (`buffer`, `thermal`, `fault`) for CLI
    /// flags and logs.
    pub fn slug(&self) -> &'static str {
        match self {
            AdaptiveAxis::BufferMf => "buffer",
            AdaptiveAxis::ThermalLimitC => "thermal",
            AdaptiveAxis::FaultDepth => "fault",
        }
    }

    /// Parses an [`AdaptiveAxis::slug`] token back into an axis.
    pub fn from_slug(slug: &str) -> Option<AdaptiveAxis> {
        [AdaptiveAxis::BufferMf, AdaptiveAxis::ThermalLimitC, AdaptiveAxis::FaultDepth]
            .into_iter()
            .find(|axis| axis.slug() == slug)
    }

    /// `true` when survival is monotone increasing in the axis value.
    fn survives_high(self) -> bool {
        matches!(self, AdaptiveAxis::BufferMf)
    }

    /// The axis value a finished cell contributes, or `None` when the
    /// cell does not exercise the axis (no thermal model, no fault).
    fn value_of(self, cell: &CampaignCell) -> Option<f64> {
        match self {
            AdaptiveAxis::BufferMf => Some(cell.buffer_mf),
            AdaptiveAxis::ThermalLimitC => match cell.thermal {
                ThermalSpec::Rc(rc) => Some(rc.throttle_c),
                ThermalSpec::Off => None,
            },
            AdaptiveAxis::FaultDepth => cell.fault.depth(),
        }
    }
}

impl fmt::Display for AdaptiveAxis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AdaptiveAxis::BufferMf => "buffer capacitance (mF)",
            AdaptiveAxis::ThermalLimitC => "thermal throttle ceiling (°C)",
            AdaptiveAxis::FaultDepth => "harvester fault depth",
        };
        f.write_str(s)
    }
}

/// Tuning knobs of the adaptive driver. The `_mf` field names are
/// historical — the values are in the probed axis' own units
/// (millifarads, °C, or depth fraction).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Campaign axis to bisect.
    pub axis: AdaptiveAxis,
    /// Stop refining a group once its bracket is at most this wide
    /// (axis units).
    pub tolerance_mf: f64,
    /// Hard cap on refinement rounds; groups still refining when it is
    /// reached are marked [`BracketStatus::RoundLimit`].
    pub max_rounds: usize,
    /// Smallest axis value the expansion probes; a group on the
    /// surviving side even here is [`BracketStatus::BelowFloor`].
    pub floor_mf: f64,
    /// Largest axis value the expansion probes; a group on the failing
    /// side even here is [`BracketStatus::AboveCeiling`].
    pub ceiling_mf: f64,
}

impl Default for AdaptiveConfig {
    /// The buffer axis: tolerance 4 mF (under a tenth of the paper's
    /// 47 mF rig), 24 rounds, and an expansion range of 1 mF – 10 F.
    fn default() -> Self {
        Self {
            axis: AdaptiveAxis::BufferMf,
            tolerance_mf: 4.0,
            max_rounds: 24,
            floor_mf: 1.0,
            ceiling_mf: 10_000.0,
        }
    }
}

impl AdaptiveConfig {
    /// Axis-appropriate defaults: the buffer axis keeps
    /// [`AdaptiveConfig::default`]; the thermal axis searches
    /// 35–150 °C to a 1 °C tolerance; the fault axis searches depths
    /// 0.01–1 to 0.02.
    pub fn for_axis(axis: AdaptiveAxis) -> Self {
        match axis {
            AdaptiveAxis::BufferMf => Self::default(),
            AdaptiveAxis::ThermalLimitC => Self {
                axis,
                tolerance_mf: 1.0,
                floor_mf: 35.0,
                ceiling_mf: 150.0,
                ..Self::default()
            },
            AdaptiveAxis::FaultDepth => Self {
                axis,
                tolerance_mf: 0.02,
                floor_mf: 0.01,
                ceiling_mf: 1.0,
                ..Self::default()
            },
        }
    }

    fn validate(&self) -> Result<(), SimError> {
        if !(self.tolerance_mf > 0.0) {
            return Err(SimError::InvalidConfig("adaptive tolerance must be positive"));
        }
        if self.max_rounds == 0 {
            return Err(SimError::InvalidConfig("adaptive max_rounds must be at least 1"));
        }
        if !(self.floor_mf > 0.0) {
            return Err(SimError::InvalidConfig("adaptive floor must be positive"));
        }
        if !(self.ceiling_mf > self.floor_mf) {
            return Err(SimError::InvalidConfig("adaptive ceiling must exceed the floor"));
        }
        Ok(())
    }
}

/// Where a group's boundary search ended up (or still is).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BracketStatus {
    /// Still refining: the next round will probe this group again.
    Bisecting,
    /// The bracket is narrower than the tolerance.
    Converged,
    /// The group survives even at the configured floor capacitance —
    /// the boundary (if any) lies below the probed range.
    BelowFloor,
    /// The group browns out even at the configured ceiling capacitance
    /// — the boundary lies above the probed range.
    AboveCeiling,
    /// Observations contradicted the monotone survival assumption
    /// (a capacitance at or above a surviving one browned out).
    NonMonotone,
    /// The round cap was reached before the bracket converged.
    RoundLimit,
}

impl BracketStatus {
    /// `true` once the group needs no further probes.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, BracketStatus::Bisecting)
    }
}

impl fmt::Display for BracketStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BracketStatus::Bisecting => "bisecting",
            BracketStatus::Converged => "converged",
            BracketStatus::BelowFloor => "below floor",
            BracketStatus::AboveCeiling => "above ceiling",
            BracketStatus::NonMonotone => "non-monotone",
            BracketStatus::RoundLimit => "round limit",
        };
        f.write_str(s)
    }
}

/// One group's brown-out boundary bracket, as reported by
/// [`AdaptiveCampaign::brackets`].
#[derive(Debug, Clone, PartialEq)]
pub struct BoundaryBracket {
    /// Weather condition of the group.
    pub weather: Weather,
    /// Governor of the group.
    pub governor: GovernorSpec,
    /// Lower bracket end, in the probed axis' units: the largest value
    /// observed to brown out (or, for survives-low axes like the
    /// thermal limit and fault depth, the largest value observed to
    /// survive).
    pub lo_mf: Option<f64>,
    /// Upper bracket end: the smallest value observed to survive (for
    /// survives-low axes, the smallest value observed to brown out).
    pub hi_mf: Option<f64>,
    /// Search verdict for the group.
    pub status: BracketStatus,
    /// Capacitance points probed for this group (beyond the seed
    /// report).
    pub probes: usize,
}

impl BoundaryBracket {
    /// Bracket width in millifarads, once both ends are known.
    pub fn width_mf(&self) -> Option<f64> {
        match (self.lo_mf, self.hi_mf) {
            (Some(lo), Some(hi)) => Some(hi - lo),
            _ => None,
        }
    }

    /// Midpoint boundary estimate in millifarads, once both ends are
    /// known.
    pub fn boundary_estimate_mf(&self) -> Option<f64> {
        match (self.lo_mf, self.hi_mf) {
            (Some(lo), Some(hi)) => Some(lo + (hi - lo) / 2.0),
            _ => None,
        }
    }
}

/// Internal per-(weather, governor) search state.
#[derive(Debug, Clone)]
struct Probe {
    /// The group's single-group campaign: its weather and governor,
    /// the duration and engine options of the cell that opened it, and
    /// every other axis value observed for the group, in first-seen
    /// order. Probe cells replay exactly the population the seed report
    /// did, except the probed axis itself, which the probe value
    /// replaces.
    template: CampaignSpec,
    bracket: BoundaryBracket,
}

/// What a pending group wants next.
enum Action {
    Probe(f64),
    Finish(BracketStatus),
}

impl Probe {
    /// Opens the group of `cell`, whose weather, governor, duration
    /// and engine options every probe of the group replays.
    fn new(cell: &CampaignCell) -> Self {
        let template = CampaignSpec {
            weathers: vec![cell.weather],
            seeds: Vec::new(),
            thermals: Vec::new(),
            arrivals: Vec::new(),
            faults: Vec::new(),
            buffers_mf: Vec::new(),
            governors: vec![cell.governor],
            params: Vec::new(),
            duration: cell.duration,
            // Probe cells replay the seed report's engine options, so
            // a fast interpolated sweep refines with the same model.
            supply_model: cell.supply_model,
            idle: cell.idle,
        };
        let bracket = BoundaryBracket {
            weather: cell.weather,
            governor: cell.governor,
            lo_mf: None,
            hi_mf: None,
            status: BracketStatus::Bisecting,
            probes: 0,
        };
        Self { template, bracket }
    }

    /// The single-group campaign spec probing `axis` at `value`: the
    /// probed axis collapses to that one point, every other axis
    /// replays what the seed report exercised.
    fn spec_for(&self, axis: AdaptiveAxis, value: f64) -> CampaignSpec {
        let mut spec = self.template.clone();
        match axis {
            AdaptiveAxis::BufferMf => spec.buffers_mf = vec![value],
            AdaptiveAxis::ThermalLimitC => {
                // Substitute the ceiling into the group's RC template,
                // shifting the release to preserve the hysteresis gap
                // and dropping the boost so its band cannot pinch the
                // search range. A group reaches this arm only when it
                // contributed an RC cell (value_of gates observation).
                let template = spec.thermals.iter().find_map(|t| match t {
                    ThermalSpec::Rc(rc) => Some(*rc),
                    ThermalSpec::Off => None,
                });
                if let Some(rc) = template {
                    let gap = rc.throttle_c - rc.release_c;
                    spec.thermals = vec![ThermalSpec::Rc(RcThermal {
                        throttle_c: value,
                        release_c: value - gap,
                        boost: None,
                        ..rc
                    })];
                }
            }
            AdaptiveAxis::FaultDepth => {
                let template = spec.faults.iter().find(|f| **f != FaultSpec::None).copied();
                if let Some(fault) = template {
                    spec.faults = vec![fault.with_depth(value)];
                }
            }
        }
        spec
    }
}

impl BoundaryBracket {
    /// Folds one settled capacitance point into the bracket.
    fn apply(&mut self, buffer_mf: f64, survived: bool) {
        if survived {
            self.hi_mf = Some(self.hi_mf.map_or(buffer_mf, |h| h.min(buffer_mf)));
        } else {
            self.lo_mf = Some(self.lo_mf.map_or(buffer_mf, |l| l.max(buffer_mf)));
        }
        if let (Some(lo), Some(hi)) = (self.lo_mf, self.hi_mf) {
            if lo >= hi {
                // A browned-out capacitance at or above a surviving
                // one: the monotone assumption broke, stop probing.
                self.status = BracketStatus::NonMonotone;
            }
        }
    }

    fn next_action(&self, config: &AdaptiveConfig) -> Action {
        match (self.lo_mf, self.hi_mf) {
            (Some(lo), Some(hi)) => {
                if hi - lo <= config.tolerance_mf {
                    Action::Finish(BracketStatus::Converged)
                } else {
                    Action::Probe(lo + (hi - lo) / 2.0)
                }
            }
            // Everything browned out so far: expand upward. The lower
            // clamp keeps a degenerate (non-positive) singleton seed
            // from re-probing its own point forever — doubling zero is
            // zero; doubling from the floor is a real expansion.
            (Some(lo), None) => {
                if lo >= config.ceiling_mf {
                    Action::Finish(BracketStatus::AboveCeiling)
                } else {
                    Action::Probe((lo * 2.0).clamp(config.floor_mf, config.ceiling_mf))
                }
            }
            // Everything survived so far: expand downward.
            (None, Some(hi)) => {
                if hi <= config.floor_mf {
                    Action::Finish(BracketStatus::BelowFloor)
                } else {
                    Action::Probe((hi / 2.0).max(config.floor_mf))
                }
            }
            // Unreachable in practice: a probe only exists once an
            // outcome was folded into it.
            (None, None) => Action::Finish(BracketStatus::NonMonotone),
        }
    }
}

/// The adaptive driver: consumes a finished report, then alternates
/// [`AdaptiveCampaign::next_round`] (emit probe specs) and
/// [`AdaptiveCampaign::observe`] (fold their reports back in) until
/// every group's bracket settles. [`AdaptiveCampaign::run`] wraps that
/// loop over the shared executor.
#[derive(Debug, Clone)]
pub struct AdaptiveCampaign {
    config: AdaptiveConfig,
    probes: Vec<Probe>,
    rounds: usize,
    history: Vec<CellOutcome>,
}

impl AdaptiveCampaign {
    /// Builds the driver from a finished campaign report, partitioning
    /// its outcomes into (weather, governor) groups in first-seen
    /// order. Each group's seed, parameter and duration axes are taken
    /// from the report's own cells, so no spec is needed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for an empty report, a
    /// report with no cell exercising the configured axis (e.g. the
    /// thermal axis against an all-`off` report), or an invalid
    /// configuration (non-positive tolerance or floor, zero rounds,
    /// ceiling at or below the floor).
    pub fn from_report(
        report: &CampaignReport,
        config: AdaptiveConfig,
    ) -> Result<Self, SimError> {
        config.validate()?;
        if report.is_empty() {
            return Err(SimError::InvalidConfig("adaptive campaign needs a non-empty report"));
        }
        let mut driver = Self { config, probes: Vec::new(), rounds: 0, history: Vec::new() };
        driver.observe(report);
        if driver.probes.is_empty() {
            return Err(SimError::InvalidConfig(
                "adaptive axis is not exercised by any cell of the seed report",
            ));
        }
        Ok(driver)
    }

    /// Folds a finished report (the seed report, or one round's probe
    /// report) into the per-group brackets. Outcomes are grouped by
    /// (weather, governor); an axis point counts as browned out when
    /// any of its cells failed to survive. Cells that do not exercise
    /// the configured axis are ignored. For survives-low axes
    /// (thermal limit, fault depth) the survival sense is inverted
    /// before folding, so the bisection machinery stays monotone-up.
    pub fn observe(&mut self, report: &CampaignReport) {
        self.history.extend_from_slice(report.cells());
        // Settle each (group, axis value) point: it survives only if
        // every cell at it survived.
        let axis = self.config.axis;
        let mut points: Vec<(usize, f64, bool)> = Vec::new();
        for outcome in report.cells() {
            let Some(value) = axis.value_of(&outcome.cell) else { continue };
            let group = self.group_index(outcome);
            match points
                .iter_mut()
                .find(|(g, v, _)| *g == group && v.to_bits() == value.to_bits())
            {
                Some((_, _, survived)) => *survived &= outcome.survived,
                None => points.push((group, value, outcome.survived)),
            }
        }
        for (group, value, survived) in points {
            let bracket = &mut self.probes[group].bracket;
            if !bracket.status.is_terminal() {
                let folded = if axis.survives_high() { survived } else { !survived };
                bracket.apply(value, folded);
            }
        }
    }

    /// Finds (or creates) the probe group for an outcome and records
    /// the axes it contributes.
    fn group_index(&mut self, outcome: &CellOutcome) -> usize {
        let cell = &outcome.cell;
        let index = match self.probes.iter().position(|p| {
            p.bracket.weather == cell.weather && p.bracket.governor == cell.governor
        }) {
            Some(i) => i,
            None => {
                self.probes.push(Probe::new(cell));
                self.probes.len() - 1
            }
        };
        let spec = &mut self.probes[index].template;
        if !spec.seeds.contains(&cell.seed) {
            spec.seeds.push(cell.seed);
        }
        if !spec.params.contains(&cell.params) {
            spec.params.push(cell.params);
        }
        if !spec.buffers_mf.iter().any(|b| b.to_bits() == cell.buffer_mf.to_bits()) {
            spec.buffers_mf.push(cell.buffer_mf);
        }
        if !spec.thermals.contains(&cell.thermal) {
            spec.thermals.push(cell.thermal);
        }
        if !spec.arrivals.contains(&cell.arrival) {
            spec.arrivals.push(cell.arrival);
        }
        if !spec.faults.contains(&cell.fault) {
            spec.faults.push(cell.fault);
        }
        index
    }

    /// Emits the next refinement round: one single-group
    /// [`CampaignSpec`] per group still refining, each probing one new
    /// capacitance point. Returns `None` once every group has settled
    /// (or the round cap is reached, marking the stragglers
    /// [`BracketStatus::RoundLimit`]).
    ///
    /// Call [`AdaptiveCampaign::observe`] with each spec's report
    /// before asking for the next round; without fresh observations
    /// the same round would be emitted again (and still count against
    /// the cap).
    pub fn next_round(&mut self) -> Option<Vec<CampaignSpec>> {
        // Settle statuses first so converged groups emit no probe.
        let mut targets: Vec<(usize, f64)> = Vec::new();
        for (i, probe) in self.probes.iter_mut().enumerate() {
            let bracket = &mut probe.bracket;
            if bracket.status.is_terminal() {
                continue;
            }
            match bracket.next_action(&self.config) {
                Action::Finish(status) => bracket.status = status,
                Action::Probe(buffer) => targets.push((i, buffer)),
            }
        }
        if targets.is_empty() {
            return None;
        }
        if self.rounds >= self.config.max_rounds {
            for &(i, _) in &targets {
                self.probes[i].bracket.status = BracketStatus::RoundLimit;
            }
            return None;
        }
        self.rounds += 1;
        let mut specs = Vec::with_capacity(targets.len());
        for (i, buffer) in targets {
            let probe = &mut self.probes[i];
            probe.bracket.probes += 1;
            specs.push(probe.spec_for(self.config.axis, buffer));
        }
        Some(specs)
    }

    /// Runs refinement rounds on `executor` until every bracket
    /// settles, and returns the final
    /// brackets. Each round's probe cells — across all groups — are
    /// evaluated as one batch, so independent groups refine in
    /// parallel; cells keep their round order, so the probe history
    /// stays deterministic across thread counts.
    ///
    /// # Errors
    ///
    /// Propagates the first engine failure.
    pub fn run(&mut self, executor: &Executor) -> Result<Vec<BoundaryBracket>, SimError> {
        while let Some(specs) = self.next_round() {
            let cells: Vec<_> = specs.iter().flat_map(|spec| spec.cells()).collect();
            self.observe(&run_cells(&cells, 0..cells.len(), executor)?);
        }
        Ok(self.brackets())
    }

    /// Current per-group brackets, in first-seen group order.
    pub fn brackets(&self) -> Vec<BoundaryBracket> {
        self.probes.iter().map(|p| p.bracket.clone()).collect()
    }

    /// Refinement rounds emitted so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// `true` once no group needs further probes.
    pub fn settled(&self) -> bool {
        self.probes.iter().all(|p| p.bracket.status.is_terminal())
    }

    /// Every outcome observed so far (seed report first, then each
    /// probe round in emission order).
    pub fn history(&self) -> &[CellOutcome] {
        &self.history
    }

    /// The observed outcomes as an ordinary [`CampaignReport`] — the
    /// artifact an adaptive run persists (and the golden tests pin).
    pub fn probe_report(&self) -> CampaignReport {
        CampaignReport::from_parts(0, self.history.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignCell;
    use pn_workload::arrival::ArrivalSpec;

    /// Fabricates the report a spec would produce under a synthetic
    /// monotone survival rule: a cell survives iff its buffer is at
    /// least `threshold_mf`.
    fn synthetic_report(spec: &CampaignSpec, threshold_mf: f64) -> CampaignReport {
        let cells = spec
            .cells()
            .iter()
            .map(|&cell| synthetic_outcome(cell, cell.buffer_mf >= threshold_mf))
            .collect();
        CampaignReport::from_parts(0, cells)
    }

    fn synthetic_outcome(cell: CampaignCell, survived: bool) -> CellOutcome {
        CellOutcome {
            cell,
            survived,
            lifetime_seconds: if survived { cell.duration.value() } else { 0.5 },
            vc_stability: 0.8,
            instructions_billions: 1.0,
            renders_per_minute: 6.0,
            energy_in_joules: 2.0,
            energy_out_joules: 1.0,
            transitions: 2,
            final_vc: 5.0,
            idle_time_seconds: 0.0,
            idle_entries: 0,
            peak_temp_c: 0.0,
            throttle_time_seconds: 0.0,
            boost_time_seconds: 0.0,
            faults_injected: 0,
        }
    }

    /// Drives the adaptive loop against an arbitrary synthetic outcome
    /// rule without any simulation, returning the settled driver.
    fn drive_with(
        seed_spec: &CampaignSpec,
        config: AdaptiveConfig,
        rule: impl Fn(&CampaignSpec) -> CampaignReport,
    ) -> AdaptiveCampaign {
        let seed = rule(seed_spec);
        let mut adaptive = AdaptiveCampaign::from_report(&seed, config).unwrap();
        while let Some(specs) = adaptive.next_round() {
            for spec in specs {
                adaptive.observe(&rule(&spec));
            }
        }
        adaptive
    }

    /// Drives the adaptive loop against the synthetic buffer rule.
    fn drive(seed_spec: &CampaignSpec, threshold_mf: f64, config: AdaptiveConfig) -> AdaptiveCampaign {
        drive_with(seed_spec, config, |spec| synthetic_report(spec, threshold_mf))
    }

    fn base_spec() -> CampaignSpec {
        CampaignSpec::new().unwrap().with_buffers_mf(vec![10.0, 640.0])
    }

    #[test]
    fn bisection_converges_on_a_bracketed_boundary() {
        let config = AdaptiveConfig { tolerance_mf: 2.0, ..AdaptiveConfig::default() };
        let adaptive = drive(&base_spec(), 100.0, config);
        assert!(adaptive.settled());
        let brackets = adaptive.brackets();
        assert_eq!(brackets.len(), 1);
        let b = &brackets[0];
        assert_eq!(b.status, BracketStatus::Converged);
        let (lo, hi) = (b.lo_mf.unwrap(), b.hi_mf.unwrap());
        assert!(b.width_mf().unwrap() <= 2.0, "width {}", b.width_mf().unwrap());
        assert!(lo < 100.0 && hi >= 100.0, "bracket [{lo}, {hi}] misses the boundary");
        // 10..640 halves to ≤2 mF within 9 bisection rounds.
        assert!(adaptive.rounds() <= 9, "took {} rounds", adaptive.rounds());
    }

    #[test]
    fn expansion_finds_a_boundary_outside_the_seed_grid() {
        // Boundary above every seeded buffer: all cells brown out, the
        // driver must expand upward before bisecting.
        let config =
            AdaptiveConfig { tolerance_mf: 8.0, ceiling_mf: 20_000.0, ..AdaptiveConfig::default() };
        let adaptive = drive(&base_spec(), 5_000.0, config);
        let b = &adaptive.brackets()[0];
        assert_eq!(b.status, BracketStatus::Converged);
        assert!(b.lo_mf.unwrap() < 5_000.0 && b.hi_mf.unwrap() >= 5_000.0);
        // Boundary below every seeded buffer: all cells survive, the
        // driver expands downward.
        let adaptive = drive(&base_spec(), 3.0, config);
        let b = &adaptive.brackets()[0];
        assert_eq!(b.status, BracketStatus::Converged);
        assert!(b.lo_mf.unwrap() < 3.0 && b.hi_mf.unwrap() >= 3.0);
    }

    #[test]
    fn out_of_range_boundaries_are_reported_not_chased() {
        let config = AdaptiveConfig::default();
        // Survives even at the floor.
        let adaptive = drive(&base_spec(), 0.01, config);
        assert_eq!(adaptive.brackets()[0].status, BracketStatus::BelowFloor);
        // Browns out even at the ceiling.
        let adaptive = drive(&base_spec(), 1e9, config);
        assert_eq!(adaptive.brackets()[0].status, BracketStatus::AboveCeiling);
    }

    #[test]
    fn round_cap_halts_an_unconverged_search() {
        let config = AdaptiveConfig { tolerance_mf: 1e-9, max_rounds: 3, ..Default::default() };
        let adaptive = drive(&base_spec(), 100.0, config);
        assert_eq!(adaptive.rounds(), 3);
        assert_eq!(adaptive.brackets()[0].status, BracketStatus::RoundLimit);
        assert!(adaptive.settled());
    }

    #[test]
    fn groups_are_partitioned_per_weather_and_governor() {
        let spec = CampaignSpec::smoke().with_buffers_mf(vec![10.0, 640.0]);
        let adaptive = drive(&spec, 100.0, AdaptiveConfig::default());
        let brackets = adaptive.brackets();
        assert_eq!(brackets.len(), 4, "2 weathers × 2 governors");
        for b in &brackets {
            assert_eq!(b.status, BracketStatus::Converged, "{}/{}", b.weather, b.governor.label());
            assert!(b.width_mf().unwrap() <= AdaptiveConfig::default().tolerance_mf);
            assert!(b.boundary_estimate_mf().unwrap() > 0.0);
        }
    }

    #[test]
    fn non_monotone_observations_stop_the_group() {
        let spec = base_spec();
        let seed = synthetic_report(&spec, 100.0);
        let mut adaptive = AdaptiveCampaign::from_report(&seed, AdaptiveConfig::default()).unwrap();
        // Fabricate a contradiction: a brown-out above the surviving
        // 640 mF point.
        let contradiction = CampaignSpec::new().unwrap().with_buffers_mf(vec![700.0]);
        let cells = contradiction
            .cells()
            .iter()
            .map(|&cell| synthetic_outcome(cell, false))
            .collect();
        adaptive.observe(&CampaignReport::from_parts(0, cells));
        assert_eq!(adaptive.brackets()[0].status, BracketStatus::NonMonotone);
        assert!(adaptive.next_round().is_none());
    }

    #[test]
    fn mixed_seed_outcomes_count_as_a_brown_out() {
        // Two seeds at the same buffer, one browns out → the point
        // browns out (worst case governs the boundary).
        let spec = CampaignSpec::new().unwrap().with_seeds(vec![1, 2]);
        let cells: Vec<CellOutcome> = spec
            .cells()
            .iter()
            .enumerate()
            .map(|(i, &cell)| synthetic_outcome(cell, i == 0))
            .collect();
        let report = CampaignReport::from_parts(0, cells);
        let adaptive = AdaptiveCampaign::from_report(&report, AdaptiveConfig::default()).unwrap();
        let b = &adaptive.brackets()[0];
        assert_eq!(b.lo_mf, Some(47.0), "mixed point must land on the browned-out side");
        assert_eq!(b.hi_mf, None);
    }

    #[test]
    fn probe_specs_reuse_the_group_axes() {
        let spec = CampaignSpec::new()
            .unwrap()
            .with_seeds(vec![3, 4])
            .with_buffers_mf(vec![10.0, 640.0]);
        let seed = synthetic_report(&spec, 100.0);
        let mut adaptive = AdaptiveCampaign::from_report(&seed, AdaptiveConfig::default()).unwrap();
        let round = adaptive.next_round().unwrap();
        assert_eq!(round.len(), 1);
        assert_eq!(round[0].seeds, vec![3, 4]);
        assert_eq!(round[0].weathers, spec.weathers);
        assert_eq!(round[0].governors, spec.governors);
        assert_eq!(round[0].duration, spec.duration);
        assert_eq!(round[0].buffers_mf.len(), 1);
        // The probe history accumulates every observed outcome.
        assert_eq!(adaptive.history().len(), 4);
        assert_eq!(adaptive.probe_report().len(), 4);
    }

    /// An RC thermal spec with the given throttle ceiling (5 °C
    /// hysteresis gap, no boost) for axis tests.
    fn thermal_at(throttle_c: f64) -> ThermalSpec {
        match ThermalSpec::stress() {
            ThermalSpec::Rc(rc) => ThermalSpec::Rc(RcThermal {
                throttle_c,
                release_c: throttle_c - 5.0,
                boost: None,
                ..rc
            }),
            ThermalSpec::Off => unreachable!("stress preset is RC"),
        }
    }

    /// Fabricates outcomes under a synthetic survives-low thermal
    /// rule: a cell survives iff its throttle ceiling is at most
    /// `limit_c` (an earlier trip caps power soon enough to stay
    /// power-neutral).
    fn synthetic_thermal_report(spec: &CampaignSpec, limit_c: f64) -> CampaignReport {
        let cells = spec
            .cells()
            .iter()
            .map(|&cell| {
                let ceiling = match cell.thermal {
                    ThermalSpec::Rc(rc) => rc.throttle_c,
                    ThermalSpec::Off => f64::INFINITY,
                };
                synthetic_outcome(cell, ceiling <= limit_c)
            })
            .collect();
        CampaignReport::from_parts(0, cells)
    }

    #[test]
    fn thermal_limit_bisection_converges_from_both_expand_directions() {
        // Mirror of the capacitance expansion test on the inverted
        // axis: a seed entirely on the surviving side (low ceiling —
        // the driver must expand upward) and one entirely on the
        // failing side (high ceiling — expand downward) must both
        // bracket the same boundary.
        let limit_c = 91.0;
        let config = AdaptiveConfig::for_axis(AdaptiveAxis::ThermalLimitC);
        let mut estimates = Vec::new();
        for seed_ceiling in [40.0, 140.0] {
            let spec = CampaignSpec::new()
                .unwrap()
                .with_thermals(vec![thermal_at(seed_ceiling)]);
            let adaptive =
                drive_with(&spec, config, |s| synthetic_thermal_report(s, limit_c));
            assert!(adaptive.settled());
            let b = &adaptive.brackets()[0];
            assert_eq!(b.status, BracketStatus::Converged, "seed {seed_ceiling}: {b:?}");
            let (lo, hi) = (b.lo_mf.unwrap(), b.hi_mf.unwrap());
            // Inverted sense: lo survived, hi browned out.
            assert!(
                lo <= limit_c && limit_c < hi,
                "seed {seed_ceiling}: bracket [{lo}, {hi}] misses the limit {limit_c}"
            );
            assert!(hi - lo <= config.tolerance_mf, "seed {seed_ceiling}: width {}", hi - lo);
            estimates.push(b.boundary_estimate_mf().unwrap());
        }
        assert!(
            (estimates[0] - estimates[1]).abs() <= config.tolerance_mf,
            "expand-up and expand-down disagree: {estimates:?}"
        );
    }

    #[test]
    fn thermal_probe_specs_substitute_the_ceiling_and_drop_the_boost() {
        let spec = CampaignSpec::new()
            .unwrap()
            .with_thermals(vec![ThermalSpec::stress()])
            .with_arrivals(vec![ArrivalSpec::bursty_stress()])
            .with_faults(vec![FaultSpec::shading_stress()]);
        let seed = synthetic_thermal_report(&spec, 91.0);
        let config = AdaptiveConfig::for_axis(AdaptiveAxis::ThermalLimitC);
        let mut adaptive = AdaptiveCampaign::from_report(&seed, config).unwrap();
        let round = adaptive.next_round().unwrap();
        assert_eq!(round.len(), 1);
        let probe = &round[0];
        // The probed thermal keeps the RC body, shifts release by the
        // template's gap, and carries no boost; every other axis
        // replays the seed report.
        let ThermalSpec::Rc(rc) = probe.thermals[0] else {
            panic!("probe lost its RC model: {:?}", probe.thermals)
        };
        assert_eq!(rc.throttle_c - rc.release_c, 5.0, "hysteresis gap drifted");
        assert!(rc.boost.is_none(), "probe kept the boost band");
        assert!(rc.validate().is_ok(), "probe thermal fails validation: {rc:?}");
        assert_eq!(probe.arrivals, spec.arrivals);
        assert_eq!(probe.faults, spec.faults);
        assert_eq!(probe.buffers_mf, spec.buffers_mf);
    }

    #[test]
    fn fault_depth_bisection_finds_the_deepest_tolerable_fault() {
        let tolerable = 0.37;
        let config = AdaptiveConfig::for_axis(AdaptiveAxis::FaultDepth);
        let spec = CampaignSpec::new()
            .unwrap()
            .with_faults(vec![FaultSpec::brownout_stress().with_depth(0.5)]);
        let adaptive = drive_with(&spec, config, |s| {
            let cells = s
                .cells()
                .iter()
                .map(|&cell| {
                    synthetic_outcome(cell, cell.fault.depth().is_none_or(|d| d <= tolerable))
                })
                .collect();
            CampaignReport::from_parts(0, cells)
        });
        let b = &adaptive.brackets()[0];
        assert_eq!(b.status, BracketStatus::Converged, "{b:?}");
        let (lo, hi) = (b.lo_mf.unwrap(), b.hi_mf.unwrap());
        assert!(lo <= tolerable && tolerable < hi, "bracket [{lo}, {hi}]");
        assert!(hi - lo <= config.tolerance_mf);
        // Probes keep the brown-out shape, only the depth moves.
        assert!(adaptive
            .history()
            .iter()
            .all(|c| matches!(c.cell.fault, FaultSpec::Brownout { .. })));
    }

    #[test]
    fn stress_axes_need_exercised_cells() {
        // A report whose cells never ran the thermal model (or a
        // fault) cannot seed a search along that axis.
        let report = synthetic_report(&base_spec(), 100.0);
        for axis in [AdaptiveAxis::ThermalLimitC, AdaptiveAxis::FaultDepth] {
            let result =
                AdaptiveCampaign::from_report(&report, AdaptiveConfig::for_axis(axis));
            assert!(
                matches!(result, Err(SimError::InvalidConfig(_))),
                "{axis} accepted an all-default report"
            );
        }
    }

    #[test]
    fn degenerate_singleton_seeds_climb_off_the_origin() {
        // A 0 mF singleton that browns out used to double in place
        // (0 × 2 = 0), probing the same point until the round cap. The
        // expansion must climb onto the floor and bracket normally.
        let config = AdaptiveConfig { tolerance_mf: 2.0, ..AdaptiveConfig::default() };
        let spec = CampaignSpec::new().unwrap().with_buffers_mf(vec![0.0]);
        let adaptive = drive(&spec, 100.0, config);
        let b = &adaptive.brackets()[0];
        assert_eq!(b.status, BracketStatus::Converged, "{b:?}");
        assert!(b.lo_mf.unwrap() < 100.0 && b.hi_mf.unwrap() >= 100.0);
    }

    proptest::proptest! {
        /// Satellite property: a seed spec carrying a *single* buffer
        /// value gives the expand phase no second point — the driver
        /// must grow a bracket geometrically from the singleton, never
        /// misreport the group as non-monotone.
        #[test]
        fn singleton_seed_specs_still_bracket_the_boundary(
            buffer_mf in 1.0f64..5_000.0,
            threshold_mf in 1.0f64..5_000.0,
        ) {
            let config = AdaptiveConfig {
                tolerance_mf: 4.0,
                floor_mf: 0.5,
                ceiling_mf: 10_000.0,
                ..AdaptiveConfig::default()
            };
            let spec = CampaignSpec::new().unwrap().with_buffers_mf(vec![buffer_mf]);
            let adaptive = drive(&spec, threshold_mf, config);
            proptest::prop_assert!(adaptive.settled());
            let b = &adaptive.brackets()[0];
            proptest::prop_assert_ne!(
                b.status, BracketStatus::NonMonotone,
                "singleton seed misreported as non-monotone: {:?}", b
            );
            proptest::prop_assert_eq!(b.status, BracketStatus::Converged);
            let (lo, hi) = (b.lo_mf.unwrap(), b.hi_mf.unwrap());
            proptest::prop_assert!(hi - lo <= config.tolerance_mf);
            proptest::prop_assert!(
                lo < threshold_mf && threshold_mf <= hi,
                "bracket [{}, {}] misses the boundary {}", lo, hi, threshold_mf
            );
        }
    }

    #[test]
    fn invalid_configs_and_empty_reports_are_rejected() {
        let report = synthetic_report(&base_spec(), 100.0);
        let bad = [
            AdaptiveConfig { tolerance_mf: 0.0, ..Default::default() },
            AdaptiveConfig { max_rounds: 0, ..Default::default() },
            AdaptiveConfig { floor_mf: -1.0, ..Default::default() },
            AdaptiveConfig { ceiling_mf: 0.5, ..Default::default() },
        ];
        for config in bad {
            assert!(
                matches!(
                    AdaptiveCampaign::from_report(&report, config),
                    Err(SimError::InvalidConfig(_))
                ),
                "{config:?} accepted"
            );
        }
        let empty = CampaignReport::from_parts(0, Vec::new());
        assert!(AdaptiveCampaign::from_report(&empty, AdaptiveConfig::default()).is_err());
    }
}
